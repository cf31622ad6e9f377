let max_abs_diff xs ys =
  assert (Array.length xs = Array.length ys);
  let acc = ref 0. in
  Array.iteri (fun i x -> acc := Float.max !acc (Float.abs (x -. ys.(i)))) xs;
  !acc
