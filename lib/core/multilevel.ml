module Roots = Ckpt_numerics.Roots

type params = {
  te : float;
  speedup : Speedup.t;
  levels : Level.t array;
  alloc : float;
  mus : Scale_fn.t array;
}

type solution = {
  xs : float array;
  n : float;
  wall_clock : float;
  iterations : int;
  f_evals : int;
  converged : bool;
}

type breakdown = {
  productive : float;
  checkpoint : float;
  restart : float;
  allocation : float;
  rollback : float;
}

let check_params p =
  if Array.length p.levels = 0 then invalid_arg "Multilevel: no levels";
  if Array.length p.levels <> Array.length p.mus then
    invalid_arg "Multilevel: levels and mus sizes differ";
  if p.te < 0. then invalid_arg "Multilevel: negative productive time";
  if p.alloc < 0. then invalid_arg "Multilevel: negative allocation period"

let num_levels p = Array.length p.levels

let ckpt_cost p i n = Overhead.cost p.levels.(i - 1).Level.ckpt n
let ckpt_cost' p i n = Overhead.cost' p.levels.(i - 1).Level.ckpt n
let restart_cost p i n = Overhead.cost p.levels.(i - 1).Level.restart n
let restart_cost' p i n = Overhead.cost' p.levels.(i - 1).Level.restart n
let mu p i n = p.mus.(i - 1).Scale_fn.f n
let mu' p i n = p.mus.(i - 1).Scale_fn.f' n

(* Eq. (18): T_e/(g 2 x_i) + sum_{k<=i} C_k x_k / (2 x_i). *)
let expected_rollback p ~xs ~n ~level =
  assert (level >= 1 && level <= num_levels p);
  let g = Speedup.eval p.speedup n in
  let acc = ref (p.te /. g) in
  for k = 1 to level do
    acc := !acc +. (ckpt_cost p k n *. xs.(k - 1))
  done;
  !acc /. (2. *. xs.(level - 1))

let expected_wall_clock p ~xs ~n =
  assert (Array.length xs = num_levels p);
  Array.iter (fun x -> assert (x >= 1.)) xs;
  assert (n > 0.);
  let g = Speedup.eval p.speedup n in
  let acc = ref (p.te /. g) in
  for i = 1 to num_levels p do
    acc := !acc +. (ckpt_cost p i n *. (xs.(i - 1) -. 1.));
    acc :=
      !acc
      +. mu p i n
         *. (expected_rollback p ~xs ~n ~level:i +. p.alloc +. restart_cost p i n)
  done;
  !acc

let breakdown p ~xs ~n =
  let g = Speedup.eval p.speedup n in
  let productive = p.te /. g in
  let checkpoint = ref 0. and restart = ref 0. and allocation = ref 0. in
  let rollback = ref 0. in
  for i = 1 to num_levels p do
    let m = mu p i n in
    checkpoint := !checkpoint +. (ckpt_cost p i n *. (xs.(i - 1) -. 1.));
    restart := !restart +. (m *. restart_cost p i n);
    allocation := !allocation +. (m *. p.alloc);
    rollback := !rollback +. (m *. expected_rollback p ~xs ~n ~level:i)
  done;
  { productive; checkpoint = !checkpoint; restart = !restart;
    allocation = !allocation; rollback = !rollback }

(* Eq. (23). *)
let d_dx p ~xs ~n ~level =
  assert (level >= 1 && level <= num_levels p);
  let g = Speedup.eval p.speedup n in
  let ci = ckpt_cost p level n in
  let xi = xs.(level - 1) in
  let lower = ref (p.te /. g) in
  for j = 1 to level - 1 do
    lower := !lower +. (ckpt_cost p j n *. xs.(j - 1))
  done;
  let higher = ref 0. in
  for j = level + 1 to num_levels p do
    higher := !higher +. (mu p j n /. xs.(j - 1))
  done;
  ci -. (mu p level n /. (2. *. xi *. xi) *. !lower) +. (ci /. 2. *. !higher)

(* Eq. (24). *)
let d_dn p ~xs ~n =
  let g = Speedup.eval p.speedup n in
  let g' = Speedup.eval' p.speedup n in
  let acc = ref (-.p.te *. g' /. (g *. g)) in
  for i = 1 to num_levels p do
    let xi = xs.(i - 1) in
    let m = mu p i n and m' = mu' p i n in
    (* d/dN of C_i (x_i - 1) *)
    acc := !acc +. (ckpt_cost' p i n *. (xi -. 1.));
    (* d/dN of mu_i * T_e/(g 2 x_i) *)
    acc := !acc +. (m' *. p.te /. (2. *. xi *. g));
    acc := !acc -. (m *. p.te *. g' /. (2. *. xi *. g *. g));
    (* d/dN of mu_i * (sum_{k<=i} C_k x_k / (2 x_i) + A + R_i) *)
    let repaid = ref 0. and repaid' = ref 0. in
    for k = 1 to i do
      repaid := !repaid +. (ckpt_cost p k n *. xs.(k - 1));
      repaid' := !repaid' +. (ckpt_cost' p k n *. xs.(k - 1))
    done;
    let repaid = !repaid /. (2. *. xi) and repaid' = !repaid' /. (2. *. xi) in
    acc := !acc +. (m' *. (repaid +. p.alloc +. restart_cost p i n));
    acc := !acc +. (m *. (repaid' +. restart_cost' p i n))
  done;
  !acc

(* Solve Eq. (23) for x_level with everything else held fixed. *)
let x_update p ~xs ~n ~level =
  let g = Speedup.eval p.speedup n in
  let ci = ckpt_cost p level n in
  if ci <= 0. then 1.
  else begin
    let lower = ref (p.te /. g) in
    for j = 1 to level - 1 do
      lower := !lower +. (ckpt_cost p j n *. xs.(j - 1))
    done;
    let higher = ref 0. in
    for j = level + 1 to num_levels p do
      higher := !higher +. (mu p j n /. xs.(j - 1))
    done;
    let denom = 2. *. ci *. (1. +. (!higher /. 2.)) in
    Float.max 1. (sqrt (mu p level n *. !lower /. denom))
  end

(* Eq. (25). *)
let young_init p ~n =
  let g = Speedup.eval p.speedup n in
  Array.init (num_levels p) (fun idx ->
      let i = idx + 1 in
      let ci = ckpt_cost p i n in
      if ci <= 0. then 1.
      else Float.max 1. (sqrt (mu p i n *. p.te /. g /. (2. *. ci))))

let solve_scale ?evals ?hint p ~xs ~n_hi =
  let f n =
    (match evals with Some e -> incr e | None -> ());
    d_dn p ~xs ~n
  in
  if f n_hi <= 0. then n_hi
  else if f 1. >= 0. then 1.
  else begin
    (* Warm start: the root moves little between neighbouring sweep
       points, so grow a geometric bracket around the previous one and
       only fall back to the full [1, n_hi] interval if the sign
       condition never holds.  Termination: [lo] decays to 1 and [hi]
       grows to [n_hi], where the guards above established the signs. *)
    let lo, hi =
      match hint with
      | Some h when h > 1. && h < n_hi ->
          let rec widen lo hi =
            let lo_ok = f lo < 0. and hi_ok = f hi > 0. in
            if lo_ok && hi_ok then (lo, hi)
            else
              let lo' = if lo_ok then lo else Float.max 1. (lo /. 4.) in
              let hi' = if hi_ok then hi else Float.min n_hi (hi *. 4.) in
              widen lo' hi'
          in
          widen (Float.max 1. (h /. 2.)) (Float.min n_hi (h *. 2.))
      | _ -> (1., n_hi)
    in
    (Roots.bisect_integer ~f ~lo ~hi ()).Roots.root
  end

let optimize_reference ?(tol = 1e-6) ?(max_iter = 10_000) ?(n_max = 1e9) ?fixed_n ?init
    p =
  check_params p;
  let n_hi = Speedup.search_upper_bound p.speedup ~default:n_max in
  let warm_n =
    match init with
    | Some (_, n) when Float.is_finite n && n >= 1. -> Some (Float.min n_hi n)
    | _ -> None
  in
  let n0 =
    match (fixed_n, warm_n) with
    | Some n, _ -> n
    | None, Some n -> n
    | None, None -> n_hi
  in
  let xs =
    match init with
    | Some (xs0, _) when Array.length xs0 = num_levels p ->
        Array.map (fun x -> if Float.is_finite x && x > 1. then x else 1.) xs0
    | _ -> young_init p ~n:n0
  in
  (* Only the first warm iteration narrows the scale bisection: later
     iterations use the full bracket, whose fixed width keeps n' stable
     as xs converges (a moving bracket makes the width-0.5 bisection
     jitter by up to the convergence threshold and cycle).  The cold
     path never brackets around a hint, so it stays byte-identical. *)
  let hinted = init <> None in
  let evals = ref 0 in
  let rec loop xs n iter =
    if iter >= max_iter then
      { xs; n; wall_clock = expected_wall_clock p ~xs ~n; iterations = iter;
        f_evals = !evals; converged = false }
    else begin
      let xs' = Array.copy xs in
      for level = 1 to num_levels p do
        xs'.(level - 1) <- x_update p ~xs:xs' ~n ~level
      done;
      let n' =
        match fixed_n with
        | Some n -> n
        | None ->
            let hint = if hinted && iter = 0 then Some n else None in
            solve_scale ~evals ?hint p ~xs:xs' ~n_hi
      in
      let dx = Ckpt_numerics.Fixed_point.max_abs_diff xs xs' in
      if dx <= tol && Float.abs (n' -. n) <= 0.5 then
        { xs = xs'; n = n';
          wall_clock = expected_wall_clock p ~xs:xs' ~n:n';
          iterations = iter + 1; f_evals = !evals; converged = true }
      else loop xs' n' (iter + 1)
    end
  in
  loop xs n0 0
