(* Reflected CRC-32, polynomial 0xEDB88320, init/final xor 0xFFFFFFFF —
   byte-for-byte what zlib's crc32() computes.  OCaml's 63-bit ints hold
   the 32-bit state directly; [land 0xFFFF_FFFF] keeps it in range. *)

let table =
  lazy
    (Array.init 256 (fun n ->
         let c = ref n in
         for _ = 0 to 7 do
           c := if !c land 1 = 1 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
         done;
         !c))

let sub s ~pos ~len =
  if pos < 0 || len < 0 || pos + len > String.length s then
    invalid_arg "Crc32.sub: invalid range";
  let table = Lazy.force table in
  let crc = ref 0xFFFFFFFF in
  for i = pos to pos + len - 1 do
    crc := table.((!crc lxor Char.code s.[i]) land 0xFF) lxor (!crc lsr 8)
  done;
  !crc lxor 0xFFFFFFFF

let string s = sub s ~pos:0 ~len:(String.length s)

(* Only the exact [%08x] form: [int_of_string "0x..."] would also take
   upper-case digits and [_] separators, so a header byte could change
   and still read as the same checksum. *)
let of_hex s =
  let lower_hex = function '0' .. '9' | 'a' .. 'f' -> true | _ -> false in
  if String.length s = 8 && String.for_all lower_hex s then int_of_string_opt ("0x" ^ s)
  else None
