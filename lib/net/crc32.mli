(** CRC-32 (IEEE 802.3, the zlib/PNG polynomial) over strings.

    Guards snapshot payloads against torn writes and bit rot: the
    {!Snapshot} header carries the payload's checksum, and a mismatch on
    load means the file is discarded rather than decoded.  Table-driven,
    no dependencies. *)

val string : string -> int
(** [string s] is the CRC-32 of all of [s], in [0, 0xFFFF_FFFF]. *)

val sub : string -> pos:int -> len:int -> int
(** Checksum of the substring; bounds-checked.
    @raise Invalid_argument on an invalid range. *)

val of_hex : string -> int option
(** [of_hex s] reads a checksum written as [Printf.sprintf "%08x"]:
    exactly eight lower-case hex digits, [None] for anything else.  A
    header field that any single-byte change alters is then never read
    back as the same checksum. *)
