type t = string (* exactly 16 raw bytes *)

let counter = Atomic.make 1

(* Spread the seed's bits through the bytes with a multiplicative hash so
   consecutive seeds give UUIDs that differ everywhere. *)
let of_seed seed =
  let b = Bytes.create 16 in
  let h = ref seed in
  for i = 0 to 15 do
    h := Int64.add (Int64.mul !h 6364136223846793005L) 1442695040888963407L;
    Bytes.set b i (Char.chr (Int64.to_int (Int64.shift_right_logical !h 56) land 0xff))
  done;
  (* Stamp the version-4 and variant bits so the text form is a valid v4. *)
  Bytes.set b 6 (Char.chr (0x40 lor (Char.code (Bytes.get b 6) land 0x0f)));
  Bytes.set b 8 (Char.chr (0x80 lor (Char.code (Bytes.get b 8) land 0x3f)));
  Bytes.unsafe_to_string b

let generate () =
  let n = Atomic.fetch_and_add counter 1 in
  let t = Int64.bits_of_float (Unix.gettimeofday ()) in
  of_seed (Int64.logxor t (Int64.of_int (n * 0x9e3779b9)))

(* 64-bit FNV-1a of the name. *)
let derive name =
  let h = ref (-3750763034362895579L) in
  String.iter
    (fun c ->
      h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code c))) 1099511628211L)
    name;
  of_seed !h

(* Listings render one UUID per row on both ends of the wire, so this
   writes the 36 bytes straight from a digit table: one allocation, no
   format interpretation. *)
let digits = "0123456789abcdef"

let to_string u =
  let b = Bytes.create 36 in
  let dst = ref 0 in
  for i = 0 to 15 do
    if i = 4 || i = 6 || i = 8 || i = 10 then begin
      Bytes.unsafe_set b !dst '-';
      incr dst
    end;
    let c = Char.code u.[i] in
    Bytes.unsafe_set b !dst digits.[c lsr 4];
    Bytes.unsafe_set b (!dst + 1) digits.[c land 0x0f];
    dst := !dst + 2
  done;
  Bytes.unsafe_to_string b

(* The digit's value, or -1 when [c] is not a hex digit: no option box
   per digit on the listing path, which parses one UUID per row. *)
let hex_value c =
  match c with
  | '0' .. '9' -> Char.code c - Char.code '0'
  | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
  | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
  | _ -> -1

let malformed s = Error (Printf.sprintf "malformed UUID %S" s)

(* Canonical 8-4-4-4-12: the dashes sit at exactly offsets 8, 13, 18 and
   23, and every other character is a hex digit. *)
let of_string s =
  if String.length s <> 36 || s.[8] <> '-' || s.[13] <> '-' || s.[18] <> '-'
     || s.[23] <> '-'
  then malformed s
  else begin
    let b = Bytes.create 16 in
    let src = ref 0 in
    let ok = ref true in
    for dst = 0 to 15 do
      if !src = 8 || !src = 13 || !src = 18 || !src = 23 then incr src;
      let hi = hex_value s.[!src] and lo = hex_value s.[!src + 1] in
      if hi < 0 || lo < 0 then ok := false
      else Bytes.unsafe_set b dst (Char.unsafe_chr ((hi lsl 4) lor lo));
      src := !src + 2
    done;
    if !ok then Ok (Bytes.unsafe_to_string b) else malformed s
  end

let equal = String.equal
let compare = String.compare
let pp fmt u = Format.pp_print_string fmt (to_string u)
