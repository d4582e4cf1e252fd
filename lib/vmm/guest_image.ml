(* [pages] and [dirty] stay empty until the first write, install or
   restore needs them: until then every page reads as zeros and clean.
   Most domains start and stop without a guest write, so they never
   allocate the image. *)
type t = {
  memory_kib : int;
  n_pages : int;
  mutable pages : Bytes.t; (* page i occupies bytes [i*bpp, (i+1)*bpp) *)
  mutable dirty : Bytes.t; (* one byte per page: 0 clean, 1 dirty *)
  mutable generation : int;
}

(* 1 image byte = 1 KiB of guest memory; a 4 KiB guest page = 4 bytes. *)
let bytes_per_page = 4

let create ~memory_kib =
  if memory_kib <= 0 then invalid_arg "Guest_image.create: memory must be positive";
  let n_pages = (memory_kib + bytes_per_page - 1) / bytes_per_page in
  { memory_kib; n_pages; pages = Bytes.empty; dirty = Bytes.empty; generation = 0 }

let memory_kib img = img.memory_kib
let page_count img = img.n_pages
let image_length img = img.n_pages * bytes_per_page

(* Another thread may run at the allocation: the second test keeps a
   buffer it installed meanwhile. *)
let pages_for_write img =
  if Bytes.length img.pages = 0 then begin
    let fresh = Bytes.make (image_length img) '\000' in
    if Bytes.length img.pages = 0 then img.pages <- fresh
  end;
  img.pages

let dirty_for_write img =
  if Bytes.length img.dirty = 0 then begin
    let fresh = Bytes.make img.n_pages '\000' in
    if Bytes.length img.dirty = 0 then img.dirty <- fresh
  end;
  img.dirty

let is_dirty img i = Bytes.length img.dirty > 0 && Bytes.get img.dirty i = '\001'

(* Byte [k] of the image, zero before it is allocated. *)
let byte_at img k = if Bytes.length img.pages = 0 then '\000' else Bytes.get img.pages k

let check_index img i =
  if i < 0 || i >= page_count img then
    invalid_arg (Printf.sprintf "Guest_image: page %d out of range [0,%d)" i (page_count img))

let write_page img i =
  check_index img i;
  img.generation <- img.generation + 1;
  let pages = pages_for_write img in
  let base = i * bytes_per_page in
  for off = 0 to bytes_per_page - 1 do
    Bytes.set pages (base + off) (Char.chr ((i + off + img.generation) land 0xff))
  done;
  Bytes.set (dirty_for_write img) i '\001'

let dirty_pages img =
  let acc = ref [] in
  for i = page_count img - 1 downto 0 do
    if is_dirty img i then acc := i :: !acc
  done;
  !acc

let dirty_count img =
  let n = ref 0 in
  Bytes.iter (fun c -> if c = '\001' then incr n) img.dirty;
  !n

let dirty_randomly img ~rate ~seed =
  let rate = Float.max 0.0 (Float.min 1.0 rate) in
  let target = int_of_float (rate *. float_of_int (page_count img)) in
  let state = ref (if seed = 0 then 0x2545F491 else seed) in
  let next () =
    (* xorshift32 *)
    let s = !state in
    let s = s lxor (s lsl 13) land 0xffffffff in
    let s = s lxor (s lsr 17) in
    let s = s lxor (s lsl 5) land 0xffffffff in
    state := s;
    s
  in
  let dirtied = ref 0 in
  (* Bounded probing: distinct pages until the target count is reached. *)
  let attempts = ref 0 in
  let max_attempts = 20 * (target + 1) in
  while !dirtied < target && !attempts < max_attempts do
    incr attempts;
    let i = next () mod page_count img in
    if not (is_dirty img i) then begin
      write_page img i;
      incr dirtied
    end
  done

let read_page img i =
  check_index img i;
  if Bytes.length img.pages = 0 then String.make bytes_per_page '\000'
  else Bytes.sub_string img.pages (i * bytes_per_page) bytes_per_page

let transfer_page img i =
  let data = read_page img i in
  if Bytes.length img.dirty > 0 then Bytes.set img.dirty i '\000';
  data

let install_page img i data =
  check_index img i;
  if String.length data <> bytes_per_page then
    invalid_arg
      (Printf.sprintf "Guest_image.install_page: %d bytes, expected %d"
         (String.length data) bytes_per_page);
  Bytes.blit_string data 0 (pages_for_write img) (i * bytes_per_page) bytes_per_page;
  if Bytes.length img.dirty > 0 then Bytes.set img.dirty i '\000'

let snapshot img =
  if Bytes.length img.pages = 0 then String.make (image_length img) '\000'
  else Bytes.to_string img.pages

let restore_from img data =
  if String.length data <> image_length img then
    invalid_arg
      (Printf.sprintf "Guest_image.restore_from: %d bytes, image holds %d"
         (String.length data) (image_length img));
  Bytes.blit_string data 0 (pages_for_write img) 0 (String.length data);
  Bytes.fill img.dirty 0 (Bytes.length img.dirty) '\000'

let checksum img =
  let h = ref 0xcbf29ce484222325L in
  for k = 0 to image_length img - 1 do
    h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code (byte_at img k)))) 0x100000001b3L
  done;
  !h

let equal_contents a b =
  let rec same k = k = image_length a || (byte_at a k = byte_at b k && same (k + 1)) in
  image_length a = image_length b && same 0
