(* The 64-bit state lives in an 8-byte buffer rather than a mutable
   [int64] field: the compiler reads and writes it unboxed, so a draw
   allocates nothing (a field store boxes a fresh [int64] per draw). Cache
   evictions draw on every capacity miss. *)
type t = Bytes.t

let golden_gamma = 0x9E3779B97F4A7C15L

let create seed =
  let t = Bytes.create 8 in
  Bytes.set_int64_ne t 0 seed;
  t

let[@inline] mix64 z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let[@inline] next64 t =
  let s = Int64.add (Bytes.get_int64_ne t 0) golden_gamma in
  Bytes.set_int64_ne t 0 s;
  mix64 s

let split t =
  let s = next64 t in
  create (mix64 (Int64.logxor s 0xA5A5A5A5A5A5A5A5L))

let int t bound =
  assert (bound > 0);
  let v = Int64.to_int (Int64.shift_right_logical (next64 t) 2) in
  v mod bound

let float t bound =
  let v = Int64.to_float (Int64.shift_right_logical (next64 t) 11) in
  v /. 9007199254740992.0 *. bound

let bool t = Int64.logand (next64 t) 1L = 1L

let below t p = float t 1.0 < p
