type t = { words : int array; cap : int }

let create n =
  assert (n >= 0);
  { words = Array.make ((n + 62) / 63) 0; cap = n }

let capacity t = t.cap

let check t i = assert (i >= 0 && i < t.cap)

let add t i =
  check t i;
  let w = i / 63 in
  t.words.(w) <- t.words.(w) lor (1 lsl (i mod 63))

let remove t i =
  check t i;
  let w = i / 63 in
  t.words.(w) <- t.words.(w) land lnot (1 lsl (i mod 63))

let mem t i =
  check t i;
  t.words.(i / 63) land (1 lsl (i mod 63)) <> 0

let clear t = Array.fill t.words 0 (Array.length t.words) 0

let popcount x =
  let rec go acc x = if x = 0 then acc else go (acc + 1) (x land (x - 1)) in
  go 0 x

let cardinal t = Array.fold_left (fun acc w -> acc + popcount w) 0 t.words

let is_empty t =
  let rec go i = i >= Array.length t.words || (t.words.(i) = 0 && go (i + 1)) in
  go 0

let rec log2 n acc = if n = 1 then acc else log2 (n lsr 1) (acc + 1)

(* Top-level (not a local closure) so [next] allocates nothing. *)
let rec scan t w bits =
  if bits <> 0 then (w * 63) + log2 (bits land - bits) 0
  else if w + 1 < Array.length t.words then scan t (w + 1) t.words.(w + 1)
  else -1

let next t i =
  if i >= t.cap then -1
  else begin
    check t i;
    let w = i / 63 in
    scan t w (t.words.(w) land (-1 lsl (i mod 63)))
  end

let iter f t =
  let s = ref (next t 0) in
  while !s >= 0 do
    f !s;
    s := next t (!s + 1)
  done

let fold f init t =
  let acc = ref init in
  iter (fun i -> acc := f !acc i) t;
  !acc

exception Found

let exists p t =
  try
    iter (fun i -> if p i then raise Found) t;
    false
  with Found -> true

let singleton_or_empty t =
  match fold (fun acc i -> i :: acc) [] t with
  | [ i ] -> Some i
  | _ -> None
