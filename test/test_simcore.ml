(* Tests for the simulation support kit: PRNG, event heap, histograms,
   counters, and the bit scan of the machine directory's sharer sets. *)

module Prng = Dps_simcore.Prng
module Sharers = Dps_machine.Machine.Sharers
module Heap = Dps_simcore.Heap
module Histogram = Dps_simcore.Histogram
module Stats = Dps_simcore.Stats

let test_prng_deterministic () =
  let a = Prng.create 1L and b = Prng.create 1L in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Prng.next64 a) (Prng.next64 b)
  done

let test_prng_seeds_differ () =
  let a = Prng.create 1L and b = Prng.create 2L in
  let same = ref 0 in
  for _ = 1 to 64 do
    if Prng.next64 a = Prng.next64 b then incr same
  done;
  Alcotest.(check bool) "streams diverge" true (!same < 4)

let test_prng_split_independent () =
  let a = Prng.create 5L in
  let c = Prng.split a in
  let xs = List.init 32 (fun _ -> Prng.next64 a) in
  let ys = List.init 32 (fun _ -> Prng.next64 c) in
  Alcotest.(check bool) "split streams differ" true (xs <> ys)

let test_prng_int_bounds () =
  let p = Prng.create 9L in
  for _ = 1 to 10_000 do
    let v = Prng.int p 17 in
    if v < 0 || v >= 17 then Alcotest.failf "out of bounds: %d" v
  done

let test_prng_float_bounds () =
  let p = Prng.create 11L in
  for _ = 1 to 10_000 do
    let v = Prng.float p 3.0 in
    if v < 0.0 || v >= 3.0 then Alcotest.failf "out of bounds: %f" v
  done

let test_prng_below_probability () =
  let p = Prng.create 13L in
  let hits = ref 0 in
  let n = 100_000 in
  for _ = 1 to n do
    if Prng.below p 0.3 then incr hits
  done;
  let frac = float_of_int !hits /. float_of_int n in
  Alcotest.(check bool) "~30%" true (frac > 0.28 && frac < 0.32)

(* The coherence directory's sharer sets: [Sharers.words n] ints per set,
   packed side by side in one flat array. Each test packs a decoy set
   after the one it checks, so a helper that strays past its own words
   shows up. *)
let sharer_sets n =
  let nw = Sharers.words n in
  (Array.make (2 * nw) 0, nw)

let members w base nw =
  let rec walk i = match Sharers.next w base nw i with -1 -> [] | m -> m :: walk (m + 1) in
  walk 0

let test_bitset_basics () =
  let w, nw = sharer_sets 100 in
  Alcotest.(check int) "two words for 100 cores" 2 nw;
  Alcotest.(check (list int)) "empty" [] (members w 0 nw);
  List.iter (Sharers.add w 0) [ 0; 63; 64; 99 ];
  Alcotest.(check int) "cardinal" 4 (List.length (members w 0 nw));
  Alcotest.(check bool) "mem 63" true (Sharers.mem w 0 63);
  Alcotest.(check bool) "not mem 42" false (Sharers.mem w 0 42);
  Sharers.remove w 0 63;
  Alcotest.(check bool) "removed" false (Sharers.mem w 0 63);
  Alcotest.(check (list int)) "after remove" [ 0; 64; 99 ] (members w 0 nw);
  Alcotest.(check (list int)) "decoy untouched" [] (members w nw nw)

let test_bitset_iter_order () =
  let w, nw = sharer_sets 200 in
  Sharers.add w nw 1;
  List.iter (Sharers.add w 0) [ 150; 3; 77; 0; 199 ];
  Alcotest.(check (list int)) "sorted member order" [ 0; 3; 77; 150; 199 ] (members w 0 nw)

let test_bitset_next () =
  let w, nw = sharer_sets 200 in
  Sharers.add w nw 5;
  List.iter (Sharers.add w 0) [ 150; 3; 62; 63; 0; 199 ];
  let next = Sharers.next w 0 nw in
  Alcotest.(check (list int))
    "walk in increasing order" [ 0; 3; 62; 63; 150; 199 ] (members w 0 nw);
  Alcotest.(check int) "from a member" 62 (next 62);
  Alcotest.(check int) "skips within a word" 62 (next 4);
  Alcotest.(check int) "first bit of the second word" 63 (next 63);
  Alcotest.(check int) "between members" 150 (next 64);
  Alcotest.(check int) "past the last member" (-1) (next 200);
  Alcotest.(check int) "empty set" (-1) (Sharers.next (Array.make 1 0) 0 1 0);
  Alcotest.(check (list int)) "decoy walks alone" [ 5 ] (members w nw nw)

let test_bitset_clear () =
  let w, nw = sharer_sets 70 in
  List.iter (Sharers.add w 0) [ 1; 2; 3; 69 ];
  List.iter (Sharers.add w nw) [ 0; 69 ];
  Sharers.clear w 0 nw;
  Alcotest.(check (list int)) "empty after clear" [] (members w 0 nw);
  Alcotest.(check (list int)) "decoy untouched" [ 0; 69 ] (members w nw nw)

let test_heap_ordering () =
  let h = Heap.create () in
  List.iter
    (fun (t, v) -> Heap.push h ~time:t v)
    [ (5, "e"); (1, "a"); (3, "c"); (2, "b"); (4, "d") ];
  let out = ref [] in
  let rec drain () =
    match Heap.pop h with
    | None -> ()
    | Some (_, v) ->
        out := v :: !out;
        drain ()
  in
  drain ();
  Alcotest.(check (list string)) "time order" [ "a"; "b"; "c"; "d"; "e" ] (List.rev !out)

let test_heap_fifo_ties () =
  let h = Heap.create () in
  List.iter (fun v -> Heap.push h ~time:7 v) [ 1; 2; 3; 4; 5 ];
  let rec drain acc =
    match Heap.pop h with None -> List.rev acc | Some (_, v) -> drain (v :: acc)
  in
  Alcotest.(check (list int)) "ties pop in push order" [ 1; 2; 3; 4; 5 ] (drain [])

let test_heap_grow () =
  let h = Heap.create () in
  for i = 999 downto 0 do
    Heap.push h ~time:i i
  done;
  Alcotest.(check int) "size" 1000 (Heap.size h);
  let prev = ref (-1) in
  let rec drain () =
    match Heap.pop h with
    | None -> ()
    | Some (t, v) ->
        Alcotest.(check int) "payload = time" t v;
        if t < !prev then Alcotest.failf "out of order: %d after %d" t !prev;
        prev := t;
        drain ()
  in
  drain ();
  Alcotest.(check bool) "empty" true (Heap.is_empty h)

let test_heap_min_time () =
  let h = Heap.create () in
  Alcotest.(check (option int)) "empty" None (Heap.min_time h);
  Heap.push h ~time:42 ();
  Alcotest.(check (option int)) "min" (Some 42) (Heap.min_time h)

let test_histogram_percentiles () =
  let h = Histogram.create () in
  for v = 1 to 1000 do
    Histogram.add h v
  done;
  Alcotest.(check int) "count" 1000 (Histogram.count h);
  let p50 = Histogram.percentile h 0.5 in
  let p99 = Histogram.percentile h 0.99 in
  Alcotest.(check bool)
    (Printf.sprintf "p50 near 500 (got %d)" p50)
    true
    (p50 >= 450 && p50 <= 550);
  Alcotest.(check bool)
    (Printf.sprintf "p99 near 990 (got %d)" p99)
    true
    (p99 >= 950 && p99 <= 1000);
  Alcotest.(check int) "max" 1000 (Histogram.max_value h)

let test_histogram_mean () =
  let h = Histogram.create () in
  List.iter (Histogram.add h) [ 10; 20; 30 ];
  Alcotest.(check (float 0.001)) "mean" 20.0 (Histogram.mean h)

let test_histogram_empty () =
  let h = Histogram.create () in
  Alcotest.(check int) "p99 of empty" 0 (Histogram.percentile h 0.99);
  Alcotest.(check (float 0.0)) "mean of empty" 0.0 (Histogram.mean h)

let test_histogram_merge () =
  let a = Histogram.create () and b = Histogram.create () in
  List.iter (Histogram.add a) [ 1; 2; 3 ];
  List.iter (Histogram.add b) [ 1000; 2000 ];
  Histogram.merge_into ~dst:a b;
  Alcotest.(check int) "count" 5 (Histogram.count a);
  Alcotest.(check int) "max" 2000 (Histogram.max_value a)

let test_histogram_large_values () =
  let h = Histogram.create () in
  Histogram.add h 1_000_000_000;
  Histogram.add h 5;
  let p99 = Histogram.percentile h 0.99 in
  Alcotest.(check bool) "p99 covers large sample" true (p99 >= 900_000_000)

let test_stats () =
  let s = Stats.create () in
  Stats.incr s "a";
  Stats.incr s "a";
  Stats.add s "b" 10;
  Alcotest.(check int) "a" 2 (Stats.get s "a");
  Alcotest.(check int) "b" 10 (Stats.get s "b");
  Alcotest.(check int) "missing" 0 (Stats.get s "zzz");
  Alcotest.(check (list (pair string int))) "to_list" [ ("a", 2); ("b", 10) ] (Stats.to_list s);
  Stats.reset s;
  Alcotest.(check int) "after reset" 0 (Stats.get s "a")

let qcheck_histogram_percentile_bounds =
  QCheck.Test.make ~name:"histogram percentile bounded by max" ~count:200
    QCheck.(list_of_size Gen.(1 -- 100) (int_bound 100_000))
    (fun samples ->
      let h = Histogram.create () in
      List.iter (Histogram.add h) samples;
      let p v = Histogram.percentile h v in
      p 0.5 <= p 0.99 && p 0.99 <= Histogram.max_value h && p 1.0 = Histogram.max_value h)

let qcheck_bitset_model =
  QCheck.Test.make ~name:"bitset agrees with list model" ~count:200
    QCheck.(list (pair bool (int_bound 99)))
    (fun ops ->
      let w, nw = sharer_sets 100 in
      let model = Hashtbl.create 16 in
      List.iter
        (fun (add, i) ->
          if add then begin
            Sharers.add w 0 i;
            Hashtbl.replace model i ()
          end
          else begin
            Sharers.remove w 0 i;
            Hashtbl.remove model i
          end)
        ops;
      members w 0 nw = List.sort compare (Hashtbl.fold (fun i () acc -> i :: acc) model [])
      && List.for_all (fun i -> Sharers.mem w 0 i = Hashtbl.mem model i) (List.init 100 Fun.id))

let suite =
  [
    ("prng deterministic", `Quick, test_prng_deterministic);
    ("prng seeds differ", `Quick, test_prng_seeds_differ);
    ("prng split independent", `Quick, test_prng_split_independent);
    ("prng int bounds", `Quick, test_prng_int_bounds);
    ("prng float bounds", `Quick, test_prng_float_bounds);
    ("prng below probability", `Quick, test_prng_below_probability);
    ("bitset basics", `Quick, test_bitset_basics);
    ("bitset iter order", `Quick, test_bitset_iter_order);
    ("bitset next", `Quick, test_bitset_next);
    ("bitset clear", `Quick, test_bitset_clear);
    ("heap ordering", `Quick, test_heap_ordering);
    ("heap fifo ties", `Quick, test_heap_fifo_ties);
    ("heap grow", `Quick, test_heap_grow);
    ("heap min_time", `Quick, test_heap_min_time);
    ("histogram percentiles", `Quick, test_histogram_percentiles);
    ("histogram mean", `Quick, test_histogram_mean);
    ("histogram empty", `Quick, test_histogram_empty);
    ("histogram merge", `Quick, test_histogram_merge);
    ("histogram large values", `Quick, test_histogram_large_values);
    ("stats counters", `Quick, test_stats);
    QCheck_alcotest.to_alcotest qcheck_histogram_percentile_bounds;
    QCheck_alcotest.to_alcotest qcheck_bitset_model;
  ]
