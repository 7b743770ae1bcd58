(* The benchmark's own tests, on scaled-down versions of its workloads:
   one seed gives one simulation, tracing does not perturb it, the seed
   reaches the generated inputs, and the built-in output checks pass. *)

module W = Perfbench.Workloads

let small_sets =
  { W.sets_large_params with W.threads = 8; size = 2048; duration = 100_000 }

let small_deleg = { W.deleg_hot_params with W.threads = 20; size = 256; duration = 100_000 }

let small_serve =
  {
    W.items = 1024;
    conns = 64;
    window = 100_000;
    nominal_window = 100_000;
    ladder = [ 5.; 40.; 200. ];
    nominal = 5.;
  }

let small_fleet = { W.users = 1024; fitems = 1024; fwindow = 200_000 }

let run ?(reps = 1) name ~seed ~trace =
  let spans = W.spans () in
  W.repeat_setup reps (fun ~setup_only ~earlier ->
      match name with
      | "sets-large" -> W.sets_large ~p:small_sets ~setup_only ~earlier ~seed ~trace ~spans ()
      | "deleg-hot" -> W.deleg_hot ~p:small_deleg ~setup_only ~earlier ~seed ~trace ~spans ()
      | "serve" -> fst (W.serve ~p:small_serve ~setup_only ~earlier ~seed ~trace ~spans ())
      | "fleet" -> W.fleet ~p:small_fleet ~setup_only ~earlier ~seed ~trace ~spans ()
      | _ -> invalid_arg name)

let names = [ "sets-large"; "deleg-hot"; "serve"; "fleet" ]

let per_workload f = List.map (fun n -> Alcotest.test_case n `Quick (fun () -> f n)) names

let same_seed name =
  let a = run name ~seed:3 ~trace:false and b = run name ~seed:3 ~trace:false in
  Alcotest.(check (list string)) "checks pass" [] a.W.failures;
  Alcotest.(check bool) "ops completed" true (a.W.ops > 0);
  Alcotest.(check string) "digest" (W.digest a) (W.digest b);
  Alcotest.(check string) "inputs" a.W.inputs b.W.inputs

let traced_same name =
  let a = run name ~seed:5 ~trace:false and b = run name ~seed:5 ~trace:true in
  Alcotest.(check string) "digest" (W.digest a) (W.digest b);
  let p = Option.get b.W.probe in
  Alcotest.(check bool) "hook saw events" true (p.W.suspends > 0 && p.W.access_ev > 0);
  Alcotest.(check bool) "replay ran" true
    (List.assoc "machine.replayed_accesses" b.W.host_layer > 0.0)

(* set-ups stopped at their first simulated cycle leave nothing behind
   that moves the round run after them *)
let repeated_setup name =
  let a = run name ~seed:6 ~trace:false and b = run ~reps:3 name ~seed:6 ~trace:false in
  Alcotest.(check int) "set-ups timed" 3 (List.length b.W.setups);
  Alcotest.(check string) "digest" (W.digest a) (W.digest b)

let seed_matters name =
  let a = run name ~seed:1 ~trace:false and b = run name ~seed:2 ~trace:false in
  Alcotest.(check bool) "inputs differ" true (a.W.inputs <> b.W.inputs);
  Alcotest.(check bool) "simulation differs" true (W.digest a <> W.digest b)

(* ring wait + exec + reply means add up to the mean op latency *)
let decomposition_sums () =
  let r = run "deleg-hot" ~seed:4 ~trace:false in
  let g k = List.assoc k r.W.layer in
  Alcotest.(check (float 1e-6))
    "sum" (g "op_cycles_mean")
    (g "dps.ring_wait_cycles_mean" +. g "ds.exec_cycles_mean" +. g "dps.reply_cycles_mean")

let max_rate () =
  let pt rate p99 unresolved = { W.rate; issued = 1000; unresolved; errors = 0; p99 } in
  let limit = 1000 in
  Alcotest.(check (float 1e-9)) "all pass" 30.0 (W.max_rate ~limit [ pt 10. 500 0; pt 30. 900 0 ]);
  Alcotest.(check (float 1e-9)) "none pass" 0.0 (W.max_rate ~limit [ pt 10. 2000 0 ]);
  (* score 0.5 at 10, 1.5 at 20: crosses 1 halfway *)
  Alcotest.(check (float 1e-9)) "p99 crossing" 15.0
    (W.max_rate ~limit [ pt 20. 1500 0; pt 10. 500 0 ]);
  (* 20 unresolved of 1000 is a score of 2; 0 at 10 *)
  Alcotest.(check (float 1e-9)) "backlog crossing" 15.0
    (W.max_rate ~limit [ pt 10. 0 0; pt 20. 0 20; pt 30. 0 500 ]);
  (* the small serve ladder brackets its knee *)
  let point rate =
    snd
      (W.serve ~p:small_serve ~rate ~setup_only:false ~earlier:[] ~seed:1 ~trace:false
         ~spans:(W.no_spans ()) ())
  in
  let pts = List.map point small_serve.W.ladder in
  let mr = W.max_rate ~limit:W.serve_limit pts in
  Alcotest.(check bool) "knee inside the ladder" true (mr > 5.0 && mr < 200.0)

let () =
  Alcotest.run "perfbench"
    [
      ("same seed, same digest", per_workload same_seed);
      ("traced digest equals untraced", per_workload traced_same);
      ("seed changes inputs", per_workload seed_matters);
      ("repeated set-up leaves the round unchanged", per_workload repeated_setup);
      ( "metrics",
        [
          Alcotest.test_case "decomposition sums" `Quick decomposition_sums;
          Alcotest.test_case "max rate" `Quick max_rate;
        ] );
    ]
