(* Tests for the discrete-event simulated-thread scheduler. *)

module Machine = Dps_machine.Machine
module Topology = Dps_machine.Topology
module Sthread = Dps_sthread.Sthread

let mk () = Sthread.create (Machine.create Machine.config_default)

let test_single_thread_runs () =
  let s = mk () in
  let ran = ref false in
  Sthread.spawn s ~hw:0 (fun () ->
      Sthread.work 100;
      ran := true);
  Sthread.run s;
  Alcotest.(check bool) "ran" true !ran;
  Alcotest.(check int) "time advanced by work" 100 (Sthread.now s)

let test_threads_interleave () =
  let s = mk () in
  let log = ref [] in
  let worker name =
    Sthread.spawn s ~hw:(if name = "a" then 0 else 2) (fun () ->
        for i = 1 to 3 do
          Sthread.work 10;
          log := (name, i) :: !log
        done)
  in
  worker "a";
  worker "b";
  Sthread.run s;
  let log = List.rev !log in
  (* Equal costs: steps alternate deterministically. *)
  Alcotest.(check int) "6 steps" 6 (List.length log);
  let a_steps = List.filteri (fun i _ -> i mod 2 = 0) log in
  Alcotest.(check bool) "interleaved" true
    (List.for_all (fun (n, _) -> n = "a") a_steps
    || List.for_all (fun (n, _) -> n = "b") a_steps)

let test_memory_access_charges_time () =
  let s = mk () in
  let m = Sthread.machine s in
  let a = Machine.alloc m (Machine.On_node 0) ~lines:1 in
  Sthread.spawn s ~hw:0 (fun () ->
      Sthread.read a;
      Sthread.read a);
  Sthread.run s;
  let costs = (Machine.config m).Machine.costs in
  Alcotest.(check int) "walk + dram, then hit"
    (costs.Dps_machine.Costs.walk_local + costs.Dps_machine.Costs.dram_local
   + costs.Dps_machine.Costs.priv_hit)
    (Sthread.now s)

let test_deterministic_schedule () =
  let run_once () =
    let s = mk () in
    let m = Sthread.machine s in
    let a = Machine.alloc m Machine.Interleave ~lines:64 in
    let trace = Buffer.create 256 in
    for t = 0 to 7 do
      Sthread.spawn s ~hw:(t * 2) (fun () ->
          let p = Sthread.self_prng () in
          for _ = 1 to 20 do
            let addr = a + Dps_simcore.Prng.int p 64 in
            if Dps_simcore.Prng.bool p then Sthread.write addr else Sthread.read addr;
            Buffer.add_string trace (Printf.sprintf "%d@%d;" (Sthread.self_id ()) (Sthread.time ()))
          done)
    done;
    Sthread.run s;
    (Buffer.contents trace, Sthread.now s)
  in
  let t1, n1 = run_once () and t2, n2 = run_once () in
  Alcotest.(check string) "identical traces" t1 t2;
  Alcotest.(check int) "identical end time" n1 n2

let test_run_until () =
  let s = mk () in
  let steps = ref 0 in
  Sthread.spawn s ~hw:0 (fun () ->
      while Sthread.time () < 10_000 do
        Sthread.work 100;
        incr steps
      done);
  Sthread.run ~until:500 s;
  let at_500 = !steps in
  Alcotest.(check bool) "paused early" true (at_500 <= 6);
  Sthread.run s;
  Alcotest.(check int) "completed" 100 !steps

let test_self_identifiers () =
  let s = mk () in
  let seen = ref [] in
  Sthread.spawn s ~hw:6 (fun () -> seen := (Sthread.self_id (), Sthread.self_hw ()) :: !seen);
  Sthread.spawn s ~hw:8 (fun () -> seen := (Sthread.self_id (), Sthread.self_hw ()) :: !seen);
  Sthread.run s;
  Alcotest.(check (list (pair int int))) "ids and pins" [ (1, 8); (0, 6) ] !seen

let test_live_threads () =
  let s = mk () in
  Sthread.spawn s ~hw:0 (fun () -> Sthread.work 10);
  Sthread.spawn s ~hw:2 (fun () -> Sthread.work 20);
  Alcotest.(check int) "two live" 2 (Sthread.live_threads s);
  Sthread.run s;
  Alcotest.(check int) "none live" 0 (Sthread.live_threads s)

let test_charge_and_flush () =
  let s = mk () in
  let m = Sthread.machine s in
  let a = Machine.alloc m (Machine.On_node 0) ~lines:8 in
  let t_after_charges = ref (-1) in
  Sthread.spawn s ~hw:0 (fun () ->
      for i = 0 to 7 do
        Sthread.charge_read (a + i)
      done;
      t_after_charges := Sthread.time ();
      Sthread.flush ());
  Sthread.run s;
  Alcotest.(check int) "charges do not advance time" 0 !t_after_charges;
  let costs = (Machine.config m).Machine.costs in
  let pages = List.sort_uniq compare (List.init 8 (fun i -> (a + i) lsr 6)) in
  (* eight cold DRAM fetches, one page walk per page, plus the memory
     controller's per-line service (6 cycles) queueing the burst *)
  let dram_queue = 6 * (0 + 1 + 2 + 3 + 4 + 5 + 6 + 7) in
  Alcotest.(check int) "flush advances by total"
    ((8 * costs.Dps_machine.Costs.dram_local)
    + (List.length pages * costs.Dps_machine.Costs.walk_local)
    + dram_queue)
    (Sthread.now s)

let test_spawn_from_inside () =
  let s = mk () in
  let child_ran = ref false in
  Sthread.spawn s ~hw:0 (fun () ->
      Sthread.work 50;
      Sthread.spawn s ~hw:2 (fun () -> child_ran := true));
  Sthread.run s;
  Alcotest.(check bool) "child ran" true !child_ran

let test_exception_propagates () =
  let s = mk () in
  Sthread.spawn s ~hw:0 (fun () -> failwith "boom");
  Alcotest.check_raises "propagates" (Failure "boom") (fun () -> Sthread.run s)

let test_outside_context_rejected () =
  Alcotest.check_raises "no context" (Failure "Sthread: called from outside a simulated thread")
    (fun () -> ignore (Sthread.self_hw ()))

let test_access_pipelined () =
  (* pipelined accesses charge a fraction of the latency but keep the full
     coherence transition *)
  let serial =
    let s = mk () in
    let m = Sthread.machine s in
    let a = Machine.alloc m (Machine.On_node 0) ~lines:64 in
    Sthread.spawn s ~hw:0 (fun () ->
        for i = 0 to 63 do
          Sthread.read (a + i)
        done);
    Sthread.run s;
    Sthread.now s
  in
  let pipelined =
    let s = mk () in
    let m = Sthread.machine s in
    let a = Machine.alloc m (Machine.On_node 0) ~lines:64 in
    Sthread.spawn s ~hw:0 (fun () ->
        for i = 0 to 63 do
          Sthread.access_pipelined ~factor:8 ~kind:Machine.Read (a + i)
        done);
    Sthread.run s;
    Sthread.now s
  in
  Alcotest.(check bool)
    (Printf.sprintf "pipelined faster (%d vs %d)" pipelined serial)
    true
    (pipelined * 4 < serial)

let test_hyperthread_dilation_in_sim () =
  (* A thread running with its sibling active takes longer per work unit. *)
  let solo =
    let s = mk () in
    Sthread.spawn s ~hw:0 (fun () -> Sthread.work 1000);
    Sthread.run s;
    Sthread.now s
  in
  let shared =
    let s = mk () in
    Sthread.spawn s ~hw:0 (fun () -> Sthread.work 1000);
    Sthread.spawn s ~hw:1 (fun () -> Sthread.work 1000);
    Sthread.run s;
    Sthread.now s
  in
  Alcotest.(check int) "solo time" 1000 solo;
  Alcotest.(check bool) "sibling dilates" true (shared > 1000)

let test_alloc_policies () =
  let s = mk () in
  let m = Sthread.machine s in
  (* cold Spread: round-robin over sockets *)
  let spread = Dps_sthread.Alloc.create m ~cold:Dps_sthread.Alloc.Spread in
  let homes = List.init 8 (fun _ -> Machine.home_of m (Dps_sthread.Alloc.line spread)) in
  Alcotest.(check (list int)) "spread round-robin" [ 0; 1; 2; 3; 0; 1; 2; 3 ] homes;
  (* cold Node n: pinned *)
  let pinned = Dps_sthread.Alloc.create m ~cold:(Dps_sthread.Alloc.Node 2) in
  Alcotest.(check int) "pinned" 2 (Machine.home_of m (Dps_sthread.Alloc.line pinned));
  (* in simulation: homed on the allocating thread's socket *)
  let seen = ref (-1) in
  Sthread.spawn s ~hw:60 (fun () -> seen := Machine.home_of m (Dps_sthread.Alloc.line spread));
  Sthread.run s;
  Alcotest.(check int) "sim alloc node-local" 3 !seen

let test_kill_drops_thread () =
  let s = mk () in
  let m = Sthread.machine s in
  let steps = ref 0 in
  let exited = ref [] in
  Sthread.on_exit s (fun tid -> exited := tid :: !exited);
  Sthread.spawn s ~hw:0 (fun () ->
      for _ = 1 to 100 do
        Sthread.work 100;
        incr steps
      done);
  Sthread.run ~until:2_000 s;
  Alcotest.(check bool) "killed while live" true (Sthread.kill s ~tid:0);
  Sthread.run s;
  Alcotest.(check bool) "stopped early" true (!steps < 100);
  Alcotest.(check int) "none live" 0 (Sthread.live_threads s);
  Alcotest.(check (list int)) "exit hook fired" [ 0 ] !exited;
  Alcotest.(check bool) "kill dead thread" false (Sthread.kill s ~tid:0);
  (* hardware thread released: solo work is undilated again *)
  Alcotest.(check int) "hw released" 100 (Machine.work_cost m ~thread:1 100)

let test_exit_terminates () =
  let s = mk () in
  let after = ref false in
  let exited = ref [] in
  Sthread.on_exit s (fun tid -> exited := tid :: !exited);
  Sthread.spawn s ~hw:0 (fun () ->
      Sthread.work 10;
      if not !after then Sthread.exit ();
      after := true);
  Sthread.spawn s ~hw:2 (fun () -> Sthread.work 50);
  Sthread.run s;
  Alcotest.(check bool) "code after exit skipped" false !after;
  Alcotest.(check int) "none live" 0 (Sthread.live_threads s);
  Alcotest.(check (list int)) "both exits hooked" [ 1; 0 ] !exited

let test_kill_runs_protect_finalizers () =
  let s = mk () in
  let finalized = ref false in
  Sthread.spawn s ~hw:0 (fun () ->
      Fun.protect
        ~finally:(fun () -> finalized := true)
        (fun () ->
          while true do
            Sthread.work 100
          done));
  Sthread.run ~until:1_000 s;
  ignore (Sthread.kill s ~tid:0);
  Sthread.run s;
  Alcotest.(check bool) "finalizer ran" true !finalized

let test_fault_hook_stall_and_crash () =
  let s = mk () in
  (* stall thread 0's first suspension by 5000 cycles; crash thread 1 at
     its first memory access *)
  Sthread.set_fault_hook s
    (Some
       (fun ~tid ~now:_ ~tag ~cycles:_ ->
         match (tid, tag) with
         | 0, _ -> Some (Sthread.Stall 5_000)
         | 1, Sthread.Access_op (_, _) -> Some Sthread.Crash
         | _ -> None));
  let t0_done = ref (-1) in
  let t1_accesses = ref 0 in
  Sthread.spawn s ~hw:0 (fun () ->
      Sthread.work 100;
      t0_done := Sthread.time ());
  let m = Sthread.machine s in
  let a = Machine.alloc m (Machine.On_node 0) ~lines:4 in
  Sthread.spawn s ~hw:2 (fun () ->
      Sthread.read a;
      incr t1_accesses;
      Sthread.read (a + 1);
      incr t1_accesses);
  Sthread.run s;
  Alcotest.(check int) "stall added to cost" 5_100 !t0_done;
  Alcotest.(check int) "crashed at first access" 0 !t1_accesses;
  Alcotest.(check int) "none live" 0 (Sthread.live_threads s)

(* --- blocking, wakeups, timers ----------------------------------------- *)

let test_park_unpark () =
  let s = mk () in
  let resumed_at = ref (-1) in
  Sthread.spawn s ~hw:0 (fun () ->
      Sthread.park ();
      resumed_at := Sthread.time ());
  Sthread.at s ~time:500 (fun () -> ignore (Sthread.unpark s ~tid:0));
  Sthread.run s;
  Alcotest.(check int) "resumed at the unpark" 500 !resumed_at;
  Alcotest.(check bool) "unpark of dead thread" false (Sthread.unpark s ~tid:0)

let test_no_lost_wakeup () =
  (* the unpark lands while the target is still running: the permit is
     remembered and the next park returns without blocking *)
  let s = mk () in
  let resumed_at = ref (-1) in
  Sthread.spawn s ~hw:0 (fun () ->
      Sthread.work 100;
      Sthread.park ();
      resumed_at := Sthread.time ());
  Sthread.at s ~time:10 (fun () -> ignore (Sthread.unpark s ~tid:0));
  Sthread.run s;
  Alcotest.(check int) "permit consumed, no block" 100 !resumed_at

let test_waitq_fifo () =
  let s = mk () in
  let q = Sthread.Waitq.create () in
  let order = ref [] in
  for i = 0 to 2 do
    Sthread.spawn s ~hw:(i * 2) (fun () ->
        (* distinct arrival times force the queue order 0, 1, 2 *)
        Sthread.work (10 * (i + 1));
        Sthread.Waitq.wait q;
        order := i :: !order)
  done;
  List.iter
    (fun tm -> Sthread.at s ~time:tm (fun () -> ignore (Sthread.Waitq.signal s q)))
    [ 1_000; 2_000; 3_000 ];
  Sthread.run s;
  Alcotest.(check (list int)) "FIFO wakeup order" [ 0; 1; 2 ] (List.rev !order)

let test_waitq_broadcast_and_dead_waiters () =
  let s = mk () in
  let q = Sthread.Waitq.create () in
  let woken = ref [] in
  for i = 0 to 2 do
    Sthread.spawn s ~hw:(i * 2) (fun () ->
        Sthread.work (10 * (i + 1));
        Sthread.Waitq.wait q;
        woken := i :: !woken)
  done;
  Sthread.run s;
  Alcotest.(check int) "three queued" 3 (Sthread.Waitq.waiters q);
  (* kill the oldest waiter: a signal must skip it and wake the next *)
  ignore (Sthread.kill s ~tid:0);
  Sthread.run s;
  Alcotest.(check bool) "signal skips the dead waiter" true (Sthread.Waitq.signal s q);
  Sthread.run s;
  Alcotest.(check (list int)) "thread 1 woken" [ 1 ] !woken;
  Alcotest.(check int) "broadcast wakes the rest" 1 (Sthread.Waitq.broadcast s q);
  Sthread.run s;
  Alcotest.(check (list int)) "all live waiters woken" [ 2; 1 ] !woken

let test_kill_parked_runs_finalizers () =
  let s = mk () in
  let finalized = ref false in
  Sthread.spawn s ~hw:0 (fun () ->
      Fun.protect ~finally:(fun () -> finalized := true) (fun () -> Sthread.park ()));
  Sthread.run s;
  ignore (Sthread.kill s ~tid:0);
  Sthread.run s;
  Alcotest.(check bool) "finalizer ran" true !finalized;
  Alcotest.(check int) "none live" 0 (Sthread.live_threads s)

let test_park_releases_hardware_thread () =
  (* a parked thread's hyperthread sibling runs undilated *)
  let s = mk () in
  let sibling_done = ref (-1) in
  Sthread.spawn s ~hw:0 (fun () -> Sthread.park ());
  Sthread.spawn s ~hw:1 (fun () ->
      Sthread.work 1000;
      sibling_done := Sthread.time ());
  Sthread.run s;
  Alcotest.(check int) "sibling undilated" 1000 !sibling_done;
  ignore (Sthread.unpark s ~tid:0);
  Sthread.run s;
  Alcotest.(check int) "parked thread drains" 0 (Sthread.live_threads s)

let test_park_for () =
  let s = mk () in
  let first = ref (false, -1) in
  Sthread.spawn s ~hw:0 (fun () ->
      (* no unpark in sight: the timeout fires *)
      let timed = Sthread.park_for 300 in
      first := (timed, Sthread.time ());
      (* an unpark beats the next timeout; the stale timeout of the first
         park must not wake this one early *)
      let timed2 = Sthread.park_for 10_000 in
      Alcotest.(check bool) "woken by unpark" false timed2;
      Alcotest.(check int) "at the unpark's time" 400 (Sthread.time ());
      (* and a third sleep times out again, undisturbed by leftovers *)
      let timed3 = Sthread.park_for 100 in
      Alcotest.(check bool) "timeout again" true timed3);
  Sthread.at s ~time:400 (fun () -> ignore (Sthread.unpark s ~tid:0));
  Sthread.run s;
  Alcotest.(check (pair bool int)) "first sleep timed out at 300" (true, 300) !first

let test_at_events () =
  let s = mk () in
  let log = ref [] in
  Sthread.at s ~time:200 (fun () -> log := 2 :: !log);
  Sthread.at s ~time:100 (fun () ->
      log := 1 :: !log;
      (* events may schedule further events *)
      Sthread.at s ~time:150 (fun () -> log := 3 :: !log));
  Sthread.run s;
  Alcotest.(check (list int)) "time order" [ 1; 3; 2 ] (List.rev !log);
  Alcotest.check_raises "past time rejected" (Invalid_argument "Sthread.at: time in the past")
    (fun () -> Sthread.at s ~time:(Sthread.now s - 1) (fun () -> ()))

(* A batched charge with no tracer installed allocates nothing: no trace
   event is built for nobody, and the machine's counters are plain ints.
   With a tracer the events still arrive, one per charge. *)
let test_charge_read_allocation_free () =
  let charge_10k ?tracer () =
    let s = mk () in
    Sthread.set_tracer s tracer;
    let a = Machine.alloc (Sthread.machine s) (Machine.On_node 0) ~lines:1 in
    let words = ref (-1) in
    Sthread.spawn s ~hw:0 (fun () ->
        Sthread.charge_read a;
        let before = Gc.minor_words () in
        for _ = 1 to 10_000 do
          Sthread.charge_read a
        done;
        words := int_of_float (Gc.minor_words () -. before);
        Sthread.flush ());
    Sthread.run s;
    !words
  in
  Alcotest.(check int) "minor words over 10k charge_read, no tracer" 0 (charge_10k ());
  let seen = ref 0 in
  let tracer = function Sthread.T_access _ -> incr seen | _ -> () in
  ignore (charge_10k ~tracer ());
  Alcotest.(check int) "traced: one access event per charge" 10_001 !seen

let suite =
  [
    ("park and unpark", `Quick, test_park_unpark);
    ("no lost wakeup", `Quick, test_no_lost_wakeup);
    ("waitq FIFO order", `Quick, test_waitq_fifo);
    ("waitq broadcast and dead waiters", `Quick, test_waitq_broadcast_and_dead_waiters);
    ("kill parked thread", `Quick, test_kill_parked_runs_finalizers);
    ("park releases hardware thread", `Quick, test_park_releases_hardware_thread);
    ("park_for timeout", `Quick, test_park_for);
    ("at events", `Quick, test_at_events);
    ("single thread runs", `Quick, test_single_thread_runs);
    ("kill drops thread", `Quick, test_kill_drops_thread);
    ("exit terminates", `Quick, test_exit_terminates);
    ("kill runs finalizers", `Quick, test_kill_runs_protect_finalizers);
    ("fault hook stall and crash", `Quick, test_fault_hook_stall_and_crash);
    ("alloc policies", `Quick, test_alloc_policies);
    ("threads interleave", `Quick, test_threads_interleave);
    ("memory access charges time", `Quick, test_memory_access_charges_time);
    ("deterministic schedule", `Quick, test_deterministic_schedule);
    ("run until", `Quick, test_run_until);
    ("self identifiers", `Quick, test_self_identifiers);
    ("live threads", `Quick, test_live_threads);
    ("charge and flush", `Quick, test_charge_and_flush);
    ("spawn from inside", `Quick, test_spawn_from_inside);
    ("exception propagates", `Quick, test_exception_propagates);
    ("outside context rejected", `Quick, test_outside_context_rejected);
    ("access pipelined", `Quick, test_access_pipelined);
    ("hyperthread dilation", `Quick, test_hyperthread_dilation_in_sim);
    ("charge_read allocation-free", `Quick, test_charge_read_allocation_free);
  ]
