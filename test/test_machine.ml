(* Tests for the NUMA machine model: topology placement, cache boxes,
   coherence cost behaviour, NUMA policies. *)

module Topology = Dps_machine.Topology
module Machine = Dps_machine.Machine
module Cachebox = Dps_machine.Cachebox
module Costs = Dps_machine.Costs
module Prng = Dps_simcore.Prng
module Stats = Dps_simcore.Stats

let topo = Topology.default

let test_topology_counts () =
  Alcotest.(check int) "threads" 80 (Topology.nthreads topo);
  Alcotest.(check int) "cores" 40 (Topology.ncores topo)

let test_topology_mapping () =
  (* hw 0 and 1 are the two hyperthreads of core 0 on socket 0 *)
  Alcotest.(check int) "core of hw0" 0 (Topology.core_of_thread topo 0);
  Alcotest.(check int) "core of hw1" 0 (Topology.core_of_thread topo 1);
  Alcotest.(check (option int)) "sibling of hw0" (Some 1) (Topology.sibling_of_thread topo 0);
  Alcotest.(check (option int)) "sibling of hw1" (Some 0) (Topology.sibling_of_thread topo 1);
  (* hw 79 is the last hyperthread of core 39 on socket 3 *)
  Alcotest.(check int) "socket of hw79" 3 (Topology.socket_of_thread topo 79)

let sockets_used placed =
  placed |> Array.to_list
  |> List.map (Topology.socket_of_thread topo)
  |> List.sort_uniq compare

let test_placement_minimal_sockets () =
  (* paper rule: n <= 10 uses one socket, one hyperthread per core *)
  let p10 = Topology.placement topo ~n:10 in
  Alcotest.(check (list int)) "10 threads on socket 0" [ 0 ] (sockets_used p10);
  let cores =
    Array.to_list p10 |> List.map (Topology.core_of_thread topo) |> List.sort_uniq compare
  in
  Alcotest.(check int) "10 distinct cores" 10 (List.length cores)

let test_placement_spreads_then_hyperthreads () =
  let p40 = Topology.placement topo ~n:40 in
  Alcotest.(check (list int)) "40 threads over all sockets" [ 0; 1; 2; 3 ] (sockets_used p40);
  let distinct = Array.to_list p40 |> List.sort_uniq compare in
  Alcotest.(check int) "40 distinct hw threads" 40 (List.length distinct);
  (* all first hyperthreads *)
  Array.iter (fun hw -> Alcotest.(check int) "ht 0" 0 (hw mod 2)) p40;
  let p50 = Topology.placement topo ~n:50 in
  (* threads 40..49 are second hyperthreads confined to socket 0 *)
  for i = 40 to 49 do
    Alcotest.(check int) "second ht" 1 (p50.(i) mod 2);
    Alcotest.(check int) "on socket 0" 0 (Topology.socket_of_thread topo p50.(i))
  done

let test_placement_full () =
  let p80 = Topology.placement topo ~n:80 in
  let distinct = Array.to_list p80 |> List.sort_uniq compare in
  Alcotest.(check int) "80 distinct" 80 (List.length distinct)

let test_localities () =
  let placed = Topology.placement topo ~n:80 in
  let locs = Topology.localities topo ~placed ~size:10 in
  Alcotest.(check int) "8 localities" 8 (Array.length locs);
  Array.iter
    (fun loc ->
      let socks =
        loc |> Array.to_list |> List.map (Topology.socket_of_thread topo) |> List.sort_uniq compare
      in
      Alcotest.(check int) "locality within one socket" 1 (List.length socks))
    locs

let test_cachebox_basic () =
  let cb = Cachebox.create ~capacity:4 (Prng.create 3L) in
  List.iter (fun a -> ignore (Cachebox.add cb a)) [ 1; 2; 3; 4 ];
  Alcotest.(check int) "full" 4 (Cachebox.size cb);
  Alcotest.(check bool) "mem" true (Cachebox.mem cb 3);
  let victim = Cachebox.add cb 5 in
  Alcotest.(check bool) "eviction happened" true (victim >= 0);
  Alcotest.(check int) "still full" 4 (Cachebox.size cb);
  Alcotest.(check bool) "new member present" true (Cachebox.mem cb 5);
  Alcotest.(check bool) "victim gone" false (Cachebox.mem cb victim);
  Cachebox.remove cb 5;
  Alcotest.(check bool) "removed" false (Cachebox.mem cb 5);
  Alcotest.(check int) "size after remove" 3 (Cachebox.size cb)

let test_cachebox_no_duplicate () =
  let cb = Cachebox.create ~capacity:4 (Prng.create 3L) in
  ignore (Cachebox.add cb 9);
  ignore (Cachebox.add cb 9);
  Alcotest.(check int) "no duplicates" 1 (Cachebox.size cb)

let qcheck_cachebox_capacity =
  QCheck.Test.make ~name:"cachebox never exceeds capacity" ~count:100
    QCheck.(list (int_bound 50))
    (fun addrs ->
      let cb = Cachebox.create ~capacity:8 (Prng.create 17L) in
      List.iter (fun a -> ignore (Cachebox.add cb a)) addrs;
      Cachebox.size cb <= 8
      && List.length (List.filter (Cachebox.mem cb) (List.sort_uniq compare addrs))
         = Cachebox.size cb)

let mk_machine () = Machine.create Machine.config_default

let test_alloc_homes () =
  let m = mk_machine () in
  let a = Machine.alloc m (Machine.On_node 2) ~lines:10 in
  for i = 0 to 9 do
    Alcotest.(check int) "homed on node 2" 2 (Machine.home_of m (a + i))
  done;
  let b = Machine.alloc m Machine.Interleave ~lines:8 in
  let homes = List.init 8 (fun i -> Machine.home_of m (b + i)) in
  Alcotest.(check (list int)) "interleaved" [ 0; 1; 2; 3; 0; 1; 2; 3 ] homes

let test_access_costs_ordering () =
  let m = mk_machine () in
  let costs = (Machine.config m).Machine.costs in
  let a = Machine.alloc m (Machine.On_node 0) ~lines:1 in
  (* First access by a socket-0 thread: page walk + local DRAM. *)
  let c1 = Machine.access m ~now:0 ~thread:0 ~addr:a ~kind:Machine.Read in
  Alcotest.(check int) "cold read = walk + local DRAM"
    (costs.Costs.walk_local + costs.Costs.dram_local)
    c1;
  (* Second access: TLB and private cache hit. *)
  let c2 = Machine.access m ~now:0 ~thread:0 ~addr:a ~kind:Machine.Read in
  Alcotest.(check int) "warm read = private hit" costs.Costs.priv_hit c2;
  (* Read by another thread on the same socket (different core): its own
     TLB is cold, the data comes from the shared LLC. *)
  let c3 = Machine.access m ~now:0 ~thread:4 ~addr:a ~kind:Machine.Read in
  Alcotest.(check int) "same-socket read = walk + LLC hit"
    (costs.Costs.walk_local + costs.Costs.llc_hit)
    c3;
  (* Read by a remote-socket thread: remote transfer, dearer than local LLC. *)
  let remote_thread = 2 * Topology.default.Topology.cores_per_socket * 2 in
  let c4 = Machine.access m ~now:0 ~thread:remote_thread ~addr:a ~kind:Machine.Read in
  Alcotest.(check bool) "remote read dearer than local LLC" true (c4 > c3)

let test_write_invalidates_readers () =
  let m = mk_machine () in
  let a = Machine.alloc m (Machine.On_node 0) ~lines:1 in
  ignore (Machine.access m ~now:0 ~thread:0 ~addr:a ~kind:Machine.Read);
  ignore (Machine.access m ~now:0 ~thread:40 ~addr:a ~kind:Machine.Read);
  (* thread 40 = socket 2 core 20 *)
  let inv_before = Stats.get (Machine.stats m) "invalidations" in
  ignore (Machine.access m ~now:0 ~thread:0 ~addr:a ~kind:Machine.Write);
  let inv_after = Stats.get (Machine.stats m) "invalidations" in
  Alcotest.(check bool) "write caused invalidation" true (inv_after > inv_before);
  (* The remote reader now misses again. *)
  let costs = (Machine.config m).Machine.costs in
  let c = Machine.access m ~now:0 ~thread:40 ~addr:a ~kind:Machine.Read in
  Alcotest.(check bool) "reader must re-fetch" true (c > costs.Costs.priv_hit)

let test_write_upgrade_cheaper_than_remote () =
  let m = mk_machine () in
  let a = Machine.alloc m (Machine.On_node 0) ~lines:1 in
  ignore (Machine.access m ~now:0 ~thread:0 ~addr:a ~kind:Machine.Read);
  (* Upgrade in place: have the line shared, then write it. *)
  let up = Machine.access m ~now:0 ~thread:0 ~addr:a ~kind:Machine.Write in
  let m2 = mk_machine () in
  let b = Machine.alloc m2 (Machine.On_node 0) ~lines:1 in
  ignore (Machine.access m2 ~now:0 ~thread:0 ~addr:b ~kind:Machine.Write);
  let remote_write = Machine.access m2 ~now:0 ~thread:40 ~addr:b ~kind:Machine.Write in
  Alcotest.(check bool) "upgrade cheaper than remote write" true (up < remote_write)

let test_rmw_dearer_than_write () =
  let m = mk_machine () in
  let a = Machine.alloc m (Machine.On_node 0) ~lines:2 in
  ignore (Machine.access m ~now:0 ~thread:0 ~addr:a ~kind:Machine.Write);
  ignore (Machine.access m ~now:0 ~thread:0 ~addr:(a + 1) ~kind:Machine.Write);
  let w = Machine.access m ~now:0 ~thread:0 ~addr:a ~kind:Machine.Write in
  let r = Machine.access m ~now:0 ~thread:0 ~addr:(a + 1) ~kind:Machine.Rmw in
  Alcotest.(check bool) "rmw adds cost" true (r > w)

let test_capacity_misses () =
  (* Touch far more lines than the private cache holds: later re-touches miss. *)
  let cfg = { Machine.config_default with Machine.priv_lines = 64; llc_lines = 128 } in
  let m = Machine.create cfg in
  let a = Machine.alloc m (Machine.On_node 0) ~lines:1024 in
  for i = 0 to 1023 do
    ignore (Machine.access m ~now:0 ~thread:0 ~addr:(a + i) ~kind:Machine.Read)
  done;
  let misses0 = Stats.get (Machine.stats m) "llc_misses" in
  (* Second sweep: working set exceeds LLC, so misses keep accruing. *)
  for i = 0 to 1023 do
    ignore (Machine.access m ~now:0 ~thread:0 ~addr:(a + i) ~kind:Machine.Read)
  done;
  let misses1 = Stats.get (Machine.stats m) "llc_misses" in
  Alcotest.(check bool) "capacity misses on re-sweep" true (misses1 - misses0 > 512)

let test_small_working_set_hits () =
  let m = mk_machine () in
  let a = Machine.alloc m (Machine.On_node 0) ~lines:16 in
  for i = 0 to 15 do
    ignore (Machine.access m ~now:0 ~thread:0 ~addr:(a + i) ~kind:Machine.Read)
  done;
  let before = Stats.get (Machine.stats m) "priv_hits" in
  for _ = 1 to 10 do
    for i = 0 to 15 do
      ignore (Machine.access m ~now:0 ~thread:0 ~addr:(a + i) ~kind:Machine.Read)
    done
  done;
  let after = Stats.get (Machine.stats m) "priv_hits" in
  Alcotest.(check int) "all re-touches are private hits" 160 (after - before)

let test_tlb_miss_and_reach () =
  let cfg = { Machine.config_default with Machine.tlb_entries = 2 } in
  let m = Machine.create cfg in
  (* 4 pages = 256 lines; only 2 TLB entries -> cyclic sweep keeps missing *)
  let a = Machine.alloc m (Machine.On_node 0) ~lines:256 in
  for sweep = 1 to 3 do
    ignore sweep;
    for page = 0 to 3 do
      ignore (Machine.access m ~now:0 ~thread:0 ~addr:(a + (64 * page)) ~kind:Machine.Read)
    done
  done;
  let misses = Dps_simcore.Stats.get (Machine.stats m) "tlb_misses" in
  Alcotest.(check bool) (Printf.sprintf "TLB thrashes (%d misses)" misses) true (misses >= 8)

let test_tlb_remote_walk_dearer () =
  let m = mk_machine () in
  let costs = (Machine.config m).Machine.costs in
  let local = Machine.alloc m (Machine.On_node 0) ~lines:64 in
  let remote = Machine.alloc m (Machine.On_node 3) ~lines:64 in
  let c_local = Machine.access m ~now:0 ~thread:0 ~addr:local ~kind:Machine.Read in
  let c_remote = Machine.access m ~now:0 ~thread:0 ~addr:remote ~kind:Machine.Read in
  Alcotest.(check int) "local walk + local dram"
    (costs.Costs.walk_local + costs.Costs.dram_local)
    c_local;
  Alcotest.(check int) "remote walk + remote dram"
    (costs.Costs.walk_remote + costs.Costs.dram_remote)
    c_remote

let test_write_queueing () =
  let m = mk_machine () in
  let a = Machine.alloc m (Machine.On_node 0) ~lines:1 in
  (* two writers from different sockets at the same instant: the second
     queues behind the first ownership transfer *)
  let c1 = Machine.access m ~now:0 ~thread:0 ~addr:a ~kind:Machine.Write in
  let c2 = Machine.access m ~now:0 ~thread:40 ~addr:a ~kind:Machine.Write in
  Alcotest.(check bool) "second write queues" true (c2 > c1);
  Alcotest.(check bool) "queueing counted" true
    (Dps_simcore.Stats.get (Machine.stats m) "write_queueing" >= 1);
  (* much later, no queueing *)
  let c3 = Machine.access m ~now:1_000_000 ~thread:0 ~addr:a ~kind:Machine.Write in
  Alcotest.(check bool) "no queue when idle" true (c3 < c2)

let test_reads_do_not_queue () =
  let m = mk_machine () in
  let a = Machine.alloc m (Machine.On_node 0) ~lines:1 in
  ignore (Machine.access m ~now:0 ~thread:0 ~addr:a ~kind:Machine.Write);
  (* concurrent readers on distinct cores serve in parallel: same cost *)
  let r1 = Machine.access m ~now:0 ~thread:8 ~addr:a ~kind:Machine.Read in
  let r2 = Machine.access m ~now:0 ~thread:12 ~addr:a ~kind:Machine.Read in
  Alcotest.(check int) "parallel reads" r1 r2

let test_work_cost_dilation () =
  let m = mk_machine () in
  Alcotest.(check int) "solo" 100 (Machine.work_cost m ~thread:0 100);
  Machine.set_active m ~thread:1 true;
  Alcotest.(check bool) "dilated with sibling" true (Machine.work_cost m ~thread:0 100 > 100);
  Machine.set_active m ~thread:1 false;
  Alcotest.(check int) "solo again" 100 (Machine.work_cost m ~thread:0 100)

let test_many_regions_lookup () =
  let m = mk_machine () in
  let bases =
    Array.init 200 (fun i -> Machine.alloc m (Machine.On_node (i mod 4)) ~lines:(1 + (i mod 7)))
  in
  Array.iteri
    (fun i base ->
      Alcotest.(check int) "first line homed right" (i mod 4) (Machine.home_of m base);
      let last = base + (i mod 7) in
      Alcotest.(check int) "last line homed right" (i mod 4) (Machine.home_of m last))
    bases

let test_unallocated_access_rejected () =
  let m = mk_machine () in
  Alcotest.check_raises "unallocated address"
    (Invalid_argument "Machine: access to unallocated address 999")
    (fun () -> ignore (Machine.access m ~now:0 ~thread:0 ~addr:999 ~kind:Machine.Read))

let test_cycles_to_seconds () =
  let m = mk_machine () in
  Alcotest.(check (float 1e-12)) "2 GHz" 1e-9 (Machine.cycles_to_seconds m 2)

(* --- allocation-free charged-access path ------------------------------ *)

(* Minor-heap words allocated while [f] runs. [Gc.minor_words] is unboxed
   in native code, so the probe itself allocates nothing. *)
let minor_words_during f =
  let before = Gc.minor_words () in
  f ();
  int_of_float (Gc.minor_words () -. before)

let accesses_alloc_free name m ~thread ~addr_of ~kind =
  let w =
    minor_words_during (fun () ->
        for i = 1 to 10_000 do
          ignore (Machine.access m ~now:(i * 4) ~thread ~addr:(addr_of i) ~kind)
        done)
  in
  Alcotest.(check int) (name ^ ": minor words over 10k accesses") 0 w

let slow_path_count m =
  let s = Machine.stats m in
  Stats.get s "accesses" - Stats.get s "priv_hits"

let test_private_hits_allocation_free () =
  let m = Machine.create (Machine.config_scaled ()) in
  let a = Machine.alloc m (Machine.On_node 0) ~lines:8 in
  ignore (Machine.access m ~now:0 ~thread:0 ~addr:a ~kind:Machine.Read);
  let slow0 = slow_path_count m in
  accesses_alloc_free "private hits" m ~thread:0 ~addr_of:(fun _ -> a) ~kind:Machine.Read;
  Alcotest.(check int) "all were private hits" slow0 (slow_path_count m)

(* Misses to lines that are already materialised: reads sweeping four
   times the private capacity (every fill evicts), then writes from socket
   0 to eight lines that an atomic on socket 1 and a reader on socket 2
   keep taking back (every write fetches the line and invalidates a
   sharer). With bandwidth modeling on, the fills also charge the token
   buckets. *)
let test_misses_allocation_free () =
  List.iter
    (fun (label, costs) ->
      let cfg = { (Machine.config_scaled ()) with Machine.costs } in
      let m = Machine.create cfg in
      let lines = 4 * cfg.Machine.priv_lines in
      let a = Machine.alloc m Machine.Interleave ~lines in
      for i = 0 to lines - 1 do
        ignore (Machine.access m ~now:0 ~thread:0 ~addr:(a + i) ~kind:Machine.Read);
        ignore (Machine.access m ~now:0 ~thread:20 ~addr:(a + i) ~kind:Machine.Write)
      done;
      let slow0 = slow_path_count m in
      accesses_alloc_free (label ^ " read misses") m ~thread:0
        ~addr_of:(fun i -> a + (i mod lines))
        ~kind:Machine.Read;
      let slow1 = slow_path_count m in
      Alcotest.(check bool)
        (Printf.sprintf "%s: reads took the miss path (%d of 10000)" label (slow1 - slow0))
        true
        (slow1 - slow0 > 5_000);
      let inval0 = Stats.get (Machine.stats m) "invalidations" in
      accesses_alloc_free (label ^ " write misses") m ~thread:0
        ~addr_of:(fun i ->
          let addr = a + (i mod 8) in
          ignore (Machine.access m ~now:(i * 4) ~thread:20 ~addr ~kind:Machine.Rmw);
          ignore (Machine.access m ~now:(i * 4) ~thread:40 ~addr ~kind:Machine.Read);
          addr)
        ~kind:Machine.Write;
      Alcotest.(check bool) (label ^ ": writes invalidated sharers") true
        (Stats.get (Machine.stats m) "invalidations" - inval0 >= 10_000))
    [ ("bw off", Costs.default); ("bw on", { Costs.default with Costs.bw = Costs.bw_default }) ]

(* Lines never touched before: the directory state of every line is
   written by [alloc], so a first read or write allocates no more than a
   repeat miss does. *)
let test_first_touch_allocation_free () =
  List.iter
    (fun (label, costs) ->
      let m = Machine.create { (Machine.config_scaled ()) with Machine.costs } in
      let lines = 4096 in
      let a = Machine.alloc m Machine.Interleave ~lines in
      let b = Machine.alloc m (Machine.On_node 2) ~lines in
      let w =
        minor_words_during (fun () ->
            for i = 0 to lines - 1 do
              ignore (Machine.access m ~now:i ~thread:0 ~addr:(a + i) ~kind:Machine.Read);
              ignore (Machine.access m ~now:i ~thread:20 ~addr:(b + i) ~kind:Machine.Write)
            done)
      in
      Alcotest.(check int) (label ^ ": minor words over 8k first touches") 0 w;
      Alcotest.(check int) (label ^ ": every first touch missed") (2 * lines) (slow_path_count m))
    [ ("bw off", Costs.default); ("bw on", { Costs.default with Costs.bw = Costs.bw_default }) ]

(* Directory state set before the directory grows survives the growth:
   homes of mixed regions on both sides of every growth, the owner and
   the sharers of lines touched before it. *)
let test_directory_growth () =
  let m = mk_machine () in
  let costs = (Machine.config m).Machine.costs in
  let owned = Machine.alloc m (Machine.On_node 1) ~lines:1 in
  let shared = Machine.alloc m Machine.Interleave ~lines:1 in
  (* thread 0 = core 0 on socket 0; thread 40 = core 20 on socket 2 *)
  ignore (Machine.access m ~now:0 ~thread:0 ~addr:owned ~kind:Machine.Write);
  ignore (Machine.access m ~now:0 ~thread:0 ~addr:shared ~kind:Machine.Write);
  ignore (Machine.access m ~now:0 ~thread:40 ~addr:shared ~kind:Machine.Read);
  let regions =
    List.init 600 (fun i ->
        let pol = if i mod 3 = 0 then Machine.Interleave else Machine.On_node (i mod 4) in
        let lines = 1 + (i * 97 mod 700) in
        (pol, lines, Machine.alloc m pol ~lines))
  in
  let total = List.fold_left (fun acc (_, lines, _) -> acc + lines) 0 regions in
  Alcotest.(check bool) (Printf.sprintf "%d lines allocated" total) true (total > 200_000);
  let wrong = ref 0 in
  List.iter
    (fun (pol, lines, base) ->
      for j = 0 to lines - 1 do
        let want = match pol with Machine.On_node n -> n | Machine.Interleave -> j mod 4 in
        if Machine.home_of m (base + j) <> want then incr wrong
      done)
    regions;
  Alcotest.(check int) "lines homed wrong" 0 !wrong;
  Alcotest.(check int) "early line keeps its home" 1 (Machine.home_of m owned);
  Alcotest.(check int) "owner's read is still a private hit" costs.Costs.priv_hit
    (Machine.access m ~now:0 ~thread:0 ~addr:owned ~kind:Machine.Read);
  let remote0 = Stats.get (Machine.stats m) "remote_misses" in
  (* [owned] and [shared] share a page, which the reader's TLB maps *)
  Alcotest.(check int) "a socket-2 reader pays the transfer from socket 0" costs.Costs.llc_remote
    (Machine.access m ~now:0 ~thread:40 ~addr:owned ~kind:Machine.Read);
  Alcotest.(check int) "counted as a remote miss" (remote0 + 1)
    (Stats.get (Machine.stats m) "remote_misses");
  Alcotest.(check int) "upgrading a shared line invalidates the remote sharer"
    (costs.Costs.priv_hit + costs.Costs.inval_remote)
    (Machine.access m ~now:1_000_000 ~thread:0 ~addr:shared ~kind:Machine.Write)

(* --- [stats] is a snapshot of the typed counters ---------------------- *)

let seeded_trace m =
  let nthreads = Topology.nthreads (Machine.topology m) in
  let hot = Machine.alloc m (Machine.On_node 0) ~lines:1024 in
  let wide = Machine.alloc m Machine.Interleave ~lines:4096 in
  let p = Prng.create 0x5AA95L in
  for i = 0 to 19_999 do
    let thread = Prng.int p nthreads in
    let addr = if Prng.bool p then hot + Prng.int p 32 else wide + Prng.int p 4096 in
    let kind =
      match Prng.int p 3 with 0 -> Machine.Read | 1 -> Machine.Write | _ -> Machine.Rmw
    in
    ignore (Machine.access m ~now:(i / 4) ~thread ~addr ~kind);
    if i mod 100 = 0 then
      ignore (Machine.bw_charge_dma m ~now:(i / 4) ~socket:(i mod 4) ~bytes:16384)
  done

(* Recorded from the string-keyed implementation on the same trace. *)
let expected_bw_off =
  [
    ("accesses", 20000);
    ("dram_queueing", 5077);
    ("invalidations", 3251);
    ("llc_hits", 4182);
    ("llc_misses", 15321);
    ("priv_hits", 497);
    ("remote_misses", 13971);
    ("tlb_misses", 8115);
    ("write_queueing", 7077);
  ]

let expected_bw_on =
  [
    ("accesses", 20000);
    ("bw_dma_bytes", 3276800);
    ("bw_link_queueing", 12708);
    ("bw_mc_queueing", 1481);
    ("bw_writebacks", 3448);
    ("invalidations", 3251);
    ("llc_hits", 4182);
    ("llc_misses", 15321);
    ("priv_hits", 497);
    ("remote_misses", 13971);
    ("tlb_misses", 8115);
    ("write_queueing", 7077);
  ]

let machine_gauges m =
  let reg = Dps_obs.Registry.create () in
  Machine.register_obs m reg;
  List.filter_map
    (fun (s : Dps_obs.Registry.sample) ->
      match (s.labels, s.value) with
      | [], Dps_obs.Registry.Gauge_v v when String.starts_with ~prefix:"machine." s.name ->
          Some (String.sub s.name 8 (String.length s.name - 8), int_of_float v)
      | _ -> None)
    (Dps_obs.Registry.snapshot reg)

let test_stats_snapshot () =
  List.iter
    (fun (label, costs, expected) ->
      let m = Machine.create { (Machine.config_scaled ~factor:1024 ()) with Machine.costs } in
      Alcotest.(check (list (pair string int))) (label ^ ": fresh machine") []
        (Stats.to_list (Machine.stats m));
      let fresh = Machine.stats m in
      seeded_trace m;
      Alcotest.(check (list (pair string int))) (label ^ ": after the trace") expected
        (Stats.to_list (Machine.stats m));
      Alcotest.(check (list (pair string int))) (label ^ ": earlier snapshot unchanged") []
        (Stats.to_list fresh);
      Alcotest.(check (list (pair string int))) (label ^ ": registry gauges agree") expected
        (List.filter (fun (_, v) -> v <> 0) (machine_gauges m)))
    [
      ("bw off", Costs.default, expected_bw_off);
      ("bw on", { Costs.default with Costs.bw = Costs.bw_default }, expected_bw_on);
    ]

let suite =
  [
    ("topology counts", `Quick, test_topology_counts);
    ("topology mapping", `Quick, test_topology_mapping);
    ("placement minimal sockets", `Quick, test_placement_minimal_sockets);
    ("placement hyperthreads", `Quick, test_placement_spreads_then_hyperthreads);
    ("placement full", `Quick, test_placement_full);
    ("localities", `Quick, test_localities);
    ("cachebox basic", `Quick, test_cachebox_basic);
    ("cachebox no duplicate", `Quick, test_cachebox_no_duplicate);
    QCheck_alcotest.to_alcotest qcheck_cachebox_capacity;
    ("alloc homes", `Quick, test_alloc_homes);
    ("access cost ordering", `Quick, test_access_costs_ordering);
    ("write invalidates readers", `Quick, test_write_invalidates_readers);
    ("write upgrade cheap", `Quick, test_write_upgrade_cheaper_than_remote);
    ("rmw dearer than write", `Quick, test_rmw_dearer_than_write);
    ("capacity misses", `Quick, test_capacity_misses);
    ("small working set hits", `Quick, test_small_working_set_hits);
    ("tlb miss and reach", `Quick, test_tlb_miss_and_reach);
    ("tlb remote walk dearer", `Quick, test_tlb_remote_walk_dearer);
    ("write queueing", `Quick, test_write_queueing);
    ("reads do not queue", `Quick, test_reads_do_not_queue);
    ("work cost dilation", `Quick, test_work_cost_dilation);
    ("many regions lookup", `Quick, test_many_regions_lookup);
    ("unallocated access rejected", `Quick, test_unallocated_access_rejected);
    ("cycles to seconds", `Quick, test_cycles_to_seconds);
    ("private hits allocation-free", `Quick, test_private_hits_allocation_free);
    ("misses allocation-free", `Quick, test_misses_allocation_free);
    ("first-touch misses allocation-free", `Quick, test_first_touch_allocation_free);
    ("directory growth keeps state", `Quick, test_directory_growth);
    ("stats snapshot", `Quick, test_stats_snapshot);
  ]
