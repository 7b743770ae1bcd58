(* The benchmark's four workloads. Each round builds its own machine and
   runtime from scratch, times set-up and the simulated phase on the host
   clock, and reads every per-layer number from outside the libraries:
   counters they already expose, hooks they already offer, and stamps
   taken inside the benchmark's own closures. *)

module Machine = Dps_machine.Machine
module Topology = Dps_machine.Topology
module Sthread = Dps_sthread.Sthread
module Alloc = Dps_sthread.Alloc
module Prng = Dps_simcore.Prng
module Stats = Dps_simcore.Stats
module Keydist = Dps_workload.Keydist
module Driver = Dps_workload.Driver
module Netload = Dps_workload.Netload
module Net = Dps_net.Net
module Server = Dps_server.Server
module Variants = Dps_memcached.Variants
module Cluster = Dps_cluster.Cluster
module Eo = Dps_check.Eo
module Bench_common = Dps_bench_figures.Bench_common

let now_s = Unix.gettimeofday

(* ---------- growable int vectors and exact percentiles ---------- *)

module Vec = struct
  type t = { mutable a : int array; mutable n : int }

  let create () = { a = Array.make 4096 0; n = 0 }

  let push v x =
    if v.n = Array.length v.a then begin
      let b = Array.make (2 * v.n) 0 in
      Array.blit v.a 0 b 0 v.n;
      v.a <- b
    end;
    v.a.(v.n) <- x;
    v.n <- v.n + 1

  let sorted v =
    let s = Array.sub v.a 0 v.n in
    Array.sort compare s;
    s

  let sum v =
    let s = ref 0 in
    for i = 0 to v.n - 1 do
      s := !s + v.a.(i)
    done;
    !s
end

(* nearest-rank percentile of a sorted sample *)
let pct sorted p =
  let n = Array.length sorted in
  if n = 0 then 0
  else sorted.(max 0 (min (n - 1) (int_of_float (ceil (p *. float_of_int n)) - 1)))

let mean_of sum n = if n = 0 then 0.0 else float_of_int sum /. float_of_int n
let ratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b

(* ---------- the traced run's probe: scheduler hook + tracer ---------- *)

type probe = {
  mutable suspends : int;  (* scheduling points seen by the sched hook *)
  mutable access_ev : int;
  mutable work_ev : int;  (* compute and yield suspensions *)
  mutable wakes : int;  (* T_wake: a park returned *)
  (* bounded prefix of the charged-access stream, for the replay probe *)
  r_now : int array;
  r_hw : int array;
  r_addr : int array;
  r_kind : Bytes.t;
  mutable nrec : int;
}

let replay_cap = 200_000

let probe () =
  {
    suspends = 0;
    access_ev = 0;
    work_ev = 0;
    wakes = 0;
    r_now = Array.make replay_cap 0;
    r_hw = Array.make replay_cap 0;
    r_addr = Array.make replay_cap 0;
    r_kind = Bytes.make replay_cap 'r';
    nrec = 0;
  }

(* The hook returns 0, so no scheduling point moves; the tracer only
   counts and copies. A traced round must reproduce the untraced digest. *)
let install p sched =
  Sthread.set_sched_hook sched
    (Some
       (fun ~tid:_ ~now:_ ~tag ~cycles:_ ->
         p.suspends <- p.suspends + 1;
         (match tag with
         | Sthread.Access_op _ -> p.access_ev <- p.access_ev + 1
         | Sthread.Work_op | Sthread.Yield_op -> p.work_ev <- p.work_ev + 1);
         0));
  Sthread.set_tracer sched
    (Some
       (function
       | Sthread.T_wake _ -> p.wakes <- p.wakes + 1
       | Sthread.T_access { cls; addr; _ } when p.nrec < replay_cap ->
           let i = p.nrec in
           p.r_now.(i) <- Sthread.time ();
           p.r_hw.(i) <- Sthread.self_hw ();
           p.r_addr.(i) <- addr;
           Bytes.set p.r_kind i
             (match cls with
             | Sthread.Load | Sthread.Racy_load -> 'r'
             | Sthread.Store | Sthread.Release_store -> 'w'
             | Sthread.Atomic -> 'x');
           p.nrec <- i + 1
       | _ -> ()))

(* Replay the recorded prefix through [Machine.access] on a fresh machine
   of the same config. Addresses are dense from 0, so one interleaved
   region covers them; line homes may differ from the original run, which
   moves costs but not the host work per access. Returns (ns/access, n). *)
let replay p cfg =
  let n = p.nrec in
  if n = 0 then (0.0, 0)
  else begin
    let m = Machine.create cfg in
    let top = ref 0 in
    for i = 0 to n - 1 do
      if p.r_addr.(i) > !top then top := p.r_addr.(i)
    done;
    ignore (Machine.alloc m Machine.Interleave ~lines:(!top + 1));
    let t0 = now_s () in
    for i = 0 to n - 1 do
      let kind =
        match Bytes.get p.r_kind i with
        | 'r' -> Machine.Read
        | 'w' -> Machine.Write
        | _ -> Machine.Rmw
      in
      ignore (Machine.access m ~now:p.r_now.(i) ~thread:p.r_hw.(i) ~addr:p.r_addr.(i) ~kind)
    done;
    ((now_s () -. t0) *. 1e9 /. float_of_int n, n)
  end

(* ---------- spans, held in memory and written at the end ---------- *)

type span = {
  sp_name : string;
  sp_clock : [ `Host | `Sim ];  (* host microseconds or simulated cycles *)
  sp_lane : int;  (* simulated thread for sim spans, 0 for host *)
  sp_op : int;  (* request id shared by one op's spans; -1 for host *)
  sp_start : float;
  sp_end : float;
}

let span_cap = 8_000

(* per-op spans stop here, leaving room for the host spans of the round *)
let op_span_cap = 1_990

type spans = { mutable list : span list; mutable count : int }

let spans () = { list = []; count = 0 }

(* untraced rounds record nothing *)
let no_spans () = { list = []; count = span_cap }

let add_span sp s =
  if sp.count < span_cap then begin
    sp.list <- s :: sp.list;
    sp.count <- sp.count + 1
  end

let host_span sp name t0 t1 =
  add_span sp
    {
      sp_name = name;
      sp_clock = `Host;
      sp_lane = 0;
      sp_op = -1;
      sp_start = t0 *. 1e6;
      sp_end = t1 *. 1e6;
    }

(* ---------- one round's outcome ---------- *)

(* host seconds of one set-up *)
type setup = {
  machine_s : float;  (* Machine.create + Sthread.create *)
  runtime_s : float;  (* Dps.create / Server.start / Cluster.create ... *)
  populate_s : float;  (* cold population *)
  setup_s : float;  (* set-up start to the first simulated cycle *)
}

type round = {
  setups : setup list;  (* one per set-up the round timed; the last one ran *)
  populate_keys : int;
  sim_s : float;  (* host seconds of the simulated phase *)
  rates : float list;  (* ops per host second, per slice of the simulated phase *)
  ops : int;  (* completed ops or requests *)
  attempted : int;
  failed : int;
  failures : string list;
  minor_words : float;  (* simulated phase only *)
  promoted_words : float;
  major_collections : int;
  sim : (string * float) list;  (* sim_* end-to-end metrics *)
  notes : (string * string) list;  (* sample counts and bases, printed *)
  layer : (string * float) list;  (* deterministic per-layer metrics *)
  host_layer : (string * float) list;  (* traced-run host probes *)
  stats : (string * string) list;  (* every simulated statistic: the digest *)
  inputs : string;  (* digest of the generated inputs *)
  probe : probe option;
}

let digest r =
  Digest.to_hex
    (Digest.string (String.concat "\n" (List.map (fun (k, v) -> k ^ "=" ^ v) r.stats)))

(* ---------- the harness: timing, GC accounting, the first-cycle stamp ---------- *)

type clock = {
  setup_only : bool;  (* stop at the first simulated cycle: time a set-up, run nothing *)
  spans : spans;
  t_start : float;
  mutable machine_s : float;
  mutable runtime_s : float;
  mutable populate_s : float;
  mutable t_sim : float;  (* host time at the first simulated event *)
  mutable w0 : float;
  mutable p0 : float;
  mutable mc0 : int;
  mutable ticks : (float * int) list;  (* (host time, ops completed), newest first *)
  mutable t_end : float;  (* host time when the simulated phase returned *)
  mutable w1 : float;
  mutable p1 : float;
  mutable mc1 : int;
}

let clock ~setup_only spans =
  {
    setup_only;
    spans = (if setup_only then no_spans () else spans);
    t_start = now_s ();
    machine_s = 0.0;
    runtime_s = 0.0;
    populate_s = 0.0;
    t_sim = 0.0;
    w0 = 0.0;
    p0 = 0.0;
    mc0 = 0;
    ticks = [];
    t_end = 0.0;
    w1 = 0.0;
    p1 = 0.0;
    mc1 = 0;
  }

let setup_of c =
  {
    machine_s = c.machine_s;
    runtime_s = c.runtime_s;
    populate_s = c.populate_s;
    setup_s = c.t_sim -. c.t_start;
  }

(* raised at the first simulated cycle of a set-up-only round *)
exception Set_up of setup

(* An event at time 0 pushed before anything else in the scheduler fires
   first: it marks the end of set-up. Every later event keeps its
   relative order, so the simulation is unchanged. *)
let stamp_first_cycle c sched =
  Sthread.at sched ~time:0 (fun () ->
      let g = Gc.quick_stat () in
      c.w0 <- g.Gc.minor_words;
      c.p0 <- g.Gc.promoted_words;
      c.mc0 <- g.Gc.major_collections;
      c.t_sim <- now_s ();
      if c.setup_only then raise (Set_up (setup_of c));
      c.ticks <- [ (c.t_sim, 0) ])

(* One round with [reps] set-ups: all but the last stop at their first
   simulated cycle and are discarded; the last runs in full and its round
   carries every set-up's timing. The heap is compacted before each, as
   before every round. A set-up of a few milliseconds, or one per long
   round, gives a median of few or noisy samples otherwise. *)
let repeat_setup reps run =
  let earlier =
    List.init (reps - 1) (fun _ ->
        Gc.compact ();
        match run ~setup_only:true ~earlier:[] with
        | _ -> failwith "a set-up-only round ran past its first simulated cycle"
        | exception Set_up s -> s)
  in
  Gc.compact ();
  run ~setup_only:false ~earlier

(* the simulated phase returned: read the clock and the GC counters
   before any check or probe allocates *)
let sim_done c =
  c.t_end <- now_s ();
  let g = Gc.quick_stat () in
  c.w1 <- g.Gc.minor_words;
  c.p1 <- g.Gc.promoted_words;
  c.mc1 <- g.Gc.major_collections;
  host_span c.spans "sim" c.t_sim c.t_end

(* Host time and completed ops every [every] simulated cycles up to
   [until], so the host rate is sampled per slice of the simulated phase
   and a burst of interference on this host moves few samples. The ticks
   are bare events that touch no simulated state, and none lies past
   [until], so the simulation and its end time are unchanged. *)
let slice_ticks c sched ~every ~until ~count =
  let rec tick t =
    Sthread.at sched ~time:t (fun () ->
        c.ticks <- (now_s (), count ()) :: c.ticks;
        if t + every <= until then tick (t + every))
  in
  tick every

let slice_rates c =
  let rec go acc = function
    | (t1, n1) :: ((t0, n0) :: _ as rest) ->
        let acc = if t1 > t0 then (float_of_int (n1 - n0) /. (t1 -. t0)) :: acc else acc in
        go acc rest
    | _ -> acc
  in
  go [] c.ticks

(* one timed set-up step: a host span, and its seconds added to the
   round's breakdown *)
let step c which f =
  let t0 = now_s () in
  let r = f () in
  let t1 = now_s () in
  let dt = t1 -. t0 in
  (match which with
  | `Machine ->
      host_span c.spans "setup.machine" t0 t1;
      c.machine_s <- c.machine_s +. dt
  | `Runtime ->
      host_span c.spans "setup.runtime" t0 t1;
      c.runtime_s <- c.runtime_s +. dt
  | `Server ->
      host_span c.spans "setup.server" t0 t1;
      c.runtime_s <- c.runtime_s +. dt
  | `Populate ->
      host_span c.spans "setup.populate" t0 t1;
      c.populate_s <- c.populate_s +. dt);
  r

(* Machine.stats delta as per-op machine.* metrics *)
let machine_layer m ~base ~ops =
  let st = Machine.stats m in
  let d k = Stats.get st k - (try List.assoc k base with Not_found -> 0) in
  let per k = ratio (d k) ops in
  [
    ("machine.accesses_per_op", per "accesses");
    ("machine.priv_hit_frac", ratio (d "priv_hits") (d "accesses"));
    ("machine.llc_misses_per_op", per "llc_misses");
    ("machine.remote_misses_per_op", per "remote_misses");
    ("machine.invalidations_per_op", per "invalidations");
    ("machine.tlb_misses_per_op", per "tlb_misses");
    ("machine.dram_queued_per_op", per "dram_queueing");
  ]

let stats_kvs m =
  List.map (fun (k, v) -> ("machine." ^ k, string_of_int v)) (Stats.to_list (Machine.stats m))

(* finish a round: close the timing, read GC counters, fold the pieces.
   [earlier]: set-ups timed before the one that ran ([repeat_setup]).
   [failed_ops]: ops that failed (errors, drops, ...); a failed check with
   no failed op behind it still counts once. *)
let finish c ~earlier ~cfg ~populate_keys ~ops ~attempted ~failed_ops ~failures ~sim ~notes ~layer
    ~host_layer ~stats ~inputs ~probe =
  {
    setups = earlier @ [ setup_of c ];
    populate_keys;
    sim_s = c.t_end -. c.t_sim;
    rates = slice_rates c;
    ops;
    attempted;
    failed = max failed_ops (List.length failures);
    failures;
    minor_words = c.w1 -. c.w0;
    promoted_words = c.p1 -. c.p0;
    major_collections = c.mc1 - c.mc0;
    sim;
    notes;
    layer;
    host_layer =
      (match probe with
      | None -> host_layer
      | Some pr ->
          let ns, n = replay pr cfg in
          host_layer
          @ [ ("machine.host_ns_per_access", ns); ("machine.replayed_accesses", float_of_int n) ]);
    stats;
    inputs;
    probe;
  }

(* ---------- generated inputs ---------- *)

(* the population order plus the first draws of every stream; the caller
   passes freshly derived streams, so the run's own are not advanced *)
let inputs_digest ~keys ~streams =
  let b = Buffer.create 4096 in
  Array.iter (fun k -> Buffer.add_string b (string_of_int k ^ ",")) keys;
  Array.iter
    (fun p ->
      for _ = 1 to 16 do
        Buffer.add_string b (Int64.to_string (Prng.next64 p) ^ ",")
      done)
    streams;
  Digest.to_hex (Digest.string (Buffer.contents b))

(* ---------- closed-loop set workloads (sets-large, deleg-hot) ---------- *)

type set_params = {
  threads : int;
  size : int;
  update_pct : int;
  skewed : bool;
  duration : int;  (* simulated cycles *)
  slices : int;  (* host-rate samples per round *)
  scaled : bool;  (* the /16 machine of the capacity figures *)
}

(* Stamps written from inside the op or the delegated closure. *)
type stamp = { mutable s : int; mutable e : int }

type loop = {
  lat : Vec.t;
  wait : Vec.t;  (* issue -> closure start *)
  exec : Vec.t;  (* closure start -> closure end *)
  reply : Vec.t;  (* closure end -> return *)
  mutable inserted : int;
  mutable removed : int;
  mutable bad_values : int;  (* lookups that returned a value <> key *)
}

(* the key range [0, 2*size) holds the odd population keys and misses *)
let key_dist (p : set_params) =
  if p.skewed then Keydist.zipf ~range:(2 * p.size) () else Keydist.uniform ~range:(2 * p.size)

let new_loop () =
  {
    lat = Vec.create ();
    wait = Vec.create ();
    exec = Vec.create ();
    reply = Vec.create ();
    inserted = 0;
    removed = 0;
    bad_values = 0;
  }

(* [threads] clients run ops back to back until the horizon, through the
   shared closed-loop harness [Driver.measure]. Client [tid] draws from
   [streams.(tid)]. [op] performs one op of the given kind and fills the
   stamp; it returns the op's outcome (1 = insert/remove succeeded; for
   lookups the value or -1). Exact samples go to [l]. *)
let run_clients sched l ?placement ~(p : set_params) ~streams ?prologue ?epilogue ~op ~spans
    ~trace () =
  let dist = key_dist p in
  let stamps = Array.init p.threads (fun _ -> { s = 0; e = 0 }) in
  let opid = ref 0 in
  Driver.measure ~sched ~threads:p.threads ?placement ~duration:p.duration ?prologue ?epilogue
    ~op:(fun ~tid ~step:_ ->
      let prng = streams.(tid) and st = stamps.(tid) in
      let key = Keydist.sample dist prng in
      let kind =
        if Prng.int prng 100 < p.update_pct then if Prng.bool prng then `Ins else `Rem else `Look
      in
      let t0 = Sthread.time () in
      let r = op kind key st in
      let t1 = Sthread.time () in
      (match kind with
      | `Ins -> if r = 1 then l.inserted <- l.inserted + 1
      | `Rem -> if r = 1 then l.removed <- l.removed + 1
      | `Look -> if r <> -1 && r <> key then l.bad_values <- l.bad_values + 1);
      Vec.push l.lat (t1 - t0);
      Vec.push l.wait (st.s - t0);
      Vec.push l.exec (st.e - st.s);
      Vec.push l.reply (t1 - st.e);
      if trace && !opid < op_span_cap then begin
        let sim name a b =
          add_span spans
            {
              sp_name = name;
              sp_clock = `Sim;
              sp_lane = Sthread.self_id ();
              sp_op = !opid;
              sp_start = float_of_int a;
              sp_end = float_of_int b;
            }
        in
        sim "op" t0 t1;
        sim "ring_wait" t0 st.s;
        sim "exec" st.s st.e;
        sim "reply" st.e t1
      end;
      incr opid)
    ()

(* End-to-end simulated metrics of a closed loop, from exact samples. *)
let closed_loop_sim m (p : set_params) l (d : Driver.result) =
  let s = Vec.sorted l.lat in
  let ops = l.lat.Vec.n in
  let mops = float_of_int ops /. Machine.cycles_to_seconds m d.Driver.duration_cycles /. 1e6 in
  ( [
      ("sim_mops", mops);
      ("sim_p50_cycles", float_of_int (pct s 0.50));
      ("sim_p99_cycles", float_of_int (pct s 0.99));
      ("sim_p999_cycles", float_of_int (pct s 0.999));
      (* a closed loop sustains exactly its completion rate *)
      ("sim_max_rate_mops", mops);
    ],
    [
      ("latency samples", string_of_int ops);
      ("closed loop", Printf.sprintf "%d threads, %d cycles" p.threads p.duration);
    ] )

(* Per-op stamps: issue -> ring wait -> exec -> reply. The three means
   sum exactly to the mean op latency. Without delegation only the
   structure's own execution applies. *)
let decomposition ~delegated l =
  let n = l.lat.Vec.n in
  [
    ("ds.exec_cycles_mean", mean_of (Vec.sum l.exec) n);
    ("ds.exec_cycles_p50", float_of_int (pct (Vec.sorted l.exec) 0.50));
  ]
  @
  if delegated then
    [
      ("dps.ring_wait_cycles_mean", mean_of (Vec.sum l.wait) n);
      ("dps.ring_wait_cycles_p99", float_of_int (pct (Vec.sorted l.wait) 0.99));
      ("dps.reply_cycles_mean", mean_of (Vec.sum l.reply) n);
      ("op_cycles_mean", mean_of (Vec.sum l.lat) n);
    ]
  else []

(* the structure's public [lookup], outside the simulation, on the
   populated structure, over the workload's own key stream *)
let lookup_probe ~lookup ~(p : set_params) prng =
  let n = 100_000 in
  let dist = key_dist p in
  let keys = Array.init n (fun _ -> Keydist.sample dist prng) in
  let t0 = now_s () in
  Array.iter (fun k -> ignore (Sys.opaque_identity (lookup k))) keys;
  ((now_s () -. t0) *. 1e9 /. float_of_int n, n)

(* Content check: invariants hold, the size moved by exactly the
   successful updates, and every value equals its key. *)
let check_contents ~check ~contents ~initial l =
  let failures = ref [] in
  (try check () with Failure msg -> failures := ("check_invariants: " ^ msg) :: !failures);
  let items = contents () in
  let expect = initial + l.inserted - l.removed in
  if List.length items <> expect then
    failures :=
      Printf.sprintf "size %d, expected %d + %d - %d" (List.length items) initial l.inserted
        l.removed
      :: !failures;
  if List.exists (fun (k, v) -> k <> v) items then failures := "value <> key" :: !failures;
  if l.bad_values > 0 then
    failures := Printf.sprintf "%d lookups returned a wrong value" l.bad_values :: !failures;
  !failures


(* ---------- seeds ---------- *)

(* Every generated input derives from the workload seed through one
   splitmix stream: the population order's seed first, then one key stream
   per client, then a stream for the off-line lookup probe. Populations
   are [size] odd keys in a seed-shuffled order, so the key range
   [0, 2*size) interleaves hits and misses. *)
let master seed = Prng.create (Int64.of_int ((seed * 7919) + 0x5eed))

let set_inputs (p : set_params) ~seed =
  let rng = master seed in
  let keys = Bench_common.population_keys ~size:p.size ~seed:(Prng.next64 rng) in
  let streams = Array.init p.threads (fun _ -> Prng.split rng) in
  (keys, streams, Prng.split rng)

let set_inputs_digest p ~seed =
  let keys, streams, _ = set_inputs p ~seed in
  inputs_digest ~keys ~streams

let loop_stats m sched l sim extra =
  [
    ("ops", string_of_int l.lat.Vec.n);
    ("cycles", string_of_int (Sthread.now sched));
    ("inserted", string_of_int l.inserted);
    ("removed", string_of_int l.removed);
    ("lat_sum", string_of_int (Vec.sum l.lat));
    ("wait_sum", string_of_int (Vec.sum l.wait));
    ("exec_sum", string_of_int (Vec.sum l.exec));
  ]
  @ List.map (fun (k, v) -> (k, Printf.sprintf "%.17g" v)) sim
  @ extra @ stats_kvs m

let new_machine c cfg =
  step c `Machine (fun () ->
      let m = Machine.create cfg in
      (m, Sthread.create m))

let start_probe trace sched =
  if trace then begin
    let pr = probe () in
    install pr sched;
    Some pr
  end
  else None

(* ---------- sets-large ---------- *)

let sets_large_params =
  {
    threads = 80;
    size = 524_288;
    update_pct = 5;
    skewed = false;
    duration = 2_000_000;
    slices = 100;
    scaled = true;
  }

(* Shared-memory harness over the lazy skip list: no delegation, so the
   whole op is the structure's own execution. *)
let sets_large ?(p = sets_large_params) ~setup_only ~earlier ~seed ~trace ~spans () =
  let module S = Dps_ds.Sl_herlihy in
  let c = clock ~setup_only spans in
  let keys, streams, lookup_rng = set_inputs p ~seed in
  let cfg = if p.scaled then Machine.config_scaled () else Machine.config_default in
  let m, sched = new_machine c cfg in
  stamp_first_cycle c sched;
  let set = step c `Runtime (fun () -> S.create (Alloc.create m ~cold:Alloc.Spread)) in
  step c `Populate (fun () ->
      Array.iter (fun key -> ignore (S.insert set ~key ~value:key)) keys;
      S.maintenance set);
  let pr = start_probe trace sched in
  let base = Stats.to_list (Machine.stats m) in
  let l = new_loop () in
  slice_ticks c sched ~every:(p.duration / p.slices) ~until:p.duration ~count:(fun () ->
      l.lat.Vec.n);
  let d =
    run_clients sched l ~p ~streams
      ~op:(fun kind key st ->
        st.s <- Sthread.time ();
        let r =
          match kind with
          | `Ins -> Bool.to_int (S.insert set ~key ~value:key)
          | `Rem -> Bool.to_int (S.remove set key)
          | `Look -> ( match S.lookup set key with Some v -> v | None -> -1)
        in
        st.e <- Sthread.time ();
        r)
      ~spans:c.spans ~trace ()
  in
  sim_done c;
  let ops = l.lat.Vec.n in
  let sim, notes = closed_loop_sim m p l d in
  let failures =
    check_contents
      ~check:(fun () -> S.check_invariants set)
      ~contents:(fun () -> S.to_list set)
      ~initial:p.size l
  in
  let host_layer =
    if trace then
      let ns, n = lookup_probe ~lookup:(S.lookup set) ~p lookup_rng in
      [ ("ds.host_ns_per_lookup", ns); ("ds.lookup_samples", float_of_int n) ]
    else []
  in
  finish c ~earlier ~cfg ~populate_keys:p.size ~ops ~attempted:ops ~failed_ops:l.bad_values
    ~failures ~sim ~notes
    ~layer:(machine_layer m ~base ~ops @ decomposition ~delegated:false l)
    ~host_layer ~stats:(loop_stats m sched l sim []) ~inputs:(set_inputs_digest p ~seed) ~probe:pr

(* ---------- deleg-hot ---------- *)

let deleg_hot_params =
  {
    threads = 80;
    size = 4096;
    update_pct = 50;
    skewed = true;
    duration = 1_000_000;
    slices = 50;
    scaled = false;
  }

(* DPS harness over the chained hash table, locality 10. *)
let deleg_hot ?(p = deleg_hot_params) ~setup_only ~earlier ~seed ~trace ~spans () =
  let module S = Dps_ds.Hashtable in
  let c = clock ~setup_only spans in
  let keys, streams, lookup_rng = set_inputs p ~seed in
  let cfg = if p.scaled then Machine.config_scaled () else Machine.config_default in
  let m, sched = new_machine c cfg in
  stamp_first_cycle c sched;
  let dps =
    step c `Runtime (fun () ->
        Dps.create sched ~nclients:p.threads ~locality_size:10 ~hash:Bench_common.partition_hash
          ~mk_data:(fun (info : Dps.partition_info) -> S.create info.Dps.alloc)
          ())
  in
  let part key = Dps.partition_data dps (Dps.partition_of_key dps key) in
  step c `Populate (fun () ->
      Array.iter (fun key -> ignore (S.insert (part key) ~key ~value:key)) keys);
  let pr = start_probe trace sched in
  let base = Stats.to_list (Machine.stats m) in
  let l = new_loop () in
  slice_ticks c sched ~every:(p.duration / p.slices) ~until:p.duration ~count:(fun () ->
      l.lat.Vec.n);
  let d =
    run_clients sched l
      ~placement:(Array.init p.threads (Dps.client_hw dps))
      ~p ~streams
      ~prologue:(fun ~tid -> Dps.attach dps ~client:tid)
      ~epilogue:(fun ~tid:_ ->
        Dps.client_done dps;
        Dps.drain dps)
      ~op:(fun kind key st ->
        Dps.call dps ~key (fun h ->
            st.s <- Sthread.time ();
            let r =
              match kind with
              | `Ins -> Bool.to_int (S.insert h ~key ~value:key)
              | `Rem -> Bool.to_int (S.remove h key)
              | `Look -> ( match S.lookup h key with Some v -> v | None -> -1)
            in
            st.e <- Sthread.time ();
            r))
      ~spans:c.spans ~trace ()
  in
  sim_done c;
  let ops = l.lat.Vec.n in
  let sim, notes = closed_loop_sim m p l d in
  let nparts = Dps.npartitions dps in
  let failures =
    check_contents
      ~check:(fun () ->
        for i = 0 to nparts - 1 do
          let d = Dps.partition_data dps i in
          S.check_invariants d;
          List.iter
            (fun (k, _) ->
              if Dps.partition_of_key dps k <> i then
                failwith (Printf.sprintf "key %d stored in partition %d" k i))
            (S.to_list d)
        done)
      ~contents:(fun () ->
        List.concat (List.init nparts (fun i -> S.to_list (Dps.partition_data dps i))))
      ~initial:p.size l
  in
  let h = Dps.health dps in
  let delegated = Dps.delegated_ops dps and local = Dps.local_ops dps in
  let dps_layer =
    [
      ("dps.ops_per_flush", ratio delegated (Dps.batch_flushes dps));
      ("dps.local_frac", ratio local (local + delegated));
      ("dps.retries", float_of_int h.Dps.retries);
      ("dps.takeovers", float_of_int h.Dps.takeovers);
    ]
  in
  let host_layer =
    if trace then
      let ns, n = lookup_probe ~lookup:(fun k -> S.lookup (part k) k) ~p lookup_rng in
      [ ("ds.host_ns_per_lookup", ns); ("ds.lookup_samples", float_of_int n) ]
    else []
  in
  finish c ~earlier ~cfg ~populate_keys:p.size ~ops ~attempted:ops ~failed_ops:l.bad_values
    ~failures ~sim
    ~notes:(notes @ [ ("dps ops", Printf.sprintf "%d delegated, %d local" delegated local) ])
    ~layer:(machine_layer m ~base ~ops @ decomposition ~delegated:true l @ dps_layer)
    ~host_layer
    ~stats:
      (loop_stats m sched l sim
         [
           ("dps.delegated", string_of_int delegated);
           ("dps.local", string_of_int local);
           ("dps.flushes", string_of_int (Dps.batch_flushes dps));
           ("dps.retries", string_of_int h.Dps.retries);
           ("dps.takeovers", string_of_int h.Dps.takeovers);
         ])
    ~inputs:(set_inputs_digest p ~seed) ~probe:pr

(* ---------- shared pieces of the two serving workloads ---------- *)

(* self-healing counters of the DPS runtimes behind memcached backends *)
let health_layer (backends : Variants.t list) =
  let hs = List.filter_map (fun b -> Option.map (fun f -> f ()) b.Variants.health) backends in
  let sum f = float_of_int (List.fold_left (fun a h -> a + f h) 0 hs) in
  [
    ("dps.retries", sum (fun h -> h.Dps.retries));
    ("dps.takeovers", sum (fun h -> h.Dps.takeovers));
  ]

let net_layer (ns : Net.stats list) ~reqs =
  let sum f = List.fold_left (fun a s -> a + f s) 0 ns in
  let local = sum (fun s -> s.Net.local_lines) and remote = sum (fun s -> s.Net.remote_lines) in
  [
    ("net.pkts_per_req", ratio (sum (fun s -> s.Net.pkts_rx + s.Net.pkts_tx)) reqs);
    ("net.bytes_per_req", ratio (sum (fun s -> s.Net.bytes_rx + s.Net.bytes_tx)) reqs);
    ("net.local_frac", if local + remote = 0 then 1.0 else ratio local (local + remote));
    ("net.backpressured", float_of_int (sum (fun s -> s.Net.backpressured)));
    ("net.refused", float_of_int (sum (fun s -> s.Net.refused)));
  ]

(* the bases of the serving ratios, printed beside them *)
let serving_notes (ss : Server.stats list) (ns : Net.stats list) =
  let sum l f = List.fold_left (fun a s -> a + f s) 0 l in
  [
    ( "server base",
      Printf.sprintf "%d requests, %d lookups, %d batches, %d parks"
        (sum ss (fun s -> s.Server.requests))
        (sum ss (fun s -> s.Server.lookups))
        (sum ss (fun s -> s.Server.batches))
        (sum ss (fun s -> s.Server.parks)) );
    ( "net base",
      Printf.sprintf "%d ring lines local, %d remote"
        (sum ns (fun s -> s.Net.local_lines))
        (sum ns (fun s -> s.Net.remote_lines)) );
  ]

let server_layer (ss : Server.stats list) =
  let sum f = List.fold_left (fun a s -> a + f s) 0 ss in
  let reqs = sum (fun s -> s.Server.requests) in
  [
    ("memcached.hit_frac", ratio (sum (fun s -> s.Server.hits)) (sum (fun s -> s.Server.lookups)));
    ("server.parks_per_req", ratio (sum (fun s -> s.Server.parks)) reqs);
    ("server.reqs_per_batch", ratio reqs (sum (fun s -> s.Server.batches)));
    ("server.shed", float_of_int (sum (fun s -> s.Server.shed)));
    ("server.bad_requests", float_of_int (sum (fun s -> s.Server.bad_requests)));
  ]

let net_kvs prefix (s : Net.stats) =
  List.map
    (fun (k, v) -> (prefix ^ k, string_of_int v))
    [
      ("pkts_rx", s.Net.pkts_rx);
      ("pkts_tx", s.Net.pkts_tx);
      ("bytes_rx", s.Net.bytes_rx);
      ("bytes_tx", s.Net.bytes_tx);
      ("dma_lines", s.Net.dma_lines);
      ("local_lines", s.Net.local_lines);
      ("remote_lines", s.Net.remote_lines);
      ("backpressured", s.Net.backpressured);
      ("refused", s.Net.refused);
      ("accepted", s.Net.accepted);
    ]

let server_kvs prefix (s : Server.stats) =
  List.map
    (fun (k, v) -> (prefix ^ k, string_of_int v))
    [
      ("conns", s.Server.conns);
      ("requests", s.Server.requests);
      ("gets", s.Server.gets);
      ("lookups", s.Server.lookups);
      ("hits", s.Server.hits);
      ("sets", s.Server.sets);
      ("bad_requests", s.Server.bad_requests);
      ("batches", s.Server.batches);
      ("parks", s.Server.parks);
      ("shed", s.Server.shed);
      ("closed", s.Server.closed);
    ]

let result_kvs (r : Netload.result) =
  [
    ("issued", string_of_int r.Netload.issued);
    ("completed", string_of_int r.Netload.completed);
    ("errors", string_of_int r.Netload.errors);
    ("hits", string_of_int r.Netload.hits);
    ("refused", string_of_int r.Netload.refused_conns);
    ("duration", string_of_int r.Netload.duration_cycles);
    ("mean_latency", Printf.sprintf "%.17g" r.Netload.mean_latency);
    ("p50", string_of_int r.Netload.p50);
    ("p99", string_of_int r.Netload.p99);
    ("p999", string_of_int r.Netload.p999);
  ]

let netload_sim (r : Netload.result) =
  [
    ("sim_mops", r.Netload.throughput_mops);
    ("sim_p50_cycles", float_of_int r.Netload.p50);
    ("sim_p99_cycles", float_of_int r.Netload.p99);
    ("sim_p999_cycles", float_of_int r.Netload.p999);
  ]

(* population order of the keys [0, items) and the Netload fleet seed,
   plus their digest *)
let serve_inputs ~items ~seed =
  let rng = master seed in
  let keys =
    Array.map (fun k -> k / 2) (Bench_common.population_keys ~size:items ~seed:(Prng.next64 rng))
  in
  let netseed = Prng.next64 rng in
  let digest =
    Digest.to_hex
      (Digest.string
         (String.concat "," (Array.to_list (Array.map string_of_int keys))
         ^ Int64.to_string netseed))
  in
  (keys, netseed, digest)

(* ---------- serve ---------- *)

type serve_params = {
  items : int;
  conns : int;  (* one independent Poisson user per connection *)
  window : int;  (* issue window per ladder point, cycles *)
  nominal_window : int;  (* longer, for the tail percentiles *)
  ladder : float list;  (* offered rates, Mops *)
  nominal : float;  (* the rate the other metrics are reported at *)
}

let serve_params =
  {
    items = 16_384;
    conns = 4096;
    window = 1_000_000;
    nominal_window = 4_000_000;
    ladder = [ 20.; 30.; 40.; 50.; 55.; 60.; 65. ];
    nominal = 30.;
  }

let serve_pollers = 40

(* p99 latency limit of the max-rate ladder, cycles *)
let serve_limit = 40_000

(* Outcome of one offered rate, for the ladder. *)
type point = { rate : float; issued : int; unresolved : int; errors : int; p99 : int }

(* One node: dps_parsec behind Net and Server, open-loop users. The
   backend's get/set closures are wrapped to time the backend. *)
let serve ?(p = serve_params) ?rate ~setup_only ~earlier ~seed ~trace ~spans () =
  let rate = Option.value rate ~default:p.nominal in
  let window = if rate = p.nominal then p.nominal_window else p.window in
  let c = clock ~setup_only spans in
  let keys, netseed, inputs = serve_inputs ~items:p.items ~seed in
  let cfg = Machine.config_scaled () in
  let m, sched = new_machine c cfg in
  stamp_first_cycle c sched;
  let bcyc = Vec.create () in
  let timed_call f =
    let t0 = Sthread.time () in
    let r = f () in
    Vec.push bcyc (Sthread.time () - t0);
    r
  in
  let backend, net =
    step c `Runtime (fun () ->
        let b =
          Variants.dps_parsec sched ~self_healing:true ~nclients:serve_pollers ~locality_size:10
            ~buckets:p.items ~capacity:(2 * p.items) ()
        in
        let b =
          {
            b with
            Variants.get = (fun key -> timed_call (fun () -> b.Variants.get key));
            set = (fun ~key ~val_lines -> timed_call (fun () -> b.Variants.set ~key ~val_lines));
            set_tagged =
              Option.map
                (fun st ~key ~val_lines ~tag -> timed_call (fun () -> st ~key ~val_lines ~tag))
                b.Variants.set_tagged;
          }
        in
        (b, Net.create sched ()))
  in
  step c `Populate (fun () -> backend.Variants.populate ~keys ~val_lines:2);
  let srv =
    step c `Server (fun () ->
        Server.start sched net ~backend
          { Server.default_config with npollers = serve_pollers; max_conns = p.conns })
  in
  let pr = start_probe trace sched in
  let spec =
    Netload.spec ~nclients:p.conns ~nconns:p.conns ~set_pct:10 ~key_range:p.items
      ~zipfian:true
      ~mode:(Netload.Open { rate_mops = rate })
      ~seed:netseed ()
  in
  slice_ticks c sched ~every:(window / 50) ~until:window ~count:(fun () ->
      (Server.stats srv).Server.requests);
  let r = Netload.run sched net spec ~duration:window ~stop:(fun () -> Server.stop srv) () in
  sim_done c;
  let unresolved = r.Netload.issued - r.Netload.completed in
  let failures =
    List.filter_map Fun.id
      [
        (if unresolved > 0 then Some (Printf.sprintf "%d requests unresolved" unresolved)
         else None);
        (if r.Netload.errors > 0 then Some (Printf.sprintf "%d error replies" r.Netload.errors)
         else None);
        (if r.Netload.refused_conns > 0 then
           Some (Printf.sprintf "%d connections refused" r.Netload.refused_conns)
         else None);
      ]
  in
  let bsum = Vec.sum bcyc and bn = bcyc.Vec.n in
  let bmean = mean_of bsum bn in
  let ss = Server.stats srv and ns = Net.stats net in
  let round =
    finish c ~earlier ~cfg ~populate_keys:p.items ~ops:r.Netload.completed ~attempted:r.Netload.issued
      ~failed_ops:(unresolved + r.Netload.errors + r.Netload.refused_conns)
      ~failures
      ~sim:(netload_sim r)
      ~notes:
        ([
          ("latency samples", string_of_int r.Netload.completed);
          ( "open loop",
            Printf.sprintf "%d Poisson users at %.0f Mops for %d cycles" p.conns rate window );
          ("backend calls", string_of_int bn);
         ]
        @ serving_notes [ ss ] [ ns ])
      ~layer:
        (machine_layer m ~base:[] ~ops:r.Netload.completed
        @ [
            ("memcached.backend_cycles_mean", bmean);
            ("memcached.backend_cycles_p99", float_of_int (pct (Vec.sorted bcyc) 0.99));
            ("server.front_cycles_mean", r.Netload.mean_latency -. bmean);
          ]
        @ server_layer [ ss ]
        @ net_layer [ ns ] ~reqs:r.Netload.completed
        @ health_layer [ backend ])
      ~host_layer:[]
      ~stats:
        (result_kvs r
        @ [ ("backend_sum", string_of_int bsum); ("backend_calls", string_of_int bn) ]
        @ server_kvs "srv." ss @ net_kvs "net." ns @ stats_kvs m)
      ~inputs ~probe:pr
  in
  ( round,
    { rate; issued = r.Netload.issued; unresolved; errors = r.Netload.errors; p99 = r.Netload.p99 }
  )

(* Highest offered rate whose p99 meets the limit with no growing
   backlog. A request left unresolved or answered with an error counts as
   exceeding the limit, so a point passes when its score
   max(p99 / limit, (unresolved + errors) / 1% of issued) is at most 1.
   Between the last passing and the first failing rate the score is
   interpolated linearly to where it crosses 1. *)
let max_rate ~limit pts =
  let score pt =
    max
      (float_of_int pt.p99 /. float_of_int limit)
      (float_of_int (pt.unresolved + pt.errors) /. (0.01 *. float_of_int (max 1 pt.issued)))
  in
  let rec go last = function
    | [] -> ( match last with Some (pt, _) -> pt.rate | None -> 0.0)
    | pt :: rest -> (
        let s = score pt in
        if s <= 1.0 then go (Some (pt, s)) rest
        else
          match last with
          | None -> 0.0
          | Some (a, sa) -> a.rate +. ((1.0 -. sa) /. (s -. sa) *. (pt.rate -. a.rate)))
  in
  go None (List.sort (fun a b -> compare a.rate b.rate) pts)

(* ---------- fleet ---------- *)

type fleet_params = {
  users : int;  (* each on its own routed connection, one request each *)
  fitems : int;
  fwindow : int;  (* arrivals spread uniformly over this many cycles *)
}

let fleet_params = { users = 65_536; fitems = 16_384; fwindow = 8_000_000 }

(* A 4-node cluster with the fleet-scale settings of the cluster figure's
   [scale] stage, the exactly-once ledger on. *)
let fleet ?(p = fleet_params) ~setup_only ~earlier ~seed ~trace ~spans () =
  let c = clock ~setup_only spans in
  let keys, netseed, inputs = serve_inputs ~items:p.fitems ~seed in
  let cfg = Machine.config_scaled () in
  let m, sched = new_machine c cfg in
  stamp_first_cycle c sched;
  let eo = Eo.create () in
  let d = Cluster.default_config in
  let ccfg =
    {
      d with
      Cluster.nnodes = 4;
      npollers = 10;
      buckets = p.fitems;
      capacity = 2 * p.fitems;
      server =
        {
          d.Cluster.server with
          Server.max_conns = p.users;
          park_max = 2_000;
          shed_threshold = 512;
        };
      net = { d.Cluster.net with Net.ring_lines = 8 };
    }
  in
  let cluster =
    step c `Runtime (fun () ->
        Cluster.create sched
          ~on_set_applied:(fun ~node ~tag -> if tag <> 0 then Eo.apply eo ~opid:tag ~node)
          ccfg)
  in
  step c `Populate (fun () -> Cluster.populate cluster ~keys ~val_lines:2);
  Cluster.start_probe cluster;
  let pr = start_probe trace sched in
  let base =
    Netload.spec ~nclients:p.users ~nconns:p.users ~set_pct:10 ~key_range:p.fitems
      ~zipfian:true
      ~mode:(Netload.Closed { think = p.fwindow })
      ~seed:netseed ()
  in
  let rs = Netload.rspec ~base ~on_acked:(fun ~opid ~node -> Eo.ack eo ~opid ~node) () in
  let nodes = List.init (Cluster.node_count cluster) (Cluster.node cluster) in
  let servers = List.map (fun n -> n.Cluster.server) nodes in
  slice_ticks c sched ~every:(p.fwindow / 200) ~until:p.fwindow ~count:(fun () ->
      List.fold_left (fun a s -> a + (Server.stats s).Server.requests) 0 servers);
  let rr =
    Netload.run_routed sched (Cluster.router cluster) rs ~duration:p.fwindow
      ~stop:(fun () -> Cluster.stop cluster)
      ()
  in
  sim_done c;
  let a = rr.Netload.agg in
  let v = Eo.check eo ~node_dead:(Cluster.node_dead cluster) in
  let lost = List.length v.Eo.lost_acked and doubled = List.length v.Eo.double_applied in
  let fail cond msg = if cond then Some msg else None in
  let failures =
    List.filter_map Fun.id
      [
        fail (lost > 0) (Printf.sprintf "%d acked sets lost" lost);
        fail (doubled > 0) (Printf.sprintf "%d sets applied twice" doubled);
        fail
          (a.Netload.completed + rr.Netload.dropped + rr.Netload.abandoned <> a.Netload.issued)
          "completed + dropped + abandoned <> issued";
        fail (rr.Netload.dropped > 0) (Printf.sprintf "%d requests dropped" rr.Netload.dropped);
        fail (rr.Netload.abandoned > 0)
          (Printf.sprintf "%d requests abandoned" rr.Netload.abandoned);
        fail (a.Netload.errors > 0) (Printf.sprintf "%d error replies" a.Netload.errors);
        fail (a.Netload.refused_conns > 0)
          (Printf.sprintf "%d connections refused" a.Netload.refused_conns);
      ]
  in
  let ss = List.map Server.stats servers in
  let ns = List.map (fun n -> Net.stats n.Cluster.net) nodes in
  let mops = a.Netload.throughput_mops in
  let counts =
    [
      ("netload.retries", rr.Netload.retries);
      ("netload.busy", rr.Netload.busy);
      ("netload.timeouts", rr.Netload.timeouts);
      ("netload.dropped", rr.Netload.dropped);
      ("netload.abandoned", rr.Netload.abandoned);
      ("netload.conns_opened", rr.Netload.conns_opened);
      ("cluster.failovers", List.length (Cluster.failover_log cluster));
      ("eo.lost_acked", lost);
      ("eo.double_applied", doubled);
    ]
  in
  finish c ~earlier ~cfg ~populate_keys:p.fitems
    ~ops:a.Netload.completed ~attempted:a.Netload.issued
    ~failed_ops:
      (rr.Netload.dropped + rr.Netload.abandoned + a.Netload.errors + a.Netload.refused_conns + lost
     + doubled)
    ~failures
    ~sim:(netload_sim a @ [ ("sim_max_rate_mops", mops) ])
    ~notes:
      ([
        ("latency samples", string_of_int a.Netload.completed);
        ( "open arrivals",
          Printf.sprintf "%d users, one request each, uniform over %d cycles" p.users p.fwindow );
        ("exactly-once", Printf.sprintf "%d acked, %d applied" v.Eo.acked v.Eo.applied);
       ]
      @ serving_notes ss ns)
    ~layer:
      (machine_layer m ~base:[] ~ops:a.Netload.completed
      @ server_layer ss
      @ net_layer ns ~reqs:a.Netload.completed
      @ health_layer (List.map (fun n -> n.Cluster.backend) nodes)
      @ List.map (fun (k, n) -> (k, float_of_int n)) counts)
    ~host_layer:[]
    ~stats:
      (result_kvs a
      @ List.map (fun (k, n) -> (k, string_of_int n)) counts
      @ List.concat (List.mapi (fun i s -> server_kvs (Printf.sprintf "srv%d." i) s) ss)
      @ List.concat (List.mapi (fun i s -> net_kvs (Printf.sprintf "net%d." i) s) ns)
      @ stats_kvs m)
    ~inputs ~probe:pr
