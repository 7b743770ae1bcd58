module Machine = Dps_machine.Machine
module Topology = Dps_machine.Topology
module Sthread = Dps_sthread.Sthread
module Stats = Dps_simcore.Stats
module Histogram = Dps_simcore.Histogram

type result = {
  threads : int;
  ops : int;
  duration_cycles : int;
  throughput_mops : float;
  llc_misses_per_op : float;
  remote_misses_per_op : float;
  mean_latency : float;
  p50 : int;
  p99 : int;
  p999 : int;
}

let pp_result ppf r =
  Format.fprintf ppf
    "%2d threads: %8.3f Mops/s  (%d ops, %.2f LLC miss/op, %.2f remote/op, p50 %d p99 %d)"
    r.threads r.throughput_mops r.ops r.llc_misses_per_op r.remote_misses_per_op r.p50 r.p99

let measure ~sched ~threads ?placement ~duration ?min_ops ?(prologue = fun ~tid:_ -> ())
    ?(epilogue = fun ~tid:_ -> ()) ~op () =
  let m = Sthread.machine sched in
  let topo = Machine.topology m in
  let placement =
    match placement with Some p -> p | None -> Topology.placement topo ~n:threads
  in
  let before = Machine.stats m in
  let misses0 = Stats.get before "llc_misses" and remote0 = Stats.get before "remote_misses" in
  let hist = Histogram.create () in
  let start_time = Sthread.now sched in
  let horizon = start_time + duration in
  let total_ops = ref 0 in
  for tid = 0 to threads - 1 do
    Sthread.spawn sched ~hw:placement.(tid) (fun () ->
        prologue ~tid;
        let steps = ref 0 in
        let continue_loop () =
          Sthread.time () < horizon
          || match min_ops with Some k -> !steps < k | None -> false
        in
        while continue_loop () do
          let t0 = Sthread.time () in
          op ~tid ~step:!steps;
          Histogram.add hist (Sthread.time () - t0);
          incr steps;
          incr total_ops
        done;
        epilogue ~tid)
  done;
  Sthread.run sched;
  let ops = !total_ops in
  let elapsed = max duration (Sthread.now sched - start_time) in
  let seconds = Machine.cycles_to_seconds m elapsed in
  let per_op c = if ops = 0 then 0.0 else float_of_int c /. float_of_int ops in
  (* [Machine.stats] is a snapshot: take a second one after the run *)
  let after = Machine.stats m in
  {
    threads;
    ops;
    duration_cycles = elapsed;
    throughput_mops = (if ops = 0 then 0.0 else float_of_int ops /. seconds /. 1e6);
    llc_misses_per_op = per_op (Stats.get after "llc_misses" - misses0);
    remote_misses_per_op = per_op (Stats.get after "remote_misses" - remote0);
    mean_latency = Histogram.mean hist;
    p50 = Histogram.percentile hist 0.50;
    p99 = Histogram.percentile hist 0.99;
    p999 = Histogram.percentile hist 0.999;
  }
