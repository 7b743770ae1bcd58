(** The simulated NUMA machine: cache hierarchy, coherence and cycle costs.

    Addresses are abstract cache-line numbers handed out by {!alloc}. Every
    simulated memory access goes through {!access}, which consults a
    MESI-style line directory plus per-core private caches and per-socket
    LLCs, charges a cycle cost, and updates the model. This is where all of
    the paper's mechanisms live: coherence invalidations caused by stores,
    capacity misses past LLC size, and the local/remote NUMA cost gap. *)

type kind = Read | Write | Rmw

type policy =
  | On_node of int  (** all lines homed on one NUMA node *)
  | Interleave  (** lines striped round-robin across nodes *)

type config = {
  topo : Topology.t;
  costs : Costs.t;
  priv_lines : int;  (** private (L1+L2) capacity per physical core, in lines *)
  llc_lines : int;  (** LLC capacity per socket, in lines *)
  tlb_entries : int;  (** TLB reach per core, in 4 KB (64-line) pages *)
}

val config_default : config
(** The paper's machine: 256 KB private per core, 24 MB LLC per socket,
    64 B lines — scaled only in the test topology. *)

val config_scaled : ?factor:int -> unit -> config
(** The default machine with both cache capacities divided by [factor]
    (default 16). Benchmarks shrink caches and working sets together so the
    capacity knees land at the same relative spot with less simulation work. *)

type t

val create : ?seed:int64 -> config -> t
val topology : t -> Topology.t
val config : t -> config

val alloc : t -> policy -> lines:int -> int
(** Allocate a region of [lines] cache lines; returns the base address.
    Every line's directory state (home node and dirty bit, owner, sharer
    words, ownership-transfer time) is set up here, in per-field arrays of
    4096-line pages: 18 bytes a line on machines of up to 63 cores, 8 more
    per further 63 cores. A region is paid for in full when allocated. *)

val access : t -> now:int -> thread:int -> addr:int -> kind:kind -> int
(** [access t ~now ~thread ~addr ~kind] performs one access by hardware
    thread [thread] at simulated time [now] and returns its cost in cycles.
    Write/RMW misses to the same line serialize (ownership moves between
    caches one transfer at a time), so a second writer arriving while a
    transfer is in flight additionally pays the queueing delay — the hot
    cache-line collapse of §2. Reads of a shared line serve in parallel. *)

val access_mlp : t -> now:int -> thread:int -> addr:int -> kind:kind -> factor:int -> int
(** Pipelined access for streaming code: like {!access} but the latency
    portion of the cost divides by [factor] (memory-level parallelism
    hides latency behind outstanding requests) while any bandwidth
    queueing delay does not — overlap cannot create bytes-per-cycle.
    With bandwidth modeling off this is exactly
    [max 1 (access ... / factor)]. *)

val bw_charge_dma : t -> now:int -> socket:int -> bytes:int -> int
(** Charge NIC DDIO DMA traffic against [socket]'s memory-controller
    bucket; returns the queueing delay in cycles. 0, with no accounting,
    when bandwidth modeling is off. *)

val bw_enabled : t -> bool
(** Whether the config's {!Costs.bw} enabled the token buckets. *)

type bw_snapshot = {
  mc_bytes : int array;  (** bytes charged per socket memory controller *)
  mc_queue_cycles : int array;  (** queueing delay accumulated per socket *)
  link_bytes : int array array;  (** [link_bytes.(src).(dst)]; diagonal 0 *)
  link_queue_cycles : int array array;
  writebacks : int;  (** dirty LLC evictions streamed back to DRAM *)
}

val bw_snapshot : t -> bw_snapshot option
(** Point-in-time bandwidth accounting; [None] when modeling is off. *)

val interconnect_bytes : t -> int
(** Total bytes charged across every interconnect link direction — the
    delegation-vs-ffwd A/B's bytes/op numerator. 0 when modeling is off. *)

val work_cost : t -> thread:int -> int -> int
(** Compute-cycle cost adjusted for hyperthread sharing: if the sibling
    hardware thread is active the pipeline is shared and the cost dilates. *)

val set_active : t -> thread:int -> bool -> unit
val home_of : t -> int -> int
(** NUMA node a line is homed on (for tests). *)

(** The directory's sharer sets (exposed for tests): a set over [n] cores
    is [words n] ints at index [base] of a flat array, core [c] being bit
    [c mod 63] of word [base + c / 63]. *)
module Sharers : sig
  val words : int -> int
  val mem : int array -> int -> int -> bool
  val add : int array -> int -> int -> unit
  val remove : int array -> int -> int -> unit

  val clear : int array -> int -> int -> unit
  (** [clear w base nwords] empties the set. *)

  val next : int array -> int -> int -> int -> int
  (** [next w base nwords i] is the smallest member [>= i], or [-1] if there
      is none (also when [i >= 63 * nwords]). Allocation-free: walk a set
      with [let s = ref (next w base nw 0) in while !s >= 0 do ...;
      s := next w base nw (!s + 1) done]. *)
end

val stats : t -> Dps_simcore.Stats.t
(** A point-in-time snapshot of the model's counters, built fresh on every
    call: later accesses do not update it, so read it again after a run
    (and subtract an earlier snapshot for a delta). Counters:
    ["accesses"], ["priv_hits"], ["llc_hits"], ["llc_misses"] (served by
    DRAM or another socket), ["remote_misses"] (cross-socket only),
    ["invalidations"], ["tlb_misses"], ["dram_queueing"] (DRAM fills that
    waited on a busy memory controller) and ["write_queueing"] (ownership
    transfers that waited behind one in flight); with bandwidth modeling
    on, also ["bw_mc_queueing"], ["bw_link_queueing"], ["bw_writebacks"]
    and ["bw_dma_bytes"]. A counter appears once it is nonzero, so a fresh
    machine's snapshot is empty. The machine keeps the counters as plain
    mutable ints; this is the only place they become a [Stats.t]. *)

val cycles_to_seconds : t -> int -> float

val register_obs : t -> Dps_obs.Registry.t -> unit
(** Publish the {!stats} counters as sampled gauges named
    [machine.<counter>] in an observability registry; each sample reads
    the live counter (the nine base counters always, the [bw_*] ones with
    bandwidth modeling on). With bandwidth
    modeling on, also publishes per-socket memory-controller gauges
    ([machine.bw_mc_bytes{socket=s}], [machine.bw_mc_queue_cycles{socket=s}],
    [machine.bw_mc_occupancy{socket=s}]) and per-link gauges
    ([machine.bw_link_bytes{src=a,dst=b}],
    [machine.bw_link_queue_cycles{src=a,dst=b}]). *)
