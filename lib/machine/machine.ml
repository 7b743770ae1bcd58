module Prng = Dps_simcore.Prng
module Stats = Dps_simcore.Stats

type kind = Read | Write | Rmw
type policy = On_node of int | Interleave

type config = {
  topo : Topology.t;
  costs : Costs.t;
  priv_lines : int;
  llc_lines : int;
  tlb_entries : int;  (* pages per core; a page is 64 lines (4 KB) *)
}

let config_default =
  {
    topo = Topology.default;
    costs = Costs.default;
    priv_lines = 4096 (* 256 KB of 64 B lines *);
    llc_lines = 393216 (* 24 MB *);
    tlb_entries = 512 (* 2 MB of reach *);
  }

let config_scaled ?(factor = 16) () =
  {
    config_default with
    priv_lines = max 64 (config_default.priv_lines / factor);
    llc_lines = max 512 (config_default.llc_lines / factor);
    tlb_entries = max 16 (config_default.tlb_entries / factor);
  }

(* Sharer sets, packed [words ncores] ints per line into one flat array:
   core [c] is bit [c mod 63] of word [base + c / 63]. Plain functions over
   the array and a line's base index, so a set is no record of its own. *)
module Sharers = struct
  let words ncores = (ncores + 62) / 63

  let mem w base i = w.(base + (i / 63)) land (1 lsl (i mod 63)) <> 0

  let add w base i =
    let j = base + (i / 63) in
    w.(j) <- w.(j) lor (1 lsl (i mod 63))

  let remove w base i =
    let j = base + (i / 63) in
    w.(j) <- w.(j) land lnot (1 lsl (i mod 63))

  let clear w base n =
    for j = base to base + n - 1 do
      w.(j) <- 0
    done

  let rec log2 n acc = if n = 1 then acc else log2 (n lsr 1) (acc + 1)

  (* Top-level (not a local closure) so [next] allocates nothing. *)
  let rec scan w base n k bits =
    if bits <> 0 then (k * 63) + log2 (bits land -bits) 0
    else if k + 1 < n then scan w base n (k + 1) w.(base + k + 1)
    else -1

  let next w base n i =
    if i >= n * 63 then -1
    else
      let k = i / 63 in
      scan w base n k (w.(base + k) land (-1 lsl (i mod 63)))
end

(* Directory state of [page_lines] consecutive lines, one flat array per
   field, indexed by line address [land page_mask]. *)
type page = {
  meta : Bytes.t;
    (* home node lsl 1, lor 1 when dirty: modified relative to DRAM, so an
       LLC eviction writes it back *)
  owner : Bytes.t;  (* the core holding the line modified, [no_owner] if none *)
  sharers : int array;  (* [sw] words per line, see {!Sharers} *)
  wbusy : int array;
    (* The simulated time until which the line's ownership is in transit.
       Writes from different cores must acquire ownership serially — a
       single hot line is a global serialization point, which is precisely
       the contention collapse of §2 — while reads of a shared line
       replicate and serve in parallel. *)
}

let page_bits = 12
let page_lines = 1 lsl page_bits
let page_mask = page_lines - 1

(* Bandwidth state, present only when [costs.bw] enables modeling: one
   token bucket per socket memory controller and one per interconnect
   link direction. [last_delay] records the bucket component of the most
   recent access so [access_mlp] can exempt it from pipelining — latency
   hides behind memory-level parallelism, bandwidth does not. *)
type bwstate = {
  mc : Bwbucket.t array;  (* per socket *)
  link : Bwbucket.t array;  (* per ordered socket pair, Topology.link_index *)
  mutable last_delay : int;
}

(* The model's counters, one mutable int each, bumped in place on the
   charged-access path: the string-keyed [Stats] table they replace cost
   two hash lookups and an option allocation per bump. {!stats} snapshots
   them into a [Stats.t]. *)
type counters = {
  mutable accesses : int;
  mutable priv_hits : int;
  mutable llc_hits : int;
  mutable llc_misses : int;
  mutable remote_misses : int;
  mutable invalidations : int;
  mutable tlb_misses : int;
  mutable dram_queueing : int;
  mutable write_queueing : int;
  mutable bw_mc_queueing : int;
  mutable bw_link_queueing : int;
  mutable bw_writebacks : int;
  mutable bw_dma_bytes : int;
}

(* Every counter by its exported name: the first group always, the second
   only with bandwidth modeling on (nothing else bumps them). *)
let core_counters =
  [
    ("accesses", fun c -> c.accesses);
    ("priv_hits", fun c -> c.priv_hits);
    ("llc_hits", fun c -> c.llc_hits);
    ("llc_misses", fun c -> c.llc_misses);
    ("remote_misses", fun c -> c.remote_misses);
    ("invalidations", fun c -> c.invalidations);
    ("tlb_misses", fun c -> c.tlb_misses);
    ("dram_queueing", fun c -> c.dram_queueing);
    ("write_queueing", fun c -> c.write_queueing);
  ]

let bw_counters =
  [
    ("bw_mc_queueing", fun c -> c.bw_mc_queueing);
    ("bw_link_queueing", fun c -> c.bw_link_queueing);
    ("bw_writebacks", fun c -> c.bw_writebacks);
    ("bw_dma_bytes", fun c -> c.bw_dma_bytes);
  ]

type t = {
  cfg : config;
  priv : Cachebox.t array;  (* per physical core *)
  tlb : Cachebox.t array;  (* per physical core, in pages *)
  llc : Cachebox.t array;  (* per socket *)
  mutable pages : page array;
    (* The coherence directory, indexed by line address: [alloc] hands out
       addresses densely from 0 and adds pages as it reaches them, writing
       each line's home as it goes, so a first touch allocates nothing.
       Pages never move: growing copies only this table, where one array
       per field grown by copying made allocating thousands of connection
       rings several times dearer than the lazy directory it replaced. *)
  sw : int;  (* sharer words per line *)
  dram_busy : int array;  (* per NUMA node: memory-controller occupancy *)
  bw : bwstate option;  (* bandwidth buckets; None = modeling off (bw:0) *)
  mutable next_addr : int;
  ctr : counters;
  active : bool array;
}

let no_owner = 255

let create ?(seed = 42L) cfg =
  let root = Prng.create seed in
  let topo = cfg.topo in
  (* a core number fits the owner byte, a node the 7 home bits *)
  assert (Topology.ncores topo < no_owner && topo.Topology.sockets <= 128);
  let sw = Sharers.words (Topology.ncores topo) in
  {
    cfg;
    priv =
      Array.init (Topology.ncores topo) (fun _ ->
          Cachebox.create ~capacity:cfg.priv_lines (Prng.split root));
    tlb =
      Array.init (Topology.ncores topo) (fun _ ->
          Cachebox.create ~capacity:cfg.tlb_entries (Prng.split root));
    llc =
      Array.init topo.Topology.sockets (fun _ ->
          Cachebox.create ~capacity:cfg.llc_lines (Prng.split root));
    pages = [||];
    sw;
    dram_busy = Array.make topo.Topology.sockets 0;
    bw =
      (let b = cfg.costs.Costs.bw in
       if b.Costs.mc_bytes_per_cycle <= 0 then None
       else
         Some
           {
             mc =
               Array.init topo.Topology.sockets (fun _ ->
                   Bwbucket.create ~rate:b.Costs.mc_bytes_per_cycle ~burst:b.Costs.mc_burst);
             link =
               Array.init (Topology.nlinks topo) (fun _ ->
                   Bwbucket.create ~rate:b.Costs.link_bytes_per_cycle ~burst:b.Costs.link_burst);
             last_delay = 0;
           });
    next_addr = 0;
    ctr =
      {
        accesses = 0;
        priv_hits = 0;
        llc_hits = 0;
        llc_misses = 0;
        remote_misses = 0;
        invalidations = 0;
        tlb_misses = 0;
        dram_queueing = 0;
        write_queueing = 0;
        bw_mc_queueing = 0;
        bw_link_queueing = 0;
        bw_writebacks = 0;
        bw_dma_bytes = 0;
      };
    active = Array.make (Topology.nthreads topo) false;
  }

let topology t = t.cfg.topo
let config t = t.cfg

(* A counter is listed once it is nonzero: the keys the string-keyed table
   held, which created a counter on its first bump (all of them bump by at
   least 1; DMA charges are whole packets). *)
let stats t =
  let s = Stats.create () in
  List.iter
    (fun (name, get) ->
      let v = get t.ctr in
      if v <> 0 then Stats.add s name v)
    (core_counters @ bw_counters);
  s

(* Page [k], lines [k * page_lines] onwards; pages are added in order. *)
let add_page t k =
  let p =
    {
      meta = Bytes.make page_lines '\000';
      owner = Bytes.make page_lines (Char.chr no_owner);
      sharers = Array.make (page_lines * t.sw) 0;
      wbusy = Array.make page_lines 0;
    }
  in
  if k = Array.length t.pages then begin
    let bigger = Array.make (max 16 (2 * k)) p in
    Array.blit t.pages 0 bigger 0 k;
    t.pages <- bigger
  end;
  t.pages.(k) <- p

let alloc t pol ~lines =
  assert (lines > 0);
  let base = t.next_addr in
  let sockets = t.cfg.topo.Topology.sockets in
  (match pol with On_node n -> assert (n >= 0 && n < sockets) | Interleave -> ());
  t.next_addr <- base + lines;
  for k = (base + page_mask) lsr page_bits to (t.next_addr - 1) lsr page_bits do
    add_page t k
  done;
  for i = 0 to lines - 1 do
    let home = match pol with On_node n -> n | Interleave -> i mod sockets in
    let a = base + i in
    Bytes.set_uint8 t.pages.(a lsr page_bits).meta (a land page_mask) (home lsl 1)
  done;
  base

let check_addr t addr =
  if addr < 0 || addr >= t.next_addr then
    invalid_arg (Printf.sprintf "Machine: access to unallocated address %d" addr)

let page t addr = t.pages.(addr lsr page_bits)
let home t addr = Bytes.get_uint8 (page t addr).meta (addr land page_mask) lsr 1
let dirty t addr = Bytes.get_uint8 (page t addr).meta (addr land page_mask) land 1 <> 0

let set_dirty t addr d =
  Bytes.set_uint8 (page t addr).meta (addr land page_mask)
    ((home t addr lsl 1) lor if d then 1 else 0)

let owner t addr = Bytes.get_uint8 (page t addr).owner (addr land page_mask)
let set_owner t addr c = Bytes.set_uint8 (page t addr).owner (addr land page_mask) c

(* The line's sharer words: index [sharer_base t addr] of [(page t addr).sharers]. *)
let sharer_base t addr = (addr land page_mask) * t.sw

let home_of t addr =
  check_addr t addr;
  home t addr

(* A line falling out of a private cache loses its coherence permissions:
   dirty data is considered written back to the socket LLC. *)
let priv_insert t core addr =
  let victim = Cachebox.add t.priv.(core) addr in
  if victim >= 0 then begin
    Sharers.remove (page t victim).sharers (sharer_base t victim) core;
    if owner t victim = core then set_owner t victim no_owner
  end

let line_bytes = 64

(* An LLC eviction of a modified line streams it back to the DRAM of its
   home node — memory-controller bytes, plus interconnect bytes when the
   evicting socket is not the home. Write-backs are posted (they do not
   delay the access that caused the eviction) but they drain the same
   token buckets, so later fills queue behind them. Only exists when
   bandwidth modeling is on: with [bw:0] the eviction is free, as it
   always was. *)
let llc_insert t ~now sock addr =
  let victim = Cachebox.add t.llc.(sock) addr in
  if victim >= 0 then
    match t.bw with
    | None -> ()
    | Some st ->
        if dirty t victim then begin
          set_dirty t victim false;
          let home = home t victim in
          t.ctr.bw_writebacks <- t.ctr.bw_writebacks + 1;
          ignore (Bwbucket.charge st.mc.(home) ~now ~bytes:line_bytes);
          if home <> sock then
            ignore
              (Bwbucket.charge
                 st.link.(Topology.link_index t.cfg.topo ~src:sock ~dst:home)
                 ~now ~bytes:line_bytes)
        end

(* First other socket whose LLC holds the line, or -1: the transfer
   source for a cross-socket LLC hit. *)
let llc_socket_elsewhere t sock addr =
  let found = ref (-1) in
  for s = 0 to Array.length t.llc - 1 do
    if s <> sock && !found < 0 && Cachebox.mem t.llc.(s) addr then found := s
  done;
  !found

(* Where a miss is served from, as a plain int so the access path
   allocates nothing: a socket number [>= 0] is a cross-socket transfer
   from that socket's cache; the negative codes are the other sources. *)
let src_llc = -1 (* this socket's LLC, or a transfer from a core on it *)
let src_dram = -2 (* DRAM on this socket *)
let src_remote_dram = -3 (* DRAM on another socket *)
let src_upgrade = -4 (* a write to a line this core already shares *)

let fetch_source t ~core ~sock ~addr =
  let o = owner t addr in
  if o <> no_owner && o <> core then begin
    let owner_sock = Topology.socket_of_core t.cfg.topo o in
    if owner_sock = sock then src_llc else owner_sock
  end
  else if Cachebox.mem t.llc.(sock) addr then src_llc
  else begin
    let src = llc_socket_elsewhere t sock addr in
    if src >= 0 then src else if home t addr = sock then src_dram else src_remote_dram
  end

let fetch_cost c src =
  if src >= 0 then c.Costs.llc_remote
  else if src = src_llc then c.Costs.llc_hit
  else if src = src_dram then c.Costs.dram_local
  else if src = src_remote_dram then c.Costs.dram_remote
  else c.Costs.priv_hit

let count_fetch t src =
  let c = t.ctr in
  if src = src_llc then c.llc_hits <- c.llc_hits + 1
  else if src = src_upgrade then c.priv_hits <- c.priv_hits + 1
  else begin
    c.llc_misses <- c.llc_misses + 1;
    if src <> src_dram then c.remote_misses <- c.remote_misses + 1
  end

(* A node's memory controller streams one line every few cycles; fetches
   that reach DRAM queue behind it. A working set homed on one node (the
   default "node local" policy of Table 2) therefore saturates that node,
   while interleaving spreads the load — exactly the paper's observation. *)
let dram_service_cycles = 6

let dram_queue t ~now node =
  let queue = max 0 (t.dram_busy.(node) - now) in
  t.dram_busy.(node) <- max now t.dram_busy.(node) + dram_service_cycles;
  if queue > 0 then t.ctr.dram_queueing <- t.ctr.dram_queueing + 1;
  queue

let charge_mc t st ~now ~bytes node =
  let d = Bwbucket.charge st.mc.(node) ~now ~bytes in
  if d > 0 then t.ctr.bw_mc_queueing <- t.ctr.bw_mc_queueing + 1;
  d

let charge_link t st ~now ~src ~dst =
  let d =
    Bwbucket.charge st.link.(Topology.link_index t.cfg.topo ~src ~dst) ~now ~bytes:line_bytes
  in
  if d > 0 then t.ctr.bw_link_queueing <- t.ctr.bw_link_queueing + 1;
  d

(* Charge the bytes a fetch moves against the buckets they traverse:
   DRAM fills hit the home node's memory controller, cross-socket
   transfers hit the link from the source socket, remote DRAM fills hit
   both (overlapped, so the delay is the max). Returns the queueing delay
   and accumulates it in [last_delay] for {!access_mlp}. *)
let bw_fill t st ~now ~sock addr src =
  let d =
    if src = src_dram then charge_mc t st ~now ~bytes:line_bytes (home t addr)
    else if src = src_remote_dram then
      let home = home t addr in
      max (charge_mc t st ~now ~bytes:line_bytes home) (charge_link t st ~now ~src:home ~dst:sock)
    else if src >= 0 then charge_link t st ~now ~src ~dst:sock
    else 0
  in
  st.last_delay <- st.last_delay + d;
  d

(* The fill's queueing delay: the DRAM service queue with bandwidth
   modeling off, the token buckets with it on. *)
let fill_delay t ~now ~sock addr src =
  match t.bw with
  | None -> if src = src_dram || src = src_remote_dram then dram_queue t ~now (home t addr) else 0
  | Some st -> bw_fill t st ~now ~sock addr src

let invalidation_cost t ~core ~sock ~addr =
  let c = t.cfg.costs in
  let topo = t.cfg.topo in
  let w = (page t addr).sharers and base = sharer_base t addr and o = owner t addr in
  let remote = ref false and local = ref false in
  let s = ref (Sharers.next w base t.sw 0) in
  while !s >= 0 do
    if !s <> core && !s <> o then
      if Topology.socket_of_core topo !s = sock then local := true else remote := true;
    s := Sharers.next w base t.sw (!s + 1)
  done;
  if !remote then c.Costs.inval_remote else if !local then c.Costs.inval_local else 0

let do_invalidate t ~core ~sock ~addr =
  let w = (page t addr).sharers and base = sharer_base t addr and o = owner t addr in
  let s = ref (Sharers.next w base t.sw 0) in
  while !s >= 0 do
    if !s <> core then Cachebox.remove t.priv.(!s) addr;
    s := Sharers.next w base t.sw (!s + 1)
  done;
  if o <> no_owner && o <> core then Cachebox.remove t.priv.(o) addr;
  for s = 0 to Array.length t.llc - 1 do
    if s <> sock then Cachebox.remove t.llc.(s) addr
  done;
  Sharers.clear w base t.sw;
  Sharers.add w base core;
  set_owner t addr core;
  set_dirty t addr true

(* Address translation: the page walk reads page tables homed where the
   page lives, so pointer chases over big remote working sets pay remote
   walks — part of the NUMA penalty DPS's partitioning removes. *)
let tlb_cost t ~core ~sock addr =
  let page = addr lsr 6 in
  if Cachebox.mem t.tlb.(core) page then 0
  else begin
    t.ctr.tlb_misses <- t.ctr.tlb_misses + 1;
    ignore (Cachebox.add t.tlb.(core) page);
    if home t addr = sock then t.cfg.costs.Costs.walk_local else t.cfg.costs.Costs.walk_remote
  end

let access_slow t ~now ~core ~addr ~kind =
  let topo = t.cfg.topo in
  let sock = Topology.socket_of_core topo core in
  check_addr t addr;
  let p = page t addr and i = addr land page_mask in
  let base = i * t.sw in
  let c = t.cfg.costs in
  let ctr = t.ctr in
  ctr.accesses <- ctr.accesses + 1;
  let translation = tlb_cost t ~core ~sock addr in
  let present = Cachebox.mem t.priv.(core) addr in
  match kind with
  | Read ->
      if present && (owner t addr = core || Sharers.mem p.sharers base core) then begin
        ctr.priv_hits <- ctr.priv_hits + 1;
        translation + c.Costs.priv_hit
      end
      else begin
        let src = fetch_source t ~core ~sock ~addr in
        let cost = fetch_cost c src in
        count_fetch t src;
        let bw = fill_delay t ~now ~sock addr src in
        let o = owner t addr in
        if o <> no_owner && o <> core then begin
          (* Dirty remote copy becomes shared. *)
          Sharers.add p.sharers base o;
          set_owner t addr no_owner
        end;
        Sharers.add p.sharers base core;
        priv_insert t core addr;
        llc_insert t ~now sock addr;
        if bw > 0 && Dps_obs.Obs.profiling_on () then begin
          match t.bw with
          | None -> Dps_obs.Obs.note_stall bw
          | Some _ -> Dps_obs.Obs.note_bw_stall bw
        end;
        translation + bw + cost
      end
  | Write | Rmw ->
      let extra = if kind = Rmw then c.Costs.rmw_extra else 0 in
      if present && owner t addr = core then begin
        ctr.priv_hits <- ctr.priv_hits + 1;
        translation + c.Costs.priv_hit + extra
      end
      else begin
        let src =
          if present && Sharers.mem p.sharers base core then src_upgrade
          else fetch_source t ~core ~sock ~addr
        in
        let fetch = fetch_cost c src in
        count_fetch t src;
        let bw = fill_delay t ~now ~sock addr src in
        let inval = invalidation_cost t ~core ~sock ~addr in
        if inval > 0 then ctr.invalidations <- ctr.invalidations + 1;
        do_invalidate t ~core ~sock ~addr;
        priv_insert t core addr;
        llc_insert t ~now sock addr;
        (* Ownership transfers of one line serialize: queue behind any
           transfer still in flight. *)
        let transfer = fetch + inval + extra in
        let wbusy = p.wbusy.(i) in
        let queue = max 0 (wbusy - now) in
        if queue > 0 then ctr.write_queueing <- ctr.write_queueing + 1;
        p.wbusy.(i) <- max now wbusy + transfer;
        if Dps_obs.Obs.profiling_on () then begin
          match t.bw with
          | None -> if bw + queue > 0 then Dps_obs.Obs.note_stall (bw + queue)
          | Some _ ->
              if queue > 0 then Dps_obs.Obs.note_stall queue;
              if bw > 0 then Dps_obs.Obs.note_bw_stall bw
        end;
        translation + bw + queue + transfer
      end

let access t ~now ~thread ~addr ~kind =
  let core = Topology.core_of_thread t.cfg.topo thread in
  (* Host-speed fast path for the overwhelmingly common case: a read of a
     line already in this core's private cache with a warm TLB entry.
     Presence in the private box implies the core is a sharer or the owner
     (inserts always follow a share/invalidate that sets the bit; evictions
     and invalidations drop the box entry and the bit together), so the
     slow path would charge exactly [priv_hit] with translation 0 and
     mutate nothing. Both [Cachebox.mem] calls are pure, so stats, costs
     and the eviction PRNG stream are untouched — benchmark output is
     bit-identical, only host time changes. *)
  if kind = Read && Cachebox.mem t.priv.(core) addr && Cachebox.mem t.tlb.(core) (addr lsr 6)
  then begin
    let ctr = t.ctr in
    ctr.accesses <- ctr.accesses + 1;
    ctr.priv_hits <- ctr.priv_hits + 1;
    t.cfg.costs.Costs.priv_hit
  end
  else access_slow t ~now ~core ~addr ~kind

(* Pipelined access for streaming code (memory-level parallelism): the
   latency portion divides by [factor], but the bandwidth-bucket portion
   does not — overlapping requests hides latency, it cannot create
   bytes-per-cycle. With bandwidth off this is exactly the historical
   [max 1 (cost / factor)]. *)
let access_mlp t ~now ~thread ~addr ~kind ~factor =
  match t.bw with
  | None -> max 1 (access t ~now ~thread ~addr ~kind / factor)
  | Some st ->
      st.last_delay <- 0;
      let cost = access t ~now ~thread ~addr ~kind in
      let bwd = min st.last_delay cost in
      max 1 ((cost - bwd) / factor) + bwd

(* NIC DDIO traffic: packet payload streamed by a DMA engine drains the
   socket's memory-controller bucket like any other memory traffic, so
   network and application bandwidth honestly contend. Returns the
   queueing delay; 0 (and no accounting) when bandwidth modeling is off. *)
let bw_charge_dma t ~now ~socket ~bytes =
  match t.bw with
  | None -> 0
  | Some st ->
      t.ctr.bw_dma_bytes <- t.ctr.bw_dma_bytes + bytes;
      charge_mc t st ~now ~bytes socket

let bw_enabled t = t.bw <> None

type bw_snapshot = {
  mc_bytes : int array;  (* per socket *)
  mc_queue_cycles : int array;
  link_bytes : int array array;  (* [src].(dst); diagonal 0 *)
  link_queue_cycles : int array array;
  writebacks : int;
}

let bw_snapshot t =
  match t.bw with
  | None -> None
  | Some st ->
      let topo = t.cfg.topo in
      let n = topo.Topology.sockets in
      let link_bytes = Array.make_matrix n n 0 in
      let link_queue_cycles = Array.make_matrix n n 0 in
      Array.iteri
        (fun i b ->
          let src, dst = Topology.link_ends topo i in
          link_bytes.(src).(dst) <- Bwbucket.bytes b;
          link_queue_cycles.(src).(dst) <- Bwbucket.queue_cycles b)
        st.link;
      Some
        {
          mc_bytes = Array.map Bwbucket.bytes st.mc;
          mc_queue_cycles = Array.map Bwbucket.queue_cycles st.mc;
          link_bytes;
          link_queue_cycles;
          writebacks = t.ctr.bw_writebacks;
        }

let interconnect_bytes t =
  match t.bw with
  | None -> 0
  | Some st -> Array.fold_left (fun acc b -> acc + Bwbucket.bytes b) 0 st.link

let set_active t ~thread v = t.active.(thread) <- v

let work_cost t ~thread n =
  match Topology.sibling_of_thread t.cfg.topo thread with
  | Some sib when t.active.(sib) -> n * 8 / 5
  | Some _ | None -> n

let cycles_to_seconds t cycles = float_of_int cycles /. (t.cfg.topo.Topology.ghz *. 1e9)

let register_obs t reg =
  let gauges counters =
    List.iter
      (fun (name, get) ->
        Dps_obs.Registry.gauge_fn reg ~help:("machine model counter " ^ name)
          ("machine." ^ name)
          (fun () -> float_of_int (get t.ctr)))
      counters
  in
  gauges core_counters;
  match t.bw with
  | None -> ()
  | Some st ->
      gauges bw_counters;
      Array.iteri
        (fun s b ->
          let labels = [ ("socket", string_of_int s) ] in
          Dps_obs.Registry.gauge_fn reg ~labels ~help:"memory-controller bytes charged"
            "machine.bw_mc_bytes"
            (fun () -> float_of_int (Bwbucket.bytes b));
          Dps_obs.Registry.gauge_fn reg ~labels ~help:"cycles spent queued on the memory controller"
            "machine.bw_mc_queue_cycles"
            (fun () -> float_of_int (Bwbucket.queue_cycles b));
          Dps_obs.Registry.gauge_fn reg ~labels
            ~help:"memory-controller occupancy, 0 (idle) to 1 (token debt)"
            "machine.bw_mc_occupancy"
            (fun () ->
              let tokens = float_of_int (Bwbucket.tokens b) in
              let burst = float_of_int (Bwbucket.burst b) in
              Float.max 0. (Float.min 1. (1. -. (tokens /. burst)))))
        st.mc;
      Array.iteri
        (fun i b ->
          let src, dst = Topology.link_ends t.cfg.topo i in
          let labels = [ ("src", string_of_int src); ("dst", string_of_int dst) ] in
          Dps_obs.Registry.gauge_fn reg ~labels ~help:"interconnect-link bytes charged"
            "machine.bw_link_bytes"
            (fun () -> float_of_int (Bwbucket.bytes b));
          Dps_obs.Registry.gauge_fn reg ~labels ~help:"cycles spent queued on the link"
            "machine.bw_link_queue_cycles"
            (fun () -> float_of_int (Bwbucket.queue_cycles b)))
        st.link
