(** A capacity-bounded set of cache-line addresses with O(1) random
    eviction — the container behind each private cache and each LLC.

    Random replacement approximates LRU well enough to reproduce capacity
    misses (the property the paper's figures depend on) at a fraction of the
    bookkeeping cost. *)

type t

val create : capacity:int -> Dps_simcore.Prng.t -> t
val capacity : t -> int
val size : t -> int
val mem : t -> int -> bool

val add : t -> int -> int
(** Insert an address. If the box was full, returns the evicted address
    (never the one just inserted); otherwise [-1]. No-op (returning [-1])
    if present. Addresses are non-negative, so [-1] is never a victim;
    an int rather than an option keeps the miss path allocation-free. *)

val remove : t -> int -> unit
