(** Fixed-capacity mutable bitsets.

    Used for cache-coherence sharer sets (one bit per core). Capacity is
    fixed at creation; indices outside [0, capacity) are programming errors
    and trip an assertion. *)

type t

val create : int -> t
(** [create n] is an empty set over universe [0..n-1]. *)

val capacity : t -> int
val add : t -> int -> unit
val remove : t -> int -> unit
val mem : t -> int -> bool
val clear : t -> unit
val cardinal : t -> int
val is_empty : t -> bool

val iter : (int -> unit) -> t -> unit
(** Iterate set members in increasing order. *)

val next : t -> int -> int
(** [next t i] is the smallest member [>= i], or [-1] if there is none
    (also when [i >= capacity t]). Allocation-free, unlike {!iter} with a
    capturing closure: walk a set with
    [let s = ref (next t 0) in while !s >= 0 do ...; s := next t (!s + 1) done]. *)

val fold : ('a -> int -> 'a) -> 'a -> t -> 'a

val exists : (int -> bool) -> t -> bool

val singleton_or_empty : t -> int option
(** [Some i] if the set is exactly [{i}]; [None] otherwise (empty or >1). *)
