(** Best-first frontier for Algorithm 1: a binary min-heap ordered by
    {!Partial.compare_priority} (highest confidence first, then shorter join
    paths, then insertion order for determinism).  The priority keys are
    kept unboxed beside the states, so a push allocates nothing. *)

type t

(** [create ?cap ()] — when more than [cap] states are queued, the frontier
    is compacted to its best [cap/2] entries (bounded best-first search: a
    memory guard, the only deviation from complete enumeration, and only
    under extreme fan-out). Default: unbounded. *)
val create : ?cap:int -> unit -> t

(** States discarded by compaction so far. *)
val dropped : t -> int

(** Number of states currently queued. *)
val size : t -> int

val is_empty : t -> bool

(** [push t pq] enqueues a state, stamping it with an insertion sequence
    number. *)
val push : t -> Partial.t -> unit

(** Remove and return the highest-priority state. *)
val pop : t -> Partial.t option

(** [settle t pq] re-inserts the state the last {!pop} returned as [pq]
    (the enumerator's lazy warning penalty lowers its confidence) under
    that pop's join length and sequence number, so it keeps its place
    among ties, marked settled.  Only after a pop that returned a state. *)
val settle : t -> Partial.t -> unit

(** Whether the state the last {!pop} returned went in through
    {!settle}. *)
val settled : t -> bool

(** Total states ever pushed (the sequence counter). *)
val pushed : t -> int
