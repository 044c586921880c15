(** Best-first frontier for Algorithm 1: a binary min-heap ordered by
    {!Partial.compare_priority} (highest confidence first, then shorter join
    paths, then insertion order for determinism).  The priority keys are
    kept unboxed beside the states, so a push allocates nothing.

    An expansion's children can wait as one {e run} ({!push_run}): their
    keys, and one builder.  A run child is built, and meets the
    frontier's [admit] test, only when it reaches the top, so the pops
    are those of pushing every child that [admit] takes at push time. *)

type t

(** [create ?cap ?admit ()] — when a state arrives with [cap] states
    queued, the frontier is compacted to its best [cap/2] entries
    (bounded best-first search: a memory guard, the only deviation from
    complete enumeration, and only under extreme fan-out).  [admit]
    decides whether a run child, once built, is queued (the enumerator's
    visited set); default: every child.  Default [cap]: unbounded. *)
val create : ?cap:int -> ?admit:(Partial.t -> bool) -> unit -> t

(** States discarded by compaction so far. *)
val dropped : t -> int

(** Number of states currently queued, each unbuilt run child counted
    as one. *)
val size : t -> int

(** Whether no state is left.  Reaches run heads first (see {!pop}), so
    a [false] means the next {!pop} returns a state. *)
val is_empty : t -> bool

(** [push t pq] enqueues a state, stamping it with an insertion sequence
    number. *)
val push : t -> Partial.t -> unit

(** [push_run ?order t ~conf ~jlen build] enqueues the children [build 0
    .. build (n-1)], [n = Array.length conf], under confidences [conf]
    and join lengths [jlen] (which must be the children's own),
    reserving [n] consecutive sequence numbers in index order.  [order],
    a permutation of the child indices, is used as the run's best-first
    order when an O(n) check finds it is that order (confidence
    descending, then join length, then index); otherwise, or without
    it, the indices are sorted.  It is kept, not copied, and must not be
    mutated.  No child is built here unless the run could meet the cap:
    then every queued run's remaining children and these are built and
    admitted, in sequence order, and the cap applies to them as to
    pushed states. *)
val push_run :
  ?order:int array ->
  t ->
  conf:float array ->
  jlen:int array ->
  (int -> Partial.t) ->
  unit

(** Remove and return the highest-priority state.  A run child that
    reaches the top is built and meets [admit] first; one that [admit]
    refuses is discarded and the next entry is reached. *)
val pop : t -> Partial.t option

(** [settle t pq] re-inserts the state the last {!pop} returned as [pq]
    (the enumerator's lazy warning penalty lowers its confidence) under
    that pop's join length and sequence number, so it keeps its place
    among ties, marked settled.  Only after a pop that returned a state. *)
val settle : t -> Partial.t -> unit

(** Whether the state the last {!pop} returned went in through
    {!settle}. *)
val settled : t -> bool

(** States admitted so far: every {!push}, and every run child [admit]
    took. *)
val pushed : t -> int
