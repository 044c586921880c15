(** Best-first frontier for Algorithm 1: a binary min-heap ordered by
    {!Partial.compare_priority} (highest confidence first, then shorter join
    paths, then insertion order for determinism).  The priority keys are
    kept unboxed beside the states, so a push allocates nothing.

    An expansion's children wait as one {e run} ({!push_run}): their
    keys, and one builder.  A run child is built, and meets the
    frontier's [admit] test, only when it reaches the top, so the pops
    are those of pushing every child that [admit] takes at push time.
    A pre-admitted run carries its own admission: its children were
    built and admitted before the push, and [admit] never sees them.
    A reached child is held outside the heap until it is popped. *)

type t

(** [create ?cap ?admit ()] — when a state arrives with [cap] states
    queued, the frontier is compacted to its best [cap/2] entries
    (bounded best-first search: a memory guard, the only deviation from
    complete enumeration, and only under extreme fan-out).  [admit]
    decides whether a child of a run that is not pre-admitted, once
    built, is queued (the enumerator's visited set); default: every
    child.  Default [cap]: unbounded. *)
val create : ?cap:int -> ?admit:(Partial.t -> bool) -> unit -> t

(** States discarded by compaction so far. *)
val dropped : t -> int

(** Number of states currently queued, each unbuilt run child counted
    as one. *)
val size : t -> int

(** Whether no state is left.  Reaches run heads first (see {!pop}),
    holding the first child a run takes outside the heap, so a [false]
    means the next {!pop} returns a state: the held child, when no
    entry is inserted in between (an insertion puts it back under its
    keys). *)
val is_empty : t -> bool

(** [push t pq] enqueues a state, stamping it with an insertion sequence
    number: the enumerator's root.  Children go in through {!push_run},
    and a popped state goes back through {!settle}. *)
val push : t -> Partial.t -> unit

(** [push_run ?order ?admitted t ~conf ~jlen build] enqueues the
    children [build 0 .. build (n-1)], [n = Array.length conf], under
    confidences [conf] and join lengths [jlen] (which must be the
    children's own),
    reserving [n] consecutive sequence numbers in index order.  [order],
    a permutation of the child indices, is used as the run's best-first
    order when an O(n) check finds it is that order (confidence
    descending, then join length, then index); without it the check
    runs on index order.  When the check fails the indices are
    sorted.  It is kept, not copied, and must not be
    mutated.  No child is built here unless the run could meet the cap:
    then every queued run's remaining children and these are built and
    admitted, in sequence order, and the cap applies to them as to
    pushed states.  With [admitted] (default [false]) the children are
    already built and admitted: [build] only returns them, they count
    in {!pushed} here, and they never meet [admit]. *)
val push_run :
  ?order:int array ->
  ?admitted:bool ->
  t ->
  conf:float array ->
  jlen:int array ->
  (int -> Partial.t) ->
  unit

(** Remove and return the highest-priority state: the held child, if
    {!is_empty} left one.  A run child that reaches the top is built
    and meets [admit] first (unless its run is pre-admitted); one that
    [admit] refuses is discarded and the next entry is reached. *)
val pop : t -> Partial.t option

(** [settle t pq] re-inserts the state the last {!pop} returned as [pq]
    (the enumerator's lazy warning penalty lowers its confidence) under
    that pop's join length and sequence number, so it keeps its place
    among ties, marked settled.  Only after a pop that returned a state. *)
val settle : t -> Partial.t -> unit

(** Whether the state the last {!pop} returned went in through
    {!settle}. *)
val settled : t -> bool

(** States admitted so far: every {!push}, every child of a
    pre-admitted run, and every other run child [admit] took. *)
val pushed : t -> int
