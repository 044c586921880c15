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

(** Total states ever pushed (the sequence counter). *)
val pushed : t -> int

(** A caller-owned batch of states with their sequence numbers. *)
type buffer

(** [buffer n] holds up to [n] entries. *)
val buffer : int -> buffer

(** The state in slot [i]. *)
val buffer_state : buffer -> int -> Partial.t

(** [pop_entries_into t buf k] removes up to [k] states (at most the
    buffer's size) in priority order — exactly the states [k] successive
    {!pop} calls would return — into slots [0 .. n-1] with each state's
    insertion sequence number, and returns [n].  A batch that was only
    {e inspected} can be put back verbatim with {!restore_array}.
    Allocates nothing. *)
val pop_entries_into : t -> buffer -> int -> int

(** [restore_array t buf n] re-inserts slots [0 .. n-1] with their
    original sequence numbers, clearing each slot so the buffer does not
    retain states.  Does not advance the {!pushed}
    counter, so a pop-and-restore round leaves priority order,
    tie-breaking and accounting exactly as if it never happened.
    (Restoring into a frontier past its cap still triggers compaction,
    like any insert.) *)
val restore_array : t -> buffer -> int -> unit

(** [filter t keep] drops every queued state for which [keep] is false,
    in place, and returns how many it dropped.  [keep] sees the states
    in priority order.  The survivors keep their sequence numbers, so the
    result pops exactly like popping everything with
    {!pop_entries_into} and restoring the kept entries; neither
    {!pushed} nor {!dropped} moves. *)
val filter : t -> (Partial.t -> bool) -> int
