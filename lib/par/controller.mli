(** Adaptive speculation controller for the Duopar rounds (Duopar v2).

    Decides how many frontier states the enumerator speculates per pool
    round.  The law is AIMD over an EWMA of the per-round {e commit
    rate} (speculative results actually consumed by a pop): a high rate
    grows the round additively by the domain count, a low rate halves
    it, and the floor of 1 degenerates to the sequential loop — a
    floor-sized round carries only the state the committing loop is
    about to pop.

    The controller reads nothing but task/hit counts, which are
    themselves deterministic, so its size sequence is reproducible; and
    since speculation never decides results (the sequential committing
    loop does), {e any} size sequence — adaptive, fixed, or adversarial
    via [schedule] — yields bit-identical candidates (property-tested:
    "adaptive determinism"). *)

type t

(** [create ~domains ()] starts at size [4 * domains] with
    [floor = 1] and [ceiling = 8 * domains].
    [schedule] is a test hook: it forces round [i]'s size to
    [schedule i] (clamped to [floor, ceiling]), replacing the AIMD law
    while keeping all accounting. *)
val create :
  ?schedule:(int -> int) -> ?floor:int -> ?ceiling:int -> domains:int ->
  unit -> t

(** Current round size. *)
val size : t -> int

(** EWMA of the per-round commit rate ([1.0] before the first sample). *)
val ewma : t -> float

val rounds : t -> int

(** Additive-increase decisions taken so far. *)
val grows : t -> int

(** Multiplicative-decrease decisions taken so far. *)
val shrinks : t -> int

(** [begin_round t ~hits] closes the books on the previous round —
    [hits] is the {e cumulative} committed-speculation count, so the
    delta against the last call is the previous round's sample — adapts
    the size, and returns the size to use for the round now starting. *)
val begin_round : t -> hits:int -> int

(** [launched t ~tasks] records how many tasks the round just launched
    actually carried (states already memoized or complete are filtered
    out, so this can be below the size {!begin_round} returned). *)
val launched : t -> tasks:int -> unit

(** One raw AIMD transition from a (tasks, hits) sample — the law
    {!begin_round} applies, exposed so unit tests can pin it on
    synthetic commit-rate traces. *)
val observe : t -> tasks:int -> hits:int -> unit
