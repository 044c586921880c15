(** Duopar: a fixed pool of worker domains for batch-parallel rounds.

    Built on the OCaml 5 stdlib only ([Domain], [Mutex], [Condition],
    [Atomic]) — no external dependencies.  The pool serves coarse
    sharding: workload generation and whole synthesis runs in the bench
    and simulation harnesses, where each task carries everything mutable
    it needs and results merge by index, so determinism is trivial.

    Concurrency contract:
    - {!run} is a {e barrier}: it returns only after every task of the
      round has finished.  Between rounds the worker domains block on a
      condition variable.
    - The calling domain participates in every round as worker [0];
      worker ids [1 .. domains-1] are the spawned domains.  Tasks are
      claimed from a shared [Atomic] counter (work stealing), so the
      mapping from task index to worker is {e not} deterministic — tasks
      must not communicate through anything keyed by worker id.
    - At most one round may be in flight per pool; {!run} must only be
      called from the domain that created the pool, and never from
      inside a task.

    Worker domains start on the first round with more than one task, not
    at {!create}: an OCaml 5 minor collection stops every running domain,
    parked ones included, so a pool that is created but never runs a
    multi-task round must not slow its process down.  A pool with
    [domains = 1], and any round of one task, runs inline on the caller
    as a plain [for] loop. *)

type t

(** [create ~domains] sizes a pool of [domains] (clamped to [1 .. 64])
    without starting any domain; the first {!run} of more than one task
    spawns the [domains - 1] workers.  The caller's domain is worker
    [0]. *)
val create : domains:int -> t

(** Number of domains participating in rounds (workers + caller). *)
val domains : t -> int

(** Worker domains started and not yet joined: [0] until the first
    round of more than one task, [domains - 1] from then until
    {!shutdown}. *)
val started : t -> int

(** [run t n f] executes [f ~worker i] for every [i] in [0 .. n-1],
    distributing tasks across all domains, and returns when all have
    completed.  [worker] identifies the executing domain
    ([0 .. domains-1]) so tasks can index per-domain state.  If any task
    raises, the first exception (by completion order) is re-raised on
    the caller after the round completes; the remaining tasks still
    run. *)
val run : t -> int -> (worker:int -> int -> unit) -> unit

(** Stop and join all worker domains (if any started).  The pool must
    be idle (no round in flight).  Idempotent; a later {!run} executes on
    the caller alone. *)
val shutdown : t -> unit

(** [with_pool ~domains f] runs [f] with a fresh pool and shuts it down
    afterwards, even if [f] raises. *)
val with_pool : domains:int -> (t -> 'a) -> 'a
