(** One Duoserve synthesis session: a dual specification (NLQ + optional
    TSQ) bound to a database, carrying its resumable
    {!Duocore.Enumerate.state}.

    The server time-slices sessions cooperatively with {!step}; by
    resume determinism (see {!Duocore.Enumerate.step}) the interleaving
    never changes a session's results, so concurrent sessions cannot
    interfere.  The wall-clock budget charges only active stepping time
    — a session preempted by its neighbours is not billed for waiting.

    {!refine} implements the paper's interaction loop (Figure 1)
    incrementally: when the new sketch is a {!Duocore.Tsq.Tightening} of
    the previous one, the running enumeration is warm-restarted in place
    via {!Duocore.Enumerate.rebase} — the emitted candidates are
    re-checked, frontier states meet the new sketch when they are
    popped, everything already pruned stays pruned (stage monotonicity),
    and subsequent steps emit exactly what a from-root run under the new
    sketch would.  [Incomparable] edits (or a refine after cancel) fall
    back to a from-root restart.  Either way the wall-clock budget is
    cumulative across refinements; the pop budget is per refinement. *)

type status =
  | Running
  | Finished
  | Cancelled
  | Failed of string  (** a step or a request raised; the reason *)

val status_name : status -> string

type t

val sid : t -> int
val db_name : t -> string
val nlq : t -> string
val status : t -> status

(** Slices this session has been stepped, and times it was refined. *)
val slices : t -> int

val refinements : t -> int

(** Refinements served by the warm {!Duocore.Enumerate.rebase} path
    (the rest fell back to a from-root restart). *)
val rebased : t -> int

(** [create ~sid ~db_name ~config duo params] admits the session and
    prepares its enumeration (paused before the first pop).  [config] is
    the already-clamped per-session budget.  Runs share [duo]'s relation cache for the server's
    domain with every other session on that database. *)
val create :
  sid:int ->
  db_name:string ->
  config:Duocore.Enumerate.config ->
  nlq:string ->
  ?tsq:Duocore.Tsq.t ->
  ?literals:Duodb.Value.t list ->
  Duocore.Duoquest.session ->
  t

(** Advance a [Running] session by at most [max_pops] frontier pops; a
    no-op otherwise. *)
val step : max_pops:int -> t -> unit

(** Replace the TSQ: warm-restart via {!Duocore.Enumerate.rebase} on a
    tightening edit, from-root (with the elapsed time re-charged)
    otherwise.  The session returns to [Running] — or directly to
    [Finished] when the carried candidates already fill the budget. *)
val refine : t -> Duocore.Tsq.t -> unit

(** Stop enumerating and release the enumeration state.  The outcome
    snapshot stays readable until {!close}. *)
val cancel : t -> unit

(** Results so far — callable in any status.  A session with no state
    and no snapshot reports a fresh all-zero outcome (a new record per
    call — outcomes carry mutable stats). *)
val outcome : t -> Duocore.Enumerate.outcome

(** [fail s reason] marks the session [Failed] and drops its enumeration
    state and snapshot unread.  The server calls it when stepping or
    serving the session raised. *)
val fail : t -> string -> unit

(** Release everything.  A [Finished] session keeps that status for the
    books; a [Running] one is marked [Cancelled].  The session must not
    be used afterwards. *)
val close : t -> unit
