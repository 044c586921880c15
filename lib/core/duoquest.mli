(** The Duoquest system facade (Section 4).

    A {!session} packages a database with its inverted column index (the
    autocomplete substrate) and the relation caches of the runs on it:
    one {!Duoengine.Executor.relation_cache} per domain that synthesizes
    on the session, so joined relations and join-key indexes one run
    built serve every later run on that database — as a database
    server's buffer pool stays warm across a user's queries.  The caches
    never change a result (entries are stamped with their tables' row
    counts) and are kept for the session's lifetime.

    {!synthesize} consumes the dual specification — an NLQ plus an
    optional TSQ — and streams ranked candidate queries, exactly the
    Enumerator + Verifier micro-service pair of Figure 3.

    The [mode] argument selects the paper's systems:
    - [`Duoquest] — GPQE with guidance and partial-query pruning;
    - [`Nli] — guided enumeration with no TSQ (the SyntaxSQLNet-style
      baseline; the TSQ argument is ignored);
    - [`No_guide] — uniform enumeration, TSQ pruning kept (ablation);
    - [`No_pq] — guidance kept, but only complete queries verified
      (the chaining baseline of Section 3.5). *)

type session

val create_session : Duodb.Database.t -> session
val session_db : session -> Duodb.Database.t
val session_index : session -> Duodb.Index.t

(** The session's relation caches, one per domain that has prepared a
    run on it (Duoserve's [stats] sums their counters).  A cache's
    counters are cumulative over every run on its domain; a run's own
    share is in its {!Enumerate.outcome} stats. *)
val session_relcaches : session -> Duoengine.Executor.relation_cache list

type mode =
  [ `Duoquest
  | `Nli
  | `No_guide
  | `No_pq
  ]

val mode_name : mode -> string

(** [synthesize session ~nlq ()] runs query synthesis.

    - [literals]: the tagged literal set [L]; extracted from the NLQ's
      quoted spans and numbers when omitted.
    - [tsq]: the table sketch query; omitting it (or passing [`Nli]) makes
      the run single-specification.
    - [config]: enumeration budgets (see {!Enumerate.config}).
    - [pool]: accepted and ignored; a run is always the sequential
      committing loop on the calling domain.
    - [on_candidate]: streaming callback, as the front-end displays
      candidates one at a time. *)
val synthesize :
  ?config:Enumerate.config ->
  ?mode:mode ->
  ?tsq:Tsq.t ->
  ?literals:Duodb.Value.t list ->
  ?pool:Duopar.Pool.t ->
  ?on_candidate:(Enumerate.candidate -> unit) ->
  session ->
  nlq:string ->
  unit ->
  Enumerate.outcome

(** [prepare] is {!synthesize} stopped before the first enumeration step:
    it analyzes the NLQ, builds the guidance context and returns the
    paused {!Enumerate.state}.  The run verifies against the calling
    domain's relation cache of [session], so the state must be stepped
    on the domain that prepared it.  Duoserve sessions are built on
    this — the server time-slices many prepared states with
    {!Enumerate.step}. *)
val prepare :
  ?config:Enumerate.config ->
  ?mode:mode ->
  ?tsq:Tsq.t ->
  ?literals:Duodb.Value.t list ->
  ?on_candidate:(Enumerate.candidate -> unit) ->
  session ->
  nlq:string ->
  unit ->
  Enumerate.state

(** 1-based rank of the gold query among the candidates (by
    {!Duolint.Duosem.equal_queries} — canonical-form equality, so a
    candidate spelling the gold's predicates in another equivalent way
    still counts), or [None]. *)
val rank_of : Enumerate.outcome -> gold:Duosql.Ast.query -> int option

(** First [k] candidates in emission order. *)
val top_k : Enumerate.outcome -> int -> Enumerate.candidate list
