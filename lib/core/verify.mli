(** Ascending-cost cascading verification (Section 3.4, Algorithm 3).

    Stages run cheapest-first and prune a partial query as early as its
    decided parts contradict the TSQ:

    + [VerifyStatic] — Duolint stage 0: schema/type errors, unsatisfiable
      predicates and broken structure on decided clauses (no database
      access, no TSQ needed);
    + [VerifyClauses] — clause presence vs the sketch's sorted flag and
      limit (no database access);
    + [VerifyCardinality] — Duosem's abstract row-count upper bound vs
      the sketch's required tuple count (schema only);
    + [VerifySemantics] — the Table 4 rules on decided parts (no database
      access);
    + [VerifyColumnTypes] — projection types vs the sketch's type
      annotations (schema only);
    + [VerifyByColumn] — column-wise existence probes, one per decided
      projection and example cell (cheap single-table queries, cached);
    + [VerifyByRow] — row-wise probes requiring example cells to co-occur
      in one tuple; for aggregated projections this waits until WHERE and
      GROUP BY are complete ([CanCheckRows]);
    + for complete queries — [VerifyLiterals] (all tagged NLQ literals
      appear in the query) and the full Definition 2.4 satisfaction check
      (which subsumes [VerifyByOrder]).

    All stages are {e monotone}: a stage that fails on a partial query also
    fails on every completion of it, so pruning never discards a prefix of
    a satisfying query (property-tested in the suite). *)

(** The cascade's stages, cheapest first.  [stats.stage_seconds] is
    indexed by {!stage_index}; {!all_stages} fixes the report order. *)
type stage =
  | S_static
  | S_clauses
  | S_cardinality
  | S_semantics
  | S_types
  | S_column
  | S_row
  | S_complete

val all_stages : stage list
val stage_index : stage -> int
val stage_name : stage -> string

type stats = {
  mutable column_probes : int;  (** column-wise verification queries run *)
  mutable index_probes : int;
      (** column probes answered by the inverted index, no scan *)
  mutable row_probes : int;  (** row-wise verification queries run *)
  mutable full_executions : int;  (** complete-query executions *)
  mutable relcache_hits : int;  (** joined relations served from cache *)
  mutable pushdown_builds : int;
      (** relations built with predicates pushed into base scans *)
  mutable join_index_builds : int;
      (** join-key indexes built by the relation cache (first use of an
          attached column, or its table grew since) *)
  mutable join_index_hits : int;
      (** join steps served by an already-built join-key index *)
  mutable pruned : int;  (** states rejected by any stage *)
  mutable pruned_by_static : int;
  mutable pruned_by_clauses : int;
  mutable pruned_by_cardinality : int;
      (** states whose Duosem row-count upper bound is below the
          sketch's required tuple count *)
  mutable pruned_by_semantics : int;
  mutable pruned_by_types : int;
  mutable pruned_by_column : int;
  mutable pruned_by_row : int;
  mutable pruned_by_complete : int;
  mutable dedup_semantic : int;
      (** enumerator pushes/emissions suppressed because a
          Duosem-canonically-equal state or candidate was already seen *)
  mutable visited_hits : int;
      (** enumerator pushes suppressed because a state with the same
          {!Partial.key} was already admitted *)
  mutable canon_checked : int;
      (** admitted states looked up in the canonical layer
          ({!Partial.canonical_key} rendered); states without WHERE or
          HAVING predicates skip it *)
  mutable key_renders : int;
      (** {!Partial.key} strings rendered by the visited set's equality
          fallback (hash-equal states that are not structurally equal) *)
  mutable static_warnings : int;
      (** Duolint warnings used to deprioritize frontier pushes *)
  mutable batch_rounds : int;
      (** {!verify_batch} rounds that executed at least one row probe *)
  mutable batched_probes : int;
      (** row probes served by a shared base scan inside a batch round *)
  mutable stage_seconds : float array;
      (** processor time per cascade stage, indexed by {!stage_index} *)
}

val new_stats : unit -> stats

(** Zero every counter of [s] in place (including [stage_seconds]).
    Lets the Duopar task arenas recycle one stats record per task slot
    across rounds instead of allocating fresh records. *)
val reset_stats : stats -> unit

(** Per-stage prune counter, by the same enum that indexes
    [stage_seconds]. *)
val pruned_by : stats -> stage -> int

(** [merge_stats ~into s] adds every counter of [s] into [into]
    (elementwise for [stage_seconds]).  The Duopar loop runs each
    speculative verification task against a private stats record and
    merges it into the run's totals only when the task's state is
    committed, so parallel prune counts match the sequential run
    exactly.  Note [relcache_hits]/[pushdown_builds] and the
    [join_index_*] mirrors are summed too —
    callers must ensure each merged record carries only its own
    relation cache's numbers. *)
val merge_stats : into:stats -> stats -> unit

(** Process-wide count of cascade invocations ({!verify} +
    {!check_static}) across all domains and runs — the one globally
    shared counter, backed by an [Atomic].  Monotone; callers interested
    in a single run take a delta. *)
val total_verifies : unit -> int

(** A verification environment: database, sketch, tagged literals, probe
    cache and counters. *)
type env

(** [semantics = false] disables the Table 4 rules and [static = false]
    disables Duolint stage 0 (both for the ablation bench); default
    [true].  [index] supplies a prebuilt inverted index for column probes
    (sessions already hold one); without it the index is built lazily on
    first text probe.  [relcache] shares a relation cache across
    environments — sound only while the database is not mutated. *)
val make_env :
  ?stats:stats ->
  ?semantics:bool ->
  ?static:bool ->
  ?index:Duodb.Index.t ->
  ?relcache:Duoengine.Executor.relation_cache ->
  db:Duodb.Database.t ->
  tsq:Tsq.t option ->
  literals:Duodb.Value.t list ->
  unit ->
  env

val stats : env -> stats

(** The environment's relation cache (per-domain in parallel runs), for
    aggregating {!Duoengine.Executor.cache_stats} across domains. *)
val relcache : env -> Duoengine.Executor.relation_cache

(** [fork_env env] builds a per-domain clone for Duopar workers: the
    database, TSQ, literals and the (forced) inverted index are shared —
    all immutable during synthesis — while every mutable part (probe
    caches, relation cache, stats, Duolint prepared tables with their
    one-slot memos) is private to the clone.  Caches only memoize pure
    probe results, so which domain answers a probe can never change a
    verdict. *)
val fork_env : env -> env

(** [with_stats env s] is [env] with [s] as its stats sink; caches are
    shared with [env].  Used to give each speculative task a private
    record that is merged (or discarded) at commit time. *)
val with_stats : env -> stats -> env

(** [set_stats env s] retargets [env]'s stats sink at [s] in place — the
    zero-allocation counterpart of {!with_stats}.  Only safe from the
    domain that owns [env]; Duopar workers each own a {!fork_env} clone,
    so retargeting between arena tasks never races. *)
val set_stats : env -> stats -> unit

(** [verify env pq] is Algorithm 3's [Verify]: true when the partial query
    survives every applicable stage. *)
val verify : env -> Partial.t -> bool

(** [verify_batch env children] runs the cascade over a sibling set (the
    children of one expansion) and returns each child with its verdict,
    in order.  Verdicts, prune counters and probe counts are exactly
    those of calling {!verify} on each child in sequence; the difference
    is purely executional — the uncached row probes of the surviving
    children are deduplicated and executed through one
    {!Duoengine.Executor.run_batch} call, so candidates probing the same
    base table share a single scan ([stats.batch_rounds] /
    [stats.batched_probes] report the activity). *)
val verify_batch : env -> Partial.t list -> (Partial.t * bool) list

(** Project an enumerator state into Duolint's open-world clause view.
    Finality flags are conservative: set only when no later decision can
    change the clause (FROM only on complete states — join-path
    construction replaces it wholesale). *)
val outline_of_partial : Partial.t -> Duolint.Outline.t

(** Individual stages, exposed for tests and the cascade-order ablation. *)
val verify_static : env -> Partial.t -> bool

(** [verify_static] with time and prunes attributed to stage 0 — the
    frontier-side entry point for the enumerator, so statically dead
    children are rejected before they are pushed. *)
val check_static : env -> Partial.t -> bool

(** Duolint warning count on the state's decided clauses, accumulated
    into [stats.static_warnings]; the enumerator uses it to deprioritize
    (never prune) suspicious states. *)
val static_warnings : env -> Partial.t -> int

(** Stage-0 errors on a complete query (also enforced inside
    {!verify_complete} so partial-query pruning stays monotone). *)
val verify_static_query : env -> Duosql.Ast.query -> bool

val verify_clauses : env -> Partial.t -> bool

(** Duosem stage: prunes when the state's abstract row-count upper bound
    ({!Duolint.Duosem.bound} over {!outline_of_partial}) is strictly
    below the sketch's required tuple count.  Monotone because the bound
    only tightens as more clauses are decided. *)
val verify_cardinality : env -> Partial.t -> bool

val verify_semantics : env -> Partial.t -> bool
val verify_column_types : env -> Partial.t -> bool
val verify_by_column : env -> Partial.t -> bool

(** Returns true when row-wise checking is allowed on this state
    ([CanCheckRows]). *)
val can_check_rows : Partial.t -> bool

val verify_by_row : env -> Partial.t -> bool

(** Complete-query stage: literal usage plus full TSQ satisfaction. *)
val verify_complete : env -> Duosql.Ast.query -> bool

(** [retarget env ~tsq] points the environment at a tightened sketch for
    {!Enumerate.rebase}.  The column-probe and range caches memoize pure
    database facts and carry over; the row-probe cache memoizes match
    verdicts against the sketch's tuples and is reset. *)
val retarget : env -> tsq:Tsq.t -> env

(** [reverify env t] re-runs only the cascade stages whose verdict can
    change under a [Tsq.Tightening] edit — [S_clauses], [S_cardinality]
    (the required tuple count only grows), [S_column], [S_row], and the
    full complete-query check — on a state that already survived the
    full cascade under the pre-refinement sketch.
    [S_static]/[S_semantics] never read the sketch and [S_types] reads
    only the (unchanged) type annotations, so their verdicts carry.
    Counts as a cascade invocation in {!total_verifies}. *)
val reverify : env -> Partial.t -> bool

(** [reverify_query env q] re-checks an already-emitted candidate under
    the retargeted sketch, with time and prunes attributed to the
    complete stage. *)
val reverify_query : env -> Duosql.Ast.query -> bool
