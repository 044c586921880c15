(** Ascending-cost cascading verification (Section 3.4, Algorithm 3).

    Stages run cheapest-first and prune a partial query as early as its
    decided parts contradict the TSQ:

    + [VerifyStatic] — Duolint stage 0: schema/type errors, unsatisfiable
      predicates, grouping errors and broken structure on decided clauses
      (no database access, no TSQ needed);
    + [VerifyClauses] — clause presence vs the sketch's sorted flag and
      limit (no database access);
    + [VerifyCardinality] — Duosem's abstract row-count upper bound vs
      the sketch's required tuple count (schema only);
    + [VerifySemantics] — the two Table 4 rules Duolint only warns about
      (an exact duplicate predicate, a constant output column) on a final
      WHERE (no database access);
    + [VerifyColumnTypes] — projection types vs the sketch's type
      annotations (schema only);
    + [VerifyByColumn] — column-wise existence probes, one per decided
      projection and example cell (cheap single-table queries, cached);
    + [VerifyByRow] — row-wise probes requiring example cells to co-occur
      in one tuple; for aggregated projections this waits until WHERE and
      GROUP BY are complete ([CanCheckRows]);
    + for complete queries — [VerifyLiterals] (all tagged NLQ literals
      appear in the query) and the full Definition 2.4 satisfaction check
      (which subsumes [VerifyByOrder]).  [static] and [semantics] have
      judged the whole query by then: a complete state's outline has
      every finality flag set.

    Each Table 4 rule is judged once: the rest of Table 4 are Duolint
    errors, judged by [static].

    All stages are {e monotone}: a stage that fails on a partial query also
    fails on every completion of it, so pruning never discards a prefix of
    a satisfying query (property-tested in the suite).

    The enumerator runs every stage, [static] included, on popped
    states only ({!check_deferred}), so no check is paid for a state
    the search never reaches.  An env keeps only the stages that can
    fail a state under its settings and sketch ({!keeps}); the others
    are skipped, with no call and no clock read. *)

(** The cascade's stages, cheapest first.  [stats.stage_seconds] and
    [stats.stage_pruned] are indexed by {!stage_index}; {!all_stages}
    fixes the report order. *)
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
  mutable dedup_semantic : int;
      (** enumerator children and emissions suppressed because a
          Duosem-canonically-equal state or candidate was already seen:
          the canonical layer's refusals of children with a WHERE or
          HAVING predicate at their parent's expansion (key twins of an
          earlier child among them), and repeated candidates *)
  mutable visited_hits : int;
      (** predicate-free enumerator children refused, when the search
          reaches them, because a state with the same {!Partial.key} was
          already reached (a child never reached is never looked up, and
          a repeated join decision, counted in [join_repeats], generates
          none); a child with a predicate never meets the visited set *)
  mutable join_repeats : int;
      (** join-path states popped after a state equal to them but for
          their FROM had been expanded: the run generates no children
          for them, since each would be refused as a visited hit (see
          DESIGN.md, "Join decisions once per run") *)
  mutable canon_checked : int;
      (** children looked up in the canonical layer ({!Partial.Canon}):
          every child with a WHERE or HAVING predicate, at its parent's
          expansion; it is such a child's one dedup layer, and states
          without a predicate skip it *)
  mutable key_renders : int;
      (** {!Partial.key} and {!Partial.canonical_key} strings rendered by
          the visited and canonical sets' equality fallbacks (hash-equal
          states that are not structurally equal) *)
  mutable static_warnings : int;
      (** Duolint warnings on states at their first pop, each state's
          used to lower its frontier priority *)
  mutable batch_rounds : int;
      (** always 0: row probes run one at a time (kept for the stats
          record's readers) *)
  mutable batched_probes : int;  (** always 0, like [batch_rounds] *)
  mutable early_stops : int;
      (** streamed example-matching scans (row probes and plain
          complete-query checks) that stopped before the end of their
          output because every example tuple already held enough
          matching rows *)
  mutable verify_calls : int;
      (** cascade passes: one per call of {!check_deferred},
          {!verify} and {!reverify_query}, one per child through
          {!verify_batch} *)
  mutable stage_seconds : float array;
      (** monotonic wall time per cascade stage, indexed by
          {!stage_index}: the sum over the stage's runs, one clock stamp
          per stage boundary.  Exactly 0 for a stage the env leaves out
          ({!keeps}), which never runs.  Within the enumerator they sum
          to [Enumerate.outcome.out_verify_s] up to float rounding:
          [static]'s share includes the warning count and the re-queue
          of a warned state, and the first stage a pass runs opens at
          the pop's stamp. *)
  stage_pruned : int array;
      (** states rejected per cascade stage, indexed like
          [stage_seconds]; they sum to [pruned], and stay 0 for a stage
          the env leaves out.  Read through {!pruned_by}. *)
}

val new_stats : unit -> stats

(** Per-stage prune counter: [stage_pruned] at the stage's
    {!stage_index}. *)
val pruned_by : stats -> stage -> int

(** [merge_stats ~into s] adds every counter of [s] into [into]
    (elementwise for [stage_seconds] and [stage_pruned]): snapshots copy
    a run's record this way, and Duoserve sums its sessions' records.  Note
    [relcache_hits]/[pushdown_builds] and the [join_index_*] mirrors are
    summed too — each merged record should carry only its own run's
    relation-cache activity, as an outcome's does. *)
val merge_stats : into:stats -> stats -> unit

(** A verification environment: database, sketch, tagged literals, probe
    cache and counters. *)
type env

(** [semantics = false] disables the [semantics] stage and [static =
    false] disables Duolint stage 0, and with it the rest of Table 4
    (both for the ablation bench); default [true].  [index] supplies a
    prebuilt inverted index for column probes
    (sessions already hold one); without it the index is built lazily on
    first text probe.  [relcache] shares a relation cache across
    environments (a session's, for every run on its domain); entries are
    stamped with their tables' row counts, so appends are safe.  The env
    snapshots the cache's counters: the run's stats report only the
    activity since then — what a run on a shared cache did itself, never
    an earlier run's totals. *)
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

(** [keeps env stage] holds when [stage] can fail a state under [env]:
    always for [S_complete], and otherwise [S_static] only when static
    rules are on, [S_semantics] only when semantic rules are on,
    [S_clauses] only with a sketch, [S_cardinality] only when the sketch
    requires at least one tuple, [S_types] only with type annotations,
    [S_column] and [S_row] only with example tuples.  A stage left out
    accepts every state, so the cascade skips it. *)
val keeps : env -> stage -> bool

(** [verify env pq] is Algorithm 3's [Verify]: true when the partial query
    survives every applicable stage ([check_deferred] from [S_static] to
    [S_complete]). *)
val verify : env -> Partial.t -> bool

(** [verify_batch env children] pairs each child with its {!verify}
    verdict, in order. *)
val verify_batch : env -> Partial.t list -> (Partial.t * bool) list

(** [check_stage env stage pq] is one stage's verdict on one state,
    without the stats bookkeeping. *)
val check_stage : env -> stage -> Partial.t -> bool

(** [check_deferred env ~first ~last pq] runs the stages [first] ..
    [last] that [env] {!keeps} on one state, in cascade order, up to the
    first that fails, which is booked in [stage_pruned]; a range with no
    kept stage passes.  One clock stamp per stage boundary: the stamp
    that closes a stage opens the next.  With [clock], the pass opens at
    [clock.at] instead of reading the clock, and leaves its closing
    stamp there (unchanged when no stage ran), so a caller timing the
    work around it shares both stamps.  A caller that passes [clock]
    and [on_warnings] as options it built once ([?clock], [?on_warnings])
    makes a pass that allocates nothing beyond its stages' own work.

    With [on_warnings], a state that passes [S_static] has its Duolint
    warnings counted ({!static_warnings}) within that stage's time; when
    there are [n > 0], [on_warnings n pq] runs, still within it, and the
    pass fails at once without booking a prune.  The enumerator makes
    one pass per pop: from [S_static] on a state's first pop (a warned
    state is re-queued by [on_warnings]) or from [S_clauses] once its
    penalty is settled. *)
val check_deferred :
  ?clock:Clock.mark ->
  ?on_warnings:(int -> Partial.t -> unit) ->
  env ->
  first:stage ->
  last:stage ->
  Partial.t ->
  bool

(** Project an enumerator state into Duolint's open-world clause view.
    Finality flags are conservative: set only when no later decision can
    change the clause (FROM only on complete states — join-path
    construction replaces it wholesale).  Outlines of states that share a
    clause share its outline list physically (one-slot memos on the
    env), so Duolint's clause memos hit. *)
val outline : env -> Partial.t -> Duolint.Outline.t

(** Individual stages, exposed for tests and the cascade-order ablation. *)
val verify_static : env -> Partial.t -> bool

(** Duolint warning count on the state's decided clauses, accumulated
    into [stats.static_warnings]; the enumerator uses it to deprioritize
    (never prune) suspicious states when they are first popped. *)
val static_warnings : env -> Partial.t -> int

val verify_clauses : env -> Partial.t -> bool

(** Duosem stage: prunes when the state's abstract row-count upper bound
    ({!Duolint.Duosem.bound} over {!outline}) is strictly
    below the sketch's required tuple count.  Monotone because the bound
    only tightens as more clauses are decided. *)
val verify_cardinality : env -> Partial.t -> bool

(** {!Duolint.Analyze.redundant_where} on the state's outline. *)
val verify_semantics : env -> Partial.t -> bool
val verify_column_types : env -> Partial.t -> bool
val verify_by_column : env -> Partial.t -> bool

(** Row-wise probes; passes when the state has no probe to run (complete
    states, aggregated projections before WHERE and GROUP BY are decided:
    [CanCheckRows], ...). *)
val verify_by_row : env -> Partial.t -> bool

(** Complete-query stage: literal usage plus full TSQ satisfaction; the
    Duolint and Table 4 rules are [static]'s and [semantics]'. *)
val verify_complete : env -> Duosql.Ast.query -> bool

(** [retarget env ~tsq] points the environment at a tightened sketch for
    {!Enumerate.rebase}.  The column-probe and range caches memoize pure
    database facts and carry over; the sketch's compiled example cells
    and support are rebuilt, and so are the stages the env {!keeps}
    (a sketch that gains tuples brings [S_column] and [S_row] back), and
    the row-probe cache memoizes match verdicts against the sketch's
    tuples and is reset. *)
val retarget : env -> tsq:Tsq.t -> env

(** [reverify_query env q] re-checks an already-emitted candidate under
    the retargeted sketch with {!verify_complete}, with time and prunes
    attributed to the complete stage; [clock] shares stamps as in
    {!check_deferred}. *)
val reverify_query : ?clock:Clock.mark -> env -> Duosql.Ast.query -> bool
