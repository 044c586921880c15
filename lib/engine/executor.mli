(** In-memory execution of {!Duosql.Ast} queries.

    Implements the complete task scope: inner joins along FK-PK edges,
    WHERE filtering, grouping with aggregates, HAVING, SELECT DISTINCT,
    ORDER BY (on projected or non-projected expressions), and LIMIT.

    Execution follows a {!Planner} plan: WHERE predicates confined to a
    single table are applied during that table's base scan (before any
    join), and the join order is chosen by estimated post-pushdown
    cardinality.  A joined relation is late-materialized: one row-id
    vector per FROM table, built by probing per-(table, column) join-key
    indexes, with cells read from the tables themselves — no wide rows.
    Results are identical to naive FROM-order evaluation — including row
    order under ORDER BY and first-seen group order — because the row-id
    vectors are the rows' provenance: in-order executions produce the
    canonical nested-loop order directly, and reordered ones are sorted
    back to it by a permutation over the ids.

    Output is either materialized ({!run}) or streamed to a caller's
    {!visitor} ({!stream}) — one projection loop serves
    both.  A plain query (no GROUP BY, aggregate, HAVING, DISTINCT,
    ORDER BY or LIMIT) streams straight off its selection vector: the
    visitor reads cells through the projected columns' [(slot, column)]
    locations, resolved once per execution, and no output row is built.
    Every other shape is executed in full and its rows are then fed to
    the visitor.  Either way the residual WHERE filter runs to
    completion first, so a row that raises makes the whole execution an
    [Error] exactly as {!run} reports it; only the projection loop stops
    early.

    SQL semantics notes:
    - comparisons involving [NULL] are false; aggregates skip nulls except
      [COUNT] of all rows;
    - an aggregate query without GROUP BY yields exactly one row (e.g.
      [COUNT] 0 on an empty input);
    - ORDER BY is a stable sort, so ties keep join order, making results
      deterministic. *)

type resultset = {
  res_cols : (string * Duodb.Datatype.t) list;
      (** output column labels (pretty-printed projection) and types *)
  res_rows : Duodb.Value.t array list;
}

(** Memoizes joined relations keyed by (FROM clause, pushed predicates,
    [max_rows]), for callers (the verification cascade) that execute many
    probe queries over the same join tree, and the join-key indexes those
    relations are built over, keyed by (table, column).  Relation entries
    (row-bound errors included) and join indexes record their tables' row
    counts and are rebuilt once a table has grown, so an append never
    serves a stale relation or index.  Not thread-safe: one cache per
    domain (the Duoquest facade keeps one per session and domain). *)
type relation_cache

val create_cache : unit -> relation_cache

(** [(hits, misses, pushdown_builds)]: cache hits, relations built, and
    how many of those builds had predicates pushed into base scans. *)
val cache_stats : relation_cache -> int * int * int

(** [(builds, hits)] of the cache's join-key indexes: indexes built
    (first use of a (table, column), or a table that grew since) and
    join steps served by an existing index. *)
val join_index_stats : relation_cache -> int * int

(** [run ?cache ?max_rows db q] executes [q] through the {!Planner}'s
    plan. [Error msg] reports
    unknown tables/columns, disconnected FROM clauses, aggregates over
    incompatible types, or non-grouped projections mixed with aggregates.
    [max_rows] bounds the intermediate joined relation — the
    execution-time guard the verifier uses in place of a wall-clock query
    timeout; exceeding it is an error. *)
val run :
  ?cache:relation_cache ->
  ?max_rows:int ->
  Duodb.Database.t ->
  Duosql.Ast.query ->
  (resultset, string) result

(** A streaming consumer of query output: [visit i read] sees output row
    [i] (0-based ordinal) and [read j] returns its column [j]; [read] is
    only valid during the call.  Returning [false] stops the scan. *)
type visitor = int -> (int -> Duodb.Value.t) -> bool

(** [is_plain q]: [q] has no GROUP BY, aggregate, HAVING, DISTINCT,
    ORDER BY or LIMIT and projects only columns — the shape {!stream}
    feeds without materializing any output row. *)
val is_plain : Duosql.Ast.query -> bool

(** [stream db q visit] executes [q] like {!run} and feeds its output
    rows, in {!run}'s order, to [visit].  [Ok stopped]: [stopped] is
    [true] when [visit] ended the scan before the last output row.
    Errors are exactly {!run}'s: the visitor never turns an [Error] into
    [Ok] or back. *)
val stream :
  ?cache:relation_cache ->
  ?max_rows:int ->
  Duodb.Database.t ->
  Duosql.Ast.query ->
  visitor ->
  (bool, string) result

(** Like {!run} but raises [Failure]. *)
val run_exn :
  ?cache:relation_cache ->
  ?max_rows:int ->
  Duodb.Database.t ->
  Duosql.Ast.query ->
  resultset

(** [output_types db q] computes the projection types without executing:
    [Count] is numeric, [Sum]/[Avg] numeric, [Min]/[Max] and plain
    projections keep the column type. *)
val output_types : Duodb.Database.t -> Duosql.Ast.query -> (Duodb.Datatype.t list, string) result

(** Number of rows in a result. *)
val cardinality : resultset -> int
