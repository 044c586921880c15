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

(** Memoizes joined relations keyed by (FROM clause, pushed predicates),
    for callers (the verification cascade) that execute many probe queries
    over the same join tree, and the join-key indexes those relations are
    built over, keyed by (table, column).  A join index records its
    table's row count and is rebuilt once the table has grown, so an
    append never serves a stale index; cached relations are row ids into
    append-only tables, so they stay valid.  One cache per domain (it is
    not thread-safe); Duoserve shares one per database across sessions. *)
type relation_cache

val create_cache : unit -> relation_cache

(** [(hits, misses, pushdown_builds)]: cache hits, relations built, and
    how many of those builds had predicates pushed into base scans. *)
val cache_stats : relation_cache -> int * int * int

(** [(builds, hits)] of the cache's join-key indexes: indexes built
    (first use of a (table, column), or a table that grew since) and
    join steps served by an existing index. *)
val join_index_stats : relation_cache -> int * int

(** [run ?cache ?max_rows ?planner db q] executes [q]. [Error msg] reports
    unknown tables/columns, disconnected FROM clauses, aggregates over
    incompatible types, or non-grouped projections mixed with aggregates.
    [max_rows] bounds the intermediate joined relation — the
    execution-time guard the verifier uses in place of a wall-clock query
    timeout; exceeding it is an error.  [planner = false] disables
    predicate pushdown and join reordering (canonical FROM-order
    evaluation, for differential tests and ablations); default [true]. *)
val run :
  ?cache:relation_cache ->
  ?max_rows:int ->
  ?planner:bool ->
  Duodb.Database.t ->
  Duosql.Ast.query ->
  (resultset, string) result

(** What {!run_batch} shared: [br_groups] shared base scans served
    [br_shared] of the [br_queries] probe queries; the rest executed
    individually (still sharing relations through the cache). *)
type batch_report = {
  br_queries : int;
  br_groups : int;
  br_shared : int;
}

(** [run_batch db qs] executes candidate probe queries together.
    Single-table probes that scan the same base table share one
    unfiltered scan: each candidate's WHERE becomes a vectorized
    selection over the shared in-order relation instead of its own
    filtered table scan.  Multi-table probes run individually (an
    unfiltered join could exceed [max_rows] where the pushed join would
    not), sharing relations through [cache] as usual.  The result array
    is positionally aligned with [qs] and each entry is exactly what
    {!run} returns for that query. *)
val run_batch :
  ?cache:relation_cache ->
  ?max_rows:int ->
  ?planner:bool ->
  Duodb.Database.t ->
  Duosql.Ast.query array ->
  (resultset, string) result array * batch_report

(** Like {!run} but raises [Failure]. *)
val run_exn :
  ?cache:relation_cache ->
  ?max_rows:int ->
  ?planner:bool ->
  Duodb.Database.t ->
  Duosql.Ast.query ->
  resultset

(** [output_types db q] computes the projection types without executing:
    [Count] is numeric, [Sum]/[Avg] numeric, [Min]/[Max] and plain
    projections keep the column type. *)
val output_types : Duodb.Database.t -> Duosql.Ast.query -> (Duodb.Datatype.t list, string) result

(** Number of rows in a result. *)
val cardinality : resultset -> int
