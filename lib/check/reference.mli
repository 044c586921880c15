(** Naive reference interpreter for the SQL dialect.

    Implements the dialect's semantics directly from the AST: nested-loop
    joins in FROM-clause order, no planner, no predicate pushdown, no
    caches, no provenance machinery.  It is deliberately slow and
    deliberately independent of [Duoengine] — the differential property
    (planned execution ≡ reference) is only meaningful when the two
    sides share no execution code.

    Semantics mirrored from the dialect definition:
    - joins attach in clause order starting from the first FROM table;
      rows stream in nested-loop order (base outermost); NULL join keys
      never match;
    - WHERE evaluates with a single connective; comparisons against NULL
      are false; LIKE on non-text operands is an error;
    - grouping triggers on GROUP BY, any aggregate in SELECT or ORDER BY,
      or HAVING; groups appear in first-seen key order; without GROUP BY
      an aggregated query has exactly one (possibly empty) group;
    - aggregates skip NULLs; SUM over integers stays integral, a float
      SUM with integral total collapses to an integer; AVG is always a
      float; DISTINCT inside an aggregate applies to COUNT only;
    - DISTINCT keeps the first occurrence of each output row; ORDER BY is
      a stable sort; LIMIT applies after sorting. *)

(** [run db q] evaluates [q] and returns the same result-set shape as
    {!Duoengine.Executor.run}.  [Error] on out-of-scope or ill-formed
    queries (unknown tables/columns, disconnected FROM, aggregates in
    WHERE, numeric aggregates over text, ...). *)
val run :
  Duodb.Database.t ->
  Duosql.Ast.query ->
  (Duoengine.Executor.resultset, string) result
