(** Selectivity-aware execution planning for {!Executor}.

    Sits between the AST and the evaluator and decides, per query:

    - {b predicate pushdown} — WHERE predicates whose column lives in a
      single base table are applied during that table's scan, before any
      join, shrinking join inputs instead of join outputs.  Pushdown is
      all-or-nothing: either the whole WHERE condition distributes over
      the base scans (conjunctive conditions, or a disjunction confined
      to one table) or nothing is pushed and the condition is evaluated
      on joined rows exactly as before.  A disjunction spanning several
      tables is never pushed.
    - {b join ordering} — when the FROM clause is a proper join tree over
      known tables, the base table and attach order are chosen by
      estimated post-pushdown cardinality (row count x a cheap
      per-predicate selectivity constant) rather than FROM-clause order.
      Results stay identical: the executor restores the canonical row
      order by provenance sort.
    - {b cache keys} — relations are memoized under (FROM, pushed
      predicates), so probe queries sharing a join tree and WHERE clause
      reuse one relation even as the rest of the query varies. *)

open Duosql

(** One join step: attach [jo_table] to the relation built so far, on
    [jo_left] (a column of the relation, as [(table, column)]) equal to
    [jo_right] (a column of [jo_table]). *)
type join_op = {
  jo_table : string;
  jo_left : string * string;
  jo_right : string;
}

type t = {
  plan_base : string;  (** first table scanned *)
  plan_joins : join_op list;  (** attach sequence after the base scan *)
  plan_pushed : (string * Ast.condition) list;
      (** per-table scan filters; empty when nothing is pushed *)
  plan_residual : Ast.condition option;
      (** WHERE remainder evaluated on joined rows (the whole condition
          when pushdown does not apply, [None] when fully pushed) *)
  plan_canonical : (string * int) list;
      (** table -> position in the canonical (FROM-order) attach
          sequence; provenance sort keys follow this order *)
  plan_in_order : bool;
      (** execution order equals canonical order: provenance sort is a
          no-op and the executor skips it *)
  plan_key : string;  (** relation-cache key: FROM + pushed predicates *)
  plan_pushdown : bool;  (** at least one predicate was pushed *)
}

(** [plan db q] plans [q].  [Error] reports an empty or disconnected
    FROM clause with the same messages the executor historically
    raised. *)
val plan : Duodb.Database.t -> Ast.query -> (t, string) result

(** Estimated fraction of rows surviving [pred]; a cheap System-R-style
    constant per operator class.  Exposed for tests and the bench. *)
val selectivity : Ast.pred -> float
