(** Semantic pruning rules (Table 4): reject nonsensical or redundant but
    syntactically valid SQL, constraining the search to queries even
    non-technical users can read.

    This module is the Table 4 reference on complete queries
    ({!check_query}): the Table 4 experiment, the Spider generator's gold
    filter, the tests and Duocheck's lint-soundness property read it.
    The verification cascade does not: Duolint's error rules judge the
    type, grouping and contradiction rules in its [static] stage, and
    {!Duolint.Analyze.redundant_where} judges the duplicate-predicate and
    constant-output rules in its [semantics] stage. *)

(** Name of the first rule a query violates. *)
type violation =
  | Inconsistent_predicates
  | Constant_output_column
  | Ungrouped_aggregation
  | Singleton_groups
  | Unnecessary_group_by
  | Aggregate_type_error
  | Type_comparison_error

val violation_to_string : violation -> string

(** Rule "Inconsistent predicates": under AND, predicates on the same column
    must be simultaneously satisfiable; exact duplicates are redundant under
    either connective. *)
val condition_consistent : Duosql.Ast.condition -> bool

(** All rules on a complete query. *)
val check_query : Duodb.Schema.t -> Duosql.Ast.query -> (unit, violation) result

(** The rule catalogue as (name, paper example, fixed alternative) rows —
    printed by the Table 4 experiment. *)
val catalogue : (string * string * string) list
