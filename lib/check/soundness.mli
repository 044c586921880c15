(** Mechanical check of cascade soundness (the monotonicity claim of
    Section 3.4): whenever a Verify stage prunes a partial query, a
    bounded brute-force enumeration of that state's completions must find
    no query satisfying the TSQ.  Used by the fuzz properties and by the
    gold-survival regression tests. *)

(** A soundness violation: [vi_stage] pruned [vi_state], yet [vi_witness]
    — a completion of it — passes the [static], [semantics] and
    [complete] stages. *)
type violation = {
  vi_state : Duocore.Partial.t;
  vi_stage : string;
  vi_witness : Duosql.Ast.query;
}

(** Cascade stage names, cheapest first: ["static"; "clauses";
    "cardinality"; "semantics"; "types"; "column"; "row"; "complete"]. *)
val stage_names : string list

(** The first cascade stage that rejects the state, in ascending-cost
    order ([None] = survives; the row stage passes states it has no probe
    for, the complete stage runs only on complete states). *)
val first_failing_stage :
  Duocore.Verify.env -> Duocore.Partial.t -> string option

(** [completions ~guided ~hints ctx ~max_nodes ~max_complete state]
    brute-forces complete states reachable from [state] by repeated
    {!Duocore.Enumerate.expand}, visiting at most [max_nodes] states and
    returning at most [max_complete] of them.  No verification is applied
    — this is the raw reachable set. *)
val completions :
  guided:bool ->
  hints:Duocore.Enumerate.hints ->
  Duoguide.Model.ctx ->
  max_nodes:int ->
  max_complete:int ->
  Duocore.Partial.t ->
  Duocore.Partial.t list

(** [check env ctx ~hints ()] explores the enumeration space best-first
    (up to [max_states] pops), and for up to [max_pruned] pruned children
    brute-forces their completions looking for a satisfying witness.
    Returns all violations found (so an empty list is the property). *)
val check :
  ?guided:bool ->
  ?max_states:int ->
  ?max_pruned:int ->
  ?max_completion_nodes:int ->
  ?max_completions:int ->
  Duocore.Verify.env ->
  Duoguide.Model.ctx ->
  hints:Duocore.Enumerate.hints ->
  unit ->
  violation list

val pp_violation : Format.formatter -> violation -> unit

(** Rebuilds the enumeration states deriving [q] in decision order
    (keywords, SELECT slots, WHERE, GROUP BY/HAVING, ORDER BY/LIMIT),
    each carrying the gold join path.  [None] when [q] lies outside the
    enumeration space (query-level DISTINCT, several GROUP BY or ORDER BY
    items, aggregates in WHERE, LIMIT without ORDER BY, ...). *)
val derivation_states :
  Duodb.Schema.t -> Duosql.Ast.query -> Duocore.Partial.t list option

(** Replays the derivation against the cascade and returns the first
    pruned (stage, state), or [None] when the gold survives end to end —
    required whenever the environment's TSQ was synthesized from [q]'s
    own result.  Also [None] when the query is outside the enumeration
    space (nothing to replay). *)
val gold_survival :
  Duocore.Verify.env ->
  Duodb.Schema.t ->
  Duosql.Ast.query ->
  (string * Duocore.Partial.t) option
