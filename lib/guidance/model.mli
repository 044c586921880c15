(** The guidance model: Duoquest's substitute for SyntaxSQLNet's neural
    modules (Table 3 of the paper).

    Each function mirrors one SyntaxSQLNet module: given the NLQ and the
    schema it returns {e all} candidate output classes for one inference
    decision, each with a softmax probability.  Probabilities over the
    candidates of a single decision sum to 1, which gives the enumerator the
    paper's Property 1 (the children of a state partition its confidence
    mass).

    The model is deliberately imperfect: it scores candidates from lexical
    evidence (name similarity, hint words, literal grounding), so ambiguous
    NLQs produce genuinely ambiguous distributions — the regime in which
    the TSQ's pruning earns its keep. *)

type ctx

(** [make ?temperature ?index schema nlq] prepares a scoring context.
    [temperature] flattens (>1) or sharpens (<1) all distributions;
    [index] enables grounding text literals to columns.  Everything that
    depends on the NLQ alone is computed here, once: the per-column
    scores, the {!signals}, and the distributions of {!keywords},
    {!aggregates}, {!operators}, {!num_predicates}, {!connective},
    {!having_presence} and {!direction}, which those functions return
    as stored. *)
val make :
  ?temperature:float ->
  ?index:Duodb.Index.t ->
  Duodb.Schema.t ->
  Duonl.Nlq.t ->
  ctx

val schema : ctx -> Duodb.Schema.t
val nlq : ctx -> Duonl.Nlq.t

(** The NLQ's {!Hints} lexicon evidence as {!make} stored it: [sg_op]
    and [sg_or] over every word ({!Duonl.Token.words}), the rest over
    the content words ({!Duonl.Nlq.content_words}); [sg_between] counts
    "between"/"within".  [sg_op] must not be mutated. *)
type signals = {
  sg_agg : float * float * float * float * float * float;
  sg_op : float array;
  sg_where : float;
  sg_group : float;
  sg_order : float;
  sg_or : float;
  sg_having : float;
  sg_desc : float;
  sg_limit : float;
  sg_between : float;
}

val signals : ctx -> signals

(** {1 KW module} *)

type kw_set = {
  kw_where : bool;
  kw_group : bool;
  kw_order : bool;
}

(** All 8 clause subsets, with probabilities. *)
val keywords : ctx -> (kw_set * float) list

(** {1 COL module} *)

(** A projection target: a real column or [COUNT] of all rows. *)
type col_target =
  | Target_column of Duodb.Schema.column
  | Target_count_star

(** Candidate projection targets, excluding [used] ones.  [out] is the
    TSQ's type annotation for the slot being filled: targets that no
    aggregate choice could reconcile with it are dropped before
    normalization, so the enumerator never spends a push on them. *)
val projection_targets :
  ?out:Duodb.Datatype.t ->
  ctx ->
  used:col_target list ->
  (col_target * float) list

(** Number of projected columns (1..4).  [hint] biases toward the TSQ's
    column count when the sketch provides one. *)
val num_projections : ctx -> hint:int option -> (int * float) list

(** Candidate columns for a WHERE predicate; columns grounded by a literal
    value score higher. Excludes [used]. *)
val where_columns :
  ctx -> used:Duodb.Schema.column list -> (Duodb.Schema.column * float) list

(** Candidate GROUP BY columns; projected plain columns score higher. *)
val group_columns :
  ctx -> projected:Duodb.Schema.column list -> (Duodb.Schema.column * float) list

(** {1 AGG module} *)

(** Aggregate options for a projection target of the given type: text
    columns admit [None]/[Count]; numeric columns admit all six.  [out]
    restricts to aggregates producing the TSQ-annotated output type. *)
val aggregates :
  ?out:Duodb.Datatype.t ->
  ctx ->
  Duodb.Datatype.t ->
  (Duosql.Ast.agg option * float) list

(** {1 OP module} *)

(** Predicate shapes for a column: comparison operators applicable to the
    column type, plus BETWEEN when two numeric literals could bound it.
    Returned shapes are abstract (the value module fills the literal). *)
type op_shape =
  | Shape_cmp of Duosql.Ast.cmp
  | Shape_between

val operators : ctx -> Duodb.Datatype.t -> (op_shape * float) list

(** {1 Value assignment} *)

(** Literal candidates for a predicate on [col]: text literals grounded to
    the column score highest; numeric literals are offered to numeric
    columns.  Returns an empty list when no compatible literal exists. *)
val values :
  ctx -> Duodb.Schema.column -> (Duodb.Value.t * float) list

(** Ordered pairs (lo, hi) of numeric literals for BETWEEN. *)
val value_ranges : ctx -> (Duodb.Value.t * Duodb.Value.t) list

(** Number of WHERE predicates (1..3). *)
val num_predicates : ctx -> (int * float) list

(** {1 AND/OR module} *)

val connective : ctx -> (Duosql.Ast.connective * float) list

(** {1 HAVING module} *)

val having_presence : ctx -> (bool * float) list

(** {1 DESC/ASC module} *)

val direction : ctx -> (Duosql.Ast.dir * float) list

(** LIMIT candidates: [None] (no limit) and plausible [Some k] values from
    the NLQ's numeric tokens or 1 under superlative phrasing.  [hint]
    biases toward the TSQ's limit when provided. *)
val limit : ctx -> hint:int option -> (int option * float) list

(** ORDER BY targets: projected items plus aggregates on numeric columns. *)
val order_targets :
  ctx ->
  projected:(Duosql.Ast.agg option * Duodb.Schema.column option) list ->
  ((Duosql.Ast.agg option * Duodb.Schema.column option) * float) list
