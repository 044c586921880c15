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

(** One inference decision's distribution: candidate [d_items.(i)] has
    probability [d_probs.(i)], in the module's candidate order, and
    [d_order] lists the indices by probability, highest first, ties in
    index order.  A context hands out shared entries: they must not be
    mutated. *)
type 'a dist = {
  d_items : 'a array;
  d_probs : float array;
  d_order : int array;
}

(** The candidates with their probabilities, in candidate order. *)
val to_list : 'a dist -> ('a * float) list

(** The same candidates, each with probability [1/n] (the unguided
    ablation); an empty distribution as it is. *)
val uniform : 'a dist -> 'a dist

(** Weighted choices rescaled to total mass 1, kept as given when the
    total is not positive.  Expansions that drop some branches would
    otherwise leak the dropped branches' mass and break Property 1. *)
val renormalized : ('a * float) list -> 'a dist

(** [make ?temperature ?index schema nlq] prepares a scoring context.
    [temperature] flattens (>1) or sharpens (<1) all distributions;
    [index] enables grounding text literals to columns.  Everything that
    depends on the NLQ alone is computed here, once: the per-column
    similarities and scores, the {!signals}, the numeric literals'
    range pairs, and the distributions of {!keywords}, {!aggregates},
    {!operators}, {!num_predicates}, {!connective}, {!having_presence}
    and {!direction}, which those functions return as stored.

    The other distributions depend on the search state too, through a
    small key: {!projection_targets} on [out] and the set of [used],
    {!where_columns} on the set of [used], {!group_columns} on the set
    of [projected], {!order_targets} on the [projected] list, {!values}
    and {!where_rhs} on the column, {!num_projections} and {!limit} on
    [hint].  Each is computed at its key's first call, from column
    positions, and stored: a later call with an equal key returns the
    physically same entry.  Columns passed in must be the schema's
    ([Invalid_argument] otherwise).

    The memo tables are unsynchronized: a context belongs to one run on
    one domain ([Duoquest.prepare] makes one per run).  Runs
    that follow one another on one domain may share it. *)
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
val keywords : ctx -> kw_set dist

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
  col_target dist

(** Number of projected columns (1..4).  [hint] biases toward the TSQ's
    column count when the sketch provides one. *)
val num_projections : ctx -> hint:int option -> int dist

(** Candidate columns for a WHERE predicate; columns grounded by a literal
    value score higher. Excludes [used]. *)
val where_columns :
  ctx -> used:Duodb.Schema.column list -> Duodb.Schema.column dist

(** Candidate GROUP BY columns; projected plain columns score higher. *)
val group_columns :
  ctx -> projected:Duodb.Schema.column list -> Duodb.Schema.column dist

(** {1 AGG module} *)

(** Aggregate options for a projection target of the given type: text
    columns admit [None]/[Count]; numeric columns admit all six.  [out]
    restricts to aggregates producing the TSQ-annotated output type. *)
val aggregates :
  ?out:Duodb.Datatype.t ->
  ctx ->
  Duodb.Datatype.t ->
  Duosql.Ast.agg option dist

(** {1 OP module} *)

(** Predicate shapes for a column: comparison operators applicable to the
    column type, plus BETWEEN when two numeric literals could bound it.
    Returned shapes are abstract (the value module fills the literal). *)
type op_shape =
  | Shape_cmp of Duosql.Ast.cmp
  | Shape_between

val operators : ctx -> Duodb.Datatype.t -> op_shape dist

(** {1 Value assignment} *)

(** Literal candidates for a predicate on [col]: text literals grounded to
    the column score highest; numeric literals are offered to numeric
    columns.  Empty when no compatible literal exists. *)
val values : ctx -> Duodb.Schema.column -> Duodb.Value.t dist

(** Right-hand sides for a WHERE predicate on [col]: each {!operators}
    comparison shape with each of the column's {!values} (probability
    [p_shape *. p_value]), and BETWEEN with each ordered pair (lo, hi)
    of numeric literals ([p_between /. pairs]); shapes with no literal
    or pair drop out and the rest are {!renormalized}.  [uniform] makes
    the shapes and the values {!uniform} first. *)
val where_rhs :
  ?uniform:bool -> ctx -> Duodb.Schema.column -> Duosql.Ast.pred_rhs dist

(** Number of WHERE predicates (1..3). *)
val num_predicates : ctx -> int dist

(** {1 AND/OR module} *)

val connective : ctx -> Duosql.Ast.connective dist

(** {1 HAVING module} *)

val having_presence : ctx -> bool dist

(** {1 DESC/ASC module} *)

val direction : ctx -> Duosql.Ast.dir dist

(** LIMIT candidates: [None] (no limit) and plausible [Some k] values from
    the NLQ's numeric tokens or 1 under superlative phrasing.  [hint]
    biases toward the TSQ's limit when provided. *)
val limit : ctx -> hint:int option -> int option dist

(** ORDER BY targets: projected items plus aggregates on numeric columns. *)
val order_targets :
  ctx ->
  projected:(Duosql.Ast.agg option * Duodb.Schema.column option) list ->
  (Duosql.Ast.agg option * Duodb.Schema.column option) dist
