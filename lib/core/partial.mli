(** Partial queries (Definition 3.1) as enumeration states.

    A partial query is a SQL query in which elements may still be
    placeholders.  We represent it as a builder record plus a cursor
    ([phase]) naming the next inference decision, mirroring SyntaxSQLNet's
    fixed module execution order (Section 3.3.1): clause keywords, then the
    SELECT list (width, targets, aggregates), then WHERE (count, column,
    operator+value, connective), then GROUP BY / HAVING, then
    ORDER BY / direction / LIMIT.

    Each state also carries its candidate join path (Section 3.3.4) — all
    verification probes execute against it — and its confidence score, the
    product of the softmax scores of the decisions that produced it
    (Section 3.3.3). *)

type phase =
  | P_keywords
  | P_num_proj
  | P_proj_target of int
  | P_proj_agg of int
  | P_where_num
  | P_where_col of int
  | P_where_op of int
  | P_where_conn
  | P_group_col
  | P_having_presence
  | P_having_pred
  | P_order_target
  | P_order_dir
  | P_limit
  | P_done
  | P_joinpath of phase
      (** decide the join path (Section 3.3.4), then continue with the
          wrapped phase; deferring this keeps column decisions and join
          decisions from multiplying into one huge expansion *)

(** A decided projection slot. [pj_agg = None] means the aggregate decision
    is still pending; [Some a] records the decision ([Some (Some Count)]
    etc., [Some None] = plain column). *)
type proj_slot = {
  pj_target : Duoguide.Model.col_target;
  pj_agg : Duosql.Ast.agg option option;
}

type t = {
  phase : phase;
  kw : Duoguide.Model.kw_set;  (** meaningful once past [P_keywords] *)
  nproj : int;
  projs : proj_slot list;  (** decided prefix, in SELECT order *)
  where_n : int;
  where_preds : Duosql.Ast.pred list;  (** decided, in order *)
  where_pending : Duodb.Schema.column option;
      (** column chosen for the next predicate, operator/value pending *)
  conn : Duosql.Ast.connective;
  group_col : Duosql.Ast.col_ref option;
  having_pred : Duosql.Ast.pred option;
  order_item : (Duosql.Ast.agg option * Duosql.Ast.col_ref option) option;
  order_dir : Duosql.Ast.dir;
  limit : int option;
  from : Duosql.Ast.from_clause option;
      (** candidate join path; [None] until a column is referenced *)
  confidence : float;
  depth : int;  (** number of inference decisions made *)
}

(** The root state: no decisions made, confidence 1 (Algorithm 1, line 2). *)
val root : t

val is_complete : t -> bool

(** The complete {!Duosql.Ast.query} once [phase = P_done]; [None]
    otherwise or when the state lacks a join path. *)
val to_query : t -> Duosql.Ast.query option

(** Tables referenced by decided columns (outside the FROM clause). *)
val referenced_tables : t -> string list

(** The column of a projection target, if any. *)
val target_col : Duoguide.Model.col_target -> Duodb.Schema.column option

(** Decided projections as [(agg decision, column)] pairs, for modules that
    need the current SELECT list. *)
val decided_projections :
  t -> (Duosql.Ast.agg option option * Duodb.Schema.column option) list

(** Literals already used in decided predicates. *)
val used_literals : t -> Duodb.Value.t list

(** Render the partial query for display, with [?] placeholders. *)
val to_string : t -> string

(** Which clause the phase is deciding, in decision order: 0 keywords,
    1 SELECT, 2 WHERE, 3 GROUP BY, 4 HAVING, 5 ORDER BY, 6 LIMIT, 7
    done.  A join-path phase has the progress of the phase it wraps, so
    [progress p > k] means clause [k] can no longer change. *)
val progress : phase -> int

(** Canonical identity of a state's decided content (phase, decisions and
    join path; not confidence).  States produced by different join-fork
    orders can coincide.  This printed key is the specification of state
    identity: the enumerator dedupes on its partition through {!Tbl},
    which hashes with {!key_hash} instead of printing it. *)
val key : t -> string

(** Like {!key}, but with WHERE/HAVING conjuncts put into Duosem normal
    form (sorted; interval-folded once the predicate set is settled and
    conjunctive), so states that differ only by predicate order or by
    equivalent predicate spellings collide.  The used literal multiset
    and the verbatim join path are part of the key, keeping the
    complete-stage literal check and row-order-sensitive sketch
    satisfaction observationally equal across collapsed states.  This
    printed key is the specification of the enumerator's second
    visited-set layer ([dedup_semantic]), which partitions states with
    predicates ({!has_predicates}) like it through {!Canon}; for the
    others it is {!key} with an empty literal segment, so the layer
    cannot collapse anything the first one did not. *)
val canonical_key : t -> string

(** A hash of {!key}'s partition, computed from the state's fields
    without printing anything or allocating (except for a non-integral
    float literal, hashed through its printed form).  Consistent with
    {!key}: [key a = key b] implies [key_hash a = key_hash b] — it reads
    only printed fields under the printer's own guards and normalizes the
    printer's lossy spots ([Int 3] and [Float 3.0] hash alike; FROM
    clauses that print alike hash alike whatever their list order).
    Assumes identifiers print as single tokens (no separator characters
    in table or column names). *)
val key_hash : t -> int

(** Field-wise equality of everything {!key} prints.  [true] implies
    [key a = key b]; [false] does not imply the converse. *)
val equal_rendered : t -> t -> bool

(** Sets over {!key}'s partition that never print on the hot path:
    open addressing on the full {!key_hash}, computed through one-slot
    memos of the clause hashes that the set owns (keyed on physical
    identity, so siblings re-hash only the clause they changed).  Only
    hash-equal states are compared, and only those that are not
    {!equal_rendered} print their keys (counted in
    {!Tbl.take_renders}). *)
module Tbl : sig
  type state := t
  type t

  val create : int -> t

  (** [add tbl st] adds [st] and returns [true] when no member has
      [st]'s key; otherwise returns [false] and adds nothing: the
      visited-set test-and-insert in one hash computation. *)
  val add : t -> state -> bool

  (** Keys printed by equality fallbacks since the last call (two per
      fallback comparison); resets the count. *)
  val take_renders : t -> int
end

(** A hash of {!canonical_key}'s partition, computed without printing:
    {!key_hash}'s fields with WHERE/HAVING in Duosem normal form, mixed
    with an order-independent hash of the used-literal multiset ([Int 3]
    and [Float 3.0] alike).  [canonical_key a = canonical_key b] implies
    [canonical_hash a = canonical_hash b]. *)
val canonical_hash : t -> int

(** Sets over {!canonical_key}'s partition, with no printing on the hot
    path.  A set stores the admitted states themselves and hashes with
    {!canonical_hash} (through memos of the canonical WHERE and HAVING and
    of the SELECT and FROM hashes); on a hash hit it compares the two
    states' canonical forms and literal multisets field by field, and
    prints their canonical keys only when that comparison cannot decide
    (counted in {!Canon.take_renders}).  Membership partitions states
    exactly like [String.equal] on {!canonical_key}. *)
module Canon : sig
  type state := t
  type t

  val create : int -> t

  (** [add c st] admits [st] and returns [true] when no admitted state
      shares its canonical key; otherwise returns [false]. *)
  val add : t -> state -> bool

  (** Canonical keys printed by fallbacks since the last call; resets
      the count. *)
  val take_renders : t -> int
end

(** Whether the state has decided a WHERE or HAVING predicate. *)
val has_predicates : t -> bool

(** Number of join edges on the state's join path. *)
val join_length : t -> int

(** Confidence-then-join-length ordering for the best-first frontier:
    higher confidence first; ties prefer shorter join paths
    (Section 3.3.4), then earlier creation. *)
val compare_priority : t * int -> t * int -> int
