(** Table sketch queries (Definition 2.3) and TSQ satisfaction
    (Definition 2.4).

    A TSQ [T = (alpha, chi, tau, k)] carries optional column type
    annotations, optional example tuples whose cells are exact values,
    ranges, or empty (match-anything), a sorted flag, and a limit
    ([k = 0] means unlimited). *)

type cell =
  | Any
  | Exact of Duodb.Value.t
  | Range of Duodb.Value.t * Duodb.Value.t  (** inclusive bounds *)

type tuple = cell list

type t = {
  types : Duodb.Datatype.t list option;  (** alpha *)
  tuples : tuple list;  (** chi *)
  sorted : bool;  (** tau *)
  limit : int;  (** k; 0 = no limit *)
  negatives : tuple list;
      (** rows the user marked as wrong: no result row may match one
          (the paper's Section 7 iterative-interaction extension) *)
  min_support : int option;
      (** noisy-example tolerance (Section 7): at least this many of the
          example tuples must be satisfied; [None] = all of them *)
}

(** The empty sketch: no annotations, no tuples, unsorted, unlimited.
    Every in-scope query satisfies it. *)
val empty : t

val make :
  ?types:Duodb.Datatype.t list ->
  ?tuples:tuple list ->
  ?sorted:bool ->
  ?limit:int ->
  ?negatives:tuple list ->
  ?min_support:int ->
  unit ->
  t

(** Number of example tuples a query must satisfy: [min_support] clamped to
    [0, length tuples], defaulting to all of them. *)
val required_support : t -> int

(** [add_positive t tuple] / [add_negative t tuple] — sketch refinement as
    in the Figure 1 interaction loop. *)
val add_positive : t -> tuple -> t

val add_negative : t -> tuple -> t

(** [cell_matches cell v]: [Any] matches everything; [Exact x] matches
    values equal to [x]; [Range (lo, hi)] matches [lo <= v <= hi]
    (numeric comparison across int/float). *)
val cell_matches : cell -> Duodb.Value.t -> bool

(** [tuple_matches tuple row] checks cells positionally; the tuple must have
    exactly the row's width. *)
val tuple_matches : tuple -> Duodb.Value.t array -> bool

(** [distinct_match_atleast support tuples rows]: backtracking bipartite
    matching — at least [support] of the example tuples must each match a
    {e distinct} result row (Definition 2.4, item 2, with the
    noisy-example support threshold). *)
val distinct_match_atleast : int -> tuple list -> Duodb.Value.t array list -> bool

(** [distinct_match_on ~support positions tuples rows]: the same matcher
    restricted to decided projection positions, as used by the row-wise
    cascade stage on partial queries.  Each [(out_idx, cell_idx)] pair
    constrains result column [out_idx] by example cell [cell_idx]; cell
    indices beyond a tuple's width are unconstrained.  Sharing the matcher
    with {!distinct_match_atleast} keeps the support-threshold semantics of
    the partial-query and complete-query checks identical. *)
val distinct_match_on :
  support:int -> (int * int) list -> tuple list -> Duodb.Value.t array list -> bool

(** An early-stopping form of {!distinct_match_on} over a stream of
    rows.  With [n] example tuples it keeps at most [n] matching rows per
    tuple and asks the executor to stop once every tuple holds [n]; the
    backtracking matcher then runs over the kept rows.  Truncating to [n]
    keeps the size of the maximum distinct matching (a tuple matched to a
    row it did not keep has [n] kept rows, at most [n - 1] of them used by
    the others), so after a full feed [matched] equals
    [distinct_match_on ~support positions tuples rows] on the same rows. *)
type matcher

(** [matcher ~support positions tuples] — arguments as for
    {!distinct_match_on}; one matcher serves one scan. *)
val matcher : support:int -> (int * int) list -> tuple list -> matcher

(** The matcher as an {!Duoengine.Executor.visitor}: checks the row's
    decided positions against the tuples still below their quota and
    returns [false] once none is. *)
val feed : matcher -> Duoengine.Executor.visitor

(** The distinct-match verdict over the rows fed so far. *)
val matched : matcher -> bool

(** Order-preserving variant (Definition 2.4, item 3): matched rows must
    appear at strictly increasing result indices, in example order. *)
val ordered_match_atleast : int -> tuple list -> Duodb.Value.t array list -> bool

(** [satisfies_result t q res] is Definition 2.4 over [q]'s already
    executed result: the clause obligations (tau needs ORDER BY, k a LIMIT
    of at most k), then (1) type annotations, (2) a distinct result tuple
    per example tuple (maximum bipartite matching, so overlapping examples
    are handled correctly), (3) order preservation when sorted, (4) the
    row limit, and no row matching a negative tuple.  An [Error] result
    does not satisfy. *)
val satisfies_result :
  t -> Duosql.Ast.query -> (Duoengine.Executor.resultset, string) result -> bool

(** [satisfies t db q] is the function [T(q, D)] of Definition 2.4, the
    verdict of {!satisfies_result} on [q]'s execution.  A plain query
    ({!Duoengine.Executor.is_plain}) under an unsorted sketch with example
    tuples and no negatives streams its rows through a {!matcher} instead
    of materializing them; every other shape runs the materializing check.
    [on_early_stop] is called when that stream stopped before its last
    row.  Queries that fail to execute do not satisfy. *)
val satisfies :
  ?cache:Duoengine.Executor.relation_cache ->
  ?max_rows:int ->
  ?on_early_stop:(unit -> unit) ->
  t ->
  Duodb.Database.t ->
  Duosql.Ast.query ->
  bool

(** Number of example tuples. *)
val num_tuples : t -> int

(** Width of the sketch: length of [types] or of the first tuple; [None]
    when the sketch constrains neither. *)
val width : t -> int option

(** Classification of a sketch edit for incremental re-synthesis. *)
type refinement =
  | Tightening
      (** [new_] accepts a subset of the queries [old] accepts, {e and}
          derives the same expansion guidance: every cascade verdict is
          monotone (fail under [old] implies fail under [new_]), so a
          running enumeration can be rebased instead of restarted. *)
  | Incomparable
      (** Anything else — the caller must restart from the root. *)

(** [refines ~old ~new_] is [Tightening] when [new_] only narrows [old]:
    same type annotations, limit, and sketch width (header edits change
    the guidance hints, so they always classify [Incomparable]); example
    tuples unchanged with equal-or-higher support, or extended as an
    order-preserving supersequence with full support demanded on both
    sides; negatives a superset; and [sorted] only toggled on. *)
val refines : old:t -> new_:t -> refinement

val pp : Format.formatter -> t -> unit
