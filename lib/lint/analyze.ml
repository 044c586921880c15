open Duosql.Ast
module Schema = Duodb.Schema
module Datatype = Duodb.Datatype
module Value = Duodb.Value
module D = Diagnostic

(* Rules emit diagnostics through a callback so the boolean fast path
   ([has_errors], the cascade's stage 0) can short-circuit on the first
   error without accumulating a list. *)

let pp_col c = c.cr_table ^ "." ^ c.cr_col

(* The cascade evaluates the rules once per enumerator pop, so schema
   lookups go through hash tables prepared once per session instead of
   walking the schema's table lists on every column reference.

   The memo slots exploit how partial states evolve: a child copies the
   state record and physically shares every clause it did not decide, and
   best-first search pops runs of states from one subtree.  Consecutive
   cascade calls therefore often re-present the same clause lists, and a
   one-slot cache keyed on physical identity hits on every clause the
   states share. *)
type 'k memo = { mutable m_key : 'k; mutable m_ok : bool }

(* The warning-count twins: a clause's count of warnings, and for WHERE
   and HAVING the connective it was counted under (subsumption only
   fires under a decided AND). *)
type 'k count_memo = { mutable c_key : 'k; mutable c_n : int }

type cond_memo = {
  mutable w_preds : pred list;
  mutable w_conn : connective option;
  mutable w_n : int;
}

type prepared = {
  p_tables : (string, unit) Hashtbl.t;
  p_cols : (string * string, Datatype.t) Hashtbl.t;
  p_pks : (string * string, unit) Hashtbl.t;
  m_select : proj list memo;
  m_where : pred list memo;
  m_group : col_ref list memo;
  m_having : pred list memo;
  m_order : order_item list memo;
  m_where_sat : (pred list * connective) memo;
  m_having_sat : (pred list * connective) memo;
  m_from : from_clause memo;
  w_select : proj list count_memo;
  w_from : from_clause count_memo;
  w_where : cond_memo;
  w_having : cond_memo;
  (* the counting sink: [w_emit] bumps [w_hits] on every warning, so a
     count needs no closure per call *)
  w_hits : int ref;
  w_emit : D.t -> unit;
}

let prepare (schema : Schema.t) =
  let w_hits = ref 0 in
  let p_tables = Hashtbl.create 16 in
  let p_cols = Hashtbl.create 64 in
  let p_pks = Hashtbl.create 16 in
  List.iter
    (fun (t : Schema.table) ->
      Hashtbl.replace p_tables t.Schema.tbl_name ();
      List.iter
        (fun (c : Schema.column) ->
          Hashtbl.replace p_cols
            (t.Schema.tbl_name, c.Schema.col_name)
            c.Schema.col_type)
        t.Schema.tbl_columns;
      List.iter
        (fun pk -> Hashtbl.replace p_pks (t.Schema.tbl_name, pk) ())
        t.Schema.tbl_pk)
    schema.Schema.tables;
  {
    p_tables;
    p_cols;
    p_pks;
    (* the empty clause carries no errors, so [m_ok = true] seeds every
       slot consistently with its initial key *)
    m_select = { m_key = []; m_ok = true };
    m_where = { m_key = []; m_ok = true };
    m_group = { m_key = []; m_ok = true };
    m_having = { m_key = []; m_ok = true };
    m_order = { m_key = []; m_ok = true };
    m_where_sat = { m_key = ([], And); m_ok = true };
    m_having_sat = { m_key = ([], And); m_ok = true };
    m_from = { m_key = { f_tables = []; f_joins = [] }; m_ok = true };
    (* likewise no warnings *)
    w_select = { c_key = []; c_n = 0 };
    w_from = { c_key = { f_tables = []; f_joins = [] }; c_n = 0 };
    w_where = { w_preds = []; w_conn = None; w_n = 0 };
    w_having = { w_preds = []; w_conn = None; w_n = 0 };
    w_hits;
    w_emit = (fun d -> if not (D.is_error d) then incr w_hits);
  }

let column_type pre (c : col_ref) =
  Hashtbl.find_opt pre.p_cols (c.cr_table, c.cr_col)

(* --- schema/type checking of decided column references --- *)

let check_col pre emit clause (c : col_ref) =
  if not (Hashtbl.mem pre.p_tables c.cr_table) then
    emit (D.make D.Unknown_table clause "no table named %s" c.cr_table)
  else if not (Hashtbl.mem pre.p_cols (c.cr_table, c.cr_col)) then
    emit (D.make D.Unknown_column clause "no column named %s" (pp_col c))

let check_agg pre emit clause agg col =
  match agg with
  | None | Some Count -> ()
  | Some ((Sum | Avg | Min | Max) as a) -> (
      match col with
      | None ->
          emit
            (D.make D.Aggregate_type clause "%s needs a column argument"
               (agg_to_string a))
      | Some c -> (
          match column_type pre c with
          | Some Datatype.Text ->
              emit
                (D.make D.Aggregate_type clause "%s over text column %s"
                   (agg_to_string a) (pp_col c))
          | Some Datatype.Number | None -> ()))

(* Table 4's "Faulty type comparison": ordering comparisons and BETWEEN
   need numbers, LIKE needs text, and an equality literal must match the
   compared type (the aggregate's output type, or the column's).  An
   unknown column is left to [check_col], so it is reported once. *)
let check_pred_types pre emit clause (p : pred) =
  let cmp_type =
    match p.pr_agg with
    | Some (Count | Sum | Avg) -> Some Datatype.Number
    | Some (Min | Max) | None -> Option.bind p.pr_col (column_type pre)
  in
  (match p.pr_agg, p.pr_col with
  | None, None ->
      emit (D.make D.Comparison_type clause "predicate without a column")
  | (None | Some _), _ -> ());
  match cmp_type with
  | None -> ()
  | Some ty -> (
      (* built on demand: the common case emits nothing *)
      let target () =
        match p.pr_agg, p.pr_col with
        | Some a, Some c -> agg_to_string a ^ "(" ^ pp_col c ^ ")"
        | Some a, None -> agg_to_string a ^ "(*)"
        | None, Some c -> pp_col c
        | None, None -> "?"
      in
      match p.pr_rhs with
      | Cmp ((Lt | Le | Gt | Ge) as op, v) ->
          if not (Datatype.equal ty Datatype.Number && Value.is_numeric v) then
            emit
              (D.make D.Comparison_type clause "%s %s %s compares non-numbers"
                 (target ()) (cmp_to_string op) (Value.to_sql v))
      | Between (lo, hi) ->
          if
            not
              (Datatype.equal ty Datatype.Number
              && Value.is_numeric lo && Value.is_numeric hi)
          then
            emit
              (D.make D.Comparison_type clause "%s BETWEEN over non-numbers"
                 (target ()))
      | Cmp ((Like | Not_like) as op, v) ->
          if
            not
              (Datatype.equal ty Datatype.Text
              &&
              match v with
              | Value.Text _ -> true
              | Value.Null | Value.Int _ | Value.Float _ -> false)
          then
            emit
              (D.make D.Comparison_type clause "%s %s %s needs text operands"
                 (target ()) (cmp_to_string op) (Value.to_sql v))
      | Cmp ((Eq | Neq) as op, v) ->
          if not (Datatype.value_matches ty v) then
            emit
              (D.make D.Comparison_type clause "%s %s %s mixes types"
                 (target ()) (cmp_to_string op) (Value.to_sql v)))

(* --- predicate satisfiability --- *)

let same_target (p : pred) (q : pred) =
  equal_agg p.pr_agg q.pr_agg
  &&
  match p.pr_col, q.pr_col with
  | None, None -> true
  | Some a, Some b -> equal_col_ref a b
  | None, Some _ | Some _, None -> false

let pred_target (p : pred) =
  match p.pr_agg, p.pr_col with
  | Some a, Some c -> agg_to_string a ^ "(" ^ pp_col c ^ ")"
  | Some a, None -> agg_to_string a ^ "(*)"
  | None, Some c -> pp_col c
  | None, None -> "?"

(* Unsatisfiability of a final condition.  AND: the per-target meet over
   the abstract domain must be non-empty for every target (predicates on
   different targets cannot contradict in this dialect — no column-column
   comparisons).  OR: the whole condition is unsatisfiable only when every
   disjunct alone is. *)
let check_condition emit clause rule preds conn =
  match preds, conn with
  | [], _ -> ()
  | _, Or when List.length preds > 1 ->
      if
        List.for_all (fun p -> Domain.is_bot (Domain.of_rhs p.pr_rhs)) preds
      then
        emit (D.make rule clause "every disjunct is unsatisfiable on its own")
  | _, (And | Or) ->
      let rec targets acc = function
        | [] -> List.rev acc
        | p :: rest ->
            if List.exists (same_target p) acc then targets acc rest
            else targets (p :: acc) rest
      in
      List.iter
        (fun rep ->
          let dom =
            List.fold_left
              (fun d p ->
                if same_target rep p then Domain.meet d (Domain.of_rhs p.pr_rhs)
                else d)
              Domain.top preds
          in
          if Domain.is_bot dom then
            emit
              (D.make rule clause "predicates on %s cannot all hold"
                 (pred_target rep)))
        (targets [] preds)

(* --- redundancy (warnings) --- *)

let check_duplicate_preds emit clause preds =
  let rec go = function
    | [] -> ()
    | p :: rest ->
        if List.exists (equal_pred p) rest then
          emit
            (D.make D.Duplicate_predicate clause "duplicate predicate on %s"
               (pred_target p));
        go (List.filter (fun q -> not (equal_pred p q)) rest)
  in
  go preds

(* Subsumption under a decided AND: a predicate whose satisfying set
   contains a strictly stronger sibling on the same target adds nothing.
   [top] never subsumes — "everything includes X" is not evidence of
   redundancy — and the implied side must abstract {e exactly}
   ([Domain.exact_rhs]): a LIKE band over-approximates, so containment in
   it proves nothing about the LIKE itself. *)
let check_subsumed emit clause preds conn =
  match conn with
  | Some And when List.length preds >= 2 ->
      let arr = Array.of_list preds in
      let doms = Array.map (fun p -> Domain.of_rhs p.pr_rhs) arr in
      let implied j = Domain.exact_rhs arr.(j).pr_rhs && not (Domain.is_top doms.(j)) in
      let n = Array.length arr in
      for i = 0 to n - 1 do
        for j = 0 to n - 1 do
          if
            i <> j && j > i (* report each pair once, blaming the weaker *)
            && same_target arr.(i) arr.(j)
            && not (equal_pred arr.(i) arr.(j))
          then
            if implied j && Domain.leq doms.(i) doms.(j)
            then
              emit
                (D.make D.Subsumed_predicate clause "%s is implied by %s"
                   (Duosql.Pretty.pred arr.(j))
                   (Duosql.Pretty.pred arr.(i)))
            else if
              implied i && Domain.leq doms.(j) doms.(i)
            then
              emit
                (D.make D.Subsumed_predicate clause "%s is implied by %s"
                   (Duosql.Pretty.pred arr.(i))
                   (Duosql.Pretty.pred arr.(j)))
        done
      done
  | Some (And | Or) | None -> ()

let equal_proj (a : proj) (b : proj) =
  equal_agg a.p_agg b.p_agg && a.p_distinct = b.p_distinct
  && (match a.p_col, b.p_col with
     | None, None -> true
     | Some x, Some y -> equal_col_ref x y
     | None, Some _ | Some _, None -> false)

let check_duplicate_projs emit projs =
  let rec go = function
    | [] -> ()
    | p :: rest ->
        if List.exists (equal_proj p) rest then
          emit
            (D.make D.Duplicate_projection D.Select "duplicate projection %s"
               (Duosql.Pretty.proj p));
        go (List.filter (fun q -> not (equal_proj p q)) rest)
  in
  go projs

(* --- structural rules on the FROM clause --- *)

let equal_edge (a : join_edge) (b : join_edge) =
  (equal_col_ref a.j_from b.j_from && equal_col_ref a.j_to b.j_to)
  || (equal_col_ref a.j_from b.j_to && equal_col_ref a.j_to b.j_from)

(* Warnings on join edges fire on any decided FROM clause — they only
   deprioritize, so the open-world discipline does not apply. *)
let check_join_redundancy emit (f : from_clause) =
  List.iter
    (fun (e : join_edge) ->
      if equal_col_ref e.j_from e.j_to then
        emit
          (D.make D.Self_join D.From "join of %s with itself is always true"
             (pp_col e.j_from)))
    f.f_joins;
  let rec go = function
    | [] -> ()
    | e :: rest ->
        if List.exists (equal_edge e) rest then
          emit
            (D.make D.Duplicate_join D.From "duplicate join on %s = %s"
               (pp_col e.j_from) (pp_col e.j_to));
        go (List.filter (fun e' -> not (equal_edge e e')) rest)
  in
  go f.f_joins

(* Structural errors need the final FROM clause: join-path construction
   may replace the clause wholesale on a later decision.  The checks are
   split by what they read — [check_from_tables] and
   [check_from_connectivity] depend on the clause alone (memoizable),
   [check_from_referenced] also reads the other clauses. *)
let check_from_tables pre emit (f : from_clause) =
  List.iter
    (fun t ->
      if not (Hashtbl.mem pre.p_tables t) then
        emit (D.make D.Unknown_table D.From "no table named %s" t))
    f.f_tables;
  List.iter
    (fun (e : join_edge) ->
      check_col pre emit D.From e.j_from;
      check_col pre emit D.From e.j_to;
      List.iter
        (fun c ->
          if not (List.mem c.cr_table f.f_tables) then
            emit
              (D.make D.Table_not_joined D.From "join references %s outside FROM"
                 (pp_col c)))
        [ e.j_from; e.j_to ])
    f.f_joins

let check_from_referenced emit (f : from_clause) referenced =
  List.iter
    (fun t ->
      if not (List.mem t f.f_tables) then
        emit
          (D.make D.Table_not_joined D.From
             "%s is referenced but not in FROM" t))
    referenced

(* Connectivity: every FROM table reachable from the first through the
   join edges.  A disconnected clause is rejected by the execution
   planner, so it is an error, not a style nit. *)
let check_from_connectivity emit (f : from_clause) =
  match f.f_tables with
  | [] | [ _ ] -> ()
  | first :: _ ->
      let reached = Hashtbl.create 8 in
      Hashtbl.replace reached first ();
      let changed = ref true in
      while !changed do
        changed := false;
        List.iter
          (fun (e : join_edge) ->
            let a = e.j_from.cr_table and b = e.j_to.cr_table in
            let touch x y =
              if Hashtbl.mem reached x && not (Hashtbl.mem reached y) then begin
                Hashtbl.replace reached y ();
                changed := true
              end
            in
            touch a b;
            touch b a)
          f.f_joins
      done;
      List.iter
        (fun t ->
          if not (Hashtbl.mem reached t) then
            emit
              (D.make D.Disconnected_from D.From
                 "%s is not connected to %s by the join edges" t first))
        f.f_tables

let check_from_structure pre emit (f : from_clause) ~referenced =
  check_from_tables pre emit f;
  check_from_referenced emit f referenced;
  check_from_connectivity emit f

(* --- the analysis: every rule over one outline --- *)

let referenced_tables (o : Outline.t) =
  let cols =
    List.filter_map (fun p -> p.p_col) o.Outline.o_select
    @ List.filter_map (fun p -> p.pr_col) o.Outline.o_where
    @ o.Outline.o_group_by
    @ List.filter_map (fun p -> p.pr_col) o.Outline.o_having
    @ List.filter_map (fun i -> i.o_col) o.Outline.o_order_by
  in
  List.sort_uniq String.compare (List.map (fun c -> c.cr_table) cols)

let is_eq_rhs = function
  | Cmp (Eq, _) -> true
  | Cmp ((Neq | Lt | Le | Gt | Ge | Like | Not_like), _) | Between _ -> false

(* Per-clause error rules, shared between the diagnostic pass
   ([run_rules]) and the memoized boolean fast path ([has_errors_p]).
   Each reads nothing but its own clause and the prepared schema, which
   is what makes the one-slot memos sound. *)

let select_rules pre emit projs =
  List.iter
    (fun (p : proj) ->
      Option.iter (check_col pre emit D.Select) p.p_col;
      check_agg pre emit D.Select p.p_agg p.p_col)
    projs

let pred_rules pre emit clause preds =
  List.iter
    (fun (p : pred) ->
      Option.iter (check_col pre emit clause) p.pr_col;
      check_agg pre emit clause p.pr_agg p.pr_col;
      check_pred_types pre emit clause p)
    preds

let group_rules pre emit cols = List.iter (check_col pre emit D.Group_by) cols

let group_pk_rules pre emit cols =
  List.iter
    (fun c ->
      if Hashtbl.mem pre.p_pks (c.cr_table, c.cr_col) then
        emit
          (D.make D.Group_by_primary_key D.Group_by
             "grouping by primary key %s makes every group a single row"
             (pp_col c)))
    cols

let order_rules pre emit items =
  List.iter
    (fun (i : order_item) ->
      Option.iter (check_col pre emit D.Order_by) i.o_col;
      check_agg pre emit D.Order_by i.o_agg i.o_col)
    items

(* The two cross-clause warning rules, for a final WHERE and a final
   non-empty GROUP BY respectively. *)
let constant_output_rule emit (o : Outline.t) =
  match o.Outline.o_where_conn, o.Outline.o_where with
  | _, [] | Some Or, _ :: _ :: _ -> ()
  | (Some (And | Or) | None), _ ->
      List.iter
        (fun (p : proj) ->
          match p.p_agg, p.p_col with
          | None, Some c ->
              if
                List.exists
                  (fun pr ->
                    match pr.pr_agg, pr.pr_col, pr.pr_rhs with
                    | None, Some pc, rhs -> is_eq_rhs rhs && equal_col_ref c pc
                    | Some _, _, _ | None, None, _ -> false)
                  o.Outline.o_where
              then
                emit
                  (D.make D.Constant_output D.Select
                     "%s is pinned to a constant by WHERE" (pp_col c))
          | (None | Some _), _ -> ())
        o.Outline.o_select

let order_unprojected_rule emit (o : Outline.t) =
  List.iter
    (fun (i : order_item) ->
      match i.o_agg, i.o_col with
      | None, Some c ->
          if
            (not (List.exists (equal_col_ref c) o.Outline.o_group_by))
            && not
                 (List.exists
                    (fun (p : proj) ->
                      p.p_agg = None
                      && match p.p_col with Some pc -> equal_col_ref pc c | None -> false)
                    o.Outline.o_select)
          then
            emit
              (D.make D.Order_by_unprojected D.Order_by
                 "ordering a grouped query by ungrouped column %s" (pp_col c))
      | (None | Some _), _ -> ())
    o.Outline.o_order_by

(* Every rule, in order: the error rules, then the warning rules.  The
   cascade's boolean fast path ([has_errors_p]) and the memoized
   warning count ([count_warnings_p]) run their own halves. *)
let run_rules pre (o : Outline.t) emit =
  let { Outline.o_select; o_select_final; o_from; o_from_final; o_where;
        o_where_conn; o_where_final; o_group_by; o_group_final; o_having;
        o_having_conn; o_having_final; o_order_by; o_order_final; o_limit;
        o_limit_final = _ } = o in
  begin
    (* 1. schema/type checks on every decided reference: decided clause
       parts persist along every completion, so these fire eagerly. *)
    select_rules pre emit o_select;
    pred_rules pre emit D.Where o_where;
    group_rules pre emit o_group_by;
    pred_rules pre emit D.Having o_having;
    order_rules pre emit o_order_by;
    (* 2. predicate satisfiability, once the condition is final (an open
       OR could still repair an inconsistent conjunction). *)
    if o_where_final then
      Option.iter
        (check_condition emit D.Where D.Unsatisfiable_where o_where)
        o_where_conn;
    if o_having_final then
      Option.iter
        (check_condition emit D.Having D.Unsatisfiable_having o_having)
        o_having_conn;
    (* 3. structure. *)
    (match o_from with
    | Some f ->
        if o_from_final then
          check_from_structure pre emit f ~referenced:(referenced_tables o)
    | None -> ());
    let has_agg = List.exists (fun p -> Option.is_some p.p_agg) o_select in
    let has_plain = List.exists (fun p -> p.p_agg = None) o_select in
    if
      o_select_final && o_group_final && o_group_by = [] && has_agg
      && has_plain
    then
      emit
        (D.make D.Ungrouped_aggregation D.Select
           "aggregated and plain projections without GROUP BY");
    if o_select_final && o_group_final && o_group_by <> [] then
      List.iter
        (fun (p : proj) ->
          match p.p_agg, p.p_col with
          | None, Some c ->
              if not (List.exists (equal_col_ref c) o_group_by) then
                emit
                  (D.make D.Projection_not_grouped D.Select
                     "%s is projected but not grouped" (pp_col c))
          | (None | Some _), _ -> ())
        o_select;
    group_pk_rules pre emit o_group_by;
    if
      o_select_final && o_group_final && o_having_final && o_order_final
      && o_group_by <> [] && (not has_agg) && o_having = []
      && not (List.exists (fun i -> Option.is_some i.o_agg) o_order_by)
    then
      emit
        (D.make D.Unnecessary_group_by D.Group_by
           "GROUP BY without any aggregate");
    match o_limit with
    | Some n when n <= 0 ->
        emit (D.make D.Nonpositive_limit D.Limit "LIMIT %d returns nothing" n)
    | Some _ | None -> ()
  end;
  begin
    (* 4. redundancy: warnings fire on decided parts, no finality needed
       (they deprioritize rather than prune). *)
    Option.iter (check_join_redundancy emit) o_from;
    check_duplicate_preds emit D.Where o_where;
    check_duplicate_preds emit D.Having o_having;
    check_subsumed emit D.Where o_where o_where_conn;
    check_subsumed emit D.Having o_having o_having_conn;
    check_duplicate_projs emit o_select;
    if o_where_final then constant_output_rule emit o;
    if o_group_final && o_group_by <> [] then order_unprojected_rule emit o
  end

exception Found_error

(* Every rule in the errors section carries [D.Error] severity, so the
   fast path aborts on the first emission without inspecting it. *)
let raising_emit (_ : D.t) = raise Found_error

let memo_ok (m : 'k memo) (key : 'k) check =
  if m.m_key == key then m.m_ok
  else begin
    let ok = try check (); true with Found_error -> false in
    m.m_key <- key;
    m.m_ok <- ok;
    ok
  end

let sat_ok m clause rule preds conn =
  let cached_preds, cached_conn = m.m_key in
  if
    cached_preds == preds
    && (match cached_conn, conn with
       | And, And | Or, Or -> true
       | And, Or | Or, And -> false)
  then m.m_ok
  else begin
    let ok =
      try
        check_condition raising_emit clause rule preds conn;
        true
      with Found_error -> false
    in
    m.m_key <- (preds, conn);
    m.m_ok <- ok;
    ok
  end

(* Boolean twin of [check_from_referenced] that walks the clause columns
   directly instead of materialising a sorted table list per call. *)
let referenced_in_from (f : from_clause) (o : Outline.t) =
  let ok_col (c : col_ref) = List.mem c.cr_table f.f_tables in
  let ok_opt = function None -> true | Some c -> ok_col c in
  List.for_all (fun (p : proj) -> ok_opt p.p_col) o.Outline.o_select
  && List.for_all (fun (p : pred) -> ok_opt p.pr_col) o.Outline.o_where
  && List.for_all ok_col o.Outline.o_group_by
  && List.for_all (fun (p : pred) -> ok_opt p.pr_col) o.Outline.o_having
  && List.for_all (fun (i : order_item) -> ok_opt i.o_col) o.Outline.o_order_by

(* Boolean twin of the cross-clause grouping rules (ungrouped
   aggregation, projection-not-grouped, unnecessary GROUP BY). *)
let grouping_ok (o : Outline.t) =
  (not (o.Outline.o_select_final && o.Outline.o_group_final))
  ||
  let has_agg =
    List.exists (fun (p : proj) -> Option.is_some p.p_agg) o.Outline.o_select
  in
  match o.Outline.o_group_by with
  | [] ->
      (not has_agg)
      || not (List.exists (fun (p : proj) -> p.p_agg = None) o.Outline.o_select)
  | _ :: _ as group_by ->
      List.for_all
        (fun (p : proj) ->
          match p.p_agg, p.p_col with
          | None, Some c -> List.exists (equal_col_ref c) group_by
          | (None | Some _), _ -> true)
        o.Outline.o_select
      && (not (o.Outline.o_having_final && o.Outline.o_order_final)
         || has_agg
         || o.Outline.o_having <> []
         || List.exists
              (fun (i : order_item) -> Option.is_some i.o_agg)
              o.Outline.o_order_by)

let has_errors_p pre (o : Outline.t) =
  let ok =
    memo_ok pre.m_select o.Outline.o_select (fun () ->
        select_rules pre raising_emit o.Outline.o_select)
    && memo_ok pre.m_where o.Outline.o_where (fun () ->
           pred_rules pre raising_emit D.Where o.Outline.o_where)
    && memo_ok pre.m_group o.Outline.o_group_by (fun () ->
           group_rules pre raising_emit o.Outline.o_group_by;
           group_pk_rules pre raising_emit o.Outline.o_group_by)
    && memo_ok pre.m_having o.Outline.o_having (fun () ->
           pred_rules pre raising_emit D.Having o.Outline.o_having)
    && memo_ok pre.m_order o.Outline.o_order_by (fun () ->
           order_rules pre raising_emit o.Outline.o_order_by)
    && (o.Outline.o_where = []
       || (not o.Outline.o_where_final)
       ||
       match o.Outline.o_where_conn with
       | None -> true
       | Some conn ->
           sat_ok pre.m_where_sat D.Where D.Unsatisfiable_where
             o.Outline.o_where conn)
    && (o.Outline.o_having = []
       || (not o.Outline.o_having_final)
       ||
       match o.Outline.o_having_conn with
       | None -> true
       | Some conn ->
           sat_ok pre.m_having_sat D.Having D.Unsatisfiable_having
             o.Outline.o_having conn)
    && (match o.Outline.o_from with
       | Some f when o.Outline.o_from_final ->
           memo_ok pre.m_from f (fun () ->
               check_from_tables pre raising_emit f;
               check_from_connectivity raising_emit f)
           && referenced_in_from f o
       | Some _ | None -> true)
    && grouping_ok o
    && match o.Outline.o_limit with Some n -> n > 0 | None -> true
  in
  not ok

(* [raising_emit] does not read the severity, so it aborts on the first
   warning too. *)
let redundant_where (o : Outline.t) =
  o.Outline.o_where_final && o.Outline.o_where <> []
  &&
  try
    check_duplicate_preds raising_emit D.Where o.Outline.o_where;
    constant_output_rule raising_emit o;
    false
  with Found_error -> true

(* The warning half of [run_rules], counted through [w_emit] with the
   per-clause rules memoized like [has_errors_p]'s: each clause's count
   is keyed on the clause's physical identity (and a condition's on its
   connective too, which subsumption reads), so a caller that passes
   siblings' shared clauses re-counts only the clause a child changed.
   The two cross-clause rules are re-run, and only when their finality
   flags hold. *)
let same_conn a b =
  match a, b with
  | None, None | Some And, Some And | Some Or, Some Or -> true
  | (None | Some (And | Or)), _ -> false

let cond_warnings pre m clause preds conn =
  if m.w_preds == preds && same_conn m.w_conn conn then m.w_n
  else begin
    pre.w_hits := 0;
    check_duplicate_preds pre.w_emit clause preds;
    check_subsumed pre.w_emit clause preds conn;
    m.w_preds <- preds;
    m.w_conn <- conn;
    m.w_n <- !(pre.w_hits);
    m.w_n
  end

let clause_warnings pre m key rule =
  if m.c_key != key then begin
    pre.w_hits := 0;
    rule pre.w_emit key;
    m.c_key <- key;
    m.c_n <- !(pre.w_hits)
  end;
  m.c_n

let count_warnings_p pre (o : Outline.t) =
  let from_n =
    match o.Outline.o_from with
    | None -> 0
    | Some f -> clause_warnings pre pre.w_from f check_join_redundancy
  in
  let select_n = clause_warnings pre pre.w_select o.Outline.o_select check_duplicate_projs in
  let where_n = cond_warnings pre pre.w_where D.Where o.Outline.o_where o.Outline.o_where_conn in
  let having_n =
    cond_warnings pre pre.w_having D.Having o.Outline.o_having o.Outline.o_having_conn
  in
  pre.w_hits := 0;
  if o.Outline.o_where_final then constant_output_rule pre.w_emit o;
  if o.Outline.o_group_final && o.Outline.o_group_by <> [] then
    order_unprojected_rule pre.w_emit o;
  from_n + select_n + where_n + having_n + !(pre.w_hits)

let has_errors schema o = has_errors_p (prepare schema) o
let errors ds = List.filter D.is_error ds
let warnings ds = List.filter (fun d -> not (D.is_error d)) ds
let check_query schema q =
  let acc = ref [] in
  run_rules (prepare schema) (Outline.of_query q) (fun d -> acc := d :: !acc);
  List.rev !acc
