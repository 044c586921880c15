open Duosql.Ast
module Value = Duodb.Value
module Datatype = Duodb.Datatype

type violation =
  | Inconsistent_predicates
  | Constant_output_column
  | Ungrouped_aggregation
  | Singleton_groups
  | Unnecessary_group_by
  | Aggregate_type_error
  | Type_comparison_error

let violation_to_string = function
  | Inconsistent_predicates -> "inconsistent predicates"
  | Constant_output_column -> "constant output column"
  | Ungrouped_aggregation -> "ungrouped aggregation"
  | Singleton_groups -> "GROUP BY with singleton groups"
  | Unnecessary_group_by -> "unnecessary GROUP BY"
  | Aggregate_type_error -> "aggregate type usage"
  | Type_comparison_error -> "faulty type comparison"

let column_type schema c =
  match Duodb.Schema.find_column schema ~table:c.cr_table c.cr_col with
  | Some col -> Some col.Duodb.Schema.col_type
  | None -> None

let agg_type_ok schema agg col =
  match agg, col with
  | None, _ -> true
  | Some Count, _ -> true
  | Some (Sum | Avg | Min | Max), None -> false
  | Some (Sum | Avg | Min | Max), Some c -> (
      match column_type schema c with
      | Some Datatype.Number -> true
      | Some Datatype.Text | None -> false)

let projection_types_ok schema p = agg_type_ok schema p.p_agg p.p_col

let predicate_types_ok schema p =
  agg_type_ok schema p.pr_agg p.pr_col
  &&
  (* The compared type: the aggregate's output type, or the column type. *)
  let cmp_type =
    match p.pr_agg with
    | Some (Count | Sum | Avg) -> Some Datatype.Number
    | Some (Min | Max) | None -> Option.bind p.pr_col (column_type schema)
  in
  match cmp_type with
  | None -> false
  | Some ty -> (
      match p.pr_rhs with
      | Cmp ((Lt | Le | Gt | Ge), v) ->
          Datatype.equal ty Datatype.Number && Value.is_numeric v
      | Between (lo, hi) ->
          Datatype.equal ty Datatype.Number && Value.is_numeric lo && Value.is_numeric hi
      | Cmp ((Like | Not_like), v) -> (
          Datatype.equal ty Datatype.Text
          &&
          match v with
          | Value.Text _ -> true
          | Value.Null | Value.Int _ | Value.Float _ -> false)
      | Cmp ((Eq | Neq), v) -> Datatype.value_matches ty v)

(* Interval view of a predicate on a totally ordered domain, for
   satisfiability of AND-conjunctions on one column.  Neq/Not_like are
   treated as always satisfiable against the rest. *)
type interval = {
  lo : Value.t option;
  lo_strict : bool;
  hi : Value.t option;
  hi_strict : bool;
}

let full = { lo = None; lo_strict = false; hi = None; hi_strict = false }

let interval_of_pred p =
  match p.pr_rhs with
  | Cmp (Eq, v) -> Some { lo = Some v; lo_strict = false; hi = Some v; hi_strict = false }
  | Cmp (Lt, v) -> Some { full with hi = Some v; hi_strict = true }
  | Cmp (Le, v) -> Some { full with hi = Some v }
  | Cmp (Gt, v) -> Some { full with lo = Some v; lo_strict = true }
  | Cmp (Ge, v) -> Some { full with lo = Some v }
  | Between (lo, hi) -> Some { lo = Some lo; lo_strict = false; hi = Some hi; hi_strict = false }
  | Cmp ((Neq | Like | Not_like), _) -> None

let interval_nonempty a b =
  let lo, lo_strict =
    match a.lo, b.lo with
    | None, None -> (None, false)
    | Some v, None -> (Some v, a.lo_strict)
    | None, Some v -> (Some v, b.lo_strict)
    | Some va, Some vb ->
        let c = Value.compare va vb in
        if c > 0 then (Some va, a.lo_strict)
        else if c < 0 then (Some vb, b.lo_strict)
        else (Some va, a.lo_strict || b.lo_strict)
  in
  let hi, hi_strict =
    match a.hi, b.hi with
    | None, None -> (None, false)
    | Some v, None -> (Some v, a.hi_strict)
    | None, Some v -> (Some v, b.hi_strict)
    | Some va, Some vb ->
        let c = Value.compare va vb in
        if c < 0 then (Some va, a.hi_strict)
        else if c > 0 then (Some vb, b.hi_strict)
        else (Some va, a.hi_strict || b.hi_strict)
  in
  match lo, hi with
  | Some l, Some h ->
      let c = Value.compare l h in
      c < 0 || (c = 0 && (not lo_strict) && not hi_strict)
  | _ -> true

let same_target p q =
  equal_agg p.pr_agg q.pr_agg
  &&
  match p.pr_col, q.pr_col with
  | None, None -> true
  | Some a, Some b -> equal_col_ref a b
  | None, Some _ | Some _, None -> false

let condition_consistent cond =
  (* Exact duplicates are redundant under either connective. *)
  let rec no_dups = function
    | [] -> true
    | p :: rest -> (not (List.exists (equal_pred p) rest)) && no_dups rest
  in
  no_dups cond.c_preds
  && (cond.c_conn = Or
     ||
     (* AND: per-target interval intersections must be non-empty, and two
        different equalities on one target contradict. *)
     let rec pairs_ok = function
       | [] -> true
       | p :: rest ->
           List.for_all
             (fun q ->
               if not (same_target p q) then true
               else
                 match interval_of_pred p, interval_of_pred q with
                 | Some a, Some b -> interval_nonempty a b
                 | _ -> true)
             rest
           && pairs_ok rest
     in
     pairs_ok cond.c_preds)

let no_constant_projection projs where =
  match where with
  | None -> true
  | Some cond ->
      cond.c_conn = Or && List.length cond.c_preds > 1
      || List.for_all
           (fun p ->
             match p.p_agg, p.p_col with
             | None, Some c ->
                 not
                   (List.exists
                      (fun pr ->
                        match pr.pr_agg, pr.pr_col, pr.pr_rhs with
                        | None, Some pc, Cmp (Eq, _) -> equal_col_ref c pc
                        | ( None,
                            Some _,
                            ( Cmp ((Neq | Lt | Le | Gt | Ge | Like | Not_like), _)
                            | Between _ ) )
                        | None, None, _
                        | Some _, _, _ ->
                            false)
                      cond.c_preds)
             | _ -> true)
           projs

let check_query schema q =
  let ( >>= ) r f = match r with Ok () -> f () | Error _ as e -> e in
  let check cond v = if cond then Ok () else Error v in
  check (List.for_all (projection_types_ok schema) q.q_select) Aggregate_type_error
  >>= fun () ->
  let all_preds =
    Option.fold ~none:[] ~some:(fun c -> c.c_preds) q.q_where
    @ Option.fold ~none:[] ~some:(fun c -> c.c_preds) q.q_having
  in
  check (List.for_all (predicate_types_ok schema) all_preds) Type_comparison_error
  >>= fun () ->
  check
    (Option.fold ~none:true ~some:condition_consistent q.q_where
    && Option.fold ~none:true ~some:condition_consistent q.q_having)
    Inconsistent_predicates
  >>= fun () ->
  check (no_constant_projection q.q_select q.q_where) Constant_output_column
  >>= fun () ->
  let has_agg_proj = List.exists (fun p -> Option.is_some p.p_agg) q.q_select in
  let has_plain_proj = List.exists (fun p -> p.p_agg = None) q.q_select in
  check
    (not (q.q_group_by = [] && has_agg_proj && has_plain_proj))
    Ungrouped_aggregation
  >>= fun () ->
  if q.q_group_by = [] then Ok ()
  else
    let agg_elsewhere =
      Option.is_some q.q_having
      || List.exists (fun o -> Option.is_some o.o_agg) q.q_order_by
    in
    check (has_agg_proj || agg_elsewhere) Unnecessary_group_by >>= fun () ->
    check
      (not
         (List.exists
            (fun c -> Duodb.Schema.is_pk_column schema ~table:c.cr_table c.cr_col)
            q.q_group_by))
      Singleton_groups
    >>= fun () ->
    check
      (List.for_all
         (fun p ->
           match p.p_agg, p.p_col with
           | None, Some c -> List.exists (equal_col_ref c) q.q_group_by
           | _ -> true)
         q.q_select)
      Ungrouped_aggregation

let catalogue =
  [
    ( "Inconsistent predicates",
      "SELECT name FROM actor WHERE name = 'Tom Hanks' AND name = 'Brad Pitt'",
      "SELECT name FROM actor WHERE name = 'Tom Hanks' OR name = 'Brad Pitt'" );
    ( "Constant output column",
      "SELECT name, birth_yr FROM actor WHERE birth_yr = 1950",
      "SELECT name FROM actor WHERE birth_yr = 1950" );
    ( "Ungrouped aggregation",
      "SELECT birth_yr, COUNT(*) FROM actor",
      "SELECT birth_yr, COUNT(*) FROM actor GROUP BY birth_yr" );
    ( "GROUP BY with singleton groups",
      "SELECT aid, MAX(birth_yr) FROM actor GROUP BY aid",
      "SELECT aid, birth_yr FROM actor" );
    ( "Unnecessary GROUP BY",
      "SELECT name FROM actor GROUP BY name",
      "SELECT name FROM actor" );
    ( "Aggregate type usage",
      "SELECT AVG(name) FROM actor",
      "N/A" );
    ( "Faulty type comparison",
      "SELECT name FROM actor WHERE name >= 'Tom Hanks'",
      "N/A" );
    ( "Faulty type comparison (LIKE)",
      "SELECT birth_yr FROM actor WHERE birth_yr LIKE '%1956%'",
      "N/A" );
  ]
