open Duosql.Ast
module Value = Duodb.Value
module Datatype = Duodb.Datatype

type join_op = {
  jo_table : string;
  jo_left : string * string;
  jo_right : string;
}

type t = {
  plan_base : string;
  plan_joins : join_op list;
  plan_pushed : (string * condition) list;
  plan_residual : condition option;
  plan_canonical : (string * int) list;
  plan_in_order : bool;
  plan_key : string;
  plan_pushdown : bool;
}

(* --- canonical attach order ---

   Replicates the historical build loop on table names alone: start from
   the first FROM table, repeatedly take the first join edge (in clause
   order) with exactly one endpoint joined.  Row provenance is keyed to
   this order so any execution order can be sorted back to it. *)

let usable_edge joined pending e =
  let a = e.j_from.cr_table and b = e.j_to.cr_table in
  if List.mem a joined && (not (List.mem b joined)) && List.mem b pending then
    Some { jo_table = b; jo_left = (a, e.j_from.cr_col); jo_right = e.j_to.cr_col }
  else if List.mem b joined && (not (List.mem a joined)) && List.mem a pending
  then
    Some { jo_table = a; jo_left = (b, e.j_to.cr_col); jo_right = e.j_from.cr_col }
  else None

let canonical_steps (f : from_clause) =
  match f.f_tables with
  | [] -> Error "empty FROM clause"
  | first :: rest ->
      let rec attach acc joined pending =
        if pending = [] then Ok (first, List.rev acc)
        else
          match List.find_map (usable_edge joined pending) f.f_joins with
          | None -> Error "FROM clause is not a connected join tree"
          | Some op ->
              attach (op :: acc) (op.jo_table :: joined)
                (List.filter (fun x -> not (String.equal x op.jo_table)) pending)
      in
      attach [] [ first ] rest

(* --- predicate pushdown ---

   A predicate is pushable when evaluating it on a base row can neither
   raise nor disagree with post-join evaluation: plain single-column
   predicates with comparison/BETWEEN right-hand sides.  LIKE can raise on
   non-text operands, so it is pushed only when both the column and the
   pattern are text. *)

let pushable_table schema (p : pred) =
  match p.pr_agg, p.pr_col with
  | Some _, _ | None, None -> None
  | None, Some c -> (
      match Duodb.Schema.find_column schema ~table:c.cr_table c.cr_col with
      | None -> None
      | Some col -> (
          match p.pr_rhs with
          | Cmp ((Like | Not_like), rhs) -> (
              match col.Duodb.Schema.col_type, rhs with
              | Datatype.Text, Value.Text _ -> Some c.cr_table
              | (Datatype.Text | Datatype.Number),
                (Value.Null | Value.Int _ | Value.Float _ | Value.Text _) ->
                  None)
          | Cmp ((Eq | Neq | Lt | Le | Gt | Ge), _) | Between _ ->
              Some c.cr_table))

(* Split WHERE into per-table scan filters.  AND distributes over the join
   freely; OR only when every disjunct lives in one and the same table.
   Anything else keeps the whole condition residual. *)
let pushdown schema (f : from_clause) (where : condition option) =
  match where with
  | None -> ([], None)
  | Some cond -> (
      let tables = List.map (pushable_table schema) cond.c_preds in
      let all_pushable =
        List.for_all
          (function
            | Some t -> List.mem t f.f_tables
            | None -> false)
          tables
      in
      if not all_pushable then ([], Some cond)
      else
        match cond.c_conn with
        | And ->
            let by_table =
              List.filter_map
                (fun t ->
                  let preds =
                    List.filter
                      (fun p ->
                        match p.pr_col with
                        | Some c -> String.equal c.cr_table t
                        | None -> false)
                      cond.c_preds
                  in
                  if preds = [] then None
                  else Some (t, { c_preds = preds; c_conn = And }))
                (List.sort_uniq String.compare f.f_tables)
            in
            (by_table, None)
        | Or -> (
            match List.sort_uniq String.compare (List.filter_map Fun.id tables) with
            | [ t ] -> ([ (t, cond) ], None)
            | _ -> ([], Some cond)))

(* --- selectivity and join ordering --- *)

let selectivity (p : pred) =
  match p.pr_rhs with
  | Cmp (Eq, _) -> 0.05
  | Cmp (Neq, _) -> 0.9
  | Cmp ((Lt | Le | Gt | Ge), _) -> 0.4
  | Cmp (Like, _) -> 0.25
  | Cmp (Not_like, _) -> 0.9
  | Between _ -> 0.25

let estimate db pushed table =
  match Duodb.Database.table db table with
  | None -> infinity
  | Some tbl ->
      let n = float_of_int (Duodb.Table.row_count tbl) in
      let sel =
        match List.assoc_opt table pushed with
        | None -> 1.0
        | Some cond -> (
            match cond.c_conn with
            | And ->
                List.fold_left
                  (fun acc p -> acc *. selectivity p)
                  1.0 cond.c_preds
            | Or ->
                min 1.0
                  (List.fold_left
                     (fun acc p -> acc +. selectivity p)
                     0.0 cond.c_preds))
      in
      n *. sel

(* Join reordering applies only to proper join trees over known tables:
   exactly n-1 edges, all endpoints in FROM, connected.  There each
   pending table attaches through a unique edge regardless of order, so
   any attach sequence yields the same multiset of joined rows. *)
let is_proper_tree db (f : from_clause) =
  List.length f.f_joins = List.length f.f_tables - 1
  && List.for_all
       (fun e ->
         List.mem e.j_from.cr_table f.f_tables
         && List.mem e.j_to.cr_table f.f_tables)
       f.f_joins
  && List.for_all (fun t -> Option.is_some (Duodb.Database.table db t)) f.f_tables

let greedy_order db pushed (f : from_clause) canonical_pos =
  let cost t = estimate db pushed t in
  let pos t = List.assoc t canonical_pos in
  let better a b =
    let ca = cost a and cb = cost b in
    if ca < cb then true else if ca > cb then false else pos a < pos b
  in
  let base =
    List.fold_left
      (fun best t -> if better t best then t else best)
      (List.hd f.f_tables) (List.tl f.f_tables)
  in
  let rec attach acc joined pending =
    if pending = [] then Some (base, List.rev acc)
    else
      let candidates =
        List.filter_map (usable_edge joined pending) f.f_joins
      in
      match candidates with
      | [] -> None (* disconnected; caller falls back to canonical *)
      | c0 :: cs ->
          let op =
            List.fold_left
              (fun best c ->
                if better c.jo_table best.jo_table then c else best)
              c0 cs
          in
          attach (op :: acc) (op.jo_table :: joined)
            (List.filter (fun x -> not (String.equal x op.jo_table)) pending)
  in
  attach [] [ base ]
    (List.filter (fun x -> not (String.equal x base)) f.f_tables)

(* --- cache key --- *)

let from_key (f : from_clause) =
  String.concat ";" f.f_tables ^ "|"
  ^ String.concat ";"
      (List.map
         (fun j ->
           j.j_from.cr_table ^ "." ^ j.j_from.cr_col ^ "=" ^ j.j_to.cr_table
           ^ "." ^ j.j_to.cr_col)
         f.f_joins)

let pushed_key pushed =
  String.concat "&"
    (List.map
       (fun (t, cond) ->
         t ^ ":"
         ^ (match cond.c_conn with And -> "and:" | Or -> "or:")
         ^ String.concat ","
             (List.map Duosql.Pretty.pred cond.c_preds))
       pushed)

let plan db (q : query) =
  match canonical_steps q.q_from with
  | Error _ as e -> e
  | Ok (canon_base, canon_joins) ->
      let canonical_pos =
        List.mapi (fun i t -> (t, i))
          (canon_base :: List.map (fun op -> op.jo_table) canon_joins)
      in
      let schema = Duodb.Database.schema db in
      let pushed, residual = pushdown schema q.q_from q.q_where in
      let base, joins =
        if is_proper_tree db q.q_from then
          match greedy_order db pushed q.q_from canonical_pos with
          | Some (b, js) -> (b, js)
          | None -> (canon_base, canon_joins)
        else (canon_base, canon_joins)
      in
      let in_order =
        String.equal base canon_base
        && List.length joins = List.length canon_joins
        && List.for_all2
             (fun a b -> String.equal a.jo_table b.jo_table)
             joins canon_joins
      in
      Ok
        {
          plan_base = base;
          plan_joins = joins;
          plan_pushed = pushed;
          plan_residual = residual;
          plan_canonical = canonical_pos;
          plan_in_order = in_order;
          plan_key = from_key q.q_from ^ "||" ^ pushed_key pushed;
          plan_pushdown = pushed <> [];
        }
