open Duosql.Ast
module Value = Duodb.Value
module Datatype = Duodb.Datatype
module Schema = Duodb.Schema
module Database = Duodb.Database
module Tsq = Duocore.Tsq

(* Seeded generators for the fuzz properties.  QCheck generators are plain
   functions of a [Random.State.t], so everything below is written in that
   state-passing style and composed at the end into QCheck arbitraries
   with printers and shrinkers (failures must print a minimal query/TSQ
   pair, so shrinking works on the query and sketch while keeping the
   generated database fixed). *)

type scenario = {
  sc_db : Database.t;
  sc_query : query;
  sc_tsq : Tsq.t;
}

let rint st lo hi = lo + Random.State.int st (hi - lo + 1)
let pick st arr = arr.(Random.State.int st (Array.length arr))
let pick_list st l = List.nth l (Random.State.int st (List.length l))
let chance st p = Random.State.float st 1.0 < p

let table_pool = [| "users"; "orders"; "items"; "events"; "venues" |]
let word_pool = [| "amber"; "birch"; "cedar"; "delta"; "ember"; "fjord"; "grove"; "iris" |]

let extra_col_pool =
  [| ("label", Datatype.Text); ("city", Datatype.Text); ("score", Datatype.Number);
     ("year", Datatype.Number); ("qty", Datatype.Number) |]

(* --- random schema: a tree of 2 to [max_tables] tables joined by FK-PK
   edges, each table's parent drawn among the earlier ones (so a wider
   tree often has multi-hop chains) --- *)

let gen_schema ?(max_tables = 3) st =
  let n = rint st 2 (min max_tables (Array.length table_pool)) in
  let names = Array.init n (fun i -> table_pool.(i)) in
  let parent = Array.init n (fun i -> if i = 0 then None else Some (Random.State.int st i)) in
  let extras st =
    let k = rint st 2 3 in
    let rec go acc =
      if List.length acc >= k then acc
      else
        let c = pick st extra_col_pool in
        if List.mem_assoc (fst c) acc then go acc else go (acc @ [ c ])
    in
    go []
  in
  let tables =
    Array.to_list
      (Array.mapi
         (fun i name ->
           let pk = (name ^ "_id", Datatype.Number) in
           let fk =
             match parent.(i) with
             | None -> []
             | Some j -> [ (names.(j) ^ "_ref", Datatype.Number) ]
           in
           Schema.table name ((pk :: fk) @ extras st) ~pk:[ name ^ "_id" ])
         names)
  in
  let fks =
    List.filter_map
      (fun i ->
        Option.map
          (fun j ->
            Schema.fk (names.(i), names.(j) ^ "_ref") (names.(j), names.(j) ^ "_id"))
          parent.(i))
      (List.init n Fun.id)
  in
  Schema.make ~name:"fuzzdb" tables fks

(* --- random database: small tables, valid-ish FKs, occasional NULLs --- *)

let gen_db st schema =
  let db = Database.create schema in
  List.iter
    (fun (tbl : Schema.table) ->
      let nrows = rint st 3 8 in
      let fk_target c =
        List.find_opt
          (fun fk ->
            String.equal fk.Schema.fk_table tbl.Schema.tbl_name
            && String.equal fk.Schema.fk_column c)
          schema.Schema.foreign_keys
      in
      for r = 1 to nrows do
        let row =
          List.map
            (fun (c : Schema.column) ->
              if List.mem c.Schema.col_name tbl.Schema.tbl_pk then Value.Int r
              else
                match fk_target c.Schema.col_name with
                | Some fk ->
                    if chance st 0.1 then Value.Null
                    else
                      let parent_rows =
                        Duodb.Table.row_count (Database.table_exn db fk.Schema.pk_table)
                      in
                      (* occasionally dangling: joins must simply drop it *)
                      Value.Int (rint st 1 (parent_rows + 1))
                | None -> (
                    match c.Schema.col_type with
                    | Datatype.Text ->
                        if chance st 0.08 then Value.Null
                        else Value.Text (pick st word_pool ^ string_of_int (rint st 0 3))
                    | Datatype.Number ->
                        if chance st 0.08 then Value.Null else Value.Int (rint st 0 40)))
            tbl.Schema.tbl_columns
        in
        Database.insert db ~table:tbl.Schema.tbl_name (Array.of_list row)
      done)
    schema.Schema.tables;
  db

(* --- random in-scope query over a connected FK subgraph --- *)

let sample_value st db (c : Schema.column) =
  let vs =
    List.rev
      (Array.fold_left
         (fun acc v -> if Value.is_null v then acc else v :: acc)
         []
         (Duodb.Table.column_array
            (Database.table_exn db c.Schema.col_table)
            c.Schema.col_name))
  in
  if vs = [] then None else Some (pick_list st vs)

let gen_query st db =
  let schema = Database.schema db in
  (* connected table subset, grown along FK edges; tables and joins kept
     in attach order so pretty-printing emits them verbatim *)
  let all_tables = List.map (fun t -> t.Schema.tbl_name) schema.Schema.tables in
  let start = pick_list st all_tables in
  let rec grow chosen joins =
    if List.length chosen >= 3 || not (chance st 0.5) then (chosen, joins)
    else
      let frontier =
        List.filter
          (fun fk ->
            List.mem fk.Schema.fk_table chosen <> List.mem fk.Schema.pk_table chosen)
          schema.Schema.foreign_keys
      in
      match frontier with
      | [] -> (chosen, joins)
      | _ ->
          let fk = pick_list st frontier in
          let nt =
            if List.mem fk.Schema.fk_table chosen then fk.Schema.pk_table
            else fk.Schema.fk_table
          in
          let j =
            { j_from = col fk.Schema.fk_table fk.Schema.fk_column;
              j_to = col fk.Schema.pk_table fk.Schema.pk_column }
          in
          grow (chosen @ [ nt ]) (joins @ [ j ])
  in
  let tables, joins = grow [ start ] [] in
  let from = { f_tables = tables; f_joins = joins } in
  let cols =
    List.concat_map
      (fun t -> (Schema.find_table_exn schema t).Schema.tbl_columns)
      tables
  in
  let pick_col () = pick_list st cols in
  (* SELECT *)
  let nproj = rint st 1 3 in
  let projs =
    List.init nproj (fun _ ->
        if chance st 0.12 then count_star
        else
          let c = pick_col () in
          let cr = col c.Schema.col_table c.Schema.col_name in
          if chance st 0.3 then
            let aggs =
              match c.Schema.col_type with
              | Datatype.Number -> [ Count; Sum; Avg; Min; Max ]
              | Datatype.Text -> [ Count; Min; Max ]
            in
            let a = pick_list st aggs in
            { p_agg = Some a; p_col = Some cr; p_distinct = a = Count && chance st 0.25 }
          else proj_col cr)
  in
  let has_agg = List.exists (fun p -> Option.is_some p.p_agg) projs in
  (* WHERE *)
  let gen_pred () =
    let c = pick_col () in
    let cr = col c.Schema.col_table c.Schema.col_name in
    match c.Schema.col_type with
    | Datatype.Text ->
        let v =
          match sample_value st db c with
          | Some (Value.Text s) -> s
          | Some (Value.Null | Value.Int _ | Value.Float _) | None ->
              pick st word_pool
        in
        let op = pick_list st [ Eq; Neq; Like; Not_like ] in
        let rhs =
          match op with
          | Like | Not_like ->
              if chance st 0.5 then Value.Text ("%" ^ String.sub v 0 (min 3 (String.length v)) ^ "%")
              else Value.Text v
          | Eq | Neq | Lt | Le | Gt | Ge -> Value.Text v
        in
        { pr_agg = None; pr_col = Some cr; pr_rhs = Cmp (op, rhs) }
    | Datatype.Number ->
        let v =
          match sample_value st db c with
          | Some (Value.Int x) -> x
          | Some (Value.Null | Value.Float _ | Value.Text _) | None ->
              rint st 0 40
        in
        if chance st 0.2 then
          let lo = v - rint st 0 5 in
          between cr (Value.Int lo) (Value.Int (v + rint st 0 5))
        else
          let op = pick_list st [ Eq; Neq; Lt; Le; Gt; Ge ] in
          pred cr op (Value.Int v)
  in
  let where =
    let n = if chance st 0.45 then 0 else if chance st 0.65 then 1 else 2 in
    if n = 0 then None
    else
      Some
        { c_preds = List.init n (fun _ -> gen_pred ());
          c_conn = (if chance st 0.7 then And else Or) }
  in
  (* GROUP BY a plainly projected column *)
  let plain_cols = List.filter_map (fun p -> if p.p_agg = None then p.p_col else None) projs in
  let group_by =
    if plain_cols <> [] && chance st (if has_agg then 0.7 else 0.2) then
      [ List.hd plain_cols ]
    else []
  in
  (* HAVING only on grouped/aggregated queries *)
  let having =
    if (group_by <> [] && chance st 0.4) || (has_agg && group_by = [] && chance st 0.15)
    then
      let p =
        if chance st 0.6 then
          { pr_agg = Some Count; pr_col = None;
            pr_rhs = Cmp (pick_list st [ Eq; Lt; Le; Gt; Ge ], Value.Int (rint st 0 4)) }
        else
          let numeric =
            List.filter (fun c -> c.Schema.col_type = Datatype.Number) cols
          in
          match numeric with
          | [] ->
              { pr_agg = Some Count; pr_col = None; pr_rhs = Cmp (Ge, Value.Int 1) }
          | _ ->
              let c = pick_list st numeric in
              { pr_agg = Some (pick_list st [ Sum; Avg; Min; Max ]);
                pr_col = Some (col c.Schema.col_table c.Schema.col_name);
                pr_rhs = Cmp (pick_list st [ Lt; Le; Gt; Ge ], Value.Int (rint st 0 60)) }
      in
      Some { c_preds = [ p ]; c_conn = And }
    else None
  in
  let aggregated = has_agg || group_by <> [] || having <> None in
  (* ORDER BY *)
  let order_by =
    if not (chance st 0.4) then []
    else
      let dir = if chance st 0.5 then Asc else Desc in
      if aggregated then
        let p = pick_list st projs in
        [ { o_agg = p.p_agg; o_col = p.p_col; o_dir = dir } ]
      else
        let c = pick_col () in
        [ { o_agg = None; o_col = Some (col c.Schema.col_table c.Schema.col_name); o_dir = dir } ]
  in
  let limit = if order_by <> [] && chance st 0.4 then Some (rint st 1 5) else if chance st 0.1 then Some (rint st 1 5) else None in
  {
    q_distinct = (not has_agg) && chance st 0.15;
    q_select = projs;
    q_from = from;
    q_where = where;
    q_group_by = group_by;
    q_having = having;
    q_order_by = order_by;
    q_limit = limit;
  }

(* --- random TSQ: derived from the query's true result, then sometimes
   mutated into a deliberately wrong sketch --- *)

let mutate_cell = function
  | Tsq.Exact (Value.Int v) -> Tsq.Exact (Value.Int (v + 13))
  | Tsq.Exact (Value.Text s) -> Tsq.Exact (Value.Text (s ^ "x"))
  | (Tsq.Exact (Value.Null | Value.Float _) | Tsq.Any | Tsq.Range _) as c -> c

let gen_tsq st db q =
  match Reference.run db q with
  | Error _ -> Tsq.empty
  | Ok res ->
      let types = List.map snd res.Duoengine.Executor.res_cols in
      let rows = res.Duoengine.Executor.res_rows in
      let tuples =
        if rows = [] || chance st 0.25 then []
        else begin
          let n = List.length rows in
          let i1 = Random.State.int st n in
          let idxs =
            if n >= 2 && chance st 0.7 then
              let i2 = Random.State.int st n in
              if i1 = i2 then [ i1 ] else List.sort compare [ i1; i2 ]
            else [ i1 ]
          in
          List.map
            (fun i ->
              Array.to_list
                (Array.map
                   (fun v ->
                     if Value.is_null v || chance st 0.2 then Tsq.Any
                     else if Value.is_numeric v && chance st 0.15 then
                       let f = int_of_float (Value.to_float v) in
                       Tsq.Range (Value.Int (f - 2), Value.Int (f + 3))
                     else Tsq.Exact v)
                   (List.nth rows i)))
            idxs
        end
      in
      let sorted = q.q_order_by <> [] || chance st 0.1 in
      let limit =
        match q.q_limit with
        | Some n -> if chance st 0.7 then n + rint st 0 2 else max 1 (n - 1)
        | None -> if chance st 0.1 then rint st 1 3 else 0
      in
      (* mutations: deliberately wrong sketches exercise the pruning
         paths; soundness is about stage consistency, not satisfiability *)
      let tuples =
        if tuples <> [] && chance st 0.3 then
          match tuples with
          | t0 :: rest -> List.map mutate_cell t0 :: rest
          | [] -> tuples
        else tuples
      in
      let negatives =
        if rows <> [] && chance st 0.2 then
          [ Array.to_list (Array.map (fun v -> Tsq.Exact v) (List.hd rows)) ]
        else []
      in
      let min_support =
        if List.length tuples >= 2 && chance st 0.3 then Some 1 else None
      in
      Tsq.make ~types ~tuples ~sorted ~limit ~negatives ?min_support ()

let gen_scenario ?max_tables st =
  let schema = gen_schema ?max_tables st in
  let db = gen_db st schema in
  let q = gen_query st db in
  { sc_db = db; sc_query = q; sc_tsq = gen_tsq st db q }

(* --- deterministic literal seeding for guidance contexts --- *)

(* The guidance model only proposes predicate values drawn from the NLQ's
   literal set; hand it a few values from the database (plus the query's
   own literals, added by callers) so WHERE/HAVING branches are populated. *)
let seed_literals db =
  let schema = Database.schema db in
  let texts = ref [] and nums = ref [] in
  List.iter
    (fun (tbl : Schema.table) ->
      let t = Database.table_exn db tbl.Schema.tbl_name in
      List.iter
        (fun (c : Schema.column) ->
          Array.iter
            (fun v ->
              match v with
              | Value.Text _ when List.length !texts < 2 && not (List.mem v !texts) ->
                  texts := !texts @ [ v ]
              | Value.Int _ when List.length !nums < 3 && not (List.mem v !nums) ->
                  nums := !nums @ [ v ]
              | Value.Null | Value.Int _ | Value.Float _ | Value.Text _ -> ())
            (Duodb.Table.column_array t c.Schema.col_name))
        tbl.Schema.tbl_columns)
    schema.Schema.tables;
  !texts @ !nums

(* --- printing and shrinking --- *)

let print_scenario sc =
  let schema = Database.schema sc.sc_db in
  let sizes =
    String.concat ", "
      (List.map
         (fun (t : Schema.table) ->
           Printf.sprintf "%s:%d rows" t.Schema.tbl_name
             (Duodb.Table.row_count (Database.table_exn sc.sc_db t.Schema.tbl_name)))
         schema.Schema.tables)
  in
  Printf.sprintf "db {%s}\nquery: %s\ntsq: %s" sizes
    (Duosql.Pretty.query sc.sc_query)
    (Format.asprintf "%a" Tsq.pp sc.sc_tsq)

(* Query shrinking: drop clauses one at a time, then try truncating the
   join path to a prefix that still covers every referenced table.  The
   database and sketch stay fixed so a failing case stays failing for the
   same reason. *)
let shrink_query (q : query) =
  let drop_clauses =
    (if q.q_limit <> None then [ { q with q_limit = None } ] else [])
    @ (if q.q_order_by <> [] then [ { q with q_order_by = [] } ] else [])
    @ (if q.q_having <> None then [ { q with q_having = None } ] else [])
    @ (if q.q_group_by <> [] then [ { q with q_group_by = [] } ] else [])
    @ (if q.q_distinct then [ { q with q_distinct = false } ] else [])
    @ (match q.q_where with
      | None -> []
      | Some { c_preds = [ _ ]; _ } -> [ { q with q_where = None } ]
      | Some cond ->
          List.mapi
            (fun i _ ->
              { q with
                q_where =
                  Some
                    { cond with
                      c_preds = List.filteri (fun j _ -> j <> i) cond.c_preds } })
            cond.c_preds)
    @ (if List.length q.q_select > 1 then
         [ { q with
             q_select = List.filteri (fun i _ -> i < List.length q.q_select - 1) q.q_select } ]
       else [])
  in
  let table_prefixes =
    let n = List.length q.q_from.f_tables in
    List.filter_map
      (fun k ->
        let tables = List.filteri (fun i _ -> i < k) q.q_from.f_tables in
        let q' =
          { q with
            q_from =
              { f_tables = tables;
                f_joins = List.filteri (fun i _ -> i < k - 1) q.q_from.f_joins } }
        in
        if List.for_all (fun t -> List.mem t tables) (referenced_tables q') then
          Some q'
        else None)
      (List.init (max 0 (n - 1)) (fun i -> i + 1))
  in
  drop_clauses @ table_prefixes

let shrink_tsq (t : Tsq.t) =
  (if t.Tsq.negatives <> [] then [ { t with Tsq.negatives = [] } ] else [])
  @ (match t.Tsq.tuples with
    | [] -> []
    | _ :: rest -> [ { t with Tsq.tuples = rest } ])
  @ (if t.Tsq.min_support <> None then [ { t with Tsq.min_support = None } ] else [])

let shrink_scenario sc yield =
  List.iter
    (fun q -> yield { sc with sc_query = q })
    (shrink_query sc.sc_query);
  List.iter
    (fun t -> yield { sc with sc_tsq = t })
    (shrink_tsq sc.sc_tsq)

let arb_scenario =
  QCheck.make ~print:print_scenario ~shrink:shrink_scenario gen_scenario
