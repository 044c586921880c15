open Duosql.Ast
module Value = Duodb.Value
module Datatype = Duodb.Datatype

(* Hashing on values directly avoids rendering SQL strings for every join
   bucket, group key, and DISTINCT check. *)
module Vkey = struct
  type t = Value.t list

  let equal a b = List.length a = List.length b && List.for_all2 Value.equal a b
  let hash vs = Hashtbl.hash (List.map Value.hash vs)
end

module Vtbl = Hashtbl.Make (Vkey)

(* Join buckets key on a single value; skipping the list wrapper saves an
   allocation per probe. *)
module V1tbl = Hashtbl.Make (struct
  type t = Value.t

  let equal = Value.equal
  let hash = Value.hash
end)

type resultset = {
  res_cols : (string * Datatype.t) list;
  res_rows : Value.t array list;
}

exception Exec_error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Exec_error s)) fmt

(* A joined relation, never materialized as wide rows: one row-id vector
   per FROM table, in slots by canonical attach position, so joined row
   [r] is the source rows [rel_ids.(s).(r)].  [rel_index] maps (table,
   column) to (slot, column position); cells are read from the tables'
   own row views.  Grouping and DISTINCT work on indices [0, rel_len). *)
type relation = {
  rel_index : (string * string, int * int) Hashtbl.t;
  rel_tables : Duodb.Table.t array;
  rel_ids : int array array;
  rel_len : int;
}

let cell rel (slot, j) r =
  (Duodb.Table.get rel.rel_tables.(slot) rel.rel_ids.(slot).(r)).(j)

(* Minimal growable array; OCaml < 5.2 has no Dynarray. *)
module Dyn = struct
  type 'a t = {
    mutable arr : 'a array;
    mutable len : int;
  }

  let create () = { arr = [||]; len = 0 }

  let push d x =
    if d.len = Array.length d.arr then begin
      let cap = if d.len = 0 then 16 else d.len * 2 in
      let arr = Array.make cap x in
      Array.blit d.arr 0 arr 0 d.len;
      d.arr <- arr
    end;
    d.arr.(d.len) <- x;
    d.len <- d.len + 1

  let to_array d = Array.sub d.arr 0 d.len

  (* Append [x] to [k]'s bucket in [tbl], opening the bucket on first
     sight; [on_new] sees each new bucket once, in first-seen order. *)
  let add_to ?(on_new = ignore) find add tbl k x =
    match find tbl k with
    | Some d -> push d x
    | None ->
        let d = create () in
        push d x;
        add tbl k d;
        on_new d
end

let column_type db c =
  match Duodb.Schema.find_column (Duodb.Database.schema db) ~table:c.cr_table c.cr_col with
  | Some col -> col.Duodb.Schema.col_type
  | None -> fail "unknown column %s.%s" c.cr_table c.cr_col

let table_columns db t =
  match Duodb.Schema.find_table (Duodb.Database.schema db) t with
  | Some ts -> ts.Duodb.Schema.tbl_columns
  | None -> fail "unknown table %s" t

let lookup rel c =
  match Hashtbl.find_opt rel.rel_index (c.cr_table, c.cr_col) with
  | Some i -> i
  | None -> fail "column %s.%s not in FROM clause" c.cr_table c.cr_col

(* Scalar predicate evaluation on a single joined row. *)
let eval_cmp op lhs rhs =
  if Value.is_null lhs || Value.is_null rhs then false
  else
    match op with
    | Eq -> Value.equal lhs rhs
    | Neq -> not (Value.equal lhs rhs)
    | Lt -> Value.compare lhs rhs < 0
    | Le -> Value.compare lhs rhs <= 0
    | Gt -> Value.compare lhs rhs > 0
    | Ge -> Value.compare lhs rhs >= 0
    | Like -> (
        match lhs, rhs with
        | Value.Text s, Value.Text p -> Value.like s ~pattern:p
        | (Value.Null | Value.Int _ | Value.Float _ | Value.Text _), _ ->
            fail "LIKE requires text operands")
    | Not_like -> (
        match lhs, rhs with
        | Value.Text s, Value.Text p -> not (Value.like s ~pattern:p)
        | (Value.Null | Value.Int _ | Value.Float _ | Value.Text _), _ ->
            fail "NOT LIKE requires text operands")

let eval_rhs rhs v =
  match rhs with
  | Cmp (op, lit) -> eval_cmp op v lit
  | Between (lo, hi) ->
      (not (Value.is_null v))
      && Value.compare v lo >= 0
      && Value.compare v hi <= 0

(* A condition's predicates [xs], each decided by [f], under [conn]. *)
let holds conn f xs =
  match conn with
  | And -> List.for_all f xs
  | Or -> List.exists f xs

let eval_where rel cond r =
  holds cond.c_conn
    (fun p ->
      match p.pr_agg, p.pr_col with
      | Some _, _ -> fail "aggregate predicate in WHERE"
      | None, None -> fail "missing column in WHERE predicate"
      | None, Some c -> eval_rhs p.pr_rhs (cell rel (lookup rel c) r))
    cond.c_preds

(* --- relation building (plan execution) --- *)

(* Pushed scan filter on a raw base-table row: positions are column
   indices within the table, so no relation lookup is needed. *)
let scan_filter tbl (cond : condition) =
  let compiled =
    List.map
      (fun p ->
        match p.pr_col with
        | Some c -> (Duodb.Table.column_index tbl c.cr_col, p.pr_rhs)
        | None -> fail "missing column in pushed predicate")
      cond.c_preds
  in
  fun row -> holds cond.c_conn (fun (i, rhs) -> eval_rhs rhs row.(i)) compiled

(* Matching row indices for an optional pushed condition: the vectorized
   kernel scan (zone-map block skipping, dictionary probes) when the
   condition compiles, the scalar row loop otherwise.  [None] means "all
   rows" — callers iterate [0, row_count) directly. *)
let scan_indices tbl cond_opt =
  match cond_opt with
  | None -> None
  | Some cond -> (
      match Kernel.select tbl cond with
      | Some idxs -> Some idxs
      | None ->
          let keep = scan_filter tbl cond in
          let out = Dyn.create () in
          let n = Duodb.Table.row_count tbl in
          for i = 0 to n - 1 do
            if keep (Duodb.Table.get tbl i) then Dyn.push out i
          done;
          Some (Dyn.to_array out))

(* Join-key index of one attached column: each non-null key maps to its
   rows in ascending id order, so probing it keeps table order within a
   key and in-order executions need no sort.  [ji_rows] is the table's
   row count at build time — an append makes the index stale. *)
type join_index = {
  ji_rows : int;
  ji_ids : int Dyn.t V1tbl.t;
}

let build_join_index tbl j =
  let ids = V1tbl.create 256 in
  let n = Duodb.Table.row_count tbl in
  for i = 0 to n - 1 do
    let v = (Duodb.Table.get tbl i).(j) in
    if not (Value.is_null v) then Dyn.add_to V1tbl.find_opt V1tbl.replace ids v i
  done;
  { ji_rows = n; ji_ids = ids }

(* Memoizes joined relations and join-key indexes.  [Error msg] relation
   entries memoize relations that exceeded the row bound, so repeated
   probes over an exploding join fail fast.  Relation keys come from the
   planner and cover FROM plus pushed predicates, so probes sharing a
   join tree and WHERE clause reuse one relation.  Join indexes are keyed
   by (table, column position) and rebuilt when the table's row count
   moved. *)
type relation_cache = {
  rc_tbl : (string, (relation, string) result) Hashtbl.t;
  rc_join : (string * int, join_index) Hashtbl.t;
  mutable rc_hits : int;
  mutable rc_misses : int;
  mutable rc_pushdown_builds : int;
  mutable rc_join_builds : int;
  mutable rc_join_hits : int;
}

let create_cache () =
  { rc_tbl = Hashtbl.create 64; rc_join = Hashtbl.create 16; rc_hits = 0;
    rc_misses = 0; rc_pushdown_builds = 0; rc_join_builds = 0; rc_join_hits = 0 }

let cache_stats c = (c.rc_hits, c.rc_misses, c.rc_pushdown_builds)

let join_index_stats c = (c.rc_join_builds, c.rc_join_hits)

let join_index cache t tbl j =
  match cache with
  | None -> build_join_index tbl j
  | Some c -> (
      match Hashtbl.find_opt c.rc_join (t, j) with
      | Some ji when ji.ji_rows = Duodb.Table.row_count tbl ->
          c.rc_join_hits <- c.rc_join_hits + 1;
          ji
      | Some _ | None ->
          let ji = build_join_index tbl j in
          c.rc_join_builds <- c.rc_join_builds + 1;
          Hashtbl.replace c.rc_join (t, j) ji;
          ji)

(* Build the joined relation following the plan's attach sequence.  Each
   step probes the attached table's join index with the left cell of
   every joined row so far and keeps the hits its pushed filter admits,
   gathering the earlier slots' row ids through the source-row vector.
   The slots' row ids are exactly the provenance (per-table source row,
   in canonical attach order) that sorts a reordered execution back to
   the historical nested-loop row order. *)
let build_relation ?cache ?(max_rows = max_int) db (plan : Planner.t) =
  let ntables = List.length plan.Planner.plan_canonical in
  let cpos t = List.assoc t plan.Planner.plan_canonical in
  let pushed = plan.Planner.plan_pushed in
  let rel_index = Hashtbl.create 16 in
  let attach t slot cols =
    List.iteri
      (fun i c -> Hashtbl.replace rel_index (t, c.Duodb.Schema.col_name) (slot, i))
      cols
  in
  (* base *)
  let base = plan.Planner.plan_base in
  let base_slot = cpos base in
  attach base base_slot (table_columns db base);
  let base_tbl = Duodb.Database.table_exn db base in
  let tables = Array.make ntables base_tbl in
  let ids = Array.make ntables [||] in
  ids.(base_slot) <-
    (match scan_indices base_tbl (List.assoc_opt base pushed) with
    | None -> Array.init (Duodb.Table.row_count base_tbl) Fun.id
    | Some idxs -> idxs);
  let len = ref (Array.length ids.(base_slot)) in
  let slots = ref [ base_slot ] in
  (* joins *)
  List.iter
    (fun (op : Planner.join_op) ->
      let t = op.Planner.jo_table in
      let cols = table_columns db t in
      let tbl = Duodb.Database.table_exn db t in
      let right_idx = Duodb.Table.column_index tbl op.Planner.jo_right in
      (* The pushed filter runs as a kernel scan when it compiles and
         becomes a row mask over the index's hits. *)
      let mask =
        Option.map
          (fun idxs ->
            let m = Duodb.Bitset.create (Duodb.Table.row_count tbl) in
            Array.iter (Duodb.Bitset.set m) idxs;
            m)
          (scan_indices tbl (List.assoc_opt t pushed))
      in
      let ji = join_index cache t tbl right_idx in
      let lslot, lcol =
        let lt, lc = op.Planner.jo_left in
        match Hashtbl.find_opt rel_index (lt, lc) with
        | Some loc -> loc
        | None -> fail "join column %s.%s not in relation" lt lc
      in
      let pos = cpos t in
      attach t pos cols;
      tables.(pos) <- tbl;
      let src = Dyn.create () and hit = Dyn.create () in
      for r = 0 to !len - 1 do
        let v = (Duodb.Table.get tables.(lslot) ids.(lslot).(r)).(lcol) in
        if not (Value.is_null v) then
          match V1tbl.find_opt ji.ji_ids v with
          | None -> ()
          | Some d ->
              for k = 0 to d.Dyn.len - 1 do
                let i = d.Dyn.arr.(k) in
                if match mask with None -> true | Some m -> Duodb.Bitset.get m i
                then begin
                  if hit.Dyn.len >= max_rows then
                    fail "joined relation exceeds %d rows" max_rows;
                  Dyn.push src r;
                  Dyn.push hit i
                end
              done
      done;
      let src = Dyn.to_array src in
      List.iter (fun s -> ids.(s) <- Array.map (fun r -> ids.(s).(r)) src) !slots;
      ids.(pos) <- Dyn.to_array hit;
      len := Array.length src;
      slots := pos :: !slots)
    plan.Planner.plan_joins;
  (* Provenance sort: restore canonical nested-loop order after a
     reordered execution by sorting a row permutation on the slots' row
     ids.  Those id tuples are unique per row, so the order is total. *)
  let rel_ids =
    if plan.Planner.plan_in_order then ids
    else begin
      let perm = Array.init !len Fun.id in
      let rec cmp s a b =
        if s = ntables then 0
        else match Int.compare ids.(s).(a) ids.(s).(b) with 0 -> cmp (s + 1) a b | c -> c
      in
      Array.stable_sort (cmp 0) perm;
      Array.map (fun v -> Array.map (fun r -> v.(r)) perm) ids
    end
  in
  { rel_index; rel_tables = tables; rel_ids; rel_len = !len }

let build_relation_cached ?cache ?max_rows db (plan : Planner.t) =
  match cache with
  | None -> build_relation ?max_rows db plan
  | Some c -> (
      let key = plan.Planner.plan_key in
      match Hashtbl.find_opt c.rc_tbl key with
      | Some (Ok rel) ->
          c.rc_hits <- c.rc_hits + 1;
          rel
      | Some (Error e) ->
          c.rc_hits <- c.rc_hits + 1;
          raise (Exec_error e)
      | None -> (
          c.rc_misses <- c.rc_misses + 1;
          if plan.Planner.plan_pushdown then
            c.rc_pushdown_builds <- c.rc_pushdown_builds + 1;
          match build_relation ~cache:c ?max_rows db plan with
          | rel ->
              Hashtbl.replace c.rc_tbl key (Ok rel);
              rel
          | exception Exec_error e ->
              Hashtbl.replace c.rc_tbl key (Error e);
              raise (Exec_error e)))

(* --- aggregation --- *)

(* Aggregate over a group of joined rows, given as row indices into the
   relation. *)
let eval_agg rel agg col distinct (group : int array) =
  let values () =
    let c = match col with Some c -> c | None -> fail "aggregate needs a column" in
    let loc = lookup rel c in
    Array.fold_right
      (fun r acc ->
        let v = cell rel loc r in
        if Value.is_null v then acc else v :: acc)
      group []
  in
  let numeric vs =
    List.map
      (fun v -> if Value.is_numeric v then Value.to_float v else fail "numeric aggregate over text")
      vs
  in
  match agg with
  | Count -> (
      match col with
      | None -> Value.Int (Array.length group)
      | Some _ ->
          let vs = values () in
          if not distinct then Value.Int (List.length vs)
          else begin
            let seen = V1tbl.create 16 in
            List.iter (fun v -> V1tbl.replace seen v ()) vs;
            Value.Int (V1tbl.length seen)
          end)
  | Sum -> (
      match values () with
      | [] -> Value.Null
      | vs ->
          (* Integer columns sum in integer arithmetic: float accumulation
             silently loses precision past 2^53.  Floats keep the float
             path (with the historical integral-total collapse to Int). *)
          let int_sum acc v =
            match acc, v with
            | Some a, Value.Int i -> Some (a + i)
            | (Some _ | None), (Value.Null | Value.Int _ | Value.Float _ | Value.Text _) -> None
          in
          match List.fold_left int_sum (Some 0) vs with
          | Some total -> Value.Int total
          | None ->
              let total = List.fold_left ( +. ) 0. (numeric vs) in
              if Float.is_integer total then Value.Int (int_of_float total)
              else Value.Float total)
  | Avg -> (
      match values () with
      | [] -> Value.Null
      | vs ->
          let fs = numeric vs in
          Value.Float (List.fold_left ( +. ) 0. fs /. float_of_int (List.length fs)))
  | Min -> (
      match values () with
      | [] -> Value.Null
      | v :: vs -> List.fold_left (fun a b -> if Value.compare b a < 0 then b else a) v vs)
  | Max -> (
      match values () with
      | [] -> Value.Null
      | v :: vs -> List.fold_left (fun a b -> if Value.compare b a > 0 then b else a) v vs)

(* Evaluate a projection-like item (agg option, col option, distinct) for a
   group.  For unaggregated items the group's first row supplies the value
   (SQL-legal only when the item is in GROUP BY; Semantics rules enforce
   this upstream, and tests rely on executor-level enforcement too). *)
let eval_item rel (agg, col, distinct) (group : int array) =
  match agg with
  | Some a -> eval_agg rel a col distinct group
  | None -> (
      match col with
      | Some c ->
          if Array.length group = 0 then Value.Null
          else cell rel (lookup rel c) group.(0)
      | None -> fail "bare star projection")

let eval_having rel cond group =
  holds cond.c_conn
    (fun p -> eval_rhs p.pr_rhs (eval_item rel (p.pr_agg, p.pr_col, false) group))
    cond.c_preds

let proj_type db (p : proj) =
  match p.p_agg with
  | Some (Count | Sum | Avg) -> Datatype.Number
  | Some (Min | Max) | None -> (
      match p.p_col with
      | Some c -> column_type db c
      | None -> Datatype.Number)

let output_types db q =
  try Ok (List.map (proj_type db) q.q_select) with
  | Exec_error e -> Error e

(* Group the filtered rows when the query aggregates; otherwise each row is
   its own singleton group.  Groups are index vectors into the relation:
   first-seen key order, insertion order within each group. *)
let make_groups q rel (sel : int array) : int array list =
  let needs_groups =
    q.q_group_by <> []
    || List.exists (fun p -> Option.is_some p.p_agg) q.q_select
    || Option.is_some q.q_having
    || List.exists (fun o -> Option.is_some o.o_agg) q.q_order_by
  in
  if not needs_groups then Array.to_list (Array.map (fun r -> [| r |]) sel)
  else if q.q_group_by = [] then [ sel ]  (* single group, even when empty *)
  else begin
    let locs = List.map (lookup rel) q.q_group_by in
    let order = Dyn.create () in
    let buckets = Vtbl.create 64 in
    Array.iter
      (fun r ->
        Dyn.add_to ~on_new:(Dyn.push order) Vtbl.find_opt Vtbl.add buckets
          (List.map (fun loc -> cell rel loc r) locs) r)
      sel;
    Array.to_list (Array.map Dyn.to_array (Dyn.to_array order))
  end

(* Execute the post-relation pipeline (filter, group, HAVING, project,
   DISTINCT, sort, limit) of [q] against an already-built relation.
   [sel] short-circuits the residual filter with a precomputed selection
   vector (joined-row indices into [rel]) — the batched probe path feeds
   kernel-computed selections for shared single-table scans. *)
let exec_on_relation ?sel ~residual db rel q =
  (* Validate every referenced column against the FROM clause up front. *)
  List.iter (fun c -> ignore (lookup rel c)) (referenced_columns q);
  let sel =
    match sel with
    | Some s -> s
    | None -> (
        match residual with
        | None -> Array.init rel.rel_len Fun.id
        | Some cond ->
            let out = Dyn.create () in
            for r = 0 to rel.rel_len - 1 do
              if eval_where rel cond r then Dyn.push out r
            done;
            Dyn.to_array out)
  in
    let groups = make_groups q rel sel in
    let groups =
      match q.q_having with
      | None -> groups
      | Some cond -> List.filter (eval_having rel cond) groups
    in
    (* Project and compute ORDER BY keys in the same pass so sort keys can
       reference non-projected expressions. *)
    let project group =
      let out =
        Array.of_list
          (List.map (fun p -> eval_item rel (p.p_agg, p.p_col, p.p_distinct) group) q.q_select)
      in
      let keys =
        List.map (fun o -> eval_item rel (o.o_agg, o.o_col, false) group) q.q_order_by
      in
      (out, keys)
    in
    let projected = List.map project groups in
    let projected =
      if not q.q_distinct then projected
      else begin
        let seen = Vtbl.create 64 in
        List.filter
          (fun (out, _) ->
            let k = Array.to_list out in
            (not (Vtbl.mem seen k)) && (Vtbl.add seen k (); true))
          projected
      end
    in
    let projected =
      if q.q_order_by = [] then projected
      else
        let dirs = List.map (fun o -> o.o_dir) q.q_order_by in
        let cmp (_, ka) (_, kb) =
          let rec go ks1 ks2 ds =
            match ks1, ks2, ds with
            | [], [], _ -> 0
            | k1 :: r1, k2 :: r2, d :: rd ->
                let c = Value.compare k1 k2 in
                let c = match d with Asc -> c | Desc -> -c in
                if c <> 0 then c else go r1 r2 rd
            | _ -> 0
          in
          go ka kb dirs
        in
        List.stable_sort cmp projected
    in
    let out_rows =
      List.filteri
        (fun i _ -> match q.q_limit with None -> true | Some n -> i < n)
        (List.map fst projected)
    in
    let res_cols =
      List.map (fun p -> (Duosql.Pretty.proj p, proj_type db p)) q.q_select
    in
    { res_cols; res_rows = out_rows }

let run ?cache ?max_rows ?(planner = true) db q =
  try
    let plan =
      match Planner.plan ~enabled:planner db q with
      | Ok p -> p
      | Error e -> fail "%s" e
    in
    let rel = build_relation_cached ?cache ?max_rows db plan in
    Ok (exec_on_relation ~residual:plan.Planner.plan_residual db rel q)
  with
  | Exec_error e -> Error e

(* --- batched multi-candidate probes --- *)

type batch_report = {
  br_queries : int;
  br_groups : int;
  br_shared : int;
}

(* Execute a batch of candidate probe queries together.  Single-table
   probes are grouped per base table: the unfiltered base scan is built
   (or fetched from the cache) once, and each candidate's WHERE clause
   becomes a selection over that shared in-order relation — computed by
   the vectorized kernel when it compiles, by the scalar residual
   evaluator otherwise.  This replaces N near-identical filtered scans
   with one scan plus N cheap selections.

   Soundness of sharing: a single-table relation is never bounded by
   [max_rows] (only join growth is checked), so the shared unfiltered
   relation cannot raise an error that per-query pushed execution would
   have avoided; and because the relation is in table order, kernel
   selection indices address its joined rows directly.  Multi-table probes
   keep per-query execution (an unfiltered join could overflow
   [max_rows] where the pushed join would not) and still share work
   through the relation cache.  Each result is exactly what {!run}
   would return for that query. *)
let run_batch ?cache ?max_rows ?(planner = true) db (qs : query array) =
  let nq = Array.length qs in
  let results = Array.make nq (Error "batch: not executed") in
  let done_ = Array.make nq false in
  let groups : (string, int Dyn.t) Hashtbl.t = Hashtbl.create 8 in
  Array.iteri
    (fun i q ->
      match q.q_from.f_tables with
      | [ t ] when q.q_from.f_joins = [] ->
          Dyn.add_to Hashtbl.find_opt Hashtbl.replace groups t i
      | [] | _ :: _ -> ())
    qs;
  let br_groups = ref 0 and br_shared = ref 0 in
  Hashtbl.iter
    (fun t d ->
      if d.Dyn.len >= 2 then begin
        let members = Dyn.to_array d in
        match Planner.plan ~enabled:planner db { qs.(members.(0)) with q_where = None } with
        | Error _ -> () (* members fall through to per-query execution *)
        | Ok plan -> (
            incr br_groups;
            match build_relation_cached ?cache ?max_rows db plan with
            | exception Exec_error e ->
                (* e.g. unknown table: every member fails identically *)
                Array.iter
                  (fun i ->
                    results.(i) <- Error e;
                    done_.(i) <- true;
                    incr br_shared)
                  members
            | rel ->
                let tbl = Duodb.Database.table_exn db t in
                Array.iter
                  (fun i ->
                    let q = qs.(i) in
                    results.(i) <-
                      (try
                         match q.q_where with
                         | None -> Ok (exec_on_relation ~residual:None db rel q)
                         | Some cond -> (
                             match Kernel.select tbl cond with
                             | Some sel -> Ok (exec_on_relation ~sel ~residual:None db rel q)
                             | None -> Ok (exec_on_relation ~residual:(Some cond) db rel q))
                       with Exec_error e -> Error e);
                    done_.(i) <- true;
                    incr br_shared)
                  members)
      end)
    groups;
  Array.iteri
    (fun i q ->
      if not done_.(i) then results.(i) <- run ?cache ?max_rows ~planner db q)
    qs;
  (results, { br_queries = nq; br_groups = !br_groups; br_shared = !br_shared })

let run_exn ?cache ?max_rows ?planner db q =
  match run ?cache ?max_rows ?planner db q with
  | Ok r -> r
  | Error e -> failwith (Printf.sprintf "Executor.run_exn: %s on %s" e (Duosql.Pretty.query q))

let cardinality r = List.length r.res_rows
