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

(* Residual WHERE over joined-row indices.  Column locations resolve once
   per execution (every referenced column was validated up front, so this
   cannot raise early); an aggregate or column-less predicate still raises
   only when a row reaches it. *)
let compile_where rel cond =
  let preds =
    List.map
      (fun p ->
        match p.pr_agg, p.pr_col with
        | Some _, _ -> Error "aggregate predicate in WHERE"
        | None, None -> Error "missing column in WHERE predicate"
        | None, Some c -> Ok (lookup rel c, p.pr_rhs))
      cond.c_preds
  in
  fun r ->
    holds cond.c_conn
      (function
        | Ok (loc, rhs) -> eval_rhs rhs (cell rel loc r)
        | Error e -> raise (Exec_error e))
      preds

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
   probes over an exploding join fail fast.  Relation keys pair the
   planner's key (FROM plus pushed predicates, so probes sharing a join
   tree and WHERE clause reuse one relation) with the row bound, which
   decides whether a build succeeds.  Each entry is stamped with its FROM
   tables' row counts and rebuilt once one of them moved, as join indexes
   are: row ids into append-only tables stay valid, but a grown table can
   add rows to the join. *)
type rel_entry = {
  re_tables : Duodb.Table.t array;
  re_rows : int array;  (** [re_tables]' row counts at build time *)
  re_result : (relation, string) result;
}

type relation_cache = {
  rc_tbl : (string * int, rel_entry) Hashtbl.t;
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

(* None of the entry's tables grew since it was built. *)
let fresh e =
  let rec go i =
    i = Array.length e.re_tables
    || (Duodb.Table.row_count e.re_tables.(i) = e.re_rows.(i) && go (i + 1))
  in
  go 0

let build_relation_cached ?cache ?max_rows db (plan : Planner.t) =
  match cache with
  | None -> build_relation ?max_rows db plan
  | Some c -> (
      let key = (plan.Planner.plan_key, Option.value max_rows ~default:max_int) in
      match Hashtbl.find_opt c.rc_tbl key with
      | Some e when fresh e -> (
          c.rc_hits <- c.rc_hits + 1;
          match e.re_result with Ok rel -> rel | Error e -> raise (Exec_error e))
      | Some _ | None ->
          c.rc_misses <- c.rc_misses + 1;
          if plan.Planner.plan_pushdown then
            c.rc_pushdown_builds <- c.rc_pushdown_builds + 1;
          (* stamped before the build: a table unknown to the database
             never becomes known, so it needs no stamp *)
          let re_tables =
            Array.of_list
              (List.filter_map
                 (fun (t, _) -> Duodb.Database.table db t)
                 plan.Planner.plan_canonical)
          in
          let re_rows = Array.map Duodb.Table.row_count re_tables in
          let result =
            match build_relation ~cache:c ?max_rows db plan with
            | rel -> Ok rel
            | exception Exec_error e -> Error e
          in
          Hashtbl.replace c.rc_tbl key { re_tables; re_rows; re_result = result };
          match result with Ok rel -> rel | Error e -> raise (Exec_error e))

(* --- aggregation --- *)

(* Aggregate over a group of joined rows, given as row indices into the
   relation; [loc] is the aggregated column's resolved location. *)
let eval_agg rel agg loc distinct (group : int array) =
  let values () =
    let loc = match loc with Some l -> l | None -> fail "aggregate needs a column" in
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
      match loc with
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

(* Compile a projection-like item (agg option, col option, distinct) into
   its per-group evaluator, resolving the column once.  For unaggregated
   items the group's first row supplies the value (SQL-legal only when the
   item is in GROUP BY; Semantics rules enforce this upstream, and tests
   rely on executor-level enforcement too).  A bare star or column-less
   aggregate raises only when a group reaches it. *)
let compile_item rel (agg, col, distinct) : int array -> Value.t =
  let loc = Option.map (lookup rel) col in
  match agg, loc with
  | Some a, _ -> eval_agg rel a loc distinct
  | None, Some loc ->
      fun group -> if Array.length group = 0 then Value.Null else cell rel loc group.(0)
  | None, None -> fun _ -> fail "bare star projection"

let compile_having rel cond =
  let preds =
    List.map (fun p -> (compile_item rel (p.pr_agg, p.pr_col, false), p.pr_rhs)) cond.c_preds
  in
  fun group -> holds cond.c_conn (fun (item, rhs) -> eval_rhs rhs (item group)) preds

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

(* --- output: streamed or materialized --- *)

type visitor = int -> (int -> Value.t) -> bool

(* What the post-relation pipeline leaves for the caller.  A plain query
   (no GROUP BY, aggregate, HAVING, DISTINCT, ORDER BY or LIMIT; every
   item a column) is its selection ([None]: every joined row) plus the
   projected columns' resolved locations — no output row is built until
   someone reads one.  Every other shape is materialized. *)
type output =
  | Streamed of int array option * (int * int) array
  | Materialized of Value.t array list

let is_plain q =
  not
    (q.q_distinct || q.q_group_by <> [] || Option.is_some q.q_having
    || q.q_order_by <> [] || Option.is_some q.q_limit)
  && List.for_all (fun p -> p.p_agg = None && Option.is_some p.p_col) q.q_select

(* Execute the post-relation pipeline (filter, group, HAVING, project,
   DISTINCT, sort, limit) of [q] against an already-built relation.  The
   residual filter always runs to completion, so a row that raises (LIKE
   on a non-text value, an aggregate predicate) raises whatever the
   consumer of the output does later. *)
let exec_on_relation ~residual rel q =
  (* Validate every referenced column against the FROM clause up front. *)
  List.iter (fun c -> ignore (lookup rel c)) (referenced_columns q);
  let sel =
    match residual with
    | None -> None
    | Some cond ->
        let keep = compile_where rel cond in
        let out = Dyn.create () in
        for r = 0 to rel.rel_len - 1 do
          if keep r then Dyn.push out r
        done;
        Some (Dyn.to_array out)
  in
  if is_plain q then
    Streamed
      (sel, Array.of_list (List.filter_map (fun p -> Option.map (lookup rel) p.p_col) q.q_select))
  else
    let sel = match sel with Some s -> s | None -> Array.init rel.rel_len Fun.id in
    let groups = make_groups q rel sel in
    let groups =
      match q.q_having with
      | None -> groups
      | Some cond -> List.filter (compile_having rel cond) groups
    in
    (* Project and compute ORDER BY keys in the same pass so sort keys can
       reference non-projected expressions. *)
    let items =
      List.map (fun p -> compile_item rel (p.p_agg, p.p_col, p.p_distinct)) q.q_select
    and keys = List.map (fun o -> compile_item rel (o.o_agg, o.o_col, false)) q.q_order_by in
    let project group =
      (Array.of_list (List.map (fun f -> f group) items), List.map (fun f -> f group) keys)
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
    Materialized
      (List.filteri
         (fun i _ -> match q.q_limit with None -> true | Some n -> i < n)
         (List.map fst projected))

(* The one projection loop: hand each output row to [visit] in order, with
   a reader over its columns (a streamed row is read straight from the
   tables through the resolved locations).  [true] when the visitor
   stopped the scan before the last row. *)
let feed rel out (visit : visitor) =
  match out with
  | Streamed (sel, locs) ->
      let r = ref 0 in
      let read j = cell rel locs.(j) !r in
      let n = match sel with Some s -> Array.length s | None -> rel.rel_len in
      let rec go i =
        i < n
        && begin
             r := (match sel with Some s -> s.(i) | None -> i);
             if visit i read then go (i + 1) else i < n - 1
           end
      in
      go 0
  | Materialized rows ->
      let row = ref [||] in
      let read j = !row.(j) in
      let rec go i = function
        | [] -> false
        | x :: rest ->
            row := x;
            if visit i read then go (i + 1) rest else rest <> []
      in
      go 0 rows

let rows_of rel = function
  | Materialized rows -> rows
  | Streamed (_, locs) as out ->
      let acc = ref [] in
      ignore
        (feed rel out (fun _ read ->
             acc := Array.init (Array.length locs) read :: !acc;
             true));
      List.rev !acc

let execute ?cache ?max_rows db q =
  let plan =
    match Planner.plan db q with
    | Ok p -> p
    | Error e -> fail "%s" e
  in
  let rel = build_relation_cached ?cache ?max_rows db plan in
  (rel, exec_on_relation ~residual:plan.Planner.plan_residual rel q)

let run ?cache ?max_rows db q =
  try
    let rel, out = execute ?cache ?max_rows db q in
    let res_rows = rows_of rel out in
    Ok { res_cols = List.map (fun p -> (Duosql.Pretty.proj p, proj_type db p)) q.q_select;
         res_rows }
  with
  | Exec_error e -> Error e

let stream ?cache ?max_rows db q visit =
  try
    let rel, out = execute ?cache ?max_rows db q in
    Ok (feed rel out visit)
  with
  | Exec_error e -> Error e

let run_exn ?cache ?max_rows db q =
  match run ?cache ?max_rows db q with
  | Ok r -> r
  | Error e -> failwith (Printf.sprintf "Executor.run_exn: %s on %s" e (Duosql.Pretty.query q))

let cardinality r = List.length r.res_rows
