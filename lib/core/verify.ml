open Duosql.Ast
module Value = Duodb.Value
module Datatype = Duodb.Datatype

(* The cascade's stages, cheapest first.  [stage_seconds] and
   [stage_pruned] are indexed by [stage_index], so reordering or
   extending the cascade cannot silently misattribute time or prunes:
   both the cascade and the stats report go through the same enum. *)
type stage =
  | S_static
  | S_clauses
  | S_cardinality
  | S_semantics
  | S_types
  | S_column
  | S_row
  | S_complete

let all_stages =
  [ S_static; S_clauses; S_cardinality; S_semantics; S_types; S_column;
    S_row; S_complete ]

let stage_index = function
  | S_static -> 0
  | S_clauses -> 1
  | S_cardinality -> 2
  | S_semantics -> 3
  | S_types -> 4
  | S_column -> 5
  | S_row -> 6
  | S_complete -> 7

let stage_name = function
  | S_static -> "static"
  | S_clauses -> "clauses"
  | S_cardinality -> "cardinality"
  | S_semantics -> "semantics"
  | S_types -> "types"
  | S_column -> "column"
  | S_row -> "row"
  | S_complete -> "complete"

type stats = {
  mutable column_probes : int;
  mutable index_probes : int;
  mutable row_probes : int;
  mutable full_executions : int;
  mutable relcache_hits : int;
  mutable pushdown_builds : int;
  mutable join_index_builds : int;
  mutable join_index_hits : int;
  mutable pruned : int;
  mutable dedup_semantic : int;
  mutable visited_hits : int;
  mutable canon_checked : int;
  mutable key_renders : int;
  mutable static_warnings : int;
  mutable batch_rounds : int;
  mutable batched_probes : int;
  mutable early_stops : int;
  mutable verify_calls : int;
  mutable stage_seconds : float array;
  stage_pruned : int array;
}

let new_stats () =
  { column_probes = 0; index_probes = 0; row_probes = 0; full_executions = 0;
    relcache_hits = 0; pushdown_builds = 0; join_index_builds = 0;
    join_index_hits = 0; pruned = 0; dedup_semantic = 0; visited_hits = 0;
    canon_checked = 0; key_renders = 0; static_warnings = 0;
    batch_rounds = 0; batched_probes = 0; early_stops = 0; verify_calls = 0;
    stage_seconds = Array.make (List.length all_stages) 0.0;
    stage_pruned = Array.make (List.length all_stages) 0 }

let pruned_by s stage = s.stage_pruned.(stage_index stage)

(* All counters are plain adds; the per-stage arrays sum elementwise.  The
   relation-cache mirrors ([relcache_hits], [pushdown_builds],
   [join_index_builds], [join_index_hits]) are also summed, so a caller
   merging several records must make sure each carries only its own
   run's cache activity (see [relcache_delta], which {e sets} the values
   since the env was made). *)
let merge_stats ~into s =
  into.column_probes <- into.column_probes + s.column_probes;
  into.index_probes <- into.index_probes + s.index_probes;
  into.row_probes <- into.row_probes + s.row_probes;
  into.full_executions <- into.full_executions + s.full_executions;
  into.relcache_hits <- into.relcache_hits + s.relcache_hits;
  into.pushdown_builds <- into.pushdown_builds + s.pushdown_builds;
  into.join_index_builds <- into.join_index_builds + s.join_index_builds;
  into.join_index_hits <- into.join_index_hits + s.join_index_hits;
  into.pruned <- into.pruned + s.pruned;
  into.dedup_semantic <- into.dedup_semantic + s.dedup_semantic;
  into.visited_hits <- into.visited_hits + s.visited_hits;
  into.canon_checked <- into.canon_checked + s.canon_checked;
  into.key_renders <- into.key_renders + s.key_renders;
  into.static_warnings <- into.static_warnings + s.static_warnings;
  into.batch_rounds <- into.batch_rounds + s.batch_rounds;
  into.batched_probes <- into.batched_probes + s.batched_probes;
  into.early_stops <- into.early_stops + s.early_stops;
  into.verify_calls <- into.verify_calls + s.verify_calls;
  for i = 0 to Array.length s.stage_seconds - 1 do
    into.stage_seconds.(i) <- into.stage_seconds.(i) +. s.stage_seconds.(i);
    into.stage_pruned.(i) <- into.stage_pruned.(i) + s.stage_pruned.(i)
  done

(* Verification queries abort past this relation size — the stand-in for
   the real system's per-query timeout (Section 3.4's "costly depending on
   the nature of the query"). *)
let verification_max_rows = 20_000

(* [relcache_hits], [pushdown_builds], [join_index_builds],
   [join_index_hits] of a relation cache *)
type relcache_counters = int * int * int * int

let relcache_counters c : relcache_counters =
  let hits, _, pushdowns = Duoengine.Executor.cache_stats c in
  let ji_builds, ji_hits = Duoengine.Executor.join_index_stats c in
  (hits, pushdowns, ji_builds, ji_hits)

(* Column-probe cache key of an example cell. *)
let cell_key = function
  | Tsq.Any -> "_"
  | Tsq.Exact v -> "=" ^ Value.to_sql v
  | Tsq.Range (lo, hi) -> "[" ^ Value.to_sql lo ^ "," ^ Value.to_sql hi ^ "]"

(* The sketch's example tuples compiled once per env: every cell paired
   with its column-probe cache key, plus the required support, so the
   column stage neither converts lists nor prints keys per child. *)
type sketch = {
  sk_tuples : (Tsq.cell * string) array array;
  sk_support : int;
}

let compile_sketch = function
  | None -> { sk_tuples = [||]; sk_support = 0 }
  | Some tsq ->
      {
        sk_tuples =
          Array.of_list
            (List.map
               (fun tuple -> Array.of_list (List.map (fun c -> (c, cell_key c)) tuple))
               tsq.Tsq.tuples);
        sk_support = Tsq.required_support tsq;
      }

(* One-slot memos turning a state's SELECT slots, GROUP BY column,
   HAVING predicate and ORDER BY item (a slot per direction) into the
   outline's clause lists, keyed on physical identity: states that share
   a clause then present physically equal outline clauses, which is what
   the Duolint memos ([has_errors_p], [count_warnings_p]) key on. *)
type ('k, 'v) slot = { mutable s_key : 'k; mutable s_value : 'v }

let slot s_key s_value = { s_key; s_value }

let memo s key f =
  if s.s_key != key then begin
    s.s_key <- key;
    s.s_value <- f key
  end;
  s.s_value

type outline_memo = {
  om_select : (Partial.proj_slot list, proj list) slot;
  om_group : (col_ref option, col_ref list) slot;
  om_having : (pred option, pred list) slot;
  om_asc : ((agg option * col_ref option) option, order_item list) slot;
  om_desc : ((agg option * col_ref option) option, order_item list) slot;
}

let outline_memo () =
  { om_select = slot [] []; om_group = slot None []; om_having = slot None [];
    om_asc = slot None []; om_desc = slot None [] }

type env = {
  e_db : Duodb.Database.t;
  e_tsq : Tsq.t option;
  e_sketch : sketch;  (* [e_tsq] compiled *)
  e_literals : Value.t list;
  e_semantics : bool;
  e_static : bool;
  (* schema compiled to hash lookups for the stage-0 rules *)
  e_lint : Duolint.Analyze.prepared;
  e_outline : outline_memo;
  (* immutable schema key facts for the Duosem cardinality stage *)
  e_sem : Duolint.Duosem.prepared;
  e_stats : stats;
  (* Master inverted index for text-literal column probes; forced on first
     use when no session index is supplied.  The database is append-only
     during synthesis, so the snapshot stays valid. *)
  e_index : Duodb.Index.t Lazy.t;
  (* (table, column, cell) -> probe result *)
  e_cache : (string * string * string, bool) Hashtbl.t;
  (* rendered row-probe query + positions -> probe result *)
  e_row_cache : (string, bool) Hashtbl.t;
  e_relcache : Duoengine.Executor.relation_cache;
  (* [e_relcache]'s counters when the env was made: the cache may be a
     session's, warm from earlier runs, and a run reports only its own
     activity *)
  e_relcache_base : relcache_counters;
  (* (table, column) -> min/max range, for AVG checks *)
  e_range_cache : (string * string, (Value.t * Value.t) option) Hashtbl.t;
}

let make_env ?stats ?(semantics = true) ?(static = true) ?index ?relcache ~db
    ~tsq ~literals () =
  let relcache =
    match relcache with
    | Some c -> c
    | None -> Duoengine.Executor.create_cache ()
  in
  {
    e_db = db;
    e_tsq = tsq;
    e_sketch = compile_sketch tsq;
    e_literals = literals;
    e_semantics = semantics;
    e_static = static;
    e_lint = Duolint.Analyze.prepare (Duodb.Database.schema db);
    e_outline = outline_memo ();
    e_sem = Duolint.Duosem.prepare (Duodb.Database.schema db);
    e_stats = (match stats with Some s -> s | None -> new_stats ());
    e_index =
      (match index with
      | Some i -> Lazy.from_val i
      | None -> lazy (Duodb.Index.build db));
    e_cache = Hashtbl.create 256;
    e_row_cache = Hashtbl.create 256;
    e_relcache = relcache;
    e_relcache_base = relcache_counters relcache;
    e_range_cache = Hashtbl.create 64;
  }

let stats env = env.e_stats

(* Set [into]'s relation-cache counters to the env's cache activity
   since the env was made.  Called after each executor call with the
   env's own stats, so outcomes report pushdown and reuse activity. *)
let relcache_delta env into =
  let hits, pushdowns, ji_builds, ji_hits = relcache_counters env.e_relcache in
  let hits0, pushdowns0, ji_builds0, ji_hits0 = env.e_relcache_base in
  into.relcache_hits <- hits - hits0;
  into.pushdown_builds <- pushdowns - pushdowns0;
  into.join_index_builds <- ji_builds - ji_builds0;
  into.join_index_hits <- ji_hits - ji_hits0

(* --- phase predicates --- *)

let past k (t : Partial.t) = Partial.progress t.Partial.phase > k
let kw_decided = past 0
let select_done = past 1
let where_done = past 2
let group_decided = past 3
let having_done = past 4
let order_done = past 5

(* A projection slot as a SELECT item, once its target and aggregate are
   both decided. *)
let decided_slot_proj (s : Partial.proj_slot) =
  match s.Partial.pj_target, s.Partial.pj_agg with
  | Duoguide.Model.Target_count_star, _ -> Some count_star
  | Duoguide.Model.Target_column c, Some agg ->
      Some
        { p_agg = agg;
          p_col = Some (col c.Duodb.Schema.col_table c.Duodb.Schema.col_name);
          p_distinct = false }
  | Duoguide.Model.Target_column _, None -> None

(* --- stage 0: Duolint static analysis (no database access) --- *)

let select_of projs = List.filter_map decided_slot_proj projs

let order_by dir = function
  | None -> []
  | Some (agg, col) -> [ { o_agg = agg; o_col = col; o_dir = dir } ]

let order_asc = order_by Asc
let order_desc = order_by Desc

(* Project the enumerator's state into Duolint's open-world clause view.
   Finality flags are conservative: a flag is set only when no later
   decision can change that clause.  FROM is the delicate one — join-path
   construction replaces the clause wholesale, so it is final only on
   complete states. *)
let outline env (t : Partial.t) : Duolint.Outline.t =
  let m = env.e_outline in
  let kw = t.Partial.kw in
  let kwd = kw_decided t in
  let complete = Partial.is_complete t in
  let no_group = kwd && not kw.Duoguide.Model.kw_group in
  let no_order = kwd && not kw.Duoguide.Model.kw_order in
  {
    Duolint.Outline.o_select = memo m.om_select t.Partial.projs select_of;
    o_select_final = select_done t;
    o_from = t.Partial.from;
    o_from_final = complete;
    o_where = t.Partial.where_preds;
    o_where_conn = (if where_done t then Some t.Partial.conn else None);
    o_where_final = where_done t;
    o_group_by = memo m.om_group t.Partial.group_col Option.to_list;
    o_group_final = no_group || group_decided t;
    o_having = memo m.om_having t.Partial.having_pred Option.to_list;
    o_having_conn =
      (if no_group || having_done t then Some And else None);
    o_having_final = no_group || having_done t;
    o_order_by =
      (match t.Partial.order_dir with
      | Asc -> memo m.om_asc t.Partial.order_item order_asc
      | Desc -> memo m.om_desc t.Partial.order_item order_desc);
    o_order_final = no_order || order_done t;
    o_limit = t.Partial.limit;
    o_limit_final = complete || no_order;
  }

let verify_static env (t : Partial.t) =
  (not env.e_static)
  || not (Duolint.Analyze.has_errors_p env.e_lint (outline env t))

(* Warning count for the enumerator's deprioritization: warnings never
   prune, they only push suspicious states down the frontier. *)
let static_warnings env (t : Partial.t) =
  if not env.e_static then 0
  else begin
    let n = Duolint.Analyze.count_warnings_p env.e_lint (outline env t) in
    if n > 0 then env.e_stats.static_warnings <- env.e_stats.static_warnings + n;
    n
  end

(* --- stage 1: clause presence (Example 3.3) --- *)

let verify_clauses env (t : Partial.t) =
  match env.e_tsq with
  | None -> true
  | Some tsq ->
      (not (kw_decided t))
      || begin
           let kw = t.Partial.kw in
           (* tau => ORDER BY; the reverse is not required — an unchecked
              sorted box leaves the order unconstrained (Definition 2.4),
              so pruning ORDER BY queries here would over-prune.  A limit
              k > 0 still requires ORDER BY: LIMIT is only enumerated
              after an ORDER BY decision, so no completion without one can
              carry the LIMIT clause the sketch demands. *)
           ((not tsq.Tsq.sorted) || kw.Duoguide.Model.kw_order)
           && ((tsq.Tsq.limit = 0) || kw.Duoguide.Model.kw_order)
           &&
           match t.Partial.limit with
           | None -> true
           | Some n -> tsq.Tsq.limit > 0 && n <= tsq.Tsq.limit
         end

(* --- stage 2: Duosem cardinality bound vs the required tuple count --- *)

(* Database-free: a sketch with example tuples needs at least
   [required_support] distinct result rows ([Tsq.satisfies] matches
   tuples to rows injectively), so a state whose abstract row-count
   upper bound (Duosem: aggregation without GROUP BY, pinned primary
   keys, LIMIT) falls below that threshold has no satisfying completion.
   Monotone under refinement: a tightening only grows
   [required_support], and the bound itself only tightens with more
   decisions. *)
(* Grammar-aware refinement of the outline for cardinality purposes: once
   keywords commit to GROUP BY, the projection list is final and exactly
   one projection is plain, every completion that survives the static
   rules groups by exactly that column — [Partial] has a single group
   slot and [Projection_not_grouped] rejects any other choice.  The
   outline may therefore commit the GROUP BY clause before the
   enumerator decides it, letting the pinned-group-key bound fire
   database-free ahead of the probe stages.  Only valid under enforced
   static rules: without them, ungrouped-projection completions survive
   and keep SQLite's bare-column (many-row) semantics. *)
let outline_for_cardinality env (t : Partial.t) =
  let o = outline env t in
  if
    env.e_static && kw_decided t
    && t.Partial.kw.Duoguide.Model.kw_group
    && t.Partial.group_col = None
    && o.Duolint.Outline.o_select_final
  then
    match
      List.filter_map
        (fun (p : proj) -> if p.p_agg = None then p.p_col else None)
        o.Duolint.Outline.o_select
    with
    | [ c ] ->
        { o with Duolint.Outline.o_group_by = [ c ]; o_group_final = true }
    | [] | _ :: _ :: _ -> o
  else o

let verify_cardinality env (t : Partial.t) =
  let support = env.e_sketch.sk_support in
  support <= 0
  ||
  match
    (Duolint.Duosem.bound env.e_sem (outline_for_cardinality env t))
      .Duolint.Duosem.c_hi
  with
  | None -> true
  | Some hi -> hi >= support

(* --- stage 3: the Table 4 rules Duolint only warns about --- *)

(* Every other Table 4 rule is a Duolint error that [static] judged on
   the same state: types, the grouping rules, contradictory AND
   predicates ([Domain.meet] is exact, so a contradictory pair meets to
   bottom). *)
let verify_semantics env (t : Partial.t) =
  (not env.e_semantics)
  || not (Duolint.Analyze.redundant_where (outline env t))

(* --- stage 4: projection types vs annotations (Example 3.4) --- *)

let proj_output_type schema (s : Partial.proj_slot) =
  match s.Partial.pj_target, s.Partial.pj_agg with
  | Duoguide.Model.Target_count_star, _ -> Some Datatype.Number
  | Duoguide.Model.Target_column _, Some (Some (Count | Sum | Avg)) ->
      Some Datatype.Number
  | Duoguide.Model.Target_column c, Some (Some (Min | Max) | None) ->
      Option.map
        (fun col -> col.Duodb.Schema.col_type)
        (Duodb.Schema.find_column schema ~table:c.Duodb.Schema.col_table
           c.Duodb.Schema.col_name)
  | Duoguide.Model.Target_column _, None -> None (* aggregate undecided *)

let verify_column_types env (t : Partial.t) =
  match Option.bind env.e_tsq (fun tsq -> tsq.Tsq.types) with
  | None -> true
  | Some tys ->
      let n_ann = List.length tys in
      (t.Partial.nproj = 0 || t.Partial.nproj = n_ann)
      && List.length t.Partial.projs <= n_ann
      && List.for_all2
           (fun slot ty ->
             match proj_output_type (Duodb.Database.schema env.e_db) slot with
             | None -> true
             | Some ty' -> Datatype.equal ty ty')
           t.Partial.projs
           (List.filteri (fun i _ -> i < List.length t.Partial.projs) tys)

(* --- stage 5: column-wise probes (Example 3.5) --- *)

(* Existence probe: SELECT 1 FROM table WHERE col <cell> LIMIT 1.  Exact
   text cells on text columns are answered from the inverted index when it
   is definitive; everything else falls back to a direct column scan. *)
let column_probe env (c : Duodb.Schema.column) cell ckey =
  let key = (c.Duodb.Schema.col_table, c.Duodb.Schema.col_name, ckey) in
  match Hashtbl.find_opt env.e_cache key with
  | Some r -> r
  | None ->
      env.e_stats.column_probes <- env.e_stats.column_probes + 1;
      let indexed =
        match cell with
        | Tsq.Exact (Value.Text s)
          when Datatype.equal c.Duodb.Schema.col_type Datatype.Text ->
            Duodb.Index.contains_exact (Lazy.force env.e_index)
              ~table:c.Duodb.Schema.col_table ~column:c.Duodb.Schema.col_name s
        | Tsq.Exact (Value.Null | Value.Int _ | Value.Float _ | Value.Text _)
        | Tsq.Any | Tsq.Range _ ->
            None
      in
      let r =
        match indexed with
        | Some r ->
            env.e_stats.index_probes <- env.e_stats.index_probes + 1;
            r
        | None -> (
            (* Vectorized column probe: dictionary lookup / zone-skipped
               columnar pass instead of materializing every row. *)
            let tbl = Duodb.Database.table_exn env.e_db c.Duodb.Schema.col_table in
            let idx = Duodb.Table.column_index tbl c.Duodb.Schema.col_name in
            match cell with
            | Tsq.Any -> Duodb.Table.row_count tbl > 0
            | Tsq.Exact v ->
                List.exists
                  (fun ((_ : Value.t), r) -> r)
                  (Duoengine.Kernel.probe_exists tbl ~col:idx [ v ])
            | Tsq.Range (lo, hi) ->
                Duoengine.Kernel.probe_range tbl ~col:idx lo hi)
      in
      Hashtbl.replace env.e_cache key r;
      r

let cell_interval = function
  | Tsq.Any -> None
  | Tsq.Exact v -> Some (v, v)
  | Tsq.Range (lo, hi) -> Some (lo, hi)

let ranges_intersect (a_lo, a_hi) (b_lo, b_hi) =
  Value.compare a_lo b_hi <= 0 && Value.compare b_lo a_hi <= 0

(* One example cell against one projection slot; only decided plain,
   MIN and MAX slots probe, AVG checks the column's range. *)
let slot_ok env (s : Partial.proj_slot) (cell, ckey) =
  match cell, s.Partial.pj_target, s.Partial.pj_agg with
  | Tsq.Any, _, _ -> true
  | (Tsq.Exact _ | Tsq.Range _), Duoguide.Model.Target_count_star, _ -> true
  | (Tsq.Exact _ | Tsq.Range _), Duoguide.Model.Target_column _, None -> true
  | (Tsq.Exact _ | Tsq.Range _), Duoguide.Model.Target_column _, Some (Some (Count | Sum))
    ->
      true (* no conclusion for partial queries *)
  | (Tsq.Exact _ | Tsq.Range _), Duoguide.Model.Target_column c, Some (Some Avg) -> (
      (* AVG lies within the column's min-max range. *)
      let rkey = (c.Duodb.Schema.col_table, c.Duodb.Schema.col_name) in
      let range =
        match Hashtbl.find_opt env.e_range_cache rkey with
        | Some r -> r
        | None ->
            env.e_stats.column_probes <- env.e_stats.column_probes + 1;
            let tbl = Duodb.Database.table_exn env.e_db c.Duodb.Schema.col_table in
            let r = Duodb.Table.column_range tbl c.Duodb.Schema.col_name in
            Hashtbl.replace env.e_range_cache rkey r;
            r
      in
      match range, cell_interval cell with
      | Some r1, Some r2 -> ranges_intersect r1 r2
      | None, _ | _, None -> false)
  | ( (Tsq.Exact _ | Tsq.Range _),
      Duoguide.Model.Target_column c,
      Some (Some (Min | Max) | None) ) ->
      column_probe env c cell ckey

(* Slots past the tuple's width are unconstrained; the first failing slot
   ends the tuple's probes. *)
let rec tuple_ok env cells i = function
  | [] -> true
  | _ :: _ when i >= Array.length cells -> true
  | s :: rest -> slot_ok env s cells.(i) && tuple_ok env cells (i + 1) rest

(* Every tuple is checked (no early exit across tuples), so the probes
   run — and [column_probes] counts — do not depend on the support. *)
let verify_by_column env (t : Partial.t) =
  let sk = env.e_sketch in
  Array.length sk.sk_tuples = 0
  ||
  let held = ref 0 in
  for k = 0 to Array.length sk.sk_tuples - 1 do
    if tuple_ok env sk.sk_tuples.(k) 0 t.Partial.projs then incr held
  done;
  sk.sk_support <= !held

(* --- stage 6: row-wise probes (Example 3.6) --- *)

let slot_has_agg (s : Partial.proj_slot) =
  match s.Partial.pj_target, s.Partial.pj_agg with
  | Duoguide.Model.Target_count_star, _ -> true
  | Duoguide.Model.Target_column _, Some (Some _) -> true
  | Duoguide.Model.Target_column _, (Some None | None) -> false

let can_check_rows (t : Partial.t) =
  let has_agg = List.exists slot_has_agg t.Partial.projs in
  (not has_agg) || (where_done t && group_decided t)

(* A row probe the stage has decided to run: the probe query, the
   (output position, example cell index) pairs to match on, and the
   memoization key. *)
type row_plan = {
  rp_probe : query;
  rp_positions : (int * int) list;
  rp_key : string;
}

let row_probe_plan env (t : Partial.t) : row_plan option =
  if Array.length env.e_sketch.sk_tuples = 0 then None
  else if Partial.is_complete t then None
    (* complete states go through the full Definition 2.4 check instead *)
  else if not (can_check_rows t) then None
  else
    match t.Partial.from with
    | None -> None
    | Some from ->
        (* Keep only fully decided slots; record (output position, cell
           index) pairs so skipped slots stay unconstrained. *)
        let decided =
          List.filteri (fun _ s -> Option.is_some (decided_slot_proj s)) t.Partial.projs
        in
        if decided = [] then None
        else begin
          let indexed =
            List.mapi (fun i s -> (i, s)) t.Partial.projs
            |> List.filter (fun (_, s) -> Option.is_some (decided_slot_proj s))
          in
          let select = List.filter_map (fun (_, s) -> decided_slot_proj s) indexed in
          let positions = List.mapi (fun out (cell_idx, _) -> (out, cell_idx)) indexed in
          let where =
            if where_done t && t.Partial.where_preds <> [] then
              Some { c_preds = t.Partial.where_preds; c_conn = t.Partial.conn }
            else None
          in
          let group_by =
            if group_decided t then Option.to_list t.Partial.group_col else []
          in
          (* A state still deciding its join path may reference tables the
             current clause does not cover yet; row checking waits. *)
          let probe_tables =
            List.sort_uniq String.compare
              (List.filter_map
                 (fun p -> Option.map (fun c -> c.cr_table) p.p_col)
                 select
              @ (match where with
                | Some w ->
                    List.filter_map
                      (fun p -> Option.map (fun c -> c.cr_table) p.pr_col)
                      w.c_preds
                | None -> [])
              @ List.map (fun c -> c.cr_table) group_by)
          in
          (* With a single decided plain slot and no WHERE/GROUP decided,
             the row probe adds nothing over the column probe. *)
          let redundant =
            List.length positions = 1 && where = None && group_by = []
            && not (List.exists slot_has_agg t.Partial.projs)
          in
          if
            redundant
            || not (List.for_all (fun tb -> List.mem tb from.f_tables) probe_tables)
          then None
          else begin
            let probe =
              {
                q_distinct = false;
                q_select = select;
                q_from = from;
                q_where = where;
                q_group_by = group_by;
                q_having = None;
                q_order_by = [];
                q_limit = None;
              }
            in
            let key =
              Duosql.Pretty.query probe ^ "|"
              ^ String.concat ","
                  (List.map (fun (o, c) -> Printf.sprintf "%d:%d" o c) positions)
            in
            Some { rp_probe = probe; rp_positions = positions; rp_key = key }
          end
        end

let count_early_stop env =
  env.e_stats.early_stops <- env.e_stats.early_stops + 1

(* The probe's output rows stream into the early-stopping matcher over
   the example tuples at the plan's decided positions, under the
   noisy-example support threshold: the same matcher [Tsq.satisfies]
   uses, so partial-query and complete-query semantics cannot drift. *)
let verify_by_row env (t : Partial.t) =
  match row_probe_plan env t with
  | None -> true
  | Some plan -> (
      match Hashtbl.find_opt env.e_row_cache plan.rp_key with
      | Some r -> r
      | None ->
          env.e_stats.row_probes <- env.e_stats.row_probes + 1;
          let tsq = Option.value env.e_tsq ~default:Tsq.empty in
          let m =
            Tsq.matcher ~support:env.e_sketch.sk_support plan.rp_positions tsq.Tsq.tuples
          in
          let r =
            match
              Duoengine.Executor.stream ~cache:env.e_relcache
                ~max_rows:verification_max_rows env.e_db plan.rp_probe (Tsq.feed m)
            with
            | Error _ -> false
            | Ok stopped ->
                if stopped then count_early_stop env;
                Tsq.matched m
          in
          relcache_delta env env.e_stats;
          Hashtbl.replace env.e_row_cache plan.rp_key r;
          r)

(* --- stage 7: complete queries --- *)

let verify_literals env q =
  let used = literals q in
  List.for_all (fun l -> List.exists (Value.equal l) used) env.e_literals

(* A complete state's outline has every finality flag set, so [static]
   and [semantics] have judged the whole query already. *)
let verify_complete env q =
  verify_literals env q
  &&
  match env.e_tsq with
  | None -> true
  | Some tsq ->
      env.e_stats.full_executions <- env.e_stats.full_executions + 1;
      let r =
        Tsq.satisfies ~cache:env.e_relcache ~max_rows:verification_max_rows
          ~on_early_stop:(fun () -> count_early_stop env)
          tsq env.e_db q
      in
      relcache_delta env env.e_stats;
      r

(* --- the cascade --- *)

let verify_complete_state env (t : Partial.t) =
  (not (Partial.is_complete t))
  || match Partial.to_query t with Some q -> verify_complete env q | None -> true

(* The stages with their checks, indexed by [stage_index]. *)
let stages =
  [| (S_static, verify_static); (S_clauses, verify_clauses);
     (S_cardinality, verify_cardinality); (S_semantics, verify_semantics);
     (S_types, verify_column_types); (S_column, verify_by_column);
     (S_row, verify_by_row); (S_complete, verify_complete_state) |]

let check_stage env stage t = (snd stages.(stage_index stage)) env t

(* Stages [first] .. [last] in order, [check k] judging stage [k], up to
   the first that fails: the clock stamp that closes a stage opens the
   next, and a failure is booked against its stage. *)
let run_stages env ~first ~last check =
  let s = env.e_stats and last = stage_index last in
  s.verify_calls <- s.verify_calls + 1;
  let k = ref (stage_index first) and ok = ref true in
  let t0 = ref (Clock.mono ()) in
  while !ok && !k <= last do
    ok := check !k;
    let t1 = Clock.mono () in
    s.stage_seconds.(!k) <- s.stage_seconds.(!k) +. (t1 -. !t0);
    t0 := t1;
    if !ok then incr k
  done;
  if not !ok then begin
    s.stage_pruned.(!k) <- s.stage_pruned.(!k) + 1;
    s.pruned <- s.pruned + 1
  end;
  !ok

let check_deferred env ~first ~last (t : Partial.t) =
  run_stages env ~first ~last (fun k -> (snd stages.(k)) env t)

let verify env t = check_deferred env ~first:S_static ~last:S_complete t

let verify_batch env (children : Partial.t list) =
  List.map (fun t -> (t, verify env t)) children

(* --- incremental refinement (Enumerate.rebase) --- *)

(* Point the environment at a tightened sketch.  The column-probe and
   range caches memoize pure facts about the database ("does this cell
   occur in this column") that no sketch edit can change, so they carry
   over; the compiled sketch is rebuilt, and the row-probe cache memoizes
   *match verdicts* against the sketch's tuples and support threshold, so
   it must start empty. *)
let retarget env ~tsq =
  { env with
    e_tsq = Some tsq;
    e_sketch = compile_sketch (Some tsq);
    e_row_cache = Hashtbl.create 256 }

(* Re-check an already-emitted candidate under the retargeted sketch, as
   the complete stage: it passed [static] and [semantics] when it was
   emitted, and neither reads the sketch. *)
let reverify_query env q =
  run_stages env ~first:S_complete ~last:S_complete (fun _ -> verify_complete env q)
