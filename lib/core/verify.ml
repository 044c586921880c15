open Duosql.Ast
module Value = Duodb.Value
module Datatype = Duodb.Datatype

(* The cascade's stages, cheapest first.  [stage_seconds] is indexed by
   [stage_index], so reordering or extending the cascade cannot silently
   misattribute time: both the cascade and the stats report go through the
   same enum. *)
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
  mutable pruned_by_static : int;
  mutable pruned_by_clauses : int;
  mutable pruned_by_cardinality : int;
  mutable pruned_by_semantics : int;
  mutable pruned_by_types : int;
  mutable pruned_by_column : int;
  mutable pruned_by_row : int;
  mutable pruned_by_complete : int;
  mutable dedup_semantic : int;
  mutable visited_hits : int;
  mutable canon_checked : int;
  mutable key_renders : int;
  mutable static_warnings : int;
  mutable batch_rounds : int;
  mutable batched_probes : int;
  mutable stage_seconds : float array;
}

let new_stats () =
  { column_probes = 0; index_probes = 0; row_probes = 0; full_executions = 0;
    relcache_hits = 0; pushdown_builds = 0; join_index_builds = 0;
    join_index_hits = 0; pruned = 0;
    pruned_by_static = 0; pruned_by_clauses = 0; pruned_by_cardinality = 0;
    pruned_by_semantics = 0;
    pruned_by_types = 0; pruned_by_column = 0; pruned_by_row = 0;
    pruned_by_complete = 0; dedup_semantic = 0; visited_hits = 0;
    canon_checked = 0; key_renders = 0; static_warnings = 0;
    batch_rounds = 0; batched_probes = 0;
    stage_seconds = Array.make (List.length all_stages) 0.0 }

(* Zero a stats record in place so Duopar task arenas can recycle one
   per task slot instead of allocating a fresh record every round. *)
let reset_stats s =
  s.column_probes <- 0;
  s.index_probes <- 0;
  s.row_probes <- 0;
  s.full_executions <- 0;
  s.relcache_hits <- 0;
  s.pushdown_builds <- 0;
  s.join_index_builds <- 0;
  s.join_index_hits <- 0;
  s.pruned <- 0;
  s.pruned_by_static <- 0;
  s.pruned_by_clauses <- 0;
  s.pruned_by_cardinality <- 0;
  s.pruned_by_semantics <- 0;
  s.pruned_by_types <- 0;
  s.pruned_by_column <- 0;
  s.pruned_by_row <- 0;
  s.pruned_by_complete <- 0;
  s.dedup_semantic <- 0;
  s.visited_hits <- 0;
  s.canon_checked <- 0;
  s.key_renders <- 0;
  s.static_warnings <- 0;
  s.batch_rounds <- 0;
  s.batched_probes <- 0;
  Array.fill s.stage_seconds 0 (Array.length s.stage_seconds) 0.0

let pruned_by s = function
  | S_static -> s.pruned_by_static
  | S_clauses -> s.pruned_by_clauses
  | S_cardinality -> s.pruned_by_cardinality
  | S_semantics -> s.pruned_by_semantics
  | S_types -> s.pruned_by_types
  | S_column -> s.pruned_by_column
  | S_row -> s.pruned_by_row
  | S_complete -> s.pruned_by_complete

(* All counters are plain adds; [stage_seconds] sums elementwise.  The
   relation-cache mirrors ([relcache_hits], [pushdown_builds],
   [join_index_builds], [join_index_hits]) are also summed, so a caller
   merging several per-domain stats records must make sure each record
   carries only its own cache's numbers (see [sync_relcache], which
   {e sets} cumulative values). *)
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
  into.pruned_by_static <- into.pruned_by_static + s.pruned_by_static;
  into.pruned_by_clauses <- into.pruned_by_clauses + s.pruned_by_clauses;
  into.pruned_by_cardinality <-
    into.pruned_by_cardinality + s.pruned_by_cardinality;
  into.pruned_by_semantics <- into.pruned_by_semantics + s.pruned_by_semantics;
  into.pruned_by_types <- into.pruned_by_types + s.pruned_by_types;
  into.pruned_by_column <- into.pruned_by_column + s.pruned_by_column;
  into.pruned_by_row <- into.pruned_by_row + s.pruned_by_row;
  into.pruned_by_complete <- into.pruned_by_complete + s.pruned_by_complete;
  into.dedup_semantic <- into.dedup_semantic + s.dedup_semantic;
  into.visited_hits <- into.visited_hits + s.visited_hits;
  into.canon_checked <- into.canon_checked + s.canon_checked;
  into.key_renders <- into.key_renders + s.key_renders;
  into.static_warnings <- into.static_warnings + s.static_warnings;
  into.batch_rounds <- into.batch_rounds + s.batch_rounds;
  into.batched_probes <- into.batched_probes + s.batched_probes;
  Array.iteri
    (fun i v -> into.stage_seconds.(i) <- into.stage_seconds.(i) +. v)
    s.stage_seconds

(* Process-wide cascade invocation counter.  The per-run stats records
   above are all domain-confined; this is the one counter that must be
   global (it spans every domain and every concurrent run), so it is an
   [Atomic] rather than a mutable field. *)
let verify_calls : int Atomic.t = Atomic.make 0

let total_verifies () = Atomic.get verify_calls

(* Verification queries abort past this relation size — the stand-in for
   the real system's per-query timeout (Section 3.4's "costly depending on
   the nature of the query"). *)
let verification_max_rows = 20_000

type env = {
  e_db : Duodb.Database.t;
  e_tsq : Tsq.t option;
  e_literals : Value.t list;
  e_semantics : bool;
  e_static : bool;
  (* schema compiled to hash lookups for the stage-0 rules *)
  e_lint : Duolint.Analyze.prepared;
  (* immutable schema key facts for the Duosem cardinality stage; safe
     to share across forked domains *)
  e_sem : Duolint.Duosem.prepared;
  (* mutable so Duopar task arenas can retarget one environment at a
     per-slot stats record ([set_stats]) instead of copying the whole
     env per task ([with_stats], kept for the legacy arena-off path) *)
  mutable e_stats : stats;
  (* Master inverted index for text-literal column probes; forced on first
     use when no session index is supplied.  The database is append-only
     during synthesis, so the snapshot stays valid. *)
  e_index : Duodb.Index.t Lazy.t;
  (* (table, column, cell) -> probe result *)
  e_cache : (string * string * string, bool) Hashtbl.t;
  (* rendered row-probe query + positions -> probe result *)
  e_row_cache : (string, bool) Hashtbl.t;
  e_relcache : Duoengine.Executor.relation_cache;
  (* (table, column) -> min/max range, for AVG checks *)
  e_range_cache : (string * string, (Value.t * Value.t) option) Hashtbl.t;
}

let make_env ?stats ?(semantics = true) ?(static = true) ?index ?relcache ~db
    ~tsq ~literals () =
  {
    e_db = db;
    e_tsq = tsq;
    e_literals = literals;
    e_semantics = semantics;
    e_static = static;
    e_lint = Duolint.Analyze.prepare (Duodb.Database.schema db);
    e_sem = Duolint.Duosem.prepare (Duodb.Database.schema db);
    e_stats = (match stats with Some s -> s | None -> new_stats ());
    e_index =
      (match index with
      | Some i -> Lazy.from_val i
      | None -> lazy (Duodb.Index.build db));
    e_cache = Hashtbl.create 256;
    e_row_cache = Hashtbl.create 256;
    e_relcache =
      (match relcache with
      | Some c -> c
      | None -> Duoengine.Executor.create_cache ());
    e_range_cache = Hashtbl.create 64;
  }

let stats env = env.e_stats
let relcache env = env.e_relcache

(* Per-domain environment for the Duopar speculative rounds: shares the
   immutable inputs (database, TSQ, literals, the *forced* inverted
   index) and gets private copies of everything mutable — probe caches,
   relation cache, stats, and the Duolint prepared tables (whose
   one-slot memos are written on every check).  Forcing the index here
   runs on the caller's domain, so worker domains never race the lazy
   thunk. *)
let fork_env env =
  {
    env with
    e_lint = Duolint.Analyze.prepare (Duodb.Database.schema env.e_db);
    e_stats = new_stats ();
    e_index = Lazy.from_val (Lazy.force env.e_index);
    e_cache = Hashtbl.create 256;
    e_row_cache = Hashtbl.create 256;
    e_relcache = Duoengine.Executor.create_cache ();
    e_range_cache = Hashtbl.create 64;
  }

(* Same environment (caches included), different stats sink — gives each
   speculative task a private stats record that is merged into the run's
   totals only if the task's state is actually popped. *)
let with_stats env stats = { env with e_stats = stats }

(* In-place variant of [with_stats]: point the environment's sink at
   [stats] without copying the record.  Only safe within a single
   domain — Duopar workers each own a forked env, so retargeting between
   tasks never races. *)
let set_stats env stats = env.e_stats <- stats

(* Mirror the shared relation cache's counters into the stats record after
   each executor call, so outcomes report pushdown and reuse activity. *)
let sync_relcache env =
  let hits, _, pushdowns = Duoengine.Executor.cache_stats env.e_relcache in
  let ji_builds, ji_hits = Duoengine.Executor.join_index_stats env.e_relcache in
  env.e_stats.relcache_hits <- hits;
  env.e_stats.pushdown_builds <- pushdowns;
  env.e_stats.join_index_builds <- ji_builds;
  env.e_stats.join_index_hits <- ji_hits

(* --- phase predicates --- *)

(* A state deciding its join path carries the progress of the wrapped
   phase. *)
let rec effective_phase = function
  | Partial.P_joinpath inner -> effective_phase inner
  | ( Partial.P_keywords | Partial.P_num_proj | Partial.P_proj_target _
    | Partial.P_proj_agg _ | Partial.P_where_num | Partial.P_where_col _
    | Partial.P_where_op _ | Partial.P_where_conn | Partial.P_group_col
    | Partial.P_having_presence | Partial.P_having_pred
    | Partial.P_order_target | Partial.P_order_dir | Partial.P_limit
    | Partial.P_done ) as p ->
      p

let kw_decided (t : Partial.t) =
  effective_phase t.Partial.phase <> Partial.P_keywords

let select_done (t : Partial.t) =
  match effective_phase t.Partial.phase with
  | Partial.P_keywords | Partial.P_num_proj | Partial.P_proj_target _
  | Partial.P_proj_agg _ ->
      false
  | Partial.P_where_num | Partial.P_where_col _ | Partial.P_where_op _
  | Partial.P_where_conn | Partial.P_group_col | Partial.P_having_presence
  | Partial.P_having_pred | Partial.P_order_target | Partial.P_order_dir
  | Partial.P_limit | Partial.P_done ->
      true
  | Partial.P_joinpath _ -> assert false (* effective_phase unwraps *)

let where_done (t : Partial.t) =
  match effective_phase t.Partial.phase with
  | Partial.P_keywords | Partial.P_num_proj | Partial.P_proj_target _
  | Partial.P_proj_agg _ | Partial.P_where_num | Partial.P_where_col _
  | Partial.P_where_op _ | Partial.P_where_conn ->
      false
  | Partial.P_group_col | Partial.P_having_presence | Partial.P_having_pred
  | Partial.P_order_target | Partial.P_order_dir | Partial.P_limit
  | Partial.P_done ->
      true
  | Partial.P_joinpath _ -> assert false

let group_decided (t : Partial.t) =
  match effective_phase t.Partial.phase with
  | Partial.P_having_presence | Partial.P_having_pred | Partial.P_order_target
  | Partial.P_order_dir | Partial.P_limit | Partial.P_done ->
      true
  | Partial.P_joinpath _ -> assert false
  | Partial.P_keywords | Partial.P_num_proj | Partial.P_proj_target _
  | Partial.P_proj_agg _ | Partial.P_where_num | Partial.P_where_col _
  | Partial.P_where_op _ | Partial.P_where_conn | Partial.P_group_col ->
      false

let having_done (t : Partial.t) =
  match effective_phase t.Partial.phase with
  | Partial.P_order_target | Partial.P_order_dir | Partial.P_limit
  | Partial.P_done ->
      true
  | Partial.P_joinpath _ -> assert false
  | Partial.P_keywords | Partial.P_num_proj | Partial.P_proj_target _
  | Partial.P_proj_agg _ | Partial.P_where_num | Partial.P_where_col _
  | Partial.P_where_op _ | Partial.P_where_conn | Partial.P_group_col
  | Partial.P_having_presence | Partial.P_having_pred ->
      false

let order_done (t : Partial.t) =
  match effective_phase t.Partial.phase with
  | Partial.P_limit | Partial.P_done -> true
  | Partial.P_joinpath _ -> assert false
  | Partial.P_keywords | Partial.P_num_proj | Partial.P_proj_target _
  | Partial.P_proj_agg _ | Partial.P_where_num | Partial.P_where_col _
  | Partial.P_where_op _ | Partial.P_where_conn | Partial.P_group_col
  | Partial.P_having_presence | Partial.P_having_pred
  | Partial.P_order_target | Partial.P_order_dir ->
      false

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

(* --- stage 3: semantic rules on decided parts (Table 4) --- *)

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

(* Project the enumerator's state into Duolint's open-world clause view.
   Finality flags are conservative: a flag is set only when no later
   decision can change that clause.  FROM is the delicate one — join-path
   construction replaces the clause wholesale, so it is final only on
   complete states. *)
let outline_of_partial (t : Partial.t) : Duolint.Outline.t =
  let kw = t.Partial.kw in
  let kwd = kw_decided t in
  let complete = Partial.is_complete t in
  let no_group = kwd && not kw.Duoguide.Model.kw_group in
  let no_order = kwd && not kw.Duoguide.Model.kw_order in
  {
    Duolint.Outline.o_select =
      List.filter_map decided_slot_proj t.Partial.projs;
    o_select_final = select_done t;
    o_from = t.Partial.from;
    o_from_final = complete;
    o_where = t.Partial.where_preds;
    o_where_conn = (if where_done t then Some t.Partial.conn else None);
    o_where_final = where_done t;
    o_group_by = Option.to_list t.Partial.group_col;
    o_group_final = no_group || group_decided t;
    o_having = Option.to_list t.Partial.having_pred;
    o_having_conn =
      (if no_group || having_done t then Some And else None);
    o_having_final = no_group || having_done t;
    o_order_by =
      (match t.Partial.order_item with
      | None -> []
      | Some (agg, col) ->
          [ { o_agg = agg; o_col = col; o_dir = t.Partial.order_dir } ]);
    o_order_final = no_order || order_done t;
    o_limit = t.Partial.limit;
    o_limit_final = complete || no_order;
  }

let verify_static env (t : Partial.t) =
  (not env.e_static)
  || not (Duolint.Analyze.has_errors_p env.e_lint (outline_of_partial t))

(* Frontier-side entry point: lets the enumerator reject statically dead
   children before they are ever pushed, with time and prunes attributed
   to stage 0. *)
let check_static env (t : Partial.t) =
  Atomic.incr verify_calls;
  let s = env.e_stats in
  let t0 = Clock.mono () in
  let ok = verify_static env t in
  let i = stage_index S_static in
  s.stage_seconds.(i) <- s.stage_seconds.(i) +. (Clock.mono () -. t0);
  if not ok then begin
    s.pruned_by_static <- s.pruned_by_static + 1;
    s.pruned <- s.pruned + 1
  end;
  ok

(* Warning count for the enumerator's deprioritization: warnings never
   prune, they only push suspicious states down the frontier. *)
let static_warnings env (t : Partial.t) =
  if not env.e_static then 0
  else begin
    let n = Duolint.Analyze.count_warnings_p env.e_lint (outline_of_partial t) in
    if n > 0 then env.e_stats.static_warnings <- env.e_stats.static_warnings + n;
    n
  end

let verify_static_query env q =
  (not env.e_static)
  || not (Duolint.Analyze.has_errors_p env.e_lint (Duolint.Outline.of_query q))

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
  let o = outline_of_partial t in
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
  match env.e_tsq with
  | None -> true
  | Some tsq -> (
      let support = Tsq.required_support tsq in
      support <= 0
      ||
      match
        (Duolint.Duosem.bound env.e_sem (outline_for_cardinality env t))
          .Duolint.Duosem.c_hi
      with
      | None -> true
      | Some hi -> hi >= support)

let verify_semantics env (t : Partial.t) =
  env.e_semantics = false
  ||
  let schema = Duodb.Database.schema env.e_db in
  let decided_projs = List.filter_map decided_slot_proj t.Partial.projs in
  List.for_all (Semantics.projection_types_ok schema) decided_projs
  && List.for_all (Semantics.predicate_types_ok schema) t.Partial.where_preds
  && Option.fold ~none:true
       ~some:(Semantics.predicate_types_ok schema)
       t.Partial.having_pred
  && (* Ungrouped aggregation is decidable as soon as SELECT is complete. *)
  (not (select_done t)
  || t.Partial.kw.Duoguide.Model.kw_group
  || not
       (List.exists (fun p -> Option.is_some p.p_agg) decided_projs
       && List.exists (fun p -> p.p_agg = None) decided_projs))
  && (* Predicate consistency and constant-output once WHERE is final. *)
  ((not (where_done t))
  || t.Partial.where_preds = []
  ||
  let cond = { c_preds = t.Partial.where_preds; c_conn = t.Partial.conn } in
  Semantics.condition_consistent cond
  && Semantics.no_constant_projection decided_projs (Some cond))
  && (* Grouping rules once the GROUP BY column is decided. *)
  ((not (group_decided t))
  || (not t.Partial.kw.Duoguide.Model.kw_group)
  ||
  match t.Partial.group_col with
  | None -> true
  | Some g ->
      (not (Duodb.Schema.is_pk_column schema ~table:g.cr_table g.cr_col))
      && List.for_all
           (fun p ->
             match p.p_agg, p.p_col with
             | None, Some c -> equal_col_ref c g
             | _ -> true)
           decided_projs)

(* --- stage 3: projection types vs annotations (Example 3.4) --- *)

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

(* --- stage 4: column-wise probes (Example 3.5) --- *)

let cell_key = function
  | Tsq.Any -> "_"
  | Tsq.Exact v -> "=" ^ Value.to_sql v
  | Tsq.Range (lo, hi) -> "[" ^ Value.to_sql lo ^ "," ^ Value.to_sql hi ^ "]"

(* Existence probe: SELECT 1 FROM table WHERE col <cell> LIMIT 1.  Exact
   text cells on text columns are answered from the inverted index when it
   is definitive; everything else falls back to a direct column scan. *)
let column_probe env (c : Duodb.Schema.column) cell =
  let key = (c.Duodb.Schema.col_table, c.Duodb.Schema.col_name, cell_key cell) in
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

let verify_by_column env (t : Partial.t) =
  let tuples =
    match env.e_tsq with None -> [] | Some tsq -> tsq.Tsq.tuples
  in
  let support =
    match env.e_tsq with None -> 0 | Some tsq -> Tsq.required_support tsq
  in
  tuples = []
  || support
     <= List.length
          (List.filter
             (fun tuple ->
         let cells = Array.of_list tuple in
         List.for_all
           (fun (i, slot) ->
             if i >= Array.length cells then true
             else
               let cell = cells.(i) in
               match cell, slot.Partial.pj_target, slot.Partial.pj_agg with
               | Tsq.Any, _, _ -> true
               | (Tsq.Exact _ | Tsq.Range _), Duoguide.Model.Target_count_star, _
                 ->
                   true
               | (Tsq.Exact _ | Tsq.Range _), Duoguide.Model.Target_column _, None
                 ->
                   true
               | ( (Tsq.Exact _ | Tsq.Range _),
                   Duoguide.Model.Target_column _,
                   Some (Some (Count | Sum)) ) ->
                   true (* no conclusion for partial queries *)
               | ( (Tsq.Exact _ | Tsq.Range _),
                   Duoguide.Model.Target_column c,
                   Some (Some Avg) ) -> (
                   (* AVG lies within the column's min-max range. *)
                   let rkey = (c.Duodb.Schema.col_table, c.Duodb.Schema.col_name) in
                   let range =
                     match Hashtbl.find_opt env.e_range_cache rkey with
                     | Some r -> r
                     | None ->
                         env.e_stats.column_probes <- env.e_stats.column_probes + 1;
                         let tbl =
                           Duodb.Database.table_exn env.e_db c.Duodb.Schema.col_table
                         in
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
                   column_probe env c cell)
           (List.mapi (fun i s -> (i, s)) t.Partial.projs))
             tuples)

(* --- stage 5: row-wise probes (Example 3.6) --- *)

let slot_has_agg (s : Partial.proj_slot) =
  match s.Partial.pj_target, s.Partial.pj_agg with
  | Duoguide.Model.Target_count_star, _ -> true
  | Duoguide.Model.Target_column _, Some (Some _) -> true
  | Duoguide.Model.Target_column _, (Some None | None) -> false

let can_check_rows (t : Partial.t) =
  let has_agg = List.exists slot_has_agg t.Partial.projs in
  (not has_agg) || (where_done t && group_decided t)

(* Distinct matching restricted to the decided projection positions, with
   the noisy-example support threshold — the shared matcher from [Tsq], so
   partial-query and complete-query semantics cannot drift. *)
let distinct_match_on = Tsq.distinct_match_on

(* A row probe the stage has decided to run: the probe query, the
   (output position, example cell index) pairs to match on, and the
   memoization key.  Splitting planning from execution lets
   [verify_batch] collect the plans of a whole sibling set and run the
   uncached ones through one {!Duoengine.Executor.run_batch} call. *)
type row_plan = {
  rp_probe : query;
  rp_positions : (int * int) list;
  rp_key : string;
}

let row_probe_plan env (t : Partial.t) : row_plan option =
  let tuples =
    match env.e_tsq with None -> [] | Some tsq -> tsq.Tsq.tuples
  in
  if tuples = [] then None
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

(* Match a probe's result rows against the example tuples at the plan's
   decided positions. *)
let row_probe_matches env plan (res : Duoengine.Executor.resultset) =
  let support =
    match env.e_tsq with None -> 0 | Some tsq -> Tsq.required_support tsq
  in
  let tuples =
    match env.e_tsq with None -> [] | Some tsq -> tsq.Tsq.tuples
  in
  distinct_match_on ~support plan.rp_positions tuples
    res.Duoengine.Executor.res_rows

let run_row_probe env plan =
  match Hashtbl.find_opt env.e_row_cache plan.rp_key with
  | Some r -> r
  | None ->
      env.e_stats.row_probes <- env.e_stats.row_probes + 1;
      let r =
        match
          Duoengine.Executor.run ~cache:env.e_relcache
            ~max_rows:verification_max_rows env.e_db plan.rp_probe
        with
        | Error _ -> false
        | Ok res -> row_probe_matches env plan res
      in
      sync_relcache env;
      Hashtbl.replace env.e_row_cache plan.rp_key r;
      r

let verify_by_row env (t : Partial.t) =
  match row_probe_plan env t with
  | None -> true
  | Some plan -> run_row_probe env plan

(* --- complete-query stage --- *)

let verify_literals env q =
  let used = literals q in
  List.for_all (fun l -> List.exists (Value.equal l) used) env.e_literals

let verify_complete env q =
  verify_literals env q
  && ((not env.e_semantics)
     || Result.is_ok (Semantics.check_query (Duodb.Database.schema env.e_db) q))
  && (* Stage-0 errors are enforced here too, so pruning a partial query
        on a static error stays monotone w.r.t. complete verification. *)
  verify_static_query env q
  &&
  match env.e_tsq with
  | None -> true
  | Some tsq ->
      env.e_stats.full_executions <- env.e_stats.full_executions + 1;
      let r =
        Tsq.satisfies ~cache:env.e_relcache ~max_rows:verification_max_rows tsq
          env.e_db q
      in
      sync_relcache env;
      r

let bump_pruned s = function
  | S_static -> s.pruned_by_static <- s.pruned_by_static + 1
  | S_clauses -> s.pruned_by_clauses <- s.pruned_by_clauses + 1
  | S_cardinality -> s.pruned_by_cardinality <- s.pruned_by_cardinality + 1
  | S_semantics -> s.pruned_by_semantics <- s.pruned_by_semantics + 1
  | S_types -> s.pruned_by_types <- s.pruned_by_types + 1
  | S_column -> s.pruned_by_column <- s.pruned_by_column + 1
  | S_row -> s.pruned_by_row <- s.pruned_by_row + 1
  | S_complete -> s.pruned_by_complete <- s.pruned_by_complete + 1

let verify env (t : Partial.t) =
  Atomic.incr verify_calls;
  let s = env.e_stats in
  let stage st check =
    let i = stage_index st in
    (* stage_seconds is a profiling accumulator, not a budget: it uses
       the cheap monotonic clock so sub-microsecond stages measure the
       stage and not the clock (see {!Clock}). *)
    let t0 = Clock.mono () in
    let ok = check env t in
    s.stage_seconds.(i) <- s.stage_seconds.(i) +. (Clock.mono () -. t0);
    ok
    || begin
         bump_pruned s st;
         false
       end
  in
  let ok =
    stage S_static verify_static
    && stage S_clauses verify_clauses
    && stage S_cardinality verify_cardinality
    && stage S_semantics verify_semantics
    && stage S_types verify_column_types
    && stage S_column verify_by_column
    && stage S_row verify_by_row
    &&
    match Partial.to_query t with
    | Some q when Partial.is_complete t ->
        let i = stage_index S_complete in
        let t0 = Clock.mono () in
        let ok = verify_complete env q in
        s.stage_seconds.(i) <- s.stage_seconds.(i) +. (Clock.mono () -. t0);
        ok
        || begin
             bump_pruned s S_complete;
             false
           end
    | Some _ | None -> true
  in
  if not ok then s.pruned <- s.pruned + 1;
  ok

(* --- incremental refinement (Enumerate.rebase) --- *)

(* Point the environment at a tightened sketch.  The column-probe and
   range caches memoize pure facts about the database ("does this cell
   occur in this column") that no sketch edit can change, so they carry
   over; the row-probe cache memoizes *match verdicts* against the
   sketch's tuples and support threshold, so it must start empty. *)
let retarget env ~tsq =
  { env with e_tsq = Some tsq; e_row_cache = Hashtbl.create 256 }

(* Re-verification of a state that already survived the full cascade
   under the pre-refinement sketch.  Under a [Tsq.Tightening] edit the
   carried verdicts stay valid without re-running:
   - [S_static] and [S_semantics] never read the sketch;
   - [S_types] reads only [tsq.types], which a tightening keeps equal.
   What can flip is anything reading [sorted], [tuples], [negatives] or
   the support threshold: [S_clauses], [S_cardinality] (the required
   tuple count only grows under a tightening), [S_column], [S_row], and
   the full Definition 2.4 check on complete states. *)
let reverify env (t : Partial.t) =
  Atomic.incr verify_calls;
  let s = env.e_stats in
  let stage st check =
    let i = stage_index st in
    let t0 = Clock.mono () in
    let ok = check env t in
    s.stage_seconds.(i) <- s.stage_seconds.(i) +. (Clock.mono () -. t0);
    ok
    || begin
         bump_pruned s st;
         false
       end
  in
  let ok =
    stage S_clauses verify_clauses
    && stage S_cardinality verify_cardinality
    && stage S_column verify_by_column
    && stage S_row verify_by_row
    &&
    match Partial.to_query t with
    | Some q when Partial.is_complete t ->
        let i = stage_index S_complete in
        let t0 = Clock.mono () in
        let ok = verify_complete env q in
        s.stage_seconds.(i) <- s.stage_seconds.(i) +. (Clock.mono () -. t0);
        ok
        || begin
             bump_pruned s S_complete;
             false
           end
    | Some _ | None -> true
  in
  if not ok then s.pruned <- s.pruned + 1;
  ok

(* Re-check an already-emitted candidate (a complete query) under the
   retargeted sketch; counted and timed like a complete-stage prune. *)
let reverify_query env q =
  Atomic.incr verify_calls;
  let s = env.e_stats in
  let i = stage_index S_complete in
  let t0 = Clock.mono () in
  let ok = verify_complete env q in
  s.stage_seconds.(i) <- s.stage_seconds.(i) +. (Clock.mono () -. t0);
  if not ok then begin
    bump_pruned s S_complete;
    s.pruned <- s.pruned + 1
  end;
  ok

(* Batched cascade over a sibling set (the children of one expansion).
   Verdicts, prune counters and probe counts are exactly what running
   {!verify} on each child in order would produce — the batching only
   changes *how* the uncached row probes execute: their plans are
   collected across the surviving children, deduplicated against the
   row-probe cache, and executed through one
   {!Duoengine.Executor.run_batch} call, so candidates scanning the same
   base table share a single scan. *)
let verify_batch env (children : Partial.t list) =
  let s = env.e_stats in
  let arr = Array.of_list children in
  let n = Array.length arr in
  let alive = Array.make n true in
  let fail i st =
    bump_pruned s st;
    s.pruned <- s.pruned + 1;
    alive.(i) <- false
  in
  let timed_stage st check t =
    let k = stage_index st in
    let t0 = Clock.mono () in
    let ok = check env t in
    s.stage_seconds.(k) <- s.stage_seconds.(k) +. (Clock.mono () -. t0);
    ok
  in
  (* Stages 0-4 are pure or probe-cached per candidate; run them with the
     usual early exit. *)
  let early =
    [ (S_static, verify_static);
      (S_clauses, verify_clauses);
      (S_cardinality, verify_cardinality);
      (S_semantics, verify_semantics);
      (S_types, verify_column_types);
      (S_column, verify_by_column) ]
  in
  Array.iteri
    (fun i t ->
      Atomic.incr verify_calls;
      let rec go = function
        | [] -> ()
        | (st, check) :: rest ->
            if timed_stage st check t then go rest else fail i st
      in
      go early)
    arr;
  (* Row stage: plan every survivor's probe, then run the uncached plans
     (deduplicated by key) as one batch. *)
  let t0 = Clock.mono () in
  let plans = Array.make n None in
  Array.iteri
    (fun i t -> if alive.(i) then plans.(i) <- row_probe_plan env t)
    arr;
  let pending : (string, row_plan) Hashtbl.t = Hashtbl.create 8 in
  Array.iter
    (fun p ->
      match p with
      | Some p
        when (not (Hashtbl.mem env.e_row_cache p.rp_key))
             && not (Hashtbl.mem pending p.rp_key) ->
          Hashtbl.add pending p.rp_key p
      | Some _ | None -> ())
    plans;
  let todo =
    Array.of_list (Hashtbl.fold (fun _ p acc -> p :: acc) pending [])
  in
  if Array.length todo > 0 then begin
    s.batch_rounds <- s.batch_rounds + 1;
    let results, report =
      Duoengine.Executor.run_batch ~cache:env.e_relcache
        ~max_rows:verification_max_rows env.e_db
        (Array.map (fun p -> p.rp_probe) todo)
    in
    s.batched_probes <- s.batched_probes + report.Duoengine.Executor.br_shared;
    Array.iteri
      (fun k p ->
        s.row_probes <- s.row_probes + 1;
        let r =
          match results.(k) with
          | Error _ -> false
          | Ok res -> row_probe_matches env p res
        in
        Hashtbl.replace env.e_row_cache p.rp_key r)
      todo;
    sync_relcache env
  end;
  Array.iteri
    (fun i _ ->
      if alive.(i) then
        let ok =
          match plans.(i) with
          | None -> true
          | Some p -> run_row_probe env p (* cache hit after the batch *)
        in
        if not ok then fail i S_row)
    arr;
  let k = stage_index S_row in
  s.stage_seconds.(k) <- s.stage_seconds.(k) +. (Clock.mono () -. t0);
  (* Complete-query stage, per candidate as before. *)
  Array.iteri
    (fun i t ->
      if alive.(i) then
        match Partial.to_query t with
        | Some q when Partial.is_complete t ->
            let kc = stage_index S_complete in
            let tc = Clock.mono () in
            let ok = verify_complete env q in
            s.stage_seconds.(kc) <- s.stage_seconds.(kc) +. (Clock.mono () -. tc);
            if not ok then fail i S_complete
        | Some _ | None -> ())
    arr;
  Array.to_list (Array.mapi (fun i t -> (t, alive.(i))) arr)
