module Value = Duodb.Value
module Executor = Duoengine.Executor

(* The four fuzz properties, parameterized by an iteration-count
   multiplier: [tests ()] is the small seeded set wired into the default
   test runner, [tests ~mult:50 ()] is a long fuzz run (the [@fuzz]
   alias). *)

let rows_agree a b =
  List.length a = List.length b
  && List.for_all2
       (fun ra rb -> Array.length ra = Array.length rb && Array.for_all2 Value.equal ra rb)
       a b

let resultsets_agree (a : Executor.resultset) (b : Executor.resultset) =
  a.Executor.res_cols = b.Executor.res_cols
  && rows_agree a.Executor.res_rows b.Executor.res_rows

(* planned engine = naive reference interpreter *)
let differential_prop (sc : Gen.scenario) =
  match
    ( Executor.run sc.Gen.sc_db sc.Gen.sc_query,
      Reference.run sc.Gen.sc_db sc.Gen.sc_query )
  with
  | Ok a, Ok b -> resultsets_agree a b
  | Error _, Error _ -> true
  | (Ok _ | Error _), (Ok _ | Error _) -> false

(* Cached execution = uncached = reference.  One relation cache is shared
   by the scenario query and a two-table join over every FK edge in both
   FROM orders, so one table gets attached on different columns and join
   indexes are reused across queries.  Each query, run twice through that
   cache (a build, then a hit), returns exactly what its uncached run
   returns, and that agrees with the reference.  A tight [max_rows] bound fails (or
   not) identically with and without a cache. *)
let cached_prop (sc : Gen.scenario) =
  let open Duosql.Ast in
  let db = sc.Gen.sc_db in
  let same a b =
    match (a, b) with
    | Ok a, Ok b -> resultsets_agree a b
    | Error a, Error b -> String.equal a b
    | (Ok _ | Error _), (Ok _ | Error _) -> false
  in
  let edge_joins =
    List.concat_map
      (fun (fk : Duodb.Schema.foreign_key) ->
        let fk_col = col fk.Duodb.Schema.fk_table fk.Duodb.Schema.fk_column
        and pk_col = col fk.Duodb.Schema.pk_table fk.Duodb.Schema.pk_column in
        let f_joins = [ { j_from = fk_col; j_to = pk_col } ] in
        List.map
          (fun f_tables -> simple [ proj_col fk_col; proj_col pk_col ] { f_tables; f_joins })
          [ [ fk_col.cr_table; pk_col.cr_table ]; [ pk_col.cr_table; fk_col.cr_table ] ])
      (Duodb.Database.schema db).Duodb.Schema.foreign_keys
  in
  let cache = Executor.create_cache () and bounded = Executor.create_cache () in
  List.for_all
    (fun q ->
      let uncached = Executor.run db q in
      let tight () = Executor.run ~cache:bounded ~max_rows:4 db q in
      (match (uncached, Reference.run db q) with
      | Ok a, Ok b -> resultsets_agree a b
      | Error _, Error _ -> true
      | (Ok _ | Error _), (Ok _ | Error _) -> false)
      && List.for_all (same uncached) [ Executor.run ~cache db q; Executor.run ~cache db q ]
      && List.for_all (same (Executor.run ~max_rows:4 db q)) [ tight (); tight () ])
    (sc.Gen.sc_query :: edge_joins)

(* parse (pretty q) = q *)
let roundtrip_prop (sc : Gen.scenario) =
  let sql = Duosql.Pretty.query sc.Gen.sc_query in
  match
    Duosql.Parser.query ~schema:(Duodb.Database.schema sc.Gen.sc_db) sql
  with
  | Ok q' -> Duosql.Equal.queries sc.Gen.sc_query q'
  | Error _ -> false

(* Columnar storage = row reference: every derived columnar view of a
   generated database — single cells, column vectors, per-block zone
   maps — agrees with the materialized row view, and the probe kernels
   answer exactly like a scalar row scan under the verifier's cell
   semantics ([Value.equal] membership; [Value.compare] ranges skipping
   NULLs). *)
let columnar_prop (sc : Gen.scenario) =
  let module Table = Duodb.Table in
  let module Schema = Duodb.Schema in
  let db = sc.Gen.sc_db in
  let schema = Duodb.Database.schema db in
  List.for_all
    (fun (tdef : Schema.table) ->
      let tbl = Duodb.Database.table_exn db tdef.Schema.tbl_name in
      let rows = Table.rows tbl in
      let n = Table.row_count tbl in
      List.for_all
        (fun (c : Schema.column) ->
          let j = Table.column_index tbl c.Schema.col_name in
          let colv = Table.column_array tbl c.Schema.col_name in
          let cells_ok =
            Array.length colv = n
            &&
            let ok = ref true in
            for i = 0 to n - 1 do
              if
                (not (Value.equal colv.(i) rows.(i).(j)))
                || not (Value.equal (Table.value_at tbl ~col:j ~row:i) rows.(i).(j))
              then ok := false
            done;
            !ok
          in
          let zones_ok =
            let ok = ref true in
            for b = 0 to Table.num_blocks tbl - 1 do
              let lo = b * Table.block
              and hi = min n ((b + 1) * Table.block) - 1 in
              let zref = ref None in
              for i = lo to hi do
                let v = rows.(i).(j) in
                if not (Value.is_null v) then
                  zref :=
                    (match !zref with
                    | None -> Some (v, v)
                    | Some (mn, mx) ->
                        Some
                          ( (if Value.compare v mn < 0 then v else mn),
                            if Value.compare v mx > 0 then v else mx ))
              done;
              match (Table.zone tbl ~col:j ~blk:b, !zref) with
              | None, None -> ()
              | Some (zlo, zhi), Some (rlo, rhi) ->
                  if not (Value.equal zlo rlo && Value.equal zhi rhi) then
                    ok := false
              | None, Some _ | Some _, None -> ok := false
            done;
            !ok
          in
          (* Probe pool: a few distinct column values plus values surely
             absent, NULL included (Exact-cell probes match NULL cells). *)
          let probes =
            Value.Null :: Value.Text "duocheck-absent" :: Value.Float 999983.5
            :: List.filteri
                 (fun i _ -> i < 8)
                 (List.sort_uniq Value.compare (Array.to_list colv))
          in
          let probe_ok =
            List.for_all
              (fun (v, r) ->
                r = Table.exists (fun row -> Value.equal row.(j) v) tbl)
              (Duoengine.Kernel.probe_exists tbl ~col:j probes)
          in
          let rprobes = List.filteri (fun i _ -> i < 5) probes in
          let range_ok =
            List.for_all
              (fun lo ->
                List.for_all
                  (fun hi ->
                    Duoengine.Kernel.probe_range tbl ~col:j lo hi
                    = Table.exists
                        (fun row ->
                          let v = row.(j) in
                          (not (Value.is_null v))
                          && Value.compare lo v <= 0
                          && Value.compare v hi <= 0)
                        tbl)
                  rprobes)
              rprobes
          in
          cells_ok && zones_ok && probe_ok && range_ok
          || QCheck.Test.fail_reportf
               "columnar mismatch on %s.%s (cells %b zones %b probe %b range %b)"
               tdef.Schema.tbl_name c.Schema.col_name cells_ok zones_ok
               probe_ok range_ok)
        tdef.Schema.tbl_columns)
    schema.Schema.tables

(* Simple single-table probes over every column of [db]: an unfiltered
   scan plus, where the column has a value, an equality and a range
   predicate on it — several per table, so the vectorized kernel
   selections are actually taken. *)
let single_table_probes db =
  let open Duosql.Ast in
  List.concat_map
    (fun (t : Duodb.Schema.table) ->
      let tbl = Duodb.Database.table_exn db t.Duodb.Schema.tbl_name in
      List.concat_map
        (fun (c : Duodb.Schema.column) ->
          let cr = col t.Duodb.Schema.tbl_name c.Duodb.Schema.col_name in
          let base =
            {
              q_distinct = false;
              q_select = [ { p_agg = None; p_col = Some cr; p_distinct = false } ];
              q_from = from_table t.Duodb.Schema.tbl_name;
              q_where = None;
              q_group_by = [];
              q_having = None;
              q_order_by = [];
              q_limit = None;
            }
          in
          let with_pred rhs =
            { base with
              q_where =
                Some
                  { c_preds = [ { pr_agg = None; pr_col = Some cr; pr_rhs = rhs } ];
                    c_conn = And } }
          in
          base
          :: (match
                Array.find_opt
                  (fun v -> not (Value.is_null v))
                  (Duodb.Table.column_array tbl c.Duodb.Schema.col_name)
              with
             | Some v -> [ with_pred (Cmp (Eq, v)); with_pred (Cmp (Le, v)) ]
             | None -> []))
        t.Duodb.Schema.tbl_columns)
    (Duodb.Database.schema db).Duodb.Schema.tables

(* Streamed example matching = materialized matching.  Queries: the
   scenario's own, a plain projection of it (aggregates, grouping,
   DISTINCT, ORDER BY and LIMIT stripped, so it streams without
   materializing), and {!single_table_probes}.  Tuples: the sketch's
   (with [Any] and [Range] cells), a NULL-cell mutation, a duplicated
   tuple, and rows sampled from the plain query's own result.  For
   random decided positions (some cell indices past the tuple width) and
   a random support threshold per query, the {!Duocore.Tsq.matcher} fed by
   [Executor.stream] through one shared relation cache gives
   [Tsq.distinct_match_on]'s verdict on [run]'s rows.
   The streamed [Tsq.satisfies] equals [Tsq.satisfies_result] on the
   engine's result and on the reference interpreter's. *)
let streamed_match_prop ((sc : Gen.scenario), seed) =
  let open Duosql.Ast in
  let module Tsq = Duocore.Tsq in
  let st = Random.State.make [| seed |] in
  let db = sc.Gen.sc_db and q = sc.Gen.sc_query in
  let plain =
    let cols =
      List.filter_map (fun p -> p.p_col) q.q_select
      @ List.concat_map
          (fun t ->
            List.map
              (fun c -> col t c.Duodb.Schema.col_name)
              (Duodb.Table.schema (Duodb.Database.table_exn db t)).Duodb.Schema.tbl_columns)
          q.q_from.f_tables
    in
    let width = max 1 (List.length q.q_select) in
    {
      q with
      q_distinct = false;
      q_select =
        List.filteri (fun i _ -> i < width) cols
        |> List.map (fun c -> { p_agg = None; p_col = Some c; p_distinct = false });
      q_group_by = [];
      q_having = None;
      q_order_by = [];
      q_limit = None;
    }
  in
  let pick xs = List.nth xs (Random.State.int st (List.length xs)) in
  let sampled =
    match Executor.run db plain with
    | Ok { Executor.res_rows = _ :: _ as rows; _ } ->
        List.init 2 (fun _ ->
            Array.to_list
              (Array.map
                 (fun v -> if Random.State.int st 4 = 0 then Tsq.Any else Tsq.Exact v)
                 (pick rows)))
    | Ok _ | Error _ -> []
  in
  let tuples =
    let base = sc.Gen.sc_tsq.Tsq.tuples @ sampled in
    let nulled =
      match base with
      | [] -> []
      | tup :: _ -> [ List.mapi (fun i c -> if i = 0 then Tsq.Exact Value.Null else c) tup ]
    in
    let dup = match sampled with tup :: _ -> [ tup ] | [] -> [] in
    base @ nulled @ dup
  in
  let ntuples = List.length tuples in
  let width = List.fold_left (fun acc t -> max acc (List.length t)) 0 tuples in
  let qs = Array.of_list (q :: plain :: single_table_probes db) in
  let cache = Executor.create_cache () in
  let positions q =
    List.filter_map
      (fun out ->
        if Random.State.int st 4 = 0 then None
        else Some (out, Random.State.int st (width + 2)))
      (List.init (List.length q.q_select) Fun.id)
  in
  let cases =
    Array.map (fun q -> (positions q, Random.State.int st (ntuples + 2))) qs
  in
  let expected =
    Array.map2
      (fun q (pos, support) ->
        Result.map
          (fun res ->
            Tsq.distinct_match_on ~support pos tuples res.Executor.res_rows)
          (Executor.run db q))
      qs cases
  in
  let verdict m = Result.map (fun (_ : bool) -> Tsq.matched m) in
  let streamed =
    Array.map2
      (fun q (pos, support) ->
        let m = Tsq.matcher ~support pos tuples in
        verdict m (Executor.stream ~cache db q (Tsq.feed m)))
      qs cases
  in
  let agree a b =
    match (a, b) with
    | Ok x, Ok y -> x = y
    | Error _, Error _ -> true
    | (Ok _ | Error _), (Ok _ | Error _) -> false
  in
  let sketch = { sc.Gen.sc_tsq with Tsq.tuples } in
  let sketches =
    [ sketch;
      { sketch with
        Tsq.types = None; negatives = []; sorted = false; limit = 0;
        min_support = Some (Random.State.int st (ntuples + 1)) } ]
  in
  let sat_ok q t =
    let streamed = Tsq.satisfies ~cache t db q in
    streamed = Tsq.satisfies_result t q (Executor.run db q)
    && streamed = Tsq.satisfies_result t q (Reference.run db q)
  in
  let bad = ref None in
  Array.iteri
    (fun i q ->
      if
        !bad = None
        && not
             (agree expected.(i) streamed.(i) && List.for_all (sat_ok q) sketches)
      then bad := Some q)
    qs;
  match !bad with
  | None -> true
  | Some q ->
      QCheck.Test.fail_reportf "streamed matching diverges on %s" (Duosql.Pretty.query q)

(* Guidance context for a scenario: the query's own literals plus a few
   database values, so the model's WHERE/HAVING branches are populated. *)
let ctx_of (sc : Gen.scenario) =
  let lits =
    Duosql.Ast.literals sc.Gen.sc_query @ Gen.seed_literals sc.Gen.sc_db
  in
  let nlq = Duonl.Nlq.with_literals "find the matching rows" lits in
  Duoguide.Model.make (Duodb.Database.schema sc.Gen.sc_db) nlq

(* no Verify stage prunes a state with a satisfying completion *)
let soundness_prop (sc : Gen.scenario) =
  let ctx = ctx_of sc in
  let env =
    Duocore.Verify.make_env ~db:sc.Gen.sc_db ~tsq:(Some sc.Gen.sc_tsq)
      ~literals:[] ()
  in
  let hints = Duocore.Enumerate.hints_of_tsq sc.Gen.sc_tsq in
  match Soundness.check env ctx ~hints () with
  | [] -> true
  | v :: _ ->
      QCheck.Test.fail_reportf "%a" Soundness.pp_violation v

(* Property 1 (Section 3.3.3): each expansion partitions the parent's
   confidence mass — the children's confidences sum to the parent's.
   Join-path forks are exempt by design (siblings carry the parent's
   confidence; they fork the same decision point, not a distribution). *)
let property1_prop ((sc : Gen.scenario), seed) =
  let st = Random.State.make [| seed |] in
  let ctx = ctx_of sc in
  let guided = seed land 1 = 0 in
  let hints = Duocore.Enumerate.hints_of_tsq sc.Gen.sc_tsq in
  let eps = 1e-6 in
  let rec walk state steps =
    steps <= 0
    ||
    let children = Duocore.Enumerate.expand ~guided hints ctx state in
    match children with
    | [] -> true
    | _ ->
        let exempt =
          match state.Duocore.Partial.phase with
          | Duocore.Partial.P_joinpath _ | Duocore.Partial.P_done -> true
          | Duocore.Partial.P_keywords | Duocore.Partial.P_num_proj
          | Duocore.Partial.P_proj_target _ | Duocore.Partial.P_proj_agg _
          | Duocore.Partial.P_where_num | Duocore.Partial.P_where_col _
          | Duocore.Partial.P_where_op _ | Duocore.Partial.P_where_conn
          | Duocore.Partial.P_group_col | Duocore.Partial.P_having_presence
          | Duocore.Partial.P_having_pred | Duocore.Partial.P_order_target
          | Duocore.Partial.P_order_dir | Duocore.Partial.P_limit ->
              false
        in
        let sum =
          List.fold_left
            (fun acc c -> acc +. c.Duocore.Partial.confidence)
            0.0 children
        in
        let parent = state.Duocore.Partial.confidence in
        if (not exempt) && Float.abs (sum -. parent) > eps *. Float.max 1.0 parent
        then
          QCheck.Test.fail_reportf
            "children sum to %.9f but parent confidence is %.9f at %s" sum
            parent
            (Duocore.Partial.to_string state)
        else
          let next = List.nth children (Random.State.int st (List.length children)) in
          walk next (steps - 1)
  in
  walk Duocore.Partial.root 40

(* Resume determinism: a run paused via [Enumerate.step] after any number
   of pops and resumed later is observably identical to the uninterrupted
   [run] — same candidates in the same order, same pop/push counts, same
   per-stage prunes, same exhaustion flag.  This is the contract Duoserve
   time-slicing rests on: the scheduler may suspend a session at any
   slice boundary without changing what it computes.  Seed picks the
   slice size (1..12) and whether partial-query pruning is on. *)
let resume_determinism_prop ((sc : Gen.scenario), seed) =
  let ctx = ctx_of sc in
  let slice = 1 + (seed mod 12) in
  let prune_partial = seed land 1 = 0 in
  let config =
    { Duocore.Enumerate.default_config with
      Duocore.Enumerate.max_pops = 400;
      max_candidates = 10;
      time_budget_s = 20.0;
      prune_partial }
  in
  let full =
    Duocore.Enumerate.run config ctx sc.Gen.sc_db ~tsq:(Some sc.Gen.sc_tsq)
      ~literals:[] ()
  in
  let st =
    Duocore.Enumerate.init config ctx sc.Gen.sc_db ~tsq:(Some sc.Gen.sc_tsq)
      ~literals:[] ()
  in
  let stepped =
    let rec go () =
      match Duocore.Enumerate.step ~max_pops:slice st with
      | Duocore.Enumerate.Running -> go ()
      | Duocore.Enumerate.Finished -> Duocore.Enumerate.outcome st
    in
    go ()
  in
  let sigs (o : Duocore.Enumerate.outcome) =
    List.map
      (fun (c : Duocore.Enumerate.candidate) ->
        (Duosql.Pretty.query c.Duocore.Enumerate.cand_query,
         c.Duocore.Enumerate.cand_pops))
      o.Duocore.Enumerate.out_candidates
  in
  let prunes (o : Duocore.Enumerate.outcome) =
    List.map
      (Duocore.Verify.pruned_by o.Duocore.Enumerate.out_stats)
      Duocore.Verify.all_stages
  in
  if sigs full <> sigs stepped then
    QCheck.Test.fail_reportf
      "candidates diverge at slice=%d:\nrun:  %s\nstep: %s" slice
      (String.concat " | " (List.map fst (sigs full)))
      (String.concat " | " (List.map fst (sigs stepped)))
  else if
    full.Duocore.Enumerate.out_pops <> stepped.Duocore.Enumerate.out_pops
    || full.Duocore.Enumerate.out_pushed <> stepped.Duocore.Enumerate.out_pushed
  then
    QCheck.Test.fail_reportf
      "loop accounting diverges at slice=%d: pops %d/%d pushes %d/%d" slice
      full.Duocore.Enumerate.out_pops stepped.Duocore.Enumerate.out_pops
      full.Duocore.Enumerate.out_pushed stepped.Duocore.Enumerate.out_pushed
  else if prunes full <> prunes stepped then
    QCheck.Test.fail_reportf "prune counts diverge at slice=%d" slice
  else if
    full.Duocore.Enumerate.out_exhausted
    <> stepped.Duocore.Enumerate.out_exhausted
    || full.Duocore.Enumerate.out_dropped
       <> stepped.Duocore.Enumerate.out_dropped
  then QCheck.Test.fail_reportf "exhaustion accounting diverges at slice=%d" slice
  else true

(* --- Incremental refinement ----------------------------------------- *)

(* A seeded tightening edit of a sketch: append a duplicate example (when
   full support is already demanded), add a negative built from a
   perturbed example row, or toggle the sorted flag on (the always-legal
   fallback).  [Tsq.refines] must classify every one as a tightening. *)
let neg_cell = function
  | Duocore.Tsq.Exact (Value.Int v) -> Duocore.Tsq.Exact (Value.Int (v + 13))
  | Duocore.Tsq.Exact (Value.Text s) ->
      Duocore.Tsq.Exact (Value.Text (s ^ "x"))
  | Duocore.Tsq.Exact (Value.Null | Value.Float _)
  | Duocore.Tsq.Any | Duocore.Tsq.Range _ ->
      Duocore.Tsq.Exact (Value.Text "duocheck-neg")

let tighten_tsq (t : Duocore.Tsq.t) seed =
  let module Tsq = Duocore.Tsq in
  let full_support =
    t.Tsq.tuples <> [] && Tsq.required_support t = List.length t.Tsq.tuples
  in
  match seed mod 3 with
  | 0 when full_support ->
      { t with
        Tsq.tuples = t.Tsq.tuples @ [ List.hd t.Tsq.tuples ];
        min_support = None }
  | 1 when t.Tsq.tuples <> [] ->
      Tsq.add_negative t (List.map neg_cell (List.hd t.Tsq.tuples))
  | _ -> { t with Tsq.sorted = true }

(* Tightening monotonicity: every state the cascade prunes under the old
   sketch stays pruned under the tightened one — the contract that lets
   [Enumerate.rebase] keep the visited set and re-check only survivors.
   Walks a random derivation and compares full-cascade verdicts under
   both sketches at every state (pruned or not). *)
let refine_monotone_prop ((sc : Gen.scenario), seed) =
  let old_t = sc.Gen.sc_tsq in
  let new_t = tighten_tsq old_t seed in
  if Duocore.Tsq.refines ~old:old_t ~new_:new_t <> Duocore.Tsq.Tightening then
    QCheck.Test.fail_reportf "seeded edit did not classify as a tightening"
  else begin
    let ctx = ctx_of sc in
    let env_old =
      Duocore.Verify.make_env ~db:sc.Gen.sc_db ~tsq:(Some old_t) ~literals:[] ()
    in
    let env_new =
      Duocore.Verify.make_env ~db:sc.Gen.sc_db ~tsq:(Some new_t) ~literals:[] ()
    in
    (* header edits are Incomparable, so old and new hints coincide *)
    let hints = Duocore.Enumerate.hints_of_tsq old_t in
    let st = Random.State.make [| seed |] in
    let rec walk state steps =
      steps <= 0
      ||
      let old_ok = Duocore.Verify.verify env_old state in
      let new_ok = Duocore.Verify.verify env_new state in
      if new_ok && not old_ok then
        QCheck.Test.fail_reportf "tightened sketch revived a pruned state: %s"
          (Duocore.Partial.to_string state)
      else
        match Duocore.Enumerate.expand ~guided:true hints ctx state with
        | [] -> true
        | children ->
            walk
              (List.nth children (Random.State.int st (List.length children)))
              (steps - 1)
    in
    walk Duocore.Partial.root 40
  end

(* Incremental re-synthesis = from-root restart: loosen the scenario's
   sketch (first example only, unsorted, no negatives), enumerate under
   the loose sketch for a random number of pops, [rebase] onto the
   original, finish — and compare against an uninterrupted run under the
   original sketch.  The pop budget is per refinement by design, so when
   the cold run is stopped by its pop budget the warm run may legally
   emit more: the cold candidate list must then be a strict prefix. *)
let incremental_refine_prop ((sc : Gen.scenario), seed) =
  let module Tsq = Duocore.Tsq in
  let module E = Duocore.Enumerate in
  let new_t = { sc.Gen.sc_tsq with Tsq.min_support = None } in
  let old_t =
    { new_t with
      Tsq.tuples =
        (match new_t.Tsq.tuples with [] -> [] | t :: _ -> [ t ]);
      sorted = false;
      negatives = [] }
  in
  if Tsq.refines ~old:old_t ~new_:new_t <> Tsq.Tightening then
    QCheck.Test.fail_reportf "loosened sketch is not refined by the original"
  else begin
    let ctx = ctx_of sc in
    let config =
      { E.default_config with
        E.max_pops = 1_500;
        max_candidates = 5;
        time_budget_s = 20.0 }
    in
    let cold = E.run config ctx sc.Gen.sc_db ~tsq:(Some new_t) ~literals:[] () in
    let st = E.init config ctx sc.Gen.sc_db ~tsq:(Some old_t) ~literals:[] () in
    ignore (E.step ~max_pops:(1 + (seed mod 40)) st);
    E.rebase st ~tsq:new_t;
    let rec go () = match E.step st with E.Running -> go () | E.Finished -> () in
    go ();
    let warm = E.outcome st in
    let sqls (o : E.outcome) =
      List.map
        (fun (c : E.candidate) -> Duosql.Pretty.query c.E.cand_query)
        o.E.out_candidates
    in
    let rec is_prefix xs ys =
      match (xs, ys) with
      | [], _ -> true
      | x :: xs', y :: ys' -> x = y && is_prefix xs' ys'
      | _ :: _, [] -> false
    in
    let cs = sqls cold and ws = sqls warm in
    let cold_budget_bound = cold.E.out_pops >= config.E.max_pops in
    if not (is_prefix cs ws) then
      QCheck.Test.fail_reportf
        "incremental candidates diverge from the from-root run:\ncold: %s\nwarm: %s"
        (String.concat " | " cs) (String.concat " | " ws)
    else if (not cold_budget_bound) && cs <> ws then
      QCheck.Test.fail_reportf
        "warm run emitted extra candidates without a cold budget bound:\ncold: %s\nwarm: %s"
        (String.concat " | " cs) (String.concat " | " ws)
    else if warm.E.out_rebases <> 1 then
      QCheck.Test.fail_reportf "expected exactly one rebase, saw %d"
        warm.E.out_rebases
    else true
  end

(* --- Render-free dedup -------------------------------------------------- *)

module Partial = Duocore.Partial

(* A derivation sample without dedup: a bounded breadth-first expansion
   (the same decided content reached along different join-fork orders,
   as in the enumerator's visited hits) plus seeded random walks down to
   complete queries with their siblings (predicates, literals, ORDER BY,
   multi-table FROM clauses). *)
let derivation_sample (sc : Gen.scenario) seed ~max_states =
  let ctx = ctx_of sc in
  let hints = Duocore.Enumerate.hints_of_tsq sc.Gen.sc_tsq in
  let expand = Duocore.Enumerate.expand ~guided:true hints ctx in
  let q = Queue.create () in
  Queue.add Partial.root q;
  let acc = ref [] and n = ref 0 in
  while (not (Queue.is_empty q)) && !n < max_states do
    let t = Queue.pop q in
    incr n;
    acc := t :: !acc;
    List.iter (fun c -> Queue.add c q) (expand t)
  done;
  let st = Random.State.make [| seed |] in
  for _ = 1 to 12 do
    let rec walk t steps =
      match expand t with
      | [] -> ()
      | children ->
          acc := List.rev_append children !acc;
          if steps > 0 then
            walk (List.nth children (Random.State.int st (List.length children))) (steps - 1)
    in
    walk Partial.root 40
  done;
  List.rev !acc

(* Variants of a state that print like it, or nearly: literals swapped
   between [Int n] and [Float n.], the direction flipped beside no ORDER
   item, the FROM tables after the first (or the join edges) reversed, a
   COUNT( * ) slot's aggregate decision changed, confidence and depth
   changed.  Some print alike and some do not; the property is stated
   over whichever do. *)
let twins (t : Partial.t) =
  let open Duosql.Ast in
  let swap_value = function
    | Value.Int n -> Value.Float (float_of_int n)
    | Value.Float f when Float.is_integer f && Float.abs f < 1e15 -> Value.Int (int_of_float f)
    | (Value.Null | Value.Float _ | Value.Text _) as v -> v
  in
  let swap_pred p =
    match p.pr_rhs with
    | Cmp (op, v) -> { p with pr_rhs = Cmp (op, swap_value v) }
    | Between (lo, hi) -> { p with pr_rhs = Between (swap_value lo, swap_value hi) }
  in
  let reorder f_of =
    match t.Partial.from with
    | Some f -> [ { t with Partial.from = Some (f_of f) } ]
    | None -> []
  in
  [
    { t with
      Partial.where_preds = List.map swap_pred t.Partial.where_preds;
      having_pred = Option.map swap_pred t.Partial.having_pred };
    { t with
      Partial.order_dir = (match t.Partial.order_dir with Asc -> Desc | Desc -> Asc) };
    { t with
      Partial.projs =
        List.map
          (fun (s : Partial.proj_slot) ->
            match s.Partial.pj_target with
            | Duoguide.Model.Target_count_star ->
                { s with
                  Partial.pj_agg =
                    (match s.Partial.pj_agg with None -> Some (Some Count) | Some _ -> None) }
            | Duoguide.Model.Target_column _ -> s)
          t.Partial.projs };
    { t with Partial.confidence = t.Partial.confidence /. 3.0; depth = t.Partial.depth + 7 };
  ]
  @ reorder (fun f ->
        match f.f_tables with
        | first :: rest -> { f with f_tables = first :: List.rev rest }
        | [] -> f)
  @ reorder (fun f -> { f with f_joins = List.rev f.f_joins })

(* Variants of a state for the canonical layer: the WHERE predicates
   reversed; a numeric comparison joined by a duplicate of itself, by a
   weaker comparison on the same target (the two fold alike once WHERE
   is settled and conjunctive, but consume different literals), and by
   the weaker one first; the HAVING predicate dropped, or a WHERE
   predicate added as one. *)
let canonical_twins (t : Partial.t) =
  let open Duosql.Ast in
  let preds = t.Partial.where_preds in
  let weaker p =
    match p.pr_rhs with
    | Cmp (((Gt | Ge) as op), Value.Int n) -> Some { p with pr_rhs = Cmp (op, Value.Int (n - 1)) }
    | Cmp (((Lt | Le) as op), Value.Int n) -> Some { p with pr_rhs = Cmp (op, Value.Int (n + 1)) }
    | Cmp ((Eq | Neq | Like | Not_like), _)
    | Cmp ((Gt | Ge | Lt | Le), (Value.Null | Value.Float _ | Value.Text _))
    | Between _ ->
        None
  in
  let with_preds l = { t with Partial.where_preds = l; where_n = List.length l } in
  { t with Partial.where_preds = List.rev preds }
  :: { t with Partial.having_pred = (match t.Partial.having_pred with Some _ -> None | None -> List.nth_opt preds 0) }
  :: List.concat_map
       (fun p ->
         with_preds (preds @ [ p ])
         :: (match weaker p with
            | Some w -> [ with_preds (preds @ [ w ]); with_preds (w :: preds) ]
            | None -> []))
       (List.filteri (fun i _ -> i < 2) preds)

(* [key_hash] is consistent with [key] ([key a = key b] implies equal
   hashes) over a derivation sample and each state's twins;
   [equal_rendered] implies equal keys; [Partial.Tbl] partitions the
   sample exactly like a string-keyed table; and a state without
   predicates shares its canonical key with no predicated state and only
   with states of its own key — the two facts that let the enumerator
   skip the canonical layer for such states.  The canonical layer: over
   every pair of a state and its twins, [canonical_hash] is equal
   exactly when [canonical_key] is (no collisions on the sample), and
   [Partial.Canon] collides exactly when [canonical_key] is equal; over
   the sample, [Partial.Canon] partitions like a string-keyed table of
   canonical keys. *)
let key_hash_prop ((sc : Gen.scenario), seed) =
  let sample = derivation_sample sc seed ~max_states:(100 + (seed mod 100)) in
  let fail fmt = QCheck.Test.fail_reportf fmt in
  let pair_ok a b =
    let ka = Partial.key a and kb = Partial.key b in
    if String.equal ka kb && Partial.key_hash a <> Partial.key_hash b then
      fail "equal keys, different hashes:\n%s\n%s" (Partial.to_string a) (Partial.to_string b)
    else if Partial.equal_rendered a b && not (String.equal ka kb) then
      fail "equal_rendered states with different keys:\n%s\n%s" ka kb
    else
      let tbl = Partial.Tbl.create 4 in
      ignore (Partial.Tbl.add tbl a);
      (not (Partial.Tbl.add tbl b)) = String.equal ka kb
      || fail "Partial.Tbl disagrees with key equality:\n%s\n%s" ka kb
  in
  (* every pair of a family: hash equality iff key equality; and one
     [Canon] set over the family admits exactly the first of each key *)
  let canon_family_ok family =
    let keyed = List.map (fun t -> (Partial.canonical_key t, Partial.canonical_hash t)) family in
    List.for_all
      (fun (ca, ha) ->
        List.for_all
          (fun (cb, hb) ->
            let same = String.equal ca cb in
            same = (ha = hb)
            || fail "canonical_hash %s canonical_key equality:\n%s\n%s"
                 (if same then "breaks" else "collides beyond") ca cb)
          keyed)
      keyed
    &&
    let c = Partial.Canon.create 4 and seen = Hashtbl.create 8 in
    List.for_all2
      (fun t (ck, _) ->
        let fresh = not (Hashtbl.mem seen ck) in
        Hashtbl.replace seen ck ();
        Partial.Canon.add c t = fresh
        || fail "Partial.Canon disagrees with canonical_key equality on %s" ck)
      family keyed
  in
  let by_key = Hashtbl.create 256 in
  let tbl = Partial.Tbl.create 16 in
  let canon = Hashtbl.create 256 in
  let canon_set = Partial.Canon.create 16 in
  List.for_all
    (fun t ->
      List.for_all (pair_ok t) (twins t)
      && canon_family_ok (t :: canonical_twins t)
      &&
      let k = Partial.key t in
      let first = Hashtbl.find_opt by_key k in
      (match first with
      | Some t' -> pair_ok t t'
      | None ->
          Hashtbl.replace by_key k t;
          true)
      && (Partial.Tbl.add tbl t = Option.is_none first
         || fail "Partial.Tbl and the string table disagree on %s" k)
      &&
      let ck = Partial.canonical_key t in
      (Partial.Canon.add canon_set t = not (Hashtbl.mem canon ck)
      || fail "Partial.Canon and the string table disagree on %s" ck)
      &&
      match Hashtbl.find_opt canon ck with
      | None ->
          Hashtbl.replace canon ck (k, Partial.has_predicates t);
          true
      | Some (k', preds') ->
          let preds = Partial.has_predicates t in
          if preds <> preds' then
            fail "canonical collision between a state with predicates and one without:\n%s\n%s" k k'
          else if (not preds) && not (String.equal k k') then
            fail "predicate-free states collide canonically with different keys:\n%s\n%s" k k'
          else true)
    sample

(* Spellings of a state's WHERE clause for the canonical layer: every
   rotation of the predicate list, and the literals of two numeric
   predicates swapped between them (a BETWEEN bound included), which
   keeps the used-literal multiset and sometimes the folded interval:
   [x BETWEEN 3 AND 7 AND x <= 5] and [x BETWEEN 3 AND 5 AND x <= 7]
   collapse. *)
let spellings (t : Partial.t) =
  let open Duosql.Ast in
  let preds = Array.of_list t.Partial.where_preds in
  let n = Array.length preds in
  let with_preds a = { t with Partial.where_preds = Array.to_list a } in
  let rotations =
    List.init (max 0 (n - 1)) (fun k -> with_preds (Array.init n (fun i -> preds.((i + k + 1) mod n))))
  in
  (* the numeric literal slots of a predicate, each with a rebuild *)
  let slots p =
    match p.pr_rhs with
    | Cmp (op, v) when Value.is_numeric v -> [ (v, fun v' -> { p with pr_rhs = Cmp (op, v') }) ]
    | Between (lo, hi) ->
        [ (lo, fun v' -> { p with pr_rhs = Between (v', hi) });
          (hi, fun v' -> { p with pr_rhs = Between (lo, v') }) ]
    | Cmp _ -> []
  in
  let idx = List.init n Fun.id in
  let swaps =
    List.concat_map
      (fun i ->
        List.concat_map
          (fun j ->
            if j <= i then []
            else
              List.concat_map
                (fun (vi, set_i) ->
                  List.map
                    (fun (vj, set_j) ->
                      let a = Array.copy preds in
                      a.(i) <- set_i vj;
                      a.(j) <- set_j vi;
                      with_preds a)
                    (slots preds.(j)))
                (slots preds.(i)))
          idx)
      idx
  in
  rotations @ swaps

(* Verify on pop keeps the visited and canonical slot of a state that
   fails a stage at pop, [static] included, and that is sound only if
   the cascade's verdict is the same for every state of a [Partial.key]
   partition and of a [Partial.canonical_key] partition: otherwise the
   slot could turn away a later state that passes.  Over a derivation
   sample, each state's key twins ({!twins}), canonical twins
   ({!canonical_twins}) and WHERE spellings ({!spellings}), every state
   gets its full verdict, and states of one partition must agree. *)
let partition_verdict_prop ((sc : Gen.scenario), seed) =
  let env =
    Duocore.Verify.make_env ~db:sc.Gen.sc_db ~tsq:(Some sc.Gen.sc_tsq)
      ~literals:(List.filteri (fun i _ -> i < seed mod 3) (Duosql.Ast.literals sc.Gen.sc_query))
      ()
  in
  let by_key = Hashtbl.create 256 and by_canon = Hashtbl.create 256 in
  let agree tbl k (t : Partial.t) v what =
    match Hashtbl.find_opt tbl k with
    | None ->
        Hashtbl.replace tbl k (t, v);
        true
    | Some (t', v') ->
        v = v'
        ||
        (* the first failing stage names the one that splits *)
        let stage t = Option.value ~default:"none" (Soundness.first_failing_stage env t) in
        QCheck.Test.fail_reportf
          "one %s partition, two verdicts:\n%b %s\n  first failing: %s\n%b %s\n  first failing: %s"
          what v (Partial.to_string t) (stage t) v' (Partial.to_string t') (stage t')
  in
  let check (t : Partial.t) =
    let v = Duocore.Verify.verify env t in
    agree by_key (Partial.key t) t v "key"
    && agree by_canon (Partial.canonical_key t) t v "canonical"
  in
  List.for_all
    (fun t -> List.for_all check ((t :: twins t) @ canonical_twins t @ spellings t))
    (derivation_sample sc seed ~max_states:(60 + (seed mod 60)))

(* The string-keyed two-layer dedup the enumerator used to run
   ([Partial.key], then [Partial.canonical_key] for every state), replayed
   over a run's offers through [Enumerate.init ~on_offer]. *)
type replay = {
  rp_visited : (string, unit) Hashtbl.t;
  rp_canon : (string, unit) Hashtbl.t;
  mutable rp_hits : int;
  mutable rp_canon_hits : int;
  mutable rp_admitted : int;
  mutable rp_mismatch : (string * bool) option;
}

let new_replay () =
  {
    rp_visited = Hashtbl.create 256;
    rp_canon = Hashtbl.create 256;
    rp_hits = 0;
    rp_canon_hits = 0;
    rp_admitted = 0;
    rp_mismatch = None;
  }

let replay_offer r child admitted =
  let k = Partial.key child in
  let expected =
    if Hashtbl.mem r.rp_visited k then begin
      r.rp_hits <- r.rp_hits + 1;
      false
    end
    else begin
      Hashtbl.replace r.rp_visited k ();
      let ck = Partial.canonical_key child in
      if Hashtbl.mem r.rp_canon ck then begin
        r.rp_canon_hits <- r.rp_canon_hits + 1;
        false
      end
      else begin
        Hashtbl.replace r.rp_canon ck ();
        true
      end
    end
  in
  if admitted then r.rp_admitted <- r.rp_admitted + 1;
  if expected <> admitted && r.rp_mismatch = None then r.rp_mismatch <- Some (k, expected)

(* The hashed run pushes exactly what the string-keyed run pushes.  Every
   child the committing loop offers (one with a predicate when its
   parent is expanded, a predicate-free one when the search reaches it)
   is replayed through the string-keyed two-layer dedup it replaced
   ([Partial.key], then [Partial.canonical_key] for every state); the
   verdicts must agree at every offer.  Agreement at every offer makes
   the two runs' frontiers, pops and offers identical by induction, so
   one run checks both.  Modes: NLI (no sketch), dual, and a warm
   rebase; [lazy_runs_prop] checks the same modes' candidates and pops
   against the loop that offered every child at its parent's
   expansion. *)
let dedup_exact_prop ((sc : Gen.scenario), seed) =
  let module Tsq = Duocore.Tsq in
  let module E = Duocore.Enumerate in
  let ctx = ctx_of sc in
  let config =
    { E.default_config with
      E.max_pops = 400;
      max_candidates = 10;
      time_budget_s = 20.0 }
  in
  let new_t = { sc.Gen.sc_tsq with Tsq.min_support = None } in
  let old_t =
    { new_t with
      Tsq.tuples = (match new_t.Tsq.tuples with [] -> [] | t :: _ -> [ t ]);
      sorted = false;
      negatives = [] }
  in
  let check_mode name ~tsq ~rebase =
    let r = new_replay () in
    let st = E.init config ctx sc.Gen.sc_db ~tsq ~literals:[] ~on_offer:(replay_offer r) () in
    if rebase then begin
      ignore (E.step ~max_pops:(1 + (seed mod 40)) st);
      E.rebase st ~tsq:new_t
    end;
    let rec go () = match E.step st with E.Running -> go () | E.Finished -> () in
    go ();
    let o = E.outcome st in
    match r.rp_mismatch with
    | Some (k, expected) ->
        QCheck.Test.fail_reportf "%s: hashed dedup %s a state the string-keyed run %s: %s" name
          (if expected then "rejected" else "admitted")
          (if expected then "admits" else "rejects")
          k
    | None ->
        let stats = o.E.out_stats in
        if r.rp_admitted + 1 <> o.E.out_pushed then
          QCheck.Test.fail_reportf "%s: %d admitted offers but %d pushes" name r.rp_admitted
            o.E.out_pushed
        else if stats.Duocore.Verify.visited_hits <> r.rp_hits then
          QCheck.Test.fail_reportf "%s: %d visited hits counted, %d replayed" name
            stats.Duocore.Verify.visited_hits r.rp_hits
        else true
  in
  check_mode "nli" ~tsq:None ~rebase:false
  && check_mode "dual" ~tsq:(Some sc.Gen.sc_tsq) ~rebase:false
  && (Tsq.refines ~old:old_t ~new_:new_t <> Tsq.Tightening
     || check_mode "warm-rebase" ~tsq:(Some old_t) ~rebase:true)

(* --- lazy sibling runs = eager reference ------------------------------ *)

(* The enumeration loop as it ran before sibling runs, as a reference:
   every child is built when its parent is expanded and admitted then,
   through the visited layer and, for a child with a predicate, the
   canonical one (on printed keys), and pushed.  The rest follows
   [Enumerate.step]: the cascade and the warning penalty at pop,
   emission dedup on [Duosem.dedup_key], the pop and candidate budgets,
   the frontier cap; [eager_rebase] is [Enumerate.rebase]'s warm
   restart.  No time budget. *)
type eager = {
  eg_config : Duocore.Enumerate.config;
  eg_ctx : Duoguide.Model.ctx;
  eg_frontier : Duocore.Frontier.t;
  eg_stats : Duocore.Verify.stats;
  mutable eg_env : Duocore.Verify.env;
  mutable eg_hints : Duocore.Enumerate.hints;
  eg_visited : (string, unit) Hashtbl.t;
  eg_canon : (string, unit) Hashtbl.t;
  eg_emitted : (string, unit) Hashtbl.t;
  mutable eg_cands : (Duosql.Ast.query * float * int) list;  (* newest first *)
  mutable eg_pops : int;
  mutable eg_pop_base : int;
  mutable eg_finished : bool;
}

let eager_init (config : Duocore.Enumerate.config) ctx db ?index ~tsq ~literals () =
  let module E = Duocore.Enumerate in
  let stats = Duocore.Verify.new_stats () in
  let frontier = Duocore.Frontier.create ~cap:config.E.max_frontier () in
  Duocore.Frontier.push frontier Partial.root;
  {
    eg_config = config;
    eg_ctx = ctx;
    eg_frontier = frontier;
    eg_stats = stats;
    eg_env =
      Duocore.Verify.make_env ~stats ~semantics:config.E.semantic_rules
        ~static:config.E.static_rules ?index ~db ~tsq ~literals ();
    eg_hints = (match tsq with Some t -> E.hints_of_tsq t | None -> E.no_hints);
    eg_visited = Hashtbl.create 256;
    eg_canon = Hashtbl.create 64;
    eg_emitted = Hashtbl.create 64;
    eg_cands = [];
    eg_pops = 0;
    eg_pop_base = 0;
    eg_finished = false;
  }

let eager_step ?(max_pops = max_int) eg =
  let module E = Duocore.Enumerate in
  let module V = Duocore.Verify in
  let config = eg.eg_config and f = eg.eg_frontier in
  let fresh tbl k = (not (Hashtbl.mem tbl k)) && (Hashtbl.replace tbl k (); true) in
  let admit (c : Partial.t) =
    if
      fresh eg.eg_visited (Partial.key c)
      && ((not (Partial.has_predicates c)) || fresh eg.eg_canon (Partial.canonical_key c))
    then Duocore.Frontier.push f c
  in
  let judge_settled (p : Partial.t) =
    (not (config.E.prune_partial || Partial.is_complete p))
    || V.check_deferred eg.eg_env ~first:V.S_clauses ~last:V.S_complete p
  in
  let judge (p : Partial.t) =
    if Duocore.Frontier.settled f then judge_settled p
    else
      V.check_deferred eg.eg_env ~first:V.S_static ~last:V.S_static p
      &&
      match V.static_warnings eg.eg_env p with
      | 0 -> judge_settled p
      | n ->
          Duocore.Frontier.settle f
            { p with
              Partial.confidence =
                p.Partial.confidence *. (config.E.static_penalty ** float_of_int n) };
          false
  in
  let emit (p : Partial.t) q =
    let k = Duolint.Duosem.dedup_key q in
    if Hashtbl.mem eg.eg_emitted k then
      eg.eg_stats.V.dedup_semantic <- eg.eg_stats.V.dedup_semantic + 1
    else begin
      Hashtbl.replace eg.eg_emitted k ();
      eg.eg_cands <- (q, p.Partial.confidence, eg.eg_pops) :: eg.eg_cands;
      if List.length eg.eg_cands >= config.E.max_candidates then eg.eg_finished <- true
    end
  in
  let limit = if max_pops >= max_int - eg.eg_pops then max_int else eg.eg_pops + max_pops in
  while (not eg.eg_finished) && eg.eg_pops < limit do
    if Duocore.Frontier.is_empty f || eg.eg_pops - eg.eg_pop_base >= config.E.max_pops then
      eg.eg_finished <- true
    else
      match Duocore.Frontier.pop f with
      | None -> eg.eg_finished <- true
      | Some p ->
          if judge p then begin
            eg.eg_pops <- eg.eg_pops + 1;
            if Partial.is_complete p then Option.iter (emit p) (Partial.to_query p)
            else List.iter admit (E.expand ~guided:config.E.guided eg.eg_hints eg.eg_ctx p)
          end
  done

let eager_rebase eg ~tsq =
  let env = Duocore.Verify.retarget eg.eg_env ~tsq in
  eg.eg_env <- env;
  eg.eg_hints <- Duocore.Enumerate.hints_of_tsq tsq;
  eg.eg_cands <- List.filter (fun (q, _, _) -> Duocore.Verify.reverify_query env q) eg.eg_cands;
  Hashtbl.reset eg.eg_emitted;
  List.iter
    (fun (q, _, _) -> Hashtbl.replace eg.eg_emitted (Duolint.Duosem.dedup_key q) ())
    eg.eg_cands;
  eg.eg_pop_base <- eg.eg_pops;
  eg.eg_finished <- List.length eg.eg_cands >= eg.eg_config.Duocore.Enumerate.max_candidates

let lazy_eager_diff ?rebase config ctx db ?index ~tsq ~literals () =
  let module E = Duocore.Enumerate in
  let st = E.init config ctx db ?index ~tsq ~literals () in
  let eg = eager_init config ctx db ?index ~tsq ~literals () in
  Option.iter
    (fun (k, tsq') ->
      ignore (E.step ~max_pops:k st);
      E.rebase st ~tsq:tsq';
      eager_step ~max_pops:k eg;
      eager_rebase eg ~tsq:tsq')
    rebase;
  ignore (E.step st);
  eager_step eg;
  let o = E.outcome st in
  let cands =
    List.map
      (fun (c : E.candidate) ->
        (Duosql.Pretty.query c.E.cand_query, c.E.cand_confidence, c.E.cand_pops))
      o.E.out_candidates
  in
  let eager_cands = List.rev_map (fun (q, c, n) -> (Duosql.Pretty.query q, c, n)) eg.eg_cands in
  let prunes stats = List.map (Duocore.Verify.pruned_by stats) Duocore.Verify.all_stages in
  let show cs = String.concat "\n  " (List.map (fun (q, c, n) -> Printf.sprintf "%.17g %d %s" c n q) cs) in
  if cands <> eager_cands then
    Some (Printf.sprintf "candidates differ:\nlazy:\n  %s\neager:\n  %s" (show cands) (show eager_cands))
  else if o.E.out_pops <> eg.eg_pops then
    Some (Printf.sprintf "pops differ: lazy %d, eager %d" o.E.out_pops eg.eg_pops)
  else if prunes o.E.out_stats <> prunes eg.eg_stats then
    Some
      (Printf.sprintf "prunes differ: lazy [%s], eager [%s]"
         (String.concat "," (List.map string_of_int (prunes o.E.out_stats)))
         (String.concat "," (List.map string_of_int (prunes eg.eg_stats))))
  else if o.E.out_dropped <> Duocore.Frontier.dropped eg.eg_frontier then
    Some
      (Printf.sprintf "compaction drops differ: lazy %d, eager %d" o.E.out_dropped
         (Duocore.Frontier.dropped eg.eg_frontier))
  else None

(* Lazy sibling runs change no observable: on NLI and dual runs, a warm
   rebase and a frontier cap small enough to compact, the run and the
   eager reference agree on candidates (SQL, confidence, [cand_pops]),
   pops, every stage's prunes and compaction drops. *)
let lazy_runs_prop ((sc : Gen.scenario), seed) =
  let module E = Duocore.Enumerate in
  let module Tsq = Duocore.Tsq in
  let ctx = ctx_of sc in
  let config =
    { E.default_config with E.max_pops = 400; max_candidates = 10; time_budget_s = 20.0 }
  in
  let new_t = { sc.Gen.sc_tsq with Tsq.min_support = None } in
  let old_t =
    { new_t with
      Tsq.tuples = (match new_t.Tsq.tuples with [] -> [] | t :: _ -> [ t ]);
      sorted = false;
      negatives = [] }
  in
  let check name ?rebase config ~tsq =
    match lazy_eager_diff ?rebase config ctx sc.Gen.sc_db ~tsq ~literals:[] () with
    | None -> true
    | Some d -> QCheck.Test.fail_reportf "%s: %s" name d
  in
  check "nli" config ~tsq:None
  && check "dual" config ~tsq:(Some sc.Gen.sc_tsq)
  && check "capped"
       { config with E.max_frontier = 8 + (seed mod 40) }
       ~tsq:(if seed land 1 = 0 then None else Some sc.Gen.sc_tsq)
  && (Tsq.refines ~old:old_t ~new_:new_t <> Tsq.Tightening
     || check "warm-rebase" ~rebase:(1 + (seed mod 40), new_t) config ~tsq:(Some old_t))

(* --- Duolint error soundness ---------------------------------------- *)

(* A query Duolint rejects as an {e error} can never be a correct intent.
   What "never correct" means is observable per rule class:

   - reference rules (unknown table/column, broken FROM): the reference
     interpreter refuses to execute the query;
   - intent rules (type errors, grouping violations): the Table 4 semantic
     catalogue rejects the query — these can {e execute} (e.g. [Neq] with a
     mismatched literal is true on every row), the error is about meaning;
   - emptiness rules (unsatisfiable predicates, nonpositive limit): the
     query admits no rows, so no TSQ derived from a true answer matches.
     Contradictory WHERE is checked on a stripped row query because
     aggregates over the empty set still emit one row (a zero COUNT).

   Each fuzz case seeds one fault from a catalog into a generated valid
   query, asserts Duolint catches it, and then checks {e every} emitted
   error diagnostic against its rule class's consequence. *)

module Lint = Duolint.Analyze
module Diag = Duolint.Diagnostic

let from_columns schema (q : Duosql.Ast.query) =
  List.concat_map
    (fun t ->
      match Duodb.Schema.find_table schema t with
      | Some tbl ->
          List.map
            (fun c ->
              ( Duosql.Ast.col t c.Duodb.Schema.col_name,
                c.Duodb.Schema.col_type ))
            tbl.Duodb.Schema.tbl_columns
      | None -> [])
    q.Duosql.Ast.q_from.Duosql.Ast.f_tables

let values_for = function
  | Duodb.Datatype.Number -> (Value.Int 1, Value.Int 2)
  | Duodb.Datatype.Text -> (Value.Text "a", Value.Text "b")

let plain_pred c rhs = { Duosql.Ast.pr_agg = None; pr_col = Some c; pr_rhs = rhs }

let with_where (q : Duosql.Ast.query) preds =
  { q with
    Duosql.Ast.q_where =
      Some { Duosql.Ast.c_preds = preds; c_conn = Duosql.Ast.And } }

(* The seeded-fault catalog, keyed by [seed mod 7].  Returns the mutated
   query and the rule the fault must trip (identity seeds expect
   nothing — they exercise the consequence check on whatever fires). *)
let seed_fault (sc : Gen.scenario) seed =
  let open Duosql.Ast in
  let schema = Duodb.Database.schema sc.Gen.sc_db in
  let q = sc.Gen.sc_query in
  let cols = from_columns schema q in
  let has ty (_, ty') = Duodb.Datatype.equal ty ty' in
  match seed mod 7 with
  | 1 -> (
      match cols with
      | (c, ty) :: _ ->
          let v1, v2 = values_for ty in
          ( with_where q [ plain_pred c (Cmp (Eq, v1)); plain_pred c (Cmp (Eq, v2)) ],
            Some Diag.Unsatisfiable_where )
      | [] -> (q, None))
  | 2 -> (
      match cols with
      | (c, ty) :: _ ->
          let v1, _ = values_for ty in
          ( with_where q [ plain_pred c (Cmp (Eq, v1)); plain_pred c (Cmp (Neq, v1)) ],
            Some Diag.Unsatisfiable_where )
      | [] -> (q, None))
  | 3 -> (
      (* an ordering comparison on a text column, or LIKE on a number *)
      match List.find_opt (has Duodb.Datatype.Text) cols with
      | Some (c, _) ->
          ( with_where q [ plain_pred c (Cmp (Lt, Value.Int 3)) ],
            Some Diag.Comparison_type )
      | None -> (
          match cols with
          | (c, _) :: _ ->
              ( with_where q [ plain_pred c (Cmp (Like, Value.Text "x%")) ],
                Some Diag.Comparison_type )
          | [] -> (q, None)))
  | 4 -> (
      match q.q_from.f_tables with
      | t :: _ ->
          ( with_where q
              [ plain_pred (col t "duolint_no_such_column") (Cmp (Eq, Value.Int 1)) ],
            Some Diag.Unknown_column )
      | [] -> (q, None))
  | 5 -> ({ q with q_limit = Some 0 }, Some Diag.Nonpositive_limit)
  | 6 -> (
      match List.find_opt (has Duodb.Datatype.Number) cols with
      | Some (c, _) ->
          ( with_where q [ plain_pred c (Between (Value.Int 5, Value.Int 1)) ],
            Some Diag.Unsatisfiable_where )
      | None -> (q, None))
  | _ -> (q, None)

(* SELECT <one plain column> FROM ... WHERE <the suspect condition> —
   the row-level observation for a contradictory WHERE. *)
let unsat_where_probe (q : Duosql.Ast.query) =
  let open Duosql.Ast in
  let col =
    match List.filter_map (fun p -> p.pr_col) (match q.q_where with
      | Some c -> c.c_preds
      | None -> [])
    with
    | c :: _ -> Some c
    | [] -> None
  in
  Option.map
    (fun c ->
      { q with
        q_distinct = false;
        q_select = [ { p_agg = None; p_col = Some c; p_distinct = false } ];
        q_group_by = [];
        q_having = None;
        q_order_by = [];
        q_limit = None })
    col

let error_consequence db schema (q : Duosql.Ast.query) (d : Diag.t) =
  let sem_rejects () =
    Result.is_error (Duocore.Semantics.check_query schema q)
  in
  let fails_or_empty q' =
    match Reference.run db q' with
    | Error _ -> true
    | Ok r -> r.Executor.res_rows = []
  in
  match d.Diag.d_rule with
  | Diag.Unknown_table | Diag.Unknown_column | Diag.Table_not_joined
  | Diag.Disconnected_from ->
      Result.is_error (Reference.run db q)
  | Diag.Comparison_type | Diag.Ungrouped_aggregation
  | Diag.Projection_not_grouped | Diag.Unnecessary_group_by
  | Diag.Group_by_primary_key ->
      sem_rejects ()
  | Diag.Aggregate_type -> sem_rejects () || Result.is_error (Reference.run db q)
  | Diag.Nonpositive_limit -> fails_or_empty q
  | Diag.Unsatisfiable_where -> (
      match unsat_where_probe q with
      | Some probe -> fails_or_empty probe
      | None -> false (* the rule fired without a WHERE column: unsound *))
  | Diag.Unsatisfiable_having ->
      fails_or_empty { q with Duosql.Ast.q_order_by = []; q_limit = None }
  | Diag.Duplicate_predicate | Diag.Subsumed_predicate
  | Diag.Duplicate_projection | Diag.Self_join | Diag.Duplicate_join
  | Diag.Constant_output | Diag.Order_by_unprojected ->
      true (* warnings never prune; nothing to prove *)

let lint_soundness_prop ((sc : Gen.scenario), seed) =
  let schema = Duodb.Database.schema sc.Gen.sc_db in
  let q, expected = seed_fault sc seed in
  let errs = Lint.errors (Lint.check_query schema q) in
  (match expected with
  | Some rule when not (List.exists (fun d -> d.Diag.d_rule = rule) errs) ->
      QCheck.Test.fail_reportf "seeded fault %s escaped Duolint on %s"
        (Diag.rule_name rule)
        (Duosql.Pretty.query q)
  | Some _ | None -> ());
  List.for_all
    (fun d ->
      error_consequence sc.Gen.sc_db schema q d
      || QCheck.Test.fail_reportf "unsound diagnostic %a on %s" Diag.pp d
           (Duosql.Pretty.query q))
    errs

(* --- One judge per Table 4 rule ------------------------------------- *)

(* The complete stage checks only the literals and Definition 2.4.  That
   is enough because every complete state [static] and [semantics]
   accept also passes the Table 4 reference ({!Duocore.Semantics}) and
   carries no Duolint error on [Outline.of_query] of its query.  Checked
   over a derivation sample, each state's twins and its canonical twins
   (duplicate and weaker predicates, a WHERE predicate as HAVING). *)
let complete_rules_prop ((sc : Gen.scenario), seed) =
  let module Verify = Duocore.Verify in
  let schema = Duodb.Database.schema sc.Gen.sc_db in
  let env = Verify.make_env ~db:sc.Gen.sc_db ~tsq:None ~literals:[] () in
  let check (t : Partial.t) =
    (not (Partial.is_complete t && Verify.verify_static env t && Verify.verify_semantics env t))
    ||
    match Partial.to_query t with
    | None -> true
    | Some q -> (
        match Duocore.Semantics.check_query schema q with
        | Error v ->
            QCheck.Test.fail_reportf "static and semantics accept %s; Table 4 rejects it (%s)"
              (Duosql.Pretty.query q) (Duocore.Semantics.violation_to_string v)
        | Ok () -> (
            match Lint.errors (Lint.check_query schema q) with
            | [] -> true
            | d :: _ ->
                QCheck.Test.fail_reportf
                  "static accepts the complete state of %s; its query has %a"
                  (Duosql.Pretty.query q) Diag.pp d))
  in
  List.for_all
    (fun t -> List.for_all check ((t :: twins t) @ canonical_twins t))
    (derivation_sample sc seed ~max_states:(60 + (seed mod 60)))

(* --- Duosem equivalence and cardinality ------------------------------ *)

module Duosem = Duolint.Duosem
module Domain = Duolint.Domain

(* Canonicalization is meaning-preserving: the canonical form of every
   generated query has the same error status and the same result
   multiset as the original on its database (row order may differ —
   canonicalization sorts the FROM clause, and the planner's table order
   is a legitimate tie-break) — and taking the canonical form again is a
   fixpoint, so [canonical_key] really is a key. *)
let duosem_equiv_prop (sc : Gen.scenario) =
  let q = sc.Gen.sc_query in
  let cq = Duosem.canonical_query q in
  if Duosem.canonical_key cq <> Duosem.canonical_key q then
    QCheck.Test.fail_reportf "canonicalization is not idempotent on %s"
      (Duosql.Pretty.query q)
  else
    let sorted_rows (r : Executor.resultset) =
      List.sort compare
        (List.map
           (fun row -> List.map Value.to_sql (Array.to_list row))
           r.Executor.res_rows)
    in
    match (Reference.run sc.Gen.sc_db q, Reference.run sc.Gen.sc_db cq) with
    | Ok a, Ok b ->
        (a.Executor.res_cols = b.Executor.res_cols
        && sorted_rows a = sorted_rows b)
        || QCheck.Test.fail_reportf
             "canonical form changes the result multiset:\n%s\n%s"
             (Duosql.Pretty.query q) (Duosql.Pretty.query cq)
    | Error _, Error _ -> true
    | Ok _, Error _ | Error _, Ok _ ->
        QCheck.Test.fail_reportf "canonical form changes the error status:\n%s\n%s"
          (Duosql.Pretty.query q) (Duosql.Pretty.query cq)

(* The abstract row-count interval contains the true count on every
   generated query that executes. *)
let duosem_card_prop (sc : Gen.scenario) =
  let q = sc.Gen.sc_query in
  let pre = Duosem.prepare (Duodb.Database.schema sc.Gen.sc_db) in
  let c = Duosem.bound_query pre q in
  match Reference.run sc.Gen.sc_db q with
  | Error _ -> true
  | Ok r ->
      let n = List.length r.Executor.res_rows in
      (c.Duosem.c_lo <= n
      && match c.Duosem.c_hi with None -> true | Some h -> n <= h)
      || QCheck.Test.fail_reportf "true count %d outside bound %s for %s" n
           (Duosem.card_to_string c) (Duosql.Pretty.query q)

(* --- Domain lattice laws --------------------------------------------- *)

let gen_lattice_value st =
  match Random.State.int st 6 with
  | 0 -> Value.Int (Random.State.int st 7 - 3)
  | 1 -> Value.Int (Random.State.int st 100)
  | 2 -> Value.Float (float_of_int (Random.State.int st 14 - 6) /. 2.0)
  | 3 -> Value.Text (String.make 1 (Char.chr (97 + Random.State.int st 4)))
  | 4 -> Value.Text "mm"
  | _ -> Value.Int 0

(* Normalized elements only: everything reachable from predicate
   abstractions through meets and joins — exactly the values the
   analyzer ever holds.  [Neq] seeds exclusion lists, equal-endpoint
   [Between] seeds points, reversed [Between] seeds [Bot]. *)
let rec gen_lattice_domain st depth =
  if depth <= 0 || Random.State.int st 3 = 0 then
    let v = gen_lattice_value st in
    let open Duosql.Ast in
    match Random.State.int st 8 with
    | 0 -> Domain.of_rhs (Cmp (Eq, v))
    | 1 -> Domain.of_rhs (Cmp (Neq, v))
    | 2 -> Domain.of_rhs (Cmp (Lt, v))
    | 3 -> Domain.of_rhs (Cmp (Le, v))
    | 4 -> Domain.of_rhs (Cmp (Gt, v))
    | 5 -> Domain.of_rhs (Cmp (Ge, v))
    | 6 -> Domain.of_rhs (Between (v, gen_lattice_value st))
    | _ -> Domain.top
  else
    let a = gen_lattice_domain st (depth - 1) in
    let b = gen_lattice_domain st (depth - 1) in
    if Random.State.bool st then Domain.meet a b else Domain.join a b

(* Lattice laws, checked against concrete membership on a probe pool:
   meet is exact intersection, join over-approximates union, [leq] is a
   partial order consistent with inclusion, and widening covers its next
   operand and stabilizes along randomized ascending chains. *)
let domain_lattice_prop seed =
  let st = Random.State.make [| seed |] in
  let probes = List.init 24 (fun _ -> gen_lattice_value st) in
  let a = gen_lattice_domain st 3 in
  let b = gen_lattice_domain st 3 in
  let c = gen_lattice_domain st 3 in
  let fail fmt = QCheck.Test.fail_reportf fmt in
  let mem_ok =
    List.for_all
      (fun v ->
        Domain.mem v (Domain.meet a b) = (Domain.mem v a && Domain.mem v b)
        && ((not (Domain.mem v a || Domain.mem v b))
           || Domain.mem v (Domain.join a b))
        && ((not (Domain.leq a b)) || not (Domain.mem v a) || Domain.mem v b))
      probes
  in
  if not mem_ok then fail "meet/join/leq disagree with membership"
  else if not (Domain.leq a a) then fail "leq is not reflexive"
  else if Domain.leq a b && Domain.leq b a && not (Domain.equal a b) then
    fail "leq is not antisymmetric"
  else if Domain.leq a b && Domain.leq b c && not (Domain.leq a c) then
    fail "leq is not transitive"
  else if not (Domain.leq a (Domain.join a b) && Domain.leq b (Domain.join a b))
  then fail "join is not an upper bound"
  else if
    not (Domain.leq (Domain.meet a b) a && Domain.leq (Domain.meet a b) b)
  then fail "meet is not a lower bound"
  else begin
    (* Randomized ascending chain: fold widening over successive joins.
       Each iterate must cover the next operand and grow monotonically;
       afterwards re-widening with every chain element is the identity —
       the chain has stabilized. *)
    let chain = List.init 20 (fun _ -> gen_lattice_domain st 2) in
    let w =
      List.fold_left
        (fun w d ->
          let next = Domain.join w d in
          let w' = Domain.widen w next in
          if not (Domain.leq next w') then
            fail "widen does not cover its next operand"
          else if not (Domain.leq w w') then fail "widen is not ascending"
          else w')
        (gen_lattice_domain st 2)
        chain
    in
    List.for_all
      (fun d ->
        Domain.equal (Domain.widen w (Domain.join w d)) w
        || fail "widened chain did not stabilize")
      chain
  end

(* --- guidance memo -------------------------------------------------------- *)

(* Schemas and NLQs for [guidance_memo_prop] besides a scenario's own:
   the MAS study tasks' and a mini Spider split's. *)
let memo_pool =
  lazy
    (let nlq text lits = Duonl.Nlq.with_literals text lits in
     let mas =
       List.map
         (fun (t : Duobench.Mas.task) ->
           (Duobench.Mas.schema, nlq t.Duobench.Mas.task_nlq t.Duobench.Mas.task_literals))
         (Duobench.Mas.nli_study_tasks @ Duobench.Mas.pbe_study_tasks)
     in
     let mini = Duobench.Spider_gen.mini ~seed:11 ~n_dbs:4 ~per_db:9 () in
     let spider =
       List.map
         (fun (t : Duobench.Spider_gen.task) ->
           ( Duodb.Database.schema
               (List.assoc t.Duobench.Spider_gen.sp_db mini.Duobench.Spider_gen.databases),
             nlq t.Duobench.Spider_gen.sp_nlq t.Duobench.Spider_gen.sp_literals ))
         mini.Duobench.Spider_gen.tasks
     in
     Array.of_list (mas @ spider))

(* The guidance model's memoized distributions are exact: over a random
   sequence of calls on one context, on a scenario's schema, the MAS
   schema or a mini Spider one, every distribution equals a fresh
   context's first call for the same arguments (items, bit-equal
   probabilities, best-first order), and a call with an equal key
   ([used] or [projected] sets in another order) returns the physically
   same entry. *)
let guidance_memo_prop ((sc : Gen.scenario), seed) =
  let module M = Duoguide.Model in
  let st = Random.State.make [| seed |] in
  let schema, nlq =
    let pool = Lazy.force memo_pool in
    match seed mod 3 with
    | 0 -> (Duodb.Database.schema sc.Gen.sc_db, M.nlq (ctx_of sc))
    | _ -> pool.(Random.State.int st (Array.length pool))
  in
  let ctx = M.make schema nlq in
  let columns = Array.of_list (Duodb.Schema.all_columns schema) in
  let int n = Random.State.int st n in
  let column () = columns.(int (Array.length columns)) in
  let some_of f = if int 4 = 0 then None else Some (f ()) in
  let list_of k f = List.init (int (k + 1)) (fun _ -> f ()) in
  let shuffle l =
    List.map snd (List.sort compare (List.map (fun x -> (Random.State.bits st, x)) l))
  in
  let out () =
    match int 3 with
    | 0 -> None
    | 1 -> Some Duodb.Datatype.Text
    | _ -> Some Duodb.Datatype.Number
  in
  let agg () =
    match int 6 with
    | 0 -> None
    | 1 -> Some Duosql.Ast.Count
    | 2 -> Some Duosql.Ast.Sum
    | 3 -> Some Duosql.Ast.Avg
    | 4 -> Some Duosql.Ast.Min
    | _ -> Some Duosql.Ast.Max
  in
  let hint () = some_of (fun () -> int 12) in
  let bits d = Array.map Int64.bits_of_float d.M.d_probs in
  (* [call] on [ctx], then on a fresh context, then [again] (an equal
     key) on [ctx]. *)
  let check name call again =
    let d = call ctx in
    let fresh = call (M.make schema nlq) in
    if compare d.M.d_items fresh.M.d_items <> 0 || bits d <> bits fresh
       || d.M.d_order <> fresh.M.d_order
    then QCheck.Test.fail_reportf "%s: memoized entry differs from a fresh context's" name
    else if again ctx != d then
      QCheck.Test.fail_reportf "%s: an equal key did not return the stored entry" name
    else true
  in
  let one () =
    match int 8 with
    | 0 ->
        let out = out () in
        let used =
          list_of 2 (fun () ->
              if int 5 = 0 then M.Target_count_star else M.Target_column (column ()))
        in
        let again = shuffle (used @ used) in
        check "projection_targets"
          (fun c -> M.projection_targets ?out c ~used)
          (fun c -> M.projection_targets ?out c ~used:again)
    | 1 ->
        let used = list_of 3 column in
        let again = shuffle used in
        check "where_columns" (fun c -> M.where_columns c ~used) (fun c ->
            M.where_columns c ~used:again)
    | 2 ->
        let projected = list_of 3 column in
        let again = shuffle (projected @ projected) in
        check "group_columns" (fun c -> M.group_columns c ~projected) (fun c ->
            M.group_columns c ~projected:again)
    | 3 ->
        let projected = list_of 4 (fun () -> (agg (), some_of column)) in
        check "order_targets" (fun c -> M.order_targets c ~projected) (fun c ->
            M.order_targets c ~projected)
    | 4 ->
        let col = column () in
        check "values" (fun c -> M.values c col) (fun c -> M.values c col)
    | 5 ->
        let col = column () and uniform = int 2 = 0 in
        check "where_rhs" (fun c -> M.where_rhs ~uniform c col) (fun c ->
            M.where_rhs ~uniform c col)
    | 6 ->
        let hint = hint () in
        check "num_projections" (fun c -> M.num_projections c ~hint) (fun c ->
            M.num_projections c ~hint)
    | _ ->
        let hint = hint () in
        check "limit" (fun c -> M.limit c ~hint) (fun c -> M.limit c ~hint)
  in
  let rec go k = k = 0 || (one () && go (k - 1)) in
  go 60

let arb_seeded =
  QCheck.make
    ~print:(fun (sc, seed) ->
      Printf.sprintf "seed %d\n%s" seed (Gen.print_scenario sc))
    ~shrink:(fun (sc, seed) yield ->
      Gen.shrink_scenario sc (fun sc' -> yield (sc', seed)))
    (fun st -> (Gen.gen_scenario st, Random.State.int st 1_000_000))

let tests ?(mult = 1) () =
  [
    QCheck.Test.make ~count:(60 * mult)
      ~name:"differential: planned engine = reference"
      Gen.arb_scenario differential_prop;
    QCheck.Test.make ~count:(120 * mult)
      ~name:"round-trip: parse (pretty q) = q" Gen.arb_scenario roundtrip_prop;
    QCheck.Test.make ~count:(40 * mult)
      ~name:"columnar storage = row reference" Gen.arb_scenario columnar_prop;
    QCheck.Test.make ~count:(40 * mult)
      ~name:"streamed example matching = materialized matching" arb_seeded
      streamed_match_prop;
    QCheck.Test.make ~count:(8 * mult)
      ~name:"cascade soundness: pruned states have no satisfying completion"
      Gen.arb_scenario soundness_prop;
    QCheck.Test.make ~count:(30 * mult)
      ~name:"Property 1: expansions partition confidence mass" arb_seeded
      property1_prop;
    QCheck.Test.make ~count:(500 * mult)
      ~name:"Duolint soundness: rejected queries match no true answer"
      arb_seeded lint_soundness_prop;
    QCheck.Test.make ~count:(6 * mult)
      ~name:"resume determinism: stepped enumeration = uninterrupted run"
      arb_seeded resume_determinism_prop;
    QCheck.Test.make ~count:(20 * mult)
      ~name:"refinement monotonicity: tightened prune set contains the original"
      arb_seeded refine_monotone_prop;
    QCheck.Test.make ~count:(6 * mult)
      ~name:"incremental refine = from-root restart"
      arb_seeded incremental_refine_prop;
    QCheck.Test.make ~count:(20 * mult)
      ~name:"render-free dedup: key_hash is consistent with key" arb_seeded
      key_hash_prop;
    QCheck.Test.make ~count:(12 * mult)
      ~name:"verify on pop: the deferred verdict is constant on key and canonical partitions"
      arb_seeded partition_verdict_prop;
    QCheck.Test.make ~count:(12 * mult)
      ~name:"one judge per rule: complete states static and semantics accept pass Table 4"
      arb_seeded complete_rules_prop;
    QCheck.Test.make ~count:(6 * mult)
      ~name:"render-free dedup: hashed run pushes what string keys push"
      arb_seeded dedup_exact_prop;
    QCheck.Test.make ~count:(6 * mult) ~name:"lazy runs = eager reference" arb_seeded
      lazy_runs_prop;
    QCheck.Test.make ~count:(30 * mult)
      ~name:"guidance memo: each stored distribution = a fresh context's" arb_seeded
      guidance_memo_prop;
    QCheck.Test.make ~count:(80 * mult)
      ~name:"Duosem equivalence: canonical query = original on its database"
      Gen.arb_scenario duosem_equiv_prop;
    QCheck.Test.make ~count:(80 * mult)
      ~name:"Duosem cardinality bound contains the true row count"
      Gen.arb_scenario duosem_card_prop;
    QCheck.Test.make ~count:(40 * mult)
      ~name:"cached joins: shared relation cache = uncached = reference"
      Gen.arb_scenario cached_prop;
    QCheck.Test.make ~count:(200 * mult)
      ~name:"Domain lattice laws: meet/join/leq/widen vs membership"
      (QCheck.make ~print:string_of_int (fun st ->
           Random.State.int st 1_000_000))
      domain_lattice_prop;
  ]
