module Value = Duodb.Value
module Executor = Duoengine.Executor

(* The four fuzz properties, parameterized by an iteration-count
   multiplier: [tests ()] is the small seeded set wired into the default
   test runner, [tests ~mult:50 ()] is a long fuzz run (the [@fuzz]
   alias). *)

let resultsets_agree (a : Executor.resultset) (b : Executor.resultset) =
  a.Executor.res_cols = b.Executor.res_cols
  && List.length a.Executor.res_rows = List.length b.Executor.res_rows
  && List.for_all2
       (fun ra rb ->
         Array.length ra = Array.length rb
         && List.for_all2 Value.equal (Array.to_list ra) (Array.to_list rb))
       a.Executor.res_rows b.Executor.res_rows

(* planner-on = planner-off = naive reference interpreter *)
let differential_prop (sc : Gen.scenario) =
  let on = Executor.run ~planner:true sc.Gen.sc_db sc.Gen.sc_query in
  let off = Executor.run ~planner:false sc.Gen.sc_db sc.Gen.sc_query in
  let oracle = Reference.run sc.Gen.sc_db sc.Gen.sc_query in
  match (on, off, oracle) with
  | Ok a, Ok b, Ok c -> resultsets_agree a b && resultsets_agree a c
  | Error _, Error _, Error _ -> true
  | (Ok _ | Error _), (Ok _ | Error _), (Ok _ | Error _) -> false

(* Cached execution = uncached = reference.  One relation cache is shared
   by the scenario query and a two-table join over every FK edge in both
   FROM orders, so one table gets attached on different columns and join
   indexes are reused across queries.  Each query, run twice through that
   cache (a build, then a hit) and as a two-query batch through
   [run_batch] on it, returns exactly what its uncached run returns, and
   that agrees with the reference.  A tight [max_rows] bound fails (or
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
      let batched, _ = Executor.run_batch ~cache db [| q; q |] in
      let tight () = Executor.run ~cache:bounded ~max_rows:4 db q in
      (match (uncached, Reference.run db q) with
      | Ok a, Ok b -> resultsets_agree a b
      | Error _, Error _ -> true
      | (Ok _ | Error _), (Ok _ | Error _) -> false)
      && List.for_all (same uncached)
           [ Executor.run ~cache db q; Executor.run ~cache db q; batched.(0); batched.(1) ]
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

(* run_batch = run, query by query: batching shared base scans is purely
   executional.  The batch mixes the scenario's own (possibly joining)
   query with simple single-table probes over every column — several per
   table, so the shared-scan grouping path is actually taken. *)
let batch_prop (sc : Gen.scenario) =
  let open Duosql.Ast in
  let db = sc.Gen.sc_db in
  let schema = Duodb.Database.schema db in
  let probes =
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
      schema.Duodb.Schema.tables
  in
  let qs = Array.of_list (sc.Gen.sc_query :: probes) in
  let batched, _report = Executor.run_batch db qs in
  let ok = ref true in
  Array.iteri
    (fun i q ->
      match (batched.(i), Executor.run db q) with
      | Ok a, Ok b -> if not (resultsets_agree a b) then ok := false
      | Error ea, Error eb -> if ea <> eb then ok := false
      | Ok _, Error _ | Error _, Ok _ -> ok := false)
    qs;
  !ok

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

(* Duopar determinism: enumeration with worker domains is observably
   identical to the sequential run — same candidate queries in the same
   emission order, same pop/push counts, and the same per-stage prune
   counts.  This is the contract that makes [domains] a pure deployment
   knob (DESIGN.md, "Duopar"): speculation must never leak into results
   or accounting.  Seed picks the domain count (2..5) and whether
   partial-query pruning is on. *)
let parallel_determinism_prop ((sc : Gen.scenario), seed) =
  let ctx = ctx_of sc in
  let domains = 2 + (seed mod 4) in
  let prune_partial = seed land 1 = 0 in
  let run domains =
    let config =
      { Duocore.Enumerate.default_config with
        Duocore.Enumerate.max_pops = 600;
        max_candidates = 10;
        time_budget_s = 20.0;
        prune_partial;
        domains;
        (* exercise the speculative machinery even on one core *)
        overcommit = true }
    in
    Duocore.Enumerate.run config ctx sc.Gen.sc_db ~tsq:(Some sc.Gen.sc_tsq)
      ~literals:[] ()
  in
  let seq = run 1 in
  let par = run domains in
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
  if sigs seq <> sigs par then
    QCheck.Test.fail_reportf
      "candidates diverge at domains=%d:\nseq: %s\npar: %s" domains
      (String.concat " | " (List.map fst (sigs seq)))
      (String.concat " | " (List.map fst (sigs par)))
  else if
    seq.Duocore.Enumerate.out_pops <> par.Duocore.Enumerate.out_pops
    || seq.Duocore.Enumerate.out_pushed <> par.Duocore.Enumerate.out_pushed
  then
    QCheck.Test.fail_reportf
      "loop accounting diverges at domains=%d: pops %d/%d pushes %d/%d"
      domains seq.Duocore.Enumerate.out_pops par.Duocore.Enumerate.out_pops
      seq.Duocore.Enumerate.out_pushed par.Duocore.Enumerate.out_pushed
  else if prunes seq <> prunes par then
    QCheck.Test.fail_reportf "prune counts diverge at domains=%d" domains
  else true

(* Adaptive determinism (Duopar v2): the speculation round size is a pure
   performance knob.  Whatever the controller does — the AIMD law, the
   fixed v1 round, or a seed-derived adversarial [spec_schedule]
   thrashing between the floor and past the ceiling — and whether the
   task arena is on or off, the candidates, loop accounting and prune
   counts are bit-identical to the sequential run.  This is the contract
   that lets the controller adapt freely at runtime. *)
let adaptive_determinism_prop ((sc : Gen.scenario), seed) =
  let ctx = ctx_of sc in
  let domains = 2 + (seed mod 3) in
  (* adversarial schedule: seed-derived sizes in [-1, 30], thrashing
     through floor-degenerate rounds and ceiling clamps *)
  let schedule i = (((seed / 4) + (i * 7)) mod 32) - 1 in
  let run config =
    Duocore.Enumerate.run config ctx sc.Gen.sc_db ~tsq:(Some sc.Gen.sc_tsq)
      ~literals:[] ()
  in
  let base =
    { Duocore.Enumerate.default_config with
      Duocore.Enumerate.max_pops = 400;
      max_candidates = 10;
      time_budget_s = 20.0;
      overcommit = true }
  in
  let seq = run { base with Duocore.Enumerate.domains = 1 } in
  let regimes =
    [
      ("adaptive", { base with Duocore.Enumerate.domains });
      ("fixed", { base with Duocore.Enumerate.domains; spec_adaptive = false });
      ( "adversarial",
        { base with
          Duocore.Enumerate.domains;
          spec_schedule = Some schedule } );
      ( "no-arena",
        { base with
          Duocore.Enumerate.domains;
          spec_schedule = Some schedule;
          arena = false } );
    ]
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
  List.for_all
    (fun (name, config) ->
      let par = run config in
      if sigs seq <> sigs par then
        QCheck.Test.fail_reportf
          "%s schedule diverges at domains=%d:\nseq: %s\npar: %s" name domains
          (String.concat " | " (List.map fst (sigs seq)))
          (String.concat " | " (List.map fst (sigs par)))
      else if
        seq.Duocore.Enumerate.out_pops <> par.Duocore.Enumerate.out_pops
        || seq.Duocore.Enumerate.out_pushed <> par.Duocore.Enumerate.out_pushed
      then
        QCheck.Test.fail_reportf
          "%s schedule: loop accounting diverges at domains=%d" name domains
      else if prunes seq <> prunes par then
        QCheck.Test.fail_reportf
          "%s schedule: prune counts diverge at domains=%d" name domains
      else true)
    regimes

(* Resume determinism: a run paused via [Enumerate.step] after any number
   of pops and resumed later is observably identical to the uninterrupted
   [run] — same candidates in the same order, same pop/push counts, same
   per-stage prunes, same exhaustion flag.  This is the contract Duoserve
   time-slicing rests on: the scheduler may suspend a session at any
   slice boundary without changing what it computes.  Seed picks the
   slice size (1..12), the domain count (1..3) and whether partial-query
   pruning is on. *)
let resume_determinism_prop ((sc : Gen.scenario), seed) =
  let ctx = ctx_of sc in
  let slice = 1 + (seed mod 12) in
  let domains = 1 + (seed / 12 mod 3) in
  let prune_partial = seed land 1 = 0 in
  let config =
    { Duocore.Enumerate.default_config with
      Duocore.Enumerate.max_pops = 400;
      max_candidates = 10;
      time_budget_s = 20.0;
      prune_partial;
      domains;
      overcommit = true }
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
    Fun.protect
      ~finally:(fun () -> Duocore.Enumerate.release st)
      (fun () ->
        let rec go () =
          match Duocore.Enumerate.step ~max_pops:slice st with
          | Duocore.Enumerate.Running -> go ()
          | Duocore.Enumerate.Finished -> Duocore.Enumerate.outcome st
        in
        go ())
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
      "candidates diverge at slice=%d domains=%d:\nrun:  %s\nstep: %s" slice
      domains
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
    let warm =
      Fun.protect
        ~finally:(fun () -> E.release st)
        (fun () ->
          ignore (E.step ~max_pops:(1 + (seed mod 40)) st);
          E.rebase st ~tsq:new_t;
          let rec go () =
            match E.step st with E.Running -> go () | E.Finished -> ()
          in
          go ();
          E.outcome st)
    in
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

(* [key_hash] is consistent with [key] ([key a = key b] implies equal
   hashes) over a derivation sample and each state's twins;
   [equal_rendered] implies equal keys; [Partial.Tbl] partitions the
   sample exactly like a string-keyed table; and a state without
   predicates shares its canonical key with no predicated state and only
   with states of its own key — the two facts that let the enumerator
   skip the canonical layer for such states. *)
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
      ignore (Partial.Tbl.find_or_add tbl a ());
      (Partial.Tbl.find_or_add tbl b () <> None) = String.equal ka kb
      || fail "Partial.Tbl disagrees with key equality:\n%s\n%s" ka kb
  in
  let by_key = Hashtbl.create 256 in
  let tbl = Partial.Tbl.create 16 in
  let canon = Hashtbl.create 256 in
  List.for_all
    (fun t ->
      List.for_all (pair_ok t) (twins t)
      &&
      let k = Partial.key t in
      let first = Hashtbl.find_opt by_key k in
      (match first with
      | Some t' -> pair_ok t t'
      | None ->
          Hashtbl.replace by_key k t;
          true)
      && (Option.is_none (Partial.Tbl.find_or_add tbl t ()) = Option.is_none first
         || fail "Partial.Tbl and the string table disagree on %s" k)
      &&
      let ck = Partial.canonical_key t in
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
   verified child the committing loop offers is replayed through the
   string-keyed two-layer dedup it replaced ([Partial.key], then
   [Partial.canonical_key] for every state); the verdicts must agree at
   every offer.  Agreement at every offer makes the two runs' frontiers,
   pops and offers identical by induction, so one run checks both.
   Modes: NLI (no sketch), dual, two domains, and a warm rebase. *)
let dedup_exact_prop ((sc : Gen.scenario), seed) =
  let module Tsq = Duocore.Tsq in
  let module E = Duocore.Enumerate in
  let ctx = ctx_of sc in
  let config =
    { E.default_config with
      E.max_pops = 400;
      max_candidates = 10;
      time_budget_s = 20.0;
      overcommit = true }
  in
  let new_t = { sc.Gen.sc_tsq with Tsq.min_support = None } in
  let old_t =
    { new_t with
      Tsq.tuples = (match new_t.Tsq.tuples with [] -> [] | t :: _ -> [ t ]);
      sorted = false;
      negatives = [] }
  in
  let check_mode name ~domains ~tsq ~rebase =
    let r = new_replay () in
    let st =
      E.init { config with E.domains } ctx sc.Gen.sc_db ~tsq ~literals:[]
        ~on_offer:(replay_offer r) ()
    in
    let o =
      Fun.protect
        ~finally:(fun () -> E.release st)
        (fun () ->
          if rebase then begin
            ignore (E.step ~max_pops:(1 + (seed mod 40)) st);
            E.rebase st ~tsq:new_t
          end;
          let rec go () = match E.step st with E.Running -> go () | E.Finished -> () in
          go ();
          E.outcome st)
    in
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
  check_mode "nli" ~domains:1 ~tsq:None ~rebase:false
  && check_mode "dual" ~domains:1 ~tsq:(Some sc.Gen.sc_tsq) ~rebase:false
  && check_mode "domains=2" ~domains:2 ~tsq:(Some sc.Gen.sc_tsq) ~rebase:false
  && (Tsq.refines ~old:old_t ~new_:new_t <> Tsq.Tightening
     || check_mode "warm-rebase" ~domains:1 ~tsq:(Some old_t) ~rebase:true)

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
      ~name:"differential: planner-on = planner-off = reference"
      Gen.arb_scenario differential_prop;
    QCheck.Test.make ~count:(120 * mult)
      ~name:"round-trip: parse (pretty q) = q" Gen.arb_scenario roundtrip_prop;
    QCheck.Test.make ~count:(40 * mult)
      ~name:"columnar storage = row reference" Gen.arb_scenario columnar_prop;
    QCheck.Test.make ~count:(20 * mult)
      ~name:"batched probe execution = per-query run" Gen.arb_scenario
      batch_prop;
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
      ~name:"Duopar determinism: parallel enumeration = sequential"
      arb_seeded parallel_determinism_prop;
    QCheck.Test.make ~count:(6 * mult)
      ~name:"adaptive determinism: any controller schedule = sequential"
      arb_seeded adaptive_determinism_prop;
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
    QCheck.Test.make ~count:(6 * mult)
      ~name:"render-free dedup: hashed run pushes what string keys push"
      arb_seeded dedup_exact_prop;
    QCheck.Test.make ~count:(80 * mult)
      ~name:"Duosem equivalence: canonical query = original on its database"
      Gen.arb_scenario duosem_equiv_prop;
    QCheck.Test.make ~count:(80 * mult)
      ~name:"Duosem cardinality bound contains the true row count"
      Gen.arb_scenario duosem_card_prop;
    QCheck.Test.make ~count:(40 * mult)
      ~name:"cached joins: shared relation cache and batch = uncached = reference"
      Gen.arb_scenario cached_prop;
    QCheck.Test.make ~count:(200 * mult)
      ~name:"Domain lattice laws: meet/join/leq/widen vs membership"
      (QCheck.make ~print:string_of_int (fun st ->
           Random.State.int st 1_000_000))
      domain_lattice_prop;
  ]
