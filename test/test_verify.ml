(* The verification cascade: stage behaviour on hand-built partial states,
   plus the anti-pruning property — no prefix of a satisfying query is ever
   pruned (the soundness of partial-query pruning, Section 3.4). *)

module Verify = Duocore.Verify
module Partial = Duocore.Partial
module Tsq = Duocore.Tsq
module Model = Duoguide.Model
module Enumerate = Duocore.Enumerate
module Value = Duodb.Value

let db = Fixtures.movie_db ()
let schema = Fixtures.movie_schema
let column t c = Duodb.Schema.find_column_exn schema ~table:t c

let env ?tsq ?(literals = []) () = Verify.make_env ~db ~tsq ~literals ()

let with_kw ?(where = false) ?(group = false) ?(order = false) phase =
  { Partial.root with
    Partial.phase;
    kw = { Model.kw_where = where; kw_group = group; kw_order = order } }

let test_clauses_sorted_mismatch () =
  let tsq = Tsq.make ~sorted:true () in
  let e = env ~tsq () in
  Alcotest.(check bool) "no-order kw fails sorted TSQ" false
    (Verify.verify_clauses e (with_kw Partial.P_num_proj));
  Alcotest.(check bool) "order kw passes" true
    (Verify.verify_clauses e (with_kw ~order:true Partial.P_num_proj));
  Alcotest.(check bool) "undecided kw passes" true
    (Verify.verify_clauses e Partial.root)

let test_clauses_sorted_is_implication () =
  (* regression: an unchecked sorted box must not prune ORDER BY states —
     Definition 2.4 reads tau as an implication, not an equivalence *)
  let tsq = Tsq.make ~sorted:false () in
  let e = env ~tsq () in
  Alcotest.(check bool) "order kw survives unsorted TSQ" true
    (Verify.verify_clauses e (with_kw ~order:true Partial.P_num_proj));
  (* end to end: an ORDER BY gold stays reachable under a sorted=false
     sketch built from its own (ordered) result *)
  let gold =
    Fixtures.parse
      "SELECT movies.name, movies.year FROM movies ORDER BY movies.year ASC"
  in
  let res = Duoengine.Executor.run_exn db gold in
  let tuple =
    match res.Duoengine.Executor.res_rows with
    | r :: _ -> Array.to_list (Array.map (fun v -> Tsq.Exact v) r)
    | [] -> Alcotest.fail "gold returned no rows"
  in
  let tsq =
    Tsq.make
      ~types:[ Duodb.Datatype.Text; Duodb.Datatype.Number ]
      ~tuples:[ tuple ] ~sorted:false ()
  in
  let session = Duocore.Duoquest.create_session db in
  let config =
    { Enumerate.default_config with
      Enumerate.max_pops = 60_000;
      max_candidates = 80;
      time_budget_s = 20.0 }
  in
  let outcome =
    Duocore.Duoquest.synthesize ~config ~tsq ~literals:[] session
      ~nlq:"movie names and years from earliest to latest" ()
  in
  Alcotest.(check bool) "ORDER BY gold emitted" true
    (Option.is_some (Duocore.Duoquest.rank_of outcome ~gold))

let test_clauses_limit () =
  let tsq = Tsq.make ~sorted:true ~limit:3 () in
  let e = env ~tsq () in
  let state = { (with_kw ~order:true Partial.P_done) with Partial.limit = Some 5 } in
  Alcotest.(check bool) "limit above k fails" false (Verify.verify_clauses e state);
  let state = { state with Partial.limit = Some 2 } in
  Alcotest.(check bool) "limit below k ok" true (Verify.verify_clauses e state)

let slot table col_name agg =
  { Partial.pj_target = Model.Target_column (column table col_name);
    pj_agg = agg }

let test_column_types_prefix () =
  let tsq = Tsq.make ~types:[ Duodb.Datatype.Text; Duodb.Datatype.Number ] () in
  let e = env ~tsq () in
  let good =
    { (with_kw (Partial.P_proj_agg 0)) with
      Partial.nproj = 2;
      projs = [ slot "movies" "name" (Some None) ] }
  in
  Alcotest.(check bool) "text prefix ok" true (Verify.verify_column_types e good);
  let bad = { good with Partial.projs = [ slot "movies" "year" (Some None) ] } in
  Alcotest.(check bool) "number in text slot fails" false (Verify.verify_column_types e bad);
  let wrong_width = { good with Partial.nproj = 3 } in
  Alcotest.(check bool) "width mismatch fails" false
    (Verify.verify_column_types e wrong_width)

let test_column_probe () =
  let tsq = Tsq.make ~tuples:[ [ Tsq.Exact (Value.Text "Forrest Gump") ] ] () in
  let e = env ~tsq () in
  let movie_state =
    { (with_kw (Partial.P_proj_agg 0)) with
      Partial.nproj = 1;
      projs = [ slot "movies" "name" (Some None) ] }
  in
  Alcotest.(check bool) "movies.name contains the value" true
    (Verify.verify_by_column e movie_state);
  let actor_state =
    { movie_state with Partial.projs = [ slot "actor" "name" (Some None) ] }
  in
  Alcotest.(check bool) "actor.name does not" false
    (Verify.verify_by_column e actor_state);
  Alcotest.(check bool) "undecided aggregate is never pruned" true
    (Verify.verify_by_column e
       { movie_state with Partial.projs = [ slot "actor" "name" None ] })

let test_avg_range_check () =
  let tsq = Tsq.make ~tuples:[ [ Tsq.Exact (Value.Int 100000) ] ] () in
  let e = env ~tsq () in
  let avg_year =
    { (with_kw (Partial.P_where_num)) with
      Partial.nproj = 1;
      projs = [ slot "movies" "year" (Some (Some Duosql.Ast.Avg)) ] }
  in
  (* years range 1993-2017: an average of 100000 is impossible *)
  Alcotest.(check bool) "impossible AVG pruned" false (Verify.verify_by_column e avg_year);
  let tsq2 = Tsq.make ~tuples:[ [ Tsq.Exact (Value.Int 2000) ] ] () in
  let e2 = env ~tsq:tsq2 () in
  Alcotest.(check bool) "plausible AVG kept" true (Verify.verify_by_column e2 avg_year)

let test_count_sum_never_pruned_column_wise () =
  let tsq = Tsq.make ~tuples:[ [ Tsq.Exact (Value.Int 99999) ] ] () in
  let e = env ~tsq () in
  let st agg =
    { (with_kw Partial.P_where_num) with
      Partial.nproj = 1;
      projs = [ slot "movies" "year" (Some (Some agg)) ] }
  in
  Alcotest.(check bool) "COUNT unconstrained" true
    (Verify.verify_by_column e (st Duosql.Ast.Count));
  Alcotest.(check bool) "SUM unconstrained" true
    (Verify.verify_by_column e (st Duosql.Ast.Sum))

let test_literals_must_be_used () =
  let e = env ~literals:[ Value.Int 1995 ] () in
  let q_with = Fixtures.parse "SELECT movies.name FROM movies WHERE movies.year < 1995" in
  let q_without = Fixtures.parse "SELECT movies.name FROM movies" in
  Alcotest.(check bool) "literal used" true (Verify.verify_complete e q_with);
  Alcotest.(check bool) "literal unused" false (Verify.verify_complete e q_without)

let test_limit_counts_as_literal_use () =
  let e = env ~literals:[ Value.Int 3 ] () in
  let q = Fixtures.parse "SELECT movies.name FROM movies ORDER BY movies.year DESC LIMIT 3" in
  Alcotest.(check bool) "LIMIT 3 uses literal 3" true (Verify.verify_complete e q)

(* A row-checkable state: its projections and WHERE are decided (the
   cursor sits at GROUP BY), over [sql]'s FROM clause. *)
let row_state ~projs ~preds ~conn sql =
  { (with_kw ~where:true (Partial.P_group_col)) with
    Partial.nproj = List.length projs;
    projs;
    where_n = List.length preds;
    where_preds = preds;
    conn;
    from = Some (Fixtures.parse sql).Duosql.Ast.q_from }

let test_row_probe_residual_error () =
  let open Duosql.Ast in
  (* Canonical join order starts with Tom Hanks's two rows, which satisfy
     the first disjunct and fill the single tuple's quota; Sandra
     Bullock's row then reaches [movies.year LIKE ...] on a number.  The
     residual filter runs to completion before the matcher sees a row, so
     the probe fails as it did when rows were materialized. *)
  let from_sql =
    "SELECT actor.name FROM actor JOIN starring ON actor.aid = starring.aid \
     JOIN movies ON starring.mid = movies.mid"
  in
  let tsq = Tsq.make ~tuples:[ [ Tsq.Exact (Value.Text "Tom Hanks") ] ] () in
  let male =
    { pr_agg = None; pr_col = Some (col "actor" "gender");
      pr_rhs = Cmp (Eq, Value.Text "male") }
  in
  let state second =
    row_state ~projs:[ slot "actor" "name" (Some None) ] ~preds:[ male; second ]
      ~conn:Or from_sql
  in
  let like_year =
    { pr_agg = None; pr_col = Some (col "movies" "year");
      pr_rhs = Cmp (Like, Value.Text "%9%") }
  and late_year =
    { pr_agg = None; pr_col = Some (col "movies" "year");
      pr_rhs = Cmp (Gt, Value.Int 2000) }
  in
  Alcotest.(check bool) "control: same probe without the bad disjunct" true
    (Verify.verify_by_row (env ~tsq ()) (state late_year));
  Alcotest.(check bool) "LIKE on a number fails the probe" false
    (Verify.verify_by_row (env ~tsq ()) (state like_year));
  (* the complete-query check streams the same shape and fails alike *)
  let q =
    { (Fixtures.parse from_sql) with
      q_where = Some { c_preds = [ male; like_year ]; c_conn = Or } }
  in
  Alcotest.(check bool) "plain complete query fails too" false (Tsq.satisfies tsq db q)

let test_row_probe_over_max_rows () =
  (* One parent row and 20,001 children: the join exceeds the
     verification row cap. *)
  let schema =
    Duodb.Schema.make ~name:"fanout"
      [
        Duodb.Schema.table "parent"
          [ ("pid", Duodb.Datatype.Number); ("name", Duodb.Datatype.Text) ]
          ~pk:[ "pid" ];
        Duodb.Schema.table "child"
          [ ("cid", Duodb.Datatype.Number); ("pid", Duodb.Datatype.Number) ]
          ~pk:[ "cid" ];
      ]
      [ Duodb.Schema.fk ("child", "pid") ("parent", "pid") ]
  in
  let fdb = Duodb.Database.create schema in
  Duodb.Database.insert_all fdb ~table:"parent" [ [| Value.Int 1; Value.Text "p" |] ];
  Duodb.Database.insert_all fdb ~table:"child"
    (List.init 20_001 (fun k -> [| Value.Int k; Value.Int 1 |]));
  let cslot t c =
    { Partial.pj_target =
        Model.Target_column (Duodb.Schema.find_column_exn schema ~table:t c);
      pj_agg = Some None }
  in
  let state =
    { (with_kw Partial.P_where_num) with
      Partial.nproj = 2;
      projs = [ cslot "parent" "name"; cslot "child" "cid" ];
      from =
        Some
          (Duosql.Parser.query_exn ~schema
             "SELECT parent.name FROM parent JOIN child ON parent.pid = child.pid")
            .Duosql.Ast.q_from }
  in
  let tsq = Tsq.make ~tuples:[ [ Tsq.Exact (Value.Text "p"); Tsq.Any ] ] () in
  let e = Verify.make_env ~db:fdb ~tsq:(Some tsq) ~literals:[] () in
  Alcotest.(check bool) "overflowing probe fails" false (Verify.verify_by_row e state);
  Alcotest.(check int) "one probe executed" 1 (Verify.stats e).Verify.row_probes;
  Alcotest.(check bool) "second call fails again" false (Verify.verify_by_row e state);
  Alcotest.(check int) "served from the row cache" 1 (Verify.stats e).Verify.row_probes;
  Alcotest.(check int) "no early stop on an error" 0 (Verify.stats e).Verify.early_stops

(* Anti-pruning property: run full GPQE on a task where the gold query is
   known to satisfy the sketch; the gold must be emitted, which can only
   happen if none of its prefixes was pruned. *)
let prop_no_prefix_of_gold_pruned =
  QCheck.Test.make ~name:"gold query survives pruning" ~count:8
    (QCheck.make
       (QCheck.Gen.oneofl
          [ ("SELECT movies.name FROM movies WHERE movies.year < 1995",
             "movies from before 1995", [ Value.Int 1995 ]);
            ("SELECT movies.name, movies.year FROM movies ORDER BY movies.year ASC",
             "movie names and years from earliest to latest", []);
            ("SELECT a.name, COUNT(*) FROM actor a JOIN starring s ON a.aid = s.aid \
              GROUP BY a.name",
             "actors and the number of movies each actor starred in", []) ]))
    (fun (sql, nlq, literals) ->
      let gold = Fixtures.parse sql in
      let rng = Duobench.Rng.create (Hashtbl.hash sql) in
      match Duobench.Tsq_synth.synthesize rng db gold ~detail:Duobench.Tsq_synth.Full with
      | None -> false
      | Some tsq ->
          let session = Duocore.Duoquest.create_session db in
          let config =
            { Enumerate.default_config with
              Enumerate.max_pops = 60_000;
              max_candidates = 80;
              time_budget_s = 20.0 }
          in
          let outcome =
            Duocore.Duoquest.synthesize ~config ~tsq ~literals session ~nlq ()
          in
          Option.is_some (Duocore.Duoquest.rank_of outcome ~gold))

(* --- sibling-set cascade = child-by-child cascade -------------------- *)

(* Every counter [verify_batch] must reproduce exactly. *)
let counters (s : Verify.stats) =
  [ ("column_probes", s.Verify.column_probes); ("index_probes", s.Verify.index_probes);
    ("row_probes", s.Verify.row_probes); ("full_executions", s.Verify.full_executions);
    ("relcache_hits", s.Verify.relcache_hits);
    ("pushdown_builds", s.Verify.pushdown_builds);
    ("join_index_builds", s.Verify.join_index_builds);
    ("join_index_hits", s.Verify.join_index_hits); ("pruned", s.Verify.pruned);
    ("dedup_semantic", s.Verify.dedup_semantic); ("visited_hits", s.Verify.visited_hits);
    ("canon_checked", s.Verify.canon_checked); ("key_renders", s.Verify.key_renders);
    ("static_warnings", s.Verify.static_warnings); ("early_stops", s.Verify.early_stops);
    ("verify_calls", s.Verify.verify_calls) ]
  @ List.map (fun st -> ("pruned." ^ Verify.stage_name st, Verify.pruned_by s st)) Verify.all_stages

(* The children and grandchildren of every state along the gold's
   derivation, as the enumerator expands them: realistic sibling sets
   mixing survivors with children pruned at every stage, many of them
   failing several stages at once (so prune attribution depends on the
   stage order). *)
let sibling_sets ctx hints gold =
  match Duocheck.Soundness.derivation_states (Model.schema ctx) gold with
  | None -> Alcotest.fail "gold outside the enumeration space"
  | Some states ->
      let expand = Enumerate.expand ~guided:true hints ctx in
      List.filter
        (fun cs -> cs <> [])
        (List.concat_map (fun st -> let cs = expand st in cs :: List.map expand cs) states)

(* The cascade in the paper's ascending-cost order (Section 3.4), stage
   by stage on one child: the oracle for which stage prunes a child. *)
let stage_check st env (t : Partial.t) =
  match st with
  | Verify.S_static -> Verify.verify_static env t
  | Verify.S_clauses -> Verify.verify_clauses env t
  | Verify.S_cardinality -> Verify.verify_cardinality env t
  | Verify.S_semantics -> Verify.verify_semantics env t
  | Verify.S_types -> Verify.verify_column_types env t
  | Verify.S_column -> Verify.verify_by_column env t
  | Verify.S_row -> Verify.verify_by_row env t
  | Verify.S_complete -> (
      (not (Partial.is_complete t))
      || match Partial.to_query t with Some q -> Verify.verify_complete env q | None -> true)

(* Runs the sets through [verify_batch] on one fresh env, through
   [verify] child by child on another, and through the stage oracle on a
   third. *)
let check_sibling_sets name ~db ~tsq ~literals ctx gold =
  let hints = match tsq with Some t -> Enumerate.hints_of_tsq t | None -> Enumerate.no_hints in
  let fresh () = Verify.make_env ~db ~tsq ~literals () in
  let batch = fresh () and single = fresh () and oracle = fresh () in
  let nstages = List.length Verify.all_stages in
  let ran = Array.make nstages false and pruned = Array.make nstages 0 in
  List.iter
    (fun children ->
      let got = Verify.verify_batch batch children in
      List.iter2
        (fun child (child', ok) ->
          if child != child' then Alcotest.failf "%s: verdicts out of order" name;
          let ok' = Verify.verify single child in
          if ok <> ok' then
            Alcotest.failf "%s: %s is %b batched, %b alone" name (Partial.to_string child)
              ok ok';
          (* the child reaches every stage up to the one that prunes it,
             and runs the ones the env keeps *)
          let rec reach = function
            | [] -> true
            | st :: rest ->
                if Verify.keeps oracle st then ran.(Verify.stage_index st) <- true;
                if stage_check st oracle child then reach rest
                else begin
                  pruned.(Verify.stage_index st) <- pruned.(Verify.stage_index st) + 1;
                  false
                end
          in
          if reach Verify.all_stages <> ok then
            Alcotest.failf "%s: %s is %b batched, %b by the stage oracle" name
              (Partial.to_string child) ok (not ok))
        children got)
    (sibling_sets ctx hints gold);
  List.iter2
    (fun (k, a) (_, b) -> if a <> b then Alcotest.failf "%s: %s %d batched, %d alone" name k a b)
    (counters (Verify.stats batch))
    (counters (Verify.stats single));
  List.iter
    (fun st ->
      let k = Verify.stage_index st in
      let got = Verify.pruned_by (Verify.stats batch) st in
      if got <> pruned.(k) then
        Alcotest.failf "%s: stage %s pruned %d, the oracle %d" name (Verify.stage_name st)
          got pruned.(k);
      let secs = (Verify.stats batch).Verify.stage_seconds.(k) in
      if ran.(k) && not (secs > 0.0) then
        Alcotest.failf "%s: stage %s ran but was not timed" name (Verify.stage_name st);
      if (not ran.(k)) && secs <> 0.0 then
        Alcotest.failf "%s: stage %s never ran but was timed" name (Verify.stage_name st))
    Verify.all_stages

let test_sibling_set_cascade () =
  let mdb = Duobench.Mas.database () in
  let tasks = Duobench.Mas.nli_study_tasks @ Duobench.Mas.pbe_study_tasks in
  List.iter
    (fun id ->
      let task = List.find (fun t -> t.Duobench.Mas.task_id = id) tasks in
      let gold = Duobench.Mas.gold task in
      let ctx =
        Model.make Duobench.Mas.schema (Duonl.Nlq.analyze task.Duobench.Mas.task_nlq)
      in
      List.iter
        (fun detail ->
          let name = id ^ "/" ^ Duobench.Tsq_synth.detail_to_string detail in
          let rng = Duobench.Rng.create (Hashtbl.hash name) in
          match Duobench.Tsq_synth.synthesize rng mdb gold ~detail with
          | None -> Alcotest.failf "%s: no sketch" name
          | Some tsq ->
              check_sibling_sets name ~db:mdb ~tsq:(Some tsq)
                ~literals:task.Duobench.Mas.task_literals ctx gold)
        [ Duobench.Tsq_synth.Full; Duobench.Tsq_synth.Partial; Duobench.Tsq_synth.Minimal ])
    [ "A1"; "B1"; "B4"; "D1" ];
  (* one dev task in NLI mode: no sketch, so only the sketch-free stages prune *)
  let dev = Duobench.Spider_gen.mini ~seed:11 ~n_dbs:4 ~per_db:9 () in
  let task =
    List.find
      (fun t -> Option.is_some (Duocheck.Soundness.derivation_states
                  (Duodb.Database.schema (List.assoc t.Duobench.Spider_gen.sp_db
                     dev.Duobench.Spider_gen.databases)) t.Duobench.Spider_gen.sp_gold)
                && t.Duobench.Spider_gen.sp_difficulty = `Hard)
      dev.Duobench.Spider_gen.tasks
  in
  let ddb = List.assoc task.Duobench.Spider_gen.sp_db dev.Duobench.Spider_gen.databases in
  check_sibling_sets "dev" ~db:ddb ~tsq:None ~literals:task.Duobench.Spider_gen.sp_literals
    (Model.make (Duodb.Database.schema ddb)
       (Duonl.Nlq.with_literals task.Duobench.Spider_gen.sp_nlq
          task.Duobench.Spider_gen.sp_literals))
    task.Duobench.Spider_gen.sp_gold

(* --- stages an env leaves out pass every state ------------------------ *)

(* [Verify.keeps] leaves a stage out of an env's cascade only when its
   check accepts every state under that env: checked on the sibling sets
   of MAS gold derivations under NLI, Minimal, Partial and Full
   sketches, with the static and semantic rules on and off.  The kept
   set is also pinned to what the sketch carries. *)
let test_left_out_stages_pass () =
  let mdb = Duobench.Mas.database () in
  let tasks = Duobench.Mas.nli_study_tasks @ Duobench.Mas.pbe_study_tasks in
  let left_out = ref 0 in
  List.iter
    (fun id ->
      let task = List.find (fun t -> t.Duobench.Mas.task_id = id) tasks in
      let gold = Duobench.Mas.gold task in
      let ctx =
        Model.make Duobench.Mas.schema (Duonl.Nlq.analyze task.Duobench.Mas.task_nlq)
      in
      let sketch detail =
        let rng = Duobench.Rng.create (Hashtbl.hash (id, Duobench.Tsq_synth.detail_to_string detail)) in
        Duobench.Tsq_synth.synthesize rng mdb gold ~detail
      in
      let tsqs =
        None
        :: List.map sketch
             [ Duobench.Tsq_synth.Minimal; Duobench.Tsq_synth.Partial; Duobench.Tsq_synth.Full ]
      in
      List.iter
        (fun tsq ->
          let hints = match tsq with Some t -> Enumerate.hints_of_tsq t | None -> Enumerate.no_hints in
          let states = List.concat (sibling_sets ctx hints gold) in
          List.iter
            (fun (static, semantics) ->
              let env =
                Verify.make_env ~static ~semantics ~db:mdb ~tsq
                  ~literals:task.Duobench.Mas.task_literals ()
              in
              let tuples =
                match tsq with Some t -> t.Tsq.tuples <> [] | None -> false
              in
              let want st =
                match st with
                | Verify.S_static -> static
                | Verify.S_clauses -> tsq <> None
                | Verify.S_cardinality -> (
                    match tsq with Some t -> Tsq.required_support t > 0 | None -> false)
                | Verify.S_semantics -> semantics
                | Verify.S_types -> (
                    match tsq with Some t -> t.Tsq.types <> None | None -> false)
                | Verify.S_column | Verify.S_row -> tuples
                | Verify.S_complete -> true
              in
              List.iter
                (fun st ->
                  let name =
                    Printf.sprintf "%s/%s static=%b semantics=%b: %s" id
                      (if tsq = None then "NLI" else "sketch") static semantics
                      (Verify.stage_name st)
                  in
                  if Verify.keeps env st <> want st then
                    Alcotest.failf "%s kept %b" name (Verify.keeps env st);
                  if not (Verify.keeps env st) then begin
                    incr left_out;
                    List.iter
                      (fun t ->
                        if not (stage_check st env t) then
                          Alcotest.failf "%s is left out but fails %s" name
                            (Partial.to_string t))
                      states
                  end)
                Verify.all_stages)
            [ (true, true); (false, true); (true, false); (false, false) ])
        tsqs)
    [ "A1"; "B1"; "B4"; "D1" ];
  if !left_out = 0 then Alcotest.fail "no env left a stage out"

(* A retarget recompiles the kept stages: a sketch that gains example
   tuples brings [column] and [row] back. *)
let test_retarget_keeps () =
  let db = Fixtures.movie_db () in
  let types = Tsq.make ~types:[ Duodb.Datatype.Text ] () in
  let env = Verify.make_env ~db ~tsq:(Some types) ~literals:[] () in
  List.iter
    (fun st ->
      Alcotest.(check bool) ("types only: " ^ Verify.stage_name st)
        (st <> Verify.S_column && st <> Verify.S_row && st <> Verify.S_cardinality)
        (Verify.keeps env st))
    Verify.all_stages;
  let env' =
    Verify.retarget env
      ~tsq:(Tsq.make ~types:[ Duodb.Datatype.Text ] ~tuples:[ [ Tsq.Exact (Value.Text "Up") ] ] ())
  in
  List.iter
    (fun st -> Alcotest.(check bool) ("with a tuple: " ^ Verify.stage_name st) true (Verify.keeps env' st))
    Verify.all_stages

(* --- memoized warning count = recomputed warning count -------------- *)

(* The enumerator's warning count ([Verify.static_warnings], memoized per
   clause on one env across calls) must equal Duolint's count on a fresh
   [prepare] for every child and grandchild of the gold derivations, in
   derivation order and shuffled.  Returns the total count, so callers
   can check the states raise warnings at all. *)
let check_warning_memo name ~db ~tsq ~literals states =
  let schema = Duodb.Database.schema db in
  let run order states =
    let env = Verify.make_env ~db ~tsq ~literals () in
    List.fold_left
      (fun total (t : Partial.t) ->
        let got = Verify.static_warnings env t in
        let want =
          Duolint.Analyze.count_warnings_p (Duolint.Analyze.prepare schema)
            (Verify.outline (Verify.make_env ~db ~tsq ~literals ()) t)
        in
        if got <> want then
          Alcotest.failf "%s (%s order): %s has %d warnings memoized, %d recomputed" name order
            (Partial.to_string t) got want;
        total + got)
      0 states
  in
  let total = run "derivation" states in
  let rng = Random.State.make [| Hashtbl.hash name |] in
  let shuffled =
    List.map snd
      (List.sort compare (List.map (fun t -> (Random.State.bits rng, t)) states))
  in
  ignore (run "shuffled" shuffled);
  total

let test_warning_memo () =
  let mdb = Duobench.Mas.database () in
  let tasks = Duobench.Mas.nli_study_tasks @ Duobench.Mas.pbe_study_tasks in
  List.iter
    (fun id ->
      let task = List.find (fun t -> t.Duobench.Mas.task_id = id) tasks in
      let gold = Duobench.Mas.gold task in
      let ctx =
        Model.make Duobench.Mas.schema (Duonl.Nlq.analyze task.Duobench.Mas.task_nlq)
      in
      List.iter
        (fun detail ->
          let name = id ^ "/" ^ Duobench.Tsq_synth.detail_to_string detail in
          let rng = Duobench.Rng.create (Hashtbl.hash name) in
          match Duobench.Tsq_synth.synthesize rng mdb gold ~detail with
          | None -> Alcotest.failf "%s: no sketch" name
          | Some tsq ->
              ignore
                (check_warning_memo name ~db:mdb ~tsq:(Some tsq)
                   ~literals:task.Duobench.Mas.task_literals
                   (List.concat (sibling_sets ctx (Enumerate.hints_of_tsq tsq) gold))))
        [ Duobench.Tsq_synth.Full; Duobench.Tsq_synth.Partial; Duobench.Tsq_synth.Minimal ])
    [ "A1"; "B1"; "B4"; "D1" ];
  (* quick-dev tasks in NLI mode, where warnings do fire *)
  let dev = Duobench.Spider_gen.mini ~seed:11 ~n_dbs:4 ~per_db:9 () in
  let total =
    List.fold_left
      (fun total (t : Duobench.Spider_gen.task) ->
        let db = List.assoc t.Duobench.Spider_gen.sp_db dev.Duobench.Spider_gen.databases in
        match
          Duocheck.Soundness.derivation_states (Duodb.Database.schema db)
            t.Duobench.Spider_gen.sp_gold
        with
        | None -> total
        | Some _ ->
            let ctx =
              Model.make (Duodb.Database.schema db)
                (Duonl.Nlq.with_literals t.Duobench.Spider_gen.sp_nlq
                   t.Duobench.Spider_gen.sp_literals)
            in
            total
            + check_warning_memo ("dev " ^ t.Duobench.Spider_gen.sp_nlq) ~db ~tsq:None
                ~literals:t.Duobench.Spider_gen.sp_literals
                (List.concat (sibling_sets ctx Enumerate.no_hints t.Duobench.Spider_gen.sp_gold)))
      0 dev.Duobench.Spider_gen.tasks
  in
  if total = 0 then Alcotest.fail "no dev state raised a warning: the check is vacuous";
  (* Siblings that differ only by the WHERE connective share the predicate
     list physically; subsumption fires under AND only. *)
  let year n =
    { Duosql.Ast.pr_agg = None; pr_col = Some (Duosql.Ast.col "publication" "year");
      pr_rhs = Duosql.Ast.Cmp (Duosql.Ast.Gt, Duodb.Value.Int n) }
  in
  let settled =
    { Partial.root with
      Partial.phase = Partial.P_group_col;
      kw = { Duoguide.Model.kw_where = true; kw_group = false; kw_order = false };
      nproj = 1;
      where_n = 2;
      where_preds = [ year 2000; year 2005 ];
      from = Some (Duosql.Ast.from_table "publication") }
  in
  let siblings =
    List.map (fun conn -> { settled with Partial.conn }) Duosql.Ast.[ And; Or; And ]
  in
  if check_warning_memo "connective siblings" ~db:mdb ~tsq:None ~literals:[] siblings = 0 then
    Alcotest.fail "the AND siblings raised no subsumption warning"

(* The env's outline memos hand out one GROUP BY and one ORDER BY list
   per clause: two outlines of one state, or of states sharing the
   clause, share them physically, which is what Duolint's clause memos
   key on.  A changed clause gets a fresh list. *)
let test_outline_shares_clauses () =
  let e = env () in
  let ordered =
    { (with_kw ~group:true ~order:true Partial.P_limit) with
      Partial.group_col = Some (Duosql.Ast.col "movies" "year");
      order_item = Some (None, Some (Duosql.Ast.col "movies" "year"));
      order_dir = Duosql.Ast.Desc }
  in
  let a = Verify.outline e ordered and b = Verify.outline e ordered in
  let limited = Verify.outline e { ordered with Partial.limit = Some 3 } in
  Alcotest.(check bool) "clauses decided" true
    (a.Duolint.Outline.o_group_by <> [] && a.Duolint.Outline.o_order_by <> []);
  Alcotest.(check bool) "one state: GROUP BY shared" true
    (a.Duolint.Outline.o_group_by == b.Duolint.Outline.o_group_by);
  Alcotest.(check bool) "one state: ORDER BY shared" true
    (a.Duolint.Outline.o_order_by == b.Duolint.Outline.o_order_by);
  Alcotest.(check bool) "a sibling shares both" true
    (a.Duolint.Outline.o_group_by == limited.Duolint.Outline.o_group_by
    && a.Duolint.Outline.o_order_by == limited.Duolint.Outline.o_order_by);
  let asc = Verify.outline e { ordered with Partial.order_dir = Duosql.Ast.Asc } in
  Alcotest.(check bool) "a new direction, a new ORDER BY" true
    (asc.Duolint.Outline.o_order_by != a.Duolint.Outline.o_order_by
    && List.map (fun i -> i.Duosql.Ast.o_dir) asc.Duolint.Outline.o_order_by = [ Duosql.Ast.Asc ])

let suite =
  [
    Alcotest.test_case "clauses: sorted flag" `Quick test_clauses_sorted_mismatch;
    Alcotest.test_case "clauses: tau is an implication" `Quick
      test_clauses_sorted_is_implication;
    Alcotest.test_case "clauses: limit" `Quick test_clauses_limit;
    Alcotest.test_case "column types on prefixes" `Quick test_column_types_prefix;
    Alcotest.test_case "column probes" `Quick test_column_probe;
    Alcotest.test_case "AVG range check" `Quick test_avg_range_check;
    Alcotest.test_case "COUNT/SUM skipped column-wise" `Quick test_count_sum_never_pruned_column_wise;
    Alcotest.test_case "literal usage" `Quick test_literals_must_be_used;
    Alcotest.test_case "limit as literal use" `Quick test_limit_counts_as_literal_use;
    Alcotest.test_case "row probe: residual error after matches" `Quick
      test_row_probe_residual_error;
    Alcotest.test_case "row probe: over max_rows, then cached" `Quick
      test_row_probe_over_max_rows;
    QCheck_alcotest.to_alcotest prop_no_prefix_of_gold_pruned;
    Alcotest.test_case "sibling set = child by child" `Quick test_sibling_set_cascade;
    Alcotest.test_case "left-out stages pass every state" `Quick test_left_out_stages_pass;
    Alcotest.test_case "retarget with tuples keeps column and row" `Quick test_retarget_keeps;
    Alcotest.test_case "memoized warnings = recomputed" `Quick test_warning_memo;
    Alcotest.test_case "outline memos share GROUP BY and ORDER BY" `Quick
      test_outline_shares_clauses;
  ]
