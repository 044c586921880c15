(* Duocheck: the differential + metamorphic fuzz subsystem, run here with
   small seeded iteration counts (`dune build @fuzz` scales them up), plus
   deterministic gold-survival checks: the Figure 2 worked example and the
   MAS A1-B4 study golds must survive every cascade stage of their own
   derivations when the TSQ is synthesized from their own results. *)

module Tsq = Duocore.Tsq
module Verify = Duocore.Verify
module Value = Duodb.Value
module Soundness = Duocheck.Soundness

let seeded_props =
  List.map
    (fun t ->
      QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 0xD0C4EC |]) t)
    (Duocheck.Props.tests ())

let movie_db = Fixtures.movie_db ()

let test_reference_on_fig2 () =
  let q =
    Fixtures.parse "SELECT movies.name FROM movies WHERE movies.year < 1995"
  in
  match Duocheck.Reference.run movie_db q with
  | Error e -> Alcotest.fail e
  | Ok res ->
      let names =
        List.filter_map
          (fun r -> match r.(0) with Value.Text s -> Some s | _ -> None)
          res.Duoengine.Executor.res_rows
      in
      Alcotest.(check bool) "Forrest Gump (1994) included" true
        (List.mem "Forrest Gump" names);
      (* and the engine agrees, both with and without the planner *)
      Alcotest.(check bool) "differential agreement" true
        (Duocheck.Props.differential_prop
           { Duocheck.Gen.sc_db = movie_db; sc_query = q; sc_tsq = Tsq.empty })

let test_fig2_gold_survives_cascade () =
  let gold =
    Fixtures.parse "SELECT movies.name FROM movies WHERE movies.year < 1995"
  in
  let tsq =
    Tsq.make ~types:[ Duodb.Datatype.Text ]
      ~tuples:[ [ Tsq.Exact (Value.Text "Forrest Gump") ] ]
      ()
  in
  let env =
    Verify.make_env ~db:movie_db ~tsq:(Some tsq)
      ~literals:[ Value.Int 1995 ] ()
  in
  (match Soundness.derivation_states Fixtures.movie_schema gold with
  | None -> Alcotest.fail "Figure 2 gold should be representable"
  | Some states ->
      Alcotest.(check bool) "derivation has intermediate states" true
        (List.length states > 3));
  match Soundness.gold_survival env Fixtures.movie_schema gold with
  | None -> ()
  | Some (stage, st) ->
      Alcotest.failf "stage %s pruned gold prefix %s" stage
        (Duocore.Partial.to_string st)

let test_mas_golds_survive_cascade () =
  let db = Duobench.Mas.database () in
  let representable = ref 0 in
  List.iter
    (fun (task : Duobench.Mas.task) ->
      let gold = Duobench.Mas.gold task in
      if Option.is_some (Soundness.derivation_states Duobench.Mas.schema gold)
      then incr representable;
      List.iter
        (fun detail ->
          let rng =
            Duobench.Rng.create
              (Hashtbl.hash
                 (task.Duobench.Mas.task_id,
                  Duobench.Tsq_synth.detail_to_string detail))
          in
          match Duobench.Tsq_synth.synthesize rng db gold ~detail with
          | None -> () (* gold returned no rows: nothing to sketch *)
          | Some tsq ->
              let env =
                Verify.make_env ~db ~tsq:(Some tsq)
                  ~literals:task.Duobench.Mas.task_literals ()
              in
              (match Soundness.gold_survival env Duobench.Mas.schema gold with
              | None -> ()
              | Some (stage, st) ->
                  Alcotest.failf "%s at detail %s: stage %s pruned %s"
                    task.Duobench.Mas.task_id
                    (Duobench.Tsq_synth.detail_to_string detail)
                    stage
                    (Duocore.Partial.to_string st)))
        [ Duobench.Tsq_synth.Full; Duobench.Tsq_synth.Partial;
          Duobench.Tsq_synth.Minimal ])
    Duobench.Mas.nli_study_tasks;
  Alcotest.(check bool) "some MAS golds are representable" true
    (!representable > 0)

(* [domains] is the sharding width of callers that run whole syntheses
   side by side; one run never depends on it.  On the study golds at
   Full and Partial detail, configs of two and four domains (kept at that
   width on any host) yield the sequential run's candidates, confidences
   and every verification counter (timings aside), each on a fresh
   session so that all runs start from cold caches. *)
let test_mas_golds_parallel_identical () =
  let db = Duobench.Mas.database () in
  let module Verify = Duocore.Verify in
  let module E = Duocore.Enumerate in
  let counters (o : E.outcome) = { o.E.out_stats with Verify.stage_seconds = [||] } in
  let cands (o : E.outcome) =
    List.map
      (fun (c : E.candidate) -> (Duosql.Pretty.query c.E.cand_query, c.E.cand_confidence))
      o.E.out_candidates
  in
  List.iter
    (fun (task : Duobench.Mas.task) ->
      List.iter
        (fun detail ->
          let tsq =
            Duobench.Tsq_synth.synthesize (Duobench.Rng.create 29) db
              (Duobench.Mas.gold task) ~detail
          in
          let run domains =
            let config =
              { E.default_config with
                E.max_pops = 3_000;
                max_candidates = 10;
                time_budget_s = 20.0;
                domains;
                overcommit = true }
            in
            Duocore.Duoquest.synthesize ~config ?tsq
              ~literals:task.Duobench.Mas.task_literals
              (Duocore.Duoquest.create_session db)
              ~nlq:task.Duobench.Mas.task_nlq ()
          in
          let seq = run 1 in
          List.iter
            (fun domains ->
              let par = run domains in
              let name what =
                Printf.sprintf "%s %s, domains=%d: %s" task.Duobench.Mas.task_id
                  (Duobench.Tsq_synth.detail_to_string detail) domains what
              in
              Alcotest.(check (list (pair string (float 0.0))))
                (name "same candidates and confidences") (cands seq) (cands par);
              Alcotest.(check bool) (name "same verification counters") true
                (counters seq = counters par))
            [ 2; 4 ])
        [ Duobench.Tsq_synth.Full; Duobench.Tsq_synth.Partial ])
    (List.filter
       (fun (t : Duobench.Mas.task) -> List.mem t.Duobench.Mas.task_id [ "A1"; "B1"; "B4" ])
       Duobench.Mas.nli_study_tasks)

(* Lazy sibling runs on Duoquest tasks.  The generated scenarios never
   produce two predicate orders of one WHERE clause that the search
   reaches in the opposite order from the one they were generated in;
   these Minimal-sketch tasks of the mini Spider splits (seeds 11 and 17,
   the simulation's sketch draws) do, and a run that deferred the
   canonical layer to reach time would emit different candidates on
   each of them.  The run must agree with the eager reference. *)
let test_lazy_runs_on_tasks () =
  List.iter
    (fun (seed, ids) ->
      let split = Duobench.Spider_gen.mini ~seed ~n_dbs:4 ~per_db:9 () in
      let rng = Duobench.Rng.create 4242 in
      let rngs = List.map (fun _ -> Duobench.Rng.split rng) split.Duobench.Spider_gen.tasks in
      List.iteri
        (fun i ((task : Duobench.Spider_gen.task), trng) ->
          if List.mem i ids then begin
            let db = List.assoc task.Duobench.Spider_gen.sp_db split.Duobench.Spider_gen.databases in
            let session = Duocore.Duoquest.create_session db in
            let index = Duocore.Duoquest.session_index session in
            let tsq =
              Duobench.Tsq_synth.synthesize trng db task.Duobench.Spider_gen.sp_gold
                ~detail:Duobench.Tsq_synth.Minimal
            in
            let nlq =
              Duonl.Nlq.with_literals ~index task.Duobench.Spider_gen.sp_nlq
                task.Duobench.Spider_gen.sp_literals
            in
            let ctx = Duoguide.Model.make ~index (Duodb.Database.schema db) nlq in
            let config =
              { Duocore.Enumerate.default_config with
                Duocore.Enumerate.max_pops = 4_000;
                max_candidates = 100;
                time_budget_s = 600.0 }
            in
            match
              Duocheck.Props.lazy_eager_diff config ctx db ~index ~tsq
                ~literals:(List.map (fun l -> l.Duonl.Nlq.lit_value) nlq.Duonl.Nlq.literals)
                ()
            with
            | None -> ()
            | Some d -> Alcotest.failf "mini seed %d task %d: %s" seed i d
          end)
        (List.combine split.Duobench.Spider_gen.tasks rngs))
    [ (11, [ 16; 18; 22 ]); (17, [ 17; 19 ]) ]

let suite =
  [
    Alcotest.test_case "reference: Figure 2 query" `Quick test_reference_on_fig2;
    Alcotest.test_case "Figure 2 gold survives its derivation" `Quick
      test_fig2_gold_survives_cascade;
    Alcotest.test_case "MAS A1-B4 golds survive at all detail levels" `Quick
      test_mas_golds_survive_cascade;
    Alcotest.test_case "MAS golds: domains=4 synthesis identical" `Quick
      test_mas_golds_parallel_identical;
    Alcotest.test_case "lazy runs = eager reference on Minimal-sketch tasks" `Quick
      test_lazy_runs_on_tasks;
  ]
  @ seeded_props
