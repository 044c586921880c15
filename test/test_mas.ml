module Mas = Duobench.Mas
module Executor = Duoengine.Executor

let db = Mas.database ()

let test_schema_stats () =
  Alcotest.(check int) "15 tables" 15 (Duodb.Schema.num_tables Mas.schema);
  Alcotest.(check int) "19 fks" 19 (Duodb.Schema.num_foreign_keys Mas.schema);
  Alcotest.(check bool) "roughly 44 columns" true
    (abs (Duodb.Schema.num_columns Mas.schema - 44) <= 4)

let test_integrity () =
  Alcotest.(check (list string)) "consistent instance" [] (Duodb.Database.check_integrity db)

let test_deterministic () =
  let db2 = Mas.database () in
  Alcotest.(check int) "same row count" (Duodb.Database.total_rows db)
    (Duodb.Database.total_rows db2)

let check_task (task : Mas.task) () =
  let gold = Mas.gold task in
  let res = Executor.run_exn db gold in
  let n = Executor.cardinality res in
  Alcotest.(check bool)
    (Printf.sprintf "%s non-empty (%d rows)" task.Mas.task_id n)
    true (n > 0);
  (* Discriminative: the task should not return the whole base table. *)
  Alcotest.(check bool) (task.Mas.task_id ^ " selective") true (n < 260)

let task_cases =
  List.map
    (fun (task : Mas.task) ->
      Alcotest.test_case
        (Printf.sprintf "task %s executes" task.Mas.task_id)
        `Quick (check_task task))
    (Mas.nli_study_tasks @ Mas.pbe_study_tasks)

let test_prolific_author_exists () =
  (* Tasks B1/D1 reference these authors; they must have publications. *)
  List.iter
    (fun name ->
      let rows =
        Executor.run_exn db
          (Duosql.Parser.query_exn ~schema:Mas.schema
             (Printf.sprintf
                "SELECT COUNT(*) FROM author JOIN writes ON author.aid = \
                 writes.aid WHERE author.name = '%s'"
                name))
      in
      match rows.Executor.res_rows with
      | [ [| Duodb.Value.Int n |] ] ->
          Alcotest.(check bool) (name ^ " has publications") true (n > 0)
      | _ -> Alcotest.fail "unexpected result shape")
    [ "Wei Zhang"; "Maria Garcia" ]

let study_config =
  { Duocore.Enumerate.default_config with
    Duocore.Enumerate.max_pops = 2000;
    max_candidates = 10;
    time_budget_s = 60.0 }

(* One pop-bounded run of a study task on a fresh session, dual mode
   with a full-detail sketch unless [mode] says otherwise. *)
let run_task ?(mode = `Duoquest) (task : Mas.task) =
  let tsq =
    match
      Duobench.Tsq_synth.synthesize (Duobench.Rng.create 7) db (Mas.gold task)
        ~detail:Duobench.Tsq_synth.Full
    with
    | Some tsq -> tsq
    | None -> Alcotest.fail "no sketch for the task"
  in
  Duocore.Duoquest.synthesize ~config:study_config ~mode ~tsq
    ~literals:task.Mas.task_literals (Duocore.Duoquest.create_session db)
    ~nlq:task.Mas.task_nlq ()

(* The row and complete stages stream a probe's output into the example
   matcher and stop once every tuple has enough matching rows: a dual run
   on a study task stops some scans early; an NLI run has no example
   tuples and never reaches the matcher. *)
let test_early_stops () =
  let task = List.hd Mas.nli_study_tasks in
  let early_stops mode =
    (run_task ~mode task).Duocore.Enumerate.out_stats.Duocore.Verify.early_stops
  in
  Alcotest.(check bool) "dual run stops scans early" true (early_stops `Duoquest > 0);
  Alcotest.(check int) "NLI run never streams a match" 0 (early_stops `Nli)

(* Merging two runs' stats sums the prune counters, stage by stage, and
   the per-run cascade invocation count.  Outcome snapshots are merges
   themselves, so a merge that dropped a counter would zero both sides
   of a sum; the nonzero and add-up checks catch that. *)
let test_merge_stats () =
  let module V = Duocore.Verify in
  let a = (run_task (List.hd Mas.nli_study_tasks)).Duocore.Enumerate.out_stats in
  let b = (run_task (List.hd Mas.pbe_study_tasks)).Duocore.Enumerate.out_stats in
  let merged = V.new_stats () in
  V.merge_stats ~into:merged a;
  V.merge_stats ~into:merged b;
  let sum f = f a + f b in
  Alcotest.(check bool) "both runs verified and pruned" true
    (a.V.verify_calls > 0 && b.V.verify_calls > 0 && a.V.pruned > 0 && b.V.pruned > 0);
  Alcotest.(check int) "pruned" (sum (fun s -> s.V.pruned)) merged.V.pruned;
  Alcotest.(check int) "verify_calls" (sum (fun s -> s.V.verify_calls)) merged.V.verify_calls;
  List.iter
    (fun st ->
      Alcotest.(check int) ("pruned_by " ^ V.stage_name st)
        (sum (fun s -> V.pruned_by s st))
        (V.pruned_by merged st))
    V.all_stages;
  Alcotest.(check int) "stage prunes add up to pruned" merged.V.pruned
    (List.fold_left (fun acc st -> acc + V.pruned_by merged st) 0 V.all_stages)

let suite =
  [
    Alcotest.test_case "schema statistics" `Quick test_schema_stats;
    Alcotest.test_case "referential integrity" `Quick test_integrity;
    Alcotest.test_case "deterministic generation" `Quick test_deterministic;
    Alcotest.test_case "prolific authors exist" `Quick test_prolific_author_exists;
    Alcotest.test_case "early stops: dual > 0, NLI = 0" `Quick test_early_stops;
    Alcotest.test_case "merge_stats sums two runs' prunes and verifies" `Quick
      test_merge_stats;
  ]
  @ task_cases
