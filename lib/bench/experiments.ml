module Enumerate = Duocore.Enumerate
module Simulation_ = Simulation

type scale =
  [ `Full
  | `Quick
  ]

type runs = {
  r_dq : Simulation.per_task list Lazy.t;  (** Duoquest, Full TSQ *)
  r_dq_partial : Simulation.per_task list Lazy.t;
  r_dq_minimal : Simulation.per_task list Lazy.t;
  r_nli : Simulation.per_task list Lazy.t;
  r_pbe : (Spider_gen.task * Simulation.pbe_status) list Lazy.t;
  r_noguide : Simulation.per_task list Lazy.t;
  r_nopq : Simulation.per_task list Lazy.t;
}

type t = {
  scale : scale;
  dev : Spider_gen.split Lazy.t;
  test : Spider_gen.split Lazy.t;
  dev_runs : runs;
  test_runs : runs;
  nli_study : Study.study Lazy.t;
  pbe_study : Study.study Lazy.t;
}

let make_runs ?pool split =
  let detail d = Some d in
  {
    r_dq =
      lazy (Simulation.run_split ?pool ~mode:`Duoquest ~detail:(detail Tsq_synth.Full) (Lazy.force split));
    r_dq_partial =
      lazy (Simulation.run_split ?pool ~mode:`Duoquest ~detail:(detail Tsq_synth.Partial) (Lazy.force split));
    r_dq_minimal =
      lazy (Simulation.run_split ?pool ~mode:`Duoquest ~detail:(detail Tsq_synth.Minimal) (Lazy.force split));
    r_nli = lazy (Simulation.run_split ?pool ~mode:`Nli ~detail:None (Lazy.force split));
    r_pbe = lazy (Simulation.run_pbe ?pool (Lazy.force split));
    r_noguide =
      lazy (Simulation.run_split ?pool ~mode:`No_guide ~detail:(detail Tsq_synth.Full) (Lazy.force split));
    r_nopq =
      lazy (Simulation.run_split ?pool ~mode:`No_pq ~detail:(detail Tsq_synth.Full) (Lazy.force split));
  }

(* [pool] shards split generation and every simulation run across its
   domains (per-task results and generated splits stay bit-identical to
   the sequential path; see Simulation/Spider_gen).  The caller owns the
   pool's lifetime — runs are lazy, so the pool must outlive the last
   [Lazy.force] on this value. *)
let create ?(scale = `Full) ?pool () =
  let dev =
    lazy
      (match scale with
      | `Full -> Spider_gen.dev ?pool ()
      | `Quick -> Spider_gen.mini ~seed:11 ?pool ~n_dbs:4 ~per_db:9 ())
  in
  let test =
    lazy
      (match scale with
      | `Full -> Spider_gen.test ?pool ()
      | `Quick -> Spider_gen.mini ~seed:22 ?pool ~n_dbs:6 ~per_db:9 ())
  in
  {
    scale;
    dev;
    test;
    dev_runs = make_runs ?pool dev;
    test_runs = make_runs ?pool test;
    nli_study = lazy (Study.nli_study ());
    pbe_study = lazy (Study.pbe_study ());
  }

(* --- rendering helpers --- *)

let pct num den = if den = 0 then 0.0 else 100.0 *. float_of_int num /. float_of_int den

let bar ppf fraction =
  let width = 30 in
  let n = int_of_float (fraction /. 100.0 *. float_of_int width) in
  let n = max 0 (min width n) in
  Format.fprintf ppf "%s%s" (String.make n '#') (String.make (width - n) '.')

let header ppf title = Format.fprintf ppf "@.=== %s ===@." title

(* --- experiments --- *)

let table1 _t ppf =
  header ppf "Table 1: Duoquest vs NLI/PBE capability matrix";
  Format.fprintf ppf "%s@." (Duocore.Capability.to_string ())

let table4 _t ppf =
  header ppf "Table 4: semantic pruning rules (each example must be rejected)";
  let db = Movies.database () in
  let schema = Duodb.Database.schema db in
  List.iter
    (fun (name, example, alternative) ->
      let verdict =
        match Duosql.Parser.query ~schema example with
        | Error e -> Printf.sprintf "parse error (%s)" e
        | Ok q -> (
            match Duocore.Semantics.check_query schema q with
            | Error v -> "rejected: " ^ Duocore.Semantics.violation_to_string v
            | Ok () -> "NOT REJECTED (bug)")
      in
      let alt_verdict =
        if alternative = "N/A" then "n/a"
        else
          match Duosql.Parser.query ~schema alternative with
          | Error e -> Printf.sprintf "parse error (%s)" e
          | Ok q -> (
              match Duocore.Semantics.check_query schema q with
              | Ok () -> "accepted"
              | Error v -> "REJECTED (bug): " ^ Duocore.Semantics.violation_to_string v)
      in
      Format.fprintf ppf "%-32s  example %-28s alternative %s@." name verdict alt_verdict)
    Duocore.Semantics.catalogue

let count_diff tasks d =
  List.length
    (List.filter (fun t -> t.Spider_gen.sp_difficulty = d) tasks)

let table5 t ppf =
  header ppf "Table 5: datasets";
  Format.fprintf ppf "%-14s %4s %5s %5s %5s %6s %7s %8s %6s@." "Dataset" "DBs"
    "Easy" "Med" "Hard" "Total" "Tables" "Columns" "FK-PK";
  let mas = Mas.schema in
  Format.fprintf ppf "%-14s %4d %5s %5d %5d %6d %7d %8d %6d@." "MAS (studies)" 1
    "0"
    (List.length
       (List.filter (fun (x : Mas.task) -> x.Mas.task_level = Mas.Medium)
          (Mas.nli_study_tasks @ Mas.pbe_study_tasks)))
    (List.length
       (List.filter (fun (x : Mas.task) -> x.Mas.task_level = Mas.Hard)
          (Mas.nli_study_tasks @ Mas.pbe_study_tasks)))
    (List.length (Mas.nli_study_tasks @ Mas.pbe_study_tasks))
    (Duodb.Schema.num_tables mas) (Duodb.Schema.num_columns mas)
    (Duodb.Schema.num_foreign_keys mas);
  List.iter
    (fun split ->
      let split = Lazy.force split in
      let tb, cols, fk = Spider_gen.schema_stats split in
      Format.fprintf ppf "%-14s %4d %5d %5d %5d %6d %7.1f %8.1f %6.1f@."
        split.Spider_gen.split_name
        (List.length split.Spider_gen.databases)
        (count_diff split.Spider_gen.tasks `Easy)
        (count_diff split.Spider_gen.tasks `Medium)
        (count_diff split.Spider_gen.tasks `Hard)
        (List.length split.Spider_gen.tasks)
        tb cols fk)
    [ t.dev; t.test ]

let fig_success t ppf ~title study_lazy baseline_label =
  header ppf title;
  let study = Lazy.force study_lazy in
  ignore t;
  Format.fprintf ppf "%-6s %-10s %-9s %s@." "Task" "System" "%success" "";
  List.iter
    (fun arm ->
      let label =
        if arm.Study.arm_system = "baseline" then baseline_label else arm.Study.arm_system
      in
      let rate = 100.0 *. Study.success_rate arm in
      Format.fprintf ppf "%-6s %-10s %8.1f%% %a@." arm.Study.arm_task label rate bar rate)
    study.Study.arms

let fig_time t ppf ~title study_lazy baseline_label =
  header ppf title;
  let study = Lazy.force study_lazy in
  ignore t;
  Format.fprintf ppf "%-6s %-10s %-12s@." "Task" "System" "mean time(s)";
  List.iter
    (fun arm ->
      let label =
        if arm.Study.arm_system = "baseline" then baseline_label else arm.Study.arm_system
      in
      match Study.mean_success_time arm with
      | Some m -> Format.fprintf ppf "%-6s %-10s %10.1f  %a@." arm.Study.arm_task label m bar (m /. 3.0)
      | None -> Format.fprintf ppf "%-6s %-10s %10s@." arm.Study.arm_task label "(no successful trials)")
    study.Study.arms

let fig9 t ppf =
  header ppf "Figure 9: mean # examples per successful trial (PBE study)";
  let study = Lazy.force t.pbe_study in
  Format.fprintf ppf "%-6s %-10s %-10s@." "Task" "System" "mean #ex";
  List.iter
    (fun arm ->
      let label = if arm.Study.arm_system = "baseline" then "PBE" else arm.Study.arm_system in
      match Study.mean_examples arm with
      | Some m -> Format.fprintf ppf "%-6s %-10s %8.2f@." arm.Study.arm_task label m
      | None -> Format.fprintf ppf "%-6s %-10s %8s@." arm.Study.arm_task label "-")
    study.Study.arms

let pbe_counts results =
  let count st = List.length (List.filter (fun (_, s) -> s = st) results) in
  (count Simulation_.Pbe_correct, count Simulation_.Pbe_unsupported)

let fig10_split ppf name runs total =
  let dq = Lazy.force runs.r_dq and nli = Lazy.force runs.r_nli in
  let pbe = Lazy.force runs.r_pbe in
  let correct, unsupported = pbe_counts pbe in
  Format.fprintf ppf "@.%s (%d tasks)@." name total;
  Format.fprintf ppf "%-8s %10s %10s %10s %12s@." "System" "Top-1" "Top-10" "Correct" "Unsupported";
  let line sys results =
    let t1 = Simulation.top_k_count results 1 in
    let t10 = Simulation.top_k_count results 10 in
    Format.fprintf ppf "%-8s %4d/%4.1f%% %4d/%4.1f%% %10s %12s@." sys t1
      (pct t1 total) t10 (pct t10 total) "-" "-"
  in
  line "Duoquest" dq;
  line "NLI" nli;
  Format.fprintf ppf "%-8s %10s %10s %4d/%4.1f%% %5d/%4.1f%%@." "PBE" "-" "-" correct
    (pct correct total) unsupported (pct unsupported total)

let fig10 t ppf =
  header ppf "Figure 10: top-1/top-10 accuracy (simulation study)";
  fig10_split ppf "Spider-like Dev" t.dev_runs
    (List.length (Lazy.force t.dev).Spider_gen.tasks);
  fig10_split ppf "Spider-like Test" t.test_runs
    (List.length (Lazy.force t.test).Spider_gen.tasks)

let fig11_split ppf name runs split =
  Format.fprintf ppf "@.%s@." name;
  Format.fprintf ppf "%-8s | %14s | %14s | %14s@." "System" "Easy" "Medium" "Hard";
  let dq = Lazy.force runs.r_dq and nli = Lazy.force runs.r_nli in
  let pbe = Lazy.force runs.r_pbe in
  let diff_total d = count_diff split.Spider_gen.tasks d in
  let line sys results =
    Format.fprintf ppf "%-8s" sys;
    List.iter
      (fun d ->
        let sub = Simulation.by_difficulty results d in
        let ok = Simulation.top_k_count sub 10 in
        Format.fprintf ppf " | %4d (%5.1f%%)" ok (pct ok (diff_total d)))
      [ `Easy; `Medium; `Hard ];
    Format.fprintf ppf "@."
  in
  line "Duoquest" dq;
  line "NLI" nli;
  Format.fprintf ppf "%-8s" "PBE";
  List.iter
    (fun d ->
      let sub =
        List.filter (fun (task, _) -> task.Spider_gen.sp_difficulty = d) pbe
      in
      let ok = List.length (List.filter (fun (_, s) -> s = Simulation_.Pbe_correct) sub) in
      let unsup =
        List.length (List.filter (fun (_, s) -> s = Simulation_.Pbe_unsupported) sub)
      in
      Format.fprintf ppf " | %3d ok %3d un" ok unsup)
    [ `Easy; `Medium; `Hard ];
  Format.fprintf ppf "@."

let fig11 t ppf =
  header ppf "Figure 11: correctness by difficulty (top-10 for Dq/NLI)";
  fig11_split ppf "Spider-like Dev" t.dev_runs (Lazy.force t.dev);
  fig11_split ppf "Spider-like Test" t.test_runs (Lazy.force t.test)

let fig12_curve ppf label results =
  let buckets = [ 0.001; 0.002; 0.005; 0.01; 0.02; 0.05; 0.1; 0.2; 0.5; 1.0; 2.0; 3.0 ] in
  Format.fprintf ppf "%-9s" label;
  List.iter
    (fun b ->
      Format.fprintf ppf " %5.1f" (100.0 *. Simulation.completed_within results b))
    buckets;
  Format.fprintf ppf "@."

let fig12 t ppf =
  header ppf "Figure 12: % of tasks whose gold query was synthesized within t seconds";
  Format.fprintf ppf
    "(wall-clock, as on the paper's 60 s axis; the in-memory engine compresses the scale)@.";
  List.iter
    (fun (name, runs) ->
      Format.fprintf ppf "@.%s@." name;
      Format.fprintf ppf "%-9s" "t(s) =";
      List.iter
        (fun b -> Format.fprintf ppf " %5g" b)
        [ 0.001; 0.002; 0.005; 0.01; 0.02; 0.05; 0.1; 0.2; 0.5; 1.0; 2.0; 3.0 ];
      Format.fprintf ppf "@.";
      fig12_curve ppf "Duoquest" (Lazy.force runs.r_dq);
      fig12_curve ppf "NoPQ" (Lazy.force runs.r_nopq);
      fig12_curve ppf "NoGuide" (Lazy.force runs.r_noguide))
    [ ("Spider-like Dev", t.dev_runs); ("Spider-like Test", t.test_runs) ]

let table6_split ppf name runs total =
  Format.fprintf ppf "@.%s@." name;
  Format.fprintf ppf "%-9s %7s %7s %8s@." "Detail" "Top-1" "Top-10" "Top-100";
  let line label results =
    let v k = pct (Simulation.top_k_count results k) total in
    Format.fprintf ppf "%-9s %6.1f%% %6.1f%% %7.1f%%@." label (v 1) (v 10) (v 100)
  in
  line "Full" (Lazy.force runs.r_dq);
  line "Partial" (Lazy.force runs.r_dq_partial);
  line "Minimal" (Lazy.force runs.r_dq_minimal);
  line "NLI" (Lazy.force runs.r_nli)

let table6 t ppf =
  header ppf "Table 6: exact-match accuracy vs TSQ specification detail";
  table6_split ppf "Spider-like Dev" t.dev_runs
    (List.length (Lazy.force t.dev).Spider_gen.tasks);
  table6_split ppf "Spider-like Test" t.test_runs
    (List.length (Lazy.force t.test).Spider_gen.tasks)

let tasks_table ppf title tasks =
  header ppf title;
  let db = Mas.database () in
  List.iter
    (fun (task : Mas.task) ->
      let gold = Mas.gold task in
      let rows =
        match Duoengine.Executor.run db gold with
        | Ok res -> Duoengine.Executor.cardinality res
        | Error _ -> -1
      in
      Format.fprintf ppf "@.%s [%s] (%d result rows)@.  NLQ: %s@.  SQL: %s@."
        task.Mas.task_id
        (Mas.level_to_string task.Mas.task_level)
        rows task.Mas.task_nlq
        (Duosql.Pretty.query gold))
    tasks

let table7 _t ppf = tasks_table ppf "Table 7: user study tasks vs NLI" Mas.nli_study_tasks
let table8 _t ppf = tasks_table ppf "Table 8: user study tasks vs PBE" Mas.pbe_study_tasks

(* --- ablations beyond the paper's (design choices in DESIGN.md) --- *)

(* One row per cascade stage, named with what the stage costs. *)
let cascade_row = function
  | Duocore.Verify.S_static -> "pruned by static      (lint)"
  | S_clauses -> "pruned by clauses     (free)"
  | S_cardinality -> "pruned by cardinality (bound)"
  | S_semantics -> "pruned by semantics   (free)"
  | S_types -> "pruned by types     (schema)"
  | S_column -> "pruned by column     (probe)"
  | S_row -> "pruned by row        (query)"
  | S_complete -> "pruned at completion  (full)"

let ablation_cascade t ppf =
  header ppf "Ablation: verification-cascade stage attribution";
  Format.fprintf ppf
    "Prunes by stage over the dev split (cheap stages run first; the bulk@.\
     of pruning happening in the cheap stages is what makes the@.\
     ascending-cost order pay off):@.";
  let split = Lazy.force t.dev in
  let sample = List.filteri (fun i _ -> i mod 5 = 0) split.Spider_gen.tasks in
  let sessions = Hashtbl.create 16 in
  List.iter
    (fun (name, db) -> Hashtbl.replace sessions name (Duocore.Duoquest.create_session db))
    split.Spider_gen.databases;
  let totals = Duocore.Verify.new_stats () in
  let rng = Rng.create 555 in
  List.iter
    (fun (task : Spider_gen.task) ->
      let session = Hashtbl.find sessions task.Spider_gen.sp_db in
      let db = Duocore.Duoquest.session_db session in
      let tsq = Tsq_synth.synthesize rng db task.Spider_gen.sp_gold ~detail:Tsq_synth.Full in
      let outcome =
        Duocore.Duoquest.synthesize ~config:Simulation.sim_config ?tsq
          ~literals:task.Spider_gen.sp_literals session ~nlq:task.Spider_gen.sp_nlq ()
      in
      Duocore.Verify.merge_stats ~into:totals outcome.Enumerate.out_stats)
    sample;
  Format.fprintf ppf "tasks sampled: %d@." (List.length sample);
  List.iter
    (fun stage ->
      let label = cascade_row stage in
      (* Numbers right-aligned at one column, whatever the label width. *)
      Format.fprintf ppf "%s: %*d@." label (36 - String.length label)
        (Duocore.Verify.pruned_by totals stage))
    Duocore.Verify.all_stages;
  Format.fprintf ppf "column probes: %d, row probes: %d, full executions: %d@."
    totals.Duocore.Verify.column_probes totals.Duocore.Verify.row_probes
    totals.Duocore.Verify.full_executions;
  Format.fprintf ppf "static warnings (deprioritized, never pruned): %d@."
    totals.Duocore.Verify.static_warnings

let ablation_joins t ppf =
  header ppf "Ablation: Steiner-only vs progressive join paths";
  let split = Lazy.force t.dev in
  let needs_extension (task : Spider_gen.task) =
    let db = List.assoc task.Spider_gen.sp_db split.Spider_gen.databases in
    let schema = Duodb.Database.schema db in
    let gold = task.Spider_gen.sp_gold in
    let referenced = Duosql.Ast.referenced_tables gold in
    match Duocore.Steiner.tree schema referenced with
    | None -> true
    | Some tr ->
        let steiner = List.sort String.compare tr.Duocore.Steiner.tr_tables in
        let gold_tables =
          List.sort String.compare gold.Duosql.Ast.q_from.Duosql.Ast.f_tables
        in
        steiner <> gold_tables
  in
  let n = List.length split.Spider_gen.tasks in
  let ext = List.length (List.filter needs_extension split.Spider_gen.tasks) in
  Format.fprintf ppf
    "%d/%d dev tasks (%.1f%%) have a gold FROM clause beyond the Steiner tree@.\
     of their referenced tables; only progressive construction (Algorithm 2,@.\
     lines 10-12) can reach them.@."
    ext n (pct ext n)

let ablation_semantics t ppf =
  header ppf "Ablation: Table 4 semantic rules on/off";
  let split = Lazy.force t.dev in
  let sample = List.filteri (fun i _ -> i mod 10 = 0) split.Spider_gen.tasks in
  let sessions = Hashtbl.create 16 in
  List.iter
    (fun (name, db) -> Hashtbl.replace sessions name (Duocore.Duoquest.create_session db))
    split.Spider_gen.databases;
  let run semantic_rules =
    let rng = Rng.create 777 in
    let config = { Simulation.sim_config with Enumerate.semantic_rules } in
    List.filter_map
      (fun (task : Spider_gen.task) ->
        let session = Hashtbl.find sessions task.Spider_gen.sp_db in
        let db = Duocore.Duoquest.session_db session in
        let tsq = Tsq_synth.synthesize rng db task.Spider_gen.sp_gold ~detail:Tsq_synth.Full in
        let outcome =
          Duocore.Duoquest.synthesize ~config ?tsq
            ~literals:task.Spider_gen.sp_literals session ~nlq:task.Spider_gen.sp_nlq ()
        in
        Duocore.Duoquest.rank_of outcome ~gold:task.Spider_gen.sp_gold)
      sample
  in
  let with_rules = run true and without = run false in
  let top1 rs = List.length (List.filter (fun r -> r = 1) rs) in
  let n = List.length sample in
  Format.fprintf ppf "tasks sampled: %d@." n;
  Format.fprintf ppf "with rules:    top-1 %d (%.1f%%), found %d@." (top1 with_rules)
    (pct (top1 with_rules) n) (List.length with_rules);
  Format.fprintf ppf "without rules: top-1 %d (%.1f%%), found %d@." (top1 without)
    (pct (top1 without) n) (List.length without)

(* --- registry --- *)

let experiments =
  [
    ("table1", "capability matrix", table1);
    ("table4", "semantic pruning rules", table4);
    ("table5", "dataset statistics", table5);
    ( "fig5",
      "% successful trials, user study vs NLI",
      fun t ppf ->
        fig_success t ppf ~title:"Figure 5: % successful trials (NLI study)" t.nli_study "NLI" );
    ( "fig6",
      "mean trial time, user study vs NLI",
      fun t ppf ->
        fig_time t ppf ~title:"Figure 6: mean time per successful trial (NLI study)" t.nli_study "NLI" );
    ( "fig7",
      "% successful trials, user study vs PBE",
      fun t ppf ->
        fig_success t ppf ~title:"Figure 7: % successful trials (PBE study)" t.pbe_study "PBE" );
    ( "fig8",
      "mean trial time, user study vs PBE",
      fun t ppf ->
        fig_time t ppf ~title:"Figure 8: mean time per successful trial (PBE study)" t.pbe_study "PBE" );
    ("fig9", "mean #examples, user study vs PBE", fig9);
    ("fig10", "top-1/top-10 accuracy, simulation study", fig10);
    ("fig11", "accuracy by difficulty", fig11);
    ("fig12", "time-to-synthesis distributions (GPQE ablations)", fig12);
    ("table6", "accuracy vs TSQ detail", table6);
    ("table7", "NLI study task suite", table7);
    ("table8", "PBE study task suite", table8);
    ("ablation-cascade", "verification cascade attribution", ablation_cascade);
    ("ablation-joins", "join path construction ablation", ablation_joins);
    ("ablation-semantics", "semantic rules ablation", ablation_semantics);
  ]

let all_ids = List.map (fun (id, _, _) -> id) experiments

let describe id =
  List.find_map
    (fun (id', d, _) -> if String.equal id id' then Some d else None)
    experiments

let run t ppf id =
  match List.find_opt (fun (id', _, _) -> String.equal id id') experiments with
  | None -> Error (Printf.sprintf "unknown experiment %S" id)
  | Some (_, _, f) ->
      f t ppf;
      Ok ()
