(* Bechamel microbenchmarks of the operations no perfbench workload
   times: Duodb's scan kernels against a scalar scan, executor runs of
   MAS gold queries, a SQuID discovery round, TSQ synthesis and the two
   Fig. 12 ablations' synthesis unit.  The paper's tables and figures
   come from bin/duoquest_bench; regressions are told from noise by
   perfbench/.

   Flags: --json PATH additionally writes the estimates and the cascade
   stage profile below as JSON. *)

open Bechamel

let movie_session = lazy (Duocore.Duoquest.create_session (Duobench.Movies.database ()))
let mas_db = lazy (Duobench.Mas.database ())
let mas_session = lazy (Duocore.Duoquest.create_session (Lazy.force mas_db))

let micro_config =
  { Duocore.Enumerate.default_config with
    Duocore.Enumerate.max_pops = 3_000;
    max_candidates = 10;
    time_budget_s = 0.5 }

(* The cascade profile digs deeper than the microbenchmarks: the later
   stages (Duosem's cardinality bound, the probe stages) only see real
   traffic a few thousand pops in, and the run must be pop-bounded, not
   time-bounded, so the promoted JSON counters are machine-independent. *)
let profile_config =
  { micro_config with
    Duocore.Enumerate.max_pops = 12_000;
    max_candidates = 40;
    time_budget_s = 30.0 }

let fig2_tsq =
  Duocore.Tsq.make ~types:[ Duodb.Datatype.Text ]
    ~tuples:[ [ Duocore.Tsq.Exact (Duodb.Value.Text "Forrest Gump") ] ]
    ()

let synth_movie mode () =
  ignore
    (Duocore.Duoquest.synthesize ~config:micro_config ~mode ~tsq:fig2_tsq
       ~literals:[ Duodb.Value.Int 1995 ]
       (Lazy.force movie_session)
       ~nlq:"Find all movies from before 1995" ())

let mas_task_a1 = List.hd Duobench.Mas.nli_study_tasks

(* Executor runs of MAS gold queries: A1 is a two-table join, B1 a
   three-table join and B4 a four-table join with grouping — each with a
   selective equality WHERE predicate, the shape of the GPQE verification
   hot path. *)
let executor_bench_tests () =
  let db = Lazy.force mas_db in
  let all_tasks = Duobench.Mas.nli_study_tasks @ Duobench.Mas.pbe_study_tasks in
  List.map
    (fun id ->
      let task = List.find (fun t -> t.Duobench.Mas.task_id = id) all_tasks in
      let q = Duobench.Mas.gold task in
      Test.make ~name:(Printf.sprintf "executor/%s" id)
        (Staged.stage (fun () -> ignore (Duoengine.Executor.run_exn db q))))
    [ "A1"; "B1"; "B4" ]

(* --- Duodb columnar kernels: scan/probe microbenchmarks on the largest
   MAS table --- *)

(* The largest MAS table with a numeric column carrying data, and —
   independently, since the biggest tables are all-numeric link tables —
   the largest table with a text column carrying data. *)
let duodb_targets =
  lazy
    (let db = Lazy.force mas_db in
     let schema = Duodb.Database.schema db in
     let rows_of (t : Duodb.Schema.table) =
       Duodb.Table.row_count (Duodb.Database.table_exn db t.Duodb.Schema.tbl_name)
     in
     let by_rows =
       List.sort (fun a b -> compare (rows_of b) (rows_of a)) schema.Duodb.Schema.tables
     in
     let pick (tdef : Duodb.Schema.table) ty =
       let tbl = Duodb.Database.table_exn db tdef.Duodb.Schema.tbl_name in
       List.find_opt
         (fun (c : Duodb.Schema.column) ->
           Duodb.Datatype.equal c.Duodb.Schema.col_type ty
           && Option.is_some (Duodb.Table.column_range tbl c.Duodb.Schema.col_name))
         tdef.Duodb.Schema.tbl_columns
     in
     let target ty =
       List.find_map
         (fun tdef ->
           Option.map
             (fun c ->
               (tdef, Duodb.Database.table_exn db tdef.Duodb.Schema.tbl_name, c))
             (pick tdef ty))
         by_rows
     in
     (Option.get (target Duodb.Datatype.Number), target Duodb.Datatype.Text))

let distinct_non_null tbl (c : Duodb.Schema.column) =
  List.sort_uniq Duodb.Value.compare
    (List.filter
       (fun v -> not (Duodb.Value.is_null v))
       (Array.to_list (Duodb.Table.column_array tbl c.Duodb.Schema.col_name)))

(* A selective range: bottom decile of the column's distinct values, the
   shape of a verification probe's equality/range predicate (and one a
   zone map can actually skip blocks for). *)
let low_decile vals =
  let arr = Array.of_list vals in
  arr.(Array.length arr / 10)

(* Vectorized kernels against a scalar row-at-a-time scan of the same
   predicate, so the JSON records what the columnar layout buys.  The
   scalar side collects matching row indices exactly like the
   pre-columnar executor's filter did. *)
let duodb_bench_tests () =
  let (_, tbl, nc), txt = Lazy.force duodb_targets in
  let open Duosql.Ast in
  let ncr = col nc.Duodb.Schema.col_table nc.Duodb.Schema.col_name in
  let j = Duodb.Table.column_index tbl nc.Duodb.Schema.col_name in
  let lo =
    match Duodb.Table.column_range tbl nc.Duodb.Schema.col_name with
    | Some (lo, _) -> lo
    | None -> assert false
  in
  let hi = low_decile (distinct_non_null tbl nc) in
  let range_cond = { c_preds = [ between ncr lo hi ]; c_conn = And } in
  let scalar_range () =
    let acc = ref [] in
    let rows = Duodb.Table.rows tbl in
    Array.iteri
      (fun i row ->
        let v = row.(j) in
        if
          (not (Duodb.Value.is_null v))
          && Duodb.Value.compare lo v <= 0
          && Duodb.Value.compare v hi <= 0
        then acc := i :: !acc)
      rows;
    !acc
  in
  [
    Test.make ~name:"duodb/scan-range/kernel"
      (Staged.stage (fun () -> ignore (Duoengine.Kernel.select tbl range_cond)));
    Test.make ~name:"duodb/scan-range/scalar"
      (Staged.stage (fun () -> ignore (scalar_range ())));
  ]
  @
  match txt with
  | None -> []
  | Some (_, ttbl, tc) ->
      let k = Duodb.Table.column_index ttbl tc.Duodb.Schema.col_name in
      let probe_vals =
        List.filteri
          (fun i (_ : Duodb.Value.t) -> i < 8)
          (distinct_non_null ttbl tc)
      in
      let tcr = col tc.Duodb.Schema.col_table tc.Duodb.Schema.col_name in
      let eq_cond =
        { c_preds = [ pred tcr Eq (List.hd probe_vals) ]; c_conn = And }
      in
      let kj = Duodb.Table.column_index ttbl tc.Duodb.Schema.col_name in
      let scalar_eq () =
        let v0 = List.hd probe_vals in
        let acc = ref [] in
        Array.iteri
          (fun i row -> if Duodb.Value.equal row.(kj) v0 then acc := i :: !acc)
          (Duodb.Table.rows ttbl);
        !acc
      in
      [
        Test.make ~name:"duodb/scan-txt-eq/kernel"
          (Staged.stage (fun () -> ignore (Duoengine.Kernel.select ttbl eq_cond)));
        Test.make ~name:"duodb/scan-txt-eq/scalar"
          (Staged.stage (fun () -> ignore (scalar_eq ())));
        Test.make ~name:"duodb/probe-exists/kernel"
          (Staged.stage (fun () ->
               ignore (Duoengine.Kernel.probe_exists ttbl ~col:k probe_vals)));
      ]

let bench_tests () =
  [
    (* fig7-9: one SQuID-style discovery round *)
    Test.make ~name:"fig7-9/pbe-discovery"
      (Staged.stage (fun () ->
           let db = Lazy.force mas_db in
           let gold = Duobench.Mas.gold (List.hd Duobench.Mas.pbe_study_tasks) in
           let rng = Duobench.Rng.create 5 in
           match Duobench.Tsq_synth.user_tuples rng db gold ~n:2 with
           | Some tuples -> ignore (Duopbe.Squid.discover db tuples)
           | None -> ()));
    (* fig12: the two ablations' unit operations *)
    Test.make ~name:"fig12/nopq-chaining"
      (Staged.stage (synth_movie `No_pq));
    Test.make ~name:"fig12/noguide-bfs"
      (Staged.stage (synth_movie `No_guide));
    (* table6: TSQ synthesis itself *)
    Test.make ~name:"table6/tsq-synthesis"
      (Staged.stage (fun () ->
           let db = Lazy.force mas_db in
           let rng = Duobench.Rng.create 17 in
           ignore
             (Duobench.Tsq_synth.synthesize rng db
                (Duobench.Mas.gold mas_task_a1)
                ~detail:Duobench.Tsq_synth.Full)));
  ]
  @ executor_bench_tests ()
  @ duodb_bench_tests ()

let run_microbench () =
  print_endline "=== Bechamel microbenchmarks ===";
  let cfg =
    Benchmark.cfg ~limit:200 ~quota:(Time.second 0.5) ~kde:(Some 100) ()
  in
  let instance = Toolkit.Instance.monotonic_clock in
  let tests = bench_tests () in
  let estimates = ref [] in
  List.iter
    (fun test ->
      let results = Benchmark.all cfg [ instance ] test in
      let ols =
        Analyze.all
          (Analyze.ols ~bootstrap:0 ~r_square:false
             ~predictors:[| Measure.run |])
          instance results
      in
      Hashtbl.iter
        (fun name result ->
          match Analyze.OLS.estimates result with
          | Some [ est ] ->
              estimates := (name, est) :: !estimates;
              Printf.printf "%-36s %12.1f ns/run\n%!" name est
          | _ -> Printf.printf "%-36s (no estimate)\n%!" name)
        ols)
    tests;
  List.rev !estimates

(* Cascade stage profile: guided MAS synthesis over the NLI study tasks
   (each with a synthesized full-detail TSQ), the runs' stats summed so
   the JSON records where cascade time goes and what each stage prunes —
   including Duolint's stage 0. *)
let stage_profile () =
  let db = Lazy.force mas_db in
  let session = Lazy.force mas_session in
  let totals = Duocore.Verify.new_stats () in
  List.iter
    (fun task ->
      let rng = Duobench.Rng.create 29 in
      let tsq =
        Duobench.Tsq_synth.synthesize rng db (Duobench.Mas.gold task)
          ~detail:Duobench.Tsq_synth.Full
      in
      let outcome =
        Duocore.Duoquest.synthesize ~config:profile_config ?tsq
          ~literals:task.Duobench.Mas.task_literals session
          ~nlq:task.Duobench.Mas.task_nlq ()
      in
      Duocore.Verify.merge_stats ~into:totals outcome.Duocore.Enumerate.out_stats)
    Duobench.Mas.nli_study_tasks;
  totals

let write_json path estimates =
  let open Duoserve.Json in
  let int n = Num (float_of_int n) in
  let (tdef, tbl, _), _ = Lazy.force duodb_targets in
  let scan_range =
    match
      ( List.assoc_opt "duodb/scan-range/kernel" estimates,
        List.assoc_opt "duodb/scan-range/scalar" estimates )
    with
    | Some kernel_ns, Some scalar_ns when kernel_ns > 0. ->
        [ ( "scan_range",
            Obj
              [ ("kernel_ns", Num kernel_ns); ("scalar_ns", Num scalar_ns);
                ("speedup", Num (scalar_ns /. kernel_ns)) ] ) ]
    | Some _, Some _ | Some _, None | None, Some _ | None, None -> []
  in
  let totals = stage_profile () in
  let stage st =
    let s = totals.Duocore.Verify.stage_seconds.(Duocore.Verify.stage_index st)
    and p = Duocore.Verify.pruned_by totals st in
    Obj
      [ ("stage", Str (Duocore.Verify.stage_name st)); ("seconds", Num s);
        ("pruned", int p);
        ("seconds_per_prune", if p = 0 then Null else Num (s /. float_of_int p)) ]
  in
  let doc =
    Obj
      [ ("unit", Str "ns/run (Bechamel OLS estimate)");
        ( "benchmarks",
          List
            (List.map
               (fun (name, ns) -> Obj [ ("name", Str name); ("ns_per_run", Num ns) ])
               estimates) );
        ( "duodb",
          Obj
            ([ ("table", Str tdef.Duodb.Schema.tbl_name);
               ("rows", int (Duodb.Table.row_count tbl)) ]
            @ scan_range) );
        ("verify_stages", List (List.map stage Duocore.Verify.all_stages));
        (* Duosem's canonical-key dedup and Duolint's warnings across the
           stage-profile runs; the stages' prunes are in the rows above. *)
        ("dedup_semantic", int totals.Duocore.Verify.dedup_semantic);
        ("static_warnings", int totals.Duocore.Verify.static_warnings) ]
  in
  let oc = open_out path in
  output_string oc (to_string doc ^ "\n");
  close_out oc;
  Printf.printf "wrote %s\n%!" path

let () =
  let json_path =
    match List.tl (Array.to_list Sys.argv) with
    | [] -> None
    | [ "--json"; path ] -> Some path
    | _ ->
        prerr_endline "usage: main.exe [--json PATH]";
        exit 2
  in
  let estimates = run_microbench () in
  Option.iter (fun path -> write_json path estimates) json_path
