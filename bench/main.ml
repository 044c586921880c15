(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation section (part 1), then times the core operations behind each
   experiment with Bechamel microbenchmarks (part 2).

   Scale control: DUOQUEST_BENCH_SCALE=quick runs small generated splits for
   smoke testing; the default regenerates the full paper-sized splits.

   Flags: --micro-only skips part 1; --json PATH additionally writes the
   microbenchmark estimates and the profiles below as JSON. *)

open Bechamel

let scale () =
  match Sys.getenv_opt "DUOQUEST_BENCH_SCALE" with
  | Some ("quick" | "QUICK") -> `Quick
  | Some _ | None -> `Full

(* --- part 1: paper tables and figures --- *)

let run_experiments () =
  (* DUOQUEST_DOMAINS > 1 shards workload generation and the simulation
     runs over one shared pool; artifacts are identical to the sequential
     run. *)
  let domains =
    Duocore.Enumerate.effective_domains
      { Duocore.Enumerate.default_config with
        Duocore.Enumerate.domains = Duocore.Enumerate.domains_from_env () }
  in
  let pool = if domains > 1 then Some (Duopar.Pool.create ~domains) else None in
  Fun.protect
    ~finally:(fun () -> Option.iter Duopar.Pool.shutdown pool)
    (fun () ->
      let t = Duobench.Experiments.create ~scale:(scale ()) ?pool () in
      let ppf = Format.std_formatter in
      Format.fprintf ppf
        "Duoquest reproduction: regenerating all paper artifacts (scale=%s, domains=%d)@."
        (match scale () with `Quick -> "quick" | `Full -> "full")
        domains;
      Duobench.Experiments.run_all t ppf;
      Format.pp_print_flush ppf ())

(* --- part 2: Bechamel microbenchmarks, one per table/figure --- *)

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

let synth_movie mode tsq () =
  ignore
    (Duocore.Duoquest.synthesize ~config:micro_config ~mode ?tsq
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
    (* table1: capability matrix rendering *)
    Test.make ~name:"table1/capability-matrix"
      (Staged.stage (fun () -> ignore (Duocore.Capability.to_string ())));
    (* table4: semantic rule checking over the catalogue *)
    Test.make ~name:"table4/semantic-rules"
      (Staged.stage (fun () ->
           let schema = Duobench.Movies.schema in
           List.iter
             (fun (_, example, _) ->
               match Duosql.Parser.query ~schema example with
               | Ok q -> ignore (Duocore.Semantics.check_query schema q)
               | Error _ -> ())
             Duocore.Semantics.catalogue));
    (* table5: dataset construction *)
    Test.make ~name:"table5/mas-database-build"
      (Staged.stage (fun () -> ignore (Duobench.Mas.database ())));
    (* fig5/fig6: one Duoquest study synthesis on MAS task A1 *)
    Test.make ~name:"fig5-6/duoquest-on-mas-A1"
      (Staged.stage (fun () ->
           ignore
             (Duocore.Duoquest.synthesize ~config:micro_config
                ~literals:mas_task_a1.Duobench.Mas.task_literals
                (Lazy.force mas_session)
                ~nlq:mas_task_a1.Duobench.Mas.task_nlq ())));
    (* fig7-9: one SQuID-style discovery round *)
    Test.make ~name:"fig7-9/pbe-discovery"
      (Staged.stage (fun () ->
           let db = Lazy.force mas_db in
           let gold = Duobench.Mas.gold (List.hd Duobench.Mas.pbe_study_tasks) in
           let rng = Duobench.Rng.create 5 in
           match Duobench.Tsq_synth.user_tuples rng db gold ~n:2 with
           | Some tuples -> ignore (Duopbe.Squid.discover db tuples)
           | None -> ()));
    (* fig10/fig11: dual-specification synthesis (the simulation's unit) *)
    Test.make ~name:"fig10-11/duoquest-dual-spec"
      (Staged.stage (synth_movie `Duoquest (Some fig2_tsq)));
    (* fig12: the two ablations' unit operations *)
    Test.make ~name:"fig12/nopq-chaining"
      (Staged.stage (synth_movie `No_pq (Some fig2_tsq)));
    Test.make ~name:"fig12/noguide-bfs"
      (Staged.stage (synth_movie `No_guide (Some fig2_tsq)));
    (* table6: TSQ synthesis itself *)
    Test.make ~name:"table6/tsq-synthesis"
      (Staged.stage (fun () ->
           let db = Lazy.force mas_db in
           let rng = Duobench.Rng.create 17 in
           ignore
             (Duobench.Tsq_synth.synthesize rng db
                (Duobench.Mas.gold mas_task_a1)
                ~detail:Duobench.Tsq_synth.Full)));
    (* table7/table8: gold task execution on MAS *)
    Test.make ~name:"table7-8/gold-task-execution"
      (Staged.stage (fun () ->
           let db = Lazy.force mas_db in
           List.iter
             (fun task ->
               ignore (Duoengine.Executor.run db (Duobench.Mas.gold task)))
             (Duobench.Mas.nli_study_tasks @ Duobench.Mas.pbe_study_tasks)));
  ]
  @ executor_bench_tests ()
  @ duodb_bench_tests ()

let run_microbench () =
  print_newline ();
  print_endline "=== Bechamel microbenchmarks (one per paper artifact) ===";
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
   (each with a synthesized full-detail TSQ), accumulated into per-stage
   totals so the JSON records where cascade time goes and what each stage
   prunes — including Duolint's stage 0. *)
let stage_profile () =
  let db = Lazy.force mas_db in
  let session = Lazy.force mas_session in
  let n_stages = List.length Duocore.Verify.all_stages in
  let seconds = Array.make n_stages 0.0 in
  let pruned = Array.make n_stages 0 in
  let static_warnings = ref 0 in
  let dedup_semantic = ref 0 in
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
      let st = outcome.Duocore.Enumerate.out_stats in
      static_warnings := !static_warnings + st.Duocore.Verify.static_warnings;
      dedup_semantic := !dedup_semantic + st.Duocore.Verify.dedup_semantic;
      List.iter
        (fun stage ->
          let i = Duocore.Verify.stage_index stage in
          seconds.(i) <- seconds.(i) +. st.Duocore.Verify.stage_seconds.(i);
          pruned.(i) <- pruned.(i) + Duocore.Verify.pruned_by st stage)
        Duocore.Verify.all_stages)
    Duobench.Mas.nli_study_tasks;
  (seconds, pruned, !static_warnings, !dedup_semantic)

let json_escape s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (function
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | c when Char.code c < 0x20 -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let write_json path estimates =
  let oc = open_out path in
  let out fmt = Printf.fprintf oc fmt in
  out "{\n";
  out "  \"unit\": \"ns/run (Bechamel OLS estimate)\",\n";
  out "  \"scale\": \"%s\",\n"
    (match scale () with `Quick -> "quick" | `Full -> "full");
  out "  \"benchmarks\": [\n";
  List.iteri
    (fun i (name, ns) ->
      out "    {\"name\": \"%s\", \"ns_per_run\": %.1f}%s\n" (json_escape name)
        ns
        (if i = List.length estimates - 1 then "" else ","))
    estimates;
  out "  ],\n";
  let (tdef, tbl, _), _ = Lazy.force duodb_targets in
  out "  \"duodb\": {\n";
  out "    \"table\": \"%s\",\n" (json_escape tdef.Duodb.Schema.tbl_name);
  out "    \"rows\": %d" (Duodb.Table.row_count tbl);
  (match
     ( List.assoc_opt "duodb/scan-range/kernel" estimates,
       List.assoc_opt "duodb/scan-range/scalar" estimates )
   with
  | Some kernel_ns, Some scalar_ns when kernel_ns > 0. ->
      out
        ",\n    \"scan_range\": {\"kernel_ns\": %.1f, \"scalar_ns\": %.1f, \
         \"speedup\": %.2f}"
        kernel_ns scalar_ns (scalar_ns /. kernel_ns)
  | Some _, Some _ | Some _, None | None, Some _ | None, None -> ());
  out "\n  },\n";
  let seconds, pruned, static_warnings, dedup_semantic = stage_profile () in
  out "  \"verify_stages\": [\n";
  let n_stages = List.length Duocore.Verify.all_stages in
  List.iteri
    (fun i stage ->
      let idx = Duocore.Verify.stage_index stage in
      let s = seconds.(idx) and p = pruned.(idx) in
      out
        "    {\"stage\": \"%s\", \"seconds\": %.6f, \"pruned\": %d, \
         \"seconds_per_prune\": %s}%s\n"
        (Duocore.Verify.stage_name stage)
        s p
        (if p = 0 then "null" else Printf.sprintf "%.9f" (s /. float_of_int p))
        (if i = n_stages - 1 then "" else ","))
    Duocore.Verify.all_stages;
  out "  ],\n";
  (* Duosem activity across the stage-profile runs: states and
     candidates collapsed by canonical-key dedup, and states pruned by
     the abstract cardinality bound. *)
  out
    "  \"duosem\": {\"dedup_semantic\": %d, \"pruned_by_cardinality\": %d},\n"
    dedup_semantic
    (pruned.(Duocore.Verify.stage_index Duocore.Verify.S_cardinality));
  out "  \"pruned_by_static\": %d,\n"
    (pruned.(Duocore.Verify.stage_index Duocore.Verify.S_static));
  out "  \"static_warnings\": %d\n" static_warnings;
  out "}\n";
  close_out oc;
  Printf.printf "wrote %s\n%!" path

let () =
  let micro_only = ref false and json_path = ref None in
  let rec parse_args = function
    | [] -> ()
    | "--micro-only" :: rest -> micro_only := true; parse_args rest
    | "--json" :: path :: rest -> json_path := Some path; parse_args rest
    | arg :: _ ->
        Printf.eprintf "unknown argument %s (expected --micro-only, --json PATH)\n" arg;
        exit 2
  in
  parse_args (List.tl (Array.to_list Sys.argv));
  if not !micro_only then run_experiments ();
  let estimates = run_microbench () in
  Option.iter (fun path -> write_json path estimates) !json_path
