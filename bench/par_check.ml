(* par_check: fast Duopar v2 determinism + allocation gate (@bench-par).

   Runs a pop-bounded MAS workload under every controller regime —
   sequential, adaptive, adversarial [spec_schedule], floor-1 schedule —
   all with [overcommit] so speculation runs even on a single-core CI
   host, and fails if any configuration's candidate list diverges from
   the sequential run (the Duopar determinism contract).
   A refinement sweep (warm [rebase] mid-run) covers the serve path's
   controller inheritance the same way.

   Allocation gate: per-round heap growth is measured from [Gc.stat]
   deltas against the sequential run.  Floor-1 rounds (a pinned
   [spec_schedule] of 1) isolate the round *machinery* — every staged
   state is the state about to be popped, so expansion work cancels
   against the sequential baseline exactly — and the gate holds them to
   a fixed per-round byte ceiling.  Pop bounds make the work
   deterministic, so the gate is stable enough for @check. *)

module Enumerate = Duocore.Enumerate

let die fmt =
  Printf.ksprintf (fun m -> prerr_endline ("par_check: " ^ m); exit 1) fmt

let mas_db = lazy (Duobench.Mas.database ())
let mas_session = lazy (Duocore.Duoquest.create_session (Lazy.force mas_db))

let tasks =
  lazy
    (List.filter
       (fun t ->
         String.length t.Duobench.Mas.task_id > 0
         && t.Duobench.Mas.task_id.[0] = 'B')
       Duobench.Mas.nli_study_tasks)

let base_config =
  { Enumerate.default_config with
    Enumerate.max_pops = 600;
    max_candidates = 10;
    time_budget_s = 30.0;
    overcommit = true }

let run_workload config pool =
  let db = Lazy.force mas_db in
  let session = Lazy.force mas_session in
  List.map
    (fun task ->
      let rng = Duobench.Rng.create 29 in
      let tsq =
        Duobench.Tsq_synth.synthesize rng db (Duobench.Mas.gold task)
          ~detail:Duobench.Tsq_synth.Full
      in
      Duocore.Duoquest.synthesize ~config ?tsq ?pool
        ~literals:task.Duobench.Mas.task_literals session
        ~nlq:task.Duobench.Mas.task_nlq ())
    (Lazy.force tasks)

(* Refinement sweep: start each task under a loosened sketch, step
   partway, tighten to the full sketch (a warm [rebase], which drops the
   speculation memo), and finish — the lifecycle a Duoserve refine
   drives, where the controller state carries across slices. *)
let loosen (tsq : Duocore.Tsq.t) =
  let tuples =
    match tsq.Duocore.Tsq.tuples with [] -> [] | t :: _ -> [ t ]
  in
  { tsq with
    Duocore.Tsq.tuples;
    sorted = false;
    negatives = [];
    min_support = None }

let run_refine_workload config pool =
  let db = Lazy.force mas_db in
  let session = Lazy.force mas_session in
  List.map
    (fun task ->
      let rng = Duobench.Rng.create 29 in
      let tsq =
        Duobench.Tsq_synth.synthesize rng db (Duobench.Mas.gold task)
          ~detail:Duobench.Tsq_synth.Full
      in
      match tsq with
      | None ->
          Duocore.Duoquest.synthesize ~config ?pool
            ~literals:task.Duobench.Mas.task_literals session
            ~nlq:task.Duobench.Mas.task_nlq ()
      | Some full ->
          let state =
            Duocore.Duoquest.prepare ~config ~tsq:(loosen full)
              ~literals:task.Duobench.Mas.task_literals ?pool session
              ~nlq:task.Duobench.Mas.task_nlq ()
          in
          ignore (Enumerate.step ~max_pops:200 state);
          Enumerate.rebase state ~tsq:full;
          ignore (Enumerate.step state);
          let o = Enumerate.outcome state in
          Enumerate.release state;
          o)
    (Lazy.force tasks)

let digest outcomes =
  Digest.to_hex
    (Digest.string
       (String.concat "\n"
          (List.concat_map
             (fun o ->
               List.map
                 (fun c -> Duosql.Pretty.query c.Enumerate.cand_query)
                 o.Enumerate.out_candidates)
             outcomes)))

let heap_bytes () =
  let st = Gc.stat () in
  8.0 *. (st.Gc.minor_words +. st.Gc.major_words -. st.Gc.promoted_words)

(* Run [config] against a fresh pool (when [domains > 1]) and return
   (outcomes, heap bytes allocated).  [Gc.stat] aggregates across live
   domains, so the reading happens before the pool shuts down. *)
let measure workload config =
  let domains = config.Enumerate.domains in
  let pool =
    if domains > 1 then Some (Duopar.Pool.create ~domains) else None
  in
  Fun.protect
    ~finally:(fun () -> Option.iter Duopar.Pool.shutdown pool)
    (fun () ->
      let b0 = heap_bytes () in
      let outcomes = workload config pool in
      let b1 = heap_bytes () in
      (outcomes, b1 -. b0))

let spec_sums outcomes =
  List.fold_left
    (fun (r, t, h) o ->
      ( r + o.Enumerate.out_spec_rounds,
        t + o.Enumerate.out_spec_tasks,
        h + o.Enumerate.out_spec_hits ))
    (0, 0, 0) outcomes

let commit_rate outcomes =
  let _, tasks, hits = spec_sums outcomes in
  if tasks = 0 then 1.0 else float_of_int hits /. float_of_int tasks

(* The round machinery may allocate at most this much per round in
   steady state (about 25x the ~80 bytes observed). *)
let machinery_ceiling = 2_000.0

let () =
  let domains = 4 in
  (* Warm the lazies (database build, TSQ synthesis tables) outside any
     measured region. *)
  ignore (run_workload { base_config with Enumerate.domains = 1 } None);
  let seq, seq_bytes =
    measure run_workload { base_config with Enumerate.domains = 1 }
  in
  let seq_hash = digest seq in
  (* An adversarial controller schedule: round sizes thrash between the
     floor and far past the ceiling (begin_round clamps), exercising the
     sequential-degenerate rounds and the arena's capacity bound. *)
  let adversarial i =
    match i mod 4 with 0 -> 1 | 1 -> 1024 | 2 -> 3 | _ -> 7
  in
  let regimes =
    [
      ("adaptive", { base_config with Enumerate.domains });
      ( "adversarial",
        { base_config with
          Enumerate.domains;
          spec_schedule = Some adversarial } );
      ( "floor1",
        { base_config with Enumerate.domains; spec_schedule = Some (fun _ -> 1) } );
    ]
  in
  let results =
    List.map
      (fun (name, config) ->
        let outcomes, bytes = measure run_workload config in
        let h = digest outcomes in
        if not (String.equal h seq_hash) then
          die "%s candidates diverge from sequential (%s vs %s)" name h
            seq_hash;
        let rounds, _, _ = spec_sums outcomes in
        if rounds = 0 then die "%s ran no speculative rounds" name;
        let per_round =
          Float.max 0.0 (bytes -. seq_bytes) /. float_of_int rounds
        in
        Printf.printf
          "par_check: %-15s rounds=%-5d bytes/round=%-8.0f commit=%.3f\n%!"
          name rounds per_round (commit_rate outcomes);
        (name, per_round))
      regimes
  in
  let machinery = List.assoc "floor1" results in
  if machinery > machinery_ceiling then
    die "round machinery allocates %.0f bytes/round (ceiling %.0f)"
      machinery machinery_ceiling;
  (* Refinement sweep: warm rebases with the controller running must
     stay bit-identical to the sequential refine path. *)
  let refine_seq, _ =
    measure run_refine_workload { base_config with Enumerate.domains = 1 }
  in
  let refine_par, _ =
    measure run_refine_workload { base_config with Enumerate.domains }
  in
  if not (String.equal (digest refine_seq) (digest refine_par)) then
    die "refine workload diverges from sequential (%s vs %s)"
      (digest refine_par) (digest refine_seq);
  Printf.printf
    "par_check: OK — %d regimes bit-identical to sequential; machinery %.0f \
     bytes/round\n%!"
    (List.length regimes + 1)
    machinery
