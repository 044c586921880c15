(* The session-owned relation cache: a run on a session that earlier runs
   already warmed returns exactly what the same run on a fresh session
   returns, per-run relation-cache counters are the run's own share of
   the cache's totals, and concurrent runs on one session (one cache per
   domain) each match their solo runs. *)

module Mas = Duobench.Mas
module Enumerate = Duocore.Enumerate
module Duoquest = Duocore.Duoquest
module Verify = Duocore.Verify
module Executor = Duoengine.Executor

let db = Mas.database ()

let config =
  { Enumerate.default_config with
    Enumerate.max_pops = 1000;
    max_candidates = 10;
    time_budget_s = 600.0;
    domains = 1 }

(* MAS dual cases: (task, detail) with a seeded sketch, as
   "task/detail" ids. *)
let cases =
  List.filter_map
    (fun (id, detail) ->
      let task = List.find (fun t -> t.Mas.task_id = id) (Mas.nli_study_tasks @ Mas.pbe_study_tasks) in
      Option.map
        (fun tsq -> (id ^ "/" ^ Duobench.Tsq_synth.detail_to_string detail, task, tsq))
        (Duobench.Tsq_synth.synthesize
           (Duobench.Rng.create (Hashtbl.hash id))
           db (Mas.gold task) ~detail))
    [ ("A1", Duobench.Tsq_synth.Full); ("B1", Duobench.Tsq_synth.Partial);
      ("B4", Duobench.Tsq_synth.Full); ("D1", Duobench.Tsq_synth.Full);
      ("B1", Duobench.Tsq_synth.Full) ]

let run session (_, task, tsq) =
  Duoquest.synthesize ~config ~tsq ~literals:task.Mas.task_literals session
    ~nlq:task.Mas.task_nlq ()

(* Everything a run decides, none of what a warm cache may change: the
   candidates (SQL and confidence), pops, per-stage prune counts and the
   probe counts. *)
let summary (o : Enumerate.outcome) =
  let s = o.Enumerate.out_stats in
  ( List.map
      (fun c ->
        (Duosql.Pretty.query c.Enumerate.cand_query, c.Enumerate.cand_confidence))
      o.Enumerate.out_candidates,
    o.Enumerate.out_pops,
    List.map (Verify.pruned_by s) Verify.all_stages,
    (s.Verify.row_probes, s.Verify.full_executions) )

let summary_t =
  Alcotest.(
    pair
      (list (pair string (float 0.0)))
      (pair int (pair (list int) (pair int int))))

let flat (c, p, pr, rf) = (c, (p, (pr, rf)))

let check_same name expected actual =
  Alcotest.check summary_t name (flat expected) (flat actual)

let test_warm_equals_cold () =
  let warm = Duoquest.create_session db in
  List.iter
    (fun ((id, _, _) as case) ->
      let cold = summary (run (Duoquest.create_session db) case) in
      check_same (id ^ " on a warm session") cold (summary (run warm case)))
    cases;
  (* the warm session really served later runs from its cache *)
  let hits, _, _ =
    Executor.cache_stats (List.hd (Duoquest.session_relcaches warm))
  in
  Alcotest.(check bool) "warm session hit its cache" true (hits > 0);
  (* and a second pass over a fully warm session still matches *)
  List.iter
    (fun ((id, _, _) as case) ->
      let cold = summary (run (Duoquest.create_session db) case) in
      check_same (id ^ " again") cold (summary (run warm case)))
    cases

let test_counters_are_per_run () =
  let session = Duoquest.create_session db in
  (* one task under two sketches: the second run reuses joins *)
  let a = run session (List.nth cases 1) in
  let b = run session (List.nth cases 4) in
  let caches = Duoquest.session_relcaches session in
  Alcotest.(check int) "one cache: one domain ran" 1 (List.length caches);
  let cache = List.hd caches in
  let hits, _, pushdowns = Executor.cache_stats cache in
  let ji_builds, ji_hits = Executor.join_index_stats cache in
  let sum f = f a.Enumerate.out_stats + f b.Enumerate.out_stats in
  Alcotest.(check int) "relcache_hits" hits (sum (fun s -> s.Verify.relcache_hits));
  Alcotest.(check int) "pushdown_builds" pushdowns (sum (fun s -> s.Verify.pushdown_builds));
  Alcotest.(check int) "join_index_builds" ji_builds
    (sum (fun s -> s.Verify.join_index_builds));
  Alcotest.(check int) "join_index_hits" ji_hits (sum (fun s -> s.Verify.join_index_hits));
  Alcotest.(check bool) "the second run hit what the first built" true
    (b.Enumerate.out_stats.Verify.relcache_hits > 0)

(* [Simulation.shard_map]'s shape: two pool domains synthesize on one
   shared session at once, each through its own cache. *)
let test_concurrent_domains () =
  let picked = [| List.nth cases 1; List.nth cases 3 |] in
  let solo = Array.map (fun c -> summary (run (Duoquest.create_session db) c)) picked in
  let shared = Duoquest.create_session db in
  let out = Array.make 2 None in
  Duopar.Pool.with_pool ~domains:2 (fun pool ->
      Duopar.Pool.run pool 2 (fun ~worker:_ i -> out.(i) <- Some (summary (run shared picked.(i)))));
  Array.iteri
    (fun i o ->
      let id, _, _ = picked.(i) in
      check_same (id ^ " beside another domain") solo.(i) (Option.get o))
    out;
  let n = List.length (Duoquest.session_relcaches shared) in
  Alcotest.(check bool) "one cache per domain that ran" true (n >= 1 && n <= 2)

let suite =
  [
    Alcotest.test_case "warm session = cold session (MAS dual)" `Quick
      test_warm_equals_cold;
    Alcotest.test_case "per-run relcache counters sum to the cache's" `Quick
      test_counters_are_per_run;
    Alcotest.test_case "two domains on one session = solo runs" `Quick
      test_concurrent_domains;
  ]
