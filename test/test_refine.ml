(* Incremental re-synthesis on TSQ refinement: the [Tsq.refines]
   classifier, warm-restart equivalence ([Enumerate.rebase] emits exactly
   what a from-root run under the tightened sketch emits, while
   re-verifying strictly fewer states), and the Duoserve session
   lifecycle around refinement (Incomparable fallback, close/cancel
   status bookkeeping, per-call empty outcomes). *)

module Tsq = Duocore.Tsq
module Verify = Duocore.Verify
module Enumerate = Duocore.Enumerate
module Duoquest = Duocore.Duoquest
module Session = Duoserve.Session
module Tsq_synth = Duobench.Tsq_synth
module Rng = Duobench.Rng
module Mas = Duobench.Mas
module Value = Duodb.Value

let config =
  { Enumerate.default_config with
    Enumerate.max_candidates = 8;
    time_budget_s = 30.0 }

(* --- the refinement classifier ------------------------------------- *)

let fg = [ Tsq.Exact (Value.Text "Forrest Gump") ]
let seven = [ Tsq.Exact (Value.Text "Seven") ]
let titanic = [ Tsq.Exact (Value.Text "Titanic") ]
let base = Tsq.make ~types:[ Duodb.Datatype.Text ] ~tuples:[ fg ] ()

let check_refines msg expected ~old ~new_ =
  let show = function
    | Tsq.Tightening -> "Tightening"
    | Tsq.Incomparable -> "Incomparable"
  in
  Alcotest.(check string) msg (show expected) (show (Tsq.refines ~old ~new_))

let test_classifier_tightenings () =
  check_refines "reflexive" Tsq.Tightening ~old:base ~new_:base;
  check_refines "append tuple, full support" Tsq.Tightening ~old:base
    ~new_:(Tsq.add_positive base seven);
  check_refines "toggle sorted on" Tsq.Tightening ~old:base
    ~new_:{ base with Tsq.sorted = true };
  check_refines "add negative" Tsq.Tightening ~old:base
    ~new_:(Tsq.add_negative base titanic);
  check_refines "raise support on fixed tuples" Tsq.Tightening
    ~old:
      { base with Tsq.tuples = [ fg; seven ]; min_support = Some 1 }
    ~new_:{ base with Tsq.tuples = [ fg; seven ]; min_support = Some 2 };
  (* a supersequence may interleave, not only append *)
  check_refines "insert tuple mid-sequence" Tsq.Tightening
    ~old:{ base with Tsq.tuples = [ fg; titanic ] }
    ~new_:{ base with Tsq.tuples = [ fg; seven; titanic ] }

let test_classifier_incomparable () =
  check_refines "type edit" Tsq.Incomparable ~old:base
    ~new_:{ base with Tsq.types = Some [ Duodb.Datatype.Number ] };
  check_refines "width edit" Tsq.Incomparable ~old:base
    ~new_:
      (Tsq.make
         ~types:[ Duodb.Datatype.Text; Duodb.Datatype.Number ]
         ~tuples:[ [ Tsq.Exact (Value.Text "Forrest Gump"); Tsq.Any ] ]
         ());
  check_refines "limit edit" Tsq.Incomparable ~old:base
    ~new_:{ base with Tsq.limit = 3 };
  check_refines "toggle sorted off" Tsq.Incomparable
    ~old:{ base with Tsq.sorted = true } ~new_:base;
  check_refines "drop a tuple" Tsq.Incomparable
    ~old:{ base with Tsq.tuples = [ fg; seven ] }
    ~new_:{ base with Tsq.tuples = [ fg ] };
  check_refines "drop a negative" Tsq.Incomparable
    ~old:(Tsq.add_negative base titanic) ~new_:base;
  check_refines "lower support" Tsq.Incomparable
    ~old:{ base with Tsq.tuples = [ fg; seven ] }
    ~new_:{ base with Tsq.tuples = [ fg; seven ]; min_support = Some 1 };
  (* appending an example while only some tuples are required is not
     monotone: the bipartite matcher may satisfy the threshold using the
     new tuple on queries the old sketch rejected *)
  check_refines "append under partial support" Tsq.Incomparable
    ~old:{ base with Tsq.tuples = [ fg; seven ]; min_support = Some 1 }
    ~new_:
      { base with
        Tsq.tuples = [ fg; seven; titanic ];
        min_support = Some 2 }

(* --- warm rebase = from-root restart ------------------------------- *)

let sqls (o : Enumerate.outcome) =
  List.map
    (fun (c : Enumerate.candidate) -> Duosql.Pretty.query c.Enumerate.cand_query)
    o.Enumerate.out_candidates

let confs (o : Enumerate.outcome) =
  List.map
    (fun (c : Enumerate.candidate) -> c.Enumerate.cand_confidence)
    o.Enumerate.out_candidates

(* A strictly looser ancestor of [tsq]: first example tuple only, unsorted,
   no negatives.  Header untouched, so the edit back classifies as a
   tightening. *)
let loosen (tsq : Tsq.t) =
  let tuples = match tsq.Tsq.tuples with [] -> [] | t :: _ -> [ t ] in
  { tsq with Tsq.tuples; sorted = false; negatives = []; min_support = None }

let run_to_completion st =
  match Enumerate.step st with
  | Enumerate.Finished -> ()
  | Enumerate.Running -> Alcotest.fail "unbounded step left the run running"

(* Run the dual-spec task under [loose] to completion, rebase onto
   [tight], finish — and compare against a from-root run under [tight]. *)
let check_warm_vs_cold ~name session ~nlq ~literals ~tight =
  let loose = loosen tight in
  check_refines (name ^ ": edit classifies as tightening") Tsq.Tightening
    ~old:loose ~new_:tight;
  let st = Duoquest.prepare ~config ~tsq:loose ~literals session ~nlq () in
  run_to_completion st;
  let verifies (o : Enumerate.outcome) = o.Enumerate.out_stats.Verify.verify_calls in
  let v0 = verifies (Enumerate.outcome st) in
  Enumerate.rebase st ~tsq:tight;
  run_to_completion st;
  let warm = Enumerate.outcome st in
  let warm_verifies = verifies warm - v0 in
  let cold = Duoquest.synthesize ~config ~tsq:tight ~literals session ~nlq () in
  let cold_verifies = verifies cold in
  Alcotest.(check (list string))
    (name ^ ": identical candidates") (sqls cold) (sqls warm);
  Alcotest.(check (list (float 1e-9)))
    (name ^ ": identical confidences") (confs cold) (confs warm);
  Alcotest.(check int) (name ^ ": one rebase recorded") 1
    warm.Enumerate.out_rebases;
  Alcotest.(check bool)
    (Printf.sprintf "%s: rebase re-checked something (kept %d, dropped %d)"
       name warm.Enumerate.out_rebase_kept warm.Enumerate.out_rebase_dropped)
    true
    (warm.Enumerate.out_rebase_kept + warm.Enumerate.out_rebase_dropped > 0);
  Alcotest.(check bool)
    (Printf.sprintf "%s: warm re-verifies fewer states (%d < %d)" name
       warm_verifies cold_verifies)
    true
    (warm_verifies < cold_verifies)

let movie_session = lazy (Duoquest.create_session (Fixtures.movie_db ()))

(* Figure-2 flavour with a 3-row gold, so Full detail carries two example
   tuples and [loosen] actually loosens. *)
let movie_gold =
  lazy (Fixtures.parse "SELECT movies.name FROM movies WHERE movies.year < 2000")

let movie_tight ~detail ~seed =
  let session = Lazy.force movie_session in
  match
    Tsq_synth.synthesize (Rng.create seed)
      (Duoquest.session_db session)
      (Lazy.force movie_gold) ~detail
  with
  | Some t -> { t with Tsq.min_support = None }
  | None -> Alcotest.fail "TSQ synthesis failed on the movie gold"

let test_movie_detail detail () =
  let name = "fig2/" ^ Tsq_synth.detail_to_string detail in
  check_warm_vs_cold ~name
    (Lazy.force movie_session)
    ~nlq:"Find all movies from before 2000"
    ~literals:[ Value.Int 2000 ]
    ~tight:(movie_tight ~detail ~seed:11)

(* Same sweep on a MAS study task (Section 5.4): a bigger schema, joins,
   and a synthesized sketch per detail level. *)
let mas_session = lazy (Duoquest.create_session (Mas.database ()))

let test_mas_detail detail () =
  let task = List.hd Mas.nli_study_tasks in
  let session = Lazy.force mas_session in
  let tight =
    match
      Tsq_synth.synthesize (Rng.create 23)
        (Duoquest.session_db session)
        (Mas.gold task) ~detail
    with
    | Some t -> { t with Tsq.min_support = None }
    | None -> Alcotest.fail ("TSQ synthesis failed on " ^ task.Mas.task_id)
  in
  check_warm_vs_cold
    ~name:(task.Mas.task_id ^ "/" ^ Tsq_synth.detail_to_string detail)
    session ~nlq:task.Mas.task_nlq ~literals:task.Mas.task_literals ~tight

(* The sorted flag alone: warm-toggling tau on mid-run must equal a
   from-root sorted run (the ordered matcher accepts a subset of the
   distinct matcher's queries, so verdicts stay monotone). *)
let test_sorted_toggle_rebase () =
  let tight =
    Tsq.make
      ~types:[ Duodb.Datatype.Text; Duodb.Datatype.Number ]
      ~tuples:
        [ [ Tsq.Exact (Value.Text "Forrest Gump"); Tsq.Any ];
          [ Tsq.Exact (Value.Text "Gravity"); Tsq.Any ] ]
      ~sorted:true ()
  in
  (* [loosen] keeps only the first tuple and clears tau: the rebase must
     re-impose both. *)
  check_warm_vs_cold ~name:"sorted-toggle"
    (Lazy.force movie_session)
    ~nlq:"movie names and years from earliest to most recent" ~literals:[]
    ~tight

(* --- session lifecycle --------------------------------------------- *)

let movies_nlq = "Find all movies from before 1995"
let movies_literals = [ Value.Int 1995 ]

let make_session ?tsq duo =
  Session.create ~sid:1 ~db_name:"movies" ~config ~nlq:movies_nlq ?tsq
    ~literals:movies_literals duo

let finish s =
  let guard = ref 0 in
  while Session.status s = Session.Running && !guard < 10_000 do
    incr guard;
    Session.step ~max_pops:500 s
  done;
  Alcotest.(check string) "session ran to completion" "finished"
    (Session.status_name (Session.status s))

let test_session_warm_refine () =
  let duo = Lazy.force movie_session in
  let s = make_session ~tsq:base duo in
  finish s;
  (* Tightening edit: exclude a row no <1995 candidate returns anyway. *)
  let tight = Tsq.add_negative base [ Tsq.Exact (Value.Text "Gravity") ] in
  Session.refine s tight;
  Alcotest.(check int) "refinements" 1 (Session.refinements s);
  Alcotest.(check int) "served by rebase" 1 (Session.rebased s);
  finish s;
  let o = Session.outcome s in
  Alcotest.(check int) "outcome reports the rebase" 1 o.Enumerate.out_rebases;
  let solo =
    Duoquest.synthesize ~config ~tsq:tight ~literals:movies_literals duo
      ~nlq:movies_nlq ()
  in
  Alcotest.(check (list string)) "refined session = solo run" (sqls solo)
    (sqls o);
  Session.close s;
  Alcotest.(check string) "close preserves Finished" "finished"
    (Session.status_name (Session.status s))

let test_session_incomparable_fallback () =
  let duo = Lazy.force movie_session in
  let s = make_session ~tsq:base duo in
  finish s;
  (* Width edit: the warm path must refuse and restart from the root. *)
  let wide =
    Tsq.make
      ~types:[ Duodb.Datatype.Text; Duodb.Datatype.Number ]
      ~tuples:[ [ Tsq.Exact (Value.Text "Forrest Gump"); Tsq.Any ] ]
      ()
  in
  check_refines "edit classifies incomparable" Tsq.Incomparable ~old:base
    ~new_:wide;
  Session.refine s wide;
  Alcotest.(check int) "refinements" 1 (Session.refinements s);
  Alcotest.(check int) "no rebase taken" 0 (Session.rebased s);
  finish s;
  let o = Session.outcome s in
  Alcotest.(check int) "fresh run, no rebases" 0 o.Enumerate.out_rebases;
  let solo =
    Duoquest.synthesize ~config ~tsq:wide ~literals:movies_literals duo
      ~nlq:movies_nlq ()
  in
  Alcotest.(check (list string)) "fallback = solo from-root run" (sqls solo)
    (sqls o);
  Session.close s

let test_close_cancels_running () =
  let duo = Lazy.force movie_session in
  let s = make_session ~tsq:base duo in
  (* never stepped: still Running *)
  Session.close s;
  Alcotest.(check string) "interrupted run reports cancelled" "cancelled"
    (Session.status_name (Session.status s))

let test_empty_outcome_not_shared () =
  let duo = Lazy.force movie_session in
  let s = make_session ~tsq:base duo in
  Session.close s;
  (* closed before any step: outcome falls back to the empty record *)
  let o1 = Session.outcome s in
  Alcotest.(check int) "fresh empty outcome" 0 o1.Enumerate.out_stats.Verify.pruned;
  o1.Enumerate.out_stats.Verify.pruned <- 99;
  let o2 = Session.outcome s in
  Alcotest.(check int) "mutation does not leak across calls" 0
    o2.Enumerate.out_stats.Verify.pruned

(* [retarget] must recompile the sketch the column stage reads: after a
   tightening appends an example ("Tom Hanks") that no movie name
   matches, a state projecting movies.name passes under the original env
   and is pruned column-wise under the retargeted one. *)
let test_retarget_recompiles_sketch () =
  let module Partial = Duocore.Partial in
  let tightened = Tsq.add_positive base [ Tsq.Exact (Value.Text "Tom Hanks") ] in
  check_refines "precondition" Tsq.Tightening ~old:base ~new_:tightened;
  let name = Duodb.Schema.find_column_exn Fixtures.movie_schema ~table:"movies" "name" in
  let state =
    { Partial.root with
      Partial.phase = Partial.P_where_num;
      kw = { Duoguide.Model.kw_where = true; kw_group = false; kw_order = false };
      nproj = 1;
      projs = [ { Partial.pj_target = Duoguide.Model.Target_column name; pj_agg = Some None } ] }
  in
  let env =
    Verify.make_env ~db:(Fixtures.movie_db ()) ~tsq:(Some base) ~literals:[] ()
  in
  let env' = Verify.retarget env ~tsq:tightened in
  Alcotest.(check bool) "passes under the original sketch" true
    (Verify.verify_by_column env state);
  Alcotest.(check bool) "pruned under the tightened sketch" false
    (Verify.verify_by_column env' state);
  Alcotest.(check bool) "the cascade prunes it" false (Verify.verify env' state);
  Alcotest.(check int) "at the column stage" 1
    (Verify.pruned_by (Verify.stats env') Verify.S_column)

let suite =
  [
    Alcotest.test_case "classifier: tightenings" `Quick
      test_classifier_tightenings;
    Alcotest.test_case "classifier: incomparable edits" `Quick
      test_classifier_incomparable;
    Alcotest.test_case "fig2 warm = cold (Full)" `Quick
      (test_movie_detail Tsq_synth.Full);
    Alcotest.test_case "fig2 warm = cold (Partial)" `Quick
      (test_movie_detail Tsq_synth.Partial);
    Alcotest.test_case "fig2 warm = cold (Minimal)" `Quick
      (test_movie_detail Tsq_synth.Minimal);
    Alcotest.test_case "MAS warm = cold (Full)" `Slow
      (test_mas_detail Tsq_synth.Full);
    Alcotest.test_case "MAS warm = cold (Partial)" `Slow
      (test_mas_detail Tsq_synth.Partial);
    Alcotest.test_case "MAS warm = cold (Minimal)" `Slow
      (test_mas_detail Tsq_synth.Minimal);
    Alcotest.test_case "sorted toggle rebases" `Quick
      test_sorted_toggle_rebase;
    Alcotest.test_case "session warm refine" `Quick test_session_warm_refine;
    Alcotest.test_case "session incomparable fallback" `Quick
      test_session_incomparable_fallback;
    Alcotest.test_case "close cancels a running session" `Quick
      test_close_cancels_running;
    Alcotest.test_case "empty outcome is per-call" `Quick
      test_empty_outcome_not_shared;
    Alcotest.test_case "retarget recompiles the sketch" `Quick
      test_retarget_recompiles_sketch;
  ]
