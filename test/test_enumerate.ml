module Enumerate = Duocore.Enumerate
module Partial = Duocore.Partial
module Model = Duoguide.Model

let schema = Fixtures.movie_schema
let db = Fixtures.movie_db ()

let ctx nlq = Model.make schema (Duonl.Nlq.analyze nlq)

let test_root_expansion () =
  let children =
    Enumerate.expand ~guided:true Enumerate.no_hints
      (ctx "movie names") Partial.root
  in
  Alcotest.(check int) "8 keyword subsets" 8 (List.length children);
  List.iter
    (fun (c : Partial.t) ->
      Alcotest.(check bool) "moved past keywords" true
        (c.Partial.phase = Partial.P_num_proj))
    children

let test_confidence_partition () =
  (* Property 1 at the root: children's confidences sum to the parent's. *)
  let children =
    Enumerate.expand ~guided:true Enumerate.no_hints (ctx "movie names") Partial.root
  in
  let total = List.fold_left (fun acc c -> acc +. c.Partial.confidence) 0.0 children in
  Alcotest.(check (float 1e-6)) "children partition parent mass" 1.0 total

let test_uniform_mode () =
  let children =
    Enumerate.expand ~guided:false Enumerate.no_hints (ctx "movie names") Partial.root
  in
  List.iter
    (fun (c : Partial.t) ->
      Alcotest.(check (float 1e-9)) "uniform 1/8" 0.125 c.Partial.confidence)
    children

let test_done_is_terminal () =
  let s = { Partial.root with Partial.phase = Partial.P_done } in
  Alcotest.(check int) "no children" 0
    (List.length (Enumerate.expand ~guided:true Enumerate.no_hints (ctx "x") s))

let test_hints_of_tsq () =
  let tsq =
    Duocore.Tsq.make ~types:[ Duodb.Datatype.Text; Duodb.Datatype.Number ]
      ~sorted:true ~limit:5 ()
  in
  let h = Enumerate.hints_of_tsq tsq in
  Alcotest.(check (option int)) "width hint" (Some 2) h.Enumerate.h_nproj;
  Alcotest.(check (option int)) "limit hint" (Some 5) h.Enumerate.h_limit

(* A sorted sketch: every state whose keywords leave out ORDER BY fails
   the clauses stage, the most likely keyword children among them. *)
let sorted_tsq =
  Duocore.Tsq.make ~types:[ Duodb.Datatype.Text ] ~sorted:true
    ~tuples:[ [ Duocore.Tsq.Exact (Duodb.Value.Text "Forrest Gump") ] ]
    ()

(* States discarded at pop by a stage after [static] *)
let discards (o : Enumerate.outcome) =
  let st = o.Enumerate.out_stats in
  st.Duocore.Verify.pruned - Duocore.Verify.pruned_by st Duocore.Verify.S_static

let test_run_respects_budget () =
  let config =
    { Enumerate.default_config with Enumerate.max_pops = 50; max_candidates = 1000 }
  in
  let outcome =
    Enumerate.run config (ctx "movie names") db ~tsq:None ~literals:[] ()
  in
  Alcotest.(check bool) "pops bounded" true (outcome.Enumerate.out_pops <= 50);
  (* a state that fails at pop is discarded without counting: the run
     still makes all 50 counted pops *)
  let dual = Enumerate.run config (ctx "movie names") db ~tsq:(Some sorted_tsq) ~literals:[] () in
  Alcotest.(check int) "every counted pop passed" 50 dual.Enumerate.out_pops;
  Alcotest.(check bool) "and discards came on top" true (discards dual > 0)

let test_run_exhausts_tiny_space () =
  (* An impossible TSQ: a text type annotation whose value exists nowhere.
     Everything prunes and the frontier drains. *)
  let tsq =
    Duocore.Tsq.make ~types:[ Duodb.Datatype.Text ]
      ~tuples:[ [ Duocore.Tsq.Exact (Duodb.Value.Text "No Such Value Anywhere") ] ]
      ()
  in
  let config =
    { Enumerate.default_config with
      Enumerate.max_pops = 200_000;
      time_budget_s = 20.0 }
  in
  let outcome =
    Enumerate.run config (ctx "names") db ~tsq:(Some tsq) ~literals:[] ()
  in
  Alcotest.(check int) "no candidates" 0 (List.length outcome.Enumerate.out_candidates);
  (* the frontier drained without compaction ever discarding a state, so
     this really was an exhaustive enumeration *)
  Alcotest.(check int) "nothing dropped" 0 outcome.Enumerate.out_dropped;
  Alcotest.(check bool) "exhaustion reported" true outcome.Enumerate.out_exhausted

let test_dropped_states_veto_exhaustion () =
  (* regression: with a tiny frontier cap, compaction throws states away;
     an empty frontier then no longer proves the space was enumerated, so
     out_exhausted must stay false (and out_dropped says why) *)
  let tsq =
    Duocore.Tsq.make ~types:[ Duodb.Datatype.Text ]
      ~tuples:[ [ Duocore.Tsq.Exact (Duodb.Value.Text "No Such Value Anywhere") ] ]
      ()
  in
  let config =
    { Enumerate.default_config with
      Enumerate.max_pops = 200_000;
      time_budget_s = 20.0;
      max_frontier = 4 }
  in
  let outcome =
    Enumerate.run config (ctx "names") db ~tsq:(Some tsq) ~literals:[] ()
  in
  Alcotest.(check bool) "compaction dropped states" true
    (outcome.Enumerate.out_dropped > 0);
  Alcotest.(check bool) "no exhaustion claim after drops" false
    outcome.Enumerate.out_exhausted

let test_time_budget_is_wall_clock () =
  (* regression: the budget must follow real time, not processor time — a
     stalled consumer (sleeping callback burns no CPU) still exhausts it *)
  let config =
    { Enumerate.default_config with
      Enumerate.max_pops = 1_000_000;
      max_candidates = 1_000;
      time_budget_s = 0.05 }
  in
  let outcome =
    Enumerate.run config (ctx "movie names") db ~tsq:None ~literals:[]
      ~on_candidate:(fun _ -> Unix.sleepf 0.06) ()
  in
  Alcotest.(check bool) "stopped after the first stall" true
    (List.length outcome.Enumerate.out_candidates <= 2);
  Alcotest.(check bool) "elapsed measured in wall time" true
    (outcome.Enumerate.out_elapsed_s >= 0.05)

let test_candidates_unique () =
  let config =
    { Enumerate.default_config with Enumerate.max_pops = 20_000; max_candidates = 50 }
  in
  let outcome =
    Enumerate.run config (ctx "movie names and years") db ~tsq:None ~literals:[] ()
  in
  let rec pairwise_distinct = function
    | [] -> true
    | c :: rest ->
        List.for_all
          (fun c' ->
            not
              (Duosql.Equal.queries c.Enumerate.cand_query c'.Enumerate.cand_query))
          rest
        && pairwise_distinct rest
  in
  Alcotest.(check bool) "no duplicate candidates" true
    (pairwise_distinct outcome.Enumerate.out_candidates)

let test_partial_to_query_roundtrip () =
  (* A fully decided state must render to a runnable query. *)
  let name_col = Duodb.Schema.find_column_exn schema ~table:"movies" "name" in
  let st =
    { Partial.root with
      Partial.phase = Partial.P_done;
      kw = { Model.kw_where = false; kw_group = false; kw_order = false };
      nproj = 1;
      projs =
        [ { Partial.pj_target = Model.Target_column name_col; pj_agg = Some None } ];
      from = Some (Duosql.Ast.from_table "movies") }
  in
  match Partial.to_query st with
  | Some q ->
      let res = Duoengine.Executor.run_exn db q in
      Alcotest.(check int) "6 movies" 6 (Duoengine.Executor.cardinality res)
  | None -> Alcotest.fail "expected a complete query"

let test_partial_key_distinguishes () =
  let a = Partial.root in
  let b = { Partial.root with Partial.phase = Partial.P_num_proj } in
  Alcotest.(check bool) "different phases, different keys" true
    (Partial.key a <> Partial.key b);
  Alcotest.(check string) "key deterministic" (Partial.key a) (Partial.key a)

(* Hand-built pairs that print the same key but differ in fields: the
   render-free hash must agree, and the visited table must treat each pair
   as one state. *)
let decided_state () =
  let col t c = Duodb.Schema.find_column_exn schema ~table:t c in
  { Partial.root with
    Partial.phase = Partial.P_limit;
    kw = { Model.kw_where = true; kw_group = false; kw_order = true };
    nproj = 1;
    projs = [ { Partial.pj_target = Model.Target_column (col "movies" "name"); pj_agg = Some None } ];
    where_n = 1;
    where_preds =
      [ { Duosql.Ast.pr_agg = None; pr_col = Some (Duosql.Ast.col "movies" "year");
          pr_rhs = Duosql.Ast.Cmp (Duosql.Ast.Gt, Duodb.Value.Int 1994) } ];
    from = Some (Duosql.Ast.from_table "movies") }

(* Whether the visited table treats [b] as a visit of [a]. *)
let same (a : Partial.t) (b : Partial.t) =
  let tbl = Partial.Tbl.create 4 in
  ignore (Partial.Tbl.add tbl a);
  not (Partial.Tbl.add tbl b)

let check_same_key name (a : Partial.t) (b : Partial.t) =
  Alcotest.(check string) (name ^ ": keys print alike") (Partial.key a) (Partial.key b);
  Alcotest.(check int) (name ^ ": hashes agree") (Partial.key_hash a) (Partial.key_hash b);
  Alcotest.(check bool) (name ^ ": the twin is a visit") true (same a b)

let test_key_hash_int_float () =
  let a = decided_state () in
  let b =
    { a with
      Partial.where_preds =
        List.map
          (fun p -> { p with Duosql.Ast.pr_rhs = Duosql.Ast.Cmp (Duosql.Ast.Gt, Duodb.Value.Float 1994.0) })
          a.Partial.where_preds;
      confidence = 0.5 }
  in
  Alcotest.(check bool) "fields differ" false (Partial.equal_rendered a b);
  check_same_key "Int 3 vs Float 3." a b;
  let tbl = Partial.Tbl.create 4 in
  ignore (Partial.Tbl.add tbl a);
  ignore (Partial.Tbl.add tbl b);
  Alcotest.(check int) "the fallback printed both keys" 2 (Partial.Tbl.take_renders tbl);
  Alcotest.(check int) "the count resets" 0 (Partial.Tbl.take_renders tbl);
  let c =
    { a with
      Partial.where_preds =
        List.map
          (fun p -> { p with Duosql.Ast.pr_rhs = Duosql.Ast.Cmp (Duosql.Ast.Gt, Duodb.Value.Float 1994.5) })
          a.Partial.where_preds }
  in
  Alcotest.(check bool) "a non-integral float is another state" false (same a c)

let test_key_hash_dir_without_order () =
  let a = { (decided_state ()) with Partial.order_item = None; order_dir = Duosql.Ast.Asc } in
  let b = { a with Partial.order_dir = Duosql.Ast.Desc } in
  Alcotest.(check bool) "the unprinted direction is ignored" true (Partial.equal_rendered a b);
  check_same_key "Asc/Desc without ORDER item" a b;
  let with_item dir =
    { a with
      Partial.order_item = Some (None, Some (Duosql.Ast.col "movies" "year"));
      order_dir = dir }
  in
  Alcotest.(check bool) "the printed direction counts" false
    (same (with_item Duosql.Ast.Asc) (with_item Duosql.Ast.Desc))

let test_key_hash_from_order () =
  let joins =
    [ { Duosql.Ast.j_from = Duosql.Ast.col "starring" "aid"; j_to = Duosql.Ast.col "actor" "aid" };
      { Duosql.Ast.j_from = Duosql.Ast.col "starring" "mid"; j_to = Duosql.Ast.col "movies" "mid" } ]
  in
  let with_tables tables =
    { (decided_state ()) with
      Partial.from = Some { Duosql.Ast.f_tables = tables; f_joins = joins } }
  in
  let a = with_tables [ "starring"; "actor"; "movies" ] in
  let b = with_tables [ "starring"; "movies"; "actor" ] in
  Alcotest.(check bool) "lists differ" false (Partial.equal_rendered a b);
  check_same_key "FROM tables reordered" a b;
  let c = with_tables [ "actor"; "starring"; "movies" ] in
  Alcotest.(check bool) "another first table is another state" false (same a c)

(* A state without WHERE or HAVING predicates never shares a canonical key
   with a predicated one (its literal segment is empty, theirs never is),
   so the enumerator may skip the canonical layer for it. *)
let test_canonical_no_pred_vs_pred () =
  let base = decided_state () in
  let bare = { base with Partial.where_preds = []; where_n = 0 } in
  let pred rhs = { Duosql.Ast.pr_agg = None; pr_col = Some (Duosql.Ast.col "movies" "name"); pr_rhs = rhs } in
  let empty_text = { bare with Partial.where_preds = [ pred (Duosql.Ast.Cmp (Duosql.Ast.Eq, Duodb.Value.Text "")) ] } in
  let having =
    { bare with
      Partial.having_pred =
        Some
          { Duosql.Ast.pr_agg = Some Duosql.Ast.Count; pr_col = None;
            pr_rhs = Duosql.Ast.Cmp (Duosql.Ast.Gt, Duodb.Value.Int 1) } }
  in
  let ck = Partial.canonical_key bare in
  List.iter
    (fun (name, t) ->
      Alcotest.(check bool) (name ^ ": no canonical collision") true
        (not (String.equal ck (Partial.canonical_key t))))
    [ ("where", base); ("empty text literal", empty_text); ("having", having) ];
  Alcotest.(check bool) "predicate-free: canonical key follows the key" true
    (String.equal ck (Partial.canonical_key { bare with Partial.confidence = 0.1 }))

(* Regression (Duocheck's partition property): an exact duplicate
   conjunct put [year < 2000 AND revenue < 500 AND year < 2000] in the
   canonical partition of [year < 2000 AND revenue < 500 AND
   revenue < 2000] (both fold to the same two conjuncts over the same
   literals), although the semantics stage rejects only the first.  With
   verify on pop, the rejected state could have held the partition's
   slot and turned the other away. *)
let test_canonical_exact_duplicate () =
  let open Duosql.Ast in
  let pred c v = { pr_agg = None; pr_col = Some (col "movies" c); pr_rhs = Cmp (Lt, Duodb.Value.Int v) } in
  let with_preds l = { (decided_state ()) with Partial.where_preds = l; where_n = 3 } in
  let subsumed = with_preds [ pred "year" 2000; pred "revenue" 500; pred "revenue" 2000 ] in
  let duplicated = with_preds [ pred "year" 2000; pred "revenue" 500; pred "year" 2000 ] in
  let env = Duocore.Verify.make_env ~db ~tsq:None ~literals:[] () in
  Alcotest.(check (pair bool bool)) "the semantics stage tells them apart" (true, false)
    (Duocore.Verify.verify_semantics env subsumed, Duocore.Verify.verify_semantics env duplicated);
  Alcotest.(check bool) "so their canonical keys differ" false
    (String.equal (Partial.canonical_key subsumed) (Partial.canonical_key duplicated));
  let canon = Partial.Canon.create 4 in
  Alcotest.(check (pair bool bool)) "and the canonical set admits both" (true, true)
    (Partial.Canon.add canon duplicated, Partial.Canon.add canon subsumed)

(* The dedup counters: a dual-spec run hits the visited set, checks the
   canonical layer only for predicated states, and prints (almost) no
   keys. *)
let test_dedup_counters () =
  let tsq =
    Duocore.Tsq.make ~types:[ Duodb.Datatype.Text ]
      ~tuples:[ [ Duocore.Tsq.Exact (Duodb.Value.Text "Forrest Gump") ] ]
      ()
  in
  let config = { Enumerate.default_config with Enumerate.max_pops = 2_000 } in
  let o =
    Enumerate.run config (ctx "movie names before 1995") db ~tsq:(Some tsq)
      ~literals:[ Duodb.Value.Int 1995 ] ()
  in
  let st = o.Enumerate.out_stats in
  Alcotest.(check bool) "visited hits counted" true (st.Duocore.Verify.visited_hits > 0);
  Alcotest.(check bool) "canonical layer only for some pushes" true
    (st.Duocore.Verify.canon_checked > 0
    && st.Duocore.Verify.canon_checked < o.Enumerate.out_pushed);
  Alcotest.(check bool) "keys printed on under 1% of lookups" true
    (100 * st.Duocore.Verify.key_renders
    < st.Duocore.Verify.visited_hits + o.Enumerate.out_pushed)

let test_stats_attribution () =
  let tsq =
    Duocore.Tsq.make ~types:[ Duodb.Datatype.Text ]
      ~tuples:[ [ Duocore.Tsq.Exact (Duodb.Value.Text "Forrest Gump") ] ]
      ()
  in
  let config =
    { Enumerate.default_config with Enumerate.max_pops = 5_000; max_candidates = 20 }
  in
  let outcome =
    Enumerate.run config (ctx "movie names") db ~tsq:(Some tsq) ~literals:[] ()
  in
  let s = outcome.Enumerate.out_stats in
  let attributed =
    List.fold_left
      (fun acc st -> acc + Duocore.Verify.pruned_by s st)
      0 Duocore.Verify.all_stages
  in
  Alcotest.(check int) "every prune attributed to a stage" s.Duocore.Verify.pruned
    attributed

(* --- [domains] is a sharding width: a run ignores it --- *)

(* [overcommit] keeps the requested domain count even on a single-core
   test machine. *)
let run_at ~domains ?tsq nlq =
  let config =
    { Enumerate.default_config with
      Enumerate.max_pops = 4_000;
      max_candidates = 30;
      time_budget_s = 20.0;
      domains;
      overcommit = true }
  in
  Enumerate.run config (ctx nlq) db ~tsq ~literals:[] ()

let candidate_sigs (o : Enumerate.outcome) =
  List.map
    (fun c ->
      ( Duosql.Pretty.query c.Enumerate.cand_query,
        c.Enumerate.cand_index,
        c.Enumerate.cand_pops ))
    o.Enumerate.out_candidates

let check_identical seq par =
  Alcotest.(check (list (triple string int int)))
    "same candidates, same order, same pop counts" (candidate_sigs seq)
    (candidate_sigs par);
  Alcotest.(check int) "same pops" seq.Enumerate.out_pops par.Enumerate.out_pops;
  Alcotest.(check int) "same pushes" seq.Enumerate.out_pushed
    par.Enumerate.out_pushed;
  List.iter
    (fun stage ->
      Alcotest.(check int)
        (Printf.sprintf "same prunes in %s" (Duocore.Verify.stage_name stage))
        (Duocore.Verify.pruned_by seq.Enumerate.out_stats stage)
        (Duocore.Verify.pruned_by par.Enumerate.out_stats stage))
    Duocore.Verify.all_stages

let test_parallel_identical_nli () =
  check_identical
    (run_at ~domains:1 "movie names and years")
    (run_at ~domains:4 "movie names and years")

let test_parallel_identical_dual () =
  let tsq =
    Duocore.Tsq.make ~types:[ Duodb.Datatype.Text ]
      ~tuples:[ [ Duocore.Tsq.Exact (Duodb.Value.Text "Forrest Gump") ] ]
      ()
  in
  let seq = run_at ~domains:1 ~tsq "movie names" in
  let par = run_at ~domains:4 ~tsq "movie names" in
  check_identical seq par;
  Alcotest.(check bool) "found something" true
    (seq.Enumerate.out_candidates <> []);
  Alcotest.(check int) "one domain ran" 1 par.Enumerate.out_domains

let test_parallel_exhaustion_identical () =
  (* the exhaustive-enumeration flag and drop accounting do not depend
     on [domains] *)
  let tsq =
    Duocore.Tsq.make ~types:[ Duodb.Datatype.Text ]
      ~tuples:[ [ Duocore.Tsq.Exact (Duodb.Value.Text "No Such Value Anywhere") ] ]
      ()
  in
  let run domains =
    let config =
      { Enumerate.default_config with
        Enumerate.max_pops = 200_000;
        time_budget_s = 20.0;
        domains;
        overcommit = true }
    in
    Enumerate.run config (ctx "names") db ~tsq:(Some tsq) ~literals:[] ()
  in
  let seq = run 1 and par = run 3 in
  Alcotest.(check int) "no candidates" 0 (List.length par.Enumerate.out_candidates);
  Alcotest.(check bool) "still exhausted" par.Enumerate.out_exhausted
    seq.Enumerate.out_exhausted;
  Alcotest.(check int) "same pops" seq.Enumerate.out_pops par.Enumerate.out_pops

(* --- resumable stepping: pause/resume is observably identical --------- *)

let config_for ~domains =
  { Enumerate.default_config with
    Enumerate.max_pops = 4_000;
    max_candidates = 30;
    time_budget_s = 20.0;
    domains;
    overcommit = true }

(* Drive a run as a sequence of [slice]-pop steps; returns the final
   outcome and how many step calls it took. *)
let stepped ~slice ~domains ?tsq ?config nlq =
  let config = match config with Some c -> c | None -> config_for ~domains in
  let s = Enumerate.init config (ctx nlq) db ~tsq ~literals:[] () in
  let steps = ref 0 in
  let rec go () =
    incr steps;
    let before = (Enumerate.outcome s).Enumerate.out_pops in
    match Enumerate.step ~max_pops:slice s with
    | Enumerate.Running ->
        (* a slice counts only the pops that passed, discards aside *)
        Alcotest.(check int) "a running slice makes exactly its pops" (before + slice)
          (Enumerate.outcome s).Enumerate.out_pops;
        go ()
    | Enumerate.Finished -> ()
  in
  go ();
  Alcotest.(check bool) "finished reported" true (Enumerate.finished s);
  (* stepping a finished state is a no-op *)
  (match Enumerate.step ~max_pops:slice s with
  | Enumerate.Finished -> ()
  | Enumerate.Running -> Alcotest.fail "step after Finished ran");
  (Enumerate.outcome s, !steps)

let check_flags (seq : Enumerate.outcome) (st : Enumerate.outcome) =
  Alcotest.(check bool) "same exhausted flag" seq.Enumerate.out_exhausted
    st.Enumerate.out_exhausted;
  Alcotest.(check int) "same dropped count" seq.Enumerate.out_dropped
    st.Enumerate.out_dropped

let test_resume_identical_nli () =
  let full = run_at ~domains:1 "movie names and years" in
  List.iter
    (fun slice ->
      let st, steps = stepped ~slice ~domains:1 "movie names and years" in
      Alcotest.(check bool)
        (Printf.sprintf "slice %d really paused" slice)
        true
        (steps > 1);
      check_identical full st;
      check_flags full st)
    [ 1; 7; 64 ]

let test_resume_identical_dual () =
  let tsq =
    Duocore.Tsq.make ~types:[ Duodb.Datatype.Text ]
      ~tuples:[ [ Duocore.Tsq.Exact (Duodb.Value.Text "Forrest Gump") ] ]
      ()
  in
  List.iter
    (fun (tsq, slice) ->
      let full = run_at ~domains:1 ~tsq "movie names" in
      Alcotest.(check bool) "found something" true
        (full.Enumerate.out_candidates <> []);
      let st, _ = stepped ~slice ~domains:1 ~tsq "movie names" in
      check_identical full st;
      check_flags full st)
    [ (tsq, 5); (sorted_tsq, 1) ];
  (* under one-pop slices, the slice whose best state fails at pop goes
     on to the next state: the second slice pops the root's most likely
     child, which leaves out ORDER BY, and still counts one pop *)
  let s = Enumerate.init (config_for ~domains:1) (ctx "movie names") db ~tsq:(Some sorted_tsq) ~literals:[] () in
  ignore (Enumerate.step ~max_pops:1 s);
  Alcotest.(check int) "the root pops alone" 0 (discards (Enumerate.outcome s));
  ignore (Enumerate.step ~max_pops:1 s);
  let o = Enumerate.outcome s in
  Alcotest.(check int) "two pops counted" 2 o.Enumerate.out_pops;
  Alcotest.(check bool) "after a discard at the clauses stage" true
    (Duocore.Verify.pruned_by o.Enumerate.out_stats Duocore.Verify.S_clauses > 0)

(* NoPQ verifies complete states, at pop, and never a partial one: the
   root's most likely child, which leaves out ORDER BY and so fails the
   sorted sketch's clauses stage, is expanded, and only complete queries
   with ORDER BY are emitted. *)
let test_nopq_verifies_complete_on_pop () =
  let config = { (config_for ~domains:1) with Enumerate.prune_partial = false } in
  let unordered_complete = ref 0 in
  let on_offer (t : Partial.t) admitted =
    if admitted && Partial.is_complete t && not t.Partial.kw.Model.kw_order then
      incr unordered_complete
  in
  let s =
    Enumerate.init config (ctx "movie names") db ~tsq:(Some sorted_tsq) ~literals:[] ~on_offer ()
  in
  ignore (Enumerate.step ~max_pops:1 s);
  let pushed = (Enumerate.outcome s).Enumerate.out_pushed in
  ignore (Enumerate.step ~max_pops:1 s);
  let o = Enumerate.outcome s in
  Alcotest.(check int) "nothing discarded" 0 (discards o);
  Alcotest.(check bool) "the unordered child was expanded" true (o.Enumerate.out_pushed > pushed);
  ignore (Enumerate.step s);
  let o = Enumerate.outcome s in
  Alcotest.(check bool) "complete states that fail the sketch were queued" true
    (!unordered_complete > 0);
  Alcotest.(check bool) "and discarded at pop" true (discards o > 0);
  Alcotest.(check bool) "found something" true (o.Enumerate.out_candidates <> []);
  List.iter
    (fun c ->
      Alcotest.(check bool) "every candidate is ordered" true
        (c.Enumerate.cand_query.Duosql.Ast.q_order_by <> []))
    o.Enumerate.out_candidates

(* States that fail at pop now queue until they are popped, so the
   frontier holds more than the survivors; at the default cap it must
   still never compact on the MAS study cases (A1-D3 at every sketch
   detail, at the benchmark's 2,000-pop budget). *)
let test_mas_no_frontier_drops () =
  let mas = Duobench.Mas.database () in
  let session = Duocore.Duoquest.create_session mas in
  let config =
    { Enumerate.default_config with
      Enumerate.max_pops = 2_000;
      max_candidates = 10;
      time_budget_s = 60.0 }
  in
  List.iter
    (fun (task : Duobench.Mas.task) ->
      List.iter
        (fun detail ->
          let tsq =
            Duobench.Tsq_synth.synthesize (Duobench.Rng.create 29) mas (Duobench.Mas.gold task)
              ~detail
          in
          let o =
            Duocore.Duoquest.synthesize ~config ?tsq ~literals:task.Duobench.Mas.task_literals
              session ~nlq:task.Duobench.Mas.task_nlq ()
          in
          Alcotest.(check int)
            (Printf.sprintf "%s %s: nothing dropped" task.Duobench.Mas.task_id
               (Duobench.Tsq_synth.detail_to_string detail))
            0 o.Enumerate.out_dropped)
        [ Duobench.Tsq_synth.Full; Duobench.Tsq_synth.Partial; Duobench.Tsq_synth.Minimal ])
    (Duobench.Mas.nli_study_tasks @ Duobench.Mas.pbe_study_tasks)

(* --- the lazy warning penalty and static at pop ----------------------- *)

let mas = lazy (Duobench.Mas.database ())

let mas_task id =
  List.find
    (fun (t : Duobench.Mas.task) -> t.Duobench.Mas.task_id = id)
    (Duobench.Mas.nli_study_tasks @ Duobench.Mas.pbe_study_tasks)

let mas_ctx (task : Duobench.Mas.task) =
  Model.make Duobench.Mas.schema (Duonl.Nlq.analyze task.Duobench.Mas.task_nlq)

let mas_config =
  { Enumerate.default_config with
    Enumerate.max_pops = 1_500;
    max_candidates = 40;
    time_budget_s = 60.0 }

(* The push-time design, as a reference: every child is built when its
   parent is expanded and meets dedup (the visited layer, then the
   canonical one for a child with a predicate), [static] and its warning
   penalty then; the other stages run when it is popped.  Returns the
   candidates, every child offered (key and dedup verdict, in
   generation order) and the counted pops. *)
let eager_run (config : Enumerate.config) ctx db ~tsq =
  let module V = Duocore.Verify in
  let env =
    V.make_env ~semantics:config.Enumerate.semantic_rules ~static:config.Enumerate.static_rules
      ~db ~tsq ~literals:[] ()
  in
  let hints = match tsq with Some t -> Enumerate.hints_of_tsq t | None -> Enumerate.no_hints in
  let f = Duocore.Frontier.create () in
  let fresh tbl k = (not (Hashtbl.mem tbl k)) && (Hashtbl.replace tbl k (); true) in
  let visited = Hashtbl.create 64 and canon = Hashtbl.create 64 and emitted = Hashtbl.create 64 in
  let cands = ref [] and offers = ref [] and pops = ref [] and n = ref 0 in
  Duocore.Frontier.push f Partial.root;
  let rec loop () =
    if !n < config.Enumerate.max_pops && List.length !cands < config.Enumerate.max_candidates then
      match Duocore.Frontier.pop f with
      | None -> ()
      | Some p ->
          if
            (not (config.Enumerate.prune_partial || Partial.is_complete p))
            || V.check_deferred env ~first:V.S_clauses ~last:V.S_complete p
          then begin
            incr n;
            pops := p :: !pops;
            if Partial.is_complete p then
              Option.iter
                (fun q ->
                  if fresh emitted (Duolint.Duosem.dedup_key q) then
                    cands := (Duosql.Pretty.query q, p.Partial.confidence, !n) :: !cands)
                (Partial.to_query p)
            else
              List.iter
                (fun (c : Partial.t) ->
                  let admitted =
                    fresh visited (Partial.key c)
                    && ((not (Partial.has_predicates c)) || fresh canon (Partial.canonical_key c))
                  in
                  offers := (Partial.key c, admitted) :: !offers;
                  if admitted && V.verify_static env c then
                    let w = float_of_int (V.static_warnings env c) in
                    Duocore.Frontier.push f
                      { c with
                        Partial.confidence =
                          c.Partial.confidence *. (config.Enumerate.static_penalty ** w) })
                (Enumerate.expand ~guided:config.Enumerate.guided hints ctx p)
          end;
          loop ()
  in
  loop ();
  (List.rev !cands, List.rev !offers, List.rev !pops)

(* The run against [eager_run]: the same candidates with the same
   confidences and pop counts.  The run offers a child only when the
   search reaches it, so its offers are some of the reference's, with
   the reference's verdicts, and they include every state the reference
   popped, admitted.  Returns the reference's pops. *)
let check_eager name config ctx db ~tsq =
  let offers = ref [] in
  let o =
    let s =
      Enumerate.init config ctx db ~tsq ~literals:[]
        ~on_offer:(fun c admitted -> offers := (Partial.key c, admitted) :: !offers) ()
    in
    ignore (Enumerate.step s);
    Enumerate.outcome s
  in
  let cands, eager_offers, eager_pops = eager_run config ctx db ~tsq in
  Alcotest.(check int) (name ^ ": same pops") (List.length eager_pops) o.Enumerate.out_pops;
  let rec sub_multiset xs ys =
    match xs, ys with
    | [], _ -> true
    | _ :: _, [] -> false
    | x :: xs', y :: ys' ->
        let c = compare x y in
        if c = 0 then sub_multiset xs' ys' else c > 0 && sub_multiset xs ys'
  in
  Alcotest.(check bool) (name ^ ": the reached children, with the reference's verdicts") true
    (sub_multiset (List.sort compare !offers) (List.sort compare eager_offers));
  Alcotest.(check bool) (name ^ ": every reference pop was reached and admitted") true
    (List.for_all
       (fun (p : Partial.t) -> p == Partial.root || List.mem (Partial.key p, true) !offers)
       eager_pops);
  Alcotest.(check bool) (name ^ ": children were left unreached") true
    (List.length !offers < List.length eager_offers);
  Alcotest.(check (list (triple string (float 0.0) int)))
    (name ^ ": same candidates") cands
    (List.map
       (fun c ->
         (Duosql.Pretty.query c.Enumerate.cand_query, c.Enumerate.cand_confidence,
          c.Enumerate.cand_pops))
       o.Enumerate.out_candidates);
  Alcotest.(check bool) (name ^ ": warnings met") true
    (o.Enumerate.out_stats.Duocore.Verify.static_warnings > 0);
  eager_pops

(* A warned child whose penalised confidence falls below a sibling's
   pops after that sibling: the run pops what penalising at push pops,
   and at a penalty of 0.1 the C1 constant-output warning on
   [title = 'VLDB'] drops that child below its LIKE sibling. *)
let test_lazy_penalty_order () =
  let db = Lazy.force mas in
  let task = mas_task "C1" in
  let ctx = mas_ctx task in
  ignore (check_eager "C1 at 0.85" mas_config ctx db ~tsq:None);
  let penalty = 0.1 in
  let pops =
    check_eager "C1 at 0.1" { mas_config with Enumerate.static_penalty = penalty } ctx db
      ~tsq:None
  in
  let env = Duocore.Verify.make_env ~db ~tsq:None ~literals:[] () in
  let rank = Hashtbl.create 64 in
  List.iteri (fun i p -> Hashtbl.replace rank (Partial.key p) i) pops;
  let overtaken p =
    (* a child that never popped within the budget ranks last *)
    let kids =
      List.map
        (fun (c : Partial.t) ->
          ( c,
            Option.value ~default:max_int (Hashtbl.find_opt rank (Partial.key c)),
            Duocore.Verify.static_warnings env c ))
        (Enumerate.expand ~guided:true Enumerate.no_hints ctx p)
    in
    List.exists
      (fun ((w : Partial.t), iw, n) ->
        let penalised = w.Partial.confidence *. (penalty ** float_of_int n) in
        n > 0
        && List.exists
             (fun ((s : Partial.t), is, m) ->
               m = 0
               && s.Partial.confidence < w.Partial.confidence
               && s.Partial.confidence > penalised
               && is < iw)
             kids)
      kids
  in
  Alcotest.(check bool) "a sibling overtakes a warned child" true (List.exists overtaken pops);
  (* and in dual mode, where the other stages discard states at pop *)
  let tsq =
    Duobench.Tsq_synth.synthesize (Duobench.Rng.create 29) db (Duobench.Mas.gold task)
      ~detail:Duobench.Tsq_synth.Full
  in
  ignore (check_eager "C1 dual" mas_config ctx db ~tsq)

(* A settled state goes back under its own sequence number, so it keeps
   its place among states of equal confidence and join length.  With a
   penalty of 1 a warned state goes back under its old key; with the
   Table 4 rules off, D2's warned constant-output states survive their
   settled pop and tie with unwarned cousins queued after them, so a
   settle that queued them behind their ties would change the pops. *)
let test_settled_fifo_on_ties () =
  let db = Lazy.force mas in
  let config = { mas_config with Enumerate.static_penalty = 1.0; semantic_rules = false } in
  List.iter
    (fun id ->
      let task = mas_task id in
      ignore (check_eager (id ^ " at penalty 1") config (mas_ctx task) db ~tsq:None))
    [ "C1"; "D2" ]

(* A child that fails [static] is queued like any other: it is offered
   and admitted, so it takes its visited (and canonical) slot, and when
   it is popped it is discarded without costing a pop.  (A key twin of
   a dead state is never generated here: the decision that kills a
   state never coincides with a key collision.  The slot rule's
   soundness is Duocheck's partition property, [static] included.) *)
let test_static_dead_costs_no_pop () =
  let db = Lazy.force mas in
  let task = mas_task "C1" in
  let env = Duocore.Verify.make_env ~db ~tsq:None ~literals:[] () in
  let dead_admitted = ref 0 in
  let on_offer c admitted =
    if admitted && not (Duocore.Verify.verify_static env c) then incr dead_admitted
  in
  let s = Enumerate.init mas_config (mas_ctx task) db ~tsq:None ~literals:[] ~on_offer () in
  let static_pruned (o : Enumerate.outcome) =
    Duocore.Verify.pruned_by o.Enumerate.out_stats Duocore.Verify.S_static
  in
  let slices_with_discard = ref 0 in
  let rec go () =
    let before = Enumerate.outcome s in
    match Enumerate.step ~max_pops:1 s with
    | Enumerate.Finished -> ()
    | Enumerate.Running ->
        let after = Enumerate.outcome s in
        Alcotest.(check int) "one pop per slice" (before.Enumerate.out_pops + 1)
          after.Enumerate.out_pops;
        if static_pruned after > static_pruned before then
          incr slices_with_discard;
        go ()
  in
  go ();
  Alcotest.(check bool) "static-dead children were admitted" true (!dead_admitted > 0);
  Alcotest.(check bool) "and discarded at pop inside one-pop slices" true
    (!slices_with_discard > 0);
  Alcotest.(check bool) "no more discards than admissions" true
    (static_pruned (Enumerate.outcome s) <= !dead_admitted)

let test_penalty_range () =
  let init penalty =
    ignore
      (Enumerate.init { Enumerate.default_config with Enumerate.static_penalty = penalty }
         (ctx "movie names") db ~tsq:None ~literals:[] ())
  in
  List.iter
    (fun p ->
      Alcotest.check_raises (Printf.sprintf "penalty %g rejected" p)
        (Invalid_argument "Enumerate.init: static_penalty outside [0, 1]") (fun () -> init p))
    [ 1.01; -0.1; Float.nan; Float.infinity ];
  List.iter init [ 0.0; 0.5; 1.0 ]

let test_resume_identical_duopar () =
  (* a multi-domain config pauses and resumes like the sequential run *)
  let full = run_at ~domains:1 "movie names and years" in
  let st, _ = stepped ~slice:3 ~domains:4 "movie names and years" in
  check_identical full st;
  check_flags full st

let test_resume_exhaustion_flags () =
  let tsq =
    Duocore.Tsq.make ~types:[ Duodb.Datatype.Text ]
      ~tuples:[ [ Duocore.Tsq.Exact (Duodb.Value.Text "No Such Value Anywhere") ] ]
      ()
  in
  let config =
    { Enumerate.default_config with
      Enumerate.max_pops = 200_000;
      time_budget_s = 20.0 }
  in
  let full = Enumerate.run config (ctx "names") db ~tsq:(Some tsq) ~literals:[] () in
  let st, _ = stepped ~slice:17 ~domains:1 ~tsq ~config "names" in
  Alcotest.(check bool) "exhaustive run" true full.Enumerate.out_exhausted;
  check_identical full st;
  check_flags full st

let test_resume_snapshot_prefix () =
  (* a mid-run snapshot's candidates are a prefix of the final list *)
  let config = config_for ~domains:1 in
  let s =
    Enumerate.init config (ctx "movie names and years") db ~tsq:None
      ~literals:[] ()
  in
  let rec drive snapshots =
    let snap = Enumerate.outcome s in
    match Enumerate.step ~max_pops:40 s with
    | Enumerate.Running -> drive (snap :: snapshots)
    | Enumerate.Finished -> (Enumerate.outcome s, snapshots)
  in
  let final, snapshots = drive [] in
  let final_sigs = candidate_sigs final in
  List.iter
    (fun snap ->
      let sigs = candidate_sigs snap in
      let n = List.length sigs in
      Alcotest.(check (list (triple string int int)))
        "snapshot is a prefix of the final candidates" sigs
        (List.filteri (fun i _ -> i < n) final_sigs))
    snapshots

(* An outcome taken mid-run is a snapshot: stepping the run on to the
   end must not move its counters. *)
let test_resume_snapshot_fixed () =
  let counters (o : Enumerate.outcome) =
    let st = o.Enumerate.out_stats in
    st.Duocore.Verify.pruned :: st.Duocore.Verify.visited_hits
    :: st.Duocore.Verify.canon_checked :: st.Duocore.Verify.column_probes
    :: List.map (Duocore.Verify.pruned_by st) Duocore.Verify.all_stages
  in
  let tsq =
    Duocore.Tsq.make ~types:[ Duodb.Datatype.Text ]
      ~tuples:[ [ Duocore.Tsq.Exact (Duodb.Value.Text "Forrest Gump") ] ]
      ()
  in
  let s =
    Enumerate.init (config_for ~domains:1) (ctx "movie names") db
      ~tsq:(Some tsq) ~literals:[] ()
  in
  ignore (Enumerate.step ~max_pops:40 s);
  let snap = Enumerate.outcome s in
  let before = counters snap in
  ignore (Enumerate.step s);
  Alcotest.(check bool) "the run moved on" true
    (counters (Enumerate.outcome s) <> before);
  Alcotest.(check (list int)) "snapshot unchanged" before (counters snap)

let suite =
  [
    Alcotest.test_case "root expansion" `Quick test_root_expansion;
    Alcotest.test_case "resume: stepped NLI run identical" `Quick
      test_resume_identical_nli;
    Alcotest.test_case "resume: stepped dual-spec run identical" `Quick
      test_resume_identical_dual;
    Alcotest.test_case "resume: stepped duopar run identical" `Quick
      test_resume_identical_duopar;
    Alcotest.test_case "NoPQ: complete states verified at pop" `Quick
      test_nopq_verifies_complete_on_pop;
    Alcotest.test_case "lazy penalty: a sibling overtakes a warned child" `Quick
      test_lazy_penalty_order;
    Alcotest.test_case "lazy penalty: a settled state keeps FIFO on ties" `Quick
      test_settled_fifo_on_ties;
    Alcotest.test_case "static at pop: a dead child is queued, costs no pop" `Quick
      test_static_dead_costs_no_pop;
    Alcotest.test_case "static_penalty outside [0, 1] rejected" `Quick test_penalty_range;
    Alcotest.test_case "MAS A1-D3: no frontier drops at the default cap" `Quick
      test_mas_no_frontier_drops;
    Alcotest.test_case "resume: exhaustion flags survive pausing" `Quick
      test_resume_exhaustion_flags;
    Alcotest.test_case "resume: snapshots are prefixes" `Quick
      test_resume_snapshot_prefix;
    Alcotest.test_case "resume: snapshot counters stay fixed" `Quick
      test_resume_snapshot_fixed;
    Alcotest.test_case "duopar: NLI run identical" `Quick
      test_parallel_identical_nli;
    Alcotest.test_case "duopar: dual-spec run identical" `Quick
      test_parallel_identical_dual;
    Alcotest.test_case "duopar: exhaustion identical" `Quick
      test_parallel_exhaustion_identical;
    Alcotest.test_case "confidence partition" `Quick test_confidence_partition;
    Alcotest.test_case "uniform mode" `Quick test_uniform_mode;
    Alcotest.test_case "done is terminal" `Quick test_done_is_terminal;
    Alcotest.test_case "hints from TSQ" `Quick test_hints_of_tsq;
    Alcotest.test_case "pop budget respected" `Quick test_run_respects_budget;
    Alcotest.test_case "impossible TSQ yields nothing" `Quick test_run_exhausts_tiny_space;
    Alcotest.test_case "dropped states veto exhaustion" `Quick
      test_dropped_states_veto_exhaustion;
    Alcotest.test_case "time budget is wall-clock" `Quick
      test_time_budget_is_wall_clock;
    Alcotest.test_case "candidates unique" `Quick test_candidates_unique;
    Alcotest.test_case "partial to_query" `Quick test_partial_to_query_roundtrip;
    Alcotest.test_case "partial keys" `Quick test_partial_key_distinguishes;
    Alcotest.test_case "key hash: Int vs Float literal" `Quick test_key_hash_int_float;
    Alcotest.test_case "key hash: direction without ORDER item" `Quick
      test_key_hash_dir_without_order;
    Alcotest.test_case "key hash: reordered FROM tables" `Quick test_key_hash_from_order;
    Alcotest.test_case "canonical: no-predicate vs predicate" `Quick
      test_canonical_no_pred_vs_pred;
    Alcotest.test_case "canonical: exact duplicate conjunct stays apart" `Quick
      test_canonical_exact_duplicate;
    Alcotest.test_case "dedup counters" `Quick test_dedup_counters;
    Alcotest.test_case "prune attribution" `Quick test_stats_attribution;
  ]
