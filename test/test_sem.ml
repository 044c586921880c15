(* Duosem: the canonicalizer (semantically equal candidates render to one
   key), the database-free cardinality bounder, the constraint reasoner,
   and the enumerator counters the bench reports (dedup_semantic and the
   cardinality stage's prunes). *)

open Duosql.Ast
module Value = Duodb.Value
module Duosem = Duolint.Duosem

let schema = Fixtures.movie_schema
let pre = Duosem.prepare schema
let i n = Value.Int n
let t s = Value.Text s

let movies_from = from_table "movies"

let star_movies_from =
  { f_tables = [ "starring"; "movies" ];
    f_joins = [ { j_from = col "starring" "mid"; j_to = col "movies" "mid" } ] }

let where preds = Some { c_preds = preds; c_conn = And }

(* --- canonicalizer --- *)

let test_between_vs_range () =
  let year = col "movies" "year" in
  let q_range =
    { (simple [ proj_col (col "movies" "name") ] movies_from) with
      q_where = where [ pred year Ge (i 1990); pred year Le (i 1999) ] }
  in
  let q_between =
    { (simple [ proj_col (col "movies" "name") ] movies_from) with
      q_where = where [ between year (i 1990) (i 1999) ] }
  in
  Alcotest.(check bool) "range = BETWEEN" true
    (Duosem.equal_queries q_range q_between)

let test_commuted_join () =
  let projs = [ proj_col (col "movies" "name") ] in
  let flipped =
    { f_tables = [ "movies"; "starring" ];
      f_joins = [ { j_from = col "movies" "mid"; j_to = col "starring" "mid" } ] }
  in
  Alcotest.(check bool) "join commutes" true
    (Duosem.equal_queries (simple projs star_movies_from) (simple projs flipped))

let test_conjunct_order () =
  let p1 = pred (col "movies" "year") Gt (i 1990) in
  let p2 = pred (col "movies" "name") Neq (t "Seven") in
  let q ps =
    { (simple [ proj_col (col "movies" "name") ] movies_from) with q_where = where ps }
  in
  Alcotest.(check bool) "AND commutes" true
    (Duosem.equal_queries (q [ p1; p2 ]) (q [ p2; p1 ]));
  Alcotest.(check bool) "different predicates differ" false
    (Duosem.equal_queries (q [ p1 ]) (q [ p2 ]))

let test_subsumed_conjunct_folds () =
  let year = col "movies" "year" in
  let q ps =
    { (simple [ proj_col (col "movies" "name") ] movies_from) with q_where = where ps }
  in
  Alcotest.(check bool) "x>2 AND x>5 = x>5" true
    (Duosem.equal_queries
       (q [ pred year Gt (i 2); pred year Gt (i 5) ])
       (q [ pred year Gt (i 5) ]));
  (* a point pinch folds to equality *)
  Alcotest.(check bool) "x>=5 AND x<=5 = x=5" true
    (Duosem.equal_queries
       (q [ pred year Ge (i 5); pred year Le (i 5) ])
       (q [ pred year Eq (i 5) ]))

let test_unsat_conjuncts_kept () =
  (* Bot: the fold must not invent a rewriting for a contradiction *)
  let year = col "movies" "year" in
  let ps = [ pred year Gt (i 5); pred year Lt (i 3) ] in
  Alcotest.(check int) "both conjuncts survive" 2
    (List.length (Duosem.canonical_conjuncts ps))

let test_order_sensitive_from_kept () =
  (* LIMIT makes the result observe scan order: FROM stays verbatim in the
     canonical query, while dedup_key still coarsens it *)
  let projs = [ proj_col (col "starring" "sid") ] in
  let q = { (simple projs star_movies_from) with q_limit = Some 1 } in
  let flipped =
    { q with
      q_from =
        { f_tables = [ "movies"; "starring" ];
          f_joins =
            [ { j_from = col "movies" "mid"; j_to = col "starring" "mid" } ] } }
  in
  Alcotest.(check bool) "canonical keys differ under LIMIT" false
    (Duosem.equal_queries q flipped);
  Alcotest.(check string) "dedup keys collide" (Duosem.dedup_key q)
    (Duosem.dedup_key flipped)

(* --- cardinality bounder --- *)

let card = Alcotest.testable
    (fun fmt c -> Format.pp_print_string fmt (Duosem.card_to_string c))
    (fun (a : Duosem.card) b -> a.c_lo = b.c_lo && a.c_hi = b.c_hi)

let test_bound_agg_no_group () =
  Alcotest.check card "COUNT(*) with no grouping = [1,1]"
    { Duosem.c_lo = 1; c_hi = Some 1 }
    (Duosem.bound_query pre (simple [ count_star ] movies_from))

let test_bound_pinned_pk () =
  let q =
    { (simple [ proj_col (col "movies" "name") ] movies_from) with
      q_where = where [ pred (col "movies" "mid") Eq (i 10) ] }
  in
  Alcotest.check card "PK point lookup = [0,1]"
    { Duosem.c_lo = 0; c_hi = Some 1 } (Duosem.bound_query pre q);
  (* a non-key point predicate bounds nothing *)
  let q' =
    { q with q_where = where [ pred (col "movies" "name") Eq (t "Seven") ] }
  in
  Alcotest.check card "non-key point = unbounded"
    { Duosem.c_lo = 0; c_hi = None } (Duosem.bound_query pre q')

let test_bound_pk_closure () =
  (* pinning starring by its PK pins actor through the key-preserving
     edge actor.aid = starring.aid *)
  let q =
    { (simple
         [ proj_col (col "actor" "name") ]
         { f_tables = [ "starring"; "actor" ];
           f_joins =
             [ { j_from = col "starring" "aid"; j_to = col "actor" "aid" } ] })
      with
      q_where = where [ pred (col "starring" "sid") Eq (i 1) ] }
  in
  Alcotest.check card "closure over FK edge = [0,1]"
    { Duosem.c_lo = 0; c_hi = Some 1 } (Duosem.bound_query pre q)

let test_bound_limit () =
  let q = { (simple [ proj_col (col "movies" "name") ] movies_from) with q_limit = Some 3 } in
  Alcotest.check card "LIMIT 3 caps at 3"
    { Duosem.c_lo = 0; c_hi = Some 3 } (Duosem.bound_query pre q)

let test_bound_pinned_group_key () =
  (* grouping by a column the conjuncts pin to one constant: one group *)
  let name = col "movies" "name" in
  let q =
    { (simple [ proj_col name; count_star ] movies_from) with
      q_where = where [ pred name Eq (t "Seven") ];
      q_group_by = [ name ] }
  in
  Alcotest.check card "pinned group key = [0,1]"
    { Duosem.c_lo = 0; c_hi = Some 1 } (Duosem.bound_query pre q);
  (* an unpinned group key bounds nothing *)
  let q' = { q with q_where = None } in
  Alcotest.check card "free group key = unbounded"
    { Duosem.c_lo = 0; c_hi = None } (Duosem.bound_query pre q')

(* --- constraint reasoner --- *)

let test_redundant_distinct () =
  let q =
    { (simple [ proj_col (col "movies" "mid") ] movies_from) with q_distinct = true }
  in
  Alcotest.(check bool) "DISTINCT over the full PK" true
    (Duosem.redundant_distinct pre q);
  let q' =
    { (simple [ proj_col (col "movies" "name") ] movies_from) with q_distinct = true }
  in
  Alcotest.(check bool) "DISTINCT over a plain column" false
    (Duosem.redundant_distinct pre q')

let test_eliminable_joins () =
  (* movies is unreferenced and joined on its full PK: the join can only
     restrict starring rows, and FK integrity makes it a no-op *)
  let q = simple [ proj_col (col "starring" "sid") ] star_movies_from in
  Alcotest.(check (list string)) "movies removable" [ "movies" ]
    (Duosem.eliminable_joins pre q);
  (* referencing the joined table keeps it *)
  let q' =
    simple [ proj_col (col "starring" "sid"); proj_col (col "movies" "name") ]
      star_movies_from
  in
  Alcotest.(check (list string)) "referenced table kept" []
    (Duosem.eliminable_joins pre q')

let test_explain () =
  let q =
    { (simple [ count_star ] movies_from) with
      q_where = where [ pred (col "movies" "mid") Eq (i 10) ] }
  in
  let ex = Duosem.explain pre q in
  Alcotest.(check bool) "canonical key non-empty" true
    (String.length ex.Duosem.ex_canonical > 0);
  Alcotest.check card "explained bound" { Duosem.c_lo = 1; c_hi = Some 1 }
    ex.Duosem.ex_card

(* --- enumerator counters (the bench's duosem section) --- *)

let test_mas_counters () =
  (* The same deterministic A1 setup the bench profiles: deep enough that
     both semantic dedup and the database-free cardinality prune fire. *)
  let db = Duobench.Mas.database () in
  let session = Duocore.Duoquest.create_session db in
  let task = List.hd Duobench.Mas.nli_study_tasks in
  let rng = Duobench.Rng.create 29 in
  let tsq =
    Duobench.Tsq_synth.synthesize rng db (Duobench.Mas.gold task)
      ~detail:Duobench.Tsq_synth.Full
  in
  let config =
    { Duocore.Enumerate.default_config with
      Duocore.Enumerate.max_pops = 6_000;
      max_candidates = 40;
      time_budget_s = 30.0 }
  in
  let outcome =
    Duocore.Duoquest.synthesize ~config ?tsq
      ~literals:task.Duobench.Mas.task_literals session
      ~nlq:task.Duobench.Mas.task_nlq ()
  in
  let st = outcome.Duocore.Enumerate.out_stats in
  Alcotest.(check bool) "dedup_semantic fired" true
    (st.Duocore.Verify.dedup_semantic > 0);
  Alcotest.(check bool) "cardinality prune fired" true
    (Duocore.Verify.pruned_by st Duocore.Verify.S_cardinality > 0);
  Alcotest.(check bool) "candidates still found" true
    (outcome.Duocore.Enumerate.out_candidates <> [])

(* A run whose canonical layer fires (two-predicate WHERE clauses in
   both orders): the hashed visited set and the predicate-only canonical
   layer admit exactly the states the string-keyed two-layer dedup
   admits, offer by offer, over the children the run reaches; and the
   run's candidates, confidences and pops are those of the loop that
   builds and admits every child at its parent's expansion. *)
let test_dedup_replay () =
  let db = Duobench.Movies.database () in
  let session = Duocore.Duoquest.create_session db in
  let index = Duocore.Duoquest.session_index session in
  let analyzed =
    Duonl.Nlq.with_literals ~index "movies with revenue above 300 and year after 1995"
      [ Duodb.Value.Int 300; Duodb.Value.Int 1995 ]
  in
  let ctx = Duoguide.Model.make ~index (Duodb.Database.schema db) analyzed in
  let literals = List.map (fun l -> l.Duonl.Nlq.lit_value) analyzed.Duonl.Nlq.literals in
  let config =
    { Duocore.Enumerate.default_config with
      Duocore.Enumerate.max_pops = 2_000;
      max_candidates = 40;
      time_budget_s = 30.0 }
  in
  let r = Duocheck.Props.new_replay () in
  let st =
    Duocore.Enumerate.init config ctx db ~index ~tsq:None ~literals
      ~on_offer:(Duocheck.Props.replay_offer r) ()
  in
  ignore (Duocore.Enumerate.step st);
  let o = Duocore.Enumerate.outcome st in
  (match r.Duocheck.Props.rp_mismatch with
  | Some (k, expected) ->
      Alcotest.failf "%s" ((if expected then "hashed dedup rejected " else "hashed dedup admitted ") ^ k)
  | None -> ());
  Alcotest.(check bool) "the canonical layer fired" true (r.Duocheck.Props.rp_canon_hits > 0);
  Alcotest.(check int) "visited hits match the replay" r.Duocheck.Props.rp_hits
    o.Duocore.Enumerate.out_stats.Duocore.Verify.visited_hits;
  Alcotest.(check int) "admitted offers are the pushes" (r.Duocheck.Props.rp_admitted + 1)
    o.Duocore.Enumerate.out_pushed;
  Alcotest.(check (option string)) "the eager reference's candidates and pops" None
    (Duocheck.Props.lazy_eager_diff config ctx db ~index ~tsq:None ~literals ())

let suite =
  [
    Alcotest.test_case "canon: BETWEEN vs range" `Quick test_between_vs_range;
    Alcotest.test_case "canon: join commutes" `Quick test_commuted_join;
    Alcotest.test_case "canon: conjunct order" `Quick test_conjunct_order;
    Alcotest.test_case "canon: subsumption folds" `Quick test_subsumed_conjunct_folds;
    Alcotest.test_case "canon: unsat kept" `Quick test_unsat_conjuncts_kept;
    Alcotest.test_case "canon: order-sensitive FROM" `Quick test_order_sensitive_from_kept;
    Alcotest.test_case "bound: agg without group" `Quick test_bound_agg_no_group;
    Alcotest.test_case "bound: pinned PK" `Quick test_bound_pinned_pk;
    Alcotest.test_case "bound: PK closure" `Quick test_bound_pk_closure;
    Alcotest.test_case "bound: limit" `Quick test_bound_limit;
    Alcotest.test_case "bound: pinned group key" `Quick test_bound_pinned_group_key;
    Alcotest.test_case "reason: redundant DISTINCT" `Quick test_redundant_distinct;
    Alcotest.test_case "reason: eliminable joins" `Quick test_eliminable_joins;
    Alcotest.test_case "reason: explain" `Quick test_explain;
    Alcotest.test_case "enumerate: MAS counters" `Slow test_mas_counters;
    Alcotest.test_case "enumerate: dedup = string-keyed replay" `Quick test_dedup_replay;
  ]
