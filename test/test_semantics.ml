module Semantics = Duocore.Semantics

let schema = Fixtures.movie_schema
let parse = Fixtures.parse

let check_rejects name sql expected =
  Alcotest.test_case name `Quick (fun () ->
      match Semantics.check_query schema (parse sql) with
      | Error v ->
          Alcotest.(check string) name expected (Semantics.violation_to_string v)
      | Ok () -> Alcotest.fail (Printf.sprintf "%s: expected rejection" sql))

let check_accepts name sql =
  Alcotest.test_case name `Quick (fun () ->
      match Semantics.check_query schema (parse sql) with
      | Ok () -> ()
      | Error v ->
          Alcotest.fail
            (Printf.sprintf "%s: unexpectedly rejected (%s)" sql
               (Semantics.violation_to_string v)))

let test_condition_consistency () =
  let mk sql =
    match (parse sql).Duosql.Ast.q_where with
    | Some c -> c
    | None -> Alcotest.fail "expected where"
  in
  Alcotest.(check bool) "contradicting equalities" false
    (Semantics.condition_consistent
       (mk "SELECT movies.year FROM movies WHERE movies.name = 'A' AND movies.name = 'B'"));
  Alcotest.(check bool) "same under OR is fine" true
    (Semantics.condition_consistent
       (mk "SELECT movies.year FROM movies WHERE movies.name = 'A' OR movies.name = 'B'"));
  Alcotest.(check bool) "empty numeric interval" false
    (Semantics.condition_consistent
       (mk "SELECT movies.name FROM movies WHERE movies.year > 2000 AND movies.year < 1999"));
  Alcotest.(check bool) "touching interval ok" true
    (Semantics.condition_consistent
       (mk "SELECT movies.name FROM movies WHERE movies.year >= 2000 AND movies.year <= 2000"));
  Alcotest.(check bool) "strict touching empty" false
    (Semantics.condition_consistent
       (mk "SELECT movies.name FROM movies WHERE movies.year > 2000 AND movies.year <= 2000"));
  Alcotest.(check bool) "duplicate predicate redundant" false
    (Semantics.condition_consistent
       (mk "SELECT movies.name FROM movies WHERE movies.year > 2000 AND movies.year > 2000"));
  Alcotest.(check bool) "different columns independent" true
    (Semantics.condition_consistent
       (mk "SELECT movies.name FROM movies WHERE movies.year > 2000 AND movies.revenue < 10"))

let test_catalogue_completeness () =
  Alcotest.(check int) "eight catalogued rules" 8 (List.length Semantics.catalogue)

(* Table 4 through the cascade: each catalogue example's complete
   derivation state is pruned by [static] (the rule is a Duolint error)
   or by [semantics] (Duolint only warns about it), and each
   alternative passes both. *)
let catalogue_stage =
  [ ("Inconsistent predicates", "static");
    ("Constant output column", "semantics");
    ("Ungrouped aggregation", "static");
    ("GROUP BY with singleton groups", "static");
    ("Unnecessary GROUP BY", "static");
    ("Aggregate type usage", "static");
    ("Faulty type comparison", "static");
    ("Faulty type comparison (LIKE)", "static") ]

let test_catalogue_through_cascade () =
  let module Verify = Duocore.Verify in
  let db = Duobench.Movies.database () in
  let schema = Duodb.Database.schema db in
  let env = Verify.make_env ~db ~tsq:None ~literals:[] () in
  let complete_state sql =
    match
      Duocheck.Soundness.derivation_states schema (Duosql.Parser.query_exn ~schema sql)
    with
    | Some states ->
        let t = List.nth states (List.length states - 1) in
        Alcotest.(check bool) (sql ^ " derives a complete state") true
          (Duocore.Partial.is_complete t);
        t
    | None -> Alcotest.failf "%s is outside the enumeration space" sql
  in
  let pruned_by t =
    if not (Verify.verify_static env t) then "static"
    else if not (Verify.verify_semantics env t) then "semantics"
    else "neither"
  in
  List.iter
    (fun (name, example, alternative) ->
      Alcotest.(check string) (name ^ ": example pruned by")
        (List.assoc name catalogue_stage)
        (pruned_by (complete_state example));
      if alternative <> "N/A" then
        Alcotest.(check string) (name ^ ": alternative pruned by") "neither"
          (pruned_by (complete_state alternative)))
    Semantics.catalogue

let suite =
  [
    check_rejects "inconsistent predicates"
      "SELECT actor.name FROM actor WHERE actor.name = 'Tom Hanks' AND actor.name = 'Brad Pitt'"
      "inconsistent predicates";
    check_accepts "or alternative"
      "SELECT actor.name FROM actor WHERE actor.name = 'Tom Hanks' OR actor.name = 'Brad Pitt'";
    check_rejects "constant output column"
      "SELECT actor.name, actor.birth_yr FROM actor WHERE actor.birth_yr = 1956"
      "constant output column";
    check_accepts "constant output fixed"
      "SELECT actor.name FROM actor WHERE actor.birth_yr = 1956";
    check_rejects "ungrouped aggregation"
      "SELECT actor.birth_yr, COUNT(*) FROM actor" "ungrouped aggregation";
    check_accepts "grouped aggregation"
      "SELECT actor.birth_yr, COUNT(*) FROM actor GROUP BY actor.birth_yr";
    check_rejects "singleton groups"
      "SELECT actor.aid, MAX(actor.birth_yr) FROM actor GROUP BY actor.aid"
      "GROUP BY with singleton groups";
    check_rejects "unnecessary group by"
      "SELECT actor.name FROM actor GROUP BY actor.name" "unnecessary GROUP BY";
    check_accepts "group by justified by having"
      "SELECT a.name FROM actor a JOIN starring s ON a.aid = s.aid GROUP BY a.name \
       HAVING COUNT(*) >= 2";
    check_rejects "aggregate type usage" "SELECT AVG(actor.name) FROM actor"
      "aggregate type usage";
    check_rejects "faulty comparison on text"
      "SELECT actor.name FROM actor WHERE actor.name >= 'Tom Hanks'"
      "faulty type comparison";
    check_rejects "LIKE on numeric"
      "SELECT actor.birth_yr FROM actor WHERE actor.birth_yr LIKE '%1956%'"
      "faulty type comparison";
    check_rejects "projection not in group by"
      "SELECT actor.name, actor.gender, COUNT(*) FROM actor GROUP BY actor.gender"
      "ungrouped aggregation";
    check_accepts "order by aggregate justifies group"
      "SELECT a.gender FROM actor a GROUP BY a.gender ORDER BY COUNT(*) DESC";
    Alcotest.test_case "condition consistency" `Quick test_condition_consistency;
    Alcotest.test_case "catalogue" `Quick test_catalogue_completeness;
    Alcotest.test_case "catalogue through the cascade" `Quick test_catalogue_through_cascade;
  ]
