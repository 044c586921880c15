module Tsq = Duocore.Tsq
module Value = Duodb.Value

let db = Fixtures.movie_db ()
let parse = Fixtures.parse
let t s = Value.Text s
let i n = Value.Int n

let test_cell_matching () =
  Alcotest.(check bool) "any" true (Tsq.cell_matches Tsq.Any (t "x"));
  Alcotest.(check bool) "exact hit" true (Tsq.cell_matches (Tsq.Exact (i 5)) (i 5));
  Alcotest.(check bool) "exact cross-repr" true
    (Tsq.cell_matches (Tsq.Exact (i 5)) (Value.Float 5.0));
  Alcotest.(check bool) "exact miss" false (Tsq.cell_matches (Tsq.Exact (i 5)) (i 6));
  Alcotest.(check bool) "range hit" true
    (Tsq.cell_matches (Tsq.Range (i 2010, i 2017)) (i 2013));
  Alcotest.(check bool) "range boundary" true
    (Tsq.cell_matches (Tsq.Range (i 2010, i 2017)) (i 2017));
  Alcotest.(check bool) "range miss" false
    (Tsq.cell_matches (Tsq.Range (i 2010, i 2017)) (i 2009));
  Alcotest.(check bool) "range rejects null" false
    (Tsq.cell_matches (Tsq.Range (i 0, i 9)) Value.Null)

let test_empty_tsq_accepts_plain_query () =
  Alcotest.(check bool) "plain query ok" true
    (Tsq.satisfies Tsq.empty db (parse "SELECT movies.name FROM movies"))

let test_sorted_flag_is_an_implication () =
  (* tau = false leaves the order unconstrained: Definition 2.4 only
     requires ORDER BY *when* the sorted box is checked, so an unchecked
     box must not reject queries that happen to sort their output. *)
  Alcotest.(check bool) "unsorted TSQ accepts ORDER BY query" true
    (Tsq.satisfies Tsq.empty db
       (parse "SELECT movies.name FROM movies ORDER BY movies.year ASC"));
  (* the forward implication still holds: tau = true needs ORDER BY *)
  Alcotest.(check bool) "sorted TSQ rejects unsorted query" false
    (Tsq.satisfies (Tsq.make ~sorted:true ()) db
       (parse "SELECT movies.name FROM movies"))

let test_type_annotations () =
  let tsq = Tsq.make ~types:[ Duodb.Datatype.Text; Duodb.Datatype.Number ] () in
  Alcotest.(check bool) "matching types" true
    (Tsq.satisfies tsq db (parse "SELECT movies.name, movies.year FROM movies"));
  Alcotest.(check bool) "wrong arity" false
    (Tsq.satisfies tsq db (parse "SELECT movies.name FROM movies"));
  Alcotest.(check bool) "wrong types" false
    (Tsq.satisfies tsq db (parse "SELECT movies.name, actor.name FROM movies JOIN \
                                  starring ON movies.mid = starring.mid JOIN actor \
                                  ON starring.aid = actor.aid"))

let test_example_tuples () =
  let tsq =
    Tsq.make ~tuples:[ [ Tsq.Exact (t "Forrest Gump") ] ] ()
  in
  Alcotest.(check bool) "movie names contain it" true
    (Tsq.satisfies tsq db (parse "SELECT movies.name FROM movies"));
  Alcotest.(check bool) "actor names do not" false
    (Tsq.satisfies tsq db (parse "SELECT actor.name FROM actor"))

let test_distinct_tuples_required () =
  (* Two identical example tuples need two distinct result rows. *)
  let tsq =
    Tsq.make
      ~tuples:[ [ Tsq.Exact (t "Tom Hanks") ]; [ Tsq.Exact (t "Tom Hanks") ] ]
      ()
  in
  Alcotest.(check bool) "one Tom Hanks row is not enough" false
    (Tsq.satisfies tsq db (parse "SELECT actor.name FROM actor"));
  (* the starring join yields multiple Tom Hanks rows *)
  Alcotest.(check bool) "join provides distinct rows" true
    (Tsq.satisfies tsq db
       (parse "SELECT a.name FROM actor a JOIN starring s ON a.aid = s.aid"))

let test_ordered_matching () =
  let tsq =
    Tsq.make
      ~tuples:
        [ [ Tsq.Exact (t "Forrest Gump"); Tsq.Any ];
          [ Tsq.Exact (t "Gravity"); Tsq.Any ] ]
      ~sorted:true ()
  in
  Alcotest.(check bool) "ascending year: Gump (1994) before Gravity (2013)" true
    (Tsq.satisfies tsq db
       (parse "SELECT movies.name, movies.year FROM movies ORDER BY movies.year ASC"));
  Alcotest.(check bool) "descending year breaks the order" false
    (Tsq.satisfies tsq db
       (parse "SELECT movies.name, movies.year FROM movies ORDER BY movies.year DESC"))

let test_limit_flag () =
  let tsq = Tsq.make ~sorted:true ~limit:3 () in
  Alcotest.(check bool) "limit 3 ok" true
    (Tsq.satisfies tsq db
       (parse "SELECT movies.name FROM movies ORDER BY movies.year DESC LIMIT 3"));
  Alcotest.(check bool) "limit 5 exceeds k" false
    (Tsq.satisfies tsq db
       (parse "SELECT movies.name FROM movies ORDER BY movies.year DESC LIMIT 5"));
  Alcotest.(check bool) "missing limit fails" false
    (Tsq.satisfies tsq db
       (parse "SELECT movies.name FROM movies ORDER BY movies.year DESC"))

let test_shared_position_matcher () =
  let rows = [ [| t "a"; i 1 |]; [| t "b"; i 2 |] ] in
  let tuples =
    [ [ Tsq.Exact (t "a"); Tsq.Exact (i 1) ]; [ Tsq.Exact (t "b"); Tsq.Any ] ]
  in
  (* On full-width position lists the restricted matcher and the plain
     distinct matcher are the same function (they share the backtracking
     core), so their verdicts must coincide. *)
  Alcotest.(check bool) "full positions agree with distinct matcher"
    (Tsq.distinct_match_atleast 2 tuples rows)
    (Tsq.distinct_match_on ~support:2 [ (0, 0); (1, 1) ] tuples rows);
  (* Restricting to the decided column ignores the undecided cell... *)
  let tuples' = [ [ Tsq.Exact (t "a"); Tsq.Exact (i 99) ] ] in
  Alcotest.(check bool) "restricted positions skip undecided cells" true
    (Tsq.distinct_match_on ~support:1 [ (0, 0) ] tuples' rows);
  (* ... while the full-width check still sees the mismatch. *)
  Alcotest.(check bool) "full-width check fails on the bad cell" false
    (Tsq.distinct_match_atleast 1 tuples' rows);
  (* Cell indices beyond a tuple's width are unconstrained. *)
  Alcotest.(check bool) "out-of-width cell index matches anything" true
    (Tsq.distinct_match_on ~support:1 [ (1, 5) ] [ [ Tsq.Exact (t "a") ] ] rows);
  (* Distinctness: two identical tuples need two distinct rows. *)
  Alcotest.(check bool) "distinctness enforced through positions" false
    (Tsq.distinct_match_on ~support:2 [ (0, 0) ]
       [ [ Tsq.Exact (t "a") ]; [ Tsq.Exact (t "a") ] ]
       rows)

(* Feed [rows] to a fresh matcher the way the executor streams them,
   stopping when the matcher asks; returns the matcher and how many rows
   it consumed. *)
let stream_rows ~support positions tuples rows =
  let m = Tsq.matcher ~support positions tuples in
  let rec go i = function
    | [] -> i
    | row :: rest -> if Tsq.feed m i (Array.get row) then go (i + 1) rest else i + 1
  in
  let consumed = go 0 rows in
  (m, consumed)

let test_matcher_truncation_backtracks () =
  (* Tuple A matches rows 0..5, tuple B only row 0.  With two tuples each
     keeps at most two rows: A keeps 0 and 1, B keeps 0.  The first
     assignment tried (A -> 0) starves B, so the verdict needs the
     matcher to backtrack onto A's second kept row. *)
  let a = [ Tsq.Exact (t "x"); Tsq.Any ] and b = [ Tsq.Any; Tsq.Exact (i 0) ] in
  let rows = List.init 6 (fun k -> [| t "x"; i k |]) in
  let pos = [ (0, 0); (1, 1) ] in
  let m, consumed = stream_rows ~support:2 pos [ a; b ] rows in
  Alcotest.(check bool) "A and B get distinct rows" true (Tsq.matched m);
  Alcotest.(check bool) "agrees with the materialized matcher"
    (Tsq.distinct_match_on ~support:2 pos [ a; b ] rows)
    (Tsq.matched m);
  (* B never fills its quota, so the scan runs to the end *)
  Alcotest.(check int) "no early stop while B is open" 6 consumed;
  (* Two tuples matching every row stop the scan at the second row. *)
  let m, consumed = stream_rows ~support:2 pos [ a; a ] rows in
  Alcotest.(check bool) "duplicate tuples matched" true (Tsq.matched m);
  Alcotest.(check int) "stops once both quotas are full" 2 consumed

let test_matcher_min_support () =
  (* Three tuples, one of which matches nothing: support 2 is reachable,
     full support is not. *)
  let tuples =
    [ [ Tsq.Exact (t "a") ]; [ Tsq.Exact (t "b") ]; [ Tsq.Exact (t "zzz") ] ]
  in
  let rows = [ [| t "a" |]; [| t "b" |]; [| t "a" |] ] in
  List.iter
    (fun support ->
      let m, _ = stream_rows ~support [ (0, 0) ] tuples rows in
      Alcotest.(check bool)
        (Printf.sprintf "support %d as materialized" support)
        (Tsq.distinct_match_on ~support [ (0, 0) ] tuples rows)
        (Tsq.matched m))
    [ 0; 1; 2; 3 ];
  let m, _ = stream_rows ~support:2 [ (0, 0) ] tuples rows in
  Alcotest.(check bool) "support 2 of 3 met" true (Tsq.matched m);
  let m, _ = stream_rows ~support:3 [ (0, 0) ] tuples rows in
  Alcotest.(check bool) "full support missed" false (Tsq.matched m);
  (* through [satisfies]: the streamed plain-query path honours the
     sketch's threshold *)
  let q = parse "SELECT movies.name FROM movies" in
  let sketch min_support =
    Tsq.make
      ~tuples:
        [ [ Tsq.Exact (t "Gravity") ]; [ Tsq.Exact (t "Seven") ];
          [ Tsq.Exact (t "Jaws") ] ]
      ~min_support ()
  in
  Alcotest.(check bool) "2 of 3 movies present" true (Tsq.satisfies (sketch 2) db q);
  Alcotest.(check bool) "all 3 are not" false (Tsq.satisfies (sketch 3) db q)

let test_width () =
  Alcotest.(check (option int)) "from types" (Some 2)
    (Tsq.width (Tsq.make ~types:[ Duodb.Datatype.Text; Duodb.Datatype.Number ] ()));
  Alcotest.(check (option int)) "from tuples" (Some 1)
    (Tsq.width (Tsq.make ~tuples:[ [ Tsq.Any ] ] ()));
  Alcotest.(check (option int)) "unknown" None (Tsq.width Tsq.empty)

(* Soundness property: every query accepted by [satisfies] really contains
   a distinct matching row per example tuple, checked independently. *)
let prop_satisfies_soundness =
  QCheck.Test.make ~name:"satisfies implies per-tuple witnesses" ~count:60
    QCheck.(pair (int_range 1990 2020) bool)
    (fun (year, asc) ->
      let q =
        Fixtures.parse
          (Printf.sprintf
             "SELECT movies.name, movies.year FROM movies WHERE movies.year \
              >= %d ORDER BY movies.year %s"
             year
             (if asc then "ASC" else "DESC"))
      in
      let res = Duoengine.Executor.run_exn db q in
      match res.Duoengine.Executor.res_rows with
      | first :: _ ->
          let tuple = Array.to_list (Array.map (fun v -> Tsq.Exact v) first) in
          let tsq = Tsq.make ~tuples:[ tuple ] ~sorted:true () in
          Tsq.satisfies tsq db q
      | [] -> QCheck.assume_fail ())

let suite =
  [
    Alcotest.test_case "cell matching" `Quick test_cell_matching;
    Alcotest.test_case "empty TSQ accepts" `Quick test_empty_tsq_accepts_plain_query;
    Alcotest.test_case "tau=false leaves order unconstrained" `Quick
      test_sorted_flag_is_an_implication;
    Alcotest.test_case "type annotations" `Quick test_type_annotations;
    Alcotest.test_case "example tuples" `Quick test_example_tuples;
    Alcotest.test_case "distinct witnesses" `Quick test_distinct_tuples_required;
    Alcotest.test_case "ordered matching" `Quick test_ordered_matching;
    Alcotest.test_case "limit flag" `Quick test_limit_flag;
    Alcotest.test_case "shared position matcher" `Quick test_shared_position_matcher;
    Alcotest.test_case "matcher: truncation backtracks" `Quick
      test_matcher_truncation_backtracks;
    Alcotest.test_case "matcher: min_support below tuple count" `Quick
      test_matcher_min_support;
    Alcotest.test_case "width" `Quick test_width;
    QCheck_alcotest.to_alcotest prop_satisfies_soundness;
  ]
