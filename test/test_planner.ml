(* The execution planner: pushdown rules, join-order safety, and a
   differential check that planned execution agrees with the naive
   reference interpreter over a generated query corpus. *)

module Value = Duodb.Value
module Executor = Duoengine.Executor
module Planner = Duoengine.Planner
open Duosql.Ast

let db = Fixtures.movie_db ()
let parse = Fixtures.parse

(* Planned execution agrees with the reference interpreter: the same
   rows in the same order, or both error out. *)
let reference_agrees db q =
  match (Executor.run db q, Duocheck.Reference.run db q) with
  | Ok a, Ok b -> Duocheck.Props.resultsets_agree a b
  | Error _, Error _ -> true
  | (Ok _ | Error _), (Ok _ | Error _) -> false

let check_differential db q =
  if not (reference_agrees db q) then
    Alcotest.failf "planner and reference diverge on %s" (Duosql.Pretty.query q)

(* --- pushdown rules --- *)

let plan_exn q =
  match Planner.plan db q with
  | Ok p -> p
  | Error e -> Alcotest.failf "plan failed: %s" e

let test_pushdown_and () =
  let q = parse "SELECT movies.name FROM movies WHERE movies.year < 1995 AND movies.revenue > 300" in
  let p = plan_exn q in
  Alcotest.(check bool) "pushdown applied" true p.Planner.plan_pushdown;
  Alcotest.(check bool) "no residual" true (p.Planner.plan_residual = None);
  match p.Planner.plan_pushed with
  | [ (t, cond) ] ->
      Alcotest.(check string) "pushed to movies" "movies" t;
      Alcotest.(check int) "both predicates" 2 (List.length cond.c_preds)
  | _ -> Alcotest.fail "expected one pushed table"

let test_pushdown_and_multi_table () =
  let q =
    parse
      "SELECT m.name FROM actor a JOIN starring s ON a.aid = s.aid JOIN movies m \
       ON s.mid = m.mid WHERE a.gender = 'male' AND m.year > 2000"
  in
  let p = plan_exn q in
  Alcotest.(check bool) "pushdown applied" true p.Planner.plan_pushdown;
  Alcotest.(check int) "two scan filters" 2 (List.length p.Planner.plan_pushed);
  Alcotest.(check bool) "no residual" true (p.Planner.plan_residual = None)

let test_no_pushdown_or_across_tables () =
  (* A disjunct spanning tables must NOT be pushed: a row failing one
     disjunct in its own table can still pass via the other table. *)
  let q =
    parse
      "SELECT m.name FROM actor a JOIN starring s ON a.aid = s.aid JOIN movies m \
       ON s.mid = m.mid WHERE a.gender = 'male' OR m.year > 2000"
  in
  let p = plan_exn q in
  Alcotest.(check bool) "no pushdown" false p.Planner.plan_pushdown;
  Alcotest.(check bool) "pushed empty" true (p.Planner.plan_pushed = []);
  Alcotest.(check bool) "whole WHERE residual" true
    (match p.Planner.plan_residual with
    | Some c -> List.length c.c_preds = 2 && c.c_conn = Or
    | None -> false);
  check_differential db q

let test_pushdown_or_single_table () =
  (* A disjunction confined to one table is a valid scan filter. *)
  let q = parse "SELECT movies.name FROM movies WHERE movies.year < 1995 OR movies.year > 2015" in
  let p = plan_exn q in
  Alcotest.(check bool) "pushdown applied" true p.Planner.plan_pushdown;
  (match p.Planner.plan_pushed with
  | [ ("movies", cond) ] -> Alcotest.(check bool) "disjunction kept" true (cond.c_conn = Or)
  | _ -> Alcotest.fail "expected movies scan filter");
  check_differential db q

(* --- join ordering --- *)

let test_selective_table_first () =
  let q =
    parse
      "SELECT a.name FROM actor a JOIN starring s ON a.aid = s.aid JOIN movies m \
       ON s.mid = m.mid WHERE m.name = 'Gravity'"
  in
  let p = plan_exn q in
  Alcotest.(check string) "base is the filtered table" "movies" p.Planner.plan_base;
  Alcotest.(check bool) "execution order differs from FROM order" false
    p.Planner.plan_in_order;
  check_differential db q

let test_reorder_preserves_group_order () =
  (* First-seen group order depends on joined-row order; the provenance
     sort must restore it under any execution order. *)
  let q =
    parse
      "SELECT a.name, COUNT(*) FROM actor a JOIN starring s ON a.aid = s.aid \
       JOIN movies m ON s.mid = m.mid WHERE m.year > 1990 GROUP BY a.name"
  in
  check_differential db q;
  let rows = Fixtures.run_rows db
      "SELECT a.name, COUNT(*) FROM actor a JOIN starring s ON a.aid = s.aid \
       JOIN movies m ON s.mid = m.mid WHERE m.year > 1990 GROUP BY a.name"
  in
  (* group order follows actor insertion order, as it always has *)
  match rows with
  | (first :: _ : Value.t array list) ->
      Alcotest.(check string) "first group" "Tom Hanks" (Value.to_display first.(0))
  | [] -> Alcotest.fail "no groups"

let test_cache_keyed_by_pushed_preds () =
  let cache = Executor.create_cache () in
  let q1 = parse "SELECT movies.name FROM movies WHERE movies.year < 1995" in
  let q2 = parse "SELECT movies.revenue FROM movies WHERE movies.year < 1995" in
  let q3 = parse "SELECT movies.name FROM movies WHERE movies.year < 2000" in
  ignore (Executor.run_exn ~cache db q1);
  ignore (Executor.run_exn ~cache db q2);
  ignore (Executor.run_exn ~cache db q3);
  let hits, misses, pushdowns = Executor.cache_stats cache in
  (* q2 shares q1's (FROM, pushed) relation; q3 differs in the predicate *)
  Alcotest.(check int) "hits" 1 hits;
  Alcotest.(check int) "misses" 2 misses;
  Alcotest.(check int) "pushdown builds" 2 pushdowns

(* --- late-materialized join builds --- *)

let test_reordered_pushed_attached () =
  (* movies is the cheapest base, so actor attaches last — through its
     join index, with its own pushed filter as a row mask *)
  let q =
    parse
      "SELECT a.name, m.name FROM actor a JOIN starring s ON a.aid = s.aid \
       JOIN movies m ON s.mid = m.mid WHERE m.year BETWEEN 1994 AND 2017 \
       AND a.birth_yr < 1970"
  in
  let p = plan_exn q in
  Alcotest.(check string) "base" "movies" p.Planner.plan_base;
  Alcotest.(check bool) "reordered" false p.Planner.plan_in_order;
  Alcotest.(check bool) "actor filter pushed" true
    (List.mem_assoc "actor" p.Planner.plan_pushed);
  check_differential db q;
  Alcotest.check Fixtures.rows_testable "canonical nested-loop order"
    Fixtures.
      [
        [| t "Tom Hanks"; t "Forrest Gump" |];
        [| t "Tom Hanks"; t "The Post" |];
        [| t "Sandra Bullock"; t "Gravity" |];
        [| t "Brad Pitt"; t "Seven" |];
        [| t "Meryl Streep"; t "The Post" |];
      ]
    (Executor.run_exn db q).Executor.res_rows

let test_null_join_keys () =
  let schema =
    Duodb.Schema.make ~name:"nulls"
      [
        Duodb.Schema.table "p"
          [ ("pid", Duodb.Datatype.Number); ("name", Duodb.Datatype.Text) ]
          ~pk:[ "pid" ];
        Duodb.Schema.table "c"
          [ ("cid", Duodb.Datatype.Number); ("pid", Duodb.Datatype.Number) ]
          ~pk:[ "cid" ];
      ]
      [ Duodb.Schema.fk ("c", "pid") ("p", "pid") ]
  in
  let ndb = Duodb.Database.create schema in
  let open Fixtures in
  Duodb.Database.insert_all ndb ~table:"p"
    [ [| i 1; t "one" |]; [| Value.Null; t "nobody" |]; [| i 2; t "two" |] ];
  Duodb.Database.insert_all ndb ~table:"c"
    [ [| i 10; i 2 |]; [| i 11; Value.Null |]; [| i 12; i 1 |]; [| i 13; i 2 |] ];
  let run sql =
    let q = Duosql.Parser.query_exn ~schema sql in
    check_differential ndb q;
    (Executor.run_exn ndb q).Executor.res_rows
  in
  Alcotest.check rows_testable "p outer: NULL keys on both sides never match"
    [ [| t "one"; i 12 |]; [| t "two"; i 10 |]; [| t "two"; i 13 |] ]
    (run "SELECT p.name, c.cid FROM p JOIN c ON p.pid = c.pid");
  Alcotest.check rows_testable "c outer: NULL keys on both sides never match"
    [ [| t "two"; i 10 |]; [| t "one"; i 12 |]; [| t "two"; i 13 |] ]
    (run "SELECT p.name, c.cid FROM c JOIN p ON c.pid = p.pid")

let test_max_rows_overflow () =
  (* actor x starring has 7 rows; the bound applies per join step *)
  let q =
    parse
      "SELECT a.name, m.name FROM actor a JOIN starring s ON a.aid = s.aid \
       JOIN movies m ON s.mid = m.mid"
  in
  let overflow = Error "joined relation exceeds 6 rows" in
  let verdict r = Result.map (fun r -> List.length r.Executor.res_rows) r in
  Alcotest.(check (result int string)) "uncached" overflow
    (verdict (Executor.run ~max_rows:6 db q));
  Alcotest.(check (result int string)) "at the bound" (Ok 7)
    (verdict (Executor.run ~max_rows:7 db q));
  let cache = Executor.create_cache () in
  Alcotest.(check (result int string)) "cached build" overflow
    (verdict (Executor.run ~cache ~max_rows:6 db q));
  Alcotest.(check (result int string)) "served from the cache" overflow
    (verdict (Executor.run ~cache ~max_rows:6 db q));
  let hits, misses, _ = Executor.cache_stats cache in
  Alcotest.(check (pair int int)) "one build, one hit" (1, 1) (misses, hits)

(* The bound is part of the relation key: one cache serves an unbounded
   and a bounded caller, in either order, exactly as separate uncached
   runs would. *)
let test_cache_keyed_by_max_rows () =
  let q =
    parse
      "SELECT a.name, m.name FROM actor a JOIN starring s ON a.aid = s.aid \
       JOIN movies m ON s.mid = m.mid"
  in
  let verdict r = Result.map (fun r -> List.length r.Executor.res_rows) r in
  let uncached max_rows = verdict (Executor.run ?max_rows db q) in
  Alcotest.(check (result int string)) "uncached, unbounded" (Ok 7) (uncached None);
  Alcotest.(check (result int string)) "uncached, bounded"
    (Error "joined relation exceeds 2 rows") (uncached (Some 2));
  List.iter
    (fun order ->
      let cache = Executor.create_cache () in
      List.iter
        (fun max_rows ->
          Alcotest.(check (result int string))
            (Printf.sprintf "cached, bound %s"
               (Option.fold ~none:"none" ~some:string_of_int max_rows))
            (uncached max_rows)
            (verdict (Executor.run ~cache ?max_rows db q)))
        order)
    [ [ None; Some 2 ]; [ Some 2; None ] ]

let test_join_index_shared_and_stale () =
  let db = Fixtures.movie_db () in
  let cache = Executor.create_cache () in
  let q gender extra =
    parse
      (Printf.sprintf
         "SELECT a.name, s.mid FROM actor a JOIN starring s ON a.aid = s.aid \
          WHERE a.gender = '%s'%s"
         gender extra)
  in
  ignore (Executor.run_exn ~cache db (q "male" ""));
  ignore (Executor.run_exn ~cache db (q "female" ""));
  Alcotest.(check (pair int int)) "two builds over starring.aid share one index"
    (1, 1) (Executor.join_index_stats cache);
  (* Sandra Bullock joins Titanic: starring grew, so its index is stale *)
  Duodb.Database.insert db ~table:"starring" Fixtures.[| i 107; i 2; i 14 |];
  let grown = q "female" " AND a.birth_yr > 1900" in
  let rows = (Executor.run_exn ~cache db grown).Executor.res_rows in
  Alcotest.(check (pair int int)) "grown table gets a fresh index" (2, 1)
    (Executor.join_index_stats cache);
  Alcotest.check Fixtures.rows_testable "rows see the appended row"
    Fixtures.
      [ [| t "Sandra Bullock"; i 11 |]; [| t "Sandra Bullock"; i 14 |];
        [| t "Meryl Streep"; i 13 |] ]
    rows;
  Alcotest.check Fixtures.rows_testable "cached = uncached"
    (Executor.run_exn db grown).Executor.res_rows rows;
  Alcotest.(check bool) "reference agrees" true (reference_agrees db grown);
  (* the same query as before the append: its cached relation is stamped
     with starring's old row count, so it is rebuilt *)
  let same = q "female" "" in
  Alcotest.check Fixtures.rows_testable "same query re-run sees the appended row"
    (Executor.run_exn db same).Executor.res_rows
    (Executor.run_exn ~cache db same).Executor.res_rows;
  Alcotest.(check int) "re-run gets 3 rows" 3
    (List.length (Executor.run_exn ~cache db same).Executor.res_rows);
  (* a row-bound error is stamped too: one more row for Meryl Streep
     lifts the bounded join past 3 rows after the append *)
  let bounded = q "female" "" in
  Alcotest.(check (result int string)) "bounded run before the append" (Ok 3)
    (Result.map (fun r -> List.length r.Executor.res_rows)
       (Executor.run ~cache ~max_rows:3 db bounded));
  Duodb.Database.insert db ~table:"starring" Fixtures.[| i 108; i 4; i 11 |];
  Alcotest.(check (result int string)) "bounded run after the append"
    (Error "joined relation exceeds 3 rows")
    (Result.map (fun r -> List.length r.Executor.res_rows)
       (Executor.run ~cache ~max_rows:3 db bounded))

(* --- differential corpus: generated Spider-like gold queries --- *)

let differential_corpus () =
  let split = Duobench.Spider_gen.mini ~seed:11 ~n_dbs:4 ~per_db:24 () in
  let checked = ref 0 in
  List.iter
    (fun task ->
      let tdb = List.assoc task.Duobench.Spider_gen.sp_db split.Duobench.Spider_gen.databases in
      check_differential tdb task.Duobench.Spider_gen.sp_gold;
      incr checked)
    split.Duobench.Spider_gen.tasks;
  Alcotest.(check bool) "corpus non-trivial" true (!checked >= 60)

(* Randomized single-database differential: random predicates over the
   movie fixture, planned execution vs the reference interpreter. *)
let prop_differential_random =
  let op_gen = QCheck.Gen.oneofl [ Lt; Le; Gt; Ge; Eq; Neq ] in
  QCheck.Test.make ~name:"planner = reference on random WHERE" ~count:200
    (QCheck.make
       QCheck.Gen.(triple op_gen (int_range 1950 2030) (oneofl [ And; Or ])))
    (fun (op, threshold, conn) ->
      let q =
        {
          (simple
             [ proj_col (col "a" "name") ]
             { f_tables = [ "actor"; "starring"; "movies" ];
               f_joins =
                 [ { j_from = col "actor" "aid"; j_to = col "starring" "aid" };
                   { j_from = col "starring" "mid"; j_to = col "movies" "mid" } ] })
          with
          q_select = [ proj_col (col "actor" "name"); proj_col (col "movies" "name") ];
          q_where =
            Some
              { c_preds =
                  [ pred (col "movies" "year") op (Value.Int threshold);
                    pred (col "actor" "birth_yr") Lt (Value.Int 1965) ];
                c_conn = conn };
        }
      in
      reference_agrees db q)

let suite =
  [
    Alcotest.test_case "pushdown: AND single table" `Quick test_pushdown_and;
    Alcotest.test_case "pushdown: AND across tables" `Quick test_pushdown_and_multi_table;
    Alcotest.test_case "pushdown: OR across tables refused" `Quick
      test_no_pushdown_or_across_tables;
    Alcotest.test_case "pushdown: OR within one table" `Quick
      test_pushdown_or_single_table;
    Alcotest.test_case "join order: selective base first" `Quick test_selective_table_first;
    Alcotest.test_case "reorder preserves group order" `Quick
      test_reorder_preserves_group_order;
    Alcotest.test_case "cache keyed by (FROM, pushed)" `Quick
      test_cache_keyed_by_pushed_preds;
    Alcotest.test_case "reordered join: pushed filter on attached table" `Quick
      test_reordered_pushed_attached;
    Alcotest.test_case "NULL join keys never match" `Quick test_null_join_keys;
    Alcotest.test_case "max_rows overflow: same error, cached" `Quick
      test_max_rows_overflow;
    Alcotest.test_case "cache keyed by max_rows, either order" `Quick
      test_cache_keyed_by_max_rows;
    Alcotest.test_case "join index shared, rebuilt when stale" `Quick
      test_join_index_shared_and_stale;
    Alcotest.test_case "differential: generated corpus" `Slow differential_corpus;
    QCheck_alcotest.to_alcotest prop_differential_random;
  ]
