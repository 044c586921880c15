module Value = Duodb.Value
module Executor = Duoengine.Executor

let db = Fixtures.movie_db ()
let run sql = Fixtures.run_rows db sql
let i n = Value.Int n
let t s = Value.Text s

let check_rows name expected actual =
  Alcotest.check Fixtures.rows_testable name expected actual

let test_project () =
  check_rows "actor names"
    [ [| t "Tom Hanks" |]; [| t "Sandra Bullock" |]; [| t "Brad Pitt" |];
      [| t "Meryl Streep" |]; [| t "Leonardo DiCaprio" |] ]
    (run "SELECT actor.name FROM actor")

let test_where_and () =
  check_rows "male actors born after 1960"
    [ [| t "Brad Pitt" |]; [| t "Leonardo DiCaprio" |] ]
    (run "SELECT actor.name FROM actor WHERE actor.gender = 'male' AND actor.birth_yr > 1960")

let test_where_or () =
  check_rows "movies before 1995 or after 2015"
    [ [| t "Forrest Gump" |]; [| t "The Post" |] ]
    (run "SELECT movies.name FROM movies WHERE movies.year < 1995 OR movies.year > 2015")

let test_between () =
  check_rows "movies 2010-2017"
    [ [| t "Gravity" |]; [| t "The Post" |]; [| t "Inception" |] ]
    (run "SELECT movies.name FROM movies WHERE movies.year BETWEEN 2010 AND 2017")

let test_like () =
  check_rows "like G%"
    [ [| t "Gravity" |] ]
    (run "SELECT movies.name FROM movies WHERE movies.name LIKE 'G%'")

let test_not_like () =
  check_rows "not like %i%"
    [ [| t "Forrest Gump"; |]; [| t "Seven" |]; [| t "The Post" |] ]
    (run "SELECT movies.name FROM movies WHERE movies.name NOT LIKE '%i%'")

let test_join () =
  check_rows "who starred in Gravity"
    [ [| t "Sandra Bullock" |] ]
    (run
       "SELECT a.name FROM actor a JOIN starring s ON a.aid = s.aid JOIN movies m \
        ON s.mid = m.mid WHERE m.name = 'Gravity'")

let test_join_order_independent () =
  let q1 =
    run
      "SELECT m.name FROM movies m JOIN starring s ON m.mid = s.mid JOIN actor a \
       ON s.aid = a.aid WHERE a.name = 'Tom Hanks'"
  in
  Alcotest.(check int) "tom hanks stars in 2" 2 (List.length q1)

let test_count_star () =
  check_rows "count actors" [ [| i 5 |] ] (run "SELECT COUNT(*) FROM actor")

let test_count_on_empty_filter () =
  check_rows "count empty is one row of 0" [ [| i 0 |] ]
    (run "SELECT COUNT(*) FROM actor WHERE actor.birth_yr > 3000")

let test_min_max_on_empty_filter () =
  check_rows "min over empty is null" [ [| Value.Null |] ]
    (run "SELECT MIN(actor.birth_yr) FROM actor WHERE actor.birth_yr > 3000")

let test_sum_avg () =
  check_rows "sum revenue pre-1996" [ [| i 1005 |] ]
    (run "SELECT SUM(movies.revenue) FROM movies WHERE movies.year < 1996");
  match run "SELECT AVG(movies.revenue) FROM movies WHERE movies.year < 1996" with
  | [ [| Value.Float f |] ] -> Alcotest.(check (float 0.001)) "avg" 502.5 f
  | _ -> Alcotest.fail "unexpected avg result"

let test_group_by () =
  check_rows "movies per actor"
    [ [| t "Tom Hanks"; i 2 |]; [| t "Sandra Bullock"; i 1 |]; [| t "Brad Pitt"; i 1 |];
      [| t "Meryl Streep"; i 1 |]; [| t "Leonardo DiCaprio"; i 2 |] ]
    (run
       "SELECT a.name, COUNT(*) FROM actor a JOIN starring s ON a.aid = s.aid \
        GROUP BY a.name")

let test_having () =
  check_rows "actors with 2+ movies"
    [ [| t "Tom Hanks" |]; [| t "Leonardo DiCaprio" |] ]
    (run
       "SELECT a.name FROM actor a JOIN starring s ON a.aid = s.aid GROUP BY a.name \
        HAVING COUNT(*) >= 2")

let test_group_max () =
  check_rows "max revenue per gender"
    [ [| t "male"; i 2187 |]; [| t "female"; i 723 |] ]
    (run
       "SELECT a.gender, MAX(m.revenue) FROM actor a JOIN starring s ON a.aid = s.aid \
        JOIN movies m ON s.mid = m.mid GROUP BY a.gender")

let test_order_by () =
  check_rows "movies by year desc, first 3"
    [ [| t "The Post" |]; [| t "Gravity" |]; [| t "Inception" |] ]
    (run "SELECT movies.name FROM movies ORDER BY movies.year DESC LIMIT 3")

let test_order_by_non_projected () =
  check_rows "names ordered by revenue"
    [ [| t "The Post" |]; [| t "Seven" |]; [| t "Forrest Gump" |]; [| t "Gravity" |];
      [| t "Inception" |]; [| t "Titanic" |] ]
    (run "SELECT movies.name FROM movies ORDER BY movies.revenue ASC")

let test_order_by_aggregate () =
  check_rows "actors by movie count desc"
    [ [| t "Tom Hanks" |]; [| t "Leonardo DiCaprio" |]; [| t "Sandra Bullock" |];
      [| t "Brad Pitt" |]; [| t "Meryl Streep" |] ]
    (run
       "SELECT a.name FROM actor a JOIN starring s ON a.aid = s.aid GROUP BY a.name \
        ORDER BY COUNT(*) DESC")

let test_distinct () =
  check_rows "distinct genders" [ [| t "male" |]; [| t "female" |] ]
    (run "SELECT DISTINCT actor.gender FROM actor")

let test_count_distinct () =
  check_rows "count distinct genders" [ [| i 2 |] ]
    (run "SELECT COUNT(DISTINCT actor.gender) FROM actor")

let test_limit_zero () =
  check_rows "limit 0" [] (run "SELECT actor.name FROM actor LIMIT 0")

let test_null_comparisons_false () =
  let db2 = Fixtures.movie_db () in
  Duodb.Database.insert db2 ~table:"movies" [| i 99; t "Mystery"; Value.Null; Value.Null |];
  let rows = Fixtures.run_rows db2 "SELECT movies.name FROM movies WHERE movies.year < 3000" in
  Alcotest.(check int) "null year filtered out" 6 (List.length rows);
  let rows = Fixtures.run_rows db2 "SELECT movies.name FROM movies WHERE movies.year != 1994" in
  Alcotest.(check bool) "null not in !=" true
    (not (List.mem [| t "Mystery" |] rows))

let test_error_unknown_column () =
  match Executor.run db (Fixtures.parse "SELECT movies.name FROM movies" |> fun q ->
    { q with Duosql.Ast.q_select = [ Duosql.Ast.proj_col (Duosql.Ast.col "movies" "ghost") ] })
  with
  | Error e -> Alcotest.(check bool) "mentions column" true (Fixtures.contains e "ghost")
  | Ok _ -> Alcotest.fail "expected error"

let test_error_disconnected_from () =
  let q = Fixtures.parse "SELECT actor.name FROM actor" in
  let q =
    { q with
      Duosql.Ast.q_from = { Duosql.Ast.f_tables = [ "actor"; "movies" ]; f_joins = [] } }
  in
  match Executor.run db q with
  | Error e -> Alcotest.(check bool) "mentions connectivity" true (Fixtures.contains e "connected")
  | Ok _ -> Alcotest.fail "expected error"

let test_output_types () =
  let q =
    Fixtures.parse
      "SELECT a.name, COUNT(*), AVG(m.revenue) FROM actor a JOIN starring s ON \
       a.aid = s.aid JOIN movies m ON s.mid = m.mid GROUP BY a.name"
  in
  match Executor.output_types db q with
  | Ok tys ->
      Alcotest.(check (list string)) "types" [ "text"; "number"; "number" ]
        (List.map Duodb.Datatype.to_string tys)
  | Error e -> Alcotest.fail e

(* Properties over random WHERE thresholds. *)
let prop_where_monotone =
  QCheck.Test.make ~name:"WHERE year < t monotone in t" ~count:100
    QCheck.(pair (int_range 1900 2030) (int_range 1900 2030))
    (fun (t1, t2) ->
      let lo = min t1 t2 and hi = max t1 t2 in
      let count t =
        List.length
          (run (Printf.sprintf "SELECT movies.name FROM movies WHERE movies.year < %d" t))
      in
      count lo <= count hi)

let prop_limit_bounds =
  QCheck.Test.make ~name:"LIMIT n returns at most n" ~count:50
    QCheck.(int_range 0 10)
    (fun n ->
      let rows = run (Printf.sprintf "SELECT movies.name FROM movies LIMIT %d" n) in
      List.length rows <= n && List.length rows = min n 6)

let prop_group_partition =
  QCheck.Test.make ~name:"GROUP BY counts sum to row count" ~count:20 QCheck.unit
    (fun () ->
      let grouped =
        run "SELECT movies.year, COUNT(*) FROM movies GROUP BY movies.year"
      in
      let total =
        List.fold_left
          (fun acc row -> match row.(1) with Value.Int n -> acc + n | _ -> acc)
          0 grouped
      in
      total = 6)

let prop_distinct_subset =
  QCheck.Test.make ~name:"DISTINCT result is a subset with no duplicates" ~count:20
    QCheck.unit (fun () ->
      let all = run "SELECT actor.gender FROM actor" in
      let d = run "SELECT DISTINCT actor.gender FROM actor" in
      let mem r rs = List.exists (fun r' -> r = r') rs in
      List.for_all (fun r -> mem r all) d
      && List.length (List.sort_uniq compare d) = List.length d)

let suite =
  [
    Alcotest.test_case "projection" `Quick test_project;
    Alcotest.test_case "where AND" `Quick test_where_and;
    Alcotest.test_case "where OR" `Quick test_where_or;
    Alcotest.test_case "between" `Quick test_between;
    Alcotest.test_case "like" `Quick test_like;
    Alcotest.test_case "not like" `Quick test_not_like;
    Alcotest.test_case "three-way join" `Quick test_join;
    Alcotest.test_case "join order independence" `Quick test_join_order_independent;
    Alcotest.test_case "count star" `Quick test_count_star;
    Alcotest.test_case "count over empty" `Quick test_count_on_empty_filter;
    Alcotest.test_case "min over empty" `Quick test_min_max_on_empty_filter;
    Alcotest.test_case "sum and avg" `Quick test_sum_avg;
    Alcotest.test_case "group by" `Quick test_group_by;
    Alcotest.test_case "having" `Quick test_having;
    Alcotest.test_case "group max" `Quick test_group_max;
    Alcotest.test_case "order by + limit" `Quick test_order_by;
    Alcotest.test_case "order by non-projected" `Quick test_order_by_non_projected;
    Alcotest.test_case "order by aggregate" `Quick test_order_by_aggregate;
    Alcotest.test_case "distinct" `Quick test_distinct;
    Alcotest.test_case "count distinct" `Quick test_count_distinct;
    Alcotest.test_case "limit zero" `Quick test_limit_zero;
    Alcotest.test_case "null comparisons" `Quick test_null_comparisons_false;
    Alcotest.test_case "error: unknown column" `Quick test_error_unknown_column;
    Alcotest.test_case "error: disconnected FROM" `Quick test_error_disconnected_from;
    Alcotest.test_case "output types" `Quick test_output_types;
    QCheck_alcotest.to_alcotest prop_where_monotone;
    QCheck_alcotest.to_alcotest prop_limit_bounds;
    QCheck_alcotest.to_alcotest prop_group_partition;
    QCheck_alcotest.to_alcotest prop_distinct_subset;
  ]
