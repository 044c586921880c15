module Steiner = Duocore.Steiner
module Joinpath = Duocore.Joinpath
module Mas = Duobench.Mas

let movie_schema = Fixtures.movie_schema

let test_single_terminal () =
  match Steiner.tree movie_schema [ "actor" ] with
  | Some tr ->
      Alcotest.(check (list string)) "just actor" [ "actor" ] tr.Steiner.tr_tables;
      Alcotest.(check int) "no edges" 0 (Steiner.size tr)
  | None -> Alcotest.fail "expected tree"

let test_adjacent_terminals () =
  match Steiner.tree movie_schema [ "actor"; "starring" ] with
  | Some tr -> Alcotest.(check int) "one edge" 1 (Steiner.size tr)
  | None -> Alcotest.fail "expected tree"

let test_steiner_node_inserted () =
  (* actor and movies connect only through starring. *)
  match Steiner.tree movie_schema [ "actor"; "movies" ] with
  | Some tr ->
      Alcotest.(check bool) "starring included" true
        (List.mem "starring" tr.Steiner.tr_tables);
      Alcotest.(check int) "two edges" 2 (Steiner.size tr)
  | None -> Alcotest.fail "expected tree"

let test_disconnected () =
  let schema =
    Duodb.Schema.make ~name:"iso"
      [ Duodb.Schema.table "a" [ ("x", Duodb.Datatype.Number) ] ~pk:[ "x" ];
        Duodb.Schema.table "b" [ ("y", Duodb.Datatype.Number) ] ~pk:[ "y" ] ]
      []
  in
  Alcotest.(check bool) "no tree" true (Option.is_none (Steiner.tree schema [ "a"; "b" ]))

let test_mas_four_terminals () =
  (* author, publication, conference: connected through writes. *)
  match Steiner.tree Mas.schema [ "author"; "publication"; "conference" ] with
  | Some tr ->
      Alcotest.(check bool) "writes on the path" true
        (List.mem "writes" tr.Steiner.tr_tables);
      Alcotest.(check bool) "tree edges = tables - 1" true
        (Steiner.size tr = List.length tr.Steiner.tr_tables - 1)
  | None -> Alcotest.fail "expected tree"

let test_shortest_path () =
  match Steiner.shortest_path Mas.schema "keyword" "publication" with
  | Some edges -> Alcotest.(check int) "two hops via publication_keyword" 2 (List.length edges)
  | None -> Alcotest.fail "expected path"

let test_joinpath_construct_base_first () =
  let clauses = Joinpath.construct movie_schema ~tables:[ "actor" ] in
  (match clauses with
  | first :: _ ->
      Alcotest.(check (list string)) "base clause first" [ "actor" ]
        first.Duosql.Ast.f_tables
  | [] -> Alcotest.fail "expected clauses");
  Alcotest.(check bool) "one-hop extension present" true
    (List.exists
       (fun f -> List.mem "starring" f.Duosql.Ast.f_tables)
       clauses)

let test_joinpath_depth2 () =
  let d1 = Joinpath.construct ~depth:1 Mas.schema ~tables:[ "organization" ] in
  let d2 = Joinpath.construct ~depth:2 Mas.schema ~tables:[ "organization" ] in
  Alcotest.(check bool) "depth-2 strictly larger" true (List.length d2 > List.length d1);
  (* the A3 join path: organization - author - writes *)
  Alcotest.(check bool) "org-author-writes reachable at depth 2" true
    (List.exists
       (fun f ->
         List.sort String.compare f.Duosql.Ast.f_tables
         = [ "author"; "organization"; "writes" ])
       d2)

let test_joinpath_empty_tables () =
  let clauses = Joinpath.construct movie_schema ~tables:[] in
  Alcotest.(check int) "one clause per table" 3 (List.length clauses)

let test_joinpath_cache_keyed_by_structure () =
  (* regression (found by Duocheck): two same-named schemas with different
     FK graphs must not be served each other's memoized join paths *)
  let mk child_parent_fk =
    let t name cols = Duodb.Schema.table name cols ~pk:[ name ^ "_id" ] in
    Duodb.Schema.make ~name:"fuzzdb"
      [ t "users" [ ("users_id", Duodb.Datatype.Number) ];
        t "orders"
          [ ("orders_id", Duodb.Datatype.Number);
            ("users_ref", Duodb.Datatype.Number) ];
        t "items"
          [ ("items_id", Duodb.Datatype.Number);
            (fst child_parent_fk, Duodb.Datatype.Number) ] ]
      [ Duodb.Schema.fk ("orders", "users_ref") ("users", "users_id");
        Duodb.Schema.fk ("items", fst child_parent_fk) (snd child_parent_fk) ]
  in
  let s1 = mk ("users_ref", ("users", "users_id")) in
  let s2 = mk ("orders_ref", ("orders", "orders_id")) in
  let joins_of s =
    List.concat_map
      (fun f -> f.Duosql.Ast.f_joins)
      (Joinpath.construct s ~tables:[ "items"; "users" ])
  in
  let exists_in s (j : Duosql.Ast.join_edge) =
    List.iter
      (fun (c : Duosql.Ast.col_ref) ->
        Alcotest.(check bool)
          (Printf.sprintf "column %s.%s exists in %s" c.Duosql.Ast.cr_table
             c.Duosql.Ast.cr_col (if s == s1 then "s1" else "s2"))
          true
          (Option.is_some
             (Duodb.Schema.find_column s ~table:c.Duosql.Ast.cr_table c.Duosql.Ast.cr_col)))
      [ j.Duosql.Ast.j_from; j.Duosql.Ast.j_to ]
  in
  (* under the name-only cache key s2 got s1's items.users_ref edge; the
     way back to s1 must not keep s2's signature either *)
  List.iter (fun s -> List.iter (exists_in s) (joins_of s)) [ s1; s2; s1 ]

let test_covers () =
  let f = List.hd (Joinpath.construct movie_schema ~tables:[ "actor"; "movies" ]) in
  Alcotest.(check bool) "covers terminals" true (Joinpath.covers f [ "actor"; "movies" ]);
  Alcotest.(check bool) "does not cover ghosts" false (Joinpath.covers f [ "ghost" ])

(* Property: Steiner trees over random terminal sets of the MAS schema are
   valid trees covering all terminals. *)
let prop_tree_valid =
  let tables = List.map (fun t -> t.Duodb.Schema.tbl_name) Mas.schema.Duodb.Schema.tables in
  QCheck.Test.make ~name:"steiner trees cover terminals and are trees" ~count:100
    QCheck.(list_of_size (Gen.int_range 1 4) (oneofl tables))
    (fun terminals ->
      match Steiner.tree Mas.schema terminals with
      | None -> false (* MAS join graph is connected *)
      | Some tr ->
          List.for_all (fun t -> List.mem t tr.Steiner.tr_tables) terminals
          && Steiner.size tr = List.length tr.Steiner.tr_tables - 1)

let suite =
  [
    Alcotest.test_case "single terminal" `Quick test_single_terminal;
    Alcotest.test_case "adjacent terminals" `Quick test_adjacent_terminals;
    Alcotest.test_case "steiner node inserted" `Quick test_steiner_node_inserted;
    Alcotest.test_case "disconnected graph" `Quick test_disconnected;
    Alcotest.test_case "MAS multi-terminal" `Quick test_mas_four_terminals;
    Alcotest.test_case "shortest path" `Quick test_shortest_path;
    Alcotest.test_case "joinpath: base first + extension" `Quick test_joinpath_construct_base_first;
    Alcotest.test_case "joinpath: depth 2" `Quick test_joinpath_depth2;
    Alcotest.test_case "joinpath: no tables" `Quick test_joinpath_empty_tables;
    Alcotest.test_case "joinpath: cache keyed by structure" `Quick
      test_joinpath_cache_keyed_by_structure;
    Alcotest.test_case "joinpath: covers" `Quick test_covers;
    QCheck_alcotest.to_alcotest prop_tree_valid;
  ]
