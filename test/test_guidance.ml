module Model = Duoguide.Model
module Score = Duoguide.Score
module Hints = Duoguide.Hints

let schema = Fixtures.movie_schema

let ctx nlq_text =
  Model.make schema (Duonl.Nlq.analyze nlq_text)

let sums_to_one name (d : _ Model.dist) =
  let total = Array.fold_left ( +. ) 0.0 d.Model.d_probs in
  Alcotest.(check (float 1e-6)) name 1.0 total

let test_softmax_normalizes () =
  let p = Score.softmax [| 1.0; 2.0; 3.0 |] in
  Alcotest.(check (float 1e-9)) "sums to 1" 1.0 (Array.fold_left ( +. ) 0.0 p);
  Alcotest.(check bool) "monotone" true (p.(0) < p.(1) && p.(1) < p.(2))

let test_softmax_empty () =
  Alcotest.(check int) "empty ok" 0 (Array.length (Score.softmax [||]))

let test_softmax_temperature () =
  let sharp = Score.softmax ~temperature:0.5 [| 0.0; 1.0 |] in
  let flat = Score.softmax ~temperature:2.0 [| 0.0; 1.0 |] in
  Alcotest.(check bool) "low temperature sharpens" true (sharp.(1) > flat.(1))

let test_name_similarity () =
  Alcotest.(check bool) "exact token" true
    (Score.name_similarity ~nlq_words:[ "birth"; "year" ] "birth_yr" > 0.4);
  Alcotest.(check bool) "unrelated" true
    (Score.name_similarity ~nlq_words:[ "movy" ] "gender" = 0.0)

(* Property 1 of the paper: each decision's candidate masses sum to 1, so
   children partition their parent's confidence. *)
let test_property1_keywords () =
  sums_to_one "keywords" (Model.keywords (ctx "movies before 1995 sorted by year"))

let test_property1_other_modules () =
  let c = ctx "number of movies per actor name ordered from most to least" in
  sums_to_one "num_projections" (Model.num_projections c ~hint:None);
  sums_to_one "projection_targets" (Model.projection_targets c ~used:[]);
  sums_to_one "where_columns" (Model.where_columns c ~used:[]);
  sums_to_one "group_columns" (Model.group_columns c ~projected:[]);
  sums_to_one "aggregates text" (Model.aggregates c Duodb.Datatype.Text);
  sums_to_one "aggregates number" (Model.aggregates c Duodb.Datatype.Number);
  sums_to_one "operators" (Model.operators c Duodb.Datatype.Number);
  sums_to_one "connective" (Model.connective c);
  sums_to_one "having" (Model.having_presence c);
  sums_to_one "direction" (Model.direction c);
  sums_to_one "limit" (Model.limit c ~hint:None)

let test_keyword_evidence () =
  let p_of ctx pred =
    List.fold_left
      (fun acc (kw, p) -> if pred kw then acc +. p else acc)
      0.0 (Model.to_list (Model.keywords ctx))
  in
  let order_ctx = ctx "movies sorted by year" in
  let plain_ctx = ctx "movie names" in
  Alcotest.(check bool) "sorting words raise P(order)" true
    (p_of order_ctx (fun kw -> kw.Model.kw_order)
    > p_of plain_ctx (fun kw -> kw.Model.kw_order))

let test_column_evidence () =
  let c = ctx "show the revenue of movies" in
  let targets = Model.to_list (Model.projection_targets c ~used:[]) in
  let p_of name =
    List.fold_left
      (fun acc (t, p) ->
        match t with
        | Model.Target_column col when col.Duodb.Schema.col_name = name -> acc +. p
        | _ -> acc)
      0.0 targets
  in
  Alcotest.(check bool) "revenue outranks gender" true (p_of "revenue" > p_of "gender")

let test_grounded_literal_guides_where () =
  let db = Fixtures.movie_db () in
  let index = Duodb.Index.build db in
  let nlq = Duonl.Nlq.analyze ~index "movies starring \"Tom Hanks\"" in
  let c = Model.make ~index schema nlq in
  let cands = Model.to_list (Model.where_columns c ~used:[]) in
  let p_of table name =
    List.fold_left
      (fun acc (col, p) ->
        if col.Duodb.Schema.col_table = table && col.Duodb.Schema.col_name = name
        then acc +. p
        else acc)
      0.0 cands
  in
  Alcotest.(check bool) "actor.name leads after grounding" true
    (p_of "actor" "name" > p_of "movies" "revenue")

let test_values_respect_types () =
  let db = Fixtures.movie_db () in
  let index = Duodb.Index.build db in
  let nlq =
    Duonl.Nlq.with_literals ~index "movies named \"Gravity\" after 2000"
      [ Duodb.Value.Text "Gravity"; Duodb.Value.Int 2000 ]
  in
  let c = Model.make ~index schema nlq in
  let year_col = Duodb.Schema.find_column_exn schema ~table:"movies" "year" in
  let name_col = Duodb.Schema.find_column_exn schema ~table:"movies" "name" in
  Alcotest.(check bool) "numeric col gets numeric values" true
    (Array.for_all Duodb.Value.is_numeric (Model.values c year_col).Model.d_items);
  Alcotest.(check bool) "text col gets text values" true
    (Array.for_all
       (fun v -> match v with Duodb.Value.Text _ -> true | _ -> false)
       (Model.values c name_col).Model.d_items)

let test_used_columns_excluded () =
  let c = ctx "movie names and years" in
  let all = Model.projection_targets c ~used:[] in
  match Model.to_list all with
  | (first, _) :: _ ->
      let rest = Model.projection_targets c ~used:[ first ] in
      Alcotest.(check int) "one fewer candidate"
        (Array.length all.Model.d_items - 1)
        (Array.length rest.Model.d_items);
      Alcotest.(check bool) "still a distribution" true
        (Array.for_all (fun p -> p > 0.0) rest.Model.d_probs);
      sums_to_one "renormalized" rest
  | [] -> Alcotest.fail "expected candidates"

let test_limit_hint () =
  let c = ctx "top movies" in
  let with_hint = Model.to_list (Model.limit c ~hint:(Some 7)) in
  Alcotest.(check bool) "hinted limit offered" true
    (List.exists (fun (l, _) -> l = Some 7) with_hint)

let test_hint_lexicon () =
  let w = [ "average"; "revenue" ] in
  let _, _, _, avg, _, _ = Hints.agg_signals w in
  Alcotest.(check bool) "average detected" true (avg > 0.0);
  Alcotest.(check bool) "descending from most" true
    (Hints.descending_signal [ "most"; "recent" ] > 0.0);
  let ops = Hints.op_signals [ "more"; "than" ] in
  Alcotest.(check bool) "more-than favors Gt" true (ops.(4) > ops.(2))

let prop_distributions_sum_to_one =
  QCheck.Test.make ~name:"module outputs are distributions" ~count:50
    QCheck.(oneofl
      [ "movies before 1995"; "actor names and movie count";
        "total revenue per actor ordered from most to least";
        "names of actors from \"Concord\""; "how many movies are there" ])
    (fun text ->
      let c = ctx text in
      let close l =
        abs_float (List.fold_left (fun acc (_, p) -> acc +. p) 0.0 l -. 1.0) < 1e-6
      in
      close (Model.to_list (Model.keywords c))
      && close (Model.to_list (Model.projection_targets c ~used:[]))
      && close (Model.to_list (Model.where_columns c ~used:[]))
      && close (Model.to_list (Model.num_projections c ~hint:None)))

(* [Model.make] stores the NLQ's lexicon evidence and the distributions
   of the modules whose only other input is finite; each must equal, bit
   for bit, what the lexicon and [Score.normalize] rebuild from the NLQ's
   words — the operator and OR signals from every word, the rest from
   the content words. *)
let check_precomputed name c =
  let nlq = Model.nlq c in
  let words = Duonl.Nlq.content_words nlq in
  let all_words = Duonl.Token.words nlq.Duonl.Nlq.tokens in
  let same what a b = if a <> b then Alcotest.failf "%s: %s differs" name what in
  let sg = Model.signals c in
  same "agg signals" sg.Model.sg_agg (Hints.agg_signals words);
  same "op signals" sg.Model.sg_op (Hints.op_signals all_words);
  same "where signal" sg.Model.sg_where (Hints.where_signal words);
  same "group signal" sg.Model.sg_group (Hints.group_signal words);
  same "order signal" sg.Model.sg_order (Hints.order_signal words);
  same "or signal" sg.Model.sg_or (Hints.or_signal all_words);
  same "having signal" sg.Model.sg_having (Hints.having_signal words);
  same "descending signal" sg.Model.sg_desc (Hints.descending_signal words);
  same "limit signal" sg.Model.sg_limit (Hints.limit_signal words);
  same "between count" sg.Model.sg_between
    (Hints.count_matches words [ "between"; "within" ]);
  let none, count, sum, avg, mx, mn = Hints.agg_signals words in
  let where_ev =
    Hints.where_signal words +. if nlq.Duonl.Nlq.literals <> [] then 1.5 else 0.0
  in
  let group_ev = Hints.group_signal words +. (0.4 *. (count +. sum +. avg)) in
  let order_ev = Hints.order_signal words in
  let bools = [ false; true ] in
  same "keywords" (Model.to_list (Model.keywords c))
    (Score.normalize
       (List.concat_map
          (fun wh ->
            List.concat_map
              (fun gr ->
                List.map
                  (fun ord ->
                    ( { Model.kw_where = wh; kw_group = gr; kw_order = ord },
                      (if wh then where_ev else 0.6)
                      +. (if gr then group_ev else 0.6)
                      +. if ord then order_ev else 0.6 ))
                  bools)
              bools)
          bools));
  let text = Duodb.Datatype.Text and number = Duodb.Datatype.Number in
  let open Duosql.Ast in
  List.iter
    (fun ty ->
      let cands =
        if ty = text then [ (None, none +. 1.0); (Some Count, count) ]
        else
          [ (None, none +. 0.6); (Some Count, count -. 0.3); (Some Sum, sum);
            (Some Avg, avg); (Some Min, mn); (Some Max, mx) ]
      in
      List.iter
        (fun out ->
          let produced = function
            | Some (Count | Sum | Avg) -> number
            | Some (Min | Max) | None -> ty
          in
          same "aggregates"
            (Model.to_list (Model.aggregates ?out c ty))
            (Score.normalize
               (match out with
               | None -> cands
               | Some want -> List.filter (fun (a, _) -> produced a = want) cands)))
        [ None; Some text; Some number ])
    [ text; number ];
  let o = Hints.op_signals all_words in
  same "text operators" (Model.to_list (Model.operators c text))
    (Score.normalize
       [ (Model.Shape_cmp Eq, o.(0) +. 1.0); (Model.Shape_cmp Neq, o.(1) -. 0.5);
         (Model.Shape_cmp Like, o.(6) -. 0.3); (Model.Shape_cmp Not_like, o.(7) -. 0.8) ]);
  let between_ev =
    if List.length (Duonl.Nlq.numeric_literals nlq) >= 2 then
      0.4 +. Hints.count_matches words [ "between"; "within" ]
    else -2.0
  in
  same "number operators" (Model.to_list (Model.operators c number))
    (Score.normalize
       [ (Model.Shape_cmp Eq, o.(0)); (Model.Shape_cmp Neq, o.(1) -. 0.5);
         (Model.Shape_cmp Lt, o.(2)); (Model.Shape_cmp Le, o.(3) -. 0.3);
         (Model.Shape_cmp Gt, o.(4)); (Model.Shape_cmp Ge, o.(5) -. 0.3);
         (Model.Shape_between, between_ev) ]);
  let lits = List.length nlq.Duonl.Nlq.literals in
  same "num_predicates" (Model.to_list (Model.num_predicates c))
    (Score.normalize
       (List.map
          (fun n ->
            let s = if n <= lits then 1.0 else -0.5 -. float_of_int (n - lits) in
            (n, s +. if n = 1 then 0.3 else 0.0))
          [ 1; 2; 3 ]));
  same "connective" (Model.to_list (Model.connective c))
    (Score.normalize [ (And, 1.0); (Or, Hints.or_signal all_words -. 0.3) ]);
  same "having_presence" (Model.to_list (Model.having_presence c))
    (Score.normalize [ (false, 1.0); (true, Hints.having_signal words -. 0.4) ]);
  same "direction" (Model.to_list (Model.direction c))
    (Score.normalize [ (Asc, 0.6); (Desc, Hints.descending_signal words) ])

let test_precomputed_guidance () =
  let mas = Duobench.Mas.nli_study_tasks @ Duobench.Mas.pbe_study_tasks in
  List.iter
    (fun (t : Duobench.Mas.task) ->
      check_precomputed t.Duobench.Mas.task_id
        (Model.make Duobench.Mas.schema (Duonl.Nlq.analyze t.Duobench.Mas.task_nlq)))
    mas;
  let dev = Duobench.Spider_gen.mini ~seed:11 ~n_dbs:4 ~per_db:9 () in
  List.iter
    (fun (t : Duobench.Spider_gen.task) ->
      let db = List.assoc t.Duobench.Spider_gen.sp_db dev.Duobench.Spider_gen.databases in
      check_precomputed t.Duobench.Spider_gen.sp_nlq
        (Model.make (Duodb.Database.schema db)
           (Duonl.Nlq.with_literals t.Duobench.Spider_gen.sp_nlq
              t.Duobench.Spider_gen.sp_literals)))
    dev.Duobench.Spider_gen.tasks

let suite =
  [
    Alcotest.test_case "softmax normalizes" `Quick test_softmax_normalizes;
    Alcotest.test_case "softmax empty" `Quick test_softmax_empty;
    Alcotest.test_case "softmax temperature" `Quick test_softmax_temperature;
    Alcotest.test_case "name similarity" `Quick test_name_similarity;
    Alcotest.test_case "Property 1: keywords" `Quick test_property1_keywords;
    Alcotest.test_case "Property 1: all modules" `Quick test_property1_other_modules;
    Alcotest.test_case "keyword evidence" `Quick test_keyword_evidence;
    Alcotest.test_case "column evidence" `Quick test_column_evidence;
    Alcotest.test_case "grounding guides WHERE" `Quick test_grounded_literal_guides_where;
    Alcotest.test_case "values respect types" `Quick test_values_respect_types;
    Alcotest.test_case "used columns excluded" `Quick test_used_columns_excluded;
    Alcotest.test_case "limit hint" `Quick test_limit_hint;
    Alcotest.test_case "hint lexicon" `Quick test_hint_lexicon;
    QCheck_alcotest.to_alcotest prop_distributions_sum_to_one;
    Alcotest.test_case "precomputed = recomputed" `Quick test_precomputed_guidance;
  ]
