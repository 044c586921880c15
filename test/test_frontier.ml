module Frontier = Duocore.Frontier
module Partial = Duocore.Partial

let state conf = { Partial.root with Partial.confidence = conf }

(* up to [k] successive pops *)
let pop_k f k =
  let rec go k acc =
    if k = 0 then List.rev acc
    else match Frontier.pop f with Some p -> go (k - 1) (p :: acc) | None -> List.rev acc
  in
  go k []

let test_pop_order () =
  let f = Frontier.create () in
  List.iter (fun c -> Frontier.push f (state c)) [ 0.3; 0.9; 0.1; 0.5 ];
  let popped = List.init 4 (fun _ -> (Option.get (Frontier.pop f)).Partial.confidence) in
  Alcotest.(check (list (float 1e-9))) "descending confidence" [ 0.9; 0.5; 0.3; 0.1 ] popped

let test_fifo_on_ties () =
  let f = Frontier.create () in
  let a = { (state 0.5) with Partial.nproj = 1 } in
  let b = { (state 0.5) with Partial.nproj = 2 } in
  Frontier.push f a;
  Frontier.push f b;
  Alcotest.(check int) "first pushed pops first" 1
    (Option.get (Frontier.pop f)).Partial.nproj

let test_join_length_tiebreak () =
  let f = Frontier.create () in
  let with_from tables joins =
    { (state 0.5) with
      Partial.from = Some { Duosql.Ast.f_tables = tables; f_joins = joins } }
  in
  let long =
    with_from [ "actor"; "starring" ]
      [ { Duosql.Ast.j_from = Duosql.Ast.col "starring" "aid";
          j_to = Duosql.Ast.col "actor" "aid" } ]
  in
  let short = with_from [ "actor" ] [] in
  Frontier.push f long;
  Frontier.push f short;
  Alcotest.(check int) "shorter join path first" 0
    (match (Option.get (Frontier.pop f)).Partial.from with
    | Some fr -> List.length fr.Duosql.Ast.f_joins
    | None -> -1)

let test_empty_pop () =
  let f = Frontier.create () in
  Alcotest.(check bool) "empty" true (Option.is_none (Frontier.pop f))

let test_cap_compaction () =
  let f = Frontier.create ~cap:10 () in
  for i = 1 to 50 do
    Frontier.push f (state (float_of_int i /. 100.0))
  done;
  Alcotest.(check bool) "size bounded" true (Frontier.size f <= 11);
  Alcotest.(check bool) "some dropped" true (Frontier.dropped f > 0);
  (* survivors are the best ones *)
  Alcotest.(check (float 1e-9)) "best kept" 0.5
    (Option.get (Frontier.pop f)).Partial.confidence

let prop_heap_order =
  QCheck.Test.make ~name:"pops are sorted by priority" ~count:100
    QCheck.(list_of_size (Gen.int_range 0 40) (float_bound_inclusive 1.0))
    (fun confs ->
      let f = Frontier.create () in
      List.iter (fun c -> Frontier.push f (state c)) confs;
      let rec drain acc =
        match Frontier.pop f with
        | Some s -> drain (s.Partial.confidence :: acc)
        | None -> List.rev acc
      in
      let popped = drain [] in
      popped = List.sort (fun a b -> compare b a) confs)

let prop_pushed_count =
  QCheck.Test.make ~name:"pushed counter" ~count:50
    QCheck.(int_range 0 60)
    (fun n ->
      let f = Frontier.create () in
      for i = 1 to n do
        Frontier.push f (state (float_of_int i))
      done;
      Frontier.pushed f = n)

let test_pop_k_order () =
  let f = Frontier.create () in
  List.iter (fun c -> Frontier.push f (state c)) [ 0.3; 0.9; 0.1; 0.5; 0.7 ];
  let confs l = List.map (fun (s : Partial.t) -> s.Partial.confidence) l in
  Alcotest.(check (list (float 1e-9))) "best k, descending" [ 0.9; 0.7; 0.5 ]
    (confs (pop_k f 3));
  Alcotest.(check (list (float 1e-9))) "remainder still ordered" [ 0.3; 0.1 ]
    (confs (pop_k f 10));
  Alcotest.(check (list (float 1e-9))) "empty" [] (confs (pop_k f 4))

let test_pop_k_compaction_interaction () =
  let f = Frontier.create ~cap:10 () in
  for i = 1 to 50 do
    Frontier.push f (state (float_of_int i /. 100.0))
  done;
  let dropped0 = Frontier.dropped f in
  Alcotest.(check bool) "compaction dropped some" true (dropped0 > 0);
  (* draining and pushing back must not disturb the dropped accounting,
     and pushing past the cap still triggers compaction rather than
     unbounded growth *)
  List.iter (Frontier.push f) (pop_k f (Frontier.size f));
  Alcotest.(check bool) "size still bounded" true (Frontier.size f <= 11);
  Alcotest.(check (float 1e-9)) "best survivor unchanged" 0.5
    (Option.get (Frontier.pop f)).Partial.confidence;
  Alcotest.(check bool) "dropped monotone" true (Frontier.dropped f >= dropped0)

(* The frontier against a sorted-list model.  Each operation runs on
   both; pops, settled marks, sizes and the pushed/dropped counters must
   agree after every step.  Confidences and join lengths come from small
   sets so ties on both are common; states carry a unique id in [depth].
   A settle re-inserts the state the last pop returned, under its
   sequence number, and only right after a pop that returned one. *)
type op =
  | Push of float * int
  | Pop
  | Settle of float

let gen_op =
  QCheck.Gen.(
    frequency
      [
        (3, map2 (fun c j -> Push (c, j)) (oneofl [ 0.2; 0.5; 0.9 ]) (int_range 0 2));
        (1, return Pop);
        (1, map (fun c -> Settle c) (oneofl [ 0.2; 0.5; 0.9 ]));
      ])

let show_op = function
  | Push (c, j) -> Printf.sprintf "push %.1f/%d" c j
  | Pop -> "pop"
  | Settle c -> Printf.sprintf "settle %.1f" c

let edge =
  { Duosql.Ast.j_from = Duosql.Ast.col "starring" "aid"; j_to = Duosql.Ast.col "actor" "aid" }

type model = {
  mutable entries : (Partial.t * int) list;  (* sorted by priority *)
  mutable m_pushed : int;
  mutable m_dropped : int;
  m_settled : (int, unit) Hashtbl.t;  (* ids queued by a settle *)
  mutable m_last : (Partial.t * int) option;  (* the pop a settle may follow *)
}

let model_insert m cap e =
  if List.length m.entries >= cap then begin
    let keep = min (max 1 (cap / 2)) (List.length m.entries) in
    m.m_dropped <- m.m_dropped + (List.length m.entries - keep);
    m.entries <- List.filteri (fun i _ -> i < keep) m.entries
  end;
  m.entries <- List.merge Partial.compare_priority m.entries [ e ]

let model_pop m =
  match m.entries with
  | e :: rest ->
      m.entries <- rest;
      [ e ]
  | [] -> []

let prop_model =
  QCheck.Test.make ~name:"frontier = sorted-list model" ~count:300
    QCheck.(
      pair (int_range 2 12)
        (make ~print:(QCheck.Print.list show_op) QCheck.Gen.(list_size (int_range 0 80) gen_op)))
    (fun (cap, ops) ->
      let f = Frontier.create ~cap () in
      let m =
        { entries = []; m_pushed = 0; m_dropped = 0; m_settled = Hashtbl.create 8; m_last = None }
      in
      let next_id = ref 0 in
      let ids l = List.map (fun (p : Partial.t) -> p.Partial.depth) l in
      let step op =
        let last = m.m_last in
        m.m_last <- None;
        match op with
        | Push (c, j) ->
            let p =
              { (state c) with
                Partial.depth = !next_id;
                from =
                  Some { Duosql.Ast.f_tables = [ "actor" ]; f_joins = List.init j (fun _ -> edge) } }
            in
            incr next_id;
            Frontier.push f p;
            model_insert m cap (p, m.m_pushed);
            m.m_pushed <- m.m_pushed + 1;
            true
        | Pop -> (
            let got = Frontier.pop f in
            match model_pop m with
            | [ ((p, _) as e) ] ->
                m.m_last <- Some e;
                ids (Option.to_list got) = ids [ p ]
                && Frontier.settled f = Hashtbl.mem m.m_settled p.Partial.depth
            | _ -> got = None)
        | Settle c -> (
            match last with
            | None -> true
            | Some (p, seq) ->
                let p = { p with Partial.confidence = c } in
                Frontier.settle f p;
                model_insert m cap (p, seq);
                Hashtbl.replace m.m_settled p.Partial.depth ();
                true)
      in
      List.for_all
        (fun op ->
          step op
          && Frontier.size f = List.length m.entries
          && Frontier.pushed f = m.m_pushed
          && Frontier.dropped f = m.m_dropped)
        ops
      &&
      let rec drain acc = match Frontier.pop f with Some p -> drain (p :: acc) | None -> List.rev acc in
      ids (drain []) = ids (List.map fst m.entries))

let suite =
  [
    Alcotest.test_case "pop order" `Quick test_pop_order;
    Alcotest.test_case "pop_k order" `Quick test_pop_k_order;
    Alcotest.test_case "pop_k + compaction" `Quick test_pop_k_compaction_interaction;
    Alcotest.test_case "FIFO on ties" `Quick test_fifo_on_ties;
    Alcotest.test_case "join-length tiebreak" `Quick test_join_length_tiebreak;
    Alcotest.test_case "empty pop" `Quick test_empty_pop;
    Alcotest.test_case "cap compaction" `Quick test_cap_compaction;
    QCheck_alcotest.to_alcotest prop_heap_order;
    QCheck_alcotest.to_alcotest prop_pushed_count;
    QCheck_alcotest.to_alcotest prop_model;
  ]
