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
   both; pops, settled marks, sizes, the pushed/dropped counters and the
   number of children built must agree after every step.  Confidences
   and join lengths come from small sets so ties on both are common;
   states carry a unique id in [depth].  A settle re-inserts the state
   the last pop returned, under its sequence number, and only right
   after a pop that returned one.  A run's children enter the model
   unbuilt, under sequence numbers reserved in generation order; one is
   built when it reaches the head, or when a state arriving at the cap
   (or a run that could meet it) builds every unbuilt child in sequence
   order.  Run children carry a key in [nproj], drawn from a small set,
   and the frontier's [admit] refuses a child whose key it took before
   (a visited set); the model keeps its own, so a child built out of
   order shows as a different admission.  A run goes in with an order
   hint ([order_hint]) that the model ignores: a wrong one must change
   nothing. *)
type op =
  | Push of float * int
  | Push_run of (float * int * int) list * int
  | Pop
  | Settle of float

(* The best-first order hint a run is pushed with, by code: none; the
   stable order on confidence alone (the enumerator's guess, wrong when
   join lengths differ); a permutation drawn from the code. *)
let order_hint code (l : (float * int * int) list) =
  let n = List.length l in
  match code with
  | 0 -> None
  | 1 ->
      let conf = Array.of_list (List.map (fun (c, _, _) -> c) l) in
      let o = Array.init n Fun.id in
      Array.stable_sort (fun i j -> Float.compare conf.(j) conf.(i)) o;
      Some o
  | k ->
      let st = Random.State.make [| k |] in
      let o = Array.init n Fun.id in
      for i = n - 1 downto 1 do
        let j = Random.State.int st (i + 1) in
        let x = o.(i) in
        o.(i) <- o.(j);
        o.(j) <- x
      done;
      Some o

let confs = [ 0.2; 0.5; 0.9 ]

let gen_op =
  QCheck.Gen.(
    frequency
      [
        (3, map2 (fun c j -> Push (c, j)) (oneofl confs) (int_range 0 2));
        ( 2,
          map2
            (fun l h -> Push_run (l, h))
            (list_size (int_range 0 5) (triple (oneofl confs) (int_range 0 2) (int_range 0 40)))
            (int_range 0 4) );
        (2, return Pop);
        (1, map (fun c -> Settle c) (oneofl confs));
      ])

let show_op = function
  | Push (c, j) -> Printf.sprintf "push %.1f/%d" c j
  | Push_run (l, h) ->
      "run ["
      ^ String.concat "; " (List.map (fun (c, j, k) -> Printf.sprintf "%.1f/%d#%d" c j k) l)
      ^ Printf.sprintf "] hint %d" h
  | Pop -> "pop"
  | Settle c -> Printf.sprintf "settle %.1f" c

let edge =
  { Duosql.Ast.j_from = Duosql.Ast.col "starring" "aid"; j_to = Duosql.Ast.col "actor" "aid" }

(* A visited set on run children's keys: [admit]. *)
let admits seen (p : Partial.t) =
  (not (Hashtbl.mem seen p.Partial.nproj)) && (Hashtbl.replace seen p.Partial.nproj (); true)

type entry = { e_state : Partial.t; e_seq : int; e_unbuilt : bool }

type model = {
  cap : int;
  mutable entries : entry list;  (* sorted by priority *)
  mutable m_seq : int;
  mutable m_pushed : int;
  mutable m_dropped : int;
  mutable m_built : int;
  m_seen : (int, unit) Hashtbl.t;  (* the model's visited set *)
  m_settled : (int, unit) Hashtbl.t;  (* ids queued by a settle *)
  mutable m_last : entry option;  (* the pop a settle may follow *)
}

let priority a b = Partial.compare_priority (a.e_state, a.e_seq) (b.e_state, b.e_seq)
let model_add m e = m.entries <- List.merge priority m.entries [ e ]

(* A built state that [admit] took, arriving with no child unbuilt. *)
let model_insert_state m e =
  let n = List.length m.entries in
  if n >= m.cap then begin
    let keep = min (max 1 (m.cap / 2)) n in
    m.m_dropped <- m.m_dropped + (n - keep);
    m.entries <- List.filteri (fun i _ -> i < keep) m.entries
  end;
  model_add m e

(* Build a child and queue it if [admit] takes it. *)
let model_admit m e =
  m.m_built <- m.m_built + 1;
  if admits m.m_seen e.e_state then begin
    m.m_pushed <- m.m_pushed + 1;
    model_insert_state m { e with e_unbuilt = false }
  end

let model_flush m =
  let unbuilt = List.filter (fun e -> e.e_unbuilt) m.entries in
  m.entries <- List.filter (fun e -> not e.e_unbuilt) m.entries;
  List.iter (model_admit m) (List.sort (fun a b -> Int.compare a.e_seq b.e_seq) unbuilt)

let model_insert m e =
  if List.length m.entries >= m.cap then model_flush m;
  model_insert_state m e

let rec model_pop m =
  match m.entries with
  | e :: rest when e.e_unbuilt ->
      m.entries <- rest;
      m.m_built <- m.m_built + 1;
      if admits m.m_seen e.e_state then begin
        m.m_pushed <- m.m_pushed + 1;
        Some { e with e_unbuilt = false }
      end
      else model_pop m
  | e :: rest ->
      m.entries <- rest;
      Some e
  | [] -> None

let prop_model =
  QCheck.Test.make ~name:"frontier = sorted-list model" ~count:300
    QCheck.(
      pair (int_range 2 12)
        (make ~print:(QCheck.Print.list show_op) QCheck.Gen.(list_size (int_range 0 80) gen_op)))
    (fun (cap, ops) ->
      let f = Frontier.create ~cap ~admit:(admits (Hashtbl.create 16)) () in
      let m =
        { cap; entries = []; m_seq = 0; m_pushed = 0; m_dropped = 0; m_built = 0;
          m_seen = Hashtbl.create 16; m_settled = Hashtbl.create 8; m_last = None }
      in
      let built = ref 0 in
      let next_id = ref 0 in
      let state_of (c, j, key) =
        let p =
          { (state c) with
            Partial.depth = !next_id;
            nproj = key;
            from =
              Some { Duosql.Ast.f_tables = [ "actor" ]; f_joins = List.init j (fun _ -> edge) } }
        in
        incr next_id;
        p
      in
      let ids l = List.map (fun (p : Partial.t) -> p.Partial.depth) l in
      let step op =
        let last = m.m_last in
        m.m_last <- None;
        match op with
        | Push (c, j) ->
            let p = state_of (c, j, -1) in
            Frontier.push f p;
            let e = { e_state = p; e_seq = m.m_seq; e_unbuilt = false } in
            m.m_seq <- m.m_seq + 1;
            m.m_pushed <- m.m_pushed + 1;
            model_insert m e;
            true
        | Push_run (l, h) ->
            let kids = Array.of_list (List.map state_of l) in
            let n = Array.length kids in
            Frontier.push_run ?order:(order_hint h l) f
              ~conf:(Array.map (fun (p : Partial.t) -> p.Partial.confidence) kids)
              ~jlen:(Array.map Partial.join_length kids)
              (fun i ->
                incr built;
                kids.(i));
            let es = Array.mapi (fun i p -> { e_state = p; e_seq = m.m_seq + i; e_unbuilt = true }) kids in
            m.m_seq <- m.m_seq + n;
            if List.length m.entries + n > cap then begin
              model_flush m;
              Array.iter (model_admit m) es
            end
            else Array.iter (model_add m) es;
            true
        | Pop -> (
            let got = Frontier.pop f in
            match model_pop m with
            | Some e ->
                m.m_last <- Some e;
                ids (Option.to_list got) = ids [ e.e_state ]
                && Frontier.settled f = Hashtbl.mem m.m_settled e.e_state.Partial.depth
            | None -> got = None)
        | Settle c -> (
            match last with
            | None -> true
            | Some e ->
                let p = { e.e_state with Partial.confidence = c } in
                Frontier.settle f p;
                model_insert m { e with e_state = p };
                Hashtbl.replace m.m_settled p.Partial.depth ();
                true)
      in
      List.for_all
        (fun op ->
          step op
          && Frontier.size f = List.length m.entries
          && Frontier.pushed f = m.m_pushed
          && Frontier.dropped f = m.m_dropped
          && !built = m.m_built)
        ops
      &&
      let rec drain acc = match Frontier.pop f with Some p -> drain (p :: acc) | None -> List.rev acc in
      let rec model_drain acc =
        match model_pop m with Some e -> model_drain (e.e_state :: acc) | None -> List.rev acc
      in
      ids (drain []) = ids (model_drain []))

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
