module Json = Duoserve.Json
module Protocol = Duoserve.Protocol
module Server = Duoserve.Server
module Enumerate = Duocore.Enumerate
module Duoquest = Duocore.Duoquest

(* --- the JSON codec --------------------------------------------------- *)

let test_json_roundtrip () =
  let values =
    [
      Json.Null;
      Json.Bool true;
      Json.Num 3.0;
      Json.Num (-0.25);
      Json.Str "with \"quotes\", \\ and \n newline";
      Json.List [ Json.Num 1.0; Json.Str "x"; Json.Null ];
      Json.Obj
        [
          ("a", Json.List []);
          ("b", Json.Obj [ ("nested", Json.Bool false) ]);
        ];
    ]
  in
  List.iter
    (fun v ->
      match Json.parse (Json.to_string v) with
      | Ok v' ->
          Alcotest.(check string)
            "print/parse round-trip" (Json.to_string v) (Json.to_string v')
      | Error e -> Alcotest.failf "round-trip parse failed: %s" e)
    values

(* Numbers survive the wire exactly: an AVG cell like dev task 155's
   (4384838.709677...) printed to 12 digits used to reach the server
   changed. *)
let test_json_float_exact () =
  let avg = 135_930_000.0 /. 31.0 in
  Alcotest.(check bool) "12 digits would lose it" false
    (Float.equal (float_of_string (Printf.sprintf "%.12g" avg)) avg);
  (match Json.parse (Json.to_string (Json.Num avg)) with
  | Ok (Json.Num f) -> Alcotest.(check bool) "AVG cell round-trips" true (Float.equal f avg)
  | Ok _ | Error _ -> Alcotest.fail "AVG cell did not parse back as a number");
  Alcotest.(check string) "short floats stay short" "0.1" (Json.to_string (Json.Num 0.1));
  Alcotest.(check string) "integers print bare" "42" (Json.to_string (Json.Num 42.0))

let prop_json_float_roundtrip =
  QCheck.Test.make ~count:2000 ~name:"json: parse (to_string (Num f)) = Num f"
    QCheck.(make ~print:(Printf.sprintf "%h") Gen.(oneof [ float; map2 (fun a b -> float_of_int a /. float_of_int (1 + abs b)) int int ]))
    (fun f ->
      QCheck.assume (Float.is_finite f);
      match Json.parse (Json.to_string (Json.Num f)) with
      | Ok (Json.Num f') -> Float.equal f f'
      | Ok _ | Error _ -> false)

let test_json_parse_cases () =
  (match Json.parse "  {\"k\" : [1, 2.5, \"\\u0041\\n\"]} " with
  | Ok j ->
      Alcotest.(check string)
        "whitespace and escapes" "{\"k\":[1,2.5,\"A\\n\"]}" (Json.to_string j)
  | Error e -> Alcotest.failf "parse failed: %s" e);
  List.iter
    (fun bad ->
      match Json.parse bad with
      | Ok _ -> Alcotest.failf "accepted malformed %S" bad
      | Error _ -> ())
    [ "{nope"; "[1,]"; "\"unterminated"; "{} trailing"; ""; "{\"a\":}" ]

(* --- protocol round-trips --------------------------------------------- *)

let sample_tsq =
  Duocore.Tsq.make
    ~types:[ Duodb.Datatype.Text; Duodb.Datatype.Number ]
    ~tuples:
      [
        [ Duocore.Tsq.Exact (Duodb.Value.Text "Forrest Gump"); Duocore.Tsq.Any ];
        [
          Duocore.Tsq.Any;
          Duocore.Tsq.Range (Duodb.Value.Int 1990, Duodb.Value.Int 2000);
        ];
      ]
    ~sorted:true ~limit:3 ()

let test_request_roundtrip () =
  let reqs =
    [
      Protocol.Open_session
        {
          Protocol.op_db = "movies";
          op_nlq = "movie names and years";
          op_tsq = Some sample_tsq;
          op_literals = Some [ Duodb.Value.Text "Forrest Gump"; Duodb.Value.Int 3 ];
          op_max_pops = Some 500;
          op_max_candidates = Some 5;
          op_time_budget_s = Some 2.5;
        };
      Protocol.Refine_tsq (7, sample_tsq);
      Protocol.Get_candidates (7, Some 3);
      Protocol.Get_candidates (7, None);
      Protocol.Cancel 7;
      Protocol.Close 7;
      Protocol.List_dbs;
      Protocol.Stats;
      Protocol.Shutdown;
    ]
  in
  List.iter
    (fun req ->
      let line = Protocol.request_to_line req in
      match Protocol.request_of_line line with
      | Ok req' ->
          Alcotest.(check string)
            "encode/decode round-trip" line
            (Protocol.request_to_line req')
      | Error e -> Alcotest.failf "decode of %s failed: %s" line e)
    reqs

let test_tsq_wire_cells () =
  (* null = Any, scalar = Exact, {"lo","hi"} = Range; integral numbers
     become Int *)
  let line =
    "{\"tuples\":[[null,\"x\",3,2.5,{\"lo\":1,\"hi\":4}]]}"
  in
  match Json.parse line with
  | Error e -> Alcotest.failf "parse: %s" e
  | Ok j -> (
      match Protocol.tsq_of_json j with
      | Error e -> Alcotest.failf "tsq decode: %s" e
      | Ok t -> (
          match t.Duocore.Tsq.tuples with
          | [ [ a; b; c; d; e ] ] ->
              let open Duocore.Tsq in
              Alcotest.(check bool) "any" true (a = Any);
              Alcotest.(check bool) "exact text" true
                (b = Exact (Duodb.Value.Text "x"));
              Alcotest.(check bool) "exact int" true (c = Exact (Duodb.Value.Int 3));
              Alcotest.(check bool) "exact float" true
                (d = Exact (Duodb.Value.Float 2.5));
              Alcotest.(check bool) "range" true
                (e = Range (Duodb.Value.Int 1, Duodb.Value.Int 4))
          | _ -> Alcotest.fail "wrong tuple shape"))

(* --- golden request/response transcripts over handle_line ------------- *)

let make_server ?step ?(max_sessions = 8) ?(slice = 50) () =
  let config =
    {
      Server.max_sessions;
      slice_pops = slice;
      session_config =
        { Enumerate.default_config with
          Enumerate.max_pops = 2_000;
          max_candidates = 8;
          time_budget_s = 20.0 };
    }
  in
  Server.create ?step config [ ("movies", Fixtures.movie_db ()) ]

let transcript server lines =
  List.map (fun line -> Server.handle_line server line) lines

let check_transcript name expected got =
  Alcotest.(check (list string)) name expected got

let test_golden_open_and_errors () =
  let server = make_server () in
  check_transcript "open + error goldens"
    [
      (* malformed JSON *)
      "{\"ok\":false,\"error\":\"malformed JSON: expected '\\\"', found 'n' at byte 1\"}";
      (* not an object op *)
      "{\"ok\":false,\"error\":\"missing \\\"op\\\"\"}";
      (* unknown op *)
      "{\"ok\":false,\"error\":\"unknown op \\\"frobnicate\\\"\"}";
      (* missing fields *)
      "{\"ok\":false,\"error\":\"missing \\\"nlq\\\"\"}";
      (* unknown database *)
      "{\"ok\":false,\"error\":\"unknown database \\\"nope\\\"\"}";
      (* a good open *)
      "{\"ok\":true,\"session\":1,\"status\":\"running\"}";
      (* bad tsq shape *)
      "{\"ok\":false,\"error\":\"bad tsq: expected an object\"}";
      (* unknown session *)
      "{\"ok\":false,\"error\":\"unknown session 99\"}";
    ]
    (transcript server
       [
         "{nope";
         "[1,2]";
         "{\"op\":\"frobnicate\"}";
         "{\"op\":\"open_session\",\"db\":\"movies\"}";
         "{\"op\":\"open_session\",\"db\":\"nope\",\"nlq\":\"names\"}";
         "{\"op\":\"open_session\",\"db\":\"movies\",\"nlq\":\"movie names\"}";
         "{\"op\":\"open_session\",\"db\":\"movies\",\"nlq\":\"names\",\"tsq\":[]}";
         "{\"op\":\"get_candidates\",\"session\":99}";
       ]);
  Server.destroy server

let test_golden_list_and_stats () =
  let server = make_server () in
  check_transcript "list_dbs and stats goldens"
    [
      "{\"ok\":true,\"dbs\":[\"movies\"]}";
      "{\"ok\":true,\"sessions\":0,\"running\":0,\"opened\":0,\"rejected\":0,\"completed\":0,\"runs_completed\":0,\"cancelled\":0,\"failed\":0,\"refined\":0,\"rebased\":0,\"slices\":0,\"read_pauses\":0,\"long_lines\":0,\"draining\":false,\"dedup\":{\"visited_hits\":0,\"canon_checked\":0,\"key_renders\":0},\"relcache\":{\"hits\":0,\"misses\":0,\"join_index_builds\":0,\"join_index_hits\":0}}";
    ]
    (transcript server [ "{\"op\":\"list_dbs\"}"; "{\"op\":\"stats\"}" ]);
  Server.destroy server

let test_golden_admission_full () =
  let server = make_server ~max_sessions:2 () in
  let open_req =
    "{\"op\":\"open_session\",\"db\":\"movies\",\"nlq\":\"movie names\"}"
  in
  check_transcript "admission control goldens"
    [
      "{\"ok\":true,\"session\":1,\"status\":\"running\"}";
      "{\"ok\":true,\"session\":2,\"status\":\"running\"}";
      "{\"ok\":false,\"error\":\"server full: 2 sessions open\"}";
      "{\"ok\":true,\"session\":1,\"closed\":true}";
      "{\"ok\":true,\"session\":3,\"status\":\"running\"}";
    ]
    (transcript server
       [
         open_req;
         open_req;
         open_req;
         "{\"op\":\"close\",\"session\":1}";
         open_req;
       ]);
  Server.destroy server

let test_golden_over_budget () =
  (* a session asking beyond the server ceiling is clamped, one under it
     keeps its budget: session 1 wants 1M pops (ceiling 2000), session 2
     wants 120 *)
  let server = make_server () in
  let r1 =
    Server.handle_line server
      "{\"op\":\"open_session\",\"db\":\"movies\",\"nlq\":\"movie names and \
       years\",\"max_pops\":1000000}"
  in
  let r2 =
    Server.handle_line server
      "{\"op\":\"open_session\",\"db\":\"movies\",\"nlq\":\"movie names and \
       years\",\"max_pops\":120}"
  in
  Alcotest.(check string) "open 1"
    "{\"ok\":true,\"session\":1,\"status\":\"running\"}" r1;
  Alcotest.(check string) "open 2"
    "{\"ok\":true,\"session\":2,\"status\":\"running\"}" r2;
  while Server.tick server do
    ()
  done;
  let pops_of line =
    match Json.parse line with
    | Ok j -> Option.get (Json.get_int (Option.get (Json.member "pops" j)))
    | Error e -> Alcotest.failf "bad response: %s" e
  in
  let p1 =
    pops_of (Server.handle_line server "{\"op\":\"get_candidates\",\"session\":1}")
  in
  let p2 =
    pops_of (Server.handle_line server "{\"op\":\"get_candidates\",\"session\":2}")
  in
  Alcotest.(check bool) "session 1 clamped to ceiling" true (p1 <= 2_000);
  Alcotest.(check bool) "session 2 kept its budget" true (p2 <= 120);
  Alcotest.(check bool) "session 2 under session 1" true (p2 < p1);
  Server.destroy server

let test_golden_cancel_mid_step () =
  let server = make_server ~slice:10 () in
  let _ =
    Server.handle_line server
      "{\"op\":\"open_session\",\"db\":\"movies\",\"nlq\":\"movie names and years\"}"
  in
  (* a few slices in, the session is mid-run *)
  Alcotest.(check bool) "tick ran" true (Server.tick server);
  Alcotest.(check bool) "tick ran again" true (Server.tick server);
  check_transcript "cancel mid-step goldens"
    [
      "{\"ok\":true,\"session\":1,\"status\":\"cancelled\"}";
      (* results stay readable after cancel; 2 slices * 10 pops *)
      "{\"ok\":true,\"session\":1,\"status\":\"cancelled\",\"candidates\":[],\"total\":0,\"pops\":20,\"exhausted\":false}";
      (* cancel is idempotent *)
      "{\"ok\":true,\"session\":1,\"status\":\"cancelled\"}";
    ]
    (transcript server
       [
         "{\"op\":\"cancel\",\"session\":1}";
         "{\"op\":\"get_candidates\",\"session\":1,\"k\":3}";
         "{\"op\":\"cancel\",\"session\":1}";
       ]);
  (* a cancelled session is never scheduled again *)
  Alcotest.(check bool) "nothing runnable" false (Server.tick server);
  Server.destroy server

let test_golden_shutdown_drain () =
  let server = make_server () in
  let _ =
    Server.handle_line server
      "{\"op\":\"open_session\",\"db\":\"movies\",\"nlq\":\"movie names\",\"max_pops\":60}"
  in
  check_transcript "shutdown goldens"
    [
      "{\"ok\":true,\"draining\":true}";
      "{\"ok\":false,\"error\":\"server is draining\"}";
    ]
    (transcript server
       [
         "{\"op\":\"shutdown\"}";
         "{\"op\":\"open_session\",\"db\":\"movies\",\"nlq\":\"names\"}";
       ]);
  Alcotest.(check bool) "draining" true (Server.draining server);
  Alcotest.(check bool) "not yet drained" false (Server.drained server);
  while Server.tick server do
    ()
  done;
  Alcotest.(check bool) "drained after ticks" true (Server.drained server);
  Server.destroy server

(* --- zero cross-session interference ---------------------------------- *)

(* Eight concurrent sessions, round-robin time-sliced, then each compared
   against a solo run with the identical config: the candidate lists must
   be bit-identical.  This is the server's core correctness claim. *)
let test_concurrent_sessions_match_solo () =
  let nlqs =
    [
      "movie names";
      "movie names and years";
      "average movie year";
      "number of movies";
    ]
  in
  let specs = List.init 8 (fun i -> List.nth nlqs (i mod List.length nlqs)) in
  let server = make_server ~slice:17 () in
  List.iteri
    (fun i nlq ->
      let line =
        Printf.sprintf
          "{\"op\":\"open_session\",\"db\":\"movies\",\"nlq\":\"%s\",\"max_pops\":600}"
          nlq
      in
      Alcotest.(check string)
        (Printf.sprintf "open %d" (i + 1))
        (Printf.sprintf "{\"ok\":true,\"session\":%d,\"status\":\"running\"}"
           (i + 1))
        (Server.handle_line server line))
    specs;
  while Server.tick server do
    ()
  done;
  let db = Fixtures.movie_db () in
  let solo_session = Duoquest.create_session db in
  let config =
    { Enumerate.default_config with
      Enumerate.max_pops = 600;
      max_candidates = 8;
      time_budget_s = 20.0 }
  in
  List.iteri
    (fun i nlq ->
      let resp =
        Server.handle_line server
          (Printf.sprintf "{\"op\":\"get_candidates\",\"session\":%d}" (i + 1))
      in
      let j = Result.get_ok (Json.parse resp) in
      Alcotest.(check (option string))
        (Printf.sprintf "session %d finished" (i + 1))
        (Some "finished")
        (Option.bind (Json.member "status" j) Json.get_str);
      let served =
        List.map
          (fun c ->
            Option.get (Json.get_str (Option.get (Json.member "sql" c))))
          (Option.get (Json.get_list (Option.get (Json.member "candidates" j))))
      in
      let solo = Duoquest.synthesize ~config solo_session ~nlq () in
      let expected =
        List.map
          (fun c -> Duosql.Pretty.query c.Enumerate.cand_query)
          solo.Enumerate.out_candidates
      in
      Alcotest.(check (list string))
        (Printf.sprintf "session %d = solo run (%s)" (i + 1) nlq)
        expected served)
    specs;
  Server.destroy server

(* --- refine_tsq: the interaction loop --------------------------------- *)

(* The session books: every opened session is booked once, as completed,
   cancelled or live, whatever sequence of refines, cancels and closes it
   went through; a refined session's second run completion is a run, not
   a session. *)
let test_session_books () =
  let server = make_server ~slice:20 () in
  let stat name =
    let j = Result.get_ok (Json.parse (Server.handle_line server "{\"op\":\"stats\"}")) in
    Option.get (Json.get_int (Option.get (Json.member name j)))
  in
  let balanced step =
    Alcotest.(check int)
      (step ^ ": opened = completed + cancelled + live")
      (stat "opened")
      (stat "completed" + stat "cancelled" + stat "running")
  in
  let run_all () = while Server.tick server do () done in
  let send line = ignore (Server.handle_line server line) in
  let open_line = "{\"op\":\"open_session\",\"db\":\"movies\",\"nlq\":\"movie names\",\"max_pops\":300}" in
  send open_line;
  send open_line;
  send open_line;
  balanced "three open";
  run_all ();
  balanced "all finished";
  Alcotest.(check int) "three completed" 3 (stat "completed");
  send "{\"op\":\"refine_tsq\",\"session\":1,\"tsq\":{\"types\":[\"text\"]}}";
  balanced "refined";
  Alcotest.(check int) "the refined session is live again" 1 (stat "running");
  ignore (Server.tick server);
  send "{\"op\":\"refine_tsq\",\"session\":2,\"tsq\":{\"types\":[\"text\"]}}";
  send "{\"op\":\"cancel\",\"session\":2}";
  balanced "cancelled mid-run";
  send "{\"op\":\"cancel\",\"session\":3}";
  balanced "cancel after finish is a no-op";
  run_all ();
  balanced "refined run finished";
  send open_line;
  ignore (Server.tick server);
  send "{\"op\":\"close\",\"session\":4}";
  send "{\"op\":\"close\",\"session\":1}";
  balanced "closed";
  Alcotest.(check int) "opened" 4 (stat "opened");
  Alcotest.(check int) "completed: sessions 1 and 3" 2 (stat "completed");
  Alcotest.(check int) "cancelled: sessions 2 and 4" 2 (stat "cancelled");
  Alcotest.(check int) "runs: three first runs and session 1's refine" 4 (stat "runs_completed");
  Server.destroy server

(* The exception barrier: a session whose slice raises is marked failed
   and booked so, its polls and refines answer with the reason, and the
   other sessions finish with what they find alone. *)
let test_raising_session_isolated () =
  let step ~max_pops s =
    if Duoserve.Session.sid s = 2 then failwith "injected fault"
    else Duoserve.Session.step ~max_pops s
  in
  let server = make_server ~step ~slice:20 () in
  let reply line = Result.get_ok (Json.parse (Server.handle_line server line)) in
  let field name j = Option.get (Json.member name j) in
  let stat name = Option.get (Json.get_int (field name (reply "{\"op\":\"stats\"}"))) in
  let balanced step =
    Alcotest.(check int)
      (step ^ ": opened = completed + cancelled + failed + running")
      (stat "opened")
      (stat "completed" + stat "cancelled" + stat "failed" + stat "running")
  in
  let open_line = "{\"op\":\"open_session\",\"db\":\"movies\",\"nlq\":\"movie names\",\"max_pops\":300}" in
  List.iter (fun _ -> ignore (reply open_line)) [ 1; 2; 3 ];
  while Server.tick server do () done;
  balanced "after the run";
  Alcotest.(check (list int)) "completed, failed, running" [ 2; 1; 0 ]
    [ stat "completed"; stat "failed"; stat "running" ];
  let poll sid = reply (Printf.sprintf "{\"op\":\"get_candidates\",\"session\":%d}" sid) in
  let error j = Json.to_string (field "error" j) in
  Alcotest.(check string) "the failed session's poll names the reason"
    "\"session 2 failed: Failure(\\\"injected fault\\\")\"" (error (poll 2));
  Alcotest.(check bool) "a refine of it is refused" false
    (Json.get_bool
       (field "ok" (reply "{\"op\":\"refine_tsq\",\"session\":2,\"tsq\":{\"types\":[\"text\"]}}"))
    = Some true);
  let solo =
    Duocore.Duoquest.synthesize
      ~config:
        { Enumerate.default_config with
          Enumerate.max_pops = 300;
          max_candidates = 8;
          time_budget_s = 20.0 }
      (Duocore.Duoquest.create_session (Fixtures.movie_db ())) ~nlq:"movie names" ()
  in
  List.iter
    (fun sid ->
      Alcotest.(check int)
        (Printf.sprintf "session %d found what a solo run finds" sid)
        (List.length solo.Enumerate.out_candidates)
        (Option.get (Json.get_int (field "total" (poll sid)))))
    [ 1; 3 ];
  ignore (reply "{\"op\":\"close\",\"session\":2}");
  balanced "after closing the failed session";
  Alcotest.(check int) "a closed failed session stays on the books" 1 (stat "failed");
  Server.destroy server

(* Closing a session keeps its dedup and relation-cache work on the
   books: its [dedup] counters are folded into a retired total on close,
   and the per-database relation cache (with its join indexes) outlives
   the sessions that filled it. *)
let test_stats_survive_close () =
  let server = make_server ~slice:40 () in
  let totals () =
    let stats = Result.get_ok (Json.parse (Server.handle_line server "{\"op\":\"stats\"}")) in
    List.map
      (fun (block, name) ->
        let b = Option.get (Json.member block stats) in
        Option.get (Json.get_int (Option.get (Json.member name b))))
      [ ("dedup", "visited_hits"); ("relcache", "misses");
        ("relcache", "join_index_builds") ]
  in
  let send line = ignore (Server.handle_line server line) in
  send
    "{\"op\":\"open_session\",\"db\":\"movies\",\"nlq\":\"movie names\",\"max_pops\":300,\
     \"tsq\":{\"types\":[\"text\"],\"tuples\":[[\"Forrest Gump\"]]}}";
  send "{\"op\":\"open_session\",\"db\":\"movies\",\"nlq\":\"actor names\",\"max_pops\":300}";
  while Server.tick server do () done;
  let before = totals () in
  Alcotest.(check bool) "dedup ran; relations and join indexes built" true
    (List.for_all (fun n -> n > 0) before);
  send "{\"op\":\"close\",\"session\":1}";
  Alcotest.(check (list int)) "one close keeps every total" before (totals ());
  send "{\"op\":\"close\",\"session\":2}";
  Alcotest.(check (list int)) "both closed: totals unchanged" before (totals ());
  Server.destroy server

let test_refine_restarts () =
  let server = make_server () in
  let _ =
    Server.handle_line server
      "{\"op\":\"open_session\",\"db\":\"movies\",\"nlq\":\"movie names\",\"max_pops\":400}"
  in
  while Server.tick server do
    ()
  done;
  let first =
    Server.handle_line server "{\"op\":\"get_candidates\",\"session\":1}"
  in
  (* no prior TSQ on the session, so this refine is a from-root restart:
     [rebased] is false *)
  Alcotest.(check string) "refine response"
    "{\"ok\":true,\"session\":1,\"status\":\"running\",\"refinements\":1,\"rebased\":false}"
    (Server.handle_line server
       "{\"op\":\"refine_tsq\",\"session\":1,\"tsq\":{\"types\":[\"text\"],\"tuples\":[[\"Forrest Gump\"]]}}");
  while Server.tick server do
    ()
  done;
  let refined =
    Server.handle_line server "{\"op\":\"get_candidates\",\"session\":1}"
  in
  let sqls line =
    let j = Result.get_ok (Json.parse line) in
    List.map
      (fun c -> Option.get (Json.get_str (Option.get (Json.member "sql" c))))
      (Option.get (Json.get_list (Option.get (Json.member "candidates" j))))
  in
  Alcotest.(check bool) "refined run found candidates" true (sqls refined <> []);
  (* the sketch narrowed the space: refined results also come from a solo
     dual-specification run *)
  let db = Fixtures.movie_db () in
  let config =
    { Enumerate.default_config with
      Enumerate.max_pops = 400;
      max_candidates = 8;
      time_budget_s = 20.0 }
  in
  let tsq =
    Duocore.Tsq.make ~types:[ Duodb.Datatype.Text ]
      ~tuples:[ [ Duocore.Tsq.Exact (Duodb.Value.Text "Forrest Gump") ] ]
      ()
  in
  let solo =
    Duoquest.synthesize ~config ~tsq (Duoquest.create_session db)
      ~nlq:"movie names" ()
  in
  Alcotest.(check (list string))
    "refined session = solo dual-spec run"
    (List.map
       (fun c -> Duosql.Pretty.query c.Enumerate.cand_query)
       solo.Enumerate.out_candidates)
    (sqls refined);
  ignore first;
  Server.destroy server

let suite =
  [
    Alcotest.test_case "json round-trip" `Quick test_json_roundtrip;
    Alcotest.test_case "json parse cases" `Quick test_json_parse_cases;
    Alcotest.test_case "request round-trip" `Quick test_request_roundtrip;
    Alcotest.test_case "tsq wire cells" `Quick test_tsq_wire_cells;
    Alcotest.test_case "golden: open + errors" `Quick test_golden_open_and_errors;
    Alcotest.test_case "golden: list_dbs + stats" `Quick
      test_golden_list_and_stats;
    Alcotest.test_case "golden: admission full" `Quick test_golden_admission_full;
    Alcotest.test_case "over-budget sessions clamped" `Quick
      test_golden_over_budget;
    Alcotest.test_case "golden: cancel mid-step" `Quick
      test_golden_cancel_mid_step;
    Alcotest.test_case "golden: shutdown drain" `Quick test_golden_shutdown_drain;
    Alcotest.test_case "8 concurrent sessions = solo runs" `Quick
      test_concurrent_sessions_match_solo;
    Alcotest.test_case "refine_tsq restarts enumeration" `Quick
      test_refine_restarts;
    Alcotest.test_case "session books balance" `Quick test_session_books;
    Alcotest.test_case "a raising session fails alone" `Quick
      test_raising_session_isolated;
    Alcotest.test_case "stats survive session close" `Quick test_stats_survive_close;
    Alcotest.test_case "json floats exact" `Quick test_json_float_exact;
    QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 0x150A7 |])
      prop_json_float_roundtrip;
  ]
