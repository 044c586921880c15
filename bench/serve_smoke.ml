(* serve_smoke: boot duoserve on a Unix socket, run a scripted session
   end-to-end over the wire, and shut the server down cleanly.

   This is the @serve-smoke gate wired into @check: it proves the whole
   stack — socket loop, protocol codec, session scheduling, refinement,
   cancellation, graceful drain — not just the in-process handle_line
   path the unit tests cover.  Exits 0 on success. *)

module Server = Duoserve.Server
module Client = Duoserve.Client
module Protocol = Duoserve.Protocol
module Json = Duoserve.Json
module Enumerate = Duocore.Enumerate

let die fmt = Printf.ksprintf (fun msg -> prerr_endline ("serve_smoke: " ^ msg); exit 1) fmt

let check name cond = if not cond then die "check failed: %s" name

let get_int j field =
  match Option.bind (Json.member field j) Json.get_int with
  | Some i -> i
  | None -> die "response missing integer %S" field

let get_str j field =
  match Option.bind (Json.member field j) Json.get_str with
  | Some s -> s
  | None -> die "response missing string %S" field

let get_bool j field =
  match Option.bind (Json.member field j) Json.get_bool with
  | Some b -> b
  | None -> die "response missing boolean %S" field

(* A raw line client, to control how request bytes reach the server. *)
type raw = { fd : Unix.file_descr; pending : Buffer.t }

let raw_connect path =
  let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX path);
  (* a reply that never comes, or a server that stops reading, fails the
     smoke instead of hanging it *)
  Unix.setsockopt_float fd Unix.SO_RCVTIMEO 10.0;
  Unix.setsockopt_float fd Unix.SO_SNDTIMEO 10.0;
  { fd; pending = Buffer.create 256 }

let raw_send r s =
  if Unix.write_substring r.fd s 0 (String.length s) <> String.length s then die "short write"

let rec raw_read_line r =
  let s = Buffer.contents r.pending in
  match String.index_opt s '\n' with
  | Some nl ->
      Buffer.clear r.pending;
      Buffer.add_string r.pending (String.sub s (nl + 1) (String.length s - nl - 1));
      String.sub s 0 nl
  | None ->
      let chunk = Bytes.create 4096 in
      let n =
        try Unix.read r.fd chunk 0 4096
        with Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
          die "no reply line within 10 s"
      in
      if n = 0 then die "server closed a raw connection";
      Buffer.add_subbytes r.pending chunk 0 n;
      raw_read_line r

let () =
  let path = Printf.sprintf "/tmp/duoserve-smoke-%d.sock" (Unix.getpid ()) in
  let split = Duobench.Spider_gen.mini ~seed:11 ~n_dbs:2 ~per_db:2 () in
  let config =
    {
      Server.max_sessions = 4;
      slice_pops = 32;
      session_config =
        { Enumerate.default_config with
          Enumerate.max_pops = 800;
          max_candidates = 5;
          time_budget_s = 20.0 };
    }
  in
  let server = Server.create config split.Duobench.Spider_gen.databases in
  let listen =
    let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    Unix.bind fd (Unix.ADDR_UNIX path);
    Unix.listen fd 16;
    fd
  in
  let server_domain = Domain.spawn (fun () -> Server.serve server ~listen) in
  let c = Client.connect_unix path in
  (* 1. the database inventory *)
  let dbs =
    match
      Option.bind (Json.member "dbs" (Client.request_exn c Protocol.List_dbs))
        Json.get_list
    with
    | Some l -> List.filter_map Json.get_str l
    | None -> die "list_dbs gave no dbs"
  in
  check "two databases served" (List.length dbs = 2);
  (* 2. open a session on the first task *)
  let task = List.hd split.Duobench.Spider_gen.tasks in
  let open_req =
    Protocol.Open_session
      {
        Protocol.op_db = task.Duobench.Spider_gen.sp_db;
        op_nlq = task.Duobench.Spider_gen.sp_nlq;
        op_tsq = None;
        op_literals = Some task.Duobench.Spider_gen.sp_literals;
        op_max_pops = Some 400;
        op_max_candidates = None;
        op_time_budget_s = None;
      }
  in
  let opened = Client.request_exn c open_req in
  let sid = get_int opened "session" in
  check "session admitted running" (get_str opened "status" = "running");
  (* 3. poll until the enumeration finishes *)
  let rec poll tries =
    if tries > 2_000 then die "session %d never finished" sid;
    let r = Client.request_exn c (Protocol.Get_candidates (sid, None)) in
    if get_str r "status" = "running" then (
      Unix.sleepf 0.01;
      poll (tries + 1))
    else r
  in
  let done_resp = poll 0 in
  check "session finished" (get_str done_resp "status" = "finished");
  check "bounded pops" (get_int done_resp "pops" <= 400);
  (* 4. refine with a sketch derived from the gold answer and re-run *)
  let db = List.assoc task.Duobench.Spider_gen.sp_db split.Duobench.Spider_gen.databases in
  let warm_refines = ref 0 in
  let cold_refines = ref 0 in
  (match
     Duobench.Tsq_synth.synthesize (Duobench.Rng.create 7) db
       task.Duobench.Spider_gen.sp_gold ~detail:Duobench.Tsq_synth.Full
   with
  | None -> ()
  | Some tsq ->
      let refined = Client.request_exn c (Protocol.Refine_tsq (sid, tsq)) in
      check "refine restarts" (get_str refined "status" = "running");
      check "refinement counted" (get_int refined "refinements" = 1);
      (* no previous sketch to tighten: served by the from-root path *)
      check "first refine is cold" (not (get_bool refined "rebased"));
      incr cold_refines;
      check "refined run finishes" (get_str (poll 0) "status" = "finished");
      (* 4b. tighten the sketch in place: a negative tuple that matches no
         row keeps every candidate alive, so the warm rebase path must
         serve the refinement without re-enumerating from the root. *)
      let module Tsq = Duocore.Tsq in
      let tighter =
        Tsq.add_negative tsq
          (List.map
             (fun _ -> Tsq.Exact (Duodb.Value.Text "duoserve-smoke-neg"))
             (List.hd tsq.Tsq.tuples))
      in
      check "edit classifies as tightening"
        (Tsq.refines ~old:tsq ~new_:tighter = Tsq.Tightening);
      let warmed = Client.request_exn c (Protocol.Refine_tsq (sid, tighter)) in
      check "second refinement counted" (get_int warmed "refinements" = 2);
      check "tightening served by rebase" (get_bool warmed "rebased");
      incr warm_refines;
      check "rebased run finishes" (get_str (poll 0) "status" = "finished"));
  (* 5. a second session, cancelled mid-run *)
  let second =
    Client.request_exn c
      (Protocol.Open_session
         {
           Protocol.op_db = task.Duobench.Spider_gen.sp_db;
           op_nlq = task.Duobench.Spider_gen.sp_nlq;
           op_tsq = None;
           op_literals = None;
           op_max_pops = None;
           op_max_candidates = None;
           op_time_budget_s = None;
         })
  in
  let sid2 = get_int second "session" in
  let cancelled = Client.request_exn c (Protocol.Cancel sid2) in
  check "cancelled" (get_str cancelled "status" = "cancelled");
  (* 6. framing: a request written byte by byte, and two requests in one
     write, are answered exactly like the same requests sent one shot *)
  let lines =
    List.map Protocol.request_to_line
      [ Protocol.List_dbs; Protocol.Get_candidates (987_654, None) ]
  in
  let one_shot line =
    let r = raw_connect path in
    raw_send r (line ^ "\n");
    let reply = raw_read_line r in
    Unix.close r.fd;
    reply
  in
  let want = List.map one_shot lines in
  let bytewise = raw_connect path in
  String.iter
    (fun ch ->
      raw_send bytewise (String.make 1 ch);
      Unix.sleepf 0.001)
    (List.hd lines ^ "\n");
  check "byte-by-byte request answered like one shot" (raw_read_line bytewise = List.hd want);
  Unix.close bytewise.fd;
  let batched = raw_connect path in
  raw_send batched (String.concat "" (List.map (fun l -> l ^ "\n") lines));
  check "two requests in one write answered like one shot"
    (List.map (fun _ -> raw_read_line batched) lines = want);
  Unix.close batched.fd;
  (* 6b. a client that pipelines requests whose replies far exceed the
     socket buffers, then reads only some of them, must not stall anyone
     else: another client's round trip still completes.  The server stops
     reading the slow client while its reply backlog is over the
     high-water mark, and still answers every request exactly once. *)
  let pauses () = get_int (Client.request_exn c Protocol.Stats) "read_pauses" in
  let pauses_before = pauses () in
  let stats_line = Protocol.request_to_line Protocol.Stats ^ "\n" in
  let is_stats line =
    match Json.parse line with Ok j -> Json.member "sessions" j <> None | Error _ -> false
  in
  let reply_len = String.length (one_shot (Protocol.request_to_line Protocol.Stats)) in
  let n_piped = 1 + ((4 * 1024 * 1024) / (reply_len + 1)) in
  let slow = raw_connect path in
  raw_send slow (String.concat "" (List.init n_piped (fun _ -> stats_line)));
  (* let the server answer until the socket is full, then drain a
     quarter MiB so the socket turns writable with megabytes pending *)
  Unix.sleepf 0.5;
  let n_read = ref 0 in
  while !n_read * (reply_len + 1) < 256 * 1024 do
    check "slow reader gets stats replies" (is_stats (raw_read_line slow));
    incr n_read
  done;
  Unix.sleepf 0.1;
  let other = raw_connect path in
  raw_send other stats_line;
  check "round trip beside a slow reader" (is_stats (raw_read_line other));
  Unix.close other.fd;
  for _ = !n_read + 1 to n_piped do
    check "slow reader gets stats replies" (is_stats (raw_read_line slow))
  done;
  (* one reply per pipelined request: the next line answers a new one *)
  raw_send slow (Protocol.request_to_line Protocol.List_dbs ^ "\n");
  check "no extra replies to the pipelined requests" (raw_read_line slow = List.hd want);
  Unix.close slow.fd;
  check "the slow reader's reads were paused" (pauses () > pauses_before);
  (* 6c. a client that sends 2 MiB without a newline gets one error, the
     rest of its line is dropped unbuffered, and its next line is served;
     other clients are unaffected *)
  let long = raw_connect path in
  raw_send long (String.make (2 * 1024 * 1024) 'x');
  let other = raw_connect path in
  raw_send other stats_line;
  check "round trip beside an endless line" (is_stats (raw_read_line other));
  Unix.close other.fd;
  raw_send long ("\n" ^ stats_line);
  check "over-long line answered with an error"
    (match Json.parse (raw_read_line long) with
    | Ok j -> Option.bind (Json.member "ok" j) Json.get_bool = Some false
    | Error _ -> false);
  check "the line after it is served" (is_stats (raw_read_line long));
  Unix.close long.fd;
  (* 7. close both, check the books, drain *)
  ignore (Client.request_exn c (Protocol.Close sid));
  ignore (Client.request_exn c (Protocol.Close sid2));
  let stats = Client.request_exn c Protocol.Stats in
  check "no sessions left" (get_int stats "sessions" = 0);
  check "two opened" (get_int stats "opened" = 2);
  check "refinements booked" (get_int stats "refined" = !warm_refines + !cold_refines);
  check "warm rebases booked" (get_int stats "rebased" = !warm_refines);
  check "one over-long line booked" (get_int stats "long_lines" = 1);
  let bye = Client.request_exn c Protocol.Shutdown in
  check "draining acknowledged"
    (Option.bind (Json.member "draining" bye) Json.get_bool = Some true);
  Client.close c;
  Domain.join server_domain;
  Server.destroy server;
  (try Unix.unlink path with Unix.Unix_error _ -> ());
  print_endline "serve_smoke: OK"
