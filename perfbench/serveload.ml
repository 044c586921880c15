(* serve-refine: open-loop Duoserve traffic.

   Independent users make the loop open: sessions arrive on a seeded
   schedule at a fixed rate, whatever the server is doing.  Half are NLI
   sessions; the rest are dual sessions that, once the user has seen the
   finished result, send a tightening [refine_tsq] (served by the warm
   rebase) or an incomparable one (a cold restart), and a share cancel
   shortly after opening.  The server is [Server.serve] in a child
   process on a Unix socket; the client is this one thread on at most two
   connections (the host's core count bounds the load generator), and
   every latency is timed from the request's due time.

   Traced, the same traffic runs again for round trips and server
   counters, then the schedule is replayed in one thread through
   [Server.handle_line] and [Server.tick] with no sockets, timing each
   call.  Both modes check every served session against a solo
   in-process run of the same session, on the sketches the user sent,
   under the same budget. *)

module E = Duocore.Enumerate
module Tsq = Duocore.Tsq
module Json = Duoserve.Json
module Protocol = Duoserve.Protocol
module Server = Duoserve.Server
module Session = Duoserve.Session
module Sg = Duobench.Spider_gen
module Rng = Duobench.Rng
module W = Workload

(* Arrival rate: below half of what one core serves with these budgets
   and this polling even when the shared host runs 1.5x slow (on a 2-vCPU
   x86 VM the server saturated at 25 sessions/s, p50 130-230 ms, and at
   12/s p50 moved between 17 and 40 ms with host speed). *)
let rate_per_s = 10.0
let connections = 2
let poll_k = 10
let server_config =
  { Server.max_sessions = 64; slice_pops = 64; session_config = W.serve_config }

(* --- the schedule ------------------------------------------------------ *)

type kind =
  | Nli
  | Tighten
  | Cold
  | Cancel

let kind_name = function
  | Nli -> "nli"
  | Tighten -> "tighten"
  | Cold -> "cold"
  | Cancel -> "cancel"

type plan = {
  p_i : int;
  p_due : float;  (* seconds after traffic start *)
  p_case : W.case;  (* tsq = the opening sketch *)
  p_kind : kind;
  p_refine : Tsq.t option;
  p_cancel_after : float;
  p_think : float;  (* pause between seeing the result and refining *)
}

(* The sessions of one run: [rate_per_s * seconds] dev tasks spread
   evenly over the split, each with a fixed kind (ten in twenty NLI, four
   tightening, three cold, three cancelled) and a fixed sketch.  The seed
   draws the arrival order, think times and cancel delays; fixing the
   task set, kinds and sketches keeps the quality fractions steady across
   seeds (seeded sketches moved top-1 by ~7%).

   Only the half-NLI, half-dual split has a source (the workload's
   definition).  The 4/3/3 split of dual sessions, the 0-20 ms think
   time before a refine and the 5-25 ms cancel delay are placeholders.
   Human pacing is seconds, not milliseconds (Duobench.User_sim charges
   8-18 s to enter a tuple cell and 4-20 s to read a candidate), and at
   that pace no refine would land inside a 15 s run.  Compressed, the
   refines reach the server while other sessions still run, so
   [refine_*] measures a refine under concurrent load, not a user's wait
   at realistic pacing. *)
let schedule split ~seed ~seconds =
  let rng = Rng.create (Hashtbl.hash ("serve-refine", seed)) in
  let tasks = Array.of_list split.Sg.tasks in
  let dbs = split.Sg.databases in
  let n = max 1 (int_of_float (rate_per_s *. seconds)) in
  let picks = List.init n (fun j -> (j, j * Array.length tasks / n)) in
  List.mapi
    (fun i (j, ti) ->
      let task = tasks.(ti) in
      let base = W.dev_case ti task in
      let full =
        Duobench.Tsq_synth.synthesize (Rng.create ti) (List.assoc task.Sg.sp_db dbs)
          task.Sg.sp_gold ~detail:Duobench.Tsq_synth.Full
      in
      let cancel_after = 0.005 +. (0.02 *. Rng.float rng) in
      let think = 0.02 *. Rng.float rng in
      let slot = j mod 20 in
      let kind, tsq, refine =
        match full with
        | Some full when slot >= 10 -> (
            match full.Tsq.tuples with
            | first :: _ :: _ when slot < 14 ->
                (Tighten, Some { full with Tsq.tuples = [ first ] }, Some full)
            | _ when slot < 17 -> (Cold, Some { full with Tsq.types = None }, Some full)
            | _ -> (Cancel, Some full, None))
        | Some _ | None -> (Nli, None, None)
      in
      {
        p_i = i;
        p_due = float_of_int i /. rate_per_s;
        p_case = { base with W.c_id = (if kind = Nli then base.W.c_id else base.W.c_id ^ "/" ^ kind_name kind); c_tsq = tsq };
        p_kind = kind;
        p_refine = refine;
        p_cancel_after = cancel_after;
        p_think = think;
      })
    (Rng.shuffle rng picks)

let open_request (p : plan) =
  let c = p.p_case in
  Protocol.Open_session
    {
      Protocol.op_db = c.W.c_db;
      op_nlq = c.W.c_nlq;
      op_tsq = c.W.c_tsq;
      op_literals = Some c.W.c_literals;
      op_max_pops = None;
      op_max_candidates = None;
      op_time_budget_s = None;
    }

(* --- the server child --------------------------------------------------- *)

let child socket =
  let split = Sg.dev () in
  let server = Server.create server_config split.Sg.databases in
  let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try Unix.unlink socket with Unix.Unix_error _ -> ());
  Unix.bind fd (Unix.ADDR_UNIX socket);
  Unix.listen fd 16;
  Server.serve server ~listen:fd;
  Server.destroy server;
  (try Unix.unlink socket with Unix.Unix_error _ -> ());
  exit 0

type child = {
  pid : int;
  socket : string;
}

let connect socket =
  let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX socket);
  fd

let send fd line =
  let s = line ^ "\n" in
  let b = Bytes.unsafe_of_string s in
  let rec go off =
    if off < Bytes.length b then go (off + Unix.write fd b off (Bytes.length b - off))
  in
  go 0

(* Blocking request on a fresh-enough connection: one reply line. *)
let read_line fd buf =
  let chunk = Bytes.create 65536 in
  let rec go () =
    let s = Buffer.contents buf in
    match String.index_opt s '\n' with
    | Some i ->
        Buffer.clear buf;
        Buffer.add_string buf (String.sub s (i + 1) (String.length s - i - 1));
        String.sub s 0 i
    | None -> (
        match Unix.read fd chunk 0 (Bytes.length chunk) with
        | 0 -> failwith "server closed the connection"
        | n ->
            Buffer.add_subbytes buf chunk 0 n;
            go ())
  in
  go ()

let blocking fd line =
  send fd line;
  read_line fd (Buffer.create 256)

let socket_path () = Printf.sprintf ".perfbench-%d.sock" (Unix.getpid ())

(* Spawn the server and wait for its first reply. *)
let spawn () =
  let socket = socket_path () in
  (try Unix.unlink socket with Unix.Unix_error _ -> ());
  let pid =
    Unix.create_process Sys.executable_name
      [| Sys.executable_name; "serve-child"; "--socket"; socket |]
      Unix.stdin Unix.stdout Unix.stderr
  in
  let deadline = Pb.mono () +. 60.0 in
  let rec attempt () =
    match connect socket with
    | fd -> fd
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _) ->
        if Pb.mono () > deadline then failwith "server did not come up";
        Unix.sleepf 0.001;
        attempt ()
  in
  let fd = attempt () in
  ignore (blocking fd (Protocol.request_to_line Protocol.List_dbs));
  ({ pid; socket }, fd)

let shutdown (c, fd) =
  (try ignore (blocking fd (Protocol.request_to_line Protocol.Shutdown)) with _ -> ());
  (try Unix.close fd with Unix.Unix_error _ -> ());
  ignore (Unix.waitpid [] c.pid);
  try Unix.unlink c.socket with Unix.Unix_error _ -> ()

(* A child left behind by an exception is killed and reaped. *)
let live_children : int list ref = ref []

let () =
  at_exit (fun () ->
      List.iter
        (fun pid ->
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
        !live_children)

let setup_repeats = 5

(* [setup_s]: spawn to first reply, median of in-run repeats; the last
   server is kept for the traffic. *)
let setup () =
  let rec go k times =
    let (c, fd), dt = Pb.timed spawn in
    live_children := [ c.pid ];
    if k <= 1 then ((c, fd), dt :: times)
    else begin
      shutdown (c, fd);
      live_children := [];
      go (k - 1) (dt :: times)
    end
  in
  let srv, times = go setup_repeats [] in
  Pb.put ~n:(List.length times) ~scaled:true "setup_s" (Pb.median times);
  srv

(* --- the open-loop client ------------------------------------------- *)

type phase =
  | Due  (* waiting for its open's due time *)
  | Live  (* open, polled until it shows finished *)
  | Await_refine  (* finished; refine due after the think time *)
  | Refined  (* refined, polled until it shows finished again *)
  | Await_cancel
  | Closing
  | Done

type sess = {
  plan : plan;
  mutable phase : phase;
  mutable sid : int;
  mutable busy : bool;
  mutable first_cand : float option;  (* seconds after open due *)
  mutable finished : float option;  (* first observed finish, after open due *)
  mutable refine_due : float;
  mutable refine_done : float option;  (* after refine due *)
  mutable seen : (string * float) list;  (* SQL -> first seen, after open due *)
  mutable final : (string * float) list;  (* last polled top-k *)
  mutable error : string option;
  mutable last_poll : float;
}

type op =
  | Op_open
  | Op_poll
  | Op_refine
  | Op_cancel
  | Op_close
  | Op_stats

let op_name = function
  | Op_open -> "open"
  | Op_poll -> "poll"
  | Op_refine -> "refine"
  | Op_cancel -> "cancel"
  | Op_close -> "close"
  | Op_stats -> "stats"

type conn = {
  fd : Unix.file_descr;
  buf : Buffer.t;
  mutable inflight : (op * sess option * float) option;
}

type traffic = {
  sessions : sess array;
  rtts : (op, float list) Hashtbl.t;
  mutable lags : float list;
  mutable running_peak : int;
  mutable makespan : float;
  mutable refined_ok : int;
  mutable cancelled_ok : int;
  mutable opened_ok : int;
  mutable finished_ok : int;  (* sessions the client saw finish *)
}

let get_int j f = Option.bind (Json.member f j) Json.get_int
let get_str j f = Option.bind (Json.member f j) Json.get_str

let wire_candidates j =
  match Option.bind (Json.member "candidates" j) Json.get_list with
  | None -> []
  | Some cs ->
      List.filter_map
        (fun c ->
          match
            (Option.bind (Json.member "sql" c) Json.get_str,
             Option.bind (Json.member "confidence" c) Json.get_num)
          with
          | Some s, Some f -> Some (s, f)
          | _ -> None)
        cs

let poll_gap = 0.002
let stats_every = 0.25

let traffic plans ~first_fd =
  let sessions =
    Array.of_list
      (List.map
         (fun p ->
           {
             plan = p;
             phase = Due;
             sid = 0;
             busy = false;
             first_cand = None;
             finished = None;
             refine_due = infinity;
             refine_done = None;
             seen = [];
             final = [];
             error = None;
             last_poll = neg_infinity;
           })
         plans)
  in
  let socket = socket_path () in
  let conns =
    Array.init connections (fun i ->
        { fd = (if i = 0 then first_fd else connect socket); buf = Buffer.create 4096; inflight = None })
  in
  let t = {
    sessions; rtts = Hashtbl.create 8; lags = []; running_peak = 0;
    makespan = 0.0; refined_ok = 0; cancelled_ok = 0; opened_ok = 0; finished_ok = 0 }
  in
  (* The traffic clock: it stops while a host-calibration sample runs
     (see the main loop), so no due time, think time or latency includes
     one. *)
  let start = Pb.mono () in
  let paused = ref 0.0 in
  let now () = Pb.mono () -. start -. !paused in
  let last_calibration = ref 0.0 in
  let next_stats = ref 0.0 in
  let rr = ref 0 in
  let n = Array.length sessions in
  let next_open = ref 0 in
  let fail s msg =
    s.error <- Some msg;
    s.phase <- Closing
  in
  (* The next request for an idle connection: due opens first, then due
     refines and cancels, closes, a periodic stats, then polls in
     round-robin. *)
  let pick tnow =
    let due_open =
      if !next_open < n && sessions.(!next_open).plan.p_due <= tnow then begin
        let s = sessions.(!next_open) in
        incr next_open;
        t.lags <- (tnow -. s.plan.p_due) :: t.lags;
        Some (Op_open, Some s, Protocol.request_to_line (open_request s.plan))
      end
      else None
    in
    match due_open with
    | Some r -> Some r
    | None -> (
        let found = ref None in
        let i = ref 0 in
        while !found = None && !i < !next_open do
          let s = sessions.(!i) in
          (if not s.busy then
             match s.phase with
             | Await_refine when s.refine_due <= tnow ->
                 t.lags <- (tnow -. s.refine_due) :: t.lags;
                 found :=
                   Some
                     ( Op_refine, Some s,
                       Protocol.request_to_line
                         (Protocol.Refine_tsq (s.sid, Option.get s.plan.p_refine)) )
             | Await_cancel when s.plan.p_due +. s.plan.p_cancel_after <= tnow ->
                 t.lags <- (tnow -. (s.plan.p_due +. s.plan.p_cancel_after)) :: t.lags;
                 found := Some (Op_cancel, Some s, Protocol.request_to_line (Protocol.Cancel s.sid))
             | Closing when s.sid > 0 ->
                 found := Some (Op_close, Some s, Protocol.request_to_line (Protocol.Close s.sid))
             | Closing -> s.phase <- Done
             | Due | Live | Await_refine | Refined | Await_cancel | Done -> ());
          incr i
        done;
        match !found with
        | Some r -> Some r
        | None ->
            if tnow >= !next_stats then begin
              next_stats := tnow +. stats_every;
              Some (Op_stats, None, Protocol.request_to_line Protocol.Stats)
            end
            else begin
              let chosen = ref None in
              let k = ref 0 in
              while !chosen = None && !k < !next_open do
                let s = sessions.((!rr + !k) mod max 1 !next_open) in
                (match s.phase with
                | (Live | Refined | Await_cancel)
                  when (not s.busy) && tnow -. s.last_poll >= poll_gap ->
                    chosen := Some s
                | Due | Live | Await_refine | Refined | Await_cancel | Closing | Done -> ());
                incr k
              done;
              match !chosen with
              | None -> None
              | Some s ->
                  rr := (s.plan.p_i + 1) mod max 1 !next_open;
                  s.last_poll <- tnow;
                  Some
                    ( Op_poll, Some s,
                      Protocol.request_to_line (Protocol.Get_candidates (s.sid, Some poll_k)) )
            end)
  in
  let on_reply op s line sent tnow =
    let rtt = tnow -. sent in
    Hashtbl.replace t.rtts op (rtt :: Option.value ~default:[] (Hashtbl.find_opt t.rtts op));
    let j = match Json.parse line with Ok j -> j | Error e -> Json.Obj [ ("error", Json.Str e) ] in
    let ok = Option.bind (Json.member "ok" j) Json.get_bool = Some true in
    match (op, s) with
    | Op_stats, _ ->
        t.running_peak <- max t.running_peak (Option.value ~default:0 (get_int j "running"))
    | _, None -> ()
    | _, Some s when not ok ->
        fail s
          (Printf.sprintf "%s refused: %s" (op_name op)
             (Option.value ~default:line (get_str j "error")))
    | Op_open, Some s ->
        t.opened_ok <- t.opened_ok + 1;
        s.sid <- Option.value ~default:0 (get_int j "session");
        s.phase <- (if s.plan.p_kind = Cancel then Await_cancel else Live)
    | Op_poll, Some s -> (
        let since = tnow -. s.plan.p_due in
        let cands = wire_candidates j in
        if cands <> [] && s.first_cand = None then s.first_cand <- Some since;
        List.iter
          (fun (sql, _) -> if not (List.mem_assoc sql s.seen) then s.seen <- (sql, since) :: s.seen)
          cands;
        s.final <- cands;
        match (get_str j "status", s.phase) with
        | Some "finished", Live ->
            s.finished <- Some since;
            t.finished_ok <- t.finished_ok + 1;
            if s.plan.p_refine <> None then begin
              s.phase <- Await_refine;
              s.refine_due <- tnow +. s.plan.p_think
            end
            else s.phase <- Closing
        | Some "finished", Refined ->
            s.refine_done <- Some (tnow -. s.refine_due);
            s.phase <- Closing
        | Some "cancelled", (Live | Refined) -> fail s "session cancelled by the server"
        | (Some _ | None), (Due | Live | Await_refine | Refined | Await_cancel | Closing | Done) -> ())
    | Op_refine, Some s ->
        t.refined_ok <- t.refined_ok + 1;
        s.phase <- Refined
    | Op_cancel, Some s ->
        (match get_str j "status" with
        | Some "cancelled" -> t.cancelled_ok <- t.cancelled_ok + 1
        | Some "finished" -> t.finished_ok <- t.finished_ok + 1
        | _ -> ());
        s.phase <- Closing
    | Op_close, Some s ->
        s.phase <- Done;
        t.makespan <- Float.max t.makespan tnow
  in
  let all_done () = !next_open = n && Array.for_all (fun s -> s.phase = Done) sessions in
  let quiet () =
    Array.for_all (fun c -> c.inflight = None) conns
    && Array.for_all
         (fun s ->
           match s.phase with
           | Live | Refined | Await_cancel -> false
           | Due | Await_refine | Closing | Done -> true)
         sessions
  in
  let deadline = 170.0 in
  let chunk = Bytes.create 65536 in
  while not (all_done ()) do
    (* About once a second of traffic, when no request is in flight and
       no session runs on the server, a host-calibration sample. *)
    if now () -. !last_calibration >= 1.0 && quiet () then begin
      let t0 = Pb.mono () in
      Pb.calibrate ();
      paused := !paused +. (Pb.mono () -. t0);
      last_calibration := now ()
    end;
    let tnow = now () in
    if tnow > deadline then failwith "serve traffic did not drain";
    Array.iter
      (fun c ->
        if c.inflight = None then
          match pick tnow with
          | None -> ()
          | Some (op, s, line) ->
              Option.iter (fun s -> s.busy <- true) s;
              c.inflight <- Some (op, s, now ());
              send c.fd line)
      conns;
    let waiting =
      List.filter_map (fun c -> if c.inflight = None then None else Some c.fd) (Array.to_list conns)
    in
    let timeout =
      if !next_open < n then Float.max 0.0 (Float.min 0.001 (sessions.(!next_open).plan.p_due -. now ()))
      else 0.001
    in
    let readable, _, _ =
      if waiting = [] then begin
        Unix.sleepf timeout;
        ([], [], [])
      end
      else try Unix.select waiting [] [] timeout with Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
    in
    Array.iter
      (fun c ->
        if List.mem c.fd readable then begin
          let got = Unix.read c.fd chunk 0 (Bytes.length chunk) in
          if got = 0 then failwith "server closed a connection";
          Buffer.add_subbytes c.buf chunk 0 got;
          let s = Buffer.contents c.buf in
          match String.index_opt s '\n' with
          | None -> ()
          | Some i -> (
              Buffer.clear c.buf;
              Buffer.add_string c.buf (String.sub s (i + 1) (String.length s - i - 1));
              match c.inflight with
              | None -> ()
              | Some (op, sess, sent) ->
                  c.inflight <- None;
                  Option.iter (fun s -> s.busy <- false) sess;
                  on_reply op sess (String.sub s 0 i) sent (now ()))
        end)
      conns
  done;
  Array.iteri (fun i c -> if i > 0 then Unix.close c.fd) conns;
  t

(* --- solo runs and checks ----------------------------------------------- *)

let wire_of (o : E.outcome) =
  List.filteri (fun i _ -> i < poll_k)
    (List.map
       (fun (c : E.candidate) ->
         (Duosql.Pretty.query c.E.cand_query, c.E.cand_confidence))
       o.E.out_candidates)

(* A served list equals a solo list when SQL and the wire rendering of
   every confidence agree. *)
let same_wire a b =
  let render l = List.map (fun (s, f) -> Printf.sprintf "%s|%.12g" s f) l in
  render a = render b

type solo = {
  s_wire : (string * float) list;
  s_hash : string;
  s_prepare : float;
  s_refine : float option;
}

let run_to_end s =
  while Session.status s = Session.Running do
    Session.step ~max_pops:max_int s
  done

(* A sketch as the server decodes it from the wire.  The codec renders
   numbers with 12 significant digits, so an exact float cell can arrive
   changed: the served session then answers a different sketch than the
   user sent ([protocol.lossy_tsq] counts such sessions), and the solo
   check fails it when that changes its answer. *)
let over_wire tsq =
  match Json.parse (Json.to_string (Protocol.tsq_to_json tsq)) with
  | Ok j -> ( match Protocol.tsq_of_json j with Ok t -> t | Error e -> failwith e)
  | Error e -> failwith e

let lossy (p : plan) =
  let changed t = over_wire t <> t in
  Option.fold ~none:false ~some:changed p.p_case.W.c_tsq
  || Option.fold ~none:false ~some:changed p.p_refine

(* The session replayed alone in-process through the same [Session]
   code, on the sketches the user sent: run to the end, then (if
   planned) refine and run to the end. *)
let solo sessions (p : plan) =
  let c = p.p_case in
  let duo = Hashtbl.find sessions c.W.c_db in
  let s, prep =
    Pb.timed (fun () ->
        Session.create ~sid:p.p_i ~db_name:c.W.c_db ~config:W.serve_config ~nlq:c.W.c_nlq
          ?tsq:c.W.c_tsq ~literals:c.W.c_literals duo)
  in
  run_to_end s;
  let refine =
    Option.map
      (fun tsq ->
        let (), dt = Pb.timed (fun () -> Session.refine s tsq) in
        run_to_end s;
        dt)
      p.p_refine
  in
  let o = Session.outcome s in
  Session.close s;
  { s_wire = wire_of o; s_hash = Pb.candidates_hash o.E.out_candidates; s_prepare = prep; s_refine = refine }

let gold_rank db (c : W.case) wire =
  let schema = Duodb.Database.schema db in
  let rec find i = function
    | [] -> None
    | (sql, _) :: rest -> (
        match Duosql.Parser.query ~schema sql with
        | Ok q when Duolint.Duosem.equal_queries q c.W.c_gold -> Some (i, sql)
        | Ok _ | Error _ -> find (i + 1) rest)
  in
  find 1 wire

(* --- sockets-free replay --------------------------------------------------- *)

type replay = {
  r_handle : (string, float list) Hashtbl.t;  (* op -> seconds *)
  mutable r_ticks : float list;
  mutable r_decode : float list;
  mutable r_parse : float list;
  mutable r_encode : float list;
  r_final : (int, (string * float) list) Hashtbl.t;  (* plan index -> final top-k *)
}

(* The schedule in one thread: arrivals in due order, one [tick] between
   protocol calls, polls round-robin, refines when a poll shows the
   session finished — the client's policy without sockets or clocks. *)
let replay split plans =
  let srv = Server.create server_config split.Sg.databases in
  let r = {
    r_handle = Hashtbl.create 8; r_ticks = []; r_decode = []; r_parse = []; r_encode = [];
    r_final = Hashtbl.create 64 }
  in
  let call op line =
    r.r_parse <- snd (Pb.timed (fun () -> Json.parse line)) :: r.r_parse;
    r.r_decode <- snd (Pb.timed (fun () -> Protocol.request_of_line line)) :: r.r_decode;
    let reply, dt = Pb.timed (fun () -> Server.handle_line srv line) in
    Hashtbl.replace r.r_handle op (dt :: Option.value ~default:[] (Hashtbl.find_opt r.r_handle op));
    let j = match Json.parse reply with Ok j -> j | Error _ -> Json.Null in
    r.r_encode <- snd (Pb.timed (fun () -> Json.to_string j)) :: r.r_encode;
    j
  in
  let live = Queue.create () in
  let pending = ref plans in
  let admit (p : plan) =
    let j = call "open" (Protocol.request_to_line (open_request p)) in
    let sid = Option.value ~default:0 (get_int j "session") in
    if p.p_kind = Cancel then begin
      ignore (call "cancel" (Protocol.request_to_line (Protocol.Cancel sid)));
      ignore (call "close" (Protocol.request_to_line (Protocol.Close sid)))
    end
    else Queue.push (p, sid, ref (p.p_refine <> None)) live
  in
  while !pending <> [] || not (Queue.is_empty live) do
    (match !pending with
    | p :: rest when Queue.is_empty live || Queue.length live < 4 ->
        pending := rest;
        admit p
    | _ -> ());
    let ran, dt = Pb.timed (fun () -> Server.tick srv) in
    if ran then r.r_ticks <- dt :: r.r_ticks;
    if not (Queue.is_empty live) then begin
      let ((p, sid, refine_left) as entry) = Queue.pop live in
      let j =
        call "poll" (Protocol.request_to_line (Protocol.Get_candidates (sid, Some poll_k)))
      in
      if get_str j "status" = Some "finished" then
        if !refine_left then begin
          refine_left := false;
          ignore
            (call "refine"
               (Protocol.request_to_line (Protocol.Refine_tsq (sid, Option.get p.p_refine))));
          Queue.push entry live
        end
        else begin
          Hashtbl.replace r.r_final p.p_i (wire_candidates j);
          ignore (call "close" (Protocol.request_to_line (Protocol.Close sid)))
        end
      else Queue.push entry live
    end
  done;
  Server.destroy srv;
  r

(* --- the workload --------------------------------------------------------- *)

(* The client's session tallies against the server's [stats] books. *)
let books t (stats : Json.t) =
  let server f = Option.value ~default:0 (get_int stats f) in
  abs (server "opened" - t.opened_ok)
  + abs (server "completed" - t.finished_ok)
  + abs (server "cancelled" - t.cancelled_ok)
  + abs (server "refined" - t.refined_ok)

let run ~seed ~seconds ~trace ~slo_ms =
  let srv = setup () in
  let split = Sg.dev () in
  let plans = schedule split ~seed ~seconds in
  let pid = (fst srv).pid in
  let cpu0 = Pb.cpu_seconds pid in
  let t = traffic plans ~first_fd:(snd srv) in
  let busy = Pb.cpu_seconds pid -. cpu0 in
  let final_stats =
    match Json.parse (blocking (snd srv) (Protocol.request_to_line Protocol.Stats)) with
    | Ok j -> j
    | Error _ -> Json.Null
  in
  let rss = Pb.peak_rss_mb (string_of_int (fst srv).pid) in
  shutdown srv;
  live_children := [];
  (* correctness, outside the timed region *)
  let sessions = Hashtbl.create 32 in
  List.iter
    (fun (name, db) -> Hashtbl.replace sessions name (Duocore.Duoquest.create_session db))
    split.Sg.databases;
  let served = Array.to_list t.sessions in
  let completed = List.filter (fun s -> s.plan.p_kind <> Cancel) served in
  Pb.attempted := List.length served;
  let solos = Hashtbl.create 64 in
  List.iter
    (fun s ->
      match s.error with
      | Some e -> Pb.fail "session %d (%s): %s" s.plan.p_i s.plan.p_case.W.c_id e
      | None when s.plan.p_kind = Cancel -> ()
      | None ->
          let so = solo sessions s.plan in
          Hashtbl.replace solos s.plan.p_i so;
          let c = s.plan.p_case in
          if not (same_wire s.final so.s_wire) then
            Pb.fail "session %d (%s): served candidates differ from the solo run%s" s.plan.p_i
              c.W.c_id
              (if lossy s.plan then " (its sketch changed on the wire)" else "")
          else if s.plan.p_kind = Nli then
            let db = Duocore.Duoquest.session_db (Hashtbl.find sessions c.W.c_db) in
            let rank = Option.map fst (gold_rank db c s.final) in
            match Check.against_baseline c.W.c_id ~hash:so.s_hash ~rank with
            | Some r -> Pb.fail "session %d: %s" s.plan.p_i r
            | None -> ())
    served;
  let ok s = s.error = None in
  let gold_of s =
    let db = Duocore.Duoquest.session_db (Hashtbl.find sessions s.plan.p_case.W.c_db) in
    gold_rank db s.plan.p_case s.final
  in
  if not trace then begin
    let latencies = List.filter_map (fun s -> if ok s then s.finished else None) completed in
    (* the server's busy (CPU) seconds for the whole traffic: the open
       loop fixes the elapsed time, so this is where a slower server shows *)
    Pb.put ~n:(List.length served) ~scaled:true ~note:(Printf.sprintf "makespan %.2fs" t.makespan)
      "wall_s" busy;
    Pb.put_dist_ms "latency" latencies;
    Pb.put_dist_ms "ttfc" (List.filter_map (fun s -> s.first_cand) completed);
    Pb.put_dist_ms "ttg"
      (List.filter_map
         (fun s ->
           match gold_of s with
           | Some (_, sql) -> List.assoc_opt sql s.seen
           | None -> None)
         completed);
    let n = List.length completed in
    let ranks = List.map (fun s -> Option.map fst (gold_of s)) completed in
    let within k = List.length (List.filter (function Some r -> r <= k | None -> false) ranks) in
    Pb.put ~n "top1_frac" (Pb.ratio (float_of_int (within 1)) (float_of_int n));
    Pb.put ~n "top10_frac" (Pb.ratio (float_of_int (within 10)) (float_of_int n));
    Pb.put ~n "slo_frac"
      (Pb.ratio
         (float_of_int (List.length (List.filter (fun l -> l *. 1000.0 <= slo_ms) latencies)))
         (float_of_int n));
    let attempted = List.length served in
    Pb.put ~n:attempted "ok_frac"
      (Pb.ratio (float_of_int (attempted - min attempted !Pb.failed)) (float_of_int attempted));
    Pb.put "peak_rss_mb" rss
  end
  else begin
    let med_ms op =
      match Hashtbl.find_opt t.rtts op with
      | Some l -> Pb.put ~n:(List.length l) ("server." ^ op_name op ^ "_rtt_ms") (Pb.median l *. 1000.0)
      | None -> Pb.put ~n:0 ("server." ^ op_name op ^ "_rtt_ms") 0.0
    in
    List.iter med_ms [ Op_open; Op_poll; Op_refine; Op_close ];
    let lags = List.map (fun l -> l *. 1000.0) t.lags in
    Pb.put ~n:(List.length lags) "loadgen.lag_p99_ms"
      (match Pb.sorted lags with
      | [] -> 0.0
      | s -> List.nth s (min (List.length s - 1) (int_of_float (0.99 *. float_of_int (List.length s)))));
    let stat f = float_of_int (Option.value ~default:0 (get_int final_stats f)) in
    Pb.put "server.rebased_frac" (Pb.ratio (stat "rebased") (stat "refined"));
    Pb.put "server.rejected" (stat "rejected");
    Pb.put "server.running_peak" (float_of_int t.running_peak);
    Pb.put "server.books_delta" (float_of_int (books t final_stats));
    Pb.put "protocol.lossy_tsq" (float_of_int (List.length (List.filter lossy plans)));
    Pb.put_dist_ms ~scaled:false "session.refine"
      (List.filter_map (fun s -> s.refine_done) completed);
    Pb.put_host ();
    Pb.put "server.busy_s" busy;
    let prep = Hashtbl.fold (fun _ so acc -> so.s_prepare :: acc) solos [] in
    Pb.put ~n:(List.length prep) "session.prepare_ms" (Pb.median prep *. 1000.0);
    let rebases =
      List.filter_map
        (fun s ->
          if s.plan.p_kind = Tighten then
            Option.bind (Hashtbl.find_opt solos s.plan.p_i) (fun so -> so.s_refine)
          else None)
        served
    in
    Pb.put ~n:(List.length rebases) "session.rebase_ms"
      (if rebases = [] then 0.0 else Pb.median rebases *. 1000.0);
    let r, replay_wall = Pb.timed (fun () -> replay split plans) in
    let us l = Pb.median l *. 1e6 in
    List.iter
      (fun op ->
        let l = Option.value ~default:[] (Hashtbl.find_opt r.r_handle op) in
        Pb.put ~n:(List.length l) ("server.handle_line_us." ^ op) (if l = [] then 0.0 else us l))
      [ "open"; "poll"; "refine"; "close" ];
    Pb.put ~n:(List.length r.r_ticks) "server.tick_ms" (Pb.median r.r_ticks *. 1000.0);
    Pb.put "server.slices" (float_of_int (List.length r.r_ticks));
    let poll_rtt = Pb.median (Option.value ~default:[ 0.0 ] (Hashtbl.find_opt t.rtts Op_poll)) in
    let poll_handle = Pb.median (Option.value ~default:[ 0.0 ] (Hashtbl.find_opt r.r_handle "poll")) in
    Pb.put "server.io_ms" ((poll_rtt -. poll_handle) *. 1000.0);
    Pb.put ~n:(List.length r.r_parse) "json.parse_us" (us r.r_parse);
    Pb.put ~n:(List.length r.r_encode) "json.encode_us" (us r.r_encode);
    Pb.put ~n:(List.length r.r_decode) "protocol.decode_us" (us r.r_decode);
    let spanned =
      Hashtbl.fold (fun _ l acc -> acc +. Pb.sum l) r.r_handle 0.0
      +. Pb.sum r.r_ticks +. Pb.sum r.r_parse +. Pb.sum r.r_decode +. Pb.sum r.r_encode
    in
    Pb.put "trace.wall_s" replay_wall;
    Pb.put "trace.unattributed_s" (replay_wall -. spanned);
    (* the replay reproduces what the server answered over the socket *)
    let replay_ok =
      List.for_all
        (fun s ->
          (not (ok s))
          ||
          match Hashtbl.find_opt r.r_final s.plan.p_i with
          | Some a -> same_wire a s.final
          | None -> false)
        completed
    in
    Pb.put "trace.mirror_ok" (if replay_ok then 1.0 else 0.0);
    Pb.put "trace.overhead_frac"
      (Pb.ratio replay_wall
         (Pb.sum (Hashtbl.fold (fun _ l acc -> l @ acc) r.r_handle [] ) +. Pb.sum r.r_ticks)
      -. 1.0)
  end
