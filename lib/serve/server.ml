module Enumerate = Duocore.Enumerate
module Duoquest = Duocore.Duoquest

type config = {
  max_sessions : int;
  slice_pops : int;
  session_config : Enumerate.config;
}

let default_config =
  {
    max_sessions = 32;
    slice_pops = 64;
    session_config =
      { Enumerate.default_config with
        Enumerate.max_pops = 5_000;
        max_candidates = 10;
        time_budget_s = 10.0 };
  }

type t = {
  config : config;
  step : max_pops:int -> Session.t -> unit;
  dbs : (string * Duoquest.session) list;
  sessions : (int, Session.t) Hashtbl.t;
  mutable next_sid : int;
  mutable rr_last : int;  (** sid stepped most recently (round-robin cursor) *)
  mutable is_draining : bool;
  mutable opened : int;
  mutable rejected : int;
  mutable completed : int;  (** sessions whose outcome is [Finished] *)
  mutable cancelled : int;  (** sessions whose outcome is [Cancelled] *)
  mutable failed : int;  (** sessions whose outcome is [Failed] *)
  mutable runs_completed : int;  (** enumeration runs that finished *)
  mutable refined : int;
  mutable rebased : int;  (** refinements served by the warm rebase path *)
  mutable slices : int;
  retired : Duocore.Verify.stats;  (** dedup counters of closed sessions *)
  mutable read_pauses : int;
      (** times a client's reads were paused on its reply backlog *)
  mutable long_lines : int;  (** request lines rejected for their length *)
}

let create ?(step = Session.step) config dbs =
  {
    config;
    step;
    dbs = List.map (fun (name, db) -> (name, Duoquest.create_session db)) dbs;
    sessions = Hashtbl.create 64;
    next_sid = 1;
    rr_last = 0;
    is_draining = false;
    opened = 0;
    rejected = 0;
    completed = 0;
    cancelled = 0;
    failed = 0;
    runs_completed = 0;
    refined = 0;
    rebased = 0;
    slices = 0;
    retired = Duocore.Verify.new_stats ();
    read_pauses = 0;
    long_lines = 0;
  }

let draining t = t.is_draining

let running_count t =
  Hashtbl.fold
    (fun _ s acc ->
      match Session.status s with
      | Session.Running -> acc + 1
      | Session.Finished | Session.Cancelled | Session.Failed _ -> acc)
    t.sessions 0

let drained t = t.is_draining && running_count t = 0

(* --- scheduling ------------------------------------------------------ *)

(* Next runnable sid after the round-robin cursor: the smallest running
   sid greater than [rr_last], wrapping to the smallest overall. *)
let next_runnable t =
  Hashtbl.fold
    (fun sid s acc ->
      match Session.status s with
      | Session.Finished | Session.Cancelled | Session.Failed _ -> acc
      | Session.Running -> (
          let better cur =
            match cur with None -> true | Some best -> sid < best
          in
          match acc with
          | (after, any) when sid > t.rr_last ->
              ((if better after then Some sid else after), any)
          | (after, any) ->
              (after, if better any then Some sid else any)))
    t.sessions (None, None)
  |> fun (after, any) -> (match after with Some _ -> after | None -> any)

(* The session books count each session once, by its current outcome,
   so [opened = completed + cancelled + failed + running] at all times: a
   refine takes its session's outcome off the books while it runs again,
   and a run that finishes books its session (back) as completed.  Run
   completions, a refined session's included, are [runs_completed]. *)
let book t s delta =
  match Session.status s with
  | Session.Finished -> t.completed <- t.completed + delta
  | Session.Cancelled -> t.cancelled <- t.cancelled + delta
  | Session.Failed _ -> t.failed <- t.failed + delta
  | Session.Running -> ()

(* Apply [f] to [s] and move the session in the books from its old
   status to its new one.  This is the per-session exception barrier:
   when [f] raises, the session is marked failed, and every other
   session carries on. *)
let update t s f =
  book t s (-1);
  (try f () with e -> Session.fail s (Printexc.to_string e));
  book t s 1

let count_run t s =
  match Session.status s with
  | Session.Finished -> t.runs_completed <- t.runs_completed + 1
  | Session.Running | Session.Cancelled | Session.Failed _ -> ()

let tick t =
  match next_runnable t with
  | None -> false
  | Some sid ->
      let s = Hashtbl.find t.sessions sid in
      t.rr_last <- sid;
      t.slices <- t.slices + 1;
      update t s (fun () -> t.step ~max_pops:t.config.slice_pops s);
      count_run t s;
      true

(* --- protocol dispatch ----------------------------------------------- *)

let clamp_config t (p : Protocol.open_params) =
  let ceiling = t.config.session_config in
  let clamp_int req ceil = max 1 (min req ceil) in
  let max_pops =
    match p.Protocol.op_max_pops with
    | Some n -> clamp_int n ceiling.Enumerate.max_pops
    | None -> ceiling.Enumerate.max_pops
  in
  let max_candidates =
    match p.Protocol.op_max_candidates with
    | Some n -> clamp_int n ceiling.Enumerate.max_candidates
    | None -> ceiling.Enumerate.max_candidates
  in
  let time_budget_s =
    match p.Protocol.op_time_budget_s with
    | Some b when b > 0.0 -> Float.min b ceiling.Enumerate.time_budget_s
    | Some _ | None -> ceiling.Enumerate.time_budget_s
  in
  { ceiling with Enumerate.max_pops; max_candidates; time_budget_s }

let find_session t sid =
  match Hashtbl.find_opt t.sessions sid with
  | Some s -> Ok s
  | None -> Error (Printf.sprintf "unknown session %d" sid)

let failure s reason = Printf.sprintf "session %d failed: %s" (Session.sid s) reason

(* A session that can still be refined or polled: a failed one answers
   with its reason. *)
let live_session t sid =
  match find_session t sid with
  | Ok s -> (
      match Session.status s with
      | Session.Failed reason -> Error (failure s reason)
      | Session.Running | Session.Finished | Session.Cancelled -> Ok s)
  | Error _ as e -> e

let session_fields s =
  [
    ("session", Json.Num (float_of_int (Session.sid s)));
    ("status", Json.Str (Session.status_name (Session.status s)));
  ]

let handle_open t (p : Protocol.open_params) =
  if t.is_draining then Error "server is draining"
  else if Hashtbl.length t.sessions >= t.config.max_sessions then (
    t.rejected <- t.rejected + 1;
    Error
      (Printf.sprintf "server full: %d sessions open" (Hashtbl.length t.sessions)))
  else
    match List.assoc_opt p.Protocol.op_db t.dbs with
    | None -> Error (Printf.sprintf "unknown database %S" p.Protocol.op_db)
    | Some duo ->
        let sid = t.next_sid in
        t.next_sid <- sid + 1;
        let config = clamp_config t p in
        let s =
          Session.create ~sid ~db_name:p.Protocol.op_db ~config
            ~nlq:p.Protocol.op_nlq ?tsq:p.Protocol.op_tsq
            ?literals:p.Protocol.op_literals duo
        in
        Hashtbl.replace t.sessions sid s;
        t.opened <- t.opened + 1;
        Ok (session_fields s)

let handle_candidates s k =
  let o = Session.outcome s in
  let cands =
    match k with
    | Some k -> List.filteri (fun i _ -> i < k) o.Enumerate.out_candidates
    | None -> o.Enumerate.out_candidates
  in
  session_fields s
  @ [
      ("candidates", Json.List (List.map Protocol.candidate_json cands));
      ("total", Json.Num (float_of_int (List.length o.Enumerate.out_candidates)));
      ("pops", Json.Num (float_of_int o.Enumerate.out_pops));
      ("exhausted", Json.Bool o.Enumerate.out_exhausted);
    ]

(* Visited-set dedup over the open sessions' runs and the closed
   sessions' last runs. *)
let dedup_fields t =
  let total = Duocore.Verify.new_stats () in
  Duocore.Verify.merge_stats ~into:total t.retired;
  Hashtbl.iter
    (fun _ s -> Duocore.Verify.merge_stats ~into:total (Session.outcome s).Enumerate.out_stats)
    t.sessions;
  [
    ("visited_hits", Json.Num (float_of_int total.Duocore.Verify.visited_hits));
    ("canon_checked", Json.Num (float_of_int total.Duocore.Verify.canon_checked));
    ("key_renders", Json.Num (float_of_int total.Duocore.Verify.key_renders));
  ]

(* The databases' relation caches, shared by every session on that
   database: joined relations and the join-key indexes they are built
   over. *)
let relcache_fields t =
  let hits, misses, ji_builds, ji_hits =
    List.fold_left
      (fun acc (_, duo) ->
        List.fold_left
          (fun (h, m, b, jh) c ->
            let h', m', _ = Duoengine.Executor.cache_stats c in
            let b', jh' = Duoengine.Executor.join_index_stats c in
            (h + h', m + m', b + b', jh + jh'))
          acc (Duoquest.session_relcaches duo))
      (0, 0, 0, 0) t.dbs
  in
  [
    ("hits", Json.Num (float_of_int hits));
    ("misses", Json.Num (float_of_int misses));
    ("join_index_builds", Json.Num (float_of_int ji_builds));
    ("join_index_hits", Json.Num (float_of_int ji_hits));
  ]

let stats_fields t =
  [
    ("sessions", Json.Num (float_of_int (Hashtbl.length t.sessions)));
    ("running", Json.Num (float_of_int (running_count t)));
    ("opened", Json.Num (float_of_int t.opened));
    ("rejected", Json.Num (float_of_int t.rejected));
    ("completed", Json.Num (float_of_int t.completed));
    ("runs_completed", Json.Num (float_of_int t.runs_completed));
    ("cancelled", Json.Num (float_of_int t.cancelled));
    ("failed", Json.Num (float_of_int t.failed));
    ("refined", Json.Num (float_of_int t.refined));
    ("rebased", Json.Num (float_of_int t.rebased));
    ("slices", Json.Num (float_of_int t.slices));
    ("read_pauses", Json.Num (float_of_int t.read_pauses));
    ("long_lines", Json.Num (float_of_int t.long_lines));
    ("draining", Json.Bool t.is_draining);
    ("dedup", Json.Obj (dedup_fields t));
    ("relcache", Json.Obj (relcache_fields t));
  ]

let handle_request t req =
  match req with
  | Protocol.Open_session p -> (
      match handle_open t p with
      | Ok fields -> Protocol.ok_line fields
      | Error e -> Protocol.error_line e)
  | Protocol.Refine_tsq (sid, tsq) -> (
      match live_session t sid with
      | Error e -> Protocol.error_line e
      | Ok s -> (
          let before = Session.rebased s in
          update t s (fun () -> Session.refine s tsq);
          let warm = Session.rebased s > before in
          t.refined <- t.refined + 1;
          if warm then t.rebased <- t.rebased + 1;
          (* A warm rebase can finish on the spot when the carried
             candidates already fill the budget. *)
          count_run t s;
          match Session.status s with
          | Session.Failed reason -> Protocol.error_line (failure s reason)
          | Session.Running | Session.Finished | Session.Cancelled ->
              Protocol.ok_line
                (session_fields s
                @ [
                    ("refinements", Json.Num (float_of_int (Session.refinements s)));
                    ("rebased", Json.Bool warm);
                  ])))
  | Protocol.Get_candidates (sid, k) -> (
      match live_session t sid with
      | Error e -> Protocol.error_line e
      | Ok s -> (
          match handle_candidates s k with
          | fields -> Protocol.ok_line fields
          | exception e ->
              let reason = Printexc.to_string e in
              update t s (fun () -> Session.fail s reason);
              Protocol.error_line (failure s reason)))
  | Protocol.Cancel sid -> (
      match find_session t sid with
      | Error e -> Protocol.error_line e
      | Ok s ->
          update t s (fun () -> Session.cancel s);
          Protocol.ok_line (session_fields s))
  | Protocol.Close sid -> (
      match find_session t sid with
      | Error e -> Protocol.error_line e
      | Ok s ->
          let o = Session.outcome s in
          Duocore.Verify.merge_stats ~into:t.retired o.Enumerate.out_stats;
          update t s (fun () -> Session.close s);
          Hashtbl.remove t.sessions sid;
          Protocol.ok_line
            [
              ("session", Json.Num (float_of_int sid)); ("closed", Json.Bool true);
            ])
  | Protocol.List_dbs ->
      Protocol.ok_line
        [
          ( "dbs",
            Json.List (List.map (fun (name, _) -> Json.Str name) t.dbs) );
        ]
  | Protocol.Stats -> Protocol.ok_line (stats_fields t)
  | Protocol.Shutdown ->
      t.is_draining <- true;
      Protocol.ok_line [ ("draining", Json.Bool true) ]

(* The request-level exception barrier: what a request raises outside a
   session's own barrier ([update]) becomes its error reply. *)
let handle_line t line =
  match Protocol.request_of_line line with
  | Error e -> Protocol.error_line e
  | Ok req -> (
      try handle_request t req
      with e -> Protocol.error_line ("internal error: " ^ Printexc.to_string e))

let destroy t =
  Hashtbl.iter (fun _ s -> Session.close s) t.sessions;
  Hashtbl.reset t.sessions

(* --- the event loop --------------------------------------------------- *)

(* Bounds on one client's buffers.  A request line longer than
   [max_line] bytes is answered with one error and dropped up to its
   newline, unbuffered; a client with more than [high_water] bytes of
   unsent replies is not read until [flush] drains it below the mark, so
   a client that pipelines requests and stops reading holds at most
   about [high_water] plus one read's worth of replies. *)
let max_line = 1 lsl 20
let high_water = 1 lsl 20

(* A client's partial input line, and its pending replies: the bytes
   [out.(out_pos .. out_len-1)] are not yet written. *)
type client = {
  fd : Unix.file_descr;
  inbuf : Buffer.t;
  mutable discarding : bool;  (* inside an over-long line *)
  mutable paused : bool;  (* left out of the read set *)
  mutable out : Bytes.t;
  mutable out_len : int;
  mutable out_pos : int;
}

let new_client fd =
  { fd; inbuf = Buffer.create 256; discarding = false; paused = false;
    out = Bytes.create 256; out_len = 0; out_pos = 0 }

let pending c = c.out_len > c.out_pos

let reply c line =
  let need = c.out_len + String.length line + 1 in
  if need > Bytes.length c.out then begin
    let out = Bytes.create (max need (2 * Bytes.length c.out)) in
    Bytes.blit c.out 0 out 0 c.out_len;
    c.out <- out
  end;
  Bytes.blit_string line 0 c.out c.out_len (String.length line);
  Bytes.set c.out (need - 1) '\n';
  c.out_len <- need

(* Answer every line completed by [data.(0 .. n-1)]: only the new bytes
   are searched for newlines, and each line is copied out once.  A line
   that grows past [max_line] gets one error reply; its remaining bytes
   are skipped up to the newline that ends it. *)
let feed t client data n =
  let rec lines from =
    let nl =
      match Bytes.index_from_opt data from '\n' with
      | Some nl when nl < n -> nl
      | Some _ | None -> n
    in
    if client.discarding then ()
    else if Buffer.length client.inbuf + (nl - from) > max_line then begin
      Buffer.clear client.inbuf;
      client.discarding <- true;
      t.long_lines <- t.long_lines + 1;
      reply client
        (Protocol.error_line (Printf.sprintf "request line exceeds %d bytes" max_line))
    end
    else Buffer.add_subbytes client.inbuf data from (nl - from);
    if nl < n then begin
      if client.discarding then client.discarding <- false
      else begin
        let line = String.trim (Buffer.contents client.inbuf) in
        Buffer.clear client.inbuf;
        if line <> "" then reply client (handle_line t line)
      end;
      lines (nl + 1)
    end
  in
  lines 0

(* Write what the socket takes; a fully written buffer is reset. *)
let flush c =
  c.out_pos <- c.out_pos + Unix.write c.fd c.out c.out_pos (c.out_len - c.out_pos);
  if c.out_pos = c.out_len then begin
    c.out_len <- 0;
    c.out_pos <- 0
  end

let serve t ~listen =
  (match Sys.os_type with
  | "Unix" -> Sys.set_signal Sys.sigpipe Sys.Signal_ignore
  | _ -> ());
  let clients = ref [] in
  let buf = Bytes.create 4096 in
  let drop c =
    (try Unix.close c.fd with Unix.Unix_error _ -> ());
    clients := List.filter (fun c' -> c'.fd <> c.fd) !clients
  in
  let finished = ref false in
  while not !finished do
    let can_exit =
      drained t && not (List.exists pending !clients)
    in
    if can_exit then begin
      List.iter drop !clients;
      (try Unix.close listen with Unix.Unix_error _ -> ());
      finished := true
    end
    else begin
      List.iter
        (fun c ->
          let paused = c.out_len - c.out_pos > high_water in
          if paused && not c.paused then t.read_pauses <- t.read_pauses + 1;
          c.paused <- paused)
        !clients;
      let read_fds =
        (if t.is_draining then [] else [ listen ])
        @ List.filter_map (fun c -> if c.paused then None else Some c.fd) !clients
      in
      let write_fds =
        List.filter_map
          (fun c -> if pending c then Some c.fd else None)
          !clients
      in
      let timeout = if running_count t > 0 then 0.0 else 0.05 in
      let readable, writable, _ =
        try Unix.select read_fds write_fds [] timeout
        with Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
      in
      if List.mem listen readable then (
        match Unix.accept ~cloexec:true listen with
        | fd, _ ->
            (* non-blocking, so [flush] writes only what the socket takes
               and a client that stops reading stalls no one else *)
            Unix.set_nonblock fd;
            clients := new_client fd :: !clients
        | exception Unix.Unix_error _ -> ());
      List.iter
        (fun c ->
          if List.mem c.fd readable then
            match Unix.read c.fd buf 0 (Bytes.length buf) with
            | 0 -> drop c
            | n -> feed t c buf n
            | exception
                Unix.Unix_error
                  ((Unix.ECONNRESET | Unix.EPIPE | Unix.EBADF), _, _) ->
                drop c
            | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _)
              ->
                ())
        !clients;
      List.iter
        (fun c ->
          if List.mem c.fd writable && pending c then
            match flush c with
            | () -> ()
            | exception
                Unix.Unix_error
                  ((Unix.ECONNRESET | Unix.EPIPE | Unix.EBADF), _, _) ->
                drop c
            | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _)
              ->
                ())
        !clients;
      ignore (tick t)
    end
  done
