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
  dbs : (string * Duoquest.session) list;
  caches : (string * Duoengine.Executor.relation_cache) list;
  pool : Duopar.Pool.t option;
  owns_pool : bool;
  sessions : (int, Session.t) Hashtbl.t;
  mutable next_sid : int;
  mutable rr_last : int;  (** sid stepped most recently (round-robin cursor) *)
  mutable is_draining : bool;
  mutable opened : int;
  mutable rejected : int;
  mutable completed : int;  (** sessions whose outcome is [Finished] *)
  mutable cancelled : int;  (** sessions whose outcome is [Cancelled] *)
  mutable runs_completed : int;  (** enumeration runs that finished *)
  mutable refined : int;
  mutable rebased : int;  (** refinements served by the warm rebase path *)
  mutable slices : int;
  retired : Duocore.Verify.stats;  (** dedup counters of closed sessions *)
  mutable retired_spec_tasks : int;  (** Duopar speculation of closed sessions *)
  mutable retired_spec_hits : int;
}

let create ?pool config dbs =
  let pool, owns_pool =
    match pool with
    | Some p -> (Some p, false)
    | None ->
        let domains = Enumerate.effective_domains config.session_config in
        if domains > 1 then (Some (Duopar.Pool.create ~domains), true)
        else (None, false)
  in
  {
    config;
    dbs = List.map (fun (name, db) -> (name, Duoquest.create_session db)) dbs;
    caches =
      List.map (fun (name, _) -> (name, Duoengine.Executor.create_cache ())) dbs;
    pool;
    owns_pool;
    sessions = Hashtbl.create 64;
    next_sid = 1;
    rr_last = 0;
    is_draining = false;
    opened = 0;
    rejected = 0;
    completed = 0;
    cancelled = 0;
    runs_completed = 0;
    refined = 0;
    rebased = 0;
    slices = 0;
    retired = Duocore.Verify.new_stats ();
    retired_spec_tasks = 0;
    retired_spec_hits = 0;
  }

let draining t = t.is_draining

let running_count t =
  Hashtbl.fold
    (fun _ s acc ->
      match Session.status s with
      | Session.Running -> acc + 1
      | Session.Finished | Session.Cancelled -> acc)
    t.sessions 0

let drained t = t.is_draining && running_count t = 0

(* --- scheduling ------------------------------------------------------ *)

(* Next runnable sid after the round-robin cursor: the smallest running
   sid greater than [rr_last], wrapping to the smallest overall. *)
let next_runnable t =
  Hashtbl.fold
    (fun sid s acc ->
      match Session.status s with
      | Session.Finished | Session.Cancelled -> acc
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
   so [opened = completed + cancelled + running] at all times: a refine
   takes its session's outcome off the books while it runs again, and a
   run that finishes books its session (back) as completed.  Run
   completions, a refined session's included, are [runs_completed]. *)
let book t s delta =
  match Session.status s with
  | Session.Finished -> t.completed <- t.completed + delta
  | Session.Cancelled -> t.cancelled <- t.cancelled + delta
  | Session.Running -> ()

let book_run t s =
  match Session.status s with
  | Session.Finished ->
      book t s 1;
      t.runs_completed <- t.runs_completed + 1
  | Session.Running | Session.Cancelled -> ()

let tick t =
  match next_runnable t with
  | None -> false
  | Some sid ->
      let s = Hashtbl.find t.sessions sid in
      t.rr_last <- sid;
      t.slices <- t.slices + 1;
      Session.step ~max_pops:t.config.slice_pops s;
      book_run t s;
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
            ?relcache:(List.assoc_opt p.Protocol.op_db t.caches)
            ?pool:t.pool ~nlq:p.Protocol.op_nlq ?tsq:p.Protocol.op_tsq
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

(* Duopar visibility for operators: pool shape plus the adaptive
   controller's state — [round_size] is the widest current round over the
   open sessions (sessions inherit their controller across slices, so
   this is the steady-state answer to "how far ahead is the server
   speculating"), and [commit_rate] is the cumulative hits/tasks ratio
   over open and closed sessions (1.0 when nothing was speculated: the
   degenerate sequential path wastes nothing). *)
let duopar_fields t =
  let tasks = ref t.retired_spec_tasks and hits = ref t.retired_spec_hits in
  let round_size = ref 0 in
  Hashtbl.iter
    (fun _ s ->
      let o = Session.outcome s in
      tasks := !tasks + o.Enumerate.out_spec_tasks;
      hits := !hits + o.Enumerate.out_spec_hits;
      round_size := max !round_size o.Enumerate.out_spec_round_size)
    t.sessions;
  let commit_rate =
    if !tasks = 0 then 1.0 else float_of_int !hits /. float_of_int !tasks
  in
  [
    ( "domains_requested",
      Json.Num (float_of_int t.config.session_config.Enumerate.domains) );
    ( "domains",
      Json.Num
        (float_of_int
           (match t.pool with Some p -> Duopar.Pool.domains p | None -> 1)) );
    ("round_size", Json.Num (float_of_int !round_size));
    ("commit_rate", Json.Num commit_rate);
    ("spec_tasks", Json.Num (float_of_int !tasks));
    ("spec_hits", Json.Num (float_of_int !hits));
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

(* The per-database relation caches shared by every session on that
   database: joined relations and the join-key indexes they are built
   over. *)
let relcache_fields t =
  let hits, misses, ji_builds, ji_hits =
    List.fold_left
      (fun (h, m, b, jh) (_, c) ->
        let h', m', _ = Duoengine.Executor.cache_stats c in
        let b', jh' = Duoengine.Executor.join_index_stats c in
        (h + h', m + m', b + b', jh + jh'))
      (0, 0, 0, 0) t.caches
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
    ("refined", Json.Num (float_of_int t.refined));
    ("rebased", Json.Num (float_of_int t.rebased));
    ("slices", Json.Num (float_of_int t.slices));
    ("draining", Json.Bool t.is_draining);
    ("dedup", Json.Obj (dedup_fields t));
    ("relcache", Json.Obj (relcache_fields t));
    ("duopar", Json.Obj (duopar_fields t));
  ]

let handle_request t req =
  match req with
  | Protocol.Open_session p -> (
      match handle_open t p with
      | Ok fields -> Protocol.ok_line fields
      | Error e -> Protocol.error_line e)
  | Protocol.Refine_tsq (sid, tsq) -> (
      match find_session t sid with
      | Error e -> Protocol.error_line e
      | Ok s ->
          let before = Session.rebased s in
          book t s (-1);
          Session.refine s tsq;
          let warm = Session.rebased s > before in
          t.refined <- t.refined + 1;
          if warm then t.rebased <- t.rebased + 1;
          (* A warm rebase can finish on the spot when the carried
             candidates already fill the budget. *)
          book_run t s;
          Protocol.ok_line
            (session_fields s
            @ [
                ("refinements", Json.Num (float_of_int (Session.refinements s)));
                ("rebased", Json.Bool warm);
              ]))
  | Protocol.Get_candidates (sid, k) -> (
      match find_session t sid with
      | Error e -> Protocol.error_line e
      | Ok s -> Protocol.ok_line (handle_candidates s k))
  | Protocol.Cancel sid -> (
      match find_session t sid with
      | Error e -> Protocol.error_line e
      | Ok s ->
          let running = Session.status s = Session.Running in
          Session.cancel s;
          if running then book t s 1;
          Protocol.ok_line (session_fields s))
  | Protocol.Close sid -> (
      match find_session t sid with
      | Error e -> Protocol.error_line e
      | Ok s ->
          let running = Session.status s = Session.Running in
          let o = Session.outcome s in
          Duocore.Verify.merge_stats ~into:t.retired o.Enumerate.out_stats;
          t.retired_spec_tasks <- t.retired_spec_tasks + o.Enumerate.out_spec_tasks;
          t.retired_spec_hits <- t.retired_spec_hits + o.Enumerate.out_spec_hits;
          Session.close s;
          if running then book t s 1;
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

let handle_line t line =
  match Protocol.request_of_line line with
  | Error e -> Protocol.error_line e
  | Ok req -> handle_request t req

let destroy t =
  Hashtbl.iter (fun _ s -> Session.close s) t.sessions;
  Hashtbl.reset t.sessions;
  if t.owns_pool then
    match t.pool with
    | Some p -> Duopar.Pool.shutdown p
    | None -> ()

(* --- the event loop --------------------------------------------------- *)

type client = {
  fd : Unix.file_descr;
  inbuf : Buffer.t;
  mutable outbuf : string;
}

let feed t client data =
  Buffer.add_string client.inbuf data;
  let s = Buffer.contents client.inbuf in
  let rec split from acc =
    match String.index_from_opt s from '\n' with
    | Some nl -> split (nl + 1) (String.sub s from (nl - from) :: acc)
    | None -> (List.rev acc, String.sub s from (String.length s - from))
  in
  let lines, rest = split 0 [] in
  Buffer.clear client.inbuf;
  Buffer.add_string client.inbuf rest;
  List.iter
    (fun line ->
      let line = String.trim line in
      if line <> "" then
        client.outbuf <- client.outbuf ^ handle_line t line ^ "\n")
    lines

let serve t ~listen =
  (match Sys.os_type with
  | "Unix" -> Sys.set_signal Sys.sigpipe Sys.Signal_ignore
  | _ -> ());
  let clients = ref [] in
  let drop c =
    (try Unix.close c.fd with Unix.Unix_error _ -> ());
    clients := List.filter (fun c' -> c'.fd <> c.fd) !clients
  in
  let finished = ref false in
  while not !finished do
    let can_exit =
      drained t && List.for_all (fun c -> c.outbuf = "") !clients
    in
    if can_exit then begin
      List.iter drop !clients;
      (try Unix.close listen with Unix.Unix_error _ -> ());
      finished := true
    end
    else begin
      let read_fds =
        (if t.is_draining then [] else [ listen ])
        @ List.map (fun c -> c.fd) !clients
      in
      let write_fds =
        List.filter_map
          (fun c -> if c.outbuf = "" then None else Some c.fd)
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
            clients :=
              { fd; inbuf = Buffer.create 256; outbuf = "" } :: !clients
        | exception Unix.Unix_error _ -> ());
      List.iter
        (fun c ->
          if List.mem c.fd readable then
            let buf = Bytes.create 4096 in
            match Unix.read c.fd buf 0 4096 with
            | 0 -> drop c
            | n -> feed t c (Bytes.sub_string buf 0 n)
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
          if List.mem c.fd writable && c.outbuf <> "" then
            let data = Bytes.of_string c.outbuf in
            match Unix.write c.fd data 0 (Bytes.length data) with
            | n ->
                c.outbuf <-
                  String.sub c.outbuf n (String.length c.outbuf - n)
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
