(* loadgen: concurrent-session benchmark for duoserve.

   Boots the server in-process on a Unix socket, then replays generated
   Spider-like tasks as traffic from several concurrent client domains:
   each client opens a session (half NLQ-only, half dual-specification),
   polls it to completion, and closes it.  The admission bound is set
   below the client count, so rejection and retry are part of the
   workload.

   Reports session-completion latency percentiles (p50/p95/p99),
   throughput, and rejected opens; every distinct task's served
   candidates are then compared against a solo in-process run with the
   identical budget — any mismatch would mean cross-session
   interference, and fails the program.

     ./loadgen.exe [--quick] [--clients N] [--repeat R] [--json PATH] *)

module Server = Duoserve.Server
module Client = Duoserve.Client
module Protocol = Duoserve.Protocol
module Json = Duoserve.Json
module Enumerate = Duocore.Enumerate
module Duoquest = Duocore.Duoquest
module Spider_gen = Duobench.Spider_gen

let die fmt = Printf.ksprintf (fun m -> prerr_endline ("loadgen: " ^ m); exit 1) fmt

type result = {
  r_task : int;  (** index into the replayed task array *)
  r_latency_s : float;
  r_sqls : string list;
}

let session_budget =
  { Enumerate.default_config with
    Enumerate.max_pops = 400;
    max_candidates = 5;
    time_budget_s = 20.0 }

let tsq_for db (task : Spider_gen.task) k =
  if k mod 2 = 1 then
    Duobench.Tsq_synth.synthesize
      (Duobench.Rng.create (100 + k))
      db task.Spider_gen.sp_gold ~detail:Duobench.Tsq_synth.Full
  else None

let get_str j field = Option.bind (Json.member field j) Json.get_str
let get_int j field = Option.bind (Json.member field j) Json.get_int

let sqls_of j =
  match Option.bind (Json.member "candidates" j) Json.get_list with
  | None -> die "get_candidates response without candidates"
  | Some cs ->
      List.map
        (fun c ->
          match Option.bind (Json.member "sql" c) Json.get_str with
          | Some s -> s
          | None -> die "candidate without sql")
        cs

let run_client ~path ~dbs ~tasks ~next ~rejected () =
  let conn = Client.connect_unix path in
  let results = ref [] in
  let total = Array.length tasks in
  let rec drive () =
    let k = Atomic.fetch_and_add next 1 in
    if k < total then begin
      let task = tasks.(k) in
      let db = List.assoc task.Spider_gen.sp_db dbs in
      let open_req =
        Protocol.Open_session
          {
            Protocol.op_db = task.Spider_gen.sp_db;
            op_nlq = task.Spider_gen.sp_nlq;
            op_tsq = tsq_for db task k;
            op_literals = Some task.Spider_gen.sp_literals;
            op_max_pops = None;
            op_max_candidates = None;
            op_time_budget_s = None;
          }
      in
      let t0 = Unix.gettimeofday () in
      (* admission: retry until a slot frees up *)
      let rec admit tries =
        if tries > 100_000 then die "task %d never admitted" k;
        match Client.request conn open_req with
        | Ok j -> j
        | Error e
          when String.length e >= 11 && String.sub e 0 11 = "server full" ->
            Atomic.incr rejected;
            Unix.sleepf 0.004;
            admit (tries + 1)
        | Error e -> die "open failed: %s" e
      in
      let opened = admit 0 in
      let sid =
        match get_int opened "session" with
        | Some i -> i
        | None -> die "open response without session id"
      in
      let rec poll tries =
        if tries > 50_000 then die "session %d stuck" sid;
        let r =
          match Client.request conn (Protocol.Get_candidates (sid, None)) with
          | Ok j -> j
          | Error e -> die "get_candidates failed: %s" e
        in
        match get_str r "status" with
        | Some "running" ->
            Unix.sleepf 0.002;
            poll (tries + 1)
        | Some _ -> r
        | None -> die "get_candidates without status"
      in
      let final = poll 0 in
      let latency = Unix.gettimeofday () -. t0 in
      (match Client.request conn (Protocol.Close sid) with
      | Ok _ -> ()
      | Error e -> die "close failed: %s" e);
      results :=
        { r_task = k; r_latency_s = latency; r_sqls = sqls_of final }
        :: !results;
      drive ()
    end
  in
  drive ();
  Client.close conn;
  !results

let percentile sorted q =
  let n = Array.length sorted in
  if n = 0 then 0.0
  else
    let idx = int_of_float (Float.ceil (q *. float_of_int n)) - 1 in
    sorted.(max 0 (min (n - 1) idx))

(* Solo replay of one task with the identical budget; the server's
   per-session results must match this exactly. *)
let solo_run ~dbs ~tasks k =
  let task = tasks.(k) in
  let db = List.assoc task.Spider_gen.sp_db dbs in
  let session = Duoquest.create_session db in
  let outcome =
    Duoquest.synthesize ~config:session_budget
      ?tsq:(tsq_for db task k)
      ~literals:task.Spider_gen.sp_literals session
      ~nlq:task.Spider_gen.sp_nlq ()
  in
  List.map
    (fun c -> Duosql.Pretty.query c.Enumerate.cand_query)
    outcome.Enumerate.out_candidates

(* --- warm-vs-cold refinement sweep ---------------------------------- *)

(* For each distinct task with a synthesizable sketch: run a session to
   completion under a loosened ancestor of the sketch, then tighten it in
   place — the server must serve that over the warm [Enumerate.rebase]
   path — and measure refine→finish latency.  The cold baseline refines a
   sketchless session to the same target, which takes the from-root
   fallback.  Warm must keep the cold run's candidates (as a prefix; the
   pop budget is per refinement, so a pop-bound cold run may legally stop
   earlier). *)

type refine_report = {
  rf_tasks : int;
  rf_warm_ms : float array;  (** sorted *)
  rf_cold_ms : float array;  (** sorted *)
  rf_mismatches : int;
}

let rec is_prefix xs ys =
  match (xs, ys) with
  | [], _ -> true
  | x :: xs', y :: ys' -> x = y && is_prefix xs' ys'
  | _ :: _, [] -> false

let refine_sweep ~path ~dbs ~tasks ~max_tasks () =
  let module Tsq = Duocore.Tsq in
  let conn = Client.connect_unix path in
  let open_session ?tsq (task : Spider_gen.task) =
    let req =
      Protocol.Open_session
        {
          Protocol.op_db = task.Spider_gen.sp_db;
          op_nlq = task.Spider_gen.sp_nlq;
          op_tsq = tsq;
          op_literals = Some task.Spider_gen.sp_literals;
          op_max_pops = None;
          op_max_candidates = None;
          op_time_budget_s = None;
        }
    in
    let rec admit tries =
      if tries > 100_000 then die "refine sweep: never admitted";
      match Client.request conn req with
      | Ok j -> j
      | Error e when String.length e >= 11 && String.sub e 0 11 = "server full"
        ->
          Unix.sleepf 0.004;
          admit (tries + 1)
      | Error e -> die "refine sweep: open failed: %s" e
    in
    match get_int (admit 0) "session" with
    | Some sid -> sid
    | None -> die "refine sweep: open response without session id"
  in
  let rec poll sid tries =
    if tries > 50_000 then die "refine sweep: session %d stuck" sid;
    match Client.request conn (Protocol.Get_candidates (sid, None)) with
    | Error e -> die "refine sweep: poll failed: %s" e
    | Ok r -> (
        match get_str r "status" with
        | Some "running" ->
            Unix.sleepf 0.002;
            poll sid (tries + 1)
        | Some _ -> r
        | None -> die "refine sweep: poll without status")
  in
  (* refine→finish latency, whether the warm path served it, final SQLs *)
  let refine_to sid tsq =
    let t0 = Unix.gettimeofday () in
    match Client.request conn (Protocol.Refine_tsq (sid, tsq)) with
    | Error e -> die "refine sweep: refine failed: %s" e
    | Ok r ->
        let rebased = Option.bind (Json.member "rebased" r) Json.get_bool in
        let final = poll sid 0 in
        (Unix.gettimeofday () -. t0, rebased = Some true, sqls_of final)
  in
  let close sid = ignore (Client.request conn (Protocol.Close sid)) in
  let warm = ref [] and cold = ref [] in
  let n = ref 0 and mismatches = ref 0 in
  Array.iteri
    (fun k (task : Spider_gen.task) ->
      if !n < max_tasks then
        let db = List.assoc task.Spider_gen.sp_db dbs in
        match
          Duobench.Tsq_synth.synthesize
            (Duobench.Rng.create (200 + k))
            db task.Spider_gen.sp_gold ~detail:Duobench.Tsq_synth.Full
        with
        | None -> ()
        | Some t0 ->
            let tight = { t0 with Tsq.min_support = None } in
            let loose =
              { tight with
                Tsq.tuples =
                  (match tight.Tsq.tuples with [] -> [] | t :: _ -> [ t ]);
                sorted = false;
                negatives = [] }
            in
            if Tsq.refines ~old:loose ~new_:tight = Tsq.Tightening then begin
              incr n;
              let sid = open_session ~tsq:loose task in
              ignore (poll sid 0);
              let w_lat, w_rebased, w_sqls = refine_to sid tight in
              close sid;
              if not w_rebased then
                die "refine sweep: tightening on task %d not served warm" k;
              let sid = open_session task in
              ignore (poll sid 0);
              let c_lat, c_rebased, c_sqls = refine_to sid tight in
              close sid;
              if c_rebased then
                die "refine sweep: sketchless refine on task %d took the \
                     rebase path" k;
              warm := (w_lat *. 1000.0) :: !warm;
              cold := (c_lat *. 1000.0) :: !cold;
              if not (is_prefix c_sqls w_sqls) then incr mismatches
            end)
    tasks;
  Client.close conn;
  let sorted l =
    let a = Array.of_list l in
    Array.sort compare a;
    a
  in
  {
    rf_tasks = !n;
    rf_warm_ms = sorted !warm;
    rf_cold_ms = sorted !cold;
    rf_mismatches = !mismatches;
  }

let json_escape s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (function
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let () =
  let quick = ref false in
  let clients = ref 10 in
  let repeat = ref 2 in
  let json_path = ref None in
  let rec parse = function
    | [] -> ()
    | "--quick" :: rest -> quick := true; parse rest
    | "--clients" :: n :: rest -> clients := int_of_string n; parse rest
    | "--repeat" :: n :: rest -> repeat := int_of_string n; parse rest
    | "--json" :: p :: rest -> json_path := Some p; parse rest
    | arg :: _ ->
        die "unknown argument %s (expected --quick, --clients N, --repeat R, --json PATH)" arg
  in
  parse (List.tl (Array.to_list Sys.argv));
  let n_dbs, per_db = if !quick then (3, 3) else (6, 4) in
  let split = Spider_gen.mini ~seed:5 ~n_dbs ~per_db () in
  let dbs = split.Spider_gen.databases in
  let base_tasks = Array.of_list split.Spider_gen.tasks in
  let tasks =
    Array.init
      (Array.length base_tasks * !repeat)
      (fun i -> base_tasks.(i mod Array.length base_tasks))
  in
  let max_sessions = max 2 (!clients - 2) in
  let server_config =
    { Server.max_sessions; slice_pops = 64; session_config = session_budget }
  in
  let path = Printf.sprintf "/tmp/duoserve-load-%d.sock" (Unix.getpid ()) in
  let server = Server.create server_config dbs in
  let listen =
    let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    Unix.bind fd (Unix.ADDR_UNIX path);
    Unix.listen fd 64;
    fd
  in
  let server_domain = Domain.spawn (fun () -> Server.serve server ~listen) in
  let next = Atomic.make 0 in
  let rejected = Atomic.make 0 in
  Printf.printf
    "loadgen: %d sessions over %d clients (max %d concurrent), %d databases\n%!"
    (Array.length tasks) !clients max_sessions (List.length dbs);
  let t_start = Unix.gettimeofday () in
  let client_domains =
    List.init !clients (fun _ ->
        Domain.spawn (run_client ~path ~dbs ~tasks ~next ~rejected))
  in
  let results = List.concat_map Domain.join client_domains in
  let wall = Unix.gettimeofday () -. t_start in
  (* warm-vs-cold refinement sweep on the still-running server *)
  let refine = refine_sweep ~path ~dbs ~tasks:base_tasks ~max_tasks:8 () in
  (* drain the server *)
  let control = Client.connect_unix path in
  let stats = Client.request_exn control Protocol.Stats in
  ignore (Client.request_exn control Protocol.Shutdown);
  Client.close control;
  Domain.join server_domain;
  Server.destroy server;
  (try Unix.unlink path with Unix.Unix_error _ -> ());
  (* interference check: every distinct task, served = solo *)
  let mismatches = ref 0 in
  let checked = min (Array.length base_tasks) (Array.length tasks) in
  let by_task = Hashtbl.create 64 in
  List.iter (fun r -> Hashtbl.replace by_task r.r_task r.r_sqls) results;
  for k = 0 to checked - 1 do
    match Hashtbl.find_opt by_task k with
    | None -> ()
    | Some served ->
        if served <> solo_run ~dbs ~tasks k then begin
          incr mismatches;
          Printf.printf "loadgen: INTERFERENCE on task %d (%s)\n%!" k
            tasks.(k).Spider_gen.sp_nlq
        end
  done;
  let lats =
    results |> List.map (fun r -> r.r_latency_s *. 1000.0) |> Array.of_list
  in
  Array.sort compare lats;
  let p50 = percentile lats 0.50
  and p95 = percentile lats 0.95
  and p99 = percentile lats 0.99 in
  let mean =
    if Array.length lats = 0 then 0.0
    else Array.fold_left ( +. ) 0.0 lats /. float_of_int (Array.length lats)
  in
  let throughput =
    if wall > 0.0 then float_of_int (List.length results) /. wall else 0.0
  in
  let n_rejected = Atomic.get rejected in
  let refine_warm_p50 = percentile refine.rf_warm_ms 0.50 in
  let refine_cold_p50 = percentile refine.rf_cold_ms 0.50 in
  Printf.printf
    "loadgen: %d sessions in %.2fs (%.2f/s); latency ms p50=%.1f p95=%.1f \
     p99=%.1f; %d rejected opens; %d interference mismatches\n%!"
    (List.length results) wall throughput p50 p95 p99 n_rejected !mismatches;
  Printf.printf
    "loadgen: refine sweep over %d tasks: warm p50=%.1fms cold p50=%.1fms \
     (%.1fx); %d candidate mismatches\n%!"
    refine.rf_tasks refine_warm_p50 refine_cold_p50
    (if refine_warm_p50 > 0.0 then refine_cold_p50 /. refine_warm_p50 else 0.0)
    refine.rf_mismatches;
  (match !json_path with
  | None -> ()
  | Some out ->
      let oc = open_out out in
      let p fmt = Printf.fprintf oc fmt in
      p "{\n";
      p "  \"scale\": \"%s\",\n" (if !quick then "quick" else "full");
      p "  \"databases\": %d,\n" (List.length dbs);
      p "  \"sessions\": %d,\n" (List.length results);
      p "  \"clients\": %d,\n" !clients;
      p "  \"max_concurrent_sessions\": %d,\n" max_sessions;
      p "  \"slice_pops\": %d,\n" server_config.Server.slice_pops;
      p "  \"session_budget\": {\"max_pops\": %d, \"max_candidates\": %d},\n"
        session_budget.Enumerate.max_pops
        session_budget.Enumerate.max_candidates;
      p "  \"latency_ms\": {\"p50\": %.2f, \"p95\": %.2f, \"p99\": %.2f, \
         \"mean\": %.2f, \"max\": %.2f},\n"
        p50 p95 p99 mean
        (if Array.length lats = 0 then 0.0 else lats.(Array.length lats - 1));
      p "  \"throughput_sessions_per_s\": %.3f,\n" throughput;
      p "  \"rejected_opens\": %d,\n" n_rejected;
      p "  \"server\": {\"opened\": %s, \"completed\": %s, \"slices\": %s},\n"
        (match get_int stats "opened" with Some i -> string_of_int i | None -> "null")
        (match get_int stats "completed" with Some i -> string_of_int i | None -> "null")
        (match get_int stats "slices" with Some i -> string_of_int i | None -> "null")
      ;
      p "  \"interference\": {\"tasks_checked\": %d, \"mismatches\": %d},\n"
        checked !mismatches;
      p "  \"refine\": {\"tasks\": %d, \"warm_ms\": {\"p50\": %.2f, \
         \"p95\": %.2f}, \"cold_ms\": {\"p50\": %.2f, \"p95\": %.2f}, \
         \"warm_speedup_p50\": %.2f, \"candidate_mismatches\": %d},\n"
        refine.rf_tasks refine_warm_p50
        (percentile refine.rf_warm_ms 0.95)
        refine_cold_p50
        (percentile refine.rf_cold_ms 0.95)
        (if refine_warm_p50 > 0.0 then refine_cold_p50 /. refine_warm_p50
         else 0.0)
        refine.rf_mismatches;
      p "  \"note\": \"%s\"\n"
        (json_escape
           "latency is per-session completion time under concurrent \
            round-robin scheduling on the bench host");
      p "}\n";
      close_out oc;
      Printf.printf "loadgen: wrote %s\n%!" out);
  if !mismatches > 0 || refine.rf_mismatches > 0 then exit 1
