(* duoserve: the Duoquest synthesis service.

   Boots a server over a generated Spider-like database set and speaks
   the Duoserve line protocol (see lib/serve/protocol.mli) on a Unix or
   TCP socket until a shutdown request drains it. *)

open Cmdliner
module Enumerate = Duocore.Enumerate

let socket_arg =
  Arg.(
    value
    & opt string "/tmp/duoserve.sock"
    & info [ "socket" ] ~docv:"PATH" ~doc:"Unix socket path to listen on.")

let port_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "port" ] ~docv:"PORT"
        ~doc:"Listen on 127.0.0.1:$(docv) instead of a Unix socket.")

let dbs_arg =
  Arg.(
    value & opt int 4
    & info [ "dbs" ] ~docv:"N"
        ~doc:"Number of generated Spider-like databases to serve.")

let seed_arg =
  Arg.(
    value & opt int 0
    & info [ "seed" ] ~docv:"SEED" ~doc:"Database generator seed.")

let max_sessions_arg =
  Arg.(
    value & opt int 32
    & info [ "max-sessions" ] ~docv:"N"
        ~doc:"Admission bound: reject opens beyond $(docv) open sessions.")

let slice_arg =
  Arg.(
    value & opt int 64
    & info [ "slice" ] ~docv:"POPS"
        ~doc:"Frontier pops per scheduler time slice.")

let max_pops_arg =
  Arg.(
    value & opt int 5_000
    & info [ "max-pops" ] ~docv:"N" ~doc:"Per-session enumeration pop budget.")

let max_candidates_arg =
  Arg.(
    value & opt int 10
    & info [ "max-candidates" ] ~docv:"N"
        ~doc:"Per-session candidate budget.")

let time_budget_arg =
  Arg.(
    value & opt float 10.0
    & info [ "time-budget" ] ~docv:"SECONDS"
        ~doc:"Per-session active-stepping time budget.")

let listen_unix path =
  (try Unix.unlink path with Unix.Unix_error _ -> ());
  let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind fd (Unix.ADDR_UNIX path);
  Unix.listen fd 64;
  fd

let listen_tcp port =
  let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt fd Unix.SO_REUSEADDR true;
  Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  Unix.listen fd 64;
  fd

let run socket port n_dbs seed max_sessions slice max_pops max_candidates
    time_budget =
  let session_config =
    { Enumerate.default_config with
      Enumerate.max_pops;
      max_candidates;
      time_budget_s = time_budget }
  in
  let config =
    { Duoserve.Server.max_sessions; slice_pops = slice; session_config }
  in
  let split =
    Duobench.Spider_gen.mini ~seed ~n_dbs:(max 1 n_dbs) ~per_db:1 ()
  in
  let server = Duoserve.Server.create config split.Duobench.Spider_gen.databases in
  let listen, where =
    match port with
    | Some p -> (listen_tcp p, Printf.sprintf "127.0.0.1:%d" p)
    | None -> (listen_unix socket, socket)
  in
  Printf.printf "duoserve: %d databases, listening on %s\n%!"
    (List.length split.Duobench.Spider_gen.databases)
    where;
  Fun.protect
    ~finally:(fun () ->
      Duoserve.Server.destroy server;
      match port with
      | None -> ( try Unix.unlink socket with Unix.Unix_error _ -> ())
      | Some _ -> ())
    (fun () -> Duoserve.Server.serve server ~listen);
  Printf.printf "duoserve: drained, bye\n%!";
  `Ok ()

let () =
  let doc = "Serve concurrent Duoquest synthesis sessions over a socket" in
  let cmd =
    Cmd.v
      (Cmd.info "duoserve" ~version:"1.0.0" ~doc)
      Term.(
        ret
          (const run $ socket_arg $ port_arg $ dbs_arg $ seed_arg
         $ max_sessions_arg $ slice_arg $ max_pops_arg $ max_candidates_arg
         $ time_budget_arg))
  in
  exit (Cmd.eval cmd)
