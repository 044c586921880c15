(* Run individual experiments from the reproduction harness:
   `duoquest_bench fig10 table6` or `duoquest_bench --list`. *)

open Cmdliner

let list_arg =
  Arg.(value & flag & info [ "list" ] ~doc:"List all experiment ids and exit.")

let quick_arg =
  Arg.(value & flag & info [ "quick" ] ~doc:"Use small generated splits (smoke-test scale).")

let ids_arg =
  Arg.(value & pos_all string [] & info [] ~docv:"EXPERIMENT" ~doc:"Experiment ids to run (default: all).")

(* DUOQUEST_DOMAINS=<n> is the sharding knob; unset or unparsable reads
   as sequential, and [effective_domains] clamps the rest to [1, 64]. *)
let domains_from_env () =
  Option.value ~default:1
    (Option.bind (Sys.getenv_opt "DUOQUEST_DOMAINS") (fun s ->
         int_of_string_opt (String.trim s)))

let run list quick ids =
  if list then begin
    List.iter
      (fun id ->
        Printf.printf "%-20s %s\n" id
          (Option.value ~default:"" (Duobench.Experiments.describe id)))
      Duobench.Experiments.all_ids;
    `Ok ()
  end
  else begin
    (* DUOQUEST_DOMAINS > 1 shards workload generation and the
       simulation runs over one shared pool (results are identical to
       the sequential run; only wall-clock changes). *)
    let domains =
      Duocore.Enumerate.effective_domains
        { Duocore.Enumerate.default_config with
          Duocore.Enumerate.domains = domains_from_env () }
    in
    let pool =
      if domains > 1 then Some (Duopar.Pool.create ~domains) else None
    in
    Fun.protect
      ~finally:(fun () -> Option.iter Duopar.Pool.shutdown pool)
      (fun () ->
        let t =
          Duobench.Experiments.create
            ~scale:(if quick then `Quick else `Full)
            ?pool ()
        in
        let ppf = Format.std_formatter in
        let ids = if ids = [] then Duobench.Experiments.all_ids else ids in
        let rec go = function
          | [] -> `Ok ()
          | id :: rest -> (
              match Duobench.Experiments.run t ppf id with
              | Ok () -> go rest
              | Error e -> `Error (false, e))
        in
        go ids)
  end

let () =
  let doc = "Regenerate the Duoquest paper's tables and figures" in
  let cmd =
    Cmd.v
      (Cmd.info "duoquest_bench" ~version:"1.0.0" ~doc)
      Term.(ret (const run $ list_arg $ quick_arg $ ids_arg))
  in
  exit (Cmd.eval cmd)
