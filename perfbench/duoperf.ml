(* The benchmark worker.  perfbench/run.py builds and drives it:

     duoperf.exe run --workload W --seed N --seconds S --trace 0|1
                     --slo-ms L --baseline perfbench/baseline.json --out FILE
     duoperf.exe baseline --out perfbench/baseline.json
     duoperf.exe serve-child --socket PATH     (the serve-refine server)
     duoperf.exe probe [--workload W --domains D]
                                  (a host-speed sample, then a set-up)

   [run] writes one JSON report (metrics with sample counts, failures,
   spans) to FILE; run.py turns it into the benchmark's result line. *)

module W = Workload

let die fmt = Printf.ksprintf (fun m -> prerr_endline ("duoperf: " ^ m); exit 2) fmt

let flag args name =
  let rec find = function
    | k :: v :: _ when k = name -> Some v
    | _ :: rest -> find rest
    | [] -> None
  in
  find args

let required args name =
  match flag args name with Some v -> v | None -> die "missing %s" name

let config_of = function
  | "mas-dual" -> W.mas_config
  | "dev-nli" -> W.dev_config
  | "mas-spec2" -> W.spec2_config
  | "serve-refine" -> W.serve_config
  | w -> die "unknown workload %s" w

let run args =
  let workload = required args "--workload" in
  let seed = int_of_string (required args "--seed") in
  let seconds = float_of_string (required args "--seconds") in
  let trace = required args "--trace" = "1" in
  let slo_ms = float_of_string (required args "--slo-ms") in
  let out = required args "--out" in
  Check.load_baseline (required args "--baseline");
  let config = config_of workload in
  Pb.calibrate_n 5;
  let extra =
    match workload with
    | "serve-refine" ->
        Serveload.run ~seed ~seconds ~trace ~slo_ms;
        []
    | _ ->
        let env = Synth.setup workload config in
        let cases = Synth.cases_of workload env ~seed in
        if trace then begin
          Synth.traced config env cases;
          [ ("spans", Mirror.span_json ()) ]
        end
        else begin
          Synth.untraced workload config env cases ~seconds ~slo_ms;
          []
        end
  in
  Pb.write_report out
    ~header:
      [
        ("workload", Pb.str workload);
        ("seed", Pb.num (float_of_int seed));
        ("trace", Pb.Json.Bool trace);
      ]
    ~extra

(* Prints the kernel time, then (given a synthesis workload) the time
   of one set-up for it at [--domains], in seconds. *)
let probe args =
  let kernel = Pb.kernel_sample () in
  match flag args "--workload" with
  | None -> Printf.printf "%.9f\n" kernel
  | Some w ->
      let domains = int_of_string (required args "--domains") in
      let config = { (config_of w) with Duocore.Enumerate.domains } in
      Printf.printf "%.9f %.9f\n" kernel (Synth.probe_setup w config)

(* Regenerate baseline.json: every case any seed can draw, at the
   workload budgets. *)
let baseline args =
  let out = required args "--out" in
  let entry config session (c : W.case) =
    let o =
      Duocore.Duoquest.synthesize ~config ~mode:(W.mode c) ?tsq:c.W.c_tsq
        ~literals:c.W.c_literals session ~nlq:c.W.c_nlq ()
    in
    let rank = Duocore.Duoquest.rank_of o ~gold:c.W.c_gold in
    ( c.W.c_id,
      Pb.Json.Obj
        [
          ("hash", Pb.str (Pb.candidates_hash o.Duocore.Enumerate.out_candidates));
          ("rank", Pb.num (float_of_int (Check.rank_int rank)));
        ] )
  in
  let mas_db = Duobench.Mas.database () in
  let mas = Duocore.Duoquest.create_session mas_db in
  let split = Duobench.Spider_gen.dev () in
  let dev = Hashtbl.create 32 in
  List.iter
    (fun (n, db) -> Hashtbl.replace dev n (Duocore.Duoquest.create_session db))
    split.Duobench.Spider_gen.databases;
  let cases =
    List.map (entry W.mas_config mas) (W.mas_pool mas_db)
    @ List.map
        (fun (c : W.case) -> entry W.dev_config (Hashtbl.find dev c.W.c_db) c)
        (W.dev_pool split)
  in
  (* one case per line, so a changed case shows as a one-line diff *)
  let oc = open_out out in
  output_string oc
    "{\"about\": \"Candidate-list hash and gold rank (0 = not emitted) of every \
     case the benchmark can draw; regenerate with `duoperf.exe baseline`.\",\n\"cases\": {\n";
  List.iteri
    (fun i (id, j) ->
      Printf.fprintf oc "%s%s: %s" (if i = 0 then "" else ",\n")
        (Pb.Json.to_string (Pb.str id)) (Pb.Json.to_string j))
    cases;
  output_string oc "\n}}\n";
  close_out oc;
  Printf.printf "%d cases -> %s\n" (List.length cases) out

let () =
  match Array.to_list Sys.argv with
  | _ :: "run" :: args -> run args
  | _ :: "baseline" :: args -> baseline args
  | _ :: "serve-child" :: args -> Serveload.child (required args "--socket")
  | _ :: "probe" :: args -> probe args
  | _ -> die "usage: duoperf.exe (run|baseline|serve-child|probe) ..."
