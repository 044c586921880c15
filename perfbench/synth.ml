(* The synthesis workloads (mas-dual, dev-nli, mas-spec2): sequential
   [Duoquest.synthesize] calls over a seeded case list.

   Untraced ([--trace 0]) runs the case list in a number of whole passes
   fixed by the run's seconds and reports the end-to-end metrics.  Traced
   ([--trace 1]) runs one untraced pass for the program's own counters
   and the overhead base, then the same cases through {!Mirror} for the
   per-layer table. *)

module E = Duocore.Enumerate
module Duoquest = Duocore.Duoquest
module W = Workload

type env = {
  workload : string;
  sessions : (string, Duoquest.session) Hashtbl.t;
  pool : Duopar.Pool.t option;
}

(* Program set-up: databases built and indexed sessions created (plus
   the worker pool for a multi-domain config). *)
let build workload config () =
  let dbs =
    match workload with
    | "dev-nli" -> (Duobench.Spider_gen.dev ()).Duobench.Spider_gen.databases
    | _ -> [ ("mas", Duobench.Mas.database ()) ]
  in
  let sessions = Hashtbl.create 32 in
  List.iter (fun (name, db) -> Hashtbl.replace sessions name (Duoquest.create_session db)) dbs;
  let domains = E.effective_domains config in
  let pool = if domains > 1 then Some (Duopar.Pool.create ~domains) else None in
  { workload; sessions; pool }

(* [setup_s] is the median over set-ups spread across the whole run,
   each in a fresh process like the first: this process's, whose
   environment is kept, and one in each probe process between calls
   (after its kernel sample).  Back-to-back repeats all fell into one
   host-speed phase, which moved the median by ~30%, and repeats in this
   process would add their databases to its peak RSS. *)
let setup_times : float list ref = ref []

let setup workload config =
  let env, dt = Pb.timed (build workload config) in
  setup_times := dt :: !setup_times;
  env

(* The probe process's part: one timed set-up, its pool shut down. *)
let probe_setup workload config =
  let env, dt = Pb.timed (build workload config) in
  Option.iter Duopar.Pool.shutdown env.pool;
  dt

let cases_of workload env ~seed =
  let db name = Duoquest.session_db (Hashtbl.find env.sessions name) in
  match workload with
  | "mas-dual" -> W.mas_dual_cases (db "mas") ~seed
  | "mas-spec2" -> W.mas_spec2_cases (db "mas") ~seed
  | "dev-nli" -> W.dev_nli_cases (Duobench.Spider_gen.dev ()) ~seed
  | w -> invalid_arg ("unknown synthesis workload " ^ w)

(* One observed call. *)
type obs = {
  o_case : W.case;
  o_outcome : E.outcome;
  o_latency : float;
  o_ttfc : float option;
  o_ttg : float option;
  o_rank : int option;
}

let call ?pool config env (c : W.case) =
  let session = Hashtbl.find env.sessions c.W.c_db in
  let stamps = ref [] in
  let t0 = Pb.mono () in
  let o =
    Duoquest.synthesize ~config ~mode:(W.mode c) ?tsq:c.W.c_tsq ~literals:c.W.c_literals
      ?pool
      ~on_candidate:(fun _ -> stamps := Pb.mono () :: !stamps)
      session ~nlq:c.W.c_nlq ()
  in
  let t1 = Pb.mono () in
  let stamps = Array.of_list (List.rev !stamps) in
  let rank = Duoquest.rank_of o ~gold:c.W.c_gold in
  {
    o_case = c;
    o_outcome = o;
    o_latency = t1 -. t0;
    o_ttfc = (if Array.length stamps > 0 then Some (stamps.(0) -. t0) else None);
    o_ttg = Option.map (fun r -> stamps.(r - 1) -. t0) rank;
    o_rank = rank;
  }

(* Between calls, outside every timed region: a finished major GC
   cycle, so that no call pays for collecting the previous call's
   frontier (without it, time to gold — the first ~40 ms of a call —
   moved by ~20% with the preceding case), and every half second a probe
   process: a host-calibration sample, then a set-up. *)
let between_calls config env =
  Gc.major ();
  if Pb.calibration_due 0.5 then
    let domains = string_of_int config.E.domains in
    match Pb.probe [ "--workload"; env.workload; "--domains"; domains ] with
    | [ dt ] -> setup_times := dt :: !setup_times
    | _ -> failwith "the probe process printed no set-up time"

let pass ?pool config env cases =
  List.map
    (fun c ->
      between_calls config env;
      call ?pool config env c)
    cases

(* The run's work is fixed by [seconds], not by how fast the host is: one
   pass per [nominal_pass_s] seconds, at least one.  The divisor is a
   fixed number, not a measured pass length: on a 2-vCPU VM a mas-dual
   pass takes about 33 s and a dev-nli pass 12 s, so at 15 s both make
   one pass and mas-spec2 makes three.  Timing passes instead let a slow
   host halve the sample count, and with it move the tail statistic. *)
let nominal_pass_s = function "mas-spec2" -> 5.0 | _ -> 15.0

let passes ?pool config env cases ~n = List.init n (fun _ -> pass ?pool config env cases)

(* Correctness of one pass's calls; [runs] is how many calls each case
   made in the run, all of which fail with the case. *)
let check_pass ~runs config env ?(reference = []) (first : obs list) =
  List.iter
    (fun ob ->
      let c = ob.o_case in
      let o = ob.o_outcome in
      let hash = Pb.candidates_hash o.E.out_candidates in
      let db = Duoquest.session_db (Hashtbl.find env.sessions c.W.c_db) in
      let reasons =
        [
          Check.budget_reason config o;
          Check.against_baseline c.W.c_id ~hash ~rank:ob.o_rank;
          Check.reference_reason ~db_name:c.W.c_db db ~gold:c.W.c_gold o.E.out_candidates;
          (match List.assoc_opt c.W.c_id reference with
          | Some h when h <> hash ->
              Some (Printf.sprintf "candidates %s differ from the sequential run's %s" hash h)
          | Some _ | None -> None);
        ]
      in
      match List.filter_map Fun.id reasons with
      | [] -> ()
      | r :: _ -> Pb.fail ~ops:runs "%s: %s" c.W.c_id r)
    first

(* Later passes must repeat the first pass's candidates exactly.  A run
   of one pass has nothing to compare here; across runs the baseline
   check pins the same candidates. *)
let check_repeats all_passes =
  match all_passes with
  | [] -> ()
  | first :: rest ->
      List.iter
        (fun p ->
          List.iter2
            (fun a b ->
              if
                Pb.candidates_hash a.o_outcome.E.out_candidates
                <> Pb.candidates_hash b.o_outcome.E.out_candidates
              then Pb.fail "%s: candidates changed between passes" a.o_case.W.c_id)
            first p)
        rest

let quality (first : obs list) =
  let n = List.length first in
  let within k = List.length (List.filter (fun ob -> match ob.o_rank with Some r -> r <= k | None -> false) first) in
  Pb.put ~n "top1_frac" (Pb.ratio (float_of_int (within 1)) (float_of_int n));
  Pb.put ~n "top10_frac" (Pb.ratio (float_of_int (within 10)) (float_of_int n))

let untraced workload config env cases ~seconds ~slo_ms =
  let n = max 1 (Float.to_int (Float.round (seconds /. nominal_pass_s workload))) in
  let all = passes ?pool:env.pool config env cases ~n in
  let rss = Pb.peak_rss_mb "self" in
  let calls = List.concat all in
  let n_calls = List.length calls in
  Pb.attempted := n_calls;
  let latencies = List.map (fun ob -> ob.o_latency) calls in
  (* the median pass: a burst of host noise during one pass moves it less
     than it moves a mean *)
  Pb.put ~n:(List.length all) ~scaled:true "wall_s"
    (Pb.median (List.map (fun p -> Pb.sum (List.map (fun ob -> ob.o_latency) p)) all));
  Pb.put_dist_ms "latency" latencies;
  Pb.put_dist_ms "ttg" (List.filter_map (fun ob -> ob.o_ttg) calls);
  Pb.put_dist_ms "ttfc" (List.filter_map (fun ob -> ob.o_ttfc) calls);
  let first = List.hd all in
  quality first;
  Pb.put ~n:n_calls "slo_frac"
    (Pb.ratio
       (float_of_int (List.length (List.filter (fun l -> l *. 1000.0 <= slo_ms) latencies)))
       (float_of_int n_calls));
  Pb.put "peak_rss_mb" rss;
  Pb.put ~n:(List.length !setup_times) ~scaled:true "setup_s" (Pb.median !setup_times);
  (* baseline.json holds sequential ([domains = 1]) hashes, so for a
     multi-domain workload the baseline check is the parallel-equals-
     sequential check; the traced run also compares with a live
     sequential pass *)
  check_pass ~runs:(List.length all) config env first;
  check_repeats all;
  Pb.put ~n:n_calls "ok_frac"
    (Pb.ratio (float_of_int (n_calls - min n_calls !Pb.failed)) (float_of_int n_calls))

(* Program counters from the untraced pass, the Duopar outcome fields
   and the mirror's per-layer table. *)
let traced config env cases =
  let gc = ref [] in
  let first =
    List.map
      (fun c ->
        between_calls config env;
        let g0 = Gc.quick_stat () in
        let ob = call ?pool:env.pool config env c in
        gc := (g0, Gc.quick_stat ()) :: !gc;
        ob)
      cases
  in
  Pb.put_gc_deltas !gc;
  Pb.attempted := List.length first;
  let outs = List.map (fun ob -> ob.o_outcome) first in
  let fsum f = Pb.sum (List.map f outs) in
  let isum f = float_of_int (List.fold_left (fun a o -> a + f o) 0 outs) in
  let elapsed = fsum (fun o -> o.E.out_elapsed_s) in
  let untraced_wall = Pb.sum (List.map (fun ob -> ob.o_latency) first) in
  Pb.put "enumerate.pops" (isum (fun o -> o.E.out_pops));
  Pb.put "enumerate.pops_per_s" (Pb.ratio (isum (fun o -> o.E.out_pops)) elapsed);
  let gold_pops =
    List.filter_map
      (fun ob ->
        Option.map
          (fun r -> float_of_int (List.nth ob.o_outcome.E.out_candidates (r - 1)).E.cand_pops)
          ob.o_rank)
      first
  in
  Pb.put ~n:(List.length gold_pops) "enumerate.gold_pops_p50"
    (if gold_pops = [] then 0.0 else Pb.median gold_pops);
  Pb.put "enumerate.unattributed_frac"
    (1.0 -. Pb.ratio (fsum (fun o -> o.E.out_expand_s +. o.E.out_verify_s)) elapsed);
  let tasks = isum (fun o -> o.E.out_spec_tasks) in
  Pb.put "duopar.domains" (float_of_int (List.fold_left (fun a o -> max a o.E.out_domains) 1 outs));
  Pb.put "duopar.spec_rounds" (isum (fun o -> o.E.out_spec_rounds));
  Pb.put "duopar.spec_tasks" tasks;
  Pb.put "duopar.commit_rate"
    (if tasks = 0.0 then 1.0 else isum (fun o -> o.E.out_spec_hits) /. tasks);
  Pb.put ~n:(List.length outs) "duopar.round_size"
    (Pb.median (List.map (fun o -> float_of_int o.E.out_spec_round_size) outs));
  Pb.put "duopar.grows" (isum (fun o -> o.E.out_spec_grows));
  Pb.put "duopar.shrinks" (isum (fun o -> o.E.out_spec_shrinks));
  (* With several domains the same cases also run at one domain: the
     speedup's numerator, the sequential reference, and the base the
     (sequential) mirror's overhead is measured against. *)
  let reference, sequential_wall =
    if config.E.domains > 1 then begin
      let seq = pass { config with E.domains = 1 } env cases in
      let seq_wall = Pb.sum (List.map (fun ob -> ob.o_latency) seq) in
      Pb.put "duopar.speedup" (Pb.ratio seq_wall untraced_wall);
      ( List.map (fun ob -> (ob.o_case.W.c_id, Pb.candidates_hash ob.o_outcome.E.out_candidates)) seq,
        seq_wall )
    end
    else begin
      Pb.put "duopar.speedup" 1.0;
      ([], untraced_wall)
    end
  in
  let agree = ref true in
  List.iter
    (fun ob ->
      let session = Hashtbl.find env.sessions ob.o_case.W.c_db in
      between_calls config env;
      let r = Mirror.run config session ob.o_case in
      if not (Mirror.agrees r ob.o_outcome) then begin
        agree := false;
        prerr_endline ("perfbench: mirror disagrees with the program on " ^ ob.o_case.W.c_id)
      end)
    first;
  Mirror.report ();
  Pb.put "trace.mirror_ok" (if !agree then 1.0 else 0.0);
  Pb.put_host ();
  Pb.put "trace.overhead_frac" (Pb.ratio !Mirror.traced_wall sequential_wall -. 1.0);
  check_pass ~runs:1 config env ~reference first
