(* The traced run: the benchmark's own copy of the sequential committing
   loop of [Enumerate.step] (the [domains = 1] path), built only from the
   program's public functions, with a span around every call into a
   layer.  Spans are accumulated in memory per layer and written out when
   the run ends; [check] compares the mirror's outcome with the untraced
   run's, so a drift between this copy and the program shows up as
   [trace.mirror_ok = 0] instead of as wrong layer numbers. *)

module E = Duocore.Enumerate
module Verify = Duocore.Verify
module Partial = Duocore.Partial
module Frontier = Duocore.Frontier

(* One layer's span totals. *)
type span = {
  name : string;
  mutable secs : float;
  mutable calls : int;
}

let span name = { name; secs = 0.0; calls = 0 }
let nlq = span "nlq.with_literals"
let model = span "model.make"
let make_env = span "verify.make_env"
let pop = span "frontier.pop"
let expand = span "enumerate.expand"
let batch = span "verify.verify_batch"
let key = span "partial.key"
let canon = span "partial.canonical_key"
let warnings = span "verify.static_warnings"
let push = span "frontier.push"
let to_query = span "partial.to_query"
let dedup = span "duosem.dedup_key"
let all_spans =
  [ nlq; model; make_env; pop; expand; batch; key; canon; warnings; push; to_query; dedup ]

let within s f =
  let t0 = Pb.mono () in
  let r = f () in
  s.secs <- s.secs +. (Pb.mono () -. t0);
  s.calls <- s.calls + 1;
  r

(* Loop-level counters the program does not report. *)
let children = ref 0
let survivors = ref 0
let visited_hits = ref 0
let peak_frontier = ref 0
let dropped = ref 0
let traced_wall = ref 0.0
let nlq_calls = ref []
let model_calls = ref []
let stats_total = Verify.new_stats ()
let cache_hits = ref 0
let cache_misses = ref 0
let cache_pushdown = ref 0

type result = {
  r_candidates : E.candidate list;
  r_pops : int;
  r_stats : Verify.stats;
}

(* One case through the mirrored loop: [Duoquest.prepare] (literals
   given), [Enumerate.init] and the [domains = 1] body of
   [Enumerate.step], with no wall-clock budget (the benchmark's cases
   never reach it). *)
let run (config : E.config) session (c : Workload.case) =
  let t_start = Pb.mono () in
  let db = Duocore.Duoquest.session_db session in
  let index = Duocore.Duoquest.session_index session in
  let t0 = Pb.mono () in
  let analyzed = within nlq (fun () -> Duonl.Nlq.with_literals ~index c.Workload.c_nlq c.Workload.c_literals) in
  nlq_calls := (Pb.mono () -. t0) :: !nlq_calls;
  let t0 = Pb.mono () in
  let ctx =
    within model (fun () ->
        Duoguide.Model.make ~temperature:config.E.temperature ~index
          (Duodb.Database.schema db) analyzed)
  in
  model_calls := (Pb.mono () -. t0) :: !model_calls;
  let literals = List.map (fun l -> l.Duonl.Nlq.lit_value) analyzed.Duonl.Nlq.literals in
  let stats = Verify.new_stats () in
  let relcache = Duoengine.Executor.create_cache () in
  let tsq = c.Workload.c_tsq in
  let env =
    within make_env (fun () ->
        Verify.make_env ~stats ~semantics:config.E.semantic_rules
          ~static:config.E.static_rules ~index ~relcache ~db ~tsq ~literals ())
  in
  let hints = match tsq with Some s -> E.hints_of_tsq s | None -> E.no_hints in
  let frontier = Frontier.create ~cap:config.E.max_frontier () in
  Frontier.push frontier Partial.root;
  let visited = Hashtbl.create 4096 in
  let canonical = Hashtbl.create 4096 in
  let emitted = Hashtbl.create 64 in
  let cands = ref [] and n_cands = ref 0 and pops = ref 0 in
  let exception Stop in
  let emit (p : Partial.t) q =
    let dkey = within dedup (fun () -> Duolint.Duosem.dedup_key q) in
    if Hashtbl.mem emitted dkey then
      stats.Verify.dedup_semantic <- stats.Verify.dedup_semantic + 1
    else begin
      Hashtbl.replace emitted dkey ();
      cands :=
        {
          E.cand_query = q;
          cand_confidence = p.Partial.confidence;
          cand_index = !n_cands;
          cand_pops = !pops;
          cand_time_s = Pb.mono () -. t_start;
        }
        :: !cands;
      incr n_cands;
      if !n_cands >= config.E.max_candidates then raise Stop
    end
  in
  let push_fresh (child : Partial.t) =
    let k = within key (fun () -> Partial.key child) in
    if Hashtbl.mem visited k then incr visited_hits
    else begin
      Hashtbl.replace visited k ();
      let ck = within canon (fun () -> Partial.canonical_key child) in
      if Hashtbl.mem canonical ck then
        stats.Verify.dedup_semantic <- stats.Verify.dedup_semantic + 1
      else begin
        Hashtbl.replace canonical ck ();
        let child =
          if not config.E.static_rules then child
          else
            match within warnings (fun () -> Verify.static_warnings env child) with
            | 0 -> child
            | n ->
                { child with
                  Partial.confidence =
                    child.Partial.confidence
                    *. (config.E.static_penalty ** float_of_int n) }
        in
        within push (fun () -> Frontier.push frontier child);
        peak_frontier := max !peak_frontier (Frontier.size frontier)
      end
    end
  in
  (try
     while true do
       if Frontier.is_empty frontier then raise Stop;
       if !pops >= config.E.max_pops then raise Stop;
       match within pop (fun () -> Frontier.pop frontier) with
       | None -> raise Stop
       | Some p when Partial.is_complete p -> (
           incr pops;
           match within to_query (fun () -> Partial.to_query p) with
           | Some q -> emit p q
           | None -> ())
       | Some p ->
           incr pops;
           let kids =
             within expand (fun () -> E.expand ~guided:config.E.guided hints ctx p)
           in
           let verdicts = within batch (fun () -> Verify.verify_batch env kids) in
           List.iter
             (fun (child, ok) ->
               incr children;
               if ok then begin
                 incr survivors;
                 push_fresh child
               end)
             verdicts
     done
   with Stop -> ());
  traced_wall := !traced_wall +. (Pb.mono () -. t_start);
  dropped := !dropped + Frontier.dropped frontier;
  Verify.merge_stats ~into:stats_total stats;
  let h, m, pd = Duoengine.Executor.cache_stats relcache in
  cache_hits := !cache_hits + h;
  cache_misses := !cache_misses + m;
  cache_pushdown := !cache_pushdown + pd;
  { r_candidates = List.rev !cands; r_pops = !pops; r_stats = stats }

(* The mirror agrees with the untraced run: same candidates (SQL and
   confidence, in order), same pops, same prune counters. *)
let agrees (r : result) (o : E.outcome) =
  Pb.candidates_hash r.r_candidates = Pb.candidates_hash o.E.out_candidates
  && r.r_pops = o.E.out_pops
  && r.r_stats.Verify.pruned = o.E.out_stats.Verify.pruned
  && List.for_all
       (fun st -> Verify.pruned_by r.r_stats st = Verify.pruned_by o.E.out_stats st)
       Verify.all_stages
  && r.r_stats.Verify.dedup_semantic = o.E.out_stats.Verify.dedup_semantic

(* Per-layer metrics from the accumulated spans. *)
let report () =
  let put = Pb.put in
  let ms_median l = Pb.median (List.map (fun s -> s *. 1000.0) l) in
  Pb.put ~n:(List.length !nlq_calls) "nlq.analyze_ms" (ms_median !nlq_calls);
  Pb.put ~n:(List.length !model_calls) "model.make_ms" (ms_median !model_calls);
  put "enumerate.expand_s" expand.secs;
  put "enumerate.expand_calls" (float_of_int expand.calls);
  put "enumerate.children_per_expand"
    (Pb.ratio (float_of_int !children) (float_of_int expand.calls));
  put "partial.key_s" key.secs;
  put "partial.canonical_key_s" canon.secs;
  put "duosem.dedup_key_s" dedup.secs;
  put "partial.key_calls" (float_of_int key.calls);
  put "enumerate.visited_hit_frac"
    (Pb.ratio (float_of_int !visited_hits) (float_of_int key.calls));
  put "enumerate.dedup_semantic" (float_of_int stats_total.Verify.dedup_semantic);
  put "frontier.push_s" push.secs;
  put "frontier.pop_s" pop.secs;
  put "frontier.pushes" (float_of_int push.calls);
  put "frontier.pops" (float_of_int pop.calls);
  put "frontier.peak_size" (float_of_int !peak_frontier);
  put "frontier.dropped" (float_of_int !dropped);
  put "verify.static_warnings_s" warnings.secs;
  put "verify.static_warnings" (float_of_int stats_total.Verify.static_warnings);
  put "verify.batch_s" batch.secs;
  put "verify.batch_calls" (float_of_int batch.calls);
  List.iter
    (fun st ->
      let name = Verify.stage_name st in
      put ("verify.stage_s." ^ name) stats_total.Verify.stage_seconds.(Verify.stage_index st);
      put ("verify.pruned." ^ name) (float_of_int (Verify.pruned_by stats_total st)))
    Verify.all_stages;
  put "verify.survive_frac" (Pb.ratio (float_of_int !survivors) (float_of_int !children));
  let s = stats_total in
  put "executor.column_probes" (float_of_int s.Verify.column_probes);
  put "executor.index_probes" (float_of_int s.Verify.index_probes);
  put "executor.row_probes" (float_of_int s.Verify.row_probes);
  put "executor.full_executions" (float_of_int s.Verify.full_executions);
  put "executor.relcache_hit_frac"
    (Pb.ratio (float_of_int !cache_hits) (float_of_int (!cache_hits + !cache_misses)));
  put "executor.pushdown_builds" (float_of_int !cache_pushdown);
  put "executor.batch_rounds" (float_of_int s.Verify.batch_rounds);
  put "executor.batched_probes" (float_of_int s.Verify.batched_probes);
  let spanned = Pb.sum (List.map (fun s -> s.secs) all_spans) in
  put "trace.wall_s" !traced_wall;
  put "trace.unattributed_s" (!traced_wall -. spanned)

let span_json () =
  Pb.Json.List
    (List.map
       (fun s ->
         Pb.Json.Obj
           [ ("layer", Pb.str s.name); ("seconds", Pb.num s.secs); ("calls", Pb.num (float_of_int s.calls)) ])
       all_spans)
