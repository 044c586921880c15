open Duosql.Ast
module Model = Duoguide.Model

type config = {
  guided : bool;
  prune_partial : bool;
  max_pops : int;
  max_candidates : int;
  time_budget_s : float;
  temperature : float;
  semantic_rules : bool;
  static_rules : bool;
  static_penalty : float;
  max_frontier : int;
  domains : int;
  overcommit : bool;
}

let default_config =
  {
    guided = true;
    prune_partial = true;
    max_pops = 200_000;
    max_candidates = 100;
    time_budget_s = 60.0;
    temperature = 1.0;
    semantic_rules = true;
    static_rules = true;
    static_penalty = 0.85;
    max_frontier = 400_000;
    domains = 1;
    overcommit = false;
  }

(* The sharding width a caller that runs whole syntheses side by side
   (bench, simulation) should use: [domains] clamped to [1, 64] and,
   without [overcommit], to the cores available.  A run itself is always
   the sequential committing loop. *)
let effective_domains config =
  let requested = max 1 (min config.domains 64) in
  if config.overcommit then requested
  else min requested (max 1 (Domain.recommended_domain_count ()))

type candidate = {
  cand_query : query;
  cand_confidence : float;
  cand_index : int;
  cand_pops : int;
  cand_time_s : float;
}

type outcome = {
  out_candidates : candidate list;
  out_pops : int;
  out_pushed : int;
  out_stats : Verify.stats;
  out_elapsed_s : float;
  out_expand_s : float;
  out_verify_s : float;
  out_admit_s : float;
  out_exhausted : bool;
  out_dropped : int;
  out_domains : int;
  out_spec_rounds : int;
  out_spec_tasks : int;
  out_spec_hits : int;
  out_spec_round_size : int;
  out_spec_grows : int;
  out_spec_shrinks : int;
  out_rebases : int;
  out_rebase_kept : int;
  out_rebase_dropped : int;
}

type hints = {
  h_nproj : int option;
  h_limit : int option;
  h_types : Duodb.Datatype.t list;
      (** per-slot output type annotations from the TSQ; [] when the
          sketch carries none *)
}

let no_hints = { h_nproj = None; h_limit = None; h_types = [] }

let hints_of_tsq tsq =
  {
    h_nproj = Tsq.width tsq;
    h_limit = (if tsq.Tsq.limit > 0 then Some tsq.Tsq.limit else None);
    h_types = (match tsq.Tsq.types with Some tys -> tys | None -> []);
  }

(* --- phase sequencing --- *)

let after_group (t : Partial.t) =
  if t.Partial.kw.Model.kw_order then Partial.P_order_target else Partial.P_done

let after_where (t : Partial.t) =
  if t.Partial.kw.Model.kw_group then Partial.P_group_col else after_group t

let after_select (t : Partial.t) =
  if t.Partial.kw.Model.kw_where then Partial.P_where_num else after_where t

let next_after_slot (t : Partial.t) i =
  if i + 1 < t.Partial.nproj then Partial.P_proj_target (i + 1) else after_select t

let next_after_pred (t : Partial.t) i =
  if i + 1 < t.Partial.where_n then Partial.P_where_col (i + 1)
  else if t.Partial.where_n >= 2 then Partial.P_where_conn
  else after_where t

(* --- helpers --- *)

let col_ref_of c = col c.Duodb.Schema.col_table c.Duodb.Schema.col_name

(* A child one decision deeper: it moves to [phase] and carries the
   parent's confidence times the decision's probability (Property 1). *)
let step (t : Partial.t) phase prob =
  { t with
    Partial.phase;
    confidence = t.Partial.confidence *. prob;
    depth = t.Partial.depth + 1 }

let is_counting (t : Partial.t) =
  List.exists
    (fun s -> s.Partial.pj_target = Model.Target_count_star)
    t.Partial.projs

(* Progressive join path construction (Section 3.3.4), deferred: when a
   decision makes the current join path stale, the state first passes
   through a [P_joinpath] phase whose expansion enumerates the candidate
   clauses.  Deferring keeps column fan-out and join fan-out additive
   rather than multiplicative.  Counting states revisit the join decision
   after every step because COUNT of all rows depends on every joined
   table (extensions up to two FK hops); revisits are deduped by the run
   loop.  [tables] are the parent's {!Partial.referenced_tables}, forced
   once per expansion, and [c] the one column the child adds to them. *)
let advance ~tables (c : Duodb.Schema.column option) (t : Partial.t) phase prob =
  let t' = step t phase prob in
  let tables = Lazy.force tables in
  let tables =
    match c with
    | Some c when not (List.mem c.Duodb.Schema.col_table tables) ->
        List.merge String.compare [ c.Duodb.Schema.col_table ] tables
    | Some _ | None -> tables
  in
  match tables, t'.Partial.from with
  | [], _ -> t'
  | _, Some f
    when Joinpath.covers f tables
         && ((not (is_counting t'))
            || List.length f.Duosql.Ast.f_tables > List.length tables) ->
      t'
  | _, (Some _ | None) -> { t' with Partial.phase = Partial.P_joinpath phase }

let replace_last lst x =
  match List.rev lst with
  | [] -> invalid_arg "replace_last: empty"
  | _ :: rest -> List.rev (x :: rest)

(* One expansion's children, unbuilt: child [i] has confidence
   [conf.(i)] and join length [jlen.(i)], and [build i] builds it.  The
   confidences are computed with [step]'s expression, so a built child
   carries exactly its [conf] entry.  [order], when given, is a guess at
   the children's best-first order that the frontier checks. *)
type children = {
  conf : float array;
  jlen : int array;
  order : int array option;
  build : int -> Partial.t;
}

let no_children =
  { conf = [||]; jlen = [||]; order = None; build = (fun _ -> Partial.root) }

(* Children from one decision's distribution: child [i] is [make x p]
   for its [i]th choice [(x, p)], which keeps the parent's join path, so
   the distribution's best-first order is the children's unless two
   products [c *. p] round to one confidence. *)
let choices (t : Partial.t) (d : _ Model.dist) make =
  let c = t.Partial.confidence in
  let items = d.Model.d_items and probs = d.Model.d_probs in
  {
    conf = Array.map (fun p -> c *. p) probs;
    jlen = Array.make (Array.length probs) (Partial.join_length t);
    order = Some d.Model.d_order;
    build = (fun i -> make items.(i) probs.(i));
  }

(* The one-choice decision of a join-path phase with no table to join. *)
let certain = Model.renormalized [ ((), 1.0) ]

let generate ~guided hints ctx (t : Partial.t) =
  let maybe_uniform d = if guided then d else Model.uniform d in
  let tables = lazy (Partial.referenced_tables t) in
  match t.Partial.phase with
  | Partial.P_done -> no_children
  | Partial.P_joinpath next ->
      let tables = Lazy.force tables in
      if tables = [] then choices t certain (fun () _ -> { t with Partial.phase = next })
      else
        let depth = if is_counting t then 2 else 1 in
        (* Join-path siblings keep the parent's confidence (Section 3.3.4);
           the frontier breaks ties toward shorter paths. *)
        let fs = Array.of_list (Joinpath.construct ~depth (Model.schema ctx) ~tables) in
        {
          conf = Array.make (Array.length fs) t.Partial.confidence;
          jlen = Array.map (fun f -> List.length f.f_joins) fs;
          order = None;
          build = (fun i -> { t with Partial.from = Some fs.(i); phase = next });
        }
  | Partial.P_keywords ->
      choices t (maybe_uniform (Model.keywords ctx)) (fun kw p ->
          step { t with Partial.kw } Partial.P_num_proj p)
  | Partial.P_num_proj ->
      choices t (maybe_uniform (Model.num_projections ctx ~hint:hints.h_nproj)) (fun n p ->
          step { t with Partial.nproj = n } (Partial.P_proj_target 0) p)
  | Partial.P_proj_target i ->
      let used = List.map (fun s -> s.Partial.pj_target) t.Partial.projs in
      choices t
        (maybe_uniform
           (Model.projection_targets ?out:(List.nth_opt hints.h_types i) ctx ~used))
        (fun target p ->
          let slot =
            {
              Partial.pj_target = target;
              pj_agg =
                (match target with
                | Model.Target_count_star -> Some (Some Count)
                | Model.Target_column _ -> None);
            }
          in
          let t' = { t with Partial.projs = t.Partial.projs @ [ slot ] } in
          let phase =
            match target with
            | Model.Target_count_star -> next_after_slot t' i
            | Model.Target_column _ -> Partial.P_proj_agg i
          in
          advance ~tables (Partial.target_col target) t' phase p)
  | Partial.P_proj_agg i -> (
      match List.rev t.Partial.projs with
      | { Partial.pj_target = Model.Target_column c; _ } :: _ ->
          choices t
            (maybe_uniform
               (Model.aggregates ?out:(List.nth_opt hints.h_types i) ctx
                  c.Duodb.Schema.col_type))
            (fun agg p ->
              let slot = { Partial.pj_target = Model.Target_column c; pj_agg = Some agg } in
              let t' = { t with Partial.projs = replace_last t.Partial.projs slot } in
              step t' (next_after_slot t' i) p)
      | { Partial.pj_target = Model.Target_count_star; _ } :: _ | [] -> no_children)
  | Partial.P_where_num ->
      choices t (maybe_uniform (Model.num_predicates ctx)) (fun n p ->
          step { t with Partial.where_n = n } (Partial.P_where_col 0) p)
  | Partial.P_where_col i ->
      let used =
        List.filter_map
          (fun pr ->
            Option.bind pr.pr_col (fun c ->
                Duodb.Schema.find_column (Model.schema ctx) ~table:c.cr_table c.cr_col))
          t.Partial.where_preds
      in
      choices t (maybe_uniform (Model.where_columns ctx ~used)) (fun c p ->
          advance ~tables (Some c) { t with Partial.where_pending = Some c }
            (Partial.P_where_op i) p)
  | Partial.P_where_op i -> (
      match t.Partial.where_pending with
      | None -> no_children
      | Some c ->
          choices t (Model.where_rhs ~uniform:(not guided) ctx c) (fun rhs p ->
              let pred = { pr_agg = None; pr_col = Some (col_ref_of c); pr_rhs = rhs } in
              let t' =
                { t with
                  Partial.where_preds = t.Partial.where_preds @ [ pred ];
                  where_pending = None }
              in
              step t' (next_after_pred t' i) p))
  | Partial.P_where_conn ->
      choices t (maybe_uniform (Model.connective ctx)) (fun conn p ->
          step { t with Partial.conn } (after_where t) p)
  | Partial.P_group_col ->
      let projected =
        List.filter_map
          (fun s ->
            match s.Partial.pj_agg with
            | Some None -> Partial.target_col s.Partial.pj_target
            | _ -> None)
          t.Partial.projs
      in
      choices t (maybe_uniform (Model.group_columns ctx ~projected)) (fun c p ->
          advance ~tables (Some c)
            { t with Partial.group_col = Some (col_ref_of c) }
            Partial.P_having_presence p)
  | Partial.P_having_presence ->
      choices t (maybe_uniform (Model.having_presence ctx)) (fun present p ->
          if present then step t Partial.P_having_pred p else step t (after_group t) p)
  | Partial.P_having_pred ->
      (* HAVING targets: COUNT of all rows, or an aggregate over a
         numeric projected column. *)
      let numeric_projected =
        List.filter_map
          (fun s ->
            match Partial.target_col s.Partial.pj_target with
            | Some c
              when Duodb.Datatype.equal c.Duodb.Schema.col_type Duodb.Datatype.Number ->
                Some c
            | _ -> None)
          t.Partial.projs
      in
      let targets =
        (Some Count, None)
        :: List.concat_map
             (fun c ->
               List.map
                 (fun a -> (Some a, Some (col_ref_of c)))
                 [ Sum; Avg; Min; Max ])
             numeric_projected
      in
      let p_target = 1.0 /. float_of_int (List.length targets) in
      let numeric_values =
        List.filter Duodb.Value.is_numeric
          (List.map (fun l -> l.Duonl.Nlq.lit_value) (Model.nlq ctx).Duonl.Nlq.literals)
      in
      let ops = maybe_uniform (Model.operators ctx Duodb.Datatype.Number) in
      (* BETWEEN has no HAVING form here and the literal pool may be
         empty, so collect the surviving predicates first and renormalize
         their weights (Property 1). *)
      let preds =
        List.concat_map
          (fun (agg, colref) ->
            List.concat_map
              (fun (shape, p_op) ->
                match shape with
                | Model.Shape_between -> []
                | Model.Shape_cmp op ->
                    let n_vals = List.length numeric_values in
                    if n_vals = 0 then []
                    else
                      List.map
                        (fun v ->
                          ( { pr_agg = agg; pr_col = colref; pr_rhs = Cmp (op, v) },
                            p_target *. p_op /. float_of_int n_vals ))
                        numeric_values)
              (Model.to_list ops))
          targets
      in
      choices t (Model.renormalized preds) (fun pred p ->
          step { t with Partial.having_pred = Some pred } (after_group t) p)
  | Partial.P_order_target ->
      let projected =
        List.filter_map
          (fun s ->
            match s.Partial.pj_agg with
            | Some agg -> Some (agg, Partial.target_col s.Partial.pj_target)
            | None -> None)
          t.Partial.projs
      in
      choices t (maybe_uniform (Model.order_targets ctx ~projected)) (fun (agg, colopt) p ->
          let item = (agg, Option.map col_ref_of colopt) in
          advance ~tables colopt { t with Partial.order_item = Some item }
            Partial.P_order_dir p)
  | Partial.P_order_dir ->
      choices t (maybe_uniform (Model.direction ctx)) (fun dir p ->
          step { t with Partial.order_dir = dir } Partial.P_limit p)
  | Partial.P_limit ->
      choices t (maybe_uniform (Model.limit ctx ~hint:hints.h_limit)) (fun lim p ->
          step { t with Partial.limit = lim } Partial.P_done p)

let expand ~guided hints ctx t =
  let g = generate ~guided hints ctx t in
  List.init (Array.length g.conf) g.build

(* Whether an expansion's children carry a WHERE or HAVING predicate:
   they do when the parent does, and they gain one exactly in these two
   phases. *)
let children_have_predicates (t : Partial.t) =
  Partial.has_predicates t
  ||
  match t.Partial.phase with
  | Partial.P_where_op _ | Partial.P_having_pred -> true
  | Partial.P_keywords | P_num_proj | P_proj_target _ | P_proj_agg _ | P_where_num
  | P_where_col _ | P_where_conn | P_group_col | P_having_presence | P_order_target
  | P_order_dir | P_limit | P_done | P_joinpath _ ->
      false

exception Budget_exhausted

(* Loop timers, in an all-float record so that an update stores an
   unboxed float instead of allocating one.  They tile the active time:
   every interval between two of the loop's stamps goes to one of
   them. *)
type timers = {
  mutable expand_s : float;
  mutable verify_s : float;
  mutable admit_s : float;
}

let new_timers () = { expand_s = 0.0; verify_s = 0.0; admit_s = 0.0 }

(* --- resumable enumeration state ---------------------------------------
   Everything [run] used to keep in closure-captured refs now lives in an
   explicit record, so a run can be paused after any pop and resumed later
   (Duoserve time-slices many sessions this way).  [run] is rebuilt as
   [init] + one unbounded [step]: the loop body is shared, so the stepped
   and the monolithic executions are the same code and their candidates,
   prune counts and accounting are bit-identical by construction. *)

type status =
  | Running
  | Finished

type state = {
  st_config : config;
  st_ctx : Model.ctx;
  mutable st_hints : hints;  (* retargeted by [rebase] *)
  mutable st_env : Verify.env;  (* retargeted by [rebase] *)
  st_stats : Verify.stats;
  st_frontier : Frontier.t;
  st_visited : Partial.Tbl.t;
      (* reached predicate-free states, by [Partial.key] partition,
         probed without printing keys *)
  st_joined : Partial.Tbl.t;
      (* expanded [P_joinpath] states, by [Partial.key] partition with
         FROM left out: the join decisions this run has made (see
         [repeats_join]) *)
  st_canon : Partial.Canon.t;
      (* admitted states with a WHERE or HAVING predicate, by
         [Partial.canonical_key] partition: the one dedup layer of such
         a state, collapsing states that differ only by predicate order
         or by equivalent predicate spellings, probed without printing
         keys *)
  st_emitted : (string, unit) Hashtbl.t;
      (* Duosem canonical keys of emitted candidates *)
  st_on_candidate : candidate -> unit;
  st_on_offer : Partial.t -> bool -> unit;
  mutable st_candidates : candidate list;  (* newest first *)
  mutable st_n_candidates : int;
  mutable st_pops : int;
  mutable st_pop_base : int;
      (* pops at the last (re)start: the pop budget is per refinement,
         while [st_pops] stays cumulative for reporting *)
  mutable st_rebases : int;
  mutable st_rebase_kept : int;
  mutable st_rebase_dropped : int;
  mutable st_exhausted : bool;
  mutable st_finished : bool;
  mutable st_elapsed_s : float;  (* active wall time across steps *)
  st_times : timers;
  st_clock : Clock.mark;
      (* the loop's last stamp, shared with the cascade: the stamp that
         closes one interval opens the next *)
}

(* The visited layer: test-and-insert on [Partial.key]'s partition. *)
let visit visited (stats : Verify.stats) child =
  let unseen = Partial.Tbl.add visited child in
  stats.Verify.key_renders <- stats.Verify.key_renders + Partial.Tbl.take_renders visited;
  if not unseen then stats.Verify.visited_hits <- stats.Verify.visited_hits + 1;
  unseen

let init config ctx db ?index ?relcache ~tsq ~literals
    ?(on_candidate = fun _ -> ()) ?(on_offer = fun _ _ -> ()) () =
  (* The lazy warning penalty is exact only for a factor of at most 1. *)
  if not (config.static_penalty >= 0.0 && config.static_penalty <= 1.0) then
    invalid_arg "Enumerate.init: static_penalty outside [0, 1]";
  let stats = Verify.new_stats () in
  let env =
    Verify.make_env ~stats ~semantics:config.semantic_rules
      ~static:config.static_rules ?index ?relcache ~db ~tsq ~literals ()
  in
  let hints = match tsq with Some s -> hints_of_tsq s | None -> no_hints in
  let visited = Partial.Tbl.create 2048 in
  let frontier =
    Frontier.create ~cap:config.max_frontier
      ~admit:(fun child ->
        let fresh = visit visited stats child in
        on_offer child fresh;
        fresh)
      ()
  in
  Frontier.push frontier Partial.root;
  {
    st_config = config;
    st_ctx = ctx;
    st_hints = hints;
    st_env = env;
    st_stats = stats;
    st_frontier = frontier;
    st_visited = visited;
    st_joined = Partial.Tbl.create ~from:false 256;
    st_canon = Partial.Canon.create 512;
    st_emitted = Hashtbl.create 64;
    st_on_candidate = on_candidate;
    st_on_offer = on_offer;
    st_candidates = [];
    st_n_candidates = 0;
    st_pops = 0;
    st_pop_base = 0;
    st_rebases = 0;
    st_rebase_kept = 0;
    st_rebase_dropped = 0;
    st_exhausted = false;
    st_finished = false;
    st_elapsed_s = 0.0;
    st_times = new_timers ();
    st_clock = { Clock.at = 0.0 };
  }

let finished s = s.st_finished

(* Admit a child built at its parent's expansion, one that carries a
   predicate, through its one dedup layer: the canonical one, which
   collapses states whose decided content is Duosem-canonically equal
   (predicate order, equivalent spellings).  Key-equal states are
   canonical-equal, so the visited layer would refuse nothing this one
   admits.  A predicate-free child meets only the visited layer, when
   it is reached (see [step]): its canonical key is its key with an
   empty literal segment spliced in, so it can collide only with a
   predicate-free state of the same key (a predicated state's literal
   segment is never empty). *)
let canonical_fresh s (child : Partial.t) =
  let stats = s.st_stats in
  stats.Verify.canon_checked <- stats.Verify.canon_checked + 1;
  let fresh = Partial.Canon.add s.st_canon child in
  stats.Verify.key_renders <- stats.Verify.key_renders + Partial.Canon.take_renders s.st_canon;
  if not fresh then stats.Verify.dedup_semantic <- stats.Verify.dedup_semantic + 1;
  s.st_on_offer child fresh;
  fresh

(* Queue the children [kids] of [g], built, that the canonical layer
   admits as one pre-admitted run, under [g]'s keys and best-first
   order restricted to them ([at.(i)]: kid [i]'s index in the run). *)
let push_admitted s (g : children) kids =
  let n = Array.length kids in
  let at = Array.make n (-1) and m = ref 0 in
  Array.iteri (fun i kid -> if canonical_fresh s kid then begin at.(i) <- !m; incr m end) kids;
  let g, kids =
    if !m = n then (g, kids)
    else
      let keep a = Array.of_list (List.filteri (fun i _ -> at.(i) >= 0) (Array.to_list a)) in
      let order o = Array.of_list (List.filter (( <= ) 0) (List.map (Array.get at) (Array.to_list o))) in
      let g = { g with conf = keep g.conf; jlen = keep g.jlen; order = Option.map order g.order } in
      (g, keep kids)
  in
  Frontier.push_run s.st_frontier ?order:g.order ~admitted:true ~conf:g.conf ~jlen:g.jlen
    (Array.get kids)

(* A popped state's verdict: whether to expand or emit it now, in one
   cascade pass that opens at the pop's stamp.  On its first pop a state
   meets the [static] stage, and a survivor that Duolint warns about
   [n > 0] times goes back once, settled ([settle]), under confidence x
   [static_penalty]^n and its own rank: warnings lower the priority,
   never inside [expand], so children's confidences still sum to the
   parent's (Property 1).  A queued key is never below the penalised
   one, so a state popped under its final key beats every queued state's
   final key: the pops are those of penalising at push.  The other
   stages run once the penalty is settled, when [prune_partial] holds or
   the state is complete. *)
let settle s n (p : Partial.t) =
  Frontier.settle s.st_frontier
    { p with
      Partial.confidence =
        p.Partial.confidence *. (s.st_config.static_penalty ** float_of_int n) }

(* [clock] and [on_warnings] come wrapped once per step, so the pass
   allocates nothing. *)
let judge s ~clock ~on_warnings (p : Partial.t) =
  let last =
    if s.st_config.prune_partial || Partial.is_complete p then Verify.S_complete
    else Verify.S_static
  in
  if Frontier.settled s.st_frontier then
    last = Verify.S_static || Verify.check_deferred ?clock s.st_env ~first:Verify.S_clauses ~last p
  else Verify.check_deferred ?clock ?on_warnings s.st_env ~first:Verify.S_static ~last p

(* Whether [p] is a join decision this run has already made, counted in
   [join_repeats]: a [P_joinpath] state equal but for its FROM to one
   expanded before.  Otherwise a [P_joinpath] state is recorded, as it
   is about to be expanded.  A join-path state references a table ([advance] enters
   the phase only then), so its forks come from [Joinpath.construct] on
   its referenced tables and counting, never from its FROM: the twin's
   children have the same keys and join lengths.  Pops never rise, so
   each twin child has a confidence no lower and an earlier sequence
   number, and is reached, or flushed, first: every child of [p] would
   be a visited hit (DESIGN.md, "Join decisions once per run"). *)
let repeats_join s (p : Partial.t) =
  match p.Partial.phase with
  | Partial.P_joinpath _ ->
      let fresh = Partial.Tbl.add s.st_joined p in
      let stats = s.st_stats in
      stats.Verify.key_renders <- stats.Verify.key_renders + Partial.Tbl.take_renders s.st_joined;
      if not fresh then stats.Verify.join_repeats <- stats.Verify.join_repeats + 1;
      not fresh
  | Partial.P_keywords | P_num_proj | P_proj_target _ | P_proj_agg _ | P_where_num
  | P_where_col _ | P_where_op _ | P_where_conn | P_group_col | P_having_presence
  | P_having_pred | P_order_target | P_order_dir | P_limit | P_done ->
      false

exception Slice_exhausted

(* [step ?max_pops s] advances the run by at most [max_pops] further
   counted pops (unbounded when omitted), stopping early when any budget
   of [s.st_config] finishes the run.  The time budget counts only active
   stepping time, so a paused session is not charged for the pause.

   One clock read per boundary: [s.st_clock] holds the last stamp, which
   opens the next interval.  The budget check and candidate timestamps
   read it instead of the clock, the cascade opens at the pop's stamp
   and leaves its closing stamp there, and the interval up to the next
   pop (a candidate's emission, the budget checks, reaching a run's
   head) is timed with that pop.  So the timers tile the step. *)
let step ?max_pops s =
  if s.st_finished then Finished
  else begin
    let config = s.st_config and clock = s.st_clock and times = s.st_times in
    let t0 = Clock.mono () in
    clock.Clock.at <- t0;
    let now () = s.st_elapsed_s +. (clock.Clock.at -. t0) in
    let on_warnings = Some (settle s) and clock_opt = Some clock in
    let pop_limit =
      match max_pops with
      | None -> max_int
      | Some k when k >= max_int - s.st_pops -> max_int
      | Some k -> s.st_pops + max 0 k
    in
    let over_time () = now () > config.time_budget_s in
    let emit pq q =
      (* Candidate dedup on Duosem canonical keys: a strict coarsening of
         the former [Duosql.Equal.queries] scan (which already treated
         FROM and WHERE as multisets), O(1) per emission instead of a
         list walk. *)
      let ckey = Duolint.Duosem.dedup_key q in
      if Hashtbl.mem s.st_emitted ckey then
        s.st_stats.Verify.dedup_semantic <-
          s.st_stats.Verify.dedup_semantic + 1
      else begin
        Hashtbl.replace s.st_emitted ckey ();
        let c =
          {
            cand_query = q;
            cand_confidence = pq.Partial.confidence;
            cand_index = s.st_n_candidates;
            cand_pops = s.st_pops;
            cand_time_s = now ();
          }
        in
        s.st_candidates <- c :: s.st_candidates;
        s.st_n_candidates <- s.st_n_candidates + 1;
        s.st_on_candidate c;
        if s.st_n_candidates >= config.max_candidates then
          raise Budget_exhausted
      end
    in
    (try
       while true do
         if s.st_pops >= pop_limit then raise Slice_exhausted;
         (* Reaching run heads, building and deduping each child there,
            is admission work: it is timed with the pop. *)
         let m_reach = clock.Clock.at in
         if Frontier.is_empty s.st_frontier then begin
           (* An empty frontier only proves exhaustion when compaction never
              discarded a state: dropped states stay in [st_visited] and can
              never re-enter, so their subtrees were not enumerated. *)
           s.st_exhausted <- Frontier.dropped s.st_frontier = 0;
           raise Budget_exhausted
         end;
         if s.st_pops - s.st_pop_base >= config.max_pops then
           raise Budget_exhausted;
         if over_time () then raise Budget_exhausted;
         match Frontier.pop s.st_frontier with
         | None -> raise Budget_exhausted
         | Some p ->
             (* Verify on pop: a pushed state has met no stage, and the
                cascade runs now, on a state the search reached.  A state
                that fails, or goes back under its warning penalty, costs
                no pop. *)
             let m0 = Clock.mono () in
             times.admit_s <- times.admit_s +. (m0 -. m_reach);
             clock.Clock.at <- m0;
             let ok = judge s ~clock:clock_opt ~on_warnings p in
             let m1 = clock.Clock.at in
             times.verify_s <- times.verify_s +. (m1 -. m0);
             if ok then begin
               s.st_pops <- s.st_pops + 1;
               if Partial.is_complete p then
                 (* Complete states are emitted when popped, so candidates
                    stream out in nonincreasing confidence order. *)
                 Option.iter (emit p) (Partial.to_query p)
               else if repeats_join s p then begin
                 (* Its children are its twin's, already queued. *)
                 let m2 = Clock.mono () in
                 times.expand_s <- times.expand_s +. (m2 -. m1);
                 clock.Clock.at <- m2
               end
               else begin
                 (* Predicate-free children wait in one run and are built
                    and deduped when the search reaches them; children
                    with a predicate are built and deduped now, and
                    those admitted wait in one pre-admitted run (see
                    DESIGN.md, "Lazy sibling runs"). *)
                 let g = generate ~guided:config.guided s.st_hints s.st_ctx p in
                 let eager = children_have_predicates p in
                 let children = if eager then Array.init (Array.length g.conf) g.build else [||] in
                 let m2 = Clock.mono () in
                 times.expand_s <- times.expand_s +. (m2 -. m1);
                 if eager then push_admitted s g children
                 else
                   Frontier.push_run s.st_frontier ?order:g.order ~conf:g.conf ~jlen:g.jlen
                     g.build;
                 let m3 = Clock.mono () in
                 times.admit_s <- times.admit_s +. (m3 -. m2);
                 clock.Clock.at <- m3
               end
             end
       done
     with
    | Budget_exhausted -> s.st_finished <- true
    | Slice_exhausted -> ());
    let t1 = Clock.mono () in
    times.admit_s <- times.admit_s +. (t1 -. clock.Clock.at);
    s.st_elapsed_s <- s.st_elapsed_s +. (t1 -. t0);
    if s.st_finished then Finished else Running
  end

(* [charge s seconds] pre-spends active time against the run's wall-clock
   budget, as if the run had already stepped for that long.  The session
   layer uses it to make the time budget cumulative across from-root
   refinement restarts: the replacement run starts with the old run's
   elapsed time already on the meter. *)
let charge s seconds = if seconds > 0.0 then s.st_elapsed_s <- s.st_elapsed_s +. seconds

(* Warm-restart the run under a tightened sketch (Tsq.Tightening — the
   caller classifies; rebasing on an Incomparable edit is unsound).

   Soundness rests on per-stage monotonicity: under a tightening, every
   cascade stage that failed a state under the old sketch also fails it
   under the new one, so states pruned before the refinement need no
   second look — only the survivors can change verdict, and only from
   pass to fail.  Frontier states have met no stage: they meet every
   stage when they are popped, against the retargeted environment, so
   the frontier needs no re-check.  The emitted candidates are
   re-checked through the complete-query stage ({!Verify.reverify_query}).

   Equivalence with a from-root run under the new sketch: a tightening
   also keeps the guidance header ([hints_of_tsq]) identical, so
   expansion proposes the same children with the same confidences, and
   the frontier keeps its order.  The re-filtered candidate list is
   therefore candidate-for-candidate the cold run's prefix (unit- and
   property-tested). *)
let rebase s ~tsq =
  let clock = s.st_clock in
  let m0 = Clock.mono () in
  clock.Clock.at <- m0;
  (* Retarget the environment and the guidance hints (visited-key dedup
     is unaffected: any state whose key is already recorded was either
     kept, or pruned — and a pruned state stays pruned under a
     tightening). *)
  let env = Verify.retarget s.st_env ~tsq in
  s.st_env <- env;
  s.st_hints <- hints_of_tsq tsq;
  (* Re-filter the emitted candidates ([st_candidates] is newest-first)
     and renumber the survivors in emission order. *)
  let kept_cands =
    List.filter (fun c -> Verify.reverify_query ~clock env c.cand_query) s.st_candidates
  in
  (* The re-checks share their stamps, the first opening at [m0]: the
     retarget is timed with it, and the verify timer takes exactly
     what the complete stage booked. *)
  let m1 = clock.Clock.at in
  s.st_times.verify_s <- s.st_times.verify_s +. (m1 -. m0);
  let n = List.length kept_cands in
  s.st_candidates <- List.mapi (fun i c -> { c with cand_index = n - 1 - i }) kept_cands;
  (* The emission-dedup table must mirror the surviving candidate list:
     a dropped candidate's canonical twin may satisfy the tightened
     sketch (satisfaction can read row order, which canonicalization
     abstracts) and deserves a fresh chance to emit. *)
  Hashtbl.reset s.st_emitted;
  List.iter
    (fun c ->
      Hashtbl.replace s.st_emitted (Duolint.Duosem.dedup_key c.cand_query) ())
    s.st_candidates;
  s.st_rebases <- s.st_rebases + 1;
  s.st_rebase_kept <- s.st_rebase_kept + n;
  s.st_rebase_dropped <- s.st_rebase_dropped + (s.st_n_candidates - n);
  s.st_n_candidates <- n;
  (* The pop budget is per refinement; the time budget stays cumulative
     (rebase work itself is on the meter).  If the carried candidates
     already fill the candidate budget, a cold run under the new sketch
     would stop right where they end, so the rebased run is done too. *)
  s.st_pop_base <- s.st_pops;
  s.st_finished <- s.st_n_candidates >= s.st_config.max_candidates;
  if not s.st_finished then s.st_exhausted <- false;
  let m2 = Clock.mono () in
  s.st_times.admit_s <- s.st_times.admit_s +. (m2 -. m1);
  s.st_elapsed_s <- s.st_elapsed_s +. (m2 -. m0)

(* The one place the outcome record is written.  The Duopar fields keep
   their sequential values: one domain, no speculation.  A fresh record
   and stats every call: outcomes carry a mutable [Verify.stats]. *)
let empty_outcome () =
  {
    out_candidates = [];
    out_pops = 0;
    out_pushed = 0;
    out_stats = Verify.new_stats ();
    out_elapsed_s = 0.0;
    out_expand_s = 0.0;
    out_verify_s = 0.0;
    out_admit_s = 0.0;
    out_exhausted = false;
    out_dropped = 0;
    out_domains = 1;
    out_spec_rounds = 0;
    out_spec_tasks = 0;
    out_spec_hits = 0;
    out_spec_round_size = 0;
    out_spec_grows = 0;
    out_spec_shrinks = 0;
    out_rebases = 0;
    out_rebase_kept = 0;
    out_rebase_dropped = 0;
  }

(* Snapshot the run's observable outcome.  The stats are a copy, so a
   later [step] never rewrites a snapshot already handed out. *)
let outcome s =
  let o = empty_outcome () in
  Verify.merge_stats ~into:o.out_stats s.st_stats;
  {
    o with
    out_candidates = List.rev s.st_candidates;
    out_pops = s.st_pops;
    out_pushed = Frontier.pushed s.st_frontier;
    out_elapsed_s = s.st_elapsed_s;
    out_expand_s = s.st_times.expand_s;
    out_verify_s = s.st_times.verify_s;
    out_admit_s = s.st_times.admit_s;
    out_exhausted = s.st_exhausted;
    out_dropped = Frontier.dropped s.st_frontier;
    out_rebases = s.st_rebases;
    out_rebase_kept = s.st_rebase_kept;
    out_rebase_dropped = s.st_rebase_dropped;
  }

let run config ctx db ?index ~tsq ~literals ?on_candidate () =
  let s = init config ctx db ?index ~tsq ~literals ?on_candidate () in
  ignore (step s);
  outcome s
