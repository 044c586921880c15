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
  spec_adaptive : bool;
      (* adaptive speculative round size (Duopar v2); [false] pins the
         v1 fixed [4 * domains] round for A/B baselines *)
  spec_schedule : (int -> int) option;
      (* test hook: force round [i]'s size (clamped to the controller's
         bounds) — determinism must hold under any schedule *)
  arena : bool;
      (* reusable task arenas: recycle round buffers and per-task stats
         records so a steady-state round allocates (near-)zero fresh
         heap; [false] keeps the v1 allocate-per-task profile *)
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
    spec_adaptive = true;
    spec_schedule = None;
    arena = true;
  }

(* Speculation only pays off when the extra domains map to real cores:
   on a single-core host the workers time-share with the committing loop
   and every round is pure overhead (the 0.34x "speedup" of the first
   Duopar bench).  The default path therefore clamps the domain count to
   the hardware; [overcommit] keeps the old behavior for tests that must
   exercise the parallel machinery regardless of the machine. *)
let effective_domains config =
  let requested = max 1 (min config.domains 64) in
  if config.overcommit then requested
  else min requested (max 1 (Domain.recommended_domain_count ()))

(* DUOQUEST_DOMAINS=<n> is the deployment-side knob (CLI, bench,
   simulation); unset, unparsable or out-of-range values fall back to
   sequential. *)
let domains_from_env () =
  match Sys.getenv_opt "DUOQUEST_DOMAINS" with
  | None -> 1
  | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some n when n >= 1 -> min n 64
      | Some _ | None -> 1)

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
  out_exhausted : bool;
  out_dropped : int;
  out_domains : int;
  out_domain_stats : Verify.stats array;
  out_spec_rounds : int;
  out_spec_tasks : int;
  out_spec_hits : int;
  out_spec_round_size : int;
  out_spec_ewma : float;
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

(* Candidate join paths for a state whose referenced tables may have grown
   (Section 3.3.4): keep the current path when it still covers, otherwise
   fork one state per candidate clause. *)
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
   loop. *)
let advance (t : Partial.t) phase prob =
  let t' = step t phase prob in
  let tables = Partial.referenced_tables t' in
  if tables = [] then t'
  else
    match t'.Partial.from with
    | Some f
      when Joinpath.covers f tables
           && ((not (is_counting t'))
              || List.length f.Duosql.Ast.f_tables > List.length tables) ->
        t'
    | Some _ | None -> { t' with Partial.phase = Partial.P_joinpath phase }

let uniform cands =
  match cands with
  | [] -> []
  | _ ->
      let p = 1.0 /. float_of_int (List.length cands) in
      List.map (fun (x, _) -> (x, p)) cands

(* Rescale a weighted choice list to total mass 1.  Expansions that drop
   some branches (no literal for a comparison shape, no range pair for
   BETWEEN) would otherwise leak the dropped branches' probability mass
   and break Property 1: children confidences must sum to the parent's. *)
let renormalize pairs =
  let total = List.fold_left (fun acc (_, p) -> acc +. p) 0.0 pairs in
  if total <= 0.0 then pairs
  else List.map (fun (x, p) -> (x, p /. total)) pairs

let replace_last lst x =
  match List.rev lst with
  | [] -> invalid_arg "replace_last: empty"
  | _ :: rest -> List.rev (x :: rest)

let expand ~guided hints ctx (t : Partial.t) =
  let maybe_uniform cands = if guided then cands else uniform cands in
  match t.Partial.phase with
  | Partial.P_done -> []
  | Partial.P_joinpath next ->
      let tables = Partial.referenced_tables t in
      if tables = [] then [ { t with Partial.phase = next } ]
      else
        let depth = if is_counting t then 2 else 1 in
        (* Join-path siblings keep the parent's confidence (Section 3.3.4);
           the frontier breaks ties toward shorter paths. *)
        List.map
          (fun f -> { t with Partial.from = Some f; phase = next })
          (Joinpath.construct ~depth (Model.schema ctx) ~tables)
  | Partial.P_keywords ->
      List.map
        (fun (kw, p) -> step { t with Partial.kw } Partial.P_num_proj p)
        (maybe_uniform (Model.keywords ctx))
  | Partial.P_num_proj ->
      List.map
        (fun (n, p) ->
          step { t with Partial.nproj = n } (Partial.P_proj_target 0) p)
        (maybe_uniform (Model.num_projections ctx ~hint:hints.h_nproj))
  | Partial.P_proj_target i ->
      let used = List.map (fun s -> s.Partial.pj_target) t.Partial.projs in
      List.concat_map
        (fun (target, p) ->
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
          [ advance t' phase p ])
        (maybe_uniform
           (Model.projection_targets ?out:(List.nth_opt hints.h_types i) ctx
              ~used))
  | Partial.P_proj_agg i -> (
      match List.rev t.Partial.projs with
      | { Partial.pj_target = Model.Target_column c; _ } :: _ ->
          List.map
            (fun (agg, p) ->
              let slot = { Partial.pj_target = Model.Target_column c; pj_agg = Some agg } in
              let t' = { t with Partial.projs = replace_last t.Partial.projs slot } in
              step t' (next_after_slot t' i) p)
            (maybe_uniform
               (Model.aggregates ?out:(List.nth_opt hints.h_types i) ctx
                  c.Duodb.Schema.col_type))
      | { Partial.pj_target = Model.Target_count_star; _ } :: _ | [] -> [])
  | Partial.P_where_num ->
      List.map
        (fun (n, p) ->
          step { t with Partial.where_n = n } (Partial.P_where_col 0) p)
        (maybe_uniform (Model.num_predicates ctx))
  | Partial.P_where_col i ->
      let used =
        List.filter_map
          (fun pr ->
            Option.bind pr.pr_col (fun c ->
                Duodb.Schema.find_column (Model.schema ctx) ~table:c.cr_table c.cr_col))
          t.Partial.where_preds
      in
      List.map
        (fun (c, p) ->
          advance { t with Partial.where_pending = Some c } (Partial.P_where_op i) p)
        (maybe_uniform (Model.where_columns ctx ~used))
  | Partial.P_where_op i -> (
      match t.Partial.where_pending with
      | None -> []
      | Some c ->
          let shapes = maybe_uniform (Model.operators ctx c.Duodb.Schema.col_type) in
          let rhss =
            List.concat_map
              (fun (shape, p_shape) ->
                match shape with
                | Model.Shape_cmp op ->
                    List.map
                      (fun (v, p_val) -> (Cmp (op, v), p_shape *. p_val))
                      (maybe_uniform (Model.values ctx c))
                | Model.Shape_between ->
                    let ranges = Model.value_ranges ctx in
                    let n = List.length ranges in
                    if n = 0 then []
                    else
                      List.map
                        (fun (lo, hi) ->
                          (Between (lo, hi), p_shape /. float_of_int n))
                        ranges)
              shapes
          in
          List.map
            (fun (rhs, p) ->
              let pred = { pr_agg = None; pr_col = Some (col_ref_of c); pr_rhs = rhs } in
              let t' =
                { t with
                  Partial.where_preds = t.Partial.where_preds @ [ pred ];
                  where_pending = None }
              in
              step t' (next_after_pred t' i) p)
            (renormalize rhss))
  | Partial.P_where_conn ->
      List.map
        (fun (conn, p) -> step { t with Partial.conn } (after_where t) p)
        (maybe_uniform (Model.connective ctx))
  | Partial.P_group_col ->
      let projected =
        List.filter_map
          (fun s ->
            match s.Partial.pj_agg with
            | Some None -> Partial.target_col s.Partial.pj_target
            | _ -> None)
          t.Partial.projs
      in
      List.map
        (fun (c, p) ->
          advance
            { t with Partial.group_col = Some (col_ref_of c) }
            Partial.P_having_presence p)
        (maybe_uniform (Model.group_columns ctx ~projected))
  | Partial.P_having_presence ->
      List.map
        (fun (present, p) ->
          if present then step t Partial.P_having_pred p
          else step t (after_group t) p)
        (maybe_uniform (Model.having_presence ctx))
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
              ops)
          targets
      in
      List.map
        (fun (pred, p) ->
          step { t with Partial.having_pred = Some pred } (after_group t) p)
        (renormalize preds)
  | Partial.P_order_target ->
      let projected =
        List.filter_map
          (fun s ->
            match s.Partial.pj_agg with
            | Some agg -> Some (agg, Partial.target_col s.Partial.pj_target)
            | None -> None)
          t.Partial.projs
      in
      List.map
        (fun ((agg, colopt), p) ->
          let item = (agg, Option.map col_ref_of colopt) in
          advance { t with Partial.order_item = Some item } Partial.P_order_dir p)
        (maybe_uniform (Model.order_targets ctx ~projected))
  | Partial.P_order_dir ->
      List.map
        (fun (dir, p) -> step { t with Partial.order_dir = dir } Partial.P_limit p)
        (maybe_uniform (Model.direction ctx))
  | Partial.P_limit ->
      List.map
        (fun (lim, p) -> step { t with Partial.limit = lim } Partial.P_done p)
        (maybe_uniform (Model.limit ctx ~hint:hints.h_limit))

exception Budget_exhausted

(* One verdict pass over an expansion's children.  Both the sequential
   loop and the Duopar speculative tasks go through this single function,
   so verdicts and per-stage prune counts are independent of [domains].
   With partial-query pruning the whole sibling set runs through
   {!Verify.verify_batch}, which shares one base scan across the
   children's uncached row probes; under NoPQ only complete children pay
   the cascade (partials get at most the free static stage). *)
let judge env config children =
  if config.prune_partial then Verify.verify_batch env children
  else
    List.map
      (fun (child : Partial.t) ->
        let ok =
          if Partial.is_complete child then Verify.verify env child
          else (not config.static_rules) || Verify.check_static env child
        in
        (child, ok))
      children

(* The result of speculatively processing one frontier state on some
   domain: the expanded children with their cascade verdicts, plus the
   private stats and profile times the task accumulated.  Expansion and
   verification are pure functions of the state (the database, model
   context and TSQ are immutable during a run; every cache only memoizes
   deterministic results), so a task's verdicts are independent of which
   domain ran it or when.  Stats are merged into the run's totals only
   when the state is actually popped by the sequential committing loop —
   speculation on states that are never popped leaves no trace, keeping
   prune counts identical to a [domains = 1] run. *)
type task_result = {
  (* mutable so the task arena can recycle one record per slot across
     rounds ([tr_stats] is zeroed with [Verify.reset_stats]) instead of
     allocating a record + stats + timing floats per task *)
  mutable tr_worker : int;
  mutable tr_children : (Partial.t * bool) list;
  tr_stats : Verify.stats;
  mutable tr_expand_s : float;
  mutable tr_verify_s : float;
}

let fresh_result () =
  {
    tr_worker = 0;
    tr_children = [];
    tr_stats = Verify.new_stats ();
    tr_expand_s = 0.0;
    tr_verify_s = 0.0;
  }

(* Reusable per-round scratch (Duopar v2 task arena).  All arrays are
   sized once to the controller's ceiling, so a steady-state round does
   no array allocation; [task_result] records circulate through
   round slot -> speculation memo -> (commit) -> free stack.  The
   aliasing contract: a record belongs to exactly one owner at a time —
   a round slot while its task runs, the memo entry afterwards, and the
   free stack once the committing loop has merged (or a rebase dropped)
   it — so recycling can never let two tasks write one stats record. *)
type arena = {
  ar_entries : (Partial.t * int) array;  (* [Frontier.pop_entries_into] buffer *)
  ar_tasks : Partial.t array;  (* states picked for this round *)
  ar_results : task_result array;  (* slot -> recycled result record *)
  ar_free : task_result array;  (* stack of recycled records *)
  mutable ar_n_free : int;
  mutable ar_fn : (worker:int -> int -> unit) option;
      (* the round body closure, built once on first use *)
}

let make_arena ~capacity =
  {
    ar_entries = Array.make capacity (Partial.root, -1);
    ar_tasks = Array.make capacity Partial.root;
    ar_results = Array.make capacity (fresh_result ());
    ar_free = Array.make (4 * capacity) (fresh_result ());
    ar_n_free = 0;
    ar_fn = None;
  }

(* The arena path memoizes speculative results by the *physical* state:
   the committing loop pops the very same [Partial.t] object the round
   staged (the frontier stores states, never copies them), so identity
   is an exact key and no [Partial.key] string is ever rendered on the
   speculation hot path.  States are immutable, so the bounded
   structural [Hashtbl.hash] of an object can never drift between the
   staging [replace] and the commit [find]. *)
module Phys_tbl = Hashtbl.Make (struct
  type t = Partial.t

  let equal = ( == )
  let hash = Hashtbl.hash
end)

(* Recycle a result record whose owner (memo entry) is done with it; a
   full stack simply drops the record to the GC — rare, harmless. *)
let arena_recycle ar r =
  if ar.ar_n_free < Array.length ar.ar_free then begin
    r.tr_children <- [];  (* do not pin children past commit *)
    ar.ar_free.(ar.ar_n_free) <- r;
    ar.ar_n_free <- ar.ar_n_free + 1
  end

let arena_take ar =
  if ar.ar_n_free > 0 then begin
    ar.ar_n_free <- ar.ar_n_free - 1;
    ar.ar_free.(ar.ar_n_free)
  end
  else fresh_result ()

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
  st_domains : int;
  st_envs : Verify.env array;  (* index 0 is the committing loop's env *)
  st_stats : Verify.stats;
  st_domain_stats : Verify.stats array;
  st_frontier : Frontier.t;
  st_visited : unit Partial.Tbl.t;
      (* admitted states, by [Partial.key] partition, probed without
         printing keys *)
  st_canon : (string, unit) Hashtbl.t;
      (* Duosem canonical keys of admitted states with a WHERE or HAVING
         predicate: a second visited-set layer collapsing states that
         differ only by predicate order or by equivalent predicate
         spellings ([Partial.canonical_key]) *)
  st_emitted : (string, unit) Hashtbl.t;
      (* Duosem canonical keys of emitted candidates *)
  st_pool : Duopar.Pool.t option;
  st_owns_pool : bool;
  st_controller : Duopar.Controller.t option;
      (* adaptive round-size controller; [None] pins the fixed
         [4 * domains] v1 round *)
  st_arena : arena option;  (* [None] = v1 allocate-per-task profile *)
  st_memo : task_result Partial.Tbl.t;
      (* v1 speculation memo, keyed by [Partial.key] partition *)
  st_memo_phys : task_result Phys_tbl.t;
      (* arena-path speculation memo, keyed by physical state *)
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
  mutable st_released : bool;
  mutable st_elapsed_s : float;  (* active wall time across steps *)
  mutable st_expand_s : float;
  mutable st_verify_s : float;
  mutable st_spec_rounds : int;
  mutable st_spec_tasks : int;
  mutable st_spec_hits : int;
}

let init config ctx db ?index ?relcache ?pool ~tsq ~literals
    ?(on_candidate = fun _ -> ()) ?(on_offer = fun _ _ -> ()) () =
  (* A caller-supplied pool fixes the domain count: the caller already
     decided how much parallelism this process runs with (one pool per
     server or bench process, shared across runs). *)
  let domains =
    match pool with
    | Some p -> Duopar.Pool.domains p
    | None -> effective_domains config
  in
  let stats = Verify.new_stats () in
  let index =
    (* Force the index on the caller's domain before any worker can race
       to build it: environments share one immutable index. *)
    if domains = 1 then index
    else Some (match index with Some i -> i | None -> Duodb.Index.build db)
  in
  let env =
    Verify.make_env ~stats ~semantics:config.semantic_rules
      ~static:config.static_rules ?index ?relcache ~db ~tsq ~literals ()
  in
  let envs =
    Array.init domains (fun d -> if d = 0 then env else Verify.fork_env env)
  in
  (* Committed per-domain work.  With [domains = 1] this aliases [stats],
     so the sequential path keeps its single-record accounting. *)
  let domain_stats =
    if domains = 1 then [| stats |]
    else Array.init domains (fun _ -> Verify.new_stats ())
  in
  let hints = match tsq with Some s -> hints_of_tsq s | None -> no_hints in
  let frontier = Frontier.create ~cap:config.max_frontier () in
  Frontier.push frontier Partial.root;
  let pool, owns_pool =
    if domains > 1 then
      match pool with
      | Some p -> (Some p, false)
      | None -> (Some (Duopar.Pool.create ~domains), true)
    else (None, false)
  in
  let controller =
    if domains > 1 && (config.spec_adaptive || config.spec_schedule <> None)
    then
      Some (Duopar.Controller.create ?schedule:config.spec_schedule ~domains ())
    else None
  in
  let arena =
    (* capacity = the controller ceiling (8 * domains), which also covers
       the fixed 4 * domains round, so fill never outgrows the arrays *)
    if domains > 1 && config.arena then Some (make_arena ~capacity:(8 * domains))
    else None
  in
  {
    st_config = config;
    st_ctx = ctx;
    st_hints = hints;
    st_domains = domains;
    st_envs = envs;
    st_stats = stats;
    st_domain_stats = domain_stats;
    st_frontier = frontier;
    st_visited = Partial.Tbl.create 4096;
    st_canon = Hashtbl.create 4096;
    st_emitted = Hashtbl.create 64;
    st_pool = pool;
    st_owns_pool = owns_pool;
    st_controller = controller;
    st_arena = arena;
    st_memo = Partial.Tbl.create 256;
    st_memo_phys = Phys_tbl.create 256;
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
    st_released = false;
    st_elapsed_s = 0.0;
    st_expand_s = 0.0;
    st_verify_s = 0.0;
    st_spec_rounds = 0;
    st_spec_tasks = 0;
    st_spec_hits = 0;
  }

let finished s = s.st_finished

let release s =
  if not s.st_released then begin
    s.st_released <- true;
    if s.st_owns_pool then Option.iter Duopar.Pool.shutdown s.st_pool
  end

(* Duolint warnings deprioritize at push time, never inside [expand]:
   expansion keeps children confidences summing to the parent's
   (Property 1); the frontier order is where suspicion belongs. *)
let deprioritize s (child : Partial.t) =
  if not s.st_config.static_rules then child
  else
    match Verify.static_warnings s.st_envs.(0) child with
    | 0 -> child
    | n ->
        {
          child with
          Partial.confidence =
            child.Partial.confidence
            *. (s.st_config.static_penalty ** float_of_int n);
        }

let push_fresh s (child : Partial.t) =
  let stats = s.st_stats in
  let seen = Partial.Tbl.find_or_add s.st_visited child () in
  stats.Verify.key_renders <-
    stats.Verify.key_renders + Partial.Tbl.take_renders s.st_visited;
  match seen with
  | Some () ->
      stats.Verify.visited_hits <- stats.Verify.visited_hits + 1;
      s.st_on_offer child false
  | None ->
      (* Second layer: collapse states whose decided content is Duosem-
         canonically equal (predicate order, equivalent spellings).  Runs
         only on the committing loop, so the collapse — like all dedup —
         is deterministic across domain counts.  A state without WHERE or
         HAVING predicates skips it: its canonical key is its key with an
         empty literal segment spliced in, so it can collide only with a
         predicate-free state of the same key (a predicated state's
         literal segment is never empty), which the visited layer has
         already caught. *)
      let fresh =
        (not (Partial.has_predicates child))
        || begin
             stats.Verify.canon_checked <- stats.Verify.canon_checked + 1;
             let ckey = Partial.canonical_key child in
             if Hashtbl.mem s.st_canon ckey then begin
               stats.Verify.dedup_semantic <- stats.Verify.dedup_semantic + 1;
               false
             end
             else begin
               Hashtbl.replace s.st_canon ckey ();
               true
             end
           end
      in
      s.st_on_offer child fresh;
      if fresh then Frontier.push s.st_frontier (deprioritize s child)

let process s worker (p : Partial.t) =
  let tstats = Verify.new_stats () in
  let env_t = Verify.with_stats s.st_envs.(worker) tstats in
  let t0 = Clock.mono () in
  let children = expand ~guided:s.st_config.guided s.st_hints s.st_ctx p in
  let t1 = Clock.mono () in
  let verdicts = judge env_t s.st_config children in
  let t2 = Clock.mono () in
  (* [sync_relcache] copies the worker cache's *cumulative* counters
     into the current record; merging those per task would multiply
     them.  Per-domain cache numbers are re-derived from the caches
     once, when the run finishes. *)
  tstats.Verify.relcache_hits <- 0;
  tstats.Verify.pushdown_builds <- 0;
  tstats.Verify.join_index_builds <- 0;
  tstats.Verify.join_index_hits <- 0;
  {
    tr_worker = worker;
    tr_children = verdicts;
    tr_stats = tstats;
    tr_expand_s = t1 -. t0;
    tr_verify_s = t2 -. t1;
  }

(* Arena variant of [process]: fill a recycled [task_result] in place.
   Instead of copying the worker's env per task ([with_stats]), the
   env's stats sink is retargeted in place — safe because each worker
   owns its forked env, and worker 0's sink is restored by [fill] before
   the committing loop runs again. *)
let process_into s worker (p : Partial.t) (r : task_result) =
  Verify.reset_stats r.tr_stats;
  let env_t = s.st_envs.(worker) in
  Verify.set_stats env_t r.tr_stats;
  let t0 = Clock.mono () in
  let children = expand ~guided:s.st_config.guided s.st_hints s.st_ctx p in
  let t1 = Clock.mono () in
  let verdicts = judge env_t s.st_config children in
  let t2 = Clock.mono () in
  (* zeroed for the same reason as in [process]: the relation-cache
     mirrors are cumulative and re-derived at outcome time *)
  r.tr_stats.Verify.relcache_hits <- 0;
  r.tr_stats.Verify.pushdown_builds <- 0;
  r.tr_stats.Verify.join_index_builds <- 0;
  r.tr_stats.Verify.join_index_hits <- 0;
  r.tr_worker <- worker;
  r.tr_children <- verdicts;
  r.tr_expand_s <- t1 -. t0;
  r.tr_verify_s <- t2 -. t1

(* One speculative pool round ahead of the committing loop: batch-pop the
   top of the frontier, process every un-memoized incomplete state on some
   domain, memoize (by physical state on the arena path, by [Partial.key]
   partition on the v1 path — [push_fresh] admits each key once, so
   either way a memo entry belongs to exactly one live state), restore. *)
let arena_round_fn s ar =
  match ar.ar_fn with
  | Some f -> f
  | None ->
      let f ~worker i = process_into s worker ar.ar_tasks.(i) ar.ar_results.(i) in
      ar.ar_fn <- Some f;
      f

let fill s pool (p : Partial.t) =
  (* Round size: the adaptive controller closes the books on the last
     round (cumulative [st_spec_hits] gives it the commit delta) and
     picks the next size; without a controller the v1 fixed round
     stands.  A floor-sized round carries only [p], and [Pool.run _ 1]
     runs inline — the sequential degeneration really is sequential. *)
  let spec_batch =
    match s.st_controller with
    | Some c ->
        let b = Duopar.Controller.begin_round c ~hits:s.st_spec_hits in
        (* Budget awareness is part of the controller law: [p] already
           consumed a pop, so at most [remaining] further states can be
           popped this refinement — staging past that is guaranteed
           waste (the fixed v1 round does exactly that on every run's
           last round). *)
        let remaining =
          s.st_config.max_pops - (s.st_pops - s.st_pop_base)
        in
        max 1 (min b (remaining + 1))
    | None -> s.st_domains * 4
  in
  s.st_spec_rounds <- s.st_spec_rounds + 1;
  match s.st_arena with
  | Some ar ->
      (* Zero-allocation path: pop into the arena buffer, stage tasks
         and recycled result records in the arena arrays, run, move the
         records into the memo, restore.  [spec_batch] never exceeds the
         arrays' capacity (controller ceiling). *)
      let n_extra =
        Frontier.pop_entries_into s.st_frontier ar.ar_entries (spec_batch - 1)
      in
      ar.ar_tasks.(0) <- p;
      let n_tasks = ref 1 in
      for i = 0 to n_extra - 1 do
        let st, _ = ar.ar_entries.(i) in
        if
          (not (Partial.is_complete st))
          && not (Phys_tbl.mem s.st_memo_phys st)
        then begin
          ar.ar_tasks.(!n_tasks) <- st;
          incr n_tasks
        end
      done;
      let n = !n_tasks in
      for i = 0 to n - 1 do
        ar.ar_results.(i) <- arena_take ar
      done;
      s.st_spec_tasks <- s.st_spec_tasks + n;
      Option.iter
        (fun c -> Duopar.Controller.launched c ~tasks:n)
        s.st_controller;
      Duopar.Pool.run pool n (arena_round_fn s ar);
      (* [process_into] retargeted worker 0's (the caller's) stats sink;
         point it back at the run record before the committing loop's
         own verifications ([deprioritize]) resume. *)
      Verify.set_stats s.st_envs.(0) s.st_stats;
      for i = 0 to n - 1 do
        Phys_tbl.replace s.st_memo_phys ar.ar_tasks.(i) ar.ar_results.(i);
        ar.ar_tasks.(i) <- Partial.root
      done;
      Frontier.restore_array s.st_frontier ar.ar_entries n_extra
  | None ->
      let extras = Frontier.pop_entries s.st_frontier (spec_batch - 1) in
      let tasks =
        Array.of_list
          (p
          :: List.filter_map
               (fun ((st : Partial.t), _) ->
                 if
                   Partial.is_complete st
                   || Option.is_some (Partial.Tbl.find_opt s.st_memo st)
                 then None
                 else Some st)
               extras)
      in
      s.st_spec_tasks <- s.st_spec_tasks + Array.length tasks;
      Option.iter
        (fun c -> Duopar.Controller.launched c ~tasks:(Array.length tasks))
        s.st_controller;
      let results = Array.make (Array.length tasks) None in
      Duopar.Pool.run pool (Array.length tasks) (fun ~worker i ->
          results.(i) <- Some (process s worker tasks.(i)));
      Array.iteri
        (fun i st ->
          match results.(i) with
          | Some r -> ignore (Partial.Tbl.find_or_add s.st_memo st r)
          | None -> ())
        tasks;
      Frontier.restore s.st_frontier extras

exception Slice_exhausted

(* [step ?max_pops s] advances the run by at most [max_pops] further
   frontier pops (unbounded when omitted), stopping early when any budget
   of [s.st_config] finishes the run.  The time budget counts only active
   stepping time, so a paused session is not charged for the pause. *)
let step ?max_pops s =
  if s.st_finished then Finished
  else begin
    let config = s.st_config in
    let t0 = Clock.now () in
    let now () = s.st_elapsed_s +. (Clock.now () -. t0) in
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
    let timed acc f =
      let m0 = Clock.mono () in
      let r = f () in
      acc (Clock.mono () -. m0);
      r
    in
    (* The sequential best-first loop stays the single committing loop: it
       alone pops, emits, merges stats and pushes children, so candidate
       order, dedup and prune accounting are decided exactly as with
       [domains = 1]; worker domains merely precompute results for states
       it is about to pop (see [fill]). *)
    (try
       while true do
         if s.st_pops >= pop_limit then raise Slice_exhausted;
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
         | Some p when Partial.is_complete p -> (
             (* Complete states are emitted when popped, so candidates
                stream out in nonincreasing confidence order. *)
             s.st_pops <- s.st_pops + 1;
             match Partial.to_query p with
             | Some q -> emit p q
             | None -> ())
         | Some p -> (
             s.st_pops <- s.st_pops + 1;
             match s.st_pool with
             | None ->
                 let children =
                   timed
                     (fun d -> s.st_expand_s <- s.st_expand_s +. d)
                     (fun () ->
                       expand ~guided:config.guided s.st_hints s.st_ctx p)
                 in
                 (* verification can dominate a pop; respect the budget *)
                 if over_time () then raise Budget_exhausted;
                 let verdicts =
                   timed
                     (fun d -> s.st_verify_s <- s.st_verify_s +. d)
                     (fun () -> judge s.st_envs.(0) config children)
                 in
                 List.iter
                   (fun ((child : Partial.t), ok) ->
                     if over_time () then raise Budget_exhausted;
                     if ok then push_fresh s child)
                   verdicts
             | Some pool ->
                 let r =
                   match s.st_arena with
                   | Some _ -> (
                       (* Identity lookup: [p] is the object the round
                          staged, so no key string is rendered here. *)
                       match Phys_tbl.find_opt s.st_memo_phys p with
                       | Some r ->
                           Phys_tbl.remove s.st_memo_phys p;
                           r
                       | None ->
                           (* [p] is always the first task of the fill. *)
                           fill s pool p;
                           let r = Phys_tbl.find s.st_memo_phys p in
                           Phys_tbl.remove s.st_memo_phys p;
                           r)
                   | None ->
                       let r =
                         match Partial.Tbl.find_opt s.st_memo p with
                         | Some r -> r
                         | None -> (
                             fill s pool p;
                             match Partial.Tbl.find_opt s.st_memo p with
                             | Some r -> r
                             | None -> assert false (* [p] is a task *))
                       in
                       Partial.Tbl.remove s.st_memo p;
                       r
                 in
                 s.st_spec_hits <- s.st_spec_hits + 1;
                 Verify.merge_stats
                   ~into:s.st_domain_stats.(r.tr_worker)
                   r.tr_stats;
                 s.st_expand_s <- s.st_expand_s +. r.tr_expand_s;
                 s.st_verify_s <- s.st_verify_s +. r.tr_verify_s;
                 List.iter
                   (fun ((child : Partial.t), ok) ->
                     if over_time () then raise Budget_exhausted;
                     if ok then push_fresh s child)
                   r.tr_children;
                 (* committed: the record's memo ownership ends here *)
                 Option.iter (fun ar -> arena_recycle ar r) s.st_arena)
       done
     with
    | Budget_exhausted -> s.st_finished <- true
    | Slice_exhausted -> ());
    s.st_elapsed_s <- now ();
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
   second look — only the *survivors* (the frontier, and the emitted
   candidates) can change verdict, and only from pass to fail.  Each
   survivor is re-checked with {!Verify.reverify}, which re-runs just the
   sketch-reading stages (clauses / column / row / complete) and carries
   the TSQ-independent verdicts (static, semantics) and the
   type-annotation stage (a tightening keeps [types] equal).

   Equivalence with a from-root run under the new sketch: a tightening
   also keeps the guidance header ([hints_of_tsq]) identical, so
   expansion proposes the same children with the same confidences;
   [Frontier.pop_entries]/[restore] preserve insertion sequence numbers,
   so the surviving frontier keeps the exact relative order the cold
   run's frontier would impose on those states.  The re-filtered
   candidate list is therefore candidate-for-candidate the cold run's
   prefix (unit- and property-tested). *)
let rebase s ~tsq =
  let t0 = Clock.now () in
  let m0 = Clock.mono () in
  (* Retarget every domain's environment and the guidance hints; the
     speculation memo holds verdicts computed under the old sketch and
     must be dropped (visited-key dedup is unaffected: any state whose
     key is already recorded was either kept, or pruned — and a pruned
     state stays pruned under a tightening). *)
  Array.iteri (fun d env -> s.st_envs.(d) <- Verify.retarget env ~tsq) s.st_envs;
  s.st_hints <- hints_of_tsq tsq;
  (* the dropped memo records go back to the arena, not the GC (with an
     arena, [st_memo] is never filled) *)
  Option.iter
    (fun ar -> Phys_tbl.iter (fun _ r -> arena_recycle ar r) s.st_memo_phys)
    s.st_arena;
  Partial.Tbl.reset s.st_memo;
  Phys_tbl.reset s.st_memo_phys;
  let env = s.st_envs.(0) in
  (* Re-verify the frontier survivors.  Under NoPQ partial states were
     never verified against the sketch, so only complete states are
     re-checked there. *)
  let entries =
    Frontier.pop_entries s.st_frontier (Frontier.size s.st_frontier)
  in
  let kept, dropped =
    List.partition
      (fun ((p : Partial.t), _) ->
        if s.st_config.prune_partial || Partial.is_complete p then
          Verify.reverify env p
        else true)
      entries
  in
  Frontier.restore s.st_frontier kept;
  (* Re-filter the emitted candidates ([st_candidates] is newest-first)
     and renumber the survivors in emission order. *)
  let kept_cands =
    List.filter (fun c -> Verify.reverify_query env c.cand_query) s.st_candidates
  in
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
  let dropped_cands = s.st_n_candidates - n in
  s.st_n_candidates <- n;
  s.st_rebases <- s.st_rebases + 1;
  s.st_rebase_kept <- s.st_rebase_kept + List.length kept + n;
  s.st_rebase_dropped <- s.st_rebase_dropped + List.length dropped + dropped_cands;
  (* The pop budget is per refinement; the time budget stays cumulative
     (rebase work itself is on the meter).  If the carried candidates
     already fill the candidate budget, a cold run under the new sketch
     would stop right where they end, so the rebased run is done too. *)
  s.st_pop_base <- s.st_pops;
  s.st_finished <- s.st_n_candidates >= s.st_config.max_candidates;
  if not s.st_finished then s.st_exhausted <- false;
  s.st_verify_s <- s.st_verify_s +. (Clock.mono () -. m0);
  s.st_elapsed_s <- s.st_elapsed_s +. (Clock.now () -. t0)

(* Snapshot the run's observable outcome.  Pure with respect to results:
   recomputing the per-domain relation-cache counters just overwrites them
   with the caches' current cumulative numbers, so calling this mid-run
   (Duoserve's [get_candidates]) and again at the end is safe. *)
let outcome s =
  let out_stats =
    if s.st_domains = 1 then s.st_stats
    else begin
      (* Per-domain relation-cache numbers come from the caches
         themselves; task records were zeroed (see [process]). *)
      Array.iteri
        (fun d ds ->
          let cache = Verify.relcache s.st_envs.(d) in
          let hits, _misses, pushd = Duoengine.Executor.cache_stats cache in
          let ji_builds, ji_hits = Duoengine.Executor.join_index_stats cache in
          ds.Verify.relcache_hits <- hits;
          ds.Verify.pushdown_builds <- pushd;
          ds.Verify.join_index_builds <- ji_builds;
          ds.Verify.join_index_hits <- ji_hits)
        s.st_domain_stats;
      let total = Verify.new_stats () in
      (* [st_stats] holds only push-time deprioritization warnings in
         parallel mode (verification runs through task records). *)
      Verify.merge_stats ~into:total s.st_stats;
      Array.iter (fun ds -> Verify.merge_stats ~into:total ds) s.st_domain_stats;
      total
    end
  in
  {
    out_candidates = List.rev s.st_candidates;
    out_pops = s.st_pops;
    out_pushed = Frontier.pushed s.st_frontier;
    out_stats;
    out_elapsed_s = s.st_elapsed_s;
    out_expand_s = s.st_expand_s;
    out_verify_s = s.st_verify_s;
    out_exhausted = s.st_exhausted;
    out_dropped = Frontier.dropped s.st_frontier;
    out_domains = s.st_domains;
    out_domain_stats = s.st_domain_stats;
    out_spec_rounds = s.st_spec_rounds;
    out_spec_tasks = s.st_spec_tasks;
    out_spec_hits = s.st_spec_hits;
    out_spec_round_size =
      (match s.st_controller with
      | Some c -> Duopar.Controller.size c
      | None -> if s.st_pool = None then 0 else s.st_domains * 4);
    out_spec_ewma =
      (match s.st_controller with
      | Some c -> Duopar.Controller.ewma c
      | None -> 1.0);
    out_spec_grows =
      (match s.st_controller with
      | Some c -> Duopar.Controller.grows c
      | None -> 0);
    out_spec_shrinks =
      (match s.st_controller with
      | Some c -> Duopar.Controller.shrinks c
      | None -> 0);
    out_rebases = s.st_rebases;
    out_rebase_kept = s.st_rebase_kept;
    out_rebase_dropped = s.st_rebase_dropped;
  }

let run config ctx db ?index ?relcache ?pool ~tsq ~literals ?on_candidate () =
  let s = init config ctx db ?index ?relcache ?pool ~tsq ~literals ?on_candidate () in
  Fun.protect
    ~finally:(fun () -> release s)
    (fun () ->
      ignore (step s);
      outcome s)
