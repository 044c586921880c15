(** Guided partial query enumeration (Algorithm 1).

    Maintains a best-first frontier of partial-query states, repeatedly pops
    the highest-confidence state, verifies it against the TSQ
    (Algorithm 3), expands a survivor by one inference decision
    ([EnumNextStep], Section 3.3.2) or emits it when it is complete.
    A child is pushed unchecked; the cascade, [static] included, runs
    when it is popped ({!Verify.check_deferred}), so no check is paid
    for a state the search never reaches.  A state warned about by
    Duolint goes back once, at its first pop, under its penalised
    confidence, which pops what penalising at push would.  A state that
    fails at pop, or goes back, costs no pop.

    The two GPQE ingredients can be disabled independently for the paper's
    ablations (Section 5.4.3): [guided = false] replaces every module
    distribution with a uniform one (NoGuide — breadth-first-like
    enumeration, literals still used); [prune_partial = false] verifies
    complete queries only (NoPQ — the naive chaining approach of
    Section 3.5). *)

type config = {
  guided : bool;
  prune_partial : bool;
  max_pops : int;  (** enumeration budget: states popped from the frontier *)
  max_candidates : int;  (** stop after emitting this many candidates *)
  time_budget_s : float;  (** wall-clock budget (see {!Clock}) *)
  temperature : float;  (** guidance temperature (Section: Duoguide) *)
  semantic_rules : bool;
      (** the [semantics] stage: Table 4's duplicate-predicate and
          constant-output rules, which Duolint only warns about (ablation
          switch) *)
  static_rules : bool;
      (** Duolint stage 0: prune statically dead states and deprioritize
          warned ones.  Its errors carry the rest of Table 4 (aggregate
          and comparison types, the grouping rules, contradictory
          predicates), so [false] switches those off too (ablation
          switch) *)
  static_penalty : float;
      (** confidence multiplier per Duolint warning, in \[0, 1\] ({!init}
          rejects others); never applied inside [expand]: Property 1 is
          about expansion *)
  max_frontier : int;
      (** frontier memory guard: compact to the best half beyond this many
          queued states *)
  domains : int;
      (** sharding width for callers that run whole syntheses side by
          side (the bench and simulation harnesses, via
          {!effective_domains}); clamped to [1, 64].  A run itself is
          always the one sequential committing loop, so this field never
          changes a run's candidates, counters or speed. *)
  overcommit : bool;
      (** When [false] (the default), {!effective_domains} further clamps
          [domains] to [Domain.recommended_domain_count ()]; [true] keeps
          it as requested regardless of the hardware. *)
}

(** Duoquest defaults: guided, pruning, 200k pops, 100 candidates, 60 s,
    1 domain, no overcommit. *)
val default_config : config

(** The sharding width this config asks for on this machine ([domains]
    clamped to [1, 64] and, without [overcommit], to the available
    cores).  Callers that shard runs over one {!Duopar.Pool.t} size it
    with this. *)
val effective_domains : config -> int

type candidate = {
  cand_query : Duosql.Ast.query;
  cand_confidence : float;
  cand_index : int;  (** 0-based emission rank *)
  cand_pops : int;  (** frontier pops before this emission *)
  cand_time_s : float;
      (** active wall-clock seconds from run start to emission, read off
          the stamp that closed the candidate's cascade pass *)
}

type outcome = {
  out_candidates : candidate list;  (** in emission order *)
  out_pops : int;  (** pops that passed verification *)
  out_pushed : int;
      (** states admitted to the frontier: the root, and the children
          that passed dedup (a child with a predicate at its parent's
          expansion, a predicate-free one when the search reaches it;
          a child never reached is not counted) *)
  out_stats : Verify.stats;
  out_elapsed_s : float;
      (** active wall-clock seconds for the whole run: its steps and
          rebases, plus any time {!charge}d to it *)
  out_expand_s : float;
      (** time spent in EnumNextStep: generating each expansion's
          children, and building those with a predicate *)
  out_verify_s : float;
      (** time spent in the verification cascade at pop, the warning
          count and a warned state's re-queue included, and in a
          rebase's candidate re-checks; equal to the sum of
          [out_stats.stage_seconds] up to float rounding *)
  out_admit_s : float;
      (** time spent admitting children: the canonical dedup of
          children with a predicate and the run push at expansion, and
          the frontier pop with
          the build and dedup of each predicate-free child the search
          reaches, with the budget checks and any candidate emission
          before it.  The three timers tile the run: the loop and the
          cascade share one clock stamp per boundary, so [out_expand_s
          +. out_verify_s +. out_admit_s] is [out_elapsed_s] up to float
          rounding, less any {!charge}d time *)
  out_exhausted : bool;
      (** the frontier emptied within budget {e and} compaction never
          dropped a state — i.e. the reachable space was fully enumerated *)
  out_dropped : int;
      (** states discarded by frontier compaction; when positive, an empty
          frontier does not mean exhaustion *)
  out_domains : int;  (** always 1: a run uses one domain *)
  out_spec_rounds : int;  (** always 0 (no intra-run speculation) *)
  out_spec_tasks : int;  (** always 0 *)
  out_spec_hits : int;  (** always 0 *)
  out_spec_round_size : int;  (** always 0 *)
  out_spec_grows : int;  (** always 0 *)
  out_spec_shrinks : int;  (** always 0 *)
  out_rebases : int;  (** warm restarts taken via {!rebase} *)
  out_rebase_kept : int;
      (** emitted candidates that survived re-verification across all
          rebases *)
  out_rebase_dropped : int;
      (** emitted candidates pruned by re-verification across all
          rebases *)
}

(** TSQ-derived enumeration hints.  The limit hint only re-ranks module
    outputs, but the sketch's {e header} — projection width and per-slot
    output types — is definitional: no candidate disagreeing with it can
    ever satisfy the TSQ, so the enumerator declines to propose such
    children rather than paying the cascade to kill them. *)
type hints = {
  h_nproj : int option;
  h_limit : int option;
  h_types : Duodb.Datatype.t list;
      (** per-slot output type annotations; [] when the sketch carries
          none *)
}

val no_hints : hints
val hints_of_tsq : Tsq.t -> hints

(** One [EnumNextStep]: all children of a state, built, confidences
    updated.  The run builds a predicate-free child only when the search
    reaches it, from the same generator.  Exposed for tests
    (completeness and Property-1 checks) and reference loops; unlike
    the run, it expands a repeated join decision too. *)
val expand :
  guided:bool -> hints -> Duoguide.Model.ctx -> Partial.t -> Partial.t list

(** {2 Resumable enumeration}

    A {!state} is a paused run: the frontier, dedup tables, the join
    decisions it has expanded, the verification environment and all
    accounting.  {!init}
    builds it, {!step} advances it by a bounded number of frontier pops,
    and {!outcome} snapshots the observable results at any point.
    {!run} is exactly [init] + one unbounded [step] + [outcome], so a run
    paused after any pop and resumed later commits the same pops in the
    same order — candidates, prune counts and accounting are
    bit-identical to the uninterrupted run (property-tested under
    [@fuzz]).  Duoserve time-slices many concurrent sessions over this
    interface. *)

type state

type status =
  | Running  (** the slice ended with budget and frontier remaining *)
  | Finished  (** a budget hit or the frontier drained; the run is over *)

(** [init config ctx db ~tsq ~literals ()] builds a paused run with the
    root state on the frontier.  [tsq = None] is the pure-NLI setting.
    [on_candidate] fires at each emission (the paper's streaming UI).
    [on_offer child admitted] fires when dedup decides whether to admit
    a child to the frontier: for a child with a WHERE or HAVING
    predicate when its parent is expanded, for a predicate-free child
    when the search reaches it (observability: which states were
    enumerated, and in what order).  A child the search never reaches
    is never offered, and neither is a child of a repeated join
    decision: a [P_joinpath] state equal but for its FROM to one the
    run already expanded generates none (each would be refused as a
    visited hit, so [out_pushed] is unchanged; counted in
    [Verify.join_repeats]).  [init] raises
    [Invalid_argument] when [static_penalty] lies outside \[0, 1\].
    [index] and [relcache] thread a session's inverted index and its
    relation cache for the calling domain into the verification
    environment (see {!Verify.make_env}); without [relcache] the run
    gets a fresh cache. *)
val init :
  config ->
  Duoguide.Model.ctx ->
  Duodb.Database.t ->
  ?index:Duodb.Index.t ->
  ?relcache:Duoengine.Executor.relation_cache ->
  tsq:Tsq.t option ->
  literals:Duodb.Value.t list ->
  ?on_candidate:(candidate -> unit) ->
  ?on_offer:(Partial.t -> bool -> unit) ->
  unit ->
  state

(** [step ?max_pops s] advances the run by at most [max_pops] further
    pops (unbounded when omitted); a state discarded or put back at pop
    does not count, here or against [max_pops] in the config.  Budgets come from the
    config given to {!init}; the wall-clock budget counts only active
    stepping time, so a paused session is not charged for its pause; it
    is checked before each pop, at the loop's last clock stamp.
    Stepping a [Finished] state is a no-op. *)
val step : ?max_pops:int -> state -> status

val finished : state -> bool

(** Snapshot the run's observable outcome; callable mid-run (a streaming
    UI polling candidates) and after the final step — final results are
    whatever the last call returns once {!finished} holds.  The stats
    record is a copy, so a later {!step} never changes a snapshot
    already taken. *)
val outcome : state -> outcome

(** The outcome of a run that never stepped: no candidates, every
    counter zero.  A fresh record and stats every call, so one caller's
    mutation never reaches another's. *)
val empty_outcome : unit -> outcome

(** {2 Incremental re-synthesis}

    [rebase s ~tsq] warm-restarts a paused (or finished) run under a
    {e tightened} sketch instead of re-enumerating from the root: the
    caller must have classified the edit as [Tsq.Tightening] (rebasing
    on an [Incomparable] edit is unsound — restart from the root
    instead).  Every cascade stage is monotone under a tightening, so
    states pruned before the refinement stay pruned.  Frontier states
    have met no stage and meet every one under [tsq] when popped; only
    the emitted candidates are re-checked ({!Verify.reverify_query}).  The frontier keeps its
    order and the guidance hints are unchanged by construction of
    [Tsq.refines], so subsequent {!step}s emit exactly what a from-root
    run under [tsq] would emit (candidate-for-candidate;
    property-tested).

    Budgets after a rebase: the pop budget starts fresh (per
    refinement), the wall-clock budget stays cumulative — rebase work
    itself is charged to it.  Rebase counts are reported in
    [out_rebases] / [out_rebase_kept] / [out_rebase_dropped]. *)
val rebase : state -> tsq:Tsq.t -> unit

(** [charge s seconds] pre-spends active time against the run's
    wall-clock budget.  The session layer charges a replacement run with
    the previous run's elapsed time on a from-root refinement restart,
    so a client cannot extend its time budget by refining. *)
val charge : state -> float -> unit

(** Run the enumeration to completion: [init] + one unbounded [step] +
    [outcome].  Arguments as {!init}; the run verifies against a fresh
    relation cache. *)
val run :
  config ->
  Duoguide.Model.ctx ->
  Duodb.Database.t ->
  ?index:Duodb.Index.t ->
  tsq:Tsq.t option ->
  literals:Duodb.Value.t list ->
  ?on_candidate:(candidate -> unit) ->
  unit ->
  outcome
