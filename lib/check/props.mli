(** The Duocheck fuzz properties, as QCheck tests.

    - {b differential}: planned execution agrees with the naive
      {!Reference} interpreter on every generated query (both error out
      on out-of-scope inputs);
    - {b round-trip}: [parse (pretty q) = q] under {!Duosql.Equal.queries};
    - {b columnar}: Duodb's columnar views (cells, column vectors, zone
      maps) and the engine's probe kernels agree with the materialized
      row view and a scalar reference scan;
    - {b streamed matching}: the early-stopping {!Duocore.Tsq.matcher},
      fed by {!Duoengine.Executor.stream} through a shared relation
      cache, gives
      {!Duocore.Tsq.distinct_match_on}'s verdict on the materialized rows
      for random positions, support thresholds and tuples (duplicates,
      [Any]/[Range]/NULL cells, cell indices past the width); the
      streamed {!Duocore.Tsq.satisfies} equals
      {!Duocore.Tsq.satisfies_result} on the engine's and the
      {!Reference} interpreter's results;
    - {b cached joins}: a query run twice through one shared relation
      cache (so over its cached join-key indexes) returns exactly the
      uncached result — errors, a tight
      [max_rows] overflow included — which agrees with the reference;
    - {b cascade soundness}: no Verify stage prunes a partial query that
      has a completion satisfying the TSQ ({!Soundness.check});
    - {b Property 1}: every expansion's children partition the parent's
      confidence mass (join-path forks exempt by design);
    - {b resume determinism}: a run time-sliced via {!Duocore.Enumerate.step}
      and resumed is observably identical to the uninterrupted run — the
      contract Duoserve's session scheduler rests on;
    - {b refinement monotonicity}: any {!Duocore.Tsq.refines} tightening
      only grows the cascade's prune set — no state pruned under the old
      sketch is revived by the new one (the contract behind
      {!Duocore.Enumerate.rebase} keeping the visited set);
    - {b incremental refine}: enumerating under a loosened sketch, then
      rebasing onto the original mid-run, emits the same candidates as a
      from-root run under the original;
    - {b render-free dedup}: {!Duocore.Partial.key_hash} is consistent
      with {!Duocore.Partial.key} on derivation samples and on twins that
      print alike (literal [Int n] vs [Float n.], direction without an
      ORDER item, reordered FROM lists); a state without predicates never
      collides canonically with one that has them; and the hashed
      enumerator admits exactly the states the string-keyed two-layer
      dedup admits, offer by offer, in NLI, dual and warm-rebase runs;
    - {b lazy runs}: the enumerator, which builds and dedups a
      predicate-free child only when the search reaches it, agrees with
      a reference loop that builds and admits every child at its
      parent's expansion ({!lazy_eager_diff}) in NLI, dual, warm-rebase
      and frontier-capped runs;
    - {b guidance memo}: each distribution {!Duoguide.Model} stores per
      context equals a fresh context's first call, bit for bit, and an
      equal key returns the stored entry ({!guidance_memo_prop});
    - {b verify on pop}: the cascade, [static] included, gives one
      verdict on each {!Duocore.Partial.key} partition and each
      {!Duocore.Partial.canonical_key} partition (permuted WHERE
      predicates, literals swapped between bounds), so a state that
      fails it at pop may keep its visited and canonical slot;
    - {b one judge per rule}: every complete state that the [static]
      and [semantics] stages accept passes {!Duocore.Semantics.check_query}
      and has no Duolint error on [Outline.of_query] of its query, so the
      complete stage need not re-check either;
    - {b Duosem equivalence}: {!Duolint.Duosem.canonical_query} keeps the
      error status and the result multiset of every generated query on
      its database, and canonicalization is idempotent;
    - {b Duosem cardinality}: {!Duolint.Duosem.bound_query}'s interval
      contains the true row count of every query that executes;
    - {b Domain lattice laws}: {!Duolint.Domain} meet is exact
      intersection and join over-approximates union (checked against
      concrete membership), [leq] is a partial order consistent with
      inclusion, and widening covers its operand and stabilizes along
      randomized ascending chains. *)

(** Individual properties, exposed for ad-hoc harnesses. *)

(** Exact resultset equality: columns, row count, row order and cells
    (by [Value.equal]). *)
val resultsets_agree :
  Duoengine.Executor.resultset -> Duoengine.Executor.resultset -> bool

val differential_prop : Gen.scenario -> bool
val roundtrip_prop : Gen.scenario -> bool
val columnar_prop : Gen.scenario -> bool
val streamed_match_prop : Gen.scenario * int -> bool
val cached_prop : Gen.scenario -> bool
val soundness_prop : Gen.scenario -> bool
val property1_prop : Gen.scenario * int -> bool
val key_hash_prop : Gen.scenario * int -> bool

(** The string-keyed two-layer dedup ({!Duocore.Partial.key}, then
    {!Duocore.Partial.canonical_key} for every state) the enumerator ran
    before its visited set stopped printing keys, as an
    [Enumerate.init ~on_offer] observer that replays each offer and
    records the first verdict that differs. *)
type replay = {
  rp_visited : (string, unit) Hashtbl.t;
  rp_canon : (string, unit) Hashtbl.t;
  mutable rp_hits : int;  (** offers rejected by the key layer *)
  mutable rp_canon_hits : int;  (** offers rejected by the canonical layer *)
  mutable rp_admitted : int;  (** offers the run admitted *)
  mutable rp_mismatch : (string * bool) option;
      (** the first differing offer's key and the string-keyed verdict *)
}

val new_replay : unit -> replay
val replay_offer : replay -> Duocore.Partial.t -> bool -> unit

val dedup_exact_prop : Gen.scenario * int -> bool

(** [lazy_eager_diff ?rebase config ctx db ~tsq ~literals ()] runs
    {!Duocore.Enumerate} and an eager reference loop side by side.  The
    reference builds every child when its parent is expanded and admits
    it then, through the visited layer and, for a child with a
    predicate, the canonical one, on printed keys; the rest of its loop
    is [Enumerate.step]'s, with no time budget.  Returns how the two runs
    differ in candidates (SQL, confidence, [cand_pops]), pops, any
    stage's prunes or compaction drops, or [None].  With
    [rebase = (k, tsq')], both runs take [k] pops and then rebase onto
    [tsq']. *)
val lazy_eager_diff :
  ?rebase:int * Duocore.Tsq.t ->
  Duocore.Enumerate.config ->
  Duoguide.Model.ctx ->
  Duodb.Database.t ->
  ?index:Duodb.Index.t ->
  tsq:Duocore.Tsq.t option ->
  literals:Duodb.Value.t list ->
  unit ->
  string option

val lazy_runs_prop : Gen.scenario * int -> bool

(** The guidance model's per-state distributions, memoized per context,
    equal a fresh context's first call (items, bit-equal probabilities,
    best-first order) over random call sequences on a scenario's, the
    MAS or a mini Spider schema, and an equal key ([used] and
    [projected] sets in any order) returns the physically same entry. *)
val guidance_memo_prop : Gen.scenario * int -> bool

(** The cascade verdict ({!Duocore.Verify.verify}, [static] included)
    is the same for every state of one
    {!Duocore.Partial.key} partition and of one
    {!Duocore.Partial.canonical_key} partition, over derivation samples,
    their twins and their WHERE spellings (permuted predicates, literals
    swapped between bounds). *)
val partition_verdict_prop : Gen.scenario * int -> bool
val complete_rules_prop : Gen.scenario * int -> bool
val duosem_equiv_prop : Gen.scenario -> bool
val duosem_card_prop : Gen.scenario -> bool
val domain_lattice_prop : int -> bool

(** [tests ~mult ()] builds the property list with iteration counts scaled
    by [mult] (default 1: the small seeded configuration wired into
    [dune runtest]; the [@fuzz] alias passes a large multiplier). *)
val tests : ?mult:int -> unit -> QCheck.Test.t list
