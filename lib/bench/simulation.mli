(** The simulation study on the Spider-like benchmark (Section 5.4).

    For each task the gold SQL is the desired query, its literals are the
    tagged set L, and the TSQ is synthesized per Section 5.4.1 (type
    annotations, two example tuples, tau and k).  Duoquest receives NLQ +
    literals + TSQ; NLI receives NLQ + literals; PBE receives the example
    tuples alone. *)

type per_task = {
  pt_task : Spider_gen.task;
  pt_rank : int option;  (** 1-based rank of the gold query, if emitted *)
  pt_time : float option;  (** processor time at which the gold appeared *)
  pt_candidates : int;
  pt_pops : int;
}

(** Budget used for every synthesis run (the paper's 60 s timeout scaled to
    the in-memory engine). *)
val sim_config : Duocore.Enumerate.config

(** [run_split ~mode ~detail split] runs one system over all tasks.
    [detail = None] means no TSQ is supplied (the NLI setting). Sessions
    are cached per database.

    [pool] shards the split across the pool's domains — one task per
    shard, per-task rngs pre-split in sequential order and results
    merged in fixed shard order, so the returned list is identical to
    the sequential one (wall-clock fields aside). *)
val run_split :
  ?config:Duocore.Enumerate.config ->
  ?seed:int ->
  ?pool:Duopar.Pool.t ->
  mode:Duocore.Duoquest.mode ->
  detail:Tsq_synth.detail option ->
  Spider_gen.split ->
  per_task list

type pbe_status =
  | Pbe_correct
  | Pbe_incorrect
  | Pbe_unsupported

(** Run the PBE baseline over the split's tasks using the Full-TSQ example
    tuples (Section 5.4.2's protocol).  [pool] shards tasks as in
    {!run_split}. *)
val run_pbe :
  ?seed:int ->
  ?pool:Duopar.Pool.t ->
  Spider_gen.split ->
  (Spider_gen.task * pbe_status) list

(** Top-k accuracy over task results. *)
val top_k_count : per_task list -> int -> int

(** Restrict to one difficulty class. *)
val by_difficulty : per_task list -> Spider_gen.difficulty -> per_task list

(** Fraction of tasks whose gold query was found within [t] wall-clock
    seconds (candidate timestamps use {!Duocore.Clock.now}), for the
    Figure 12 curves. *)
val completed_within : per_task list -> float -> float
