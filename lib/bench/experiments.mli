(** Experiment harness: one entry per table/figure of the paper's
    evaluation (see DESIGN.md's per-experiment index), each printing the
    corresponding rows/series to the given formatter.

    Heavy inputs (the generated splits and the per-system simulation runs)
    are computed lazily and shared across experiments within a process, so
    running every id performs each synthesis sweep exactly once.

    [scale] trades fidelity for speed: [`Full] uses the paper-sized splits
    (589 dev / 1247 test tasks); [`Quick] uses small splits for smoke
    runs. *)

type scale =
  [ `Full
  | `Quick
  ]

type t

(** [pool] shards split generation and every lazy simulation run across
    the pool's domains (results are bit-identical to the sequential
    path; only wall-clock changes).  The caller owns the pool and must
    keep it alive until the last experiment has been forced. *)
val create : ?scale:scale -> ?pool:Duopar.Pool.t -> unit -> t

(** All experiment ids, in presentation order. *)
val all_ids : string list

(** [run t ppf id] executes one experiment; [Error msg] for unknown ids. *)
val run : t -> Format.formatter -> string -> (unit, string) result

(** One-line description per experiment id. *)
val describe : string -> string option
