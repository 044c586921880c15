(** Scoring utilities shared by the guidance modules. *)

(** [softmax ?temperature scores] maps raw evidence scores to a probability
    distribution: strictly positive, sums to 1 (Property 1 of the paper
    requires each inference decision's candidate scores to sum to the
    parent's mass).  Default temperature 1.0; higher values flatten the
    distribution. *)
val softmax : ?temperature:float -> float array -> float array

(** [name_tokens s] splits an identifier on underscores and stems each
    part: ["birth_yr"] gives [["birth"; "yr"]]. *)
val name_tokens : string -> string list

(** [name_similarity ~nlq_words name] in [0, 1]: fraction of [name]'s
    tokens that appear (exactly or by 4-character prefix) among the NLQ's
    stemmed content words. *)
val name_similarity : nlq_words:string list -> string -> float

(** [column_similarity ~nlq_words col] combines column-name and table-name
    similarity (column dominates). *)
val column_similarity : nlq_words:string list -> Duodb.Schema.column -> float

(** Attach softmax probabilities to scored candidates, preserving order of
    the input list. *)
val normalize : ?temperature:float -> ('a * float) list -> ('a * float) list
