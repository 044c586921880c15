(** Progressive join path construction (Algorithm 2).

    Given the tables referenced by a (partial) query, produce candidate
    FROM clauses: the Steiner tree over the referenced tables, plus
    one-FK-hop extensions of it (covering desired queries whose FROM clause
    contains tables not otherwise referenced, as in Example 3.2).  When no
    table is referenced yet, every single table is a candidate. *)

(** Candidate FROM clauses in non-decreasing join length: the Steiner
    tree first, then each extension level (the frontier takes this as
    the best-first order of a join-path state's forks, which share one
    confidence).  Returns [[]] when
    the referenced tables cannot be connected.  [depth] controls how many
    FK hops beyond the Steiner tree are explored (Algorithm 2's recursive
    extension); default 1.  Counting queries need depth 2: COUNT of all
    rows changes with every joined table, so the paper's A3-style tasks
    join link+entity chains past the referenced tables. *)
val construct :
  ?depth:int -> Duodb.Schema.t -> tables:string list -> Duosql.Ast.from_clause list

(** [covers from tables] checks that the clause contains all [tables]. *)
val covers : Duosql.Ast.from_clause -> string list -> bool

(** Join path length (number of join edges). *)
val length : Duosql.Ast.from_clause -> int

(** Convert a Steiner tree to a FROM clause. *)
val from_of_tree : Steiner.tree -> Duosql.Ast.from_clause
