(** Seeded random instance generators for the Duocheck properties.

    A {!scenario} bundles a random database over a random FK-tree schema,
    a random in-scope query over it, and a TSQ derived from the query's
    true result (sometimes deliberately mutated into a wrong sketch, so
    the pruning paths get exercised too).

    Queries are generated inside the enumerable dialect: joins follow FK
    edges and are listed in nested-loop attach order (so pretty-printing
    round-trips exactly), DISTINCT appears only at query level or inside
    COUNT, literals are integers and apostrophe-free text. *)

type scenario = {
  sc_db : Duodb.Database.t;
  sc_query : Duosql.Ast.query;
  sc_tsq : Duocore.Tsq.t;
}

(** Raw generators, exposed for composing custom properties. *)

(** [gen_schema ?max_tables st]: an FK tree of 2 to [max_tables] tables
    (default 3, at most 5). *)
val gen_schema : ?max_tables:int -> Random.State.t -> Duodb.Schema.t
val gen_db : Random.State.t -> Duodb.Schema.t -> Duodb.Database.t
val gen_query : Random.State.t -> Duodb.Database.t -> Duosql.Ast.query

(** [gen_tsq st db q] derives a sketch from [q]'s true result: a sample of
    result rows with some cells relaxed to [Any] or numeric ranges, the
    sorted flag and limit read off the query (sometimes perturbed), and —
    with some probability — a mutated cell or a negative tuple that makes
    the sketch deliberately unsatisfiable by [q]. *)
val gen_tsq : Random.State.t -> Duodb.Database.t -> Duosql.Ast.query -> Duocore.Tsq.t

val gen_scenario : ?max_tables:int -> Random.State.t -> scenario

(** A few concrete values scanned deterministically from the database, for
    populating guidance-model literal pools (see {!Duonl.Nlq.with_literals}). *)
val seed_literals : Duodb.Database.t -> Duodb.Value.t list

val print_scenario : scenario -> string

(** Shrinks the query clause-by-clause (then the sketch), keeping the
    database fixed, so QCheck failures print a minimal query/TSQ pair. *)
val shrink_scenario : scenario QCheck.Shrink.t

val arb_scenario : scenario QCheck.arbitrary
