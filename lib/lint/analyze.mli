(** The Duolint rule engine: composable checks over a schema and an
    {!Outline.t} clause view.  Database-free — every rule reads only the
    schema and the abstract syntax, so a run costs microseconds and is
    safe as stage 0 of the verification cascade. *)

type prepared
(** A schema compiled to hash-table lookups.  The cascade runs the rules
    once per popped state, so callers on that path {!prepare} once per
    session; the plain [Duodb.Schema.t] entry points below prepare on
    every call and suit one-shot linting. *)

val prepare : Duodb.Schema.t -> prepared

val has_errors_p : prepared -> Outline.t -> bool
(** Fast path for the cascade: runs only the error rules and
    short-circuits on the first hit without building messages. *)

val redundant_where : Outline.t -> bool
(** True when a final WHERE breaks one of the two Table 4 rules Duolint
    only warns about: an exact duplicate predicate, or a constant output
    column.  The cascade's [semantics] stage prunes on it. *)

val count_warnings_p : prepared -> Outline.t -> int
(** Number of warnings (deprioritization weight for the enumerator);
    runs only the warning rules.  Like {!has_errors_p} it memoizes each
    clause's count on the clause's physical identity (a condition's also
    on its connective), so callers that pass clause lists shared between
    consecutive calls re-count only the clauses that changed; the
    cross-clause rules re-run whenever their finality flags hold. *)

val has_errors : Duodb.Schema.t -> Outline.t -> bool

val errors : Diagnostic.t list -> Diagnostic.t list
val warnings : Diagnostic.t list -> Diagnostic.t list

val check_query : Duodb.Schema.t -> Duosql.Ast.query -> Diagnostic.t list
(** All diagnostics of a complete query (every clause final), in rule
    order. *)
