(** The Duoserve server: many interactive synthesis sessions multiplexed
    over one process.

    Architecture: a single-threaded event loop owns every session and
    time-slices the [Running] ones round-robin, advancing one
    {!Session.step} of [slice_pops] frontier pops between socket polls,
    so no two sessions ever mutate state concurrently and cross-session
    interference is impossible by construction.  Resume determinism (see
    {!Duocore.Enumerate.step}) then guarantees each session computes
    exactly what a solo run would.

    Sessions share per-database read-only structure: the inverted column
    index and a relation cache (sound because databases are immutable).

    {!handle_line} is the whole protocol with no sockets attached — the
    golden-transcript tests drive it directly; {!serve} wraps it in a
    Unix [select] loop over a listening socket. *)

type config = {
  max_sessions : int;
      (** admission bound: open sessions (any status) occupy a slot until
          closed *)
  slice_pops : int;  (** frontier pops per scheduler slice *)
  session_config : Duocore.Enumerate.config;
      (** per-session defaults; its budgets are also the ceilings for
          per-request overrides *)
}

(** 32 sessions, 64-pop slices, {!Duocore.Enumerate.default_config} with
    5000 pops / 10 candidates / 10 s per session. *)
val default_config : config

type t

(** [create config dbs] builds a server over named databases (indexes and
    relation caches are built here).  [step] advances one session by one
    slice ({!Session.step} by default); a test substitutes a raising one
    to exercise the exception barrier. *)
val create :
  ?step:(max_pops:int -> Session.t -> unit) ->
  config ->
  (string * Duodb.Database.t) list ->
  t

(** Process one protocol request line; the response line (no newline).
    A request that raises gets an error reply; when it raised inside a
    session's refine or poll, that session is marked [Failed] (see
    {!tick}). *)
val handle_line : t -> string -> string

(** Advance the next [Running] session by one slice; [false] when there
    is nothing to run.  A slice that raises marks its session [Failed]
    and books it so ([opened = completed + cancelled + failed + running]
    in [stats]); the other sessions carry on, and the failed session's
    polls and refines get an error reply naming the reason until it is
    closed. *)
val tick : t -> bool

val draining : t -> bool

(** Sessions currently [Running]. *)
val running_count : t -> int

(** [draining] and every session has wound down — the loop may exit. *)
val drained : t -> bool

(** Close all sessions.  The server must not be used afterwards. *)
val destroy : t -> unit

(** Run the event loop on a listening socket until a [shutdown] request
    drains the server: poll clients, answer complete lines, interleave
    {!tick} slices; on drain, flush responses, close every socket
    ([listen] included) and return.  Never accepts while draining.

    Each client's buffers are bounded: a request line longer than 1 MiB
    is answered with one error and discarded up to its newline
    ([stats] counts these as [long_lines]), and a client with more than
    1 MiB of unsent replies is not read from until the backlog drains
    below that mark ([stats] counts each pause in [read_pauses]). *)
val serve : t -> listen:Unix.file_descr -> unit
