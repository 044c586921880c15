(** The one clock of the enumeration loop.

    The loop, the verification cascade and the run's budgets all read
    {!mono}: phases and stages are timed back to back, so the stamp that
    closes one interval opens the next ({!mark}), and the time budget
    and candidate timestamps reuse those stamps instead of reading a
    clock of their own.  A pop then costs one read per boundary it
    crosses (DESIGN.md, "One stamp per boundary"). *)

(** Monotonic wall clock in seconds since an arbitrary epoch, via
    [clock_gettime(CLOCK_MONOTONIC)]: served from the vDSO, so a read
    costs about 20 ns with nanosecond resolution.  Callers only take
    differences.  It is wall time, so a run that blocks is charged for
    the wait, as the paper's wall-clock budget (Section 5) requires.
    Declared external here too, so a caller in another module calls the
    stub directly and gets the float unboxed: a read allocates nothing. *)
external mono : unit -> (float[@unboxed]) = "duo_clock_mono_byte" "duo_clock_mono"
[@@noalloc]

(** The stamp that closed the last interval of a sequence timed back to
    back: the next interval opens there without a read of its own.  An
    all-float record, so an update stores an unboxed float. *)
type mark = { mutable at : float }
