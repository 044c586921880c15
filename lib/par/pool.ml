(* A round is one batch of [r_n] independent tasks.  Workers claim task
   indices from [r_next] (fetch-and-add work stealing) and count
   completions in [r_done].

   The pool owns ONE round record, reused for every round.  Reuse is
   safe because the record's plain fields ([r_n], [r_fn]) are
   only written under the pool mutex while [active_workers] is zero —
   every worker brackets its time inside [run_tasks] with a
   mutex-protected increment/decrement of [active_workers], so a
   straggler from a previous round can never race a reset: the caller
   waits for full quiescence before touching the record. *)
type round = {
  mutable r_n : int;
  mutable r_fn : worker:int -> int -> unit;
  r_next : int Atomic.t;
  r_done : int Atomic.t;
}

type t = {
  n_domains : int;
  mu : Mutex.t;
  work_cv : Condition.t;  (* workers wait here for a new round / stop *)
  done_cv : Condition.t;  (* the caller waits here for round completion *)
  round : round;
  mutable active_workers : int;
      (* workers (caller included) currently inside [run_tasks] *)
  mutable epoch : int;  (* bumped once per installed round *)
  mutable stop : bool;
  mutable failure : (exn * Printexc.raw_backtrace) option;
  mutable handles : unit Domain.t list;  (* [] until the first multi-task round *)
}

let domains t = t.n_domains
let started t = List.length t.handles

(* Claim and run tasks until the round's index counter is exhausted.
   Exceptions are recorded (first one wins) and the task still counts as
   completed — the barrier must not deadlock on a failing task. *)
let run_tasks t (r : round) ~worker =
  let continue_ = ref true in
  while !continue_ do
    let i = Atomic.fetch_and_add r.r_next 1 in
    if i >= r.r_n then continue_ := false
    else begin
      (try r.r_fn ~worker i
       with e ->
         let bt = Printexc.get_raw_backtrace () in
         Mutex.lock t.mu;
         if Option.is_none t.failure then t.failure <- Some (e, bt);
         Mutex.unlock t.mu);
      Atomic.incr r.r_done
    end
  done

(* Enter/exit the round under the mutex.  The exit of the last active
   worker is the round's completion event: all tasks were claimed (or
   the worker would still be looping) and all claimed tasks finished
   (their workers were active until done), so signalling the caller
   here cannot be early. *)
let rec worker_loop t ~worker last_epoch =
  Mutex.lock t.mu;
  while (not t.stop) && t.epoch = last_epoch do
    Condition.wait t.work_cv t.mu
  done;
  if t.stop then Mutex.unlock t.mu
  else begin
    let epoch = t.epoch in
    t.active_workers <- t.active_workers + 1;
    Mutex.unlock t.mu;
    run_tasks t t.round ~worker;
    Mutex.lock t.mu;
    t.active_workers <- t.active_workers - 1;
    if t.active_workers = 0 then Condition.signal t.done_cv;
    Mutex.unlock t.mu;
    worker_loop t ~worker epoch
  end

let create ~domains =
  let n = max 1 (min domains 64) in
  let t =
    {
      n_domains = n;
      mu = Mutex.create ();
      work_cv = Condition.create ();
      done_cv = Condition.create ();
      round =
        {
          r_n = 0;
          r_fn = (fun ~worker:_ _ -> ());
          r_next = Atomic.make 0;
          r_done = Atomic.make 0;
        };
      active_workers = 0;
      epoch = 0;
      stop = false;
      failure = None;
      handles = [];
    }
  in
  t

(* Spawn the workers for the first multi-task round.  Only the creating
   domain calls [run], so no lock is needed; a shut-down pool never
   starts (its workers would find [stop] set and never be joined). *)
let start t =
  if t.handles = [] && not t.stop then
    t.handles <-
      List.init (t.n_domains - 1) (fun i ->
          Domain.spawn (fun () -> worker_loop t ~worker:(i + 1) 0))

let run t n f =
  if n > 0 then begin
    if t.n_domains = 1 || n = 1 then
      (* no pool traffic: the degenerate cases run inline *)
      for i = 0 to n - 1 do
        f ~worker:0 i
      done
    else begin
      start t;
      let r = t.round in
      Mutex.lock t.mu;
      (* Wait out stragglers from the previous round (workers that woke
         late, entered, and found nothing to claim) before reinstalling
         the shared record: writes below must not race their reads. *)
      while t.active_workers > 0 do
        Condition.wait t.done_cv t.mu
      done;
      t.failure <- None;
      r.r_n <- n;
      r.r_fn <- f;
      Atomic.set r.r_next 0;
      Atomic.set r.r_done 0;
      t.active_workers <- 1;  (* the caller is worker 0 *)
      t.epoch <- t.epoch + 1;
      Condition.broadcast t.work_cv;
      Mutex.unlock t.mu;
      run_tasks t r ~worker:0;
      Mutex.lock t.mu;
      t.active_workers <- t.active_workers - 1;
      while not (t.active_workers = 0 && Atomic.get r.r_done >= r.r_n) do
        Condition.wait t.done_cv t.mu
      done;
      (* Close the round: late-waking workers will still enter once the
         broadcast reaches them, claim nothing ([r_next] is exhausted —
         the next [run] waits for them before resetting it), and leave. *)
      let failure = t.failure in
      t.failure <- None;
      Mutex.unlock t.mu;
      match failure with
      | Some (e, bt) -> Printexc.raise_with_backtrace e bt
      | None -> ()
    end
  end

let shutdown t =
  Mutex.lock t.mu;
  t.stop <- true;
  Condition.broadcast t.work_cv;
  Mutex.unlock t.mu;
  List.iter Domain.join t.handles;
  t.handles <- []

let with_pool ~domains f =
  let t = create ~domains in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)
