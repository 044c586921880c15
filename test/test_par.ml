(* Duopar pool unit tests: coverage, worker-id validity, barrier
   semantics across many rounds, exception propagation, reuse after
   failure, the degenerate domains=1 pool, and lazy worker start. *)

module Pool = Duopar.Pool

let test_domains_clamped () =
  Pool.with_pool ~domains:0 (fun p ->
      Alcotest.(check int) "clamped up" 1 (Pool.domains p));
  Pool.with_pool ~domains:3 (fun p ->
      Alcotest.(check int) "kept" 3 (Pool.domains p))

(* Every task index runs exactly once, with a valid worker id. *)
let coverage domains n =
  Pool.with_pool ~domains (fun p ->
      let hits = Array.make n 0 in
      let bad_worker = Atomic.make false in
      Pool.run p n (fun ~worker i ->
          if worker < 0 || worker >= domains then Atomic.set bad_worker true;
          (* distinct slots: no two tasks share i *)
          hits.(i) <- hits.(i) + 1);
      Alcotest.(check bool) "worker ids in range" false (Atomic.get bad_worker);
      Array.iteri
        (fun i h -> Alcotest.(check int) (Printf.sprintf "task %d ran once" i) 1 h)
        hits)

let test_coverage_seq () = coverage 1 17
let test_coverage_par () = coverage 4 57
let test_empty_round () = Pool.with_pool ~domains:4 (fun p -> Pool.run p 0 (fun ~worker:_ _ -> assert false))

(* run is a barrier: summed work from a round is fully visible before
   the next round starts, across many consecutive rounds. *)
let test_barrier_rounds () =
  Pool.with_pool ~domains:4 (fun p ->
      let acc = Atomic.make 0 in
      for round = 1 to 50 do
        Pool.run p 8 (fun ~worker:_ _ -> Atomic.incr acc);
        Alcotest.(check int)
          (Printf.sprintf "round %d complete" round)
          (round * 8) (Atomic.get acc)
      done)

exception Boom of int

let test_exception_propagates () =
  Pool.with_pool ~domains:4 (fun p ->
      let ran = Atomic.make 0 in
      (match Pool.run p 20 (fun ~worker:_ i ->
               Atomic.incr ran;
               if i = 7 then raise (Boom i))
       with
      | () -> Alcotest.fail "expected Boom"
      | exception Boom 7 -> ()
      | exception e -> raise e);
      (* the round still completed: every task ran despite the failure *)
      Alcotest.(check int) "all tasks ran" 20 (Atomic.get ran);
      (* the pool is reusable after a failed round *)
      let ok = Atomic.make 0 in
      Pool.run p 10 (fun ~worker:_ _ -> Atomic.incr ok);
      Alcotest.(check int) "pool reusable" 10 (Atomic.get ok))

let test_shutdown_idempotent () =
  let p = Pool.create ~domains:3 in
  Pool.run p 5 (fun ~worker:_ _ -> ());
  Pool.shutdown p;
  Pool.shutdown p

(* Tasks see real parallel worker ids: with enough tasks per round, at
   least worker 0 (the caller) claims some — the caller participates. *)
let test_caller_participates () =
  Pool.with_pool ~domains:1 (fun p ->
      let seen = Atomic.make (-1) in
      Pool.run p 3 (fun ~worker i -> if i = 0 then Atomic.set seen worker);
      Alcotest.(check int) "domains=1 runs on caller" 0 (Atomic.get seen))

(* Creating a pool, and running rounds of one task on it, starts no
   domain; the first round of several tasks starts the workers, by the
   pool's own count. *)
let test_lazy_start () =
  let p = Pool.create ~domains:3 in
  Alcotest.(check int) "create starts no worker" 0 (Pool.started p);
  Pool.run p 1 (fun ~worker:_ _ -> ());
  Alcotest.(check int) "no worker before a multi-task round" 0 (Pool.started p);
  let ran = Atomic.make 0 in
  Pool.run p 6 (fun ~worker:_ _ -> Atomic.incr ran);
  Alcotest.(check int) "round ran" 6 (Atomic.get ran);
  Alcotest.(check int) "the first multi-task round started workers" 2 (Pool.started p);
  Pool.shutdown p;
  Alcotest.(check int) "shutdown joined them" 0 (Pool.started p)

let suite =
  [
    Alcotest.test_case "domains clamped" `Quick test_domains_clamped;
    Alcotest.test_case "coverage domains=1" `Quick test_coverage_seq;
    Alcotest.test_case "coverage domains=4" `Quick test_coverage_par;
    Alcotest.test_case "empty round" `Quick test_empty_round;
    Alcotest.test_case "barrier across rounds" `Quick test_barrier_rounds;
    Alcotest.test_case "exception propagates" `Quick test_exception_propagates;
    Alcotest.test_case "shutdown idempotent" `Quick test_shutdown_idempotent;
    Alcotest.test_case "caller participates" `Quick test_caller_participates;
    Alcotest.test_case "workers start on first multi-task round" `Quick
      test_lazy_start;
  ]
