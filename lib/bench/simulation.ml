module Enumerate = Duocore.Enumerate
module Duoquest = Duocore.Duoquest

type per_task = {
  pt_task : Spider_gen.task;
  pt_rank : int option;
  pt_time : float option;
  pt_candidates : int;
  pt_pops : int;
}

let sim_config =
  { Enumerate.default_config with
    Enumerate.max_pops = 40_000;
    max_candidates = 100;
    time_budget_s = 1.0 }

let sessions_of split =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun (name, db) -> Hashtbl.replace tbl name (Duoquest.create_session db))
    split.Spider_gen.databases;
  tbl

(* Shard [f] over [items] on [pool] when it carries real parallelism,
   merging results by index (fixed shard order).  Each item must carry
   everything mutable it needs (pre-split rng, its own database) so
   shards never share writable state; [Pool.run] is never nested. *)
let shard_map pool items f =
  match pool with
  | Some p when Duopar.Pool.domains p > 1 ->
      let arr = Array.of_list items in
      let out = Array.make (Array.length arr) None in
      Duopar.Pool.run p (Array.length arr) (fun ~worker:_ i ->
          out.(i) <- Some (f arr.(i)));
      List.filter_map Fun.id (Array.to_list out)
  | _ -> List.map f items

(* Pre-split one child rng per task, in exactly the order the sequential
   loop would draw them — an explicit ascending loop, so shard merges
   reproduce the sequential stream bit-for-bit. *)
let split_rngs rng n =
  let rngs = Array.make (max 1 n) rng in
  for i = 0 to n - 1 do
    rngs.(i) <- Rng.split rng
  done;
  rngs

let run_split ?(config = sim_config) ?(seed = 4242) ?pool ~mode ~detail split =
  let sessions = sessions_of split in
  let rng = Rng.create seed in
  let n_tasks = List.length split.Spider_gen.tasks in
  let rngs = split_rngs rng n_tasks in
  let run_task i (task : Spider_gen.task) =
    let trng = rngs.(i) in
    let session = Hashtbl.find sessions task.Spider_gen.sp_db in
    let db = Duoquest.session_db session in
    let gold = task.Spider_gen.sp_gold in
    let tsq =
      match detail with
      | None -> None
      | Some d -> Tsq_synth.synthesize trng db gold ~detail:d
    in
    let outcome =
      Duoquest.synthesize ~config ~mode ?tsq
        ~literals:task.Spider_gen.sp_literals session
        ~nlq:task.Spider_gen.sp_nlq ()
    in
    let rank = Duoquest.rank_of outcome ~gold in
    let time =
      Option.bind rank (fun r ->
          List.nth_opt outcome.Enumerate.out_candidates (r - 1)
          |> Option.map (fun c -> c.Enumerate.cand_time_s))
    in
    {
      pt_task = task;
      pt_rank = rank;
      pt_time = time;
      pt_candidates = List.length outcome.Enumerate.out_candidates;
      pt_pops = outcome.Enumerate.out_pops;
    }
  in
  let indexed = List.mapi (fun i task -> (i, task)) split.Spider_gen.tasks in
  shard_map pool indexed (fun (i, task) -> run_task i task)

type pbe_status =
  | Pbe_correct
  | Pbe_incorrect
  | Pbe_unsupported

let run_pbe ?(seed = 4242) ?pool split =
  let dbs = Hashtbl.create 16 in
  List.iter (fun (name, db) -> Hashtbl.replace dbs name db) split.Spider_gen.databases;
  let rng = Rng.create seed in
  let rngs = split_rngs rng (List.length split.Spider_gen.tasks) in
  let indexed = List.mapi (fun i task -> (i, task)) split.Spider_gen.tasks in
  shard_map pool indexed
    (fun (i, (task : Spider_gen.task)) ->
      let trng = rngs.(i) in
      let db = Hashtbl.find dbs task.Spider_gen.sp_db in
      let gold = task.Spider_gen.sp_gold in
      let status =
        if not (Duopbe.Squid.supported_query db gold) then Pbe_unsupported
        else
          match Tsq_synth.synthesize trng db gold ~detail:Tsq_synth.Full with
          | None -> Pbe_incorrect
          | Some tsq -> (
              match Duopbe.Squid.discover db tsq.Duocore.Tsq.tuples with
              | Some result when Duopbe.Squid.correct_for result ~gold -> Pbe_correct
              | Some _ | None -> Pbe_incorrect)
      in
      (task, status))

let top_k_count results k =
  List.length
    (List.filter
       (fun r -> match r.pt_rank with Some rk -> rk <= k | None -> false)
       results)

let by_difficulty results d =
  List.filter (fun r -> r.pt_task.Spider_gen.sp_difficulty = d) results

let completed_within results t =
  let n = List.length results in
  if n = 0 then 0.0
  else
    float_of_int
      (List.length
         (List.filter
            (fun r -> match r.pt_time with Some x -> x <= t | None -> false)
            results))
    /. float_of_int n
