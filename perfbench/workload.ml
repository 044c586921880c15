(* Workload inputs: pinned enumeration configs and the seeded case draws.

   Every synthesis budget is a pop or candidate budget; the wall-clock
   budget sits far above any run so that candidate lists, ranks and
   counters repeat exactly and only timings carry noise.  The configs are
   built here from [Enumerate.default_config] and never read
   [DUOQUEST_DOMAINS]. *)

module E = Duocore.Enumerate
module Mas = Duobench.Mas
module Sg = Duobench.Spider_gen
module Ts = Duobench.Tsq_synth
module Rng = Duobench.Rng

(* A case ending on this budget is a failed operation. *)
let time_budget_s = 600.0

let config ~pops ~domains =
  { E.default_config with
    E.max_pops = pops;
    max_candidates = 10;
    time_budget_s;
    domains;
    overcommit = false }

let mas_config = config ~pops:2000 ~domains:1
let dev_config = config ~pops:600 ~domains:1
let spec2_config = config ~pops:2000 ~domains:2

(* Duoserve sessions run the dev-nli budget, so an NLI session's
   candidates are the dev-nli case's candidates. *)
let serve_config = dev_config

type case = {
  c_id : string;  (* stable id: the key into baseline.json *)
  c_db : string;  (* "mas" or a dev database name *)
  c_nlq : string;
  c_literals : Duodb.Value.t list;
  c_gold : Duosql.Ast.query;
  c_tsq : Duocore.Tsq.t option;  (* [None]: NLI mode *)
}

let mode c = match c.c_tsq with Some _ -> `Duoquest | None -> `Nli

(* --- MAS cases ----------------------------------------------------------

   A MAS case is (task, TSQ detail, sketch draw).  Draws come from a
   finite pool of [mas_draws] per (task, detail) so the committed
   baseline covers every case any seed can pick; Minimal sketches carry
   no example tuples and have a single draw. *)

let mas_draws = 8
let mas_tasks () = Mas.nli_study_tasks @ Mas.pbe_study_tasks
let details = [ Ts.Full; Ts.Partial; Ts.Minimal ]

let mas_case db (task : Mas.task) detail k =
  let gold = Mas.gold task in
  let rng = Rng.create (Hashtbl.hash (task.Mas.task_id, Ts.detail_to_string detail, k)) in
  Option.map
    (fun tsq ->
      {
        c_id =
          Printf.sprintf "mas/%s/%s/k%d" task.Mas.task_id
            (String.lowercase_ascii (Ts.detail_to_string detail))
            k;
        c_db = "mas";
        c_nlq = task.Mas.task_nlq;
        c_literals = task.Mas.task_literals;
        c_gold = gold;
        c_tsq = Some tsq;
      })
    (Ts.synthesize rng db gold ~detail)

let draws_of = function Ts.Minimal -> 1 | Ts.Full | Ts.Partial -> mas_draws

(* [per_detail] draws per (task, detail) picked by the seed, distinct
   within the pool. *)
let pick_draws seed (task : Mas.task) detail per =
  let pool = List.init (draws_of detail) Fun.id in
  let rng = Rng.create (Hashtbl.hash (seed, task.Mas.task_id, Ts.detail_to_string detail)) in
  List.sort compare (Rng.sample rng (min per (List.length pool)) pool)

(* mas-dual: A1-D3 x Full/Partial/Minimal (140 cases): one seeded Full
   draw, every Partial draw and the Minimal sketch per task.  Partial
   draws split into fast and slow variants by the erased column (A1: 40
   vs 67 ms to gold, B1: 50 vs 88 ms), so drawing a subset of them moved
   the time-to-gold median across that gap from seed to seed (IQR 16% of
   the median over ten seeds with three of eight); Full draws of a task
   agree within ~10%. *)
let mas_dual_cases db ~seed =
  List.concat_map
    (fun task ->
      List.concat_map
        (fun d ->
          let per = match d with Ts.Full | Ts.Minimal -> 1 | Ts.Partial -> mas_draws in
          List.filter_map (mas_case db task d) (pick_draws seed task d per))
        details)
    (mas_tasks ())

(* mas-spec2: the B tier at Full detail (28 cases) in an order drawn by
   the seed: every draw of B1, B3 and B4, the first four of B2.  Gold is
   reached on B1 (~50 ms) and B2 (~15 ms) only; with equal draw counts
   the time-to-gold median was the midpoint of the gap between those two
   clusters and moved by 24% (IQR over ten seeds), so B2 gets half the
   draws and the median falls inside the B1 cluster. *)
let mas_spec2_cases db ~seed =
  let cases =
    List.concat_map
      (fun (task : Mas.task) ->
        let draws = if task.Mas.task_id = "B2" then 4 else draws_of Ts.Full in
        if task.Mas.task_id.[0] <> 'B' then []
        else List.filter_map (mas_case db task Ts.Full) (List.init draws Fun.id))
      (mas_tasks ())
  in
  Rng.shuffle (Rng.create (Hashtbl.hash ("mas-spec2", seed))) cases

(* Every MAS case any seed can draw, for the baseline. *)
let mas_pool db =
  List.concat_map
    (fun task ->
      List.concat_map
        (fun d -> List.filter_map (mas_case db task d) (List.init (draws_of d) Fun.id))
        details)
    (mas_tasks ())

(* --- dev split cases ---------------------------------------------------- *)

let dev_case i (t : Sg.task) =
  {
    c_id = Printf.sprintf "dev/%d" i;
    c_db = t.Sg.sp_db;
    c_nlq = t.Sg.sp_nlq;
    c_literals = t.Sg.sp_literals;
    c_gold = t.Sg.sp_gold;
    c_tsq = None;
  }

let dev_pool split = List.mapi dev_case split.Sg.tasks

(* dev-nli: the dev split without a seeded twentieth of its tasks, in
   split order.  Dropping few keeps the quality fractions within ~3%
   across seeds (a stratified half draw moved top-10 by ~7%, a nine
   tenths one top-1 by ~6%) while every seed still sees its own list. *)
let dev_nli_cases split ~seed =
  let pool = dev_pool split in
  let rng = Rng.create (Hashtbl.hash ("dev-nli", seed)) in
  let dropped = Rng.sample rng (List.length pool / 20) (List.init (List.length pool) Fun.id) in
  let out = Hashtbl.create 64 in
  List.iter (fun i -> Hashtbl.replace out i ()) dropped;
  List.filteri (fun i _ -> not (Hashtbl.mem out i)) pool
