(* [s_caches]: the relation cache of each domain that prepared a run on
   this session, by [Domain.self ()].  A cache is not thread-safe and
   [Simulation.shard_map] synthesizes on one session from several
   domains at once, so each domain gets its own; [s_lock] guards the
   table, never a cache. *)
type session = {
  s_db : Duodb.Database.t;
  s_index : Duodb.Index.t;
  s_caches : (int, Duoengine.Executor.relation_cache) Hashtbl.t;
  s_lock : Mutex.t;
}

let create_session db =
  { s_db = db; s_index = Duodb.Index.build db; s_caches = Hashtbl.create 4;
    s_lock = Mutex.create () }

let session_db s = s.s_db
let session_index s = s.s_index

let domain_cache s =
  let d = (Domain.self () :> int) in
  Mutex.protect s.s_lock (fun () ->
      match Hashtbl.find_opt s.s_caches d with
      | Some c -> c
      | None ->
          let c = Duoengine.Executor.create_cache () in
          Hashtbl.replace s.s_caches d c;
          c)

let session_relcaches s =
  Mutex.protect s.s_lock (fun () -> Hashtbl.fold (fun _ c acc -> c :: acc) s.s_caches [])

type mode =
  [ `Duoquest
  | `Nli
  | `No_guide
  | `No_pq
  ]

let mode_name = function
  | `Duoquest -> "Duoquest"
  | `Nli -> "NLI"
  | `No_guide -> "NoGuide"
  | `No_pq -> "NoPQ"

let prepare ?(config = Enumerate.default_config) ?(mode = `Duoquest) ?tsq
    ?literals ?on_candidate session ~nlq () =
  let config =
    match mode with
    | `Duoquest | `Nli -> config
    | `No_guide -> { config with Enumerate.guided = false }
    | `No_pq -> { config with Enumerate.prune_partial = false }
  in
  let tsq = match mode with `Nli -> None | `Duoquest | `No_guide | `No_pq -> tsq in
  let analyzed =
    match literals with
    | None -> Duonl.Nlq.analyze ~index:session.s_index nlq
    | Some lits -> Duonl.Nlq.with_literals ~index:session.s_index nlq lits
  in
  let ctx =
    Duoguide.Model.make ~temperature:config.Enumerate.temperature
      ~index:session.s_index
      (Duodb.Database.schema session.s_db)
      analyzed
  in
  let literal_values =
    List.map (fun l -> l.Duonl.Nlq.lit_value) analyzed.Duonl.Nlq.literals
  in
  Enumerate.init config ctx session.s_db ~index:session.s_index
    ~relcache:(domain_cache session) ~tsq ~literals:literal_values
    ?on_candidate ()

let synthesize ?config ?mode ?tsq ?literals ?pool:_ ?on_candidate session ~nlq
    () =
  let state = prepare ?config ?mode ?tsq ?literals ?on_candidate session ~nlq () in
  ignore (Enumerate.step state);
  Enumerate.outcome state

let rank_of outcome ~gold =
  let rec find i = function
    | [] -> None
    | c :: rest ->
        if Duolint.Duosem.equal_queries c.Enumerate.cand_query gold then Some i
        else find (i + 1) rest
  in
  find 1 outcome.Enumerate.out_candidates

let top_k outcome k =
  List.filteri (fun i _ -> i < k) outcome.Enumerate.out_candidates
