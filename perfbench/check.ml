(* Correctness checks, all run outside the timed region: the committed
   behaviour baseline, the budget an outcome ended on, and the
   executor-versus-reference cross-check. *)

module E = Duocore.Enumerate
module Json = Duoserve.Json
module Executor = Duoengine.Executor

(* --- behaviour baseline -------------------------------------------------

   baseline.json maps every case id any seed can draw to the hash of its
   candidate list and its gold rank (0 = gold not emitted).  Regenerate
   with [duoperf.exe baseline] only when a change is meant to alter
   candidates, and say so in the change. *)

type expected = {
  e_hash : string;
  e_rank : int;
}

let baseline : (string, expected) Hashtbl.t = Hashtbl.create 1024

let load_baseline path =
  let ic = open_in_bin path in
  let text = really_input_string ic (in_channel_length ic) in
  close_in ic;
  match Json.parse text with
  | Error e -> failwith (Printf.sprintf "%s: %s" path e)
  | Ok doc -> (
      let cases_of = function
        | Json.Obj l -> Some l
        | Json.Null | Json.Bool _ | Json.Num _ | Json.Str _ | Json.List _ -> None
      in
      match Option.bind (Json.member "cases" doc) cases_of with
      | None -> failwith (path ^ ": no \"cases\" object")
      | Some cases ->
          List.iter
            (fun (id, j) ->
              match
                ( Option.bind (Json.member "hash" j) Json.get_str,
                  Option.bind (Json.member "rank" j) Json.get_int )
              with
              | Some h, Some r -> Hashtbl.replace baseline id { e_hash = h; e_rank = r }
              | _ -> failwith (Printf.sprintf "%s: malformed case %s" path id))
            cases)

let rank_int = function Some r -> r | None -> 0

(* [None] when the case matches its baseline entry, else the reason. *)
let against_baseline id ~hash ~rank =
  match Hashtbl.find_opt baseline id with
  | None -> Some (Printf.sprintf "%s: no baseline entry" id)
  | Some e when e.e_hash <> hash ->
      Some (Printf.sprintf "%s: candidate hash %s, baseline %s" id hash e.e_hash)
  | Some e when e.e_rank <> rank_int rank ->
      Some (Printf.sprintf "%s: gold rank %d, baseline %d" id (rank_int rank) e.e_rank)
  | Some _ -> None

(* The run ended on its pop or candidate budget or by draining the
   frontier — never on wall-clock time.  The loop stops on time exactly
   when its elapsed time passes [time_budget_s], so that is the test. *)
let budget_reason (config : E.config) (o : E.outcome) =
  if o.E.out_elapsed_s > config.E.time_budget_s then
    Some (Printf.sprintf "ended after %.1fs on the wall-clock budget" o.E.out_elapsed_s)
  else None

(* --- executor vs reference interpreter ------------------------------- *)

let resultsets_agree (a : Executor.resultset) (b : Executor.resultset) =
  a.Executor.res_cols = b.Executor.res_cols
  && List.length a.Executor.res_rows = List.length b.Executor.res_rows
  && List.for_all2
       (fun ra rb ->
         Array.length ra = Array.length rb
         && Array.for_all2 Duodb.Value.equal ra rb)
       a.Executor.res_rows b.Executor.res_rows

(* Verdicts memoized per (database, SQL): cases share golds and
   candidates, and the reference interpreter is deliberately slow. *)
let ref_memo : (string * string, bool) Hashtbl.t = Hashtbl.create 1024

let engine_matches_reference ~db_name db q =
  let key = (db_name, Duosql.Pretty.query q) in
  match Hashtbl.find_opt ref_memo key with
  | Some v -> v
  | None ->
      let v =
        match (Executor.run db q, Duocheck.Reference.run db q) with
        | Ok a, Ok b -> resultsets_agree a b
        | Error _, Error _ -> true
        | (Ok _ | Error _), (Ok _ | Error _) -> false
      in
      Hashtbl.replace ref_memo key v;
      v

(* The gold and the top-10 candidates execute identically on the engine
   and on the reference interpreter. *)
let reference_reason ~db_name db ~gold (cands : E.candidate list) =
  let queries = gold :: List.map (fun c -> c.E.cand_query) (List.filteri (fun i _ -> i < 10) cands) in
  match List.find_opt (fun q -> not (engine_matches_reference ~db_name db q)) queries with
  | None -> None
  | Some q -> Some ("engine and reference disagree on " ^ Duosql.Pretty.query q)
