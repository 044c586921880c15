module Enumerate = Duocore.Enumerate
module Duoquest = Duocore.Duoquest
module Tsq = Duocore.Tsq

type status =
  | Running
  | Finished
  | Cancelled
  | Failed of string

let status_name = function
  | Running -> "running"
  | Finished -> "finished"
  | Cancelled -> "cancelled"
  | Failed _ -> "failed"

type t = {
  sid : int;
  db_name : string;
  nlq : string;
  config : Enumerate.config;
  duo : Duoquest.session;
  literals : Duodb.Value.t list option;
  mutable tsq : Duocore.Tsq.t option;
  mutable state : Enumerate.state option;
  mutable last : Enumerate.outcome option;
      (** snapshot kept after the state is dropped *)
  mutable status : status;
  mutable slices : int;
  mutable refinements : int;
  mutable rebased : int;
}

let sid s = s.sid
let db_name s = s.db_name
let nlq s = s.nlq
let status s = s.status
let slices s = s.slices
let refinements s = s.refinements
let rebased s = s.rebased

let prepare s =
  Duoquest.prepare ~config:s.config ?tsq:s.tsq ?literals:s.literals
    s.duo ~nlq:s.nlq ()

let create ~sid ~db_name ~config ~nlq ?tsq ?literals duo =
  let s =
    {
      sid;
      db_name;
      nlq;
      config;
      duo;
      literals;
      tsq;
      state = None;
      last = None;
      status = Running;
      slices = 0;
      refinements = 0;
      rebased = 0;
    }
  in
  s.state <- Some (prepare s);
  s

let release_state s =
  match s.state with
  | None -> ()
  | Some st ->
      s.last <- Some (Enumerate.outcome st);
      s.state <- None

let step ~max_pops s =
  match (s.status, s.state) with
  | Running, Some st -> (
      s.slices <- s.slices + 1;
      match Enumerate.step ~max_pops st with
      | Enumerate.Running -> ()
      | Enumerate.Finished -> s.status <- Finished)
  | Running, None | (Finished | Cancelled | Failed _), (Some _ | None) -> ()

let outcome s =
  match s.state with
  | Some st -> Enumerate.outcome st
  | None -> (
      match s.last with Some o -> o | None -> Enumerate.empty_outcome ())

let refine s tsq =
  s.refinements <- s.refinements + 1;
  let warm =
    (* Warm-restart only when the live enumeration state is still around
       (a cancelled session released it) and the edit is a proper
       tightening of the previous sketch. *)
    match (s.state, s.tsq) with
    | Some st, Some old when Tsq.refines ~old ~new_:tsq = Tsq.Tightening ->
        Some st
    | (Some _ | None), (Some _ | None) -> None
  in
  s.tsq <- Some tsq;
  match warm with
  | Some st ->
      s.rebased <- s.rebased + 1;
      Enumerate.rebase st ~tsq;
      s.last <- None;
      s.status <- (if Enumerate.finished st then Finished else Running)
  | None ->
      (* From-root fallback.  The time budget is cumulative across
         refinements: the replacement run starts with the previous run's
         active stepping time already charged, so a client cannot extend
         its wall-clock budget by refining (the pop budget, by contrast,
         is per refinement). *)
      let spent = (outcome s).Enumerate.out_elapsed_s in
      release_state s;
      s.last <- None;
      let st = prepare s in
      Enumerate.charge st spent;
      s.state <- Some st;
      s.status <- Running

let cancel s =
  release_state s;
  match s.status with
  | Running -> s.status <- Cancelled
  | Finished | Cancelled | Failed _ -> ()

(* The state is dropped unread: whatever raised may have left it
   inconsistent. *)
let fail s reason =
  s.state <- None;
  s.last <- None;
  s.status <- Failed reason

let close s =
  release_state s;
  s.last <- None;
  (* A session that ran to completion stays [Finished] in the books;
     only an interrupted run is reported as cancelled. *)
  match s.status with
  | Running -> s.status <- Cancelled
  | Finished | Cancelled | Failed _ -> ()
