module Partial = Duocore.Partial
module Verify = Duocore.Verify
module Enumerate = Duocore.Enumerate
module Model = Duoguide.Model
open Duosql.Ast

(* Cascade soundness: every Verify stage must be monotone — a stage that
   prunes a partial query must also fail on every completion of it.  We
   check the contrapositive mechanically: explore the enumeration space,
   and whenever a stage prunes a child, brute-force a bounded set of its
   completions; if any completion is accepted ([accepts]), pruning threw
   away a satisfying query. *)

type violation = {
  vi_state : Partial.t;
  vi_stage : string;
  vi_witness : query;
}

(* Both derived from the cascade's own stage table, so a stage added to
   Verify cannot silently escape the soundness check. *)
let stage_names = List.map Verify.stage_name Verify.all_stages

let first_failing_stage env (t : Partial.t) =
  Option.map Verify.stage_name
    (List.find_opt (fun st -> not (Verify.check_stage env st t)) Verify.all_stages)

(* Judging the complete state, not its query, keeps static's open-world
   outline under test. *)
let accepts env (s : Partial.t) =
  Partial.is_complete s
  && List.for_all (fun st -> Verify.check_stage env st s) [ Verify.S_static; S_semantics; S_complete ]

let completions ~guided ~hints ctx ~max_nodes ~max_complete state =
  let acc = ref [] in
  let n = ref 0 in
  let q = Queue.create () in
  Queue.add state q;
  while
    (not (Queue.is_empty q))
    && !n < max_nodes
    && List.length !acc < max_complete
  do
    let s = Queue.pop q in
    incr n;
    if Partial.is_complete s then acc := s :: !acc
    else List.iter (fun c -> Queue.add c q) (Enumerate.expand ~guided hints ctx s)
  done;
  List.rev !acc

let check ?(guided = true) ?(max_states = 200) ?(max_pruned = 40)
    ?(max_completion_nodes = 600) ?(max_completions = 80) env ctx ~hints () =
  let violations = ref [] in
  let pruned_checked = ref 0 in
  let seen = Partial.Tbl.create 256 in
  let frontier = Duocore.Frontier.create () in
  Duocore.Frontier.push frontier Partial.root;
  let popped = ref 0 in
  let continue = ref true in
  while !continue && !popped < max_states do
    match Duocore.Frontier.pop frontier with
    | None -> continue := false
    | Some s ->
        incr popped;
        List.iter
          (fun child ->
            match first_failing_stage env child with
            | None ->
                if
                  Partial.Tbl.add seen child
                  && not (Partial.is_complete child)
                then Duocore.Frontier.push frontier child
            | Some "complete" ->
                (* the complete stage IS the ground truth the earlier
                   stages are checked against; nothing to brute-force *)
                ()
            | Some stage when !pruned_checked < max_pruned ->
                incr pruned_checked;
                let comps =
                  completions ~guided ~hints ctx
                    ~max_nodes:max_completion_nodes
                    ~max_complete:max_completions child
                in
                (match
                   List.find_map
                     (fun c -> if accepts env c then Partial.to_query c else None)
                     comps
                 with
                | Some w ->
                    violations :=
                      { vi_state = child; vi_stage = stage; vi_witness = w }
                      :: !violations
                | None -> ())
            | Some _ -> ())
          (Enumerate.expand ~guided hints ctx s)
  done;
  List.rev !violations

let pp_violation fmt v =
  Format.fprintf fmt "stage %s pruned %s, yet completion %s satisfies the TSQ"
    v.vi_stage (Partial.to_string v.vi_state)
    (Duosql.Pretty.query v.vi_witness)

(* --- gold-query derivations ---------------------------------------- *)

exception Unrepresentable

(* Rebuild the enumeration states that derive [q], in decision order, so
   tests can assert that a gold query survives every cascade stage at
   every point of its own derivation.  Returns [None] when the query uses
   features outside the enumeration space (DISTINCT, multi-column GROUP
   BY, several ORDER BY keys, aggregates in WHERE, ...). *)
let derivation_states schema (q : query) : Partial.t list option =
  let after_group (kw : Model.kw_set) =
    if kw.Model.kw_order then Partial.P_order_target else Partial.P_done
  in
  let after_where (kw : Model.kw_set) =
    if kw.Model.kw_group then Partial.P_group_col else after_group kw
  in
  let after_select (kw : Model.kw_set) =
    if kw.Model.kw_where then Partial.P_where_num else after_where kw
  in
  try
    if q.q_distinct then raise Unrepresentable;
    let kw =
      {
        Model.kw_where = q.q_where <> None;
        kw_group = q.q_group_by <> [];
        kw_order = q.q_order_by <> [];
      }
    in
    let slot_of (p : proj) =
      if p.p_distinct then raise Unrepresentable;
      match p.p_col with
      | None ->
          if p.p_agg = Some Count then
            { Partial.pj_target = Model.Target_count_star; pj_agg = Some (Some Count) }
          else raise Unrepresentable
      | Some c -> (
          match Duodb.Schema.find_column schema ~table:c.cr_table c.cr_col with
          | None -> raise Unrepresentable
          | Some col ->
              { Partial.pj_target = Model.Target_column col; pj_agg = Some p.p_agg })
    in
    let slots = List.map slot_of q.q_select in
    let nproj = List.length slots in
    let preds = match q.q_where with None -> [] | Some c -> c.c_preds in
    List.iter (fun p -> if p.pr_agg <> None then raise Unrepresentable) preds;
    let conn = match q.q_where with Some c -> c.c_conn | None -> And in
    let group_col =
      match q.q_group_by with
      | [] -> None
      | [ c ] -> Some c
      | _ -> raise Unrepresentable
    in
    let having_pred =
      match q.q_having with
      | None -> None
      | Some { c_preds = [ p ]; _ } -> Some p
      | Some _ -> raise Unrepresentable
    in
    if having_pred <> None && not kw.Model.kw_group then raise Unrepresentable;
    let order_item, order_dir =
      match q.q_order_by with
      | [] -> (None, Asc)
      | [ o ] -> (Some (o.o_agg, o.o_col), o.o_dir)
      | _ -> raise Unrepresentable
    in
    if q.q_limit <> None && not kw.Model.kw_order then raise Unrepresentable;
    (* the derivation pins the gold join path from the start: every state
       is verified against the relation the probes would really use *)
    let base = { Partial.root with Partial.from = Some q.q_from } in
    let states = ref [ base ] in
    let s = ref { base with Partial.kw; phase = Partial.P_num_proj } in
    let push st = states := st :: !states in
    push !s;
    s := { !s with Partial.nproj; phase = Partial.P_proj_target 0 };
    push !s;
    List.iteri
      (fun i slot ->
        let prev = (!s).Partial.projs in
        (match slot.Partial.pj_target with
        | Model.Target_column _ ->
            (* target decided, aggregate pending *)
            push
              { !s with
                Partial.projs = prev @ [ { slot with Partial.pj_agg = None } ];
                phase = Partial.P_proj_agg i }
        | Model.Target_count_star -> ());
        let next =
          if i + 1 < nproj then Partial.P_proj_target (i + 1)
          else after_select kw
        in
        s := { !s with Partial.projs = prev @ [ slot ]; phase = next };
        push !s)
      slots;
    if kw.Model.kw_where then begin
      let n = List.length preds in
      if n = 0 then raise Unrepresentable;
      s := { !s with Partial.where_n = n; phase = Partial.P_where_col 0 };
      push !s;
      List.iteri
        (fun i p ->
          let next =
            if i + 1 < n then Partial.P_where_col (i + 1)
            else if n >= 2 then Partial.P_where_conn
            else after_where kw
          in
          s :=
            { !s with
              Partial.where_preds = (!s).Partial.where_preds @ [ p ];
              phase = next };
          push !s)
        preds;
      if n >= 2 then begin
        s := { !s with Partial.conn; phase = after_where kw };
        push !s
      end
    end;
    if kw.Model.kw_group then begin
      s := { !s with Partial.group_col; phase = Partial.P_having_presence };
      push !s;
      match having_pred with
      | Some _ ->
          s := { !s with Partial.phase = Partial.P_having_pred };
          push !s;
          s := { !s with Partial.having_pred; phase = after_group kw };
          push !s
      | None ->
          s := { !s with Partial.phase = after_group kw };
          push !s
    end;
    if kw.Model.kw_order then begin
      s := { !s with Partial.order_item; phase = Partial.P_order_dir };
      push !s;
      s := { !s with Partial.order_dir; phase = Partial.P_limit };
      push !s;
      s := { !s with Partial.limit = q.q_limit; phase = Partial.P_done };
      push !s
    end;
    (* sanity: the final state must rebuild the gold query exactly *)
    match Partial.to_query !s with
    | Some q' when Duosql.Equal.queries q q' -> Some (List.rev !states)
    | _ -> None
  with Unrepresentable -> None

(* [gold_survival env schema q] replays [q]'s derivation and returns the
   first (stage, state) pruned by the cascade, or [None] when the gold
   survives end to end — which is what soundness demands whenever the TSQ
   in [env] was synthesized from [q]'s own result. *)
let gold_survival env schema (q : query) =
  match derivation_states schema q with
  | None -> None
  | Some states ->
      List.fold_left
        (fun acc st ->
          match acc with
          | Some _ -> acc
          | None -> (
              match first_failing_stage env st with
              | Some stage -> Some (stage, st)
              | None -> None))
        None states
