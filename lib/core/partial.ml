open Duosql.Ast

type phase =
  | P_keywords
  | P_num_proj
  | P_proj_target of int
  | P_proj_agg of int
  | P_where_num
  | P_where_col of int
  | P_where_op of int
  | P_where_conn
  | P_group_col
  | P_having_presence
  | P_having_pred
  | P_order_target
  | P_order_dir
  | P_limit
  | P_done
  | P_joinpath of phase

type proj_slot = {
  pj_target : Duoguide.Model.col_target;
  pj_agg : Duosql.Ast.agg option option;
}

type t = {
  phase : phase;
  kw : Duoguide.Model.kw_set;
  nproj : int;
  projs : proj_slot list;
  where_n : int;
  where_preds : pred list;
  where_pending : Duodb.Schema.column option;
  conn : connective;
  group_col : col_ref option;
  having_pred : pred option;
  order_item : (agg option * col_ref option) option;
  order_dir : dir;
  limit : int option;
  from : from_clause option;
  confidence : float;
  depth : int;
}

let root =
  {
    phase = P_keywords;
    kw = { Duoguide.Model.kw_where = false; kw_group = false; kw_order = false };
    nproj = 0;
    projs = [];
    where_n = 0;
    where_preds = [];
    where_pending = None;
    conn = And;
    group_col = None;
    having_pred = None;
    order_item = None;
    order_dir = Asc;
    limit = None;
    from = None;
    confidence = 1.0;
    depth = 0;
  }

let is_complete t = t.phase = P_done

let target_col = function
  | Duoguide.Model.Target_column c -> Some c
  | Duoguide.Model.Target_count_star -> None

let col_ref_of_column c =
  col c.Duodb.Schema.col_table c.Duodb.Schema.col_name

let proj_of_slot slot =
  match slot.pj_target, slot.pj_agg with
  | Duoguide.Model.Target_count_star, _ -> Some count_star
  | Duoguide.Model.Target_column c, Some agg ->
      Some { p_agg = agg; p_col = Some (col_ref_of_column c); p_distinct = false }
  | Duoguide.Model.Target_column _, None -> None

let to_query t =
  if not (is_complete t) then None
  else
    match t.from with
    | None -> None
    | Some from ->
        let projs = List.filter_map proj_of_slot t.projs in
        if List.length projs <> List.length t.projs then None
        else
          let where =
            match t.where_preds with
            | [] -> None
            | preds -> Some { c_preds = preds; c_conn = t.conn }
          in
          let having =
            Option.map (fun p -> { c_preds = [ p ]; c_conn = And }) t.having_pred
          in
          let order_by =
            match t.order_item with
            | None -> []
            | Some (agg, col) -> [ { o_agg = agg; o_col = col; o_dir = t.order_dir } ]
          in
          Some
            {
              q_distinct = false;
              q_select = projs;
              q_from = from;
              q_where = where;
              q_group_by = Option.to_list t.group_col;
              q_having = having;
              q_order_by = order_by;
              q_limit = t.limit;
            }

let referenced_tables t =
  let cols =
    List.filter_map (fun s -> target_col s.pj_target) t.projs
    |> List.map col_ref_of_column
  in
  let where_cols =
    List.filter_map (fun p -> p.pr_col) t.where_preds
    @ (match t.where_pending with
      | Some c -> [ col_ref_of_column c ]
      | None -> [])
  in
  let having_cols =
    Option.fold ~none:[] ~some:(fun p -> Option.to_list p.pr_col) t.having_pred
  in
  let order_cols =
    Option.fold ~none:[] ~some:(fun (_, c) -> Option.to_list c) t.order_item
  in
  let all = cols @ where_cols @ Option.to_list t.group_col @ having_cols @ order_cols in
  List.sort_uniq String.compare (List.map (fun c -> c.cr_table) all)

let decided_projections t =
  List.map (fun s -> (s.pj_agg, target_col s.pj_target)) t.projs

let used_literals t =
  List.concat_map
    (fun p ->
      match p.pr_rhs with
      | Cmp (_, v) -> [ v ]
      | Between (lo, hi) -> [ lo; hi ])
    (t.where_preds @ Option.to_list t.having_pred)

let to_string t =
  let slot_str s =
    match proj_of_slot s with
    | Some p -> Duosql.Pretty.proj p
    | None -> (
        match target_col s.pj_target with
        | Some c -> Printf.sprintf "?(%s.%s)" c.Duodb.Schema.col_table c.Duodb.Schema.col_name
        | None -> "?")
  in
  let select =
    match t.projs with
    | [] -> "?"
    | slots ->
        let holes = max 0 (t.nproj - List.length slots) in
        String.concat ", " (List.map slot_str slots @ List.init holes (fun _ -> "?"))
  in
  let from =
    match t.from with
    | Some f -> Duosql.Pretty.from_clause f
    | None -> "?"
  in
  let buf = Buffer.create 64 in
  Buffer.add_string buf (Printf.sprintf "SELECT %s FROM %s" select from);
  if t.kw.Duoguide.Model.kw_where && t.phase <> P_keywords then begin
    let preds = List.map Duosql.Pretty.pred t.where_preds in
    let holes = max 0 (t.where_n - List.length preds) in
    let conn = match t.conn with And -> " AND " | Or -> " OR " in
    Buffer.add_string buf
      (" WHERE " ^ String.concat conn (preds @ List.init holes (fun _ -> "?")))
  end;
  if t.kw.Duoguide.Model.kw_group && t.phase <> P_keywords then
    Buffer.add_string buf
      (match t.group_col with
      | Some c -> " GROUP BY " ^ Duosql.Pretty.col_ref c
      | None -> " GROUP BY ?");
  Option.iter (fun p -> Buffer.add_string buf (" HAVING " ^ Duosql.Pretty.pred p)) t.having_pred;
  if t.kw.Duoguide.Model.kw_order && t.phase <> P_keywords then
    Buffer.add_string buf
      (match t.order_item with
      | Some (agg, c) ->
          " ORDER BY "
          ^ Duosql.Pretty.order_item { o_agg = agg; o_col = c; o_dir = t.order_dir }
      | None -> " ORDER BY ?");
  Option.iter (fun n -> Buffer.add_string buf (Printf.sprintf " LIMIT %d" n)) t.limit;
  Buffer.contents buf

let rec phase_index = function
  | P_joinpath inner -> 1000 + phase_index inner
  | P_keywords -> 0
  | P_num_proj -> 1
  | P_proj_target i -> 100 + i
  | P_proj_agg i -> 200 + i
  | P_where_num -> 2
  | P_where_col i -> 300 + i
  | P_where_op i -> 400 + i
  | P_where_conn -> 3
  | P_group_col -> 4
  | P_having_presence -> 5
  | P_having_pred -> 6
  | P_order_target -> 7
  | P_order_dir -> 8
  | P_limit -> 9
  | P_done -> 10

let key t =
  Printf.sprintf "%d|%d|%d|%s|%b%b%b|%s|%s"
    (phase_index t.phase) t.nproj t.where_n
    (match t.conn with And -> "&" | Or -> "|")
    t.kw.Duoguide.Model.kw_where t.kw.Duoguide.Model.kw_group
    t.kw.Duoguide.Model.kw_order
    (match t.where_pending with
    | Some c -> c.Duodb.Schema.col_table ^ "." ^ c.Duodb.Schema.col_name
    | None -> "")
    (to_string t)

let rec progress = function
  | P_joinpath inner -> progress inner
  | P_keywords -> 0
  | P_num_proj | P_proj_target _ | P_proj_agg _ -> 1
  | P_where_num | P_where_col _ | P_where_op _ | P_where_conn -> 2
  | P_group_col -> 3
  | P_having_presence | P_having_pred -> 4
  | P_order_target | P_order_dir -> 5
  | P_limit -> 6
  | P_done -> 7

(* Interval-folding the conjuncts is only meaning-preserving when the
   predicate set is conjunctive and settled; otherwise fall back to
   sorting, which is sound under either connective (commutativity and
   idempotence).  FROM and the join path stay verbatim: their order can
   steer executor row order, which a sorted sketch observes. *)
let fold_ok t =
  match t.where_preds with
  | [] | [ _ ] -> true
  | _ :: _ :: _ -> progress t.phase > 2 && t.conn = And

(* A list with an exact duplicate conjunct is only sorted, duplicates
   kept: the semantics stage rejects it and accepts its deduplicated
   twins ([x < 3 AND y < 2 AND x < 3] against [x < 3 AND y < 2 AND
   y < 3], which folds alike and uses the same literals), and a state's
   deferred verdict must be constant on its canonical partition. *)
let canonical_where t =
  let rec distinct = function
    | [] -> true
    | p :: rest ->
        (not (List.exists (Duosql.Ast.equal_pred p) rest)) && distinct rest
  in
  if not (distinct t.where_preds) then
    List.sort (fun a b -> String.compare (Duosql.Pretty.pred a) (Duosql.Pretty.pred b)) t.where_preds
  else if fold_ok t then Duolint.Duosem.canonical_conjuncts t.where_preds
  else Duolint.Duosem.sorted_preds t.where_preds

let canonical_having = function
  | None -> None
  | Some p as having -> (
      match Duolint.Duosem.canonical_conjuncts [ p ] with
      | [ p' ] -> Some p'
      | [] | _ :: _ :: _ -> having)

(* The state with its WHERE/HAVING in Duosem normal form. *)
let canonical_form t =
  { t with where_preds = canonical_where t; having_pred = canonical_having t.having_pred }

let canonical_key t =
  (* Folding can erase which tagged literals the state consumed (x > 3
     AND x > 5 folds like x > 4 AND x > 5), and the complete-stage
     literal check observes exactly that — so the key carries the used
     literal multiset verbatim. *)
  let lits =
    used_literals t
    |> List.map Duodb.Value.to_sql
    |> List.sort String.compare
    |> String.concat ","
  in
  Printf.sprintf "%d|%d|%d|%s|%b%b%b|%s|%s|%s"
    (phase_index t.phase) t.nproj t.where_n
    (match t.conn with And -> "&" | Or -> "|")
    t.kw.Duoguide.Model.kw_where t.kw.Duoguide.Model.kw_group
    t.kw.Duoguide.Model.kw_order
    (match t.where_pending with
    | Some c -> c.Duodb.Schema.col_table ^ "." ^ c.Duodb.Schema.col_name
    | None -> "")
    lits
    (to_string (canonical_form t))

(* --- render-free identity ------------------------------------------------

   [key_hash] hashes exactly what [key] prints, token by token, without
   printing it: the same fields under the same guards (WHERE only past
   P_keywords and when chosen, the direction only beside an ORDER BY
   item, ...), and the printer's lossy spots normalized — an integral
   float prints like the int it equals, any other float is hashed through
   its printed form, and FROM is hashed in the order [Pretty.from_clause]
   emits it, not in list order.  So [key a = key b] implies
   [key_hash a = key_hash b], given identifiers that print as single
   tokens (no separators in table or column names). *)

let mix h x =
  let h = (h lxor x) * 0x2127599bf4325c37 in
  h lxor (h lsr 29)

let mix_str h s = mix h (Hashtbl.hash (s : string))
let mix_col h table name = mix_str (mix_str h table) name
let mix_ref h c = mix_col h c.cr_table c.cr_col

let agg_code = function
  | Count -> 1
  | Sum -> 2
  | Avg -> 3
  | Min -> 4
  | Max -> 5

let cmp_code = function
  | Eq -> 1
  | Neq -> 2
  | Lt -> 3
  | Le -> 4
  | Gt -> 5
  | Ge -> 6
  | Like -> 7
  | Not_like -> 8

let mix_value h (v : Duodb.Value.t) =
  match v with
  | Duodb.Value.Null -> mix h 11
  | Duodb.Value.Int i -> mix (mix h 12) i
  | Duodb.Value.Float f when Float.is_integer f && Float.abs f < 1e15 ->
      mix (mix h 12) (int_of_float f)
  | Duodb.Value.Float _ -> mix_str (mix h 13) (Duodb.Value.to_sql v)
  | Duodb.Value.Text s -> mix_str (mix h 14) s

let mix_agg h = function None -> mix h 21 | Some a -> mix h (21 + agg_code a)

(* [Pretty.agg_arg] / [pred_lhs] / [order_item]'s left-hand side *)
let mix_lhs h agg col =
  let h = mix_agg h agg in
  match col with None -> mix h 27 | Some c -> mix_ref h c

let mix_pred h p =
  let h = mix_lhs h p.pr_agg p.pr_col in
  match p.pr_rhs with
  | Cmp (op, v) -> mix_value (mix h (30 + cmp_code op)) v
  | Between (lo, hi) -> mix_value (mix_value (mix h 39) lo) hi

let rec mix_list f h = function
  | [] -> mix h 41
  | x :: rest -> mix_list f (f h x) rest

let mix_slot h s =
  match s.pj_target, s.pj_agg with
  | Duoguide.Model.Target_count_star, _ -> mix h 51
  | Duoguide.Model.Target_column c, None ->
      mix_col (mix h 52) c.Duodb.Schema.col_table c.Duodb.Schema.col_name
  | Duoguide.Model.Target_column c, Some agg ->
      mix_col (mix_agg (mix h 53) agg) c.Duodb.Schema.col_table c.Duodb.Schema.col_name

(* [Pretty.from_clause] emits the first table, then repeatedly the first
   unconsumed join edge (in list order) with exactly one end emitted; when
   there is none, or it leads outside the pending tables, the pending
   tables follow bare.  [mix_walk] replays that walk over bitmasks of
   list positions instead of lists, so it allocates nothing. *)
let rec has_name mask name i = function
  | [] -> false
  | t :: rest ->
      (mask land (1 lsl i) <> 0 && String.equal t name) || has_name mask name (i + 1) rest

let rec positions_of name i = function
  | [] -> 0
  | t :: rest -> (if String.equal t name then 1 lsl i else 0) lor positions_of name (i + 1) rest

let rec positions_of_edge e i = function
  | [] -> 0
  | e' :: rest -> (if e' == e then 1 lsl i else 0) lor positions_of_edge e (i + 1) rest

let rec next_edge tables seen used i = function
  | [] -> -1
  | e :: rest ->
      if
        used land (1 lsl i) = 0
        && has_name seen e.j_from.cr_table 0 tables <> has_name seen e.j_to.cr_table 0 tables
      then i
      else next_edge tables seen used (i + 1) rest

let rec mix_bare h pending i = function
  | [] -> h
  | t :: rest ->
      mix_bare (if pending land (1 lsl i) <> 0 then mix_str (mix h 62) t else h) pending (i + 1) rest

let rec mix_walk h tables joins seen pending used =
  if pending = 0 then h
  else
    let i = next_edge tables seen used 0 joins in
    if i < 0 then mix_bare h pending 0 tables
    else
      let e = List.nth joins i in
      let next =
        if has_name seen e.j_from.cr_table 0 tables then e.j_to.cr_table else e.j_from.cr_table
      in
      if not (has_name pending next 0 tables) then mix_bare h pending 0 tables
      else
        let named = positions_of next 0 tables in
        mix_walk
          (mix_ref (mix_ref (mix_str (mix h 61) next) e.j_from) e.j_to)
          tables joins (seen lor named) (pending land lnot named)
          (used lor positions_of_edge e 0 joins)

let mix_from h f =
  match f.f_tables with
  | [] -> h
  | first :: _ when List.length f.f_tables > 62 || List.length f.f_joins > 62 ->
      mix_str (mix_str h first) (Duosql.Pretty.from_clause f)
  | first :: _ as tables ->
      let all = (1 lsl List.length tables) - 1 in
      mix_walk (mix_str h first) tables f.f_joins 1 (all land lnot 1) 0

(* Clause hashes, each from a fixed seed so that a table can memoize it
   per clause value: siblings physically share every clause their
   parent decided ([{ p with ... }] copies the pointers). *)
let pending_hash = function
  | Some c -> mix_col 71 c.Duodb.Schema.col_table c.Duodb.Schema.col_name
  | None -> 72

let projs_hash = function [] -> 73 | projs -> mix_list mix_slot 0 projs
let from_hash = function Some f -> mix_from 74 f | None -> 75
let preds_hash preds = mix_list mix_pred 76 preds
let group_hash = function Some c -> mix_ref 77 c | None -> 78
let having_hash = function Some p -> mix_pred 79 p | None -> 0
let order_hash = function Some (agg, c) -> mix_lhs 80 agg c | None -> 81

let combine t ~pending_h ~projs_h ~from_h ~where_h ~group_h ~having_h ~order_h =
  let kw = t.kw in
  let decided = t.phase <> P_keywords in
  let h = mix 0 (phase_index t.phase) in
  let h = mix (mix h t.nproj) t.where_n in
  let h = mix h (match t.conn with And -> 1 | Or -> 2) in
  let h =
    mix h
      ((if kw.Duoguide.Model.kw_where then 1 else 0)
      + (if kw.Duoguide.Model.kw_group then 2 else 0)
      + if kw.Duoguide.Model.kw_order then 4 else 0)
  in
  (* SELECT: "?" when no slot is decided, else the slots (the holes
     follow from [nproj]) *)
  let h = mix (mix (mix h pending_h) projs_h) from_h in
  let h = if kw.Duoguide.Model.kw_where && decided then mix h where_h else h in
  let h = if kw.Duoguide.Model.kw_group && decided then mix h group_h else h in
  let h = mix h having_h in
  let h =
    if kw.Duoguide.Model.kw_order && decided then
      match t.order_item with
      | Some _ -> mix (mix h order_h) (match t.order_dir with Asc -> 1 | Desc -> 2)
      | None -> mix h order_h
    else h
  in
  match t.limit with Some n -> mix (mix h 82) n | None -> h

let key_hash t =
  combine t ~pending_h:(pending_hash t.where_pending) ~projs_h:(projs_hash t.projs)
    ~from_h:(from_hash t.from) ~where_h:(preds_hash t.where_preds)
    ~group_h:(group_hash t.group_col) ~having_h:(having_hash t.having_pred)
    ~order_h:(order_hash t.order_item)

(* The used-literal multiset, hashed order-independently (a sum), with
   [Int 3] and [Float 3.0] alike as their printed forms are. *)
let literal_hash acc (v : Duodb.Value.t) = acc + mix_value 91 v

let pred_literals_hash acc p =
  match p.pr_rhs with
  | Cmp (_, v) -> literal_hash acc v
  | Between (lo, hi) -> literal_hash (literal_hash acc lo) hi

let with_literals t ~where_lits h =
  mix h (match t.having_pred with Some p -> pred_literals_hash where_lits p | None -> where_lits)

let canonical_hash t =
  with_literals t ~where_lits:(List.fold_left pred_literals_hash 0 t.where_preds)
    (combine t ~pending_h:(pending_hash t.where_pending) ~projs_h:(projs_hash t.projs)
       ~from_h:(from_hash t.from) ~where_h:(preds_hash (canonical_where t))
       ~group_h:(group_hash t.group_col)
       ~having_h:(having_hash (canonical_having t.having_pred))
       ~order_h:(order_hash t.order_item))

(* Field-wise equality of everything [key] prints: [true] implies
   [key a = key b]; [false] can still mean equal keys (the printer's
   lossy spots, or fields [key] ignores like a COUNT( * ) slot's
   aggregate decision), which [Tbl] settles by printing.  Without
   [from], FROM is left out. *)
let equal_fields ~from a b =
  a == b
  || a.phase = b.phase && a.nproj = b.nproj && a.where_n = b.where_n
     && a.conn = b.conn && a.kw = b.kw
     && (a.projs == b.projs || a.projs = b.projs)
     && ((not from) || a.from == b.from || a.from = b.from)
     && (a.where_preds == b.where_preds || a.where_preds = b.where_preds)
     && a.where_pending = b.where_pending
     && a.group_col = b.group_col && a.having_pred = b.having_pred
     && a.order_item = b.order_item
     && (a.order_item = None || a.order_dir = b.order_dir)
     && a.limit = b.limit

let equal_rendered a b = equal_fields ~from:true a b

(* Equal literal multisets (compared like [equal_rendered] compares
   predicates). *)
let same_literals a b =
  List.sort compare (used_literals a) = List.sort compare (used_literals b)

(* --- sets over state partitions -------------------------------------------

   Open addressing with linear probing: the full hash of each entry in
   an int array beside the state array, so an entry costs two words and
   no bucket, cons cell or tuple, and a probe reads the state only on a
   hash match.  Hash 0 marks a free slot (a real 0 is stored as 1).
   Each set keeps one-slot memos of the clause hashes keyed on physical
   identity: siblings share the clauses their parent decided, so a
   child re-hashes only the clause it changed.  The memos belong to the
   set, so sets on different domains or sessions never share one. *)

type 'k memo = { mutable m_key : 'k; mutable m_hash : int }

let memo m k f =
  if m.m_key == k then m.m_hash
  else begin
    let h = f k in
    m.m_key <- k;
    m.m_hash <- h;
    h
  end

let memo_of f k = { m_key = k; m_hash = f k }

type set = {
  keyed_from : bool;  (* whether FROM is part of the partition *)
  mutable hashes : int array;
  mutable states : t array;
  mutable count : int;
  mutable renders : int;
  m_pending : Duodb.Schema.column option memo;
  m_projs : proj_slot list memo;
  m_from : from_clause option memo;
  m_where : pred list memo;
  m_group : col_ref option memo;
  m_having : pred option memo;
  m_order : (agg option * col_ref option) option memo;
}

let set ?(from = true) n =
  let rec pow2 c = if c >= 2 * n then c else pow2 (2 * c) in
  let cap = pow2 16 in
  {
    keyed_from = from;
    hashes = Array.make cap 0;
    states = Array.make cap root;
    count = 0;
    renders = 0;
    m_pending = memo_of pending_hash None;
    m_projs = memo_of projs_hash [];
    m_from = memo_of from_hash None;
    m_where = memo_of preds_hash [];
    m_group = memo_of group_hash None;
    m_having = memo_of having_hash None;
    m_order = memo_of order_hash None;
  }

(* [combine] with the clause hashes from the set's memos; [where_h] and
   [having_h] are the caller's. *)
let memo_combine m t ~where_h ~having_h =
  combine t
    ~pending_h:(memo m.m_pending t.where_pending pending_hash)
    ~projs_h:(memo m.m_projs t.projs projs_hash)
    ~from_h:(if m.keyed_from then memo m.m_from t.from from_hash else from_hash None)
    ~where_h
    ~group_h:(memo m.m_group t.group_col group_hash)
    ~having_h
    ~order_h:(memo m.m_order t.order_item order_hash)

let grow m =
  let hashes = m.hashes and states = m.states in
  let cap = 2 * Array.length states in
  let mask = cap - 1 in
  m.hashes <- Array.make cap 0;
  m.states <- Array.make cap root;
  Array.iteri
    (fun j h ->
      if h <> 0 then begin
        let rec free i = if m.hashes.(i) = 0 then i else free ((i + 1) land mask) in
        let i = free (h land mask) in
        m.hashes.(i) <- h;
        m.states.(i) <- states.(j)
      end)
    hashes

(* Probe from slot [i] for [st] (hash [h]): a top-level function, so an
   add allocates no closure. *)
let rec probe m same st h i =
  let hi = m.hashes.(i) in
  if hi = 0 then begin
    m.hashes.(i) <- h;
    m.states.(i) <- st;
    m.count <- m.count + 1;
    if 2 * m.count > Array.length m.hashes then grow m;
    true
  end
  else if hi = h && same m st m.states.(i) then false
  else probe m same st h ((i + 1) land (Array.length m.hashes - 1))

(* Add [st] unless a member is [same] as it; [true] when it was added. *)
let add m same st h =
  let h = if h = 0 then 1 else h in
  probe m same st h (h land (Array.length m.hashes - 1))

let take_renders m =
  let n = m.renders in
  m.renders <- 0;
  n

(* A set over [key]'s partition, probed without printing: only states
   with equal [key_hash]es are compared, and only those that are not
   field-wise equal print their keys.  Without FROM, states are hashed,
   compared and printed as if their FROM were [None]. *)
module Tbl = struct
  type t = set

  let create = set

  let same m a b =
    let from = m.keyed_from in
    equal_fields ~from a b
    || begin
         m.renders <- m.renders + 2;
         if from then String.equal (key a) (key b)
         else String.equal (key { a with from = None }) (key { b with from = None })
       end

  let add m st =
    add m same st
      (memo_combine m st
         ~where_h:(memo m.m_where st.where_preds preds_hash)
         ~having_h:(memo m.m_having st.having_pred having_hash))

  let take_renders = take_renders
end

(* The canonical layer's set: [canonical_key]'s partition, hashed with
   [canonical_hash] through memos of the canonical WHERE (keyed on the
   predicate list and whether it may fold) and HAVING.  Only states whose
   hashes are equal are compared, structurally on their canonical forms
   and literal multisets; only those that still differ print their
   canonical keys. *)
module Canon = struct
  type state = t

  type t = {
    set : set;
    mutable cw_key : pred list;
    mutable cw_fold : bool;
    mutable cw_hash : int;
    mutable cw_lits : int;
    cw_having : pred option memo;
  }

  let create n =
    {
      set = set n;
      cw_key = [];
      cw_fold = true;
      cw_hash = preds_hash [];
      cw_lits = 0;
      cw_having = memo_of having_hash None;
    }

  let canonical_having_hash p = having_hash (canonical_having p)

  let hash c (st : state) =
    let fold = fold_ok st in
    if not (c.cw_key == st.where_preds && Bool.equal c.cw_fold fold) then begin
      c.cw_key <- st.where_preds;
      c.cw_fold <- fold;
      c.cw_hash <- preds_hash (canonical_where st);
      c.cw_lits <- List.fold_left pred_literals_hash 0 st.where_preds
    end;
    with_literals st ~where_lits:c.cw_lits
      (memo_combine c.set st ~where_h:c.cw_hash
         ~having_h:(memo c.cw_having st.having_pred canonical_having_hash))

  let same m a b =
    (equal_rendered (canonical_form a) (canonical_form b) && same_literals a b)
    || begin
         m.renders <- m.renders + 2;
         String.equal (canonical_key a) (canonical_key b)
       end

  let add c st = add c.set same st (hash c st)
  let take_renders c = take_renders c.set
end

let has_predicates t = t.where_preds <> [] || Option.is_some t.having_pred

let join_length t =
  match t.from with
  | None -> 0
  | Some f -> List.length f.f_joins

let compare_priority (a, seq_a) (b, seq_b) =
  let c = Float.compare b.confidence a.confidence in
  if c <> 0 then c
  else
    let c = Int.compare (join_length a) (join_length b) in
    if c <> 0 then c else Int.compare seq_a seq_b
