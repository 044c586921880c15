module Value = Duodb.Value

type cell =
  | Any
  | Exact of Value.t
  | Range of Value.t * Value.t

type tuple = cell list

type t = {
  types : Duodb.Datatype.t list option;
  tuples : tuple list;
  sorted : bool;
  limit : int;
  negatives : tuple list;
  min_support : int option;
}

let empty =
  { types = None; tuples = []; sorted = false; limit = 0; negatives = [];
    min_support = None }

let make ?types ?(tuples = []) ?(sorted = false) ?(limit = 0) ?(negatives = [])
    ?min_support () =
  { types; tuples; sorted; limit; negatives; min_support }

let required_support t =
  let n = List.length t.tuples in
  match t.min_support with
  | None -> n
  | Some m -> max 0 (min m n)

let add_positive t tuple = { t with tuples = t.tuples @ [ tuple ] }
let add_negative t tuple = { t with negatives = t.negatives @ [ tuple ] }

let cell_matches cell v =
  match cell with
  | Any -> true
  | Exact x -> Value.equal x v
  | Range (lo, hi) ->
      (not (Value.is_null v)) && Value.compare v lo >= 0 && Value.compare v hi <= 0

let tuple_matches tuple row =
  List.length tuple = Array.length row
  && List.for_all2 cell_matches tuple (Array.to_list row)

(* Each example tuple needs a distinct result row (Definition 2.4, item 2):
   backtracking bipartite matching, generalized to "at least [support] of
   the tuples must be assigned" for the noisy-example extension.  Example
   counts are tiny (typically 2), so exhaustive search is fine.

   [tuple_ok] abstracts how a tuple is tested against a row so the
   full-width check and the position-restricted check used on partial
   queries share one matcher and cannot drift. *)
let distinct_match_core ~tuple_ok support tuples rows =
  let rows = Array.of_list rows in
  let n = Array.length rows in
  let total = List.length tuples in
  let rec assign matched skipped used = function
    | [] -> matched >= support
    | tup :: rest ->
        (* can we still reach the target even if everything else fails? *)
        matched + (total - matched - skipped) >= support
        && (let rec try_row i =
              if i >= n then false
              else if (not (List.mem i used)) && tuple_ok tup rows.(i) then
                assign (matched + 1) skipped (i :: used) rest || try_row (i + 1)
              else try_row (i + 1)
            in
            try_row 0
           || assign matched (skipped + 1) used rest)
  in
  support <= 0 || assign 0 0 [] tuples

let distinct_match_atleast support tuples rows =
  distinct_match_core ~tuple_ok:tuple_matches support tuples rows

(* Matching restricted to decided projection positions: [(out_idx,
   cell_idx)] says result column [out_idx] must satisfy example cell
   [cell_idx]; cells beyond a tuple's width are unconstrained. *)
let cells_match_at positions tuple row =
  let cells = Array.of_list tuple in
  List.for_all
    (fun (out_idx, cell_idx) ->
      cell_idx >= Array.length cells || cell_matches cells.(cell_idx) row.(out_idx))
    positions

let distinct_match_on ~support positions tuples rows =
  distinct_match_core ~tuple_ok:(cells_match_at positions) support tuples rows

(* The same verdict from a stream of rows, stopping early.  With [n]
   example tuples, each tuple keeps at most [n] of its matching rows; once
   every tuple holds [n] the rest of the scan cannot change the verdict:
   a tuple matched (in any maximum matching) to a row it did not keep
   holds [n] kept rows, at most [n - 1] of which the other tuples use, so
   it can be moved onto a free one of its own.  Truncation therefore
   keeps the size of the maximum distinct matching, and the backtracking
   core runs over the kept rows only — each recorded as the set of
   still-open tuples it matched. *)
type matcher = {
  m_tuples : cell array array;
  m_at : (int * int) array;
  m_support : int;
  m_kept_per : int array;
  mutable m_open : int;
  m_hits : bool array;
  mutable m_kept : bool array list;
}

let matcher ~support positions tuples =
  let m_tuples = Array.of_list (List.map Array.of_list tuples) in
  let n = Array.length m_tuples in
  { m_tuples; m_at = Array.of_list positions; m_support = support;
    m_kept_per = Array.make n 0; m_open = n; m_hits = Array.make n false;
    m_kept = [] }

let feed m _ read =
  let n = Array.length m.m_tuples in
  let keep = ref false in
  for t = 0 to n - 1 do
    let cells = m.m_tuples.(t) in
    let hit =
      m.m_kept_per.(t) < n
      && Array.for_all
           (fun (out_idx, cell_idx) ->
             cell_idx >= Array.length cells || cell_matches cells.(cell_idx) (read out_idx))
           m.m_at
    in
    m.m_hits.(t) <- hit;
    if hit then keep := true
  done;
  if !keep then begin
    m.m_kept <- Array.copy m.m_hits :: m.m_kept;
    for t = 0 to n - 1 do
      if m.m_hits.(t) then begin
        m.m_kept_per.(t) <- m.m_kept_per.(t) + 1;
        if m.m_kept_per.(t) = n then m.m_open <- m.m_open - 1
      end
    done
  end;
  m.m_open > 0

let matched m =
  distinct_match_core
    ~tuple_ok:(fun t hits -> hits.(t))
    m.m_support
    (List.init (Array.length m.m_tuples) Fun.id)
    (List.rev m.m_kept)

(* Order-preserving variant (Definition 2.4, item 3): example tuples must
   match result rows at strictly increasing indices, in the order the
   examples were given; at least [support] of them under noise tolerance. *)
let ordered_match_atleast support tuples rows =
  let rows = Array.of_list rows in
  let n = Array.length rows in
  let total = List.length tuples in
  let rec assign matched skipped from = function
    | [] -> matched >= support
    | tup :: rest ->
        matched + (total - matched - skipped) >= support
        && (let rec try_row i =
              if i >= n then false
              else if tuple_matches tup rows.(i) then
                assign (matched + 1) skipped (i + 1) rest || try_row (i + 1)
              else try_row (i + 1)
            in
            try_row from
           || assign matched (skipped + 1) from rest)
  in
  support <= 0 || assign 0 0 0 tuples



let clause_ok t q =
  let open Duosql.Ast in
  (* tau obliges an ORDER BY clause and k a LIMIT clause (Example 3.3).
     The implications only run one way: an unchecked sorted box means
     "no order constraint", not "must be unordered" — Definition 2.4
     constrains the result order only when tau holds. *)
  ((not t.sorted) || q.q_order_by <> [])
  && (if t.limit = 0 then q.q_limit = None
      else match q.q_limit with Some n -> n <= t.limit | None -> false)

let types_ok t (tys : Duodb.Datatype.t list) =
  match t.types with
  | None -> true
  | Some want -> List.length want = List.length tys && List.for_all2 Duodb.Datatype.equal want tys

let widths_ok tuples ncols = List.for_all (fun tup -> List.length tup = ncols) tuples

let satisfies_result t q (res : (Duoengine.Executor.resultset, string) result) =
  clause_ok t q
  &&
  match res with
  | Error _ -> false
  | Ok res ->
      let cols = res.Duoengine.Executor.res_cols
      and rows = res.Duoengine.Executor.res_rows in
      let ncols = List.length cols in
      let tuples_ok =
        t.tuples = []
        || widths_ok t.tuples ncols
           &&
           let support = required_support t in
           if t.sorted && List.length t.tuples >= 2 then
             ordered_match_atleast support t.tuples rows
           else distinct_match_atleast support t.tuples rows
      in
      let negatives_ok =
        List.for_all
          (fun neg -> List.length neg = ncols && not (List.exists (tuple_matches neg) rows))
          t.negatives
      in
      let limit_ok = t.limit = 0 || List.length rows <= t.limit in
      types_ok t (List.map snd cols) && tuples_ok && negatives_ok && limit_ok

(* A plain query under an unsorted sketch with tuples and no negatives
   needs only the distinct-match verdict (its clauses rule out LIMIT),
   so its rows stream through the matcher and nothing is materialized.
   The relation is built either way — a failed header check still
   executes, so relation-cache accounting matches the materializing
   path — but then the scan stops at once. *)
let satisfies ?cache ?max_rows ?(on_early_stop = ignore) t db q =
  clause_ok t q
  &&
  if
    Duoengine.Executor.is_plain q && t.tuples <> [] && t.negatives = []
    && not t.sorted
  then begin
    let ncols = List.length q.Duosql.Ast.q_select in
    let header_ok =
      widths_ok t.tuples ncols
      && match Duoengine.Executor.output_types db q with
         | Ok tys -> types_ok t tys
         | Error _ -> false
    in
    let m =
      matcher ~support:(required_support t) (List.init ncols (fun j -> (j, j))) t.tuples
    in
    let visit = if header_ok then feed m else fun _ _ -> false in
    match Duoengine.Executor.stream ?cache ?max_rows db q visit with
    | Error _ -> false
    | Ok stopped ->
        header_ok
        && begin
             if stopped then on_early_stop ();
             matched m
           end
  end
  else satisfies_result t q (Duoengine.Executor.run ?cache ?max_rows db q)

let num_tuples t = List.length t.tuples

let width t =
  match t.types with
  | Some tys -> Some (List.length tys)
  | None -> (
      match t.tuples with
      | tup :: _ -> Some (List.length tup)
      | [] -> None)

type refinement = Tightening | Incomparable

(* [xs] appears in [ys] in order (not necessarily contiguously). *)
let rec subsequence xs ys =
  match (xs, ys) with
  | [], _ -> true
  | _ :: _, [] -> false
  | x :: xs', y :: ys' ->
      if x = y then subsequence xs' ys' else subsequence xs ys'

let refines ~old ~new_ =
  (* Tightening must guarantee two things at once: (a) every cascade
     stage is monotone — a state failing under [old] also fails under
     [new_] — and (b) the guidance hints derived from the sketch header
     (types, width, limit) are unchanged, so a rebased run expands and
     scores exactly like a from-root run.  Header edits are therefore
     Incomparable even when they logically restrict the query set. *)
  let header_fixed =
    old.types = new_.types && old.limit = new_.limit
    && width old = width new_
  in
  (* With a partial support threshold, adding a tuple is NOT a
     tightening: a result matching only the new tuple can satisfy
     [new_] yet fail [old].  Extending the example list is only safe
     when both sketches demand every tuple. *)
  let tuples_tighten =
    if old.tuples = new_.tuples then
      required_support new_ >= required_support old
    else
      subsequence old.tuples new_.tuples
      && required_support old = List.length old.tuples
      && required_support new_ = List.length new_.tuples
  in
  let negatives_tighten =
    List.for_all (fun n -> List.mem n new_.negatives) old.negatives
  in
  let sorted_tighten = (not old.sorted) || new_.sorted in
  if header_fixed && tuples_tighten && negatives_tighten && sorted_tighten
  then Tightening
  else Incomparable

let pp_cell ppf = function
  | Any -> Format.pp_print_string ppf "_"
  | Exact v -> Value.pp ppf v
  | Range (lo, hi) -> Format.fprintf ppf "[%a,%a]" Value.pp lo Value.pp hi

let pp ppf t =
  Format.fprintf ppf "@[<v>TSQ{";
  (match t.types with
  | None -> Format.fprintf ppf " types=?;"
  | Some tys ->
      Format.fprintf ppf " types=(%s);"
        (String.concat "," (List.map Duodb.Datatype.to_string tys)));
  List.iter
    (fun tup ->
      Format.fprintf ppf "@, (%s)"
        (String.concat ", "
           (List.map (fun c -> Format.asprintf "%a" pp_cell c) tup)))
    t.tuples;
  List.iter
    (fun tup ->
      Format.fprintf ppf "@, NOT (%s)"
        (String.concat ", "
           (List.map (fun c -> Format.asprintf "%a" pp_cell c) tup)))
    t.negatives;
  Format.fprintf ppf "@, sorted=%b limit=%d%s }@]" t.sorted t.limit
    (match t.min_support with
    | None -> ""
    | Some m -> Printf.sprintf " support>=%d" m)
