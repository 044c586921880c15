type kw_set = {
  kw_where : bool;
  kw_group : bool;
  kw_order : bool;
}

type col_target =
  | Target_column of Duodb.Schema.column
  | Target_count_star

type op_shape =
  | Shape_cmp of Duosql.Ast.cmp
  | Shape_between

(* Lexicon evidence read off the NLQ (see {!Hints}); the operator and
   OR signals read every word, the rest the content words. *)
type signals = {
  sg_agg : float * float * float * float * float * float;
  sg_op : float array;
  sg_where : float;
  sg_group : float;
  sg_order : float;
  sg_or : float;
  sg_having : float;
  sg_desc : float;
  sg_limit : float;
  sg_between : float;
}

let signals_of ~words ~all_words =
  {
    sg_agg = Hints.agg_signals words;
    sg_op = Hints.op_signals all_words;
    sg_where = Hints.where_signal words;
    sg_group = Hints.group_signal words;
    sg_order = Hints.order_signal words;
    sg_or = Hints.or_signal all_words;
    sg_having = Hints.having_signal words;
    sg_desc = Hints.descending_signal words;
    sg_limit = Hints.limit_signal words;
    sg_between = Hints.count_matches words [ "between"; "within" ];
  }

(* One decision's distribution, as the enumerator indexes it. *)
type 'a dist = {
  d_items : 'a array;
  d_probs : float array;
  d_order : int array;
}

(* Indices by probability, highest first, ties in index order. *)
let best_first probs =
  let order = Array.init (Array.length probs) Fun.id in
  Array.stable_sort (fun i j -> Float.compare probs.(j) probs.(i)) order;
  order

let of_pairs pairs =
  let a = Array.of_list pairs in
  let d_probs = Array.map snd a in
  { d_items = Array.map fst a; d_probs; d_order = best_first d_probs }

let to_list d = List.combine (Array.to_list d.d_items) (Array.to_list d.d_probs)

let uniform d =
  match Array.length d.d_items with
  | 0 -> d
  | n ->
      { d with
        d_probs = Array.make n (1.0 /. float_of_int n);
        d_order = Array.init n Fun.id }

let renormalized pairs =
  let total = List.fold_left (fun acc (_, p) -> acc +. p) 0.0 pairs in
  if total <= 0.0 then of_pairs pairs
  else of_pairs (List.map (fun (x, p) -> (x, p /. total)) pairs)

let ty_index = function Duodb.Datatype.Text -> 0 | Duodb.Datatype.Number -> 1
let all_types = [| Duodb.Datatype.Text; Duodb.Datatype.Number |]

(* [aggregates] distributions by (column type, annotated output type) *)
let agg_slot ty out =
  (3 * ty_index ty) + match out with None -> 0 | Some o -> 1 + ty_index o

let equal_column (a : Duodb.Schema.column) (b : Duodb.Schema.column) =
  String.equal a.Duodb.Schema.col_table b.Duodb.Schema.col_table
  && String.equal a.Duodb.Schema.col_name b.Duodb.Schema.col_name

(* Schema columns to their positions. *)
module Col_tbl = Hashtbl.Make (struct
  type t = Duodb.Schema.column

  let equal = equal_column

  let hash (c : t) =
    Hashtbl.seeded_hash (Hashtbl.hash c.Duodb.Schema.col_table) c.Duodb.Schema.col_name
end)

(* Memo tables keyed by column positions and small ints. *)
module Key_tbl = Hashtbl.Make (struct
  type t = int list

  let equal = List.equal Int.equal
  let hash = Hashtbl.hash
end)

type ctx = {
  c_schema : Duodb.Schema.t;
  c_nlq : Duonl.Nlq.t;
  c_temperature : float;
  c_words : string list;  (* stemmed content words *)
  (* the schema's columns, a column's position being its index, and the
     per-column evidence by position, computed once *)
  c_columns : Duodb.Schema.column array;
  c_positions : int Col_tbl.t;
  c_similarity : float array;
  c_base_scores : float array;
  c_where_scores : float array;
  (* the NLQ's lexicon evidence and the distributions of the modules
     whose only other input is finite, likewise computed once *)
  c_signals : signals;
  c_keywords : kw_set dist;
  c_aggregates : Duosql.Ast.agg option dist array;  (* by [agg_slot] *)
  c_operators : op_shape dist array;  (* by [ty_index] *)
  c_num_predicates : int dist;
  c_connective : Duosql.Ast.connective dist;
  c_having_presence : bool dist;
  c_direction : Duosql.Ast.dir dist;
  c_value_ranges : (Duodb.Value.t * Duodb.Value.t) list;
  (* the per-state distributions, each computed at its key's first call *)
  m_targets : col_target dist Key_tbl.t;
  m_where_columns : Duodb.Schema.column dist Key_tbl.t;
  m_group_columns : Duodb.Schema.column dist Key_tbl.t;
  m_order_targets : (Duosql.Ast.agg option * Duodb.Schema.column option) dist Key_tbl.t;
  m_num_projections : int dist Key_tbl.t;
  m_limit : int option dist Key_tbl.t;
  m_values : Duodb.Value.t dist Key_tbl.t;
  m_where_rhs : Duosql.Ast.pred_rhs dist Key_tbl.t;
}

(* --- KW module --- *)

let keywords_dist ~temperature sg (nlq : Duonl.Nlq.t) =
  let has_literals = nlq.Duonl.Nlq.literals <> [] in
  let where_ev = sg.sg_where +. (if has_literals then 1.5 else 0.0) in
  let group_ev =
    sg.sg_group
    +. (let _, c, s, a, _, _ = sg.sg_agg in
        (* aggregate phrasing next to an entity word often implies grouping *)
        0.4 *. (c +. s +. a))
  in
  let order_ev = sg.sg_order in
  let base = 0.6 in
  let score set =
    (if set.kw_where then where_ev else base)
    +. (if set.kw_group then group_ev else base)
    +. if set.kw_order then order_ev else base
  in
  let all =
    List.concat_map
      (fun wh ->
        List.concat_map
          (fun gr ->
            List.map
              (fun ord -> { kw_where = wh; kw_group = gr; kw_order = ord })
              [ false; true ])
          [ false; true ])
      [ false; true ]
  in
  Score.normalize ~temperature (List.map (fun s -> (s, score s)) all)

(* --- AGG module --- *)

let aggregates_dist ~temperature sg ty out =
  let none, count, sum, avg, mx, mn = sg.sg_agg in
  let cands =
    match ty with
    | Duodb.Datatype.Text -> [ (None, none +. 1.0); (Some Duosql.Ast.Count, count) ]
    | Duodb.Datatype.Number ->
        [
          (None, none +. 0.6);
          (Some Duosql.Ast.Count, count -. 0.3);
          (Some Duosql.Ast.Sum, sum);
          (Some Duosql.Ast.Avg, avg);
          (Some Duosql.Ast.Min, mn);
          (Some Duosql.Ast.Max, mx);
        ]
  in
  (* TSQ-annotated output type for the slot: keep only aggregates whose
     result type matches (COUNT/SUM/AVG produce numbers; MIN/MAX and the
     identity keep the column's type). *)
  let cands =
    match out with
    | None -> cands
    | Some want ->
        List.filter
          (fun (agg, _) ->
            let produced =
              match agg with
              | Some (Duosql.Ast.Count | Duosql.Ast.Sum | Duosql.Ast.Avg) ->
                  Duodb.Datatype.Number
              | Some (Duosql.Ast.Min | Duosql.Ast.Max) | None -> ty
            in
            Duodb.Datatype.equal produced want)
          cands
  in
  Score.normalize ~temperature cands

(* --- OP module --- *)

let operators_dist ~temperature sg nlq ty =
  let s = sg.sg_op in
  match ty with
  | Duodb.Datatype.Text ->
      Score.normalize ~temperature
        [
          (Shape_cmp Duosql.Ast.Eq, s.(0) +. 1.0);
          (Shape_cmp Duosql.Ast.Neq, s.(1) -. 0.5);
          (Shape_cmp Duosql.Ast.Like, s.(6) -. 0.3);
          (Shape_cmp Duosql.Ast.Not_like, s.(7) -. 0.8);
        ]
  | Duodb.Datatype.Number ->
      let between_ev =
        if List.length (Duonl.Nlq.numeric_literals nlq) >= 2 then 0.4 +. sg.sg_between
        else -2.0
      in
      Score.normalize ~temperature
        [
          (Shape_cmp Duosql.Ast.Eq, s.(0));
          (Shape_cmp Duosql.Ast.Neq, s.(1) -. 0.5);
          (Shape_cmp Duosql.Ast.Lt, s.(2));
          (Shape_cmp Duosql.Ast.Le, s.(3) -. 0.3);
          (Shape_cmp Duosql.Ast.Gt, s.(4));
          (Shape_cmp Duosql.Ast.Ge, s.(5) -. 0.3);
          (Shape_between, between_ev);
        ]

let num_predicates_dist ~temperature (nlq : Duonl.Nlq.t) =
  let lit_count = List.length nlq.Duonl.Nlq.literals in
  let cands =
    List.init 3 (fun i ->
        let n = i + 1 in
        let s = if n <= lit_count then 1.0 else -0.5 -. float_of_int (n - lit_count) in
        (n, s +. if n = 1 then 0.3 else 0.0))
  in
  Score.normalize ~temperature cands

let make ?(temperature = 1.0) ?index schema nlq =
  (* Re-ground literals when an index is supplied and the NLQ lacks
     groundings. *)
  let nlq =
    match index with
    | None -> nlq
    | Some idx ->
        let ground l =
          match l.Duonl.Nlq.lit_value with
          | Duodb.Value.Text s when l.Duonl.Nlq.lit_columns = [] ->
              { l with
                Duonl.Nlq.lit_columns =
                  List.map
                    (fun h -> (h.Duodb.Index.hit_table, h.Duodb.Index.hit_column))
                    (Duodb.Index.lookup idx s) }
          | Duodb.Value.Null | Duodb.Value.Int _ | Duodb.Value.Float _
          | Duodb.Value.Text _ ->
              l
        in
        { nlq with Duonl.Nlq.literals = List.map ground nlq.Duonl.Nlq.literals }
  in
  let c_words = Duonl.Nlq.content_words nlq in
  let grounded = List.concat_map (fun l -> l.Duonl.Nlq.lit_columns) nlq.Duonl.Nlq.literals in
  let has_numeric_lit =
    List.exists (fun l -> Duodb.Value.is_numeric l.Duonl.Nlq.lit_value) nlq.Duonl.Nlq.literals
  in
  let fk_columns =
    List.concat_map
      (fun e ->
        [ (e.Duodb.Schema.fk_table, e.Duodb.Schema.fk_column);
          (e.Duodb.Schema.pk_table, e.Duodb.Schema.pk_column) ])
      schema.Duodb.Schema.foreign_keys
  in
  let columns = Array.of_list (Duodb.Schema.all_columns schema) in
  let similarity = Array.map (Score.column_similarity ~nlq_words:c_words) columns in
  let base_score i =
    let col = columns.(i) in
    (* users rarely ask for key columns by name *)
    let key_penalty =
      if
        Duodb.Schema.is_pk_column schema ~table:col.Duodb.Schema.col_table
          col.Duodb.Schema.col_name
        || List.mem (col.Duodb.Schema.col_table, col.Duodb.Schema.col_name) fk_columns
      then -1.0
      else 0.0
    in
    (3.0 *. similarity.(i)) +. key_penalty
  in
  let base_scores = Array.init (Array.length columns) base_score in
  let where_score i =
    let col = columns.(i) in
    let ground_bonus =
      if
        List.exists
          (fun (tb, cn) ->
            String.equal tb col.Duodb.Schema.col_table
            && String.equal cn col.Duodb.Schema.col_name)
          grounded
      then 2.5
      else 0.0
    in
    let numeric_bonus =
      if has_numeric_lit
         && Duodb.Datatype.equal col.Duodb.Schema.col_type Duodb.Datatype.Number
      then 0.7
      else 0.0
    in
    base_scores.(i) +. ground_bonus +. numeric_bonus
  in
  let positions = Col_tbl.create (2 * Array.length columns) in
  Array.iteri (fun i c -> Col_tbl.replace positions c i) columns;
  (* stemmed words incl. stopwords, for "or" etc. *)
  let all_words = Duonl.Token.words nlq.Duonl.Nlq.tokens in
  let sg = signals_of ~words:c_words ~all_words in
  let norm cands = of_pairs (Score.normalize ~temperature cands) in
  let value_ranges =
    let nums = List.sort_uniq Duodb.Value.compare (Duonl.Nlq.numeric_literals nlq) in
    let rec pairs = function
      | [] -> []
      | lo :: rest -> List.map (fun hi -> (lo, hi)) rest @ pairs rest
    in
    pairs nums
  in
  {
    c_schema = schema;
    c_nlq = nlq;
    c_temperature = temperature;
    c_words;
    c_columns = columns;
    c_positions = positions;
    c_similarity = similarity;
    c_base_scores = base_scores;
    c_where_scores = Array.init (Array.length columns) where_score;
    c_signals = sg;
    c_keywords = of_pairs (keywords_dist ~temperature sg nlq);
    c_aggregates =
      Array.init 6 (fun k ->
          let out = if k mod 3 = 0 then None else Some all_types.((k mod 3) - 1) in
          of_pairs (aggregates_dist ~temperature sg all_types.(k / 3) out));
    c_operators =
      Array.map (fun ty -> of_pairs (operators_dist ~temperature sg nlq ty)) all_types;
    c_num_predicates = of_pairs (num_predicates_dist ~temperature nlq);
    c_connective = norm [ (Duosql.Ast.And, 1.0); (Duosql.Ast.Or, sg.sg_or -. 0.3) ];
    c_having_presence = norm [ (false, 1.0); (true, sg.sg_having -. 0.4) ];
    c_direction = norm [ (Duosql.Ast.Asc, 0.6); (Duosql.Ast.Desc, sg.sg_desc) ];
    c_value_ranges = value_ranges;
    m_targets = Key_tbl.create 64;
    m_where_columns = Key_tbl.create 16;
    m_group_columns = Key_tbl.create 16;
    m_order_targets = Key_tbl.create 16;
    m_num_projections = Key_tbl.create 2;
    m_limit = Key_tbl.create 2;
    m_values = Key_tbl.create 16;
    m_where_rhs = Key_tbl.create 16;
  }

let schema t = t.c_schema
let nlq t = t.c_nlq
let signals t = t.c_signals

let norm t cands = of_pairs (Score.normalize ~temperature:t.c_temperature cands)

(* [tbl]'s entry for [key], computed by [f t x] at the key's first call. *)
let memo tbl key f t x =
  match Key_tbl.find_opt tbl key with
  | Some d -> d
  | None ->
      let d = f t x in
      Key_tbl.add tbl key d;
      d

let position t c =
  match Col_tbl.find_opt t.c_positions c with
  | Some i -> i
  | None ->
      invalid_arg
        (Printf.sprintf "Model: %s.%s is not a schema column" c.Duodb.Schema.col_table
           c.Duodb.Schema.col_name)

(* A set of columns as its key: sorted positions, no duplicates. *)
let position_set t cols = List.sort_uniq Int.compare (List.map (position t) cols)

let keywords t = t.c_keywords

(* --- COL module --- *)

(* [Target_count_star]'s position is one past the columns'. *)
let target_position t = function
  | Target_count_star -> Array.length t.c_columns
  | Target_column c -> position t c

let out_code = function None -> 0 | Some ty -> 1 + ty_index ty

let targets_dist t (out, used) =
  let _, count_ev, _, _, _, _ = t.c_signals.sg_agg in
  let n = Array.length t.c_columns in
  let cands =
    List.filter_map
      (fun i ->
        if List.mem i used then None
        else if i = n then Some (Target_count_star, count_ev -. 0.5)
        else Some (Target_column t.c_columns.(i), t.c_base_scores.(i)))
      (n :: List.init n Fun.id)
  in
  (* When the TSQ annotates this slot's output type, drop targets no
     aggregate choice can reconcile with it: a star-count is always
     numeric, and a numeric column stays numeric under every aggregate.
     A text column still admits a numeric annotation via COUNT, so it
     survives here and is settled by [aggregates]. *)
  let cands =
    match out with
    | None -> cands
    | Some want ->
        List.filter
          (fun (tgt, _) ->
            match tgt, want with
            | Target_count_star, Duodb.Datatype.Number -> true
            | Target_count_star, Duodb.Datatype.Text -> false
            | Target_column c, Duodb.Datatype.Text ->
                Duodb.Datatype.equal c.Duodb.Schema.col_type Duodb.Datatype.Text
            | Target_column _, Duodb.Datatype.Number -> true)
          cands
  in
  norm t cands

let projection_targets ?out t ~used =
  let used = List.sort_uniq Int.compare (List.map (target_position t) used) in
  memo t.m_targets (out_code out :: used) targets_dist t (out, used)

let hint_key = function None -> [] | Some h -> [ h ]

let num_projections_dist t hint =
  match hint with
  | Some h when 1 <= h && h <= 4 ->
      (* The TSQ's width is definitional, not a preference: a candidate
         with any other projection count can never satisfy the table
         sketch, so the enumerator proposes exactly the hinted width
         instead of spending pushes on arities the cascade must kill. *)
      norm t [ (h, 0.0) ]
  | Some _ | None ->
      let base = [| 0.0; 1.2; 0.8; 0.2; -0.4 |] in
      (* Name-similar columns raise the expected projection width. *)
      let similar =
        Array.fold_left (fun n s -> if s > 0.45 then n + 1 else n) 0 t.c_similarity
      in
      let expected = min 4 (max 1 similar) in
      let cands =
        List.init 4 (fun i ->
            let n = i + 1 in
            (n, base.(n) +. if n = expected then 0.8 else 0.0))
      in
      norm t cands

let num_projections t ~hint =
  memo t.m_num_projections (hint_key hint) num_projections_dist t hint

let where_columns_dist t used =
  norm t
    (List.filter_map
       (fun i ->
         if List.mem i used then None else Some (t.c_columns.(i), t.c_where_scores.(i)))
       (List.init (Array.length t.c_columns) Fun.id))

let where_columns t ~used =
  let used = position_set t used in
  memo t.m_where_columns used where_columns_dist t used

let group_columns_dist t projected =
  norm t
    (List.mapi
       (fun i c ->
         let proj_bonus = if List.mem i projected then 2.0 else 0.0 in
         (c, t.c_base_scores.(i) +. proj_bonus))
       (Array.to_list t.c_columns))

let group_columns t ~projected =
  let projected = position_set t projected in
  memo t.m_group_columns projected group_columns_dist t projected

let aggregates ?out t ty = t.c_aggregates.(agg_slot ty out)

let operators t ty = t.c_operators.(ty_index ty)

(* --- Value assignment --- *)

let values_dist t col =
  let lits = t.c_nlq.Duonl.Nlq.literals in
  let is_text = Duodb.Datatype.equal col.Duodb.Schema.col_type Duodb.Datatype.Text in
  let cands =
    List.filter_map
      (fun l ->
        match l.Duonl.Nlq.lit_value with
        | Duodb.Value.Text _ when is_text ->
            let bonus =
              if
                List.exists
                  (fun (tb, cn) ->
                    String.equal tb col.Duodb.Schema.col_table
                    && String.equal cn col.Duodb.Schema.col_name)
                  l.Duonl.Nlq.lit_columns
              then 2.0
              else if l.Duonl.Nlq.lit_columns = [] then 0.0
              else -1.0  (* grounded elsewhere *)
            in
            Some (l.Duonl.Nlq.lit_value, 1.0 +. bonus)
        | (Duodb.Value.Int _ | Duodb.Value.Float _) when not is_text ->
            Some (l.Duonl.Nlq.lit_value, 1.0)
        | Duodb.Value.Text _ | Duodb.Value.Int _ | Duodb.Value.Float _
        | Duodb.Value.Null ->
            None)
      lits
  in
  match cands with [] -> of_pairs [] | _ -> norm t cands

let values t col = memo t.m_values [ position t col ] values_dist t col

(* Every right-hand side of a WHERE predicate on [col]: each comparison
   shape with each literal, BETWEEN with each range pair; shapes without
   a literal or pair drop out and the rest are renormalized. *)
let where_rhs_dist t (col, uniform_choices) =
  let maybe_uniform d = if uniform_choices then uniform d else d in
  let shapes = to_list (maybe_uniform (operators t col.Duodb.Schema.col_type)) in
  let rhss =
    List.concat_map
      (fun (shape, p_shape) ->
        match shape with
        | Shape_cmp op ->
            List.map
              (fun (v, p_val) -> (Duosql.Ast.Cmp (op, v), p_shape *. p_val))
              (to_list (maybe_uniform (values t col)))
        | Shape_between ->
            let ranges = t.c_value_ranges in
            let n = List.length ranges in
            if n = 0 then []
            else
              List.map
                (fun (lo, hi) -> (Duosql.Ast.Between (lo, hi), p_shape /. float_of_int n))
                ranges)
      shapes
  in
  renormalized rhss

let where_rhs ?(uniform = false) t col =
  memo t.m_where_rhs [ position t col; Bool.to_int uniform ] where_rhs_dist t (col, uniform)

let num_predicates t = t.c_num_predicates
let connective t = t.c_connective
let having_presence t = t.c_having_presence
let direction t = t.c_direction

let limit_dist t hint =
  let limit_ev = t.c_signals.sg_limit in
  let nums =
    List.filter_map
      (function
        | Duodb.Value.Int n when n > 0 && n <= 1000 -> Some n
        | Duodb.Value.Null | Duodb.Value.Int _ | Duodb.Value.Float _
        | Duodb.Value.Text _ ->
            None)
      (Duonl.Nlq.numeric_literals t.c_nlq)
  in
  let cands =
    (None, 1.0 -. limit_ev)
    :: (Some 1, limit_ev -. 0.2)
    :: List.map (fun n -> (Some n, limit_ev -. 0.4)) (List.sort_uniq compare nums)
  in
  let cands =
    match hint with
    | Some k ->
        List.map (fun (c, s) -> (c, if c = Some k then s +. 3.0 else s)) cands
        |> fun l -> if List.mem_assoc (Some k) l then l else (Some k, 2.5) :: l
    | None -> cands
  in
  norm t cands

let limit t ~hint = memo t.m_limit (hint_key hint) limit_dist t hint

(* An ORDER BY item's key: its aggregate's code and its column's
   position ([None] one past the columns'). *)
let agg_code = function
  | None -> 0
  | Some Duosql.Ast.Count -> 1
  | Some Duosql.Ast.Sum -> 2
  | Some Duosql.Ast.Avg -> 3
  | Some Duosql.Ast.Min -> 4
  | Some Duosql.Ast.Max -> 5

let column_position t = function Some c -> position t c | None -> Array.length t.c_columns

let order_targets_dist t projected =
  let proj_cands =
    List.map
      (fun (agg, col) ->
        let sim = match col with Some c -> t.c_similarity.(position t c) | None -> 0.0 in
        ((agg, col), 1.0 +. sim))
      projected
  in
  (* Non-projected numeric columns can also order results (e.g. "from
     earliest"), and COUNT of all rows orders grouped queries. *)
  let projected_positions = List.map (fun (_, col) -> column_position t col) projected in
  let extra =
    List.filter_map
      (fun i ->
        let c = t.c_columns.(i) in
        if Duodb.Datatype.equal c.Duodb.Schema.col_type Duodb.Datatype.Number
           && not (List.mem i projected_positions)
        then
          let sim = t.c_similarity.(i) in
          if sim > 0.3 then Some ((None, Some c), 0.2 +. sim) else None
        else None)
      (List.init (Array.length t.c_columns) Fun.id)
  in
  let count_cand =
    let _, count_ev, _, _, _, _ = t.c_signals.sg_agg in
    [ ((Some Duosql.Ast.Count, None), count_ev -. 0.5) ]
  in
  norm t (proj_cands @ extra @ count_cand)

let order_targets t ~projected =
  let n = Array.length t.c_columns in
  let key =
    List.map (fun (agg, col) -> (agg_code agg * (n + 1)) + column_position t col) projected
  in
  memo t.m_order_targets key order_targets_dist t projected
