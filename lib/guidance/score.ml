let softmax ?(temperature = 1.0) scores =
  let n = Array.length scores in
  if n = 0 then [||]
  else begin
    let m = Array.fold_left Float.max neg_infinity scores in
    let exps = Array.map (fun s -> Float.exp ((s -. m) /. temperature)) scores in
    let total = Array.fold_left ( +. ) 0.0 exps in
    Array.map (fun e -> e /. total) exps
  end

let name_tokens s =
  String.split_on_char '_' (String.lowercase_ascii s)
  |> List.filter (fun t -> t <> "")
  |> List.map Duonl.Token.stem

let prefix_match a b =
  let l = min (String.length a) (String.length b) in
  l >= 4 && String.sub a 0 4 = String.sub b 0 4

let name_similarity ~nlq_words name =
  let toks = name_tokens name in
  match toks with
  | [] -> 0.0
  | _ ->
      let hit t =
        if List.mem t nlq_words then 1.0
        else if List.exists (prefix_match t) nlq_words then 0.5
        else 0.0
      in
      List.fold_left (fun acc t -> acc +. hit t) 0.0 toks
      /. float_of_int (List.length toks)

let column_similarity ~nlq_words col =
  let cs = name_similarity ~nlq_words col.Duodb.Schema.col_name in
  let ts = name_similarity ~nlq_words col.Duodb.Schema.col_table in
  (0.8 *. cs) +. (0.2 *. ts)

let normalize ?temperature cands =
  let probs = softmax ?temperature (Array.of_list (List.map snd cands)) in
  List.mapi (fun i (x, _) -> (x, probs.(i))) cands
