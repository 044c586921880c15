(* Command-line front-end for Duoquest (the paper's web UI, Section 4,
   reduced to a terminal): issue an NLQ with an optional table sketch query
   against one of the bundled databases, browse ranked candidates with
   result previews, or exercise the autocomplete index. *)

open Cmdliner

let load_db = function
  | "movies" -> Ok (Duobench.Movies.database ())
  | "mas" -> Ok (Duobench.Mas.database ())
  | other -> Error (Printf.sprintf "unknown database %S (try: movies, mas)" other)

let db_arg =
  let doc = "Database to query: $(b,movies) or $(b,mas)." in
  Arg.(value & opt string "movies" & info [ "d"; "db" ] ~docv:"DB" ~doc)

(* TSQ cell syntax: "_" = any; "lo..hi" = numeric range; number or text
   otherwise.  Cells are separated by ";". *)
let parse_cell s =
  let s = String.trim s in
  if s = "_" then Ok Duocore.Tsq.Any
  else
    match String.index_opt s '.' with
    | Some i
      when i + 1 < String.length s
           && s.[i + 1] = '.'
           && Option.is_some (float_of_string_opt (String.sub s 0 i)) -> (
        let lo = String.sub s 0 i in
        let hi = String.sub s (i + 2) (String.length s - i - 2) in
        match float_of_string_opt lo, float_of_string_opt hi with
        | Some l, Some h ->
            let v f =
              if Float.is_integer f then Duodb.Value.Int (int_of_float f)
              else Duodb.Value.Float f
            in
            Ok (Duocore.Tsq.Range (v l, v h))
        | _ -> Error (Printf.sprintf "bad range cell %S" s))
    | _ -> (
        match int_of_string_opt s with
        | Some n -> Ok (Duocore.Tsq.Exact (Duodb.Value.Int n))
        | None -> (
            match float_of_string_opt s with
            | Some f -> Ok (Duocore.Tsq.Exact (Duodb.Value.Float f))
            | None -> Ok (Duocore.Tsq.Exact (Duodb.Value.Text s))))

let parse_tuple s =
  let cells = String.split_on_char ';' s in
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | c :: rest -> (
        match parse_cell c with
        | Ok cell -> go (cell :: acc) rest
        | Error e -> Error e)
  in
  go [] cells

let parse_types s =
  let parts = String.split_on_char ',' s in
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | p :: rest -> (
        match Duodb.Datatype.of_string (String.trim p) with
        | Some ty -> go (ty :: acc) rest
        | None -> Error (Printf.sprintf "unknown type %S (text|number)" p))
  in
  go [] parts

let print_candidate db k (c : Duocore.Enumerate.candidate) =
  Printf.printf "#%d  (confidence %.4g)\n  %s\n  = %s\n" k
    c.Duocore.Enumerate.cand_confidence
    (Duosql.Pretty.query c.Duocore.Enumerate.cand_query)
    (Duosql.Describe.query c.Duocore.Enumerate.cand_query);
  (* the front-end's "Query Preview": first rows of the result *)
  match Duoengine.Executor.run db c.Duocore.Enumerate.cand_query with
  | Error e -> Printf.printf "  (preview failed: %s)\n" e
  | Ok res ->
      let rows = res.Duoengine.Executor.res_rows in
      let preview = List.filteri (fun i _ -> i < 3) rows in
      List.iter
        (fun row ->
          Printf.printf "    | %s\n"
            (String.concat " | "
               (Array.to_list (Array.map Duodb.Value.to_display row))))
        preview;
      if List.length rows > 3 then
        Printf.printf "    ... (%d rows total)\n" (List.length rows)

let query_cmd =
  let nlq_arg =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"NLQ" ~doc:"The natural language query. Mark literal text values with double quotes.")
  in
  let types_arg =
    Arg.(value & opt (some string) None & info [ "types" ] ~docv:"T1,T2" ~doc:"TSQ column type annotations, e.g. $(b,text,number).")
  in
  let tuples_arg =
    Arg.(value & opt_all string [] & info [ "tuple" ] ~docv:"CELLS" ~doc:"A TSQ example tuple; cells separated by $(b,;). Use $(b,_) for an empty cell and $(b,lo..hi) for a range. Repeatable.")
  in
  let sorted_arg =
    Arg.(value & flag & info [ "sorted" ] ~doc:"The desired output is ordered (the TSQ's sorting flag).")
  in
  let limit_arg =
    Arg.(value & opt int 0 & info [ "limit" ] ~docv:"K" ~doc:"The desired output is limited to K rows (0 = unlimited).")
  in
  let top_arg =
    Arg.(value & opt int 10 & info [ "top" ] ~docv:"N" ~doc:"Show at most N candidates.")
  in
  let budget_arg =
    Arg.(value & opt float 10.0 & info [ "budget" ] ~docv:"SECONDS" ~doc:"Synthesis time budget.")
  in
  let run db_name nlq types tuples sorted limit top budget =
    match load_db db_name with
    | Error e -> `Error (false, e)
    | Ok db -> (
        let session = Duocore.Duoquest.create_session db in
        let types =
          match types with
          | None -> Ok None
          | Some s -> Result.map Option.some (parse_types s)
        in
        let tuples =
          List.fold_left
            (fun acc t ->
              match acc, parse_tuple t with
              | Ok acc, Ok tup -> Ok (acc @ [ tup ])
              | (Error _ as e), _ -> e
              | _, (Error _ as e) -> Result.map (fun _ -> []) e)
            (Ok []) tuples
        in
        match types, tuples with
        | Error e, _ | _, Error e -> `Error (false, e)
        | Ok types, Ok tuples ->
            let has_tsq = types <> None || tuples <> [] || sorted || limit > 0 in
            let tsq =
              if has_tsq then Some (Duocore.Tsq.make ?types ~tuples ~sorted ~limit ())
              else None
            in
            let config =
              { Duocore.Enumerate.default_config with
                Duocore.Enumerate.time_budget_s = budget;
                max_candidates = top }
            in
            let outcome =
              Duocore.Duoquest.synthesize ~config ?tsq session ~nlq ()
            in
            if outcome.Duocore.Enumerate.out_candidates = [] then
              print_endline
                "No candidate query satisfied the specification; try rephrasing \
                 the NLQ or refining the sketch."
            else
              List.iteri
                (fun i c -> print_candidate db (i + 1) c)
                outcome.Duocore.Enumerate.out_candidates;
            `Ok ())
  in
  let term =
    Term.(
      ret
        (const run $ db_arg $ nlq_arg $ types_arg $ tuples_arg $ sorted_arg
       $ limit_arg $ top_arg $ budget_arg))
  in
  Cmd.v (Cmd.info "query" ~doc:"Synthesize SQL from an NLQ plus optional table sketch query") term

let complete_cmd =
  let prefix_arg =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"PREFIX" ~doc:"Prefix to complete.")
  in
  let run db_name prefix =
    match load_db db_name with
    | Error e -> `Error (false, e)
    | Ok db ->
        let index = Duodb.Index.build db in
        let hits = Duodb.Index.complete index ~limit:15 ~prefix () in
        if hits = [] then print_endline "(no completions)"
        else
          List.iter
            (fun h ->
              Printf.printf "%-30s %s.%s\n" h.Duodb.Index.hit_value
                h.Duodb.Index.hit_table h.Duodb.Index.hit_column)
            hits;
        `Ok ()
  in
  Cmd.v
    (Cmd.info "complete" ~doc:"Autocomplete a literal value against the inverted column index")
    Term.(ret (const run $ db_arg $ prefix_arg))

let schema_cmd =
  let run db_name =
    match load_db db_name with
    | Error e -> `Error (false, e)
    | Ok db ->
        Format.printf "%a@." Duodb.Schema.pp (Duodb.Database.schema db);
        Format.printf "%a@." Duodb.Database.pp_stats db;
        `Ok ()
  in
  Cmd.v
    (Cmd.info "schema" ~doc:"Show the schema and row counts of a bundled database")
    Term.(ret (const run $ db_arg))

let export_cmd =
  let dir_arg =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"DIR" ~doc:"Output directory for one CSV file per table.")
  in
  let run db_name dir =
    match load_db db_name with
    | Error e -> `Error (false, e)
    | Ok db -> (
        match Duodb.Csv.export_database db ~dir with
        | Ok () ->
            Printf.printf "exported %d tables to %s\n"
              (Duodb.Schema.num_tables (Duodb.Database.schema db))
              dir;
            `Ok ()
        | Error e -> `Error (false, e))
  in
  Cmd.v
    (Cmd.info "export" ~doc:"Export a bundled database as CSV files")
    Term.(ret (const run $ db_arg $ dir_arg))

let run_sql_cmd =
  let sql_arg =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"SQL" ~doc:"A SQL query to execute directly.")
  in
  let run db_name sql =
    match load_db db_name with
    | Error e -> `Error (false, e)
    | Ok db -> (
        match Duosql.Parser.query ~schema:(Duodb.Database.schema db) sql with
        | Error e -> `Error (false, "parse error: " ^ e)
        | Ok q -> (
            match Duoengine.Executor.run db q with
            | Error e -> `Error (false, "execution error: " ^ e)
            | Ok res ->
                print_string
                  (Duodb.Csv.rows_to_string
                     ~header:(List.map fst res.Duoengine.Executor.res_cols)
                     res.Duoengine.Executor.res_rows);
                `Ok ()))
  in
  Cmd.v
    (Cmd.info "sql" ~doc:"Run a SQL query against a bundled database (CSV output)")
    Term.(ret (const run $ db_arg $ sql_arg))

let () =
  let doc = "Dual-specification SQL query synthesis (Duoquest)" in
  let info = Cmd.info "duoquest" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info [ query_cmd; complete_cmd; schema_cmd; export_cmd; run_sql_cmd ]))
