open Duosql.Ast

let edge_to_join (e : Duodb.Schema.foreign_key) =
  {
    j_from = col e.Duodb.Schema.fk_table e.Duodb.Schema.fk_column;
    j_to = col e.Duodb.Schema.pk_table e.Duodb.Schema.pk_column;
  }

let from_of_tree (tr : Steiner.tree) =
  { f_tables = tr.Steiner.tr_tables; f_joins = List.map edge_to_join tr.Steiner.tr_edges }

let covers from tables = List.for_all (fun t -> List.mem t from.f_tables) tables
let length from = List.length from.f_joins

let clause_equal a b =
  List.sort String.compare a.f_tables = List.sort String.compare b.f_tables

(* One-FK-hop extensions (Algorithm 2, lines 10-12): for each FK edge
   incident to a tree table and leading to a table outside the tree, add
   the join. *)
let extensions schema (from : from_clause) =
  List.concat_map
    (fun t ->
      List.filter_map
        (fun e ->
          let next =
            if String.equal e.Duodb.Schema.fk_table t then e.Duodb.Schema.pk_table
            else e.Duodb.Schema.fk_table
          in
          if List.mem next from.f_tables then None
          else
            Some
              {
                f_tables = from.f_tables @ [ next ];
                f_joins = from.f_joins @ [ edge_to_join e ];
              })
        (Duodb.Schema.join_edges schema ~table:t))
    from.f_tables

(* Construction is called once per enumerated child state; memoize per
   (schema, tables, depth).  Schemas are immutable during synthesis, but
   the key must capture the join-relevant structure, not just the schema
   name: two same-named schemas with different FK graphs must not share
   entries (found by Duocheck — its fuzz schemas, all named "fuzzdb",
   were served each other's join paths).

   The memo is domain-local ([Domain.DLS]): sharded bench and simulation
   runs expand on several pool domains at once, and an unsynchronized
   shared [Hashtbl] would race.
   Per-domain memos need no locks, and since construction is a pure
   function of the key, duplicated entries across domains cannot change
   results — they only cost memory, bounded by [max_memo_entries] per
   domain. *)

type slot = { mutable hit : bool; value : from_clause list }

let max_memo_entries = 100_000

let memo_key : (string * string * int, slot) Hashtbl.t Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Hashtbl.create 256)

(* Halving eviction (clock-style second chance): drop the entries not
   hit since the previous eviction, then arbitrary extras until at most
   half the cap survives.  A long session keeps its hot join paths,
   where the old all-or-nothing [Hashtbl.reset] dropped the entire memo
   right on the hot path. *)
let evict_half memo =
  let keep = max_memo_entries / 2 in
  let stale = Hashtbl.fold (fun k s acc -> if s.hit then acc else k :: acc) memo [] in
  List.iter (Hashtbl.remove memo) stale;
  let excess = Hashtbl.length memo - keep in
  if excess > 0 then begin
    let doomed = ref [] in
    let n = ref 0 in
    (try
       Hashtbl.iter
         (fun k _ ->
           if !n >= excess then raise Exit;
           doomed := k :: !doomed;
           incr n)
         memo
     with Exit -> ());
    List.iter (Hashtbl.remove memo) !doomed
  end;
  Hashtbl.iter (fun _ s -> s.hit <- false) memo

let schema_signature (schema : Duodb.Schema.t) =
  String.concat "|"
    (List.map
       (fun (e : Duodb.Schema.foreign_key) ->
         e.Duodb.Schema.fk_table ^ "." ^ e.Duodb.Schema.fk_column ^ ">"
         ^ e.Duodb.Schema.pk_table ^ "." ^ e.Duodb.Schema.pk_column)
       schema.Duodb.Schema.foreign_keys)
  ^ "#"
  ^ String.concat ","
      (List.map
         (fun (t : Duodb.Schema.table) -> t.Duodb.Schema.tbl_name)
         schema.Duodb.Schema.tables)

let construct_uncached ?(depth = 1) schema ~tables =
  match tables with
  | [] ->
      (* No column references yet: every table is a candidate base
         (Algorithm 2, line 6). *)
      List.map
        (fun ts -> from_table ts.Duodb.Schema.tbl_name)
        schema.Duodb.Schema.tables
  | _ -> (
      match Steiner.tree schema tables with
      | None -> []
      | Some tr ->
          let base = from_of_tree tr in
          let rec expand_level level frontier acc =
            if level = 0 then acc
            else
              let next = List.concat_map (extensions schema) frontier in
              let acc', fresh =
                List.fold_left
                  (fun (acc, fresh) f ->
                    if List.exists (clause_equal f) acc then (acc, fresh)
                    else (acc @ [ f ], fresh @ [ f ]))
                  (acc, []) next
              in
              expand_level (level - 1) fresh acc'
          in
          expand_level depth [ base ] [ base ])

let construct ?(depth = 1) schema ~tables =
  let memo = Domain.DLS.get memo_key in
  let key =
    ( schema.Duodb.Schema.name ^ ":" ^ schema_signature schema,
      String.concat ";" (List.sort String.compare tables),
      depth )
  in
  match Hashtbl.find_opt memo key with
  | Some s ->
      s.hit <- true;
      s.value
  | None ->
      let r = construct_uncached ~depth schema ~tables in
      if Hashtbl.length memo >= max_memo_entries then evict_half memo;
      Hashtbl.replace memo key { hit = false; value = r };
      r
