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

(* Construction is called once per expansion that decides a join path;
   memoize per (schema, tables, depth).  Schemas are immutable during
   synthesis, but the key must capture the join-relevant structure, not
   just the schema name: two same-named schemas with different FK graphs
   must not share entries (found by Duocheck — its fuzz schemas, all
   named "fuzzdb", were served each other's join paths).  So the key
   holds the schema's signature (name, FK edges, table names), computed
   once per schema through a one-slot memo on the schema's physical
   identity, with its hash.  Keys compare with [String.equal] and
   integer equality, never with polymorphic compare.

   The memos are domain-local ([Domain.DLS]): sharded bench and
   simulation runs expand on several pool domains at once, and an
   unsynchronized shared [Hashtbl] would race.
   Per-domain memos need no locks, and since construction is a pure
   function of the key, duplicated entries across domains cannot change
   results — they only cost memory, bounded by [max_memo_entries] per
   domain. *)

type slot = { mutable hit : bool; value : from_clause list }

let max_memo_entries = 100_000

module Key = struct
  type t = { signature : string; signature_hash : int; tables : string; depth : int }

  let equal a b =
    a.depth = b.depth && String.equal a.tables b.tables && String.equal a.signature b.signature

  let hash k = (((k.signature_hash * 65599) + String.hash k.tables) * 31) + k.depth
end

module Memo = Hashtbl.Make (Key)

(* A domain's join memo, and the last schema it saw with that schema's
   signature and the signature's hash. *)
type memo = {
  paths : slot Memo.t;
  mutable schema : Duodb.Schema.t option;
  mutable signature : string;
  mutable signature_hash : int;
}

let memo_key : memo Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      { paths = Memo.create 256; schema = None; signature = ""; signature_hash = 0 })

(* Halving eviction (clock-style second chance): drop the entries not
   hit since the previous eviction, then arbitrary extras until at most
   half the cap survives.  A long session keeps its hot join paths,
   where the old all-or-nothing [Hashtbl.reset] dropped the entire memo
   right on the hot path. *)
let evict_half memo =
  let keep = max_memo_entries / 2 in
  let stale = Memo.fold (fun k s acc -> if s.hit then acc else k :: acc) memo [] in
  List.iter (Memo.remove memo) stale;
  let excess = Memo.length memo - keep in
  if excess > 0 then begin
    let doomed = ref [] in
    let n = ref 0 in
    (try
       Memo.iter
         (fun k _ ->
           if !n >= excess then raise Exit;
           doomed := k :: !doomed;
           incr n)
         memo
     with Exit -> ());
    List.iter (Memo.remove memo) !doomed
  end;
  Memo.iter (fun _ s -> s.hit <- false) memo

let schema_signature (schema : Duodb.Schema.t) =
  schema.Duodb.Schema.name ^ ":"
  ^ String.concat "|"
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
  let m = Domain.DLS.get memo_key in
  (match m.schema with
  | Some s when s == schema -> ()
  | Some _ | None ->
      m.schema <- Some schema;
      m.signature <- schema_signature schema;
      m.signature_hash <- String.hash m.signature);
  let key =
    {
      Key.signature = m.signature;
      signature_hash = m.signature_hash;
      tables = String.concat ";" (List.sort String.compare tables);
      depth;
    }
  in
  match Memo.find_opt m.paths key with
  | Some s ->
      s.hit <- true;
      s.value
  | None ->
      let r = construct_uncached ~depth schema ~tables in
      if Memo.length m.paths >= max_memo_entries then evict_half m.paths;
      Memo.replace m.paths key { hit = false; value = r };
      r
