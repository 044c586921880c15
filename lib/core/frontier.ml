(* A binary min-heap stored as parallel arrays: the entries, and beside
   them the priority keys unboxed — confidence in a float array, and join
   length, insertion sequence number and the settled bit packed into one
   int ([jlen * 2^41 + seq * 2 + settled], which orders like the pair
   (jlen, seq): no two queued entries share a sequence number, so the
   settled bit never decides a comparison).  A comparison reads no state.

   An entry is a state, or a run: one expansion's children, sorted by
   their keys and not yet built.  A run's slot holds its next child's
   key, so the heap pops run children in the order of one heap holding
   every child, and builds each only when it reaches the top. *)

type run = {
  r_build : int -> Partial.t;
  r_conf : float array;  (* by child index *)
  r_jlen : int array;  (* by child index *)
  r_seq : int;  (* child [i]'s sequence number is [r_seq + i] *)
  r_order : int array;  (* child indices, best key first *)
  mutable r_next : int;  (* position in [r_order] of the next child *)
}

(* The [runs] entry of a slot that holds a state. *)
let no_run =
  { r_build = (fun _ -> Partial.root); r_conf = [||]; r_jlen = [||]; r_seq = 0;
    r_order = [||]; r_next = 0 }

type t = {
  mutable states : Partial.t array;
  mutable runs : run array;
  mutable conf : float array;
  mutable ranks : int array;
  mutable len : int;  (* heap slots *)
  mutable size : int;  (* queued states: state slots plus unbuilt run children *)
  mutable queued_runs : int;
  mutable seq : int;
  mutable pushed : int;
  mutable last_rank : int;  (* of the last popped entry *)
  mutable dropped : int;
  cap : int;
  admit : Partial.t -> bool;
}

let create ?(cap = max_int) ?(admit = fun _ -> true) () =
  {
    states = Array.make 64 Partial.root;
    runs = Array.make 64 no_run;
    conf = Array.make 64 0.0;
    ranks = Array.make 64 0;
    len = 0;
    size = 0;
    queued_runs = 0;
    seq = 0;
    pushed = 0;
    last_rank = 0;
    dropped = 0;
    cap;
    admit;
  }

let dropped t = t.dropped
let size t = t.size
let pushed t = t.pushed

let seq_bits = 40
let rank jlen seq = (jlen lsl (seq_bits + 1)) lor (seq lsl 1)
let child_rank r i = rank r.r_jlen.(i) (r.r_seq + i)

(* Whether keys [(conf, rank)] have higher priority than slot [j]: the
   order of {!Partial.compare_priority} on the stored keys. *)
let key_higher t conf rank j =
  let c = Float.compare t.conf.(j) conf in
  if c <> 0 then c < 0 else rank < t.ranks.(j)

let higher t i j = key_higher t t.conf.(i) t.ranks.(i) j

(* Move slot [src] to slot [dst] (no heap repair). *)
let move t ~src ~dst =
  t.states.(dst) <- t.states.(src);
  t.runs.(dst) <- t.runs.(src);
  t.conf.(dst) <- t.conf.(src);
  t.ranks.(dst) <- t.ranks.(src)

(* Write an entry and its keys to slot [i]. *)
let store t i (p : Partial.t) r conf rank =
  t.states.(i) <- p;
  t.runs.(i) <- r;
  t.conf.(i) <- conf;
  t.ranks.(i) <- rank

let clear t i = store t i Partial.root no_run 0.0 0

let grow t =
  let n = 2 * Array.length t.states in
  let extend a fill =
    let a' = Array.make n fill in
    Array.blit a 0 a' 0 t.len;
    a'
  in
  t.states <- extend t.states Partial.root;
  t.runs <- extend t.runs no_run;
  t.conf <- extend t.conf 0.0;
  t.ranks <- extend t.ranks 0

(* Put an entry under its keys: sift a hole up from the end, moving each
   parent down once, and write the entry where the hole stops. *)
let sift_in t (p : Partial.t) r conf rank =
  if t.len = Array.length t.states then grow t;
  let hole = ref t.len in
  t.len <- t.len + 1;
  while !hole > 0 && key_higher t conf rank ((!hole - 1) / 2) do
    let parent = (!hole - 1) / 2 in
    move t ~src:parent ~dst:!hole;
    hole := parent
  done;
  store t !hole p r conf rank

(* Write an entry into slot [i] of the first [t.len] slots, whose keys
   are no higher than [i]'s old ones, and sift it down. *)
let sift_down t i (p : Partial.t) r conf rank =
  let hole = ref i and sifting = ref true in
  while !sifting do
    let l = (2 * !hole) + 1 in
    let child = if l + 1 < t.len && higher t (l + 1) l then l + 1 else l in
    if child < t.len && not (key_higher t conf rank child) then begin
      move t ~src:child ~dst:!hole;
      hole := child
    end
    else sifting := false
  done;
  store t !hole p r conf rank

(* Drop the top slot: the last slot's entry sifts down from the root. *)
let remove_top t =
  let last = t.len - 1 in
  t.len <- last;
  if last > 0 then
    sift_down t 0 t.states.(last) t.runs.(last) t.conf.(last) t.ranks.(last);
  clear t last

(* Compact to the best cap/2 states: a sorted prefix is a valid heap.
   Only ever called with no run queued.  Vacated slots are cleared so
   they pin nothing. *)
let compact t =
  let order = Array.init t.len Fun.id in
  Array.sort (fun i j -> if i = j then 0 else if higher t i j then -1 else 1) order;
  let keep = min (max 1 (t.cap / 2)) t.len in
  t.dropped <- t.dropped + (t.len - keep);
  let pick a fill = Array.init (Array.length a) (fun i -> if i < keep then a.(order.(i)) else fill) in
  t.states <- pick t.states Partial.root;
  t.conf <- pick t.conf 0.0;
  t.ranks <- pick t.ranks 0;
  t.len <- keep;
  t.size <- keep

(* Queue a state, one that {!admit} took, as the unbounded heap would,
   except that a state arriving at [cap] queued states first compacts
   them. *)
let insert_state t (p : Partial.t) rank =
  if t.len >= t.cap then compact t;
  t.size <- t.size + 1;
  sift_in t p no_run p.Partial.confidence rank

(* Build a run's children at the indices [is], in order, and queue those
   {!admit} takes. *)
let admit_all t r is =
  Array.iter
    (fun i ->
      let child = r.r_build i in
      if t.admit child then begin
        t.pushed <- t.pushed + 1;
        insert_state t child (child_rank r i)
      end)
    is

(* Build every queued run's remaining children, in sequence-number
   order, through {!admit}: the admissions a frontier that builds each
   child at its push makes, in that frontier's order.  After a flush
   [size] counts exactly the states such a frontier holds, so the cap
   decides a compaction at the same point. *)
let flush t =
  if t.queued_runs > 0 then begin
    let runs = ref [] and n = ref 0 in
    for i = 0 to t.len - 1 do
      if t.runs.(i) == no_run then begin
        move t ~src:i ~dst:!n;
        incr n
      end
      else runs := t.runs.(i) :: !runs
    done;
    for i = !n to t.len - 1 do
      clear t i
    done;
    let states = !n in
    t.len <- 0;
    t.queued_runs <- 0;
    for i = 0 to states - 1 do
      sift_in t t.states.(i) no_run t.conf.(i) t.ranks.(i)
    done;
    t.size <- states;
    List.iter
      (fun r ->
        let left = Array.sub r.r_order r.r_next (Array.length r.r_order - r.r_next) in
        Array.sort Int.compare left;
        admit_all t r left)
      (List.sort (fun a b -> Int.compare a.r_seq b.r_seq) !runs)
  end

let insert t (p : Partial.t) rank =
  if t.size >= t.cap then flush t;
  insert_state t p rank

let push t (p : Partial.t) =
  let r = rank (Partial.join_length p) t.seq in
  t.seq <- t.seq + 1;
  t.pushed <- t.pushed + 1;
  insert t p r

(* Whether [order], a permutation of the child indices, lists them in
   the heap's order: confidence non-increasing, then join length, then
   index. *)
let in_key_order conf jlen order =
  let ok = ref true and k = ref 1 in
  while !ok && !k < Array.length order do
    let i = order.(!k - 1) and j = order.(!k) in
    let c = Float.compare conf.(j) conf.(i) in
    ok := c < 0 || (c = 0 && (jlen.(i) < jlen.(j) || (jlen.(i) = jlen.(j) && i < j)));
    incr k
  done;
  !ok

let push_run ?order t ~conf ~jlen build =
  let n = Array.length conf in
  let run r_order =
    { r_build = build; r_conf = conf; r_jlen = jlen; r_seq = t.seq; r_order; r_next = 0 }
  in
  if t.size + n > t.cap then begin
    (* Some child might meet the cap: queue them as that frontier would. *)
    let r = run (Array.init n Fun.id) in
    t.seq <- t.seq + n;
    flush t;
    admit_all t r r.r_order
  end
  else if n > 0 then begin
    let sorted =
      match order with
      | Some o when Array.length o = n && in_key_order conf jlen o -> o
      | Some _ | None ->
          (* Child indices follow sequence numbers, so a stable sort on
             (confidence desc, join length) is the heap's order. *)
          let o = Array.init n Fun.id in
          Array.stable_sort
            (fun i j ->
              let c = Float.compare conf.(j) conf.(i) in
              if c <> 0 then c else Int.compare jlen.(i) jlen.(j))
            o;
          o
    in
    let r = run sorted in
    t.seq <- t.seq + n;
    let head = sorted.(0) in
    t.size <- t.size + n;
    t.queued_runs <- t.queued_runs + 1;
    sift_in t Partial.root r conf.(head) (child_rank r head)
  end

(* Reach run heads until the top slot holds a state or the heap is
   empty.  A reached child meets {!admit}: taken, it replaces its run in
   the top slot under the same keys, and the rest of the run goes back
   in under its next child's keys; refused, it is gone and the run takes
   its next child's keys in place. *)
let rec reach t =
  if t.len > 0 && t.runs.(0) != no_run then begin
    let r = t.runs.(0) in
    let i = r.r_order.(r.r_next) in
    r.r_next <- r.r_next + 1;
    let child = r.r_build i in
    let more = r.r_next < Array.length r.r_order in
    if not more then t.queued_runs <- t.queued_runs - 1;
    if t.admit child then begin
      t.pushed <- t.pushed + 1;
      t.states.(0) <- child;
      t.runs.(0) <- no_run;
      if more then
        let j = r.r_order.(r.r_next) in
        sift_in t Partial.root r r.r_conf.(j) (child_rank r j)
    end
    else begin
      t.size <- t.size - 1;
      if more then
        let j = r.r_order.(r.r_next) in
        sift_down t 0 Partial.root r r.r_conf.(j) (child_rank r j)
      else remove_top t
    end;
    reach t
  end

let is_empty t =
  reach t;
  t.len = 0

let settle t (p : Partial.t) = insert t p (t.last_rank lor 1)
let settled t = t.last_rank land 1 = 1

let pop t =
  reach t;
  if t.len = 0 then None
  else begin
    let top = t.states.(0) in
    t.last_rank <- t.ranks.(0);
    t.size <- t.size - 1;
    remove_top t;
    Some top
  end
