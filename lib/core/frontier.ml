(* A binary min-heap stored as parallel arrays: the states, and beside
   them the priority keys unboxed — confidence in a float array, and join
   length, insertion sequence number and the settled bit packed into one
   int ([jlen * 2^41 + seq * 2 + settled], which orders like the pair
   (jlen, seq): no two queued entries share a sequence number, so the
   settled bit never decides a comparison).  A push stores three words
   and allocates nothing; a comparison reads no state. *)

type t = {
  mutable states : Partial.t array;
  mutable conf : float array;
  mutable ranks : int array;
  mutable len : int;
  mutable seq : int;
  mutable last_rank : int;  (* of the last popped entry *)
  mutable dropped : int;
  cap : int;
}

let create ?(cap = max_int) () =
  {
    states = Array.make 64 Partial.root;
    conf = Array.make 64 0.0;
    ranks = Array.make 64 0;
    len = 0;
    seq = 0;
    last_rank = 0;
    dropped = 0;
    cap;
  }

let dropped t = t.dropped
let size t = t.len
let is_empty t = t.len = 0
let pushed t = t.seq

let seq_bits = 40
let rank jlen seq = (jlen lsl (seq_bits + 1)) lor (seq lsl 1)

(* Whether keys [(conf, rank)] have higher priority than slot [j]: the
   order of {!Partial.compare_priority} on the stored keys. *)
let key_higher t conf rank j =
  let c = Float.compare t.conf.(j) conf in
  if c <> 0 then c < 0 else rank < t.ranks.(j)

let higher t i j = key_higher t t.conf.(i) t.ranks.(i) j

(* Move slot [src] to slot [dst] (no heap repair). *)
let move t ~src ~dst =
  t.states.(dst) <- t.states.(src);
  t.conf.(dst) <- t.conf.(src);
  t.ranks.(dst) <- t.ranks.(src)

(* Compact to the best cap/2 entries when the cap is exceeded: a sorted
   prefix is a valid heap.  Vacated state slots are cleared so they pin
   nothing. *)
let compact t =
  let order = Array.init t.len Fun.id in
  Array.sort (fun i j -> if i = j then 0 else if higher t i j then -1 else 1) order;
  let keep = min (max 1 (t.cap / 2)) t.len in
  t.dropped <- t.dropped + (t.len - keep);
  let pick a fill = Array.init (Array.length a) (fun i -> if i < keep then a.(order.(i)) else fill) in
  t.states <- pick t.states Partial.root;
  t.conf <- pick t.conf 0.0;
  t.ranks <- pick t.ranks 0;
  t.len <- keep

let grow t =
  let n = 2 * Array.length t.states in
  let extend a fill =
    let a' = Array.make n fill in
    Array.blit a 0 a' 0 t.len;
    a'
  in
  t.states <- extend t.states Partial.root;
  t.conf <- extend t.conf 0.0;
  t.ranks <- extend t.ranks 0

(* Write [p] and its keys to slot [i]. *)
let store t i (p : Partial.t) conf rank =
  t.states.(i) <- p;
  t.conf.(i) <- conf;
  t.ranks.(i) <- rank

(* Insert [p] under [rank]: sift a hole up from the end, moving each
   parent down once, and write the state where the hole stops. *)
let insert t (p : Partial.t) rank =
  if t.len >= t.cap then compact t;
  if t.len = Array.length t.states then grow t;
  let conf = p.Partial.confidence in
  let hole = ref t.len in
  t.len <- t.len + 1;
  while !hole > 0 && key_higher t conf rank ((!hole - 1) / 2) do
    let parent = (!hole - 1) / 2 in
    move t ~src:parent ~dst:!hole;
    hole := parent
  done;
  store t !hole p conf rank

let push t (p : Partial.t) =
  let r = rank (Partial.join_length p) t.seq in
  t.seq <- t.seq + 1;
  insert t p r

let settle t (p : Partial.t) = insert t p (t.last_rank lor 1)
let settled t = t.last_rank land 1 = 1

(* Remove and return the top slot: the last slot's entry sifts down
   from a hole at the root. *)
let pop t =
  if t.len = 0 then None
  else begin
    let top = t.states.(0) in
    t.last_rank <- t.ranks.(0);
    let last = t.len - 1 in
    t.len <- last;
    if last > 0 then begin
      let p = t.states.(last) and conf = t.conf.(last) and rank = t.ranks.(last) in
      let hole = ref 0 and sifting = ref true in
      while !sifting do
        let l = (2 * !hole) + 1 in
        let child = if l + 1 < last && higher t (l + 1) l then l + 1 else l in
        if child < last && not (key_higher t conf rank child) then begin
          move t ~src:child ~dst:!hole;
          hole := child
        end
        else sifting := false
      done;
      store t !hole p conf rank
    end;
    t.states.(last) <- Partial.root;
    Some top
  end
