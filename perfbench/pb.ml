(* Shared plumbing for the benchmark worker: clocks, order statistics,
   the metric sink that becomes the run's JSON, and process probes. *)

module Json = Duoserve.Json

let mono = Duocore.Clock.mono

(* [timed f] runs [f] and returns its result with the elapsed seconds. *)
let timed f =
  let t0 = mono () in
  let r = f () in
  (r, mono () -. t0)

let sorted xs = List.sort Float.compare xs

let median xs =
  match sorted xs with
  | [] -> nan
  | s ->
      let a = Array.of_list s in
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* The tail statistic: the highest order statistic that still has at
   least ten samples beyond it, returned with its percentile rank.
   [None] below eleven samples — no tail is reported from fewer. *)
let tail xs =
  let a = Array.of_list (sorted xs) in
  let n = Array.length a in
  if n < 11 then None
  else
    let i = n - 11 in
    Some (a.(i), 100.0 *. float_of_int (i + 1) /. float_of_int n)

let sum xs = List.fold_left ( +. ) 0.0 xs
let ratio a b = if b = 0.0 then 0.0 else a /. b

(* --- the metric sink ------------------------------------------------- *)

type metric = {
  m_value : float;
  m_n : int;  (* samples behind the value *)
  m_note : string;  (* e.g. the tail's percentile rank *)
  m_scaled : bool;  (* an end-to-end time: reported host-calibrated *)
}

let metrics : (string * metric) list ref = ref []

(* Operations attempted and failed (a failed operation is one that
   errored or did not pass every correctness check), plus one message
   per failure. *)
let attempted = ref 0
let failed = ref 0
let failures : string list ref = ref []

let put ?(n = 1) ?(note = "") ?(scaled = false) name value =
  metrics :=
    (name, { m_value = value; m_n = n; m_note = note; m_scaled = scaled })
    :: List.remove_assoc name !metrics

(* --- host calibration -----------------------------------------------------

   The shared host's speed drifts by up to ~1.5x over minutes: the same
   MAS case ran 170-290 ms within two minutes on a 2-vCPU VM, with CPU
   time equal to wall time and no page faults.  Of four fixed kernels
   timed beside that case (pointer chasing, string hashing, hashtable
   building, sorting), sorting an int array with polymorphic compare
   tracked it best: slope 1.05 on log time, correlation 0.97.  Every
   end-to-end time is reported as measured x (reference kernel time /
   this run's median kernel time), i.e. in milliseconds of a host where
   the kernel takes [reference_s]; raw values and the kernel samples are
   kept in the result file, and the traced run reports
   [host.calibration_ms] and [host.scale].  Samples are spread over the
   run (the host's speed also flips within seconds): between calls on
   the synthesis workloads, in quiet moments of serve-refine's traffic.

   The kernel runs in a separate short-lived process
   ([duoperf.exe probe]) while this one waits for it, before that
   process does anything else, so none of the program's heap or state
   is in the kernel's address space and no program code runs beside it
   unless the program leaves a thread running between calls. *)

let sort_src = Array.init 50_000 (fun i -> i * 48271 mod 65521)
let sort_buf = Array.make 50_000 0

let kernel () =
  Array.blit sort_src 0 sort_buf 0 (Array.length sort_src);
  Array.sort compare sort_buf;
  sort_buf.(0)

(* In the probe process: one untimed run to fault the arrays in, then
   the median of three timed runs. *)
let kernel_sample () =
  ignore (Sys.opaque_identity (kernel ()));
  median
    (List.init 3 (fun _ ->
         let r, dt = timed kernel in
         ignore (Sys.opaque_identity r);
         dt))

let reference_s = 0.0135
let calibration : float list ref = ref []
let last_calibration = ref neg_infinity

(* Run [duoperf.exe probe args] and wait for it: it prints a kernel
   sample, booked here, then whatever [args] ask for, returned. *)
let probe args =
  let exe = Sys.executable_name in
  let ic = Unix.open_process_args_in exe (Array.of_list (exe :: "probe" :: args)) in
  let line = try input_line ic with End_of_file -> "" in
  (match Unix.close_process_in ic with
  | Unix.WEXITED 0 -> ()
  | Unix.WEXITED _ | Unix.WSIGNALED _ | Unix.WSTOPPED _ -> failwith "the probe process failed");
  match List.map float_of_string (String.split_on_char ' ' (String.trim line)) with
  | k :: rest ->
      calibration := k :: !calibration;
      last_calibration := mono ();
      rest
  | [] -> failwith "the probe process printed nothing"

let calibrate () = ignore (probe [])

(* At least [every] seconds passed since the last sample. *)
let calibration_due every = mono () -. !last_calibration >= every

let calibrate_n n =
  for _ = 1 to n do
    calibrate ()
  done

let scale () = if !calibration = [] then 1.0 else reference_s /. median !calibration

let put_host () =
  put ~n:(List.length !calibration) "host.calibration_ms" (median !calibration *. 1000.0);
  put ~n:(List.length !calibration) "host.scale" (scale ())

(* [fail ~ops fmt] books [ops] failed operations under one message. *)
let fail ?(ops = 1) fmt =
  Printf.ksprintf
    (fun msg ->
      prerr_endline ("perfbench: FAILED " ^ msg);
      failed := !failed + ops;
      failures := msg :: !failures)
    fmt

(* A latency distribution in milliseconds: [<base>_p50_ms] and
   [<base>_tail_ms], both carrying the sample count.  With fewer than
   eleven samples the tail is reported as the maximum and flagged. *)
let samples : (string * float list) list ref = ref []

let put_dist_ms ?(scaled = true) base secs =
  let ms = List.map (fun s -> s *. 1000.0) secs in
  let n = List.length ms in
  samples := (base ^ "_ms", ms) :: !samples;
  put ~n ~scaled (base ^ "_p50_ms") (median ms);
  match tail ms with
  | Some (v, pct) -> put ~n ~scaled ~note:(Printf.sprintf "p%.0f" pct) (base ^ "_tail_ms") v
  | None ->
      put ~n ~scaled ~note:"max (<11 samples)" (base ^ "_tail_ms")
        (List.fold_left Float.max 0.0 ms)

let num f = Json.Num f
let str s = Json.Str s

let write_report path ~header ~extra =
  let k = scale () in
  let metric_json (name, m) =
    ( name,
      Json.Obj
        [
          ("value", num (if m.m_scaled then m.m_value *. k else m.m_value));
          ("raw", num m.m_value);
          ("n", num (float_of_int m.m_n));
          ("note", str (if m.m_scaled then String.trim (m.m_note ^ " calibrated") else m.m_note));
        ] )
  in
  let doc =
    Json.Obj
      (header
      @ [
          ("attempted", num (float_of_int !attempted));
          ("failed", num (float_of_int !failed));
          ("failures", Json.List (List.rev_map str !failures));
          ("metrics", Json.Obj (List.rev_map metric_json !metrics));
          ( "samples",
            Json.Obj (List.rev_map (fun (k, l) -> (k, Json.List (List.map num l))) !samples) );
          ( "calibration",
            Json.Obj
              [
                ("reference_s", num reference_s);
                ("scale", num k);
                ("samples_s", Json.List (List.rev_map num !calibration));
              ] );
        ]
      @ extra)
  in
  let oc = open_out path in
  output_string oc (Json.to_string doc);
  output_char oc '\n';
  close_out oc

(* --- process probes --------------------------------------------------- *)

(* User + system CPU seconds of a process so far. *)
let cpu_seconds pid =
  match open_in (Printf.sprintf "/proc/%d/stat" pid) with
  | exception Sys_error _ -> 0.0
  | ic ->
      let line = input_line ic in
      close_in ic;
      let rest = String.sub line (String.rindex line ')' + 2) (String.length line - String.rindex line ')' - 2) in
      let f = Array.of_list (String.split_on_char ' ' rest) in
      (* fields 14 and 15 of stat(5), counted from the state field (3) *)
      (float_of_string f.(11) +. float_of_string f.(12)) /. 100.0

(* Peak resident set ([VmHWM]) of a process, in MiB. *)
let peak_rss_mb pid =
  let path = Printf.sprintf "/proc/%s/status" pid in
  match open_in path with
  | exception Sys_error _ -> 0.0
  | ic ->
      let rec scan () =
        match input_line ic with
        | exception End_of_file -> 0.0
        | line ->
            if String.length line > 6 && String.sub line 0 6 = "VmHWM:" then
              Scanf.sscanf
                (String.sub line 6 (String.length line - 6))
                " %f kB"
                (fun kb -> kb /. 1024.0)
            else scan ()
      in
      let v = scan () in
      close_in ic;
      v

(* GC work summed over (before, after) snapshots of individual calls, so
   the benchmark's own collections between calls are left out. *)
let put_gc_deltas (pairs : (Gc.stat * Gc.stat) list) =
  let fsum f = sum (List.map (fun ((a : Gc.stat), (b : Gc.stat)) -> f b -. f a) pairs) in
  let isum f = fsum (fun s -> float_of_int (f s)) in
  let mb words = words *. float_of_int (Sys.word_size / 8) /. 1048576.0 in
  put "gc.minor_mb" (mb (fsum (fun s -> s.Gc.minor_words)));
  put "gc.promoted_mb" (mb (fsum (fun s -> s.Gc.promoted_words)));
  put "gc.minor_collections" (isum (fun s -> s.Gc.minor_collections));
  put "gc.major_collections" (isum (fun s -> s.Gc.major_collections))

(* --- behaviour fingerprints -------------------------------------------- *)

(* A candidate list's fingerprint: SQL text and confidence of every
   candidate in emission order. *)
let candidates_hash (cands : Duocore.Enumerate.candidate list) =
  let b = Buffer.create 256 in
  List.iter
    (fun (c : Duocore.Enumerate.candidate) ->
      Buffer.add_string b (Duosql.Pretty.query c.Duocore.Enumerate.cand_query);
      Buffer.add_string b (Printf.sprintf "|%.17g\n" c.Duocore.Enumerate.cand_confidence))
    cands;
  String.sub (Digest.to_hex (Digest.string (Buffer.contents b))) 0 16
