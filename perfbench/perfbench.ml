(* The repository benchmark.

     perfbench.exe --workload serve|report|update --seed N --seconds S
                   --trace 0|1 [--out-dir DIR] [--commit ID] [--tiny]

   --trace 0 measures end-to-end metrics in [Settings.processes] fresh
   processes of this program, one after another, each for its share of
   the window, and pools their samples. Each process sets up the demo
   enterprise several times, warms up, drives the workload's closed loop,
   then checks every counter invariant and every answer. Processes that
   only set up run before each of them; set-up time is the median over
   every set-up of every process.

   --trace 1 runs in this process alone: the first half of the window
   untraced, the second half traced, then the layer probes; it prints the
   per-layer metrics.

   The last line of standard output is one JSON object:
   {"correct", "attempted", "failed", "metrics"}. A broken invariant ends
   the run with exit code 1 and no JSON line; a wrong answer is counted in
   "failed", sets "correct" to false, and also exits 1. *)

open Aldsp_core
open Workloads

let workload = ref None
let seed = ref 1
let seconds = ref 10.
let trace = ref 0
let out_dir = ref ""
let commit = ref "unknown"
let tiny = ref false

(* Set on the processes an end-to-end run starts. *)
let part = ref (-1)
let result_file = ref ""
let setup_only = ref false

(* Self-test only: plant one fault after the window, to show the checks
   catch it. *)
let inject = ref ""

let spec =
  [ ( "--workload",
      Arg.String
        (fun s ->
          match Settings.workload_of_string s with
          | Some w -> workload := Some w
          | None -> raise (Arg.Bad ("unknown workload " ^ s))),
      "serve|report|update" );
    ("--seed", Arg.Set_int seed, "N  input seed");
    ("--seconds", Arg.Set_float seconds, "S  length of the measured window");
    ("--trace", Arg.Set_int trace, "0|1  end-to-end (0) or per-layer (1) run");
    ("--out-dir", Arg.Set_string out_dir, "DIR  where the traced run writes its spans");
    ("--commit", Arg.Set_string commit, "ID  source revision to stamp on the result");
    ("--tiny", Arg.Set tiny, " self-test size: a small enterprise, short windows");
    ( "--inject",
      Arg.Symbol ([ "wrong-answer"; "invariant" ], fun s -> inject := s),
      " self-test: corrupt one answer, or miscount one request" );
    ("--part", Arg.Set_int part, "I  (internal) measure as process I of a run");
    ("--result", Arg.Set_string result_file, "FILE  (internal) where process I writes");
    ("--setup-only", Arg.Set setup_only, " (internal) process I only sets up") ]

let say fmt = Printf.printf (fmt ^^ "\n%!")

(* Requests the benchmark presents to the serving layer (writes go
   straight to Submit). *)
let reads samples = List.filter (fun s -> s.kind <> "write") samples

let latencies ?(f = fun s -> s.latency) pred samples =
  List.filter_map (fun s -> if pred s then Some (f s *. 1000.) else None) samples

(* Each workload's tail percentile: high enough to sit in the slow
   requests' range, low enough to leave well over ten samples beyond it in
   a run of the configured length (p99 on update moved with every short
   stall of the host). *)
let tail_quantile = function
  | Settings.Serve | Settings.Update -> 0.95
  | Settings.Report -> 0.75

(* On report the tail is taken per kind, like the medians: a few dozen
   requests in three modes an order of magnitude apart put a pooled p75 on
   the edge of the slowest mode, where it jumped with the kind counts. *)
let per_kind_tail = function
  | Settings.Report -> true
  | Settings.Serve | Settings.Update -> false

let kinds samples = List.sort_uniq compare (List.map (fun s -> s.kind) samples)

let finish ~correct ~attempted ~failed metrics =
  List.iter (fun (n, u, v) -> say "metric %-32s %14.6f %s" n v u) metrics;
  (match List.find_opt (fun (_, _, v) -> not (Float.is_finite v)) metrics with
  | Some (n, _, _) ->
    prerr_endline ("perfbench: no samples to compute " ^ n);
    exit 1
  | None -> ());
  say "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct attempted failed
    (String.concat ", "
       (List.map
          (fun (name, unit_, v) ->
            Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" name v unit_)
          metrics));
  exit (if correct then 0 else 1)

(* ------------------------------------------------------------------ *)
(* One measuring process                                               *)

type measured = {
  env : env;
  setups : float list;
  digest : string;
  warm : window;
  untraced : window;
  traced : (window * Layers.snapshot * Layers.snapshot * Gc.stat * Gc.stat) option;
  peak_heap_mb : float;
  broken : string list;  (** Counter invariants that did not hold. *)
  attempted : int;
  failed : int;
}

(* One set-up, after a full collection. *)
let setup w size =
  Gc.compact ();
  Clock.time (fun () -> Workloads.setup w size)

let setup_times w size n =
  List.init n (fun _ ->
      let e, dt = setup w size in
      Workloads.release e;
      dt)

let measure w size ~part ~seconds ~traced =
  (* set-up, repeated; the last is kept *)
  let earlier = setup_times w size (Settings.setup_repeats - 1) in
  let env, last = setup w size in
  let setups = earlier @ [ last ] in
  Gc.full_major ();
  (* a second, fresh copy of the request sources: its digest shows which
     inputs the seed produces *)
  let digest =
    Gen.sequence_digest ~count:2048
      (match Workloads.sources env ~seed:!seed ~part with
      | Workloads.Requests gens ->
        Array.to_list (Array.map (fun g () -> (g ()).Gen.text) gens)
      | Workloads.Iterations next ->
        [ (fun () ->
            let it = next () in
            Gen.cid it.Gen.customer ^ " " ^ it.Gen.new_last_name) ])
  in
  let src = Workloads.sources env ~seed:!seed ~part in
  (* warm-up: fills the plan and view caches and starts the pool *)
  let warm_ops = match w with Settings.Report -> 3 | _ -> 20 in
  let warm = Workloads.run_window env src ~until:infinity ~max_ops:warm_ops in
  let window s =
    Workloads.run_window env src ~until:(Clock.now () +. s) ~max_ops:max_int
  in
  let untraced, traced =
    if not traced then (window seconds, None)
    else begin
      let gc_before = Gc.quick_stat () in
      let untraced = window (seconds /. 2.) in
      let gc_after = Gc.quick_stat () in
      Pool.reset_stats env.pool;
      Trace.counter_probe := Layers.op_counters env;
      Trace.enable true;
      let before = Layers.snapshot env in
      let tw = window (seconds /. 2.) in
      let after = Layers.snapshot env in
      Trace.enable false;
      (untraced, Some (tw, before, after, gc_before, gc_after))
    end
  in
  let peak_heap_mb =
    float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
    /. 1e6
  in
  let windows =
    warm :: untraced :: (match traced with Some (tw, _, _, _, _) -> [ tw ] | None -> [])
  in
  let all = List.concat_map (fun (x : window) -> x.samples) windows in
  let probes = List.concat_map (fun (x : window) -> x.probes) windows in
  let all, probes =
    match (!inject, all, probes) with
    | "wrong-answer", s :: rest, [] -> ({ s with digest = "0" } :: rest, probes)
    | "wrong-answer", _, (c, v, _) :: rest -> (all, (c, v, "") :: rest)
    | _ -> (all, probes)
  in
  let sent = List.length (reads all) + if !inject = "invariant" then 1 else 0 in
  let broken = Checks.invariants env ~sent all in
  (* output checks, source latency and sharing off *)
  Workloads.set_latency env ~on:false;
  Server.set_work_sharing env.server false;
  let errors = List.filter (fun s -> s.error <> None) all in
  let wrong =
    match w with
    | Settings.Serve | Settings.Report ->
      List.map (fun s -> "wrong answer for " ^ s.text)
        (Checks.compare_with_reference env all)
    | Settings.Update ->
      Checks.check_updates env
        ~writes:(List.concat_map (fun (x : window) -> x.writes) windows)
        ~probes
  in
  Workloads.set_latency env ~on:true;
  Server.set_work_sharing env.server (Settings.sharing w);
  List.iteri
    (fun i m -> if i < 5 then prerr_endline ("perfbench: " ^ m))
    (List.map
       (fun s -> s.kind ^ " failed: " ^ Option.value ~default:"" s.error)
       errors
    @ wrong);
  say "checks answers=%d errors=%d wrong=%d" (List.length all)
    (List.length errors) (List.length wrong);
  { env; setups; digest; warm; untraced; traced; peak_heap_mb; broken;
    attempted = List.length all;
    failed = List.length errors + List.length wrong }

let fail_broken broken =
  List.iter (fun m -> prerr_endline ("perfbench: invariant broken: " ^ m)) broken;
  exit 1

(* ------------------------------------------------------------------ *)
(* End-to-end run: several measuring processes, samples pooled         *)

(* What a measuring process hands back to the run that started it. *)
type part_result = {
  p_setups : float list;
  p_samples : sample list;
  p_wall : float;
  p_peak_heap_mb : float;
  p_attempted : int;
  p_failed : int;
  p_broken : string list;
  p_digest : string;
}

(* Hands [v] back to the run that started this process, and ends it. *)
let hand_back v =
  let oc = open_out_bin !result_file in
  Marshal.to_channel oc v [];
  close_out oc;
  exit 0

let measure_part w size =
  let m = measure w size ~part:!part ~seconds:!seconds ~traced:false in
  Workloads.release m.env;
  hand_back
    { p_setups = m.setups; p_samples = m.untraced.samples;
      p_wall = m.untraced.wall; p_peak_heap_mb = m.peak_heap_mb;
      p_attempted = m.attempted; p_failed = m.failed; p_broken = m.broken;
      p_digest = m.digest }

let setup_part w size = hand_back (setup_times w size Settings.setup_repeats)

(* Starts process [i] with this run's arguments and [extra], waits for it
   and returns what it handed back; its standard output goes to our
   standard error, so only this process prints the result line. *)
let spawn i extra =
  let file = Filename.temp_file "perfbench" ".part" in
  let args =
    [ "--workload"; Settings.workload_name (Option.get !workload);
      "--seed"; string_of_int !seed; "--trace"; "0"; "--commit"; !commit;
      "--part"; string_of_int i; "--result"; file ]
    @ extra
    @ (if !tiny then [ "--tiny" ] else [])
    @ if !inject <> "" then [ "--inject"; !inject ] else []
  in
  let pid =
    Unix.create_process Sys.executable_name
      (Array.of_list (Sys.executable_name :: args))
      Unix.stdin Unix.stderr Unix.stderr
  in
  let _, status = Unix.waitpid [] pid in
  let result =
    match status with
    | Unix.WEXITED 0 -> (
      let ic = open_in_bin file in
      match Marshal.from_channel ic with
      | r ->
        close_in ic;
        Some r
      | exception End_of_file ->
        close_in ic;
        None)
    | _ -> None
  in
  Sys.remove file;
  match result with
  | Some r -> r
  | None ->
    prerr_endline (Printf.sprintf "perfbench: process %d failed" i);
    exit 1

let run_part i : part_result =
  spawn i
    [ "--seconds";
      Printf.sprintf "%.17g" (!seconds /. float_of_int Settings.processes) ]

let run_setup_part i : float list = spawn i [ "--setup-only" ]

let end_to_end w =
  (* set-up-only processes before each measuring one *)
  let rounds =
    List.init Settings.processes (fun i ->
        let extra =
          List.init Settings.setup_processes_per_part (fun _ -> run_setup_part i)
        in
        (List.concat extra, run_part i))
  in
  let parts = List.map snd rounds in
  (match List.concat_map (fun p -> p.p_broken) parts with
  | [] -> say "invariants ok"
  | broken -> fail_broken broken);
  say "inputs digest=%s"
    (Digest.to_hex
       (Digest.string (String.concat "" (List.map (fun p -> p.p_digest) parts))));
  let setups = List.concat_map (fun (extra, p) -> extra @ p.p_setups) rounds in
  say "setup_s each %s" (String.concat " " (List.map (Printf.sprintf "%.4f") setups));
  let s = List.concat_map (fun p -> p.p_samples) parts in
  let wall = List.fold_left (fun acc p -> acc +. p.p_wall) 0. parts in
  let q = tail_quantile w in
  let rd = latencies (fun s -> s.kind <> "write") s in
  let tail_groups =
    if per_kind_tail w then
      List.map (fun k -> latencies (fun s -> s.kind = k) s) (kinds s)
    else [ rd ]
  in
  say "samples reads=%d tail=p%g%s beyond_tail=%s" (List.length rd) (q *. 100.)
    (if per_kind_tail w then " per kind" else "")
    (String.concat "+"
       (List.map (fun g -> string_of_int (Stats.beyond g q)) tail_groups));
  (* the per-kind figures, printed by name *)
  List.iter
    (fun k ->
      let l = latencies (fun s -> s.kind = k) s in
      say "metric %-32s %14.6f ms n=%d" (k ^ ".latency_p50_ms") (Stats.median l)
        (List.length l);
      match w with
      | Settings.Report ->
        say "metric %-32s %14.6f ms n=%d" (k ^ ".ttft_p50_ms")
          (Stats.median (latencies ~f:(fun s -> s.ttft) (fun s -> s.kind = k) s))
          (List.length l)
      | Settings.Update when k = "write" ->
        say "metric %-32s %14.6f ms n=%d" "write.latency_p95_ms"
          (Stats.quantile l 0.95) (List.length l)
      | _ -> ())
    (kinds s);
  let kind_medians =
    List.map (fun k -> Stats.median (latencies (fun s -> s.kind = k) s)) (kinds s)
  in
  let failed = List.fold_left (fun acc p -> acc + p.p_failed) 0 parts in
  finish ~correct:(failed = 0)
    ~attempted:(List.fold_left (fun acc p -> acc + p.p_attempted) 0 parts)
    ~failed
    [ ("setup_s", "s", Stats.median setups);
      ("ops_per_s", "1/s", float_of_int (List.length s) /. wall);
      ("latency_p50_ms", "ms", Stats.median rd);
      ("latency_tail_ms", "ms",
       Stats.geomean (List.map (fun g -> Stats.quantile g q) tail_groups));
      ("kind_p50_geomean_ms", "ms", Stats.geomean kind_medians);
      ("peak_heap_mb", "MB", Stats.median (List.map (fun p -> p.p_peak_heap_mb) parts)) ]

(* ------------------------------------------------------------------ *)
(* Traced run: per-layer metrics                                       *)

let per_layer w size =
  let m = measure w size ~part:0 ~seconds:!seconds ~traced:true in
  if m.broken <> [] then fail_broken m.broken;
  say "invariants ok";
  say "inputs digest=%s" m.digest;
  let env = m.env in
  let tw, before, after, gc_before, gc_after = Option.get m.traced in
  (* the probe sample: the traced window's first requests, in order *)
  let sample =
    let rs = reads tw.samples in
    match w with
    | Settings.Report ->
      List.filter_map
        (fun k ->
          List.find_map
            (fun s -> if s.kind = k then Some (s.kind, s.text) else None)
            rs)
        (kinds rs)
    | _ -> List.filteri (fun i _ -> i < 40) (List.map (fun s -> (s.kind, s.text)) rs)
  in
  let probe = Layers.probe env sample in
  let lineage = match w with Settings.Update -> Layers.lineage_s env | _ -> 0. in
  let metrics =
    Layers.per_layer
      { Layers.before; after; traced = tw; untraced = m.untraced; gc_before;
        gc_after; probe; lineage }
  in
  List.iter
    (fun (name, self) -> say "self_time %-32s %12.3f ms" name (self *. 1000.))
    (Trace.self_times ());
  if !out_dir <> "" then begin
    let path =
      Filename.concat !out_dir
        (Printf.sprintf "trace-%s-seed%d.json" (Settings.workload_name w) !seed)
    in
    Trace.write path
      ~header:
        (Printf.sprintf
           "\"workload\": %S, \"seed\": %d, \"nproc\": %d, \"ocaml\": %S, \
            \"commit\": %S, \"settings\": %S"
           (Settings.workload_name w) !seed
           (Domain.recommended_domain_count ())
           Sys.ocaml_version !commit (Settings.describe w size));
    say "trace spans=%d written to %s" (List.length (Trace.all ())) path
  end;
  Workloads.release env;
  finish ~correct:(m.failed = 0) ~attempted:m.attempted ~failed:m.failed
    (List.map (fun x -> (x.Layers.name, x.Layers.unit_, x.Layers.value)) metrics)

let () =
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "perfbench.exe --workload W --seed N --seconds S --trace 0|1";
  let w =
    match !workload with
    | Some w -> w
    | None ->
      prerr_endline "perfbench: --workload is required";
      exit 2
  in
  let size = if !tiny then Settings.tiny else Settings.full in
  say "perfbench workload=%s seed=%d seconds=%g trace=%d part=%d nproc=%d \
       ocaml=%s commit=%s"
    (Settings.workload_name w) !seed !seconds !trace !part
    (Domain.recommended_domain_count ())
    Sys.ocaml_version !commit;
  say "settings %s" (Settings.describe w size);
  if !part >= 0 && !setup_only then setup_part w size
  else if !part >= 0 then measure_part w size
  else if !trace = 1 then per_layer w size
  else end_to_end w
