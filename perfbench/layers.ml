(* Per-layer metrics of the traced run, measured from outside the program:
   public counters read at the traced window's boundaries, and after the
   window, timed calls into each layer's public functions on a sample of
   the window's own requests. *)

open Aldsp_core
open Aldsp_relational
open Aldsp_sdo
open Workloads

type snapshot = { st : Server.stats; rating_calls : int }

let snapshot env =
  { st = Server.stats env.server; rating_calls = rating_calls env }

(* The light counters read at every op boundary while tracing. *)
let op_counters env () =
  let dbs = databases env in
  let sum f = List.fold_left (fun acc db -> acc + f db.Database.stats) 0 dbs in
  [ ("statements", sum (fun s -> s.Database.statements));
    ("rows_shipped", sum (fun s -> s.Database.rows_shipped));
    ("rating_calls", rating_calls env) ]

type metric = { name : string; unit_ : string; value : float }

let m name unit_ value = { name; unit_; value }
let ms s = s *. 1000.

(* Simulated source wait: every statement pays the declared roundtrip
   latency, every rating call the declared service latency. *)
let wait_s ~statements ~rating_calls =
  (float_of_int statements *. Settings.db_latency)
  +. (float_of_int rating_calls *. Settings.service_latency)

(* ------------------------------------------------------------------ *)
(* Compile phases, replayed one public function at a time              *)

type phases = {
  parse : float;
  normalize : float;
  typecheck : float;
  optimize : float;
  pushdown : float;
  lower : float;
}

(* The compile pipeline's phases in the order [Server.compile] runs them,
   each timed on its own. The pushdown gate is the server's cost-based
   transfer-volume gate, rebuilt from the public cost model. *)
let compile_phases registry optimizer text =
  let diag = Diag.collector Diag.Fail_fast in
  let query, parse = Clock.time (fun () -> Xq_parser.parse_query text) in
  match query with
  | Error _ -> None
  | Ok { Xq_ast.body = None; _ } -> None
  | Ok ({ Xq_ast.body = Some body; _ } as q) ->
    let core, normalize =
      Clock.time (fun () ->
          let ctx =
            Normalize.of_prolog
              ~schema_lookup:(Metadata.find_schema registry)
              diag q.Xq_ast.prolog
          in
          Normalize.expr ctx body)
    in
    let typed, typecheck =
      Clock.time (fun () -> snd (Typecheck.check (Typecheck.env registry diag) core))
    in
    let optimized, optimize =
      Clock.time (fun () ->
          fst
            (Optimizer.optimize optimizer
               (Optimizer.reorder_sources optimizer typed)))
    in
    let gate ~outer r =
      let latency =
        match Metadata.find_database registry r.Cexpr.db with
        | Some db -> (Cost_model.db_profile db).Cost_model.p_latency
        | None -> 0.
      in
      Cost_model.parameterize_beneficial
        ~outer:(Cost_model.clauses_cardinality registry outer)
        ~inner_rows:(Cost_model.rel_cardinality registry r)
        ~latency
    in
    let pushed, pushdown =
      Clock.time (fun () ->
          let push e = Pushdown.push ~gate registry e in
          push (Optimizer.cleanup optimizer (push optimized)))
    in
    let _, lower =
      Clock.time (fun () ->
          Plan_ir.compile registry (Optimizer.select_methods optimizer pushed))
    in
    Some { parse; normalize; typecheck; optimize; pushdown; lower }

(* ------------------------------------------------------------------ *)
(* Probes on a sample of the window's requests                        *)

type probe = {
  miss_s : float list;  (** [Server.compile] on a plan-cache miss. *)
  phases : phases list;
  run_s : float list;  (** [Server.run] on a hit, per sampled request. *)
  run_wait_s : float list;  (** Simulated source wait inside each run. *)
  serialize_s : float list;  (** [Server.serialize_result], per request. *)
  materialized_s : (string * float) list;
      (** (kind, run + serialize wall), per sampled request. *)
  engine_s : float list;
      (** Parameter-free pushed regions replayed through [Sql_exec.query]
          with latency off, summed per request. *)
}

(* [sample] holds (kind, text) of requests in window order, repeats
   included, so kinds weigh as they did in the traffic. Runs on a fresh
   server over the live registry (sharing off: one caller, no batching
   window to wait out). *)
let probe env sample =
  let pool = Pool.create ~workers:Settings.pool_workers () in
  Fun.protect ~finally:(fun () -> Pool.shutdown ~wait:true pool) @@ fun () ->
  let registry = env.demo.Aldsp_demo.Demo.registry in
  let server =
    Server.create
      ~optimizer_options:(Settings.optimizer_options env.workload env.size)
      ~plan_cache_capacity:Settings.plan_cache_capacity ~pool registry
  in
  let optimizer = Server.optimizer server in
  (* warm the view sub-optimizer's cache, as on the live server, with a
     text the sample cannot hold *)
  ignore (Server.compile server (Gen.profile_text 0));
  let seen = Hashtbl.create 64 in
  let miss_s = ref [] and phases = ref [] and run_s = ref [] in
  let run_wait_s = ref [] and serialize_s = ref [] and materialized_s = ref [] in
  let engine_s = ref [] in
  let counters () = (statements env, rating_calls env) in
  List.iter
    (fun (kind, text) ->
      if not (Hashtbl.mem seen text) then begin
        Hashtbl.add seen text ();
        let _, dt = Clock.time (fun () -> Server.compile server text) in
        miss_s := dt :: !miss_s;
        Option.iter (fun p -> phases := p :: !phases)
          (compile_phases registry optimizer text)
      end;
      let s0, r0 = counters () in
      let items, dt = Clock.time (fun () -> Server.run server text) in
      let s1, r1 = counters () in
      run_s := dt :: !run_s;
      run_wait_s := wait_s ~statements:(s1 - s0) ~rating_calls:(r1 - r0) :: !run_wait_s;
      match items with
      | Error _ -> ()
      | Ok items ->
        let _, ds = Clock.time (fun () -> Server.serialize_result server items) in
        serialize_s := ds :: !serialize_s;
        materialized_s := (kind, dt +. ds) :: !materialized_s)
    sample;
  (* engine time: replay each request's parameter-free regions with the
     declared latency switched off *)
  set_latency env ~on:false;
  Fun.protect ~finally:(fun () -> set_latency env ~on:true) (fun () ->
      List.iter
        (fun (_, text) ->
          match Server.compile server text with
          | Error _ -> ()
          | Ok compiled ->
            let total =
              List.fold_left
                (fun acc r ->
                  match
                    ( r.Plan_ir.sql_params,
                      Metadata.find_database registry r.Plan_ir.sql_db )
                  with
                  | [], Some db ->
                    acc +. snd (Clock.time (fun () -> Sql_exec.query db r.Plan_ir.sql_select))
                  | _ -> acc)
                0. (Plan_ir.regions compiled.Server.ir)
            in
            engine_s := total :: !engine_s)
        sample);
  { miss_s = !miss_s; phases = !phases; run_s = !run_s;
    run_wait_s = !run_wait_s; serialize_s = !serialize_s;
    materialized_s = !materialized_s; engine_s = !engine_s }

(* [Lineage.analyze] of the profile service, which every submit runs. *)
let lineage_s env =
  let registry = env.demo.Aldsp_demo.Demo.registry in
  Stats.mean
    (List.init 20 (fun _ ->
         snd (Clock.time (fun () -> Lineage.analyze registry profile_provider))))

(* ------------------------------------------------------------------ *)
(* The metric set                                                      *)

type inputs = {
  before : snapshot;  (** At the start of the traced window. *)
  after : snapshot;  (** At its end. *)
  traced : window;
  untraced : window;
  gc_before : Gc.stat;  (** Around the untraced window. *)
  gc_after : Gc.stat;
  probe : probe;
  lineage : float;
}

let per_layer i =
  let ops = float_of_int (max 1 (List.length i.traced.samples)) in
  let b = i.before.st and a = i.after.st in
  let bk = b.Server.st_backend and ak = a.Server.st_backend in
  let d f = float_of_int (f a - f b) in
  let dk f = float_of_int (f ak - f bk) in
  let per_op x = x /. ops in
  let hits = d (fun s -> s.Server.st_plan_cache_hits) in
  let misses = d (fun s -> s.Server.st_plan_cache_misses) in
  let statements = dk (fun s -> s.Database.statements) in
  let wait =
    wait_s ~statements:(int_of_float statements)
      ~rating_calls:(i.after.rating_calls - i.before.rating_calls)
  in
  let saved = d (fun s -> s.Server.st_dedup_roundtrips_saved) in
  let phase f = ms (Stats.mean (List.map f i.probe.phases)) in
  let runs = i.probe.run_s and waits = i.probe.run_wait_s in
  let cpu =
    Stats.mean (List.map2 (fun r w -> r -. w) runs waits)
  in
  let writes = i.traced.writes in
  let nwrites = float_of_int (max 1 (List.length writes)) in
  let adm = a.Server.st_admission in
  let kinds_streamed =
    List.sort_uniq compare
      (List.filter_map
         (fun s -> if s.peak_buffered > 0 then Some s.kind else None)
         i.untraced.samples)
  in
  (* streamed wall over materialized wall, per report kind, then their
     geometric mean; 0 where nothing streams *)
  let overhead =
    match kinds_streamed with
    | [] -> 0.
    | kinds ->
      Stats.geomean
        (List.map
           (fun k ->
             Stats.median
               (List.filter_map
                  (fun s -> if s.kind = k then Some s.latency else None)
                  i.untraced.samples)
             /. Stats.median
                  (List.filter_map
                     (fun (k', t) -> if k' = k then Some t else None)
                     i.probe.materialized_s))
           kinds)
  in
  let uops = float_of_int (max 1 (List.length i.untraced.samples)) in
  let gd f = (f i.gc_after -. f i.gc_before) /. uops in
  let rate (w : window) = float_of_int (List.length w.samples) /. w.wall in
  [ (* compiler *)
    m "plan_cache.hit_ratio" "ratio" (if hits +. misses = 0. then 0. else hits /. (hits +. misses));
    m "compile.ms_per_miss" "ms" (ms (Stats.mean i.probe.miss_s));
    m "compile.parse_ms" "ms" (phase (fun p -> p.parse));
    m "compile.normalize_ms" "ms" (phase (fun p -> p.normalize));
    m "compile.typecheck_ms" "ms" (phase (fun p -> p.typecheck));
    m "compile.optimize_ms" "ms" (phase (fun p -> p.optimize));
    m "compile.pushdown_ms" "ms" (phase (fun p -> p.pushdown));
    m "compile.lower_ms" "ms" (phase (fun p -> p.lower));
    (* backend *)
    m "backend.statements_per_op" "count" (per_op statements);
    m "backend.rows_shipped_per_op" "count" (per_op (dk (fun s -> s.Database.rows_shipped)));
    m "backend.rows_scanned_per_op" "count" (per_op (dk (fun s -> s.Database.rows_scanned)));
    m "backend.index_lookups_per_op" "count" (per_op (dk (fun s -> s.Database.index_lookups)));
    m "backend.full_scans_per_op" "count" (per_op (dk (fun s -> s.Database.full_scans)));
    m "backend.wait_ms_per_op" "ms" (ms (per_op wait));
    m "backend.engine_ms_per_op" "ms" (ms (Stats.mean i.probe.engine_s));
    (* runtime *)
    m "exec.cpu_ms_per_op" "ms" (ms cpu);
    m "pool.submitted_per_op" "count" (per_op (d (fun s -> s.Server.st_pool.Pool.st_submitted)));
    m "pool.helped_per_op" "count" (per_op (d (fun s -> s.Server.st_pool.Pool.st_helped)));
    m "pool.max_busy" "count" (float_of_int a.Server.st_pool.Pool.st_max_busy);
    m "extsort.spill_runs_per_op" "count" (per_op (d (fun s -> s.Server.st_spill_runs)));
    m "extsort.spill_mb_per_op" "MB" (per_op (d (fun s -> s.Server.st_spill_bytes)) /. 1e6);
    m "extsort.peak_resident_rows" "count" (float_of_int a.Server.st_spill_peak_resident);
    (* serving *)
    m "admission.peak_active" "count" (float_of_int adm.Server.ad_peak_active);
    m "admission.peak_queued" "count" (float_of_int adm.Server.ad_peak_queued);
    m "admission.rejected" "count" (float_of_int adm.Server.ad_rejected);
    m "admission.deadline_aborts" "count" (float_of_int adm.Server.ad_deadline_aborts);
    m "sharing.saved_ratio" "ratio" (if saved = 0. then 0. else saved /. (statements +. saved));
    m "sharing.coalesced_per_op" "count" (per_op (d (fun s -> s.Server.st_coalesced_hits)));
    m "sharing.batch_merges_per_op" "count" (per_op (d (fun s -> s.Server.st_batch_merges)));
    (* delivery *)
    m "stream.tokens_per_op" "count" (per_op (d (fun s -> s.Server.st_tokens_streamed)));
    m "stream.peak_buffered" "count"
      (float_of_int (List.fold_left (fun acc s -> max acc s.peak_buffered) 0 i.traced.samples));
    m "stream.overhead_ratio" "ratio" overhead;
    m "serialize.ms_per_op" "ms" (ms (Stats.mean i.probe.serialize_s));
    (* updates *)
    m "submit.statements_per_write" "count"
      (if writes = [] then 0.
       else float_of_int (List.fold_left (fun acc w -> acc + w.statements_issued) 0 writes) /. nwrites);
    m "submit.rows_per_write" "count"
      (if writes = [] then 0.
       else
         float_of_int
           (List.fold_left
              (fun acc w ->
                List.fold_left (fun acc u -> acc + u.Submit.tu_rows) acc w.updates)
              0 writes)
         /. nwrites);
    m "lineage.ms_per_write" "ms" (ms i.lineage);
    (* memory, over the untraced window *)
    m "gc.minor_words_per_op" "words" (gd (fun g -> g.Gc.minor_words));
    m "gc.promoted_words_per_op" "words" (gd (fun g -> g.Gc.promoted_words));
    m "gc.major_collections_per_op" "count"
      (gd (fun g -> float_of_int g.Gc.major_collections));
    (* the cost of tracing itself *)
    m "trace.ops_per_s_untraced" "1/s" (rate i.untraced);
    m "trace.ops_per_s_traced" "1/s" (rate i.traced);
    m "trace.overhead_ops_per_s" "1/s" (rate i.traced -. rate i.untraced) ]
