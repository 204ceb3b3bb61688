(* The three workloads: set-up, one request of each kind, and the closed
   loops that drive them. Every call into the program is wrapped in a
   trace span named after the public function it calls. *)

open Aldsp_xml
open Aldsp_core
open Aldsp_relational
open Aldsp_sdo
open Aldsp_demo

type env = {
  workload : Settings.workload;
  size : Settings.size;
  demo : Demo.t;
  server : Server.t;
  pool : Pool.t;
}

(* The demo enterprise plus a server with every serving setting pinned.
   The data service registered by [Demo.create] lives in the shared
   registry, so the pinned server sees it too. *)
let setup workload (size : Settings.size) =
  let optimizer_options = Settings.optimizer_options workload size in
  let demo =
    Demo.create ~customers:size.customers
      ~orders_per_customer:size.orders_per_customer
      ~cards_per_customer:size.cards_per_customer
      ~db_latency:Settings.db_latency ~service_latency:Settings.service_latency
      ~optimizer_options ()
  in
  let pool = Pool.create ~workers:Settings.pool_workers () in
  let server =
    Server.create ~optimizer_options
      ~plan_cache_capacity:Settings.plan_cache_capacity ~pool
      ~max_concurrent:Settings.max_concurrent
      ~admission_queue:Settings.admission_queue demo.Demo.registry
  in
  Server.set_work_sharing server (Settings.sharing workload);
  { workload; size; demo; server; pool }

let release env = Pool.shutdown ~wait:true env.pool

let databases env = [ env.demo.Demo.customer_db; env.demo.Demo.card_db ]

let statements env =
  List.fold_left (fun acc db -> acc + db.Database.stats.Database.statements) 0
    (databases env)

let rating_calls env =
  env.demo.Demo.rating_service.Aldsp_services.Web_service.stats
    .Aldsp_services.Web_service.calls

(* Source latencies are switched off while outputs are checked and layers
   are probed: they change plan choice and wall time, never results. *)
let set_latency env ~on =
  List.iter
    (fun db ->
      db.Database.roundtrip_latency <- (if on then Settings.db_latency else 0.))
    (databases env);
  env.demo.Demo.rating_service.Aldsp_services.Web_service.latency <-
    (if on then Settings.service_latency else 0.)

(* One request's outcome. [latency] runs from send to the last delivered
   byte; [ttft] to the first. *)
type sample = {
  kind : string;
  text : string;
  latency : float;
  ttft : float;
  bytes : int;
  digest : string;
  error : string option;
  peak_buffered : int;
}

(* One SDO submit and what it did. *)
type write = {
  customer : int;
  value : string;
  updates : Submit.table_update list;
  statements_issued : int;
}

let op_ids = Stdlib.Atomic.make 0
let next_op () = Stdlib.Atomic.fetch_and_add op_ids 1 + 1

let failed (op : Gen.op) latency msg =
  { kind = op.kind; text = op.text; latency; ttft = latency; bytes = 0;
    digest = ""; error = Some msg; peak_buffered = 0 }

let delivered (op : Gen.op) ~latency ~ttft s peak =
  { kind = op.kind; text = op.text; latency; ttft; bytes = String.length s;
    digest = Digest.to_hex (Digest.string s); error = None;
    peak_buffered = peak }

(* A materialized request: run, then serialize the whole result. The
   serialized text is returned with the sample for callers that read it. *)
let materialized env ses (op : Gen.op) =
  let id = next_op () in
  Trace.span ~op:id op.kind @@ fun root ->
  let t0 = Clock.now () in
  match
    Trace.span ~op:id ~parent:root "Server.session_run" (fun _ ->
        Server.session_run ses op.text)
  with
  | Error e ->
    (failed op (Clock.now () -. t0) (Server.submit_error_to_string e), None, "")
  | Ok items ->
    let s =
      Trace.span ~op:id ~parent:root "Server.serialize_result" (fun _ ->
          Server.serialize_result env.server items)
    in
    let latency = Clock.now () -. t0 in
    (delivered op ~latency ~ttft:latency s 0, Some items, s)

(* A streamed request: the result leaves through the session's bounded
   queue and the incremental serializer into a byte-counting sink (which
   also keeps the bytes, so they can be checked after the run). *)
let streamed ses (op : Gen.op) =
  let id = next_op () in
  Trace.span ~op:id op.kind @@ fun root ->
  let t0 = Clock.now () in
  match
    Trace.span ~op:id ~parent:root "Server.session_run_stream" (fun _ ->
        Server.session_run_stream ses ~buffer:Settings.stream_buffer op.text)
  with
  | Error e -> failed op (Clock.now () -. t0) (Server.submit_error_to_string e)
  | Ok st -> (
    let first = ref 0. in
    let sink = Buffer.create 65536 in
    let r =
      Trace.span ~op:id ~parent:root "Server.stream_serialize" (fun _ ->
          Server.stream_serialize st (fun chunk ->
              if !first = 0. && chunk <> "" then first := Clock.now ();
              Buffer.add_string sink chunk))
    in
    let t1 = Clock.now () in
    match r with
    | Error e -> failed op (t1 -. t0) (Server.submit_error_to_string e)
    | Ok () ->
      delivered op ~latency:(t1 -. t0) ~ttft:(!first -. t0)
        (Buffer.contents sink)
        (Server.stream_peak_buffered st))

let profile_provider = Qname.make ~uri:"fn" "getProfile"
let last_name_path = [ Qname.local "PROFILE"; Qname.local "LAST_NAME" ]

(* update: read a profile, write its LAST_NAME through an SDO submit, then
   run the group-by and a probe of the written row. Returns the four
   requests' samples, the write, and the probe's serialized answer. *)
let update_iteration env ses (it : Gen.iteration) =
  let read, items, _ =
    materialized env ses
      { Gen.kind = "profile"; text = Gen.profile_text it.customer }
  in
  let write_op =
    { Gen.kind = "write";
      text = Printf.sprintf "set LAST_NAME of %s to %s" (Gen.cid it.customer)
          it.new_last_name }
  in
  let write_sample, write =
    match items with
    | Some [ Item.Node profile ] -> (
      let id = next_op () in
      Trace.span ~op:id "write" @@ fun root ->
      let t0 = Clock.now () in
      let sdo =
        Trace.span ~op:id ~parent:root "Sdo.set_field" (fun _ ->
            let sdo = Sdo.of_result ~ds_function:profile_provider profile in
            Result.map (fun () -> sdo)
              (Sdo.set_field sdo last_name_path
                 (Atomic.String it.new_last_name)))
      in
      let before = statements env in
      let r =
        Result.bind sdo (fun sdo ->
            Trace.span ~op:id ~parent:root "Submit.submit" (fun _ ->
                Submit.submit env.demo.Demo.registry [ sdo ]))
      in
      let latency = Clock.now () -. t0 in
      match r with
      | Error m -> (failed write_op latency m, None)
      | Ok report ->
        ( delivered write_op ~latency ~ttft:latency "" 0,
          Some
            { customer = it.customer;
              value = it.new_last_name;
              updates = report.Submit.updates;
              statements_issued = statements env - before } ))
    | Some _ -> (failed write_op 0. "profile read did not return one PROFILE", None)
    | None -> (failed write_op 0. "profile read failed", None)
  in
  let groups, _, _ =
    materialized env ses
      { Gen.kind = "groups"; text = Gen.last_name_groups_text }
  in
  let probe, _, probe_answer =
    materialized env ses
      { Gen.kind = "probe"; text = Gen.last_name_probe_text it.customer }
  in
  ([ read; write_sample; groups; probe ], write, probe_answer)

(* What one closed-loop window produced. *)
type window = {
  samples : sample list;
  writes : write list;
  (* (customer, value written just before, probe answer) *)
  probes : (int * string * string) list;
  wall : float;
}

(* Per-session request sources, created once per run so the timed
   windows continue the sequence the warm-up started. *)
type source =
  | Requests of (unit -> Gen.op) array
  | Iterations of (unit -> Gen.iteration)

let sources env ~seed ~part =
  let customers = env.size.Settings.customers in
  match env.workload with
  | Settings.Serve ->
    Requests
      (Array.init (Settings.sessions Settings.Serve) (fun session ->
           Gen.serve_stream ~seed ~part ~customers ~session))
  | Settings.Report -> Requests [| Gen.report_stream ~seed ~part |]
  | Settings.Update -> Iterations (Gen.update_stream ~seed ~part ~customers)

(* Runs the closed loop until [until] (monotonic seconds) or until
   [max_ops] requests per session, whichever comes first. Each session is
   one thread that sends its next request when the previous one is
   answered. *)
let run_window env src ~until ~max_ops =
  let t0 = Clock.now () in
  let result =
    match src with
    | Requests gens ->
      let n = Array.length gens in
      let out = Array.make n [] in
      let body i () =
        let ses = Server.session env.server () in
        let acc = ref [] and count = ref 0 in
        while Clock.now () < until && !count < max_ops do
          let op = gens.(i) () in
          let s =
            match env.workload with
            | Settings.Report -> streamed ses op
            | Settings.Serve | Settings.Update ->
              let s, _, _ = materialized env ses op in
              s
          in
          acc := s :: !acc;
          incr count
        done;
        out.(i) <- List.rev !acc
      in
      if n = 1 then body 0 ()
      else List.iter Thread.join (List.init n (fun i -> Thread.create (body i) ()));
      { samples = List.concat (Array.to_list out); writes = []; probes = [];
        wall = 0. }
    | Iterations next ->
      let ses = Server.session env.server () in
      let samples = ref [] and writes = ref [] and probes = ref [] in
      let count = ref 0 in
      while Clock.now () < until && !count < max_ops do
        let it = next () in
        let s, w, answer = update_iteration env ses it in
        samples := List.rev_append s !samples;
        Option.iter
          (fun w ->
            writes := w :: !writes;
            probes := (it.Gen.customer, it.Gen.new_last_name, answer) :: !probes)
          w;
        count := !count + List.length s
      done;
      { samples = List.rev !samples; writes = List.rev !writes;
        probes = List.rev !probes; wall = 0. }
  in
  { result with wall = Clock.now () -. t0 }
