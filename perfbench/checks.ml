(* Output checks and counter invariants. Both run after the timed
   windows, so neither counts in set-up time or in any latency. *)

open Aldsp_xml
open Aldsp_core
open Aldsp_sdo
open Workloads

(* ------------------------------------------------------------------ *)
(* Output checks                                                       *)

(* A server over the same registry with sharing off, a fresh plan cache
   and one pool worker: the serial reference a request's answer must
   match byte for byte. The caller turns source latency off first. *)
let with_reference env f =
  let pool = Pool.create ~workers:1 () in
  let server =
    Server.create
      ~optimizer_options:(Settings.optimizer_options env.workload env.size)
      ~pool env.demo.Aldsp_demo.Demo.registry
  in
  Fun.protect ~finally:(fun () -> Pool.shutdown ~wait:true pool) (fun () ->
      f server)

let reference_digest server text =
  match Server.run server text with
  | Ok items -> Ok (Digest.to_hex (Digest.string (Server.serialize_result server items)))
  | Error m -> Error m

(* serve and report: every delivered answer — materialized on serve,
   streamed on report — equals the materialized answer of the same text
   run alone on the reference server. Returns the mismatching samples. *)
let compare_with_reference env samples =
  with_reference env @@ fun server ->
  let expected = Hashtbl.create 1024 in
  List.filter
    (fun s ->
      s.error = None
      &&
      let want =
        match Hashtbl.find_opt expected s.text with
        | Some d -> d
        | None ->
          let d = reference_digest server s.text in
          Hashtbl.add expected s.text d;
          d
      in
      want <> Ok s.digest)
    samples

let last_name_of server cid =
  match Server.run server (Gen.profile_text cid) with
  | Ok [ Item.Node profile ] -> (
    match
      Sdo.get_field
        (Sdo.of_result ~ds_function:profile_provider profile)
        last_name_path
    with
    | Some (Atomic.String v) -> Some v
    | _ -> None)
  | _ -> None

(* update: each submit changed exactly one CUSTOMER row of CustomerDB;
   the probe that followed it read the written value back; and a final
   profile read of every written customer returns its last value.
   Returns one message per failed check. *)
let check_updates env ~writes ~probes =
  let one_row (wr : write) =
    match wr.updates with
    | [ u ] ->
      u.Submit.tu_db = "CustomerDB" && u.Submit.tu_table = "CUSTOMER"
      && u.Submit.tu_rows = 1
    | _ -> false
  in
  let bad_writes =
    List.filter_map
      (fun wr ->
        if one_row wr then None
        else
          Some
            (Printf.sprintf "submit for %s changed %d tables (%s)"
               (Gen.cid wr.customer) (List.length wr.updates)
               (String.concat "; "
                  (List.map
                     (fun u ->
                       Printf.sprintf "%s.%s rows=%d" u.Submit.tu_db
                         u.Submit.tu_table u.Submit.tu_rows)
                     wr.updates))))
      writes
  in
  let bad_probes =
    List.filter_map
      (fun (c, v, answer) ->
        let want = Printf.sprintf "<LAST_NAME>%s</LAST_NAME>" v in
        if answer = want then None
        else
          Some
            (Printf.sprintf "probe of %s after writing %S read %S" (Gen.cid c)
               v answer))
      probes
  in
  let last = Hashtbl.create 256 in
  List.iter (fun (wr : write) -> Hashtbl.replace last wr.customer wr.value) writes;
  let bad_reads =
    with_reference env @@ fun server ->
    Hashtbl.fold
      (fun c v acc ->
        match last_name_of server c with
        | Some got when got = v -> acc
        | got ->
          Printf.sprintf "final read of %s: LAST_NAME %s, last written %S"
            (Gen.cid c)
            (match got with Some g -> Printf.sprintf "%S" g | None -> "missing")
            v
          :: acc)
      last []
  in
  bad_writes @ bad_probes @ bad_reads

(* ------------------------------------------------------------------ *)
(* Counter invariants                                                  *)

(* A streamed request's producer releases its admission slot just after
   closing the stream, so wait (briefly) for the serving layer to go
   idle before reading its counters. *)
let quiesce server =
  let deadline = Clock.now () +. 5. in
  let rec wait () =
    let a = Server.admission_stats server in
    if (a.Server.ad_active > 0 || a.Server.ad_queued > 0) && Clock.now () < deadline
    then begin
      Thread.delay 0.001;
      wait ()
    end
  in
  wait ()

(* Every identity the counters must satisfy after the run; each broken
   one is returned as a message. [sent] is the number of requests the
   benchmark presented to the serving layer. *)
let invariants env ~sent (samples : sample list) =
  quiesce env.server;
  let a = Server.admission_stats env.server in
  let st = Server.stats env.server in
  let broken = ref [] in
  let require cond fmt =
    Printf.ksprintf (fun m -> if not cond then broken := m :: !broken) fmt
  in
  require
    (a.Server.ad_active = 0 && a.Server.ad_queued = 0)
    "admission not quiescent: active=%d queued=%d" a.Server.ad_active
    a.Server.ad_queued;
  require
    (a.Server.ad_submitted
     = a.Server.ad_completed + a.Server.ad_deadline_aborts + a.Server.ad_rejected)
    "admission unbalanced: submitted=%d completed=%d deadline_aborts=%d \
     rejected=%d"
    a.Server.ad_submitted a.Server.ad_completed a.Server.ad_deadline_aborts
    a.Server.ad_rejected;
  require (a.Server.ad_submitted = sent)
    "admission saw %d submissions, the benchmark sent %d" a.Server.ad_submitted
    sent;
  let saved = st.Server.st_dedup_roundtrips_saved in
  let coalesced = st.Server.st_coalesced_hits in
  let merges = st.Server.st_batch_merges in
  if Settings.sharing env.workload then
    require (saved = coalesced + merges)
      "sharing: saved=%d <> coalesced=%d + merges=%d" saved coalesced merges
  else
    require
      (saved = 0 && coalesced = 0 && merges = 0)
      "sharing is off but saved=%d coalesced=%d merges=%d" saved coalesced
      merges;
  let peak =
    List.fold_left (fun m s -> max m s.peak_buffered) 0 samples
  in
  require (peak <= Settings.stream_buffer)
    "stream buffered %d tokens, capacity %d" peak Settings.stream_buffer;
  (match Settings.sort_budget env.workload env.size with
  | Some budget ->
    require
      (st.Server.st_spill_peak_resident <= budget)
      "spill held %d rows resident, budget %d" st.Server.st_spill_peak_resident
      budget;
    let sorted = List.length (List.filter (fun s -> s.kind = "sorted") samples) in
    require
      (sorted > 0 && st.Server.st_spill_runs >= sorted)
      "%d sorted reports spilled only %d runs" sorted st.Server.st_spill_runs
  | None ->
    require (st.Server.st_spill_runs = 0)
      "no sort budget, yet %d runs spilled" st.Server.st_spill_runs);
  List.rev !broken
