(* Spans recorded by the benchmark around its calls into the program.

   A span has a name, a start and an end on the monotonic clock, the id of
   the span that caused it (0 for an op's root), and the op it belongs to.
   Spans stay in memory while the run measures and are written out as one
   JSON document when it ends. Recording is off unless [enable] was
   called, so the untraced phase pays one branch per boundary. *)

type span = {
  id : int;
  parent : int;
  op : int;
  name : string;
  start : float;
  stop : float;
  counters : (string * int) list;
      (** On an op's root span: how much each counter of [counter_probe]
          moved while the op ran (other sessions' work included). *)
}

let on = ref false

(* Counters read at every op boundary while tracing. *)
let counter_probe : (unit -> (string * int) list) ref = ref (fun () -> [])
let lock = Mutex.create ()
let spans : span list ref = ref []
let next_id = ref 0

let enable b = on := b

let fresh_id () =
  Mutex.lock lock;
  incr next_id;
  let id = !next_id in
  Mutex.unlock lock;
  id

let record s =
  Mutex.lock lock;
  spans := s :: !spans;
  Mutex.unlock lock

(* [span ~op ~parent name f] runs [f id] inside a span named [name]; the
   span's own id is passed on so callees can parent their spans to it. *)
let span ~op ?(parent = 0) name f =
  if not !on then f 0
  else begin
    let id = fresh_id () in
    let before = if parent = 0 then !counter_probe () else [] in
    let start = Clock.now () in
    let finish () =
      let stop = Clock.now () in
      let counters =
        if parent = 0 then
          List.map2 (fun (k, a) (_, b) -> (k, b - a)) before (!counter_probe ())
        else []
      in
      record { id; parent; op; name; start; stop; counters }
    in
    match f id with
    | r ->
      finish ();
      r
    | exception e ->
      finish ();
      raise e
  end

let all () =
  Mutex.lock lock;
  let l = List.rev !spans in
  Mutex.unlock lock;
  l

(* Self time: a span's duration minus what its children cover, summed by
   span name. Children of one span never overlap here: every op runs its
   calls one after another. *)
let self_times () =
  let l = all () in
  let child = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      if s.parent <> 0 then
        Hashtbl.replace child s.parent
          ((s.stop -. s.start)
          +. Option.value ~default:0. (Hashtbl.find_opt child s.parent)))
    l;
  let by_name = Hashtbl.create 32 in
  List.iter
    (fun s ->
      let self =
        (s.stop -. s.start) -. Option.value ~default:0. (Hashtbl.find_opt child s.id)
      in
      Hashtbl.replace by_name s.name
        (self +. Option.value ~default:0. (Hashtbl.find_opt by_name s.name)))
    l;
  List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) by_name [])

let write path ~header =
  let oc = open_out path in
  let l = all () in
  let t0 = List.fold_left (fun m s -> Float.min m s.start) infinity l in
  Printf.fprintf oc "{%s,\n\"spans\": [\n" header;
  List.iteri
    (fun i s ->
      Printf.fprintf oc
        "%s{\"id\":%d,\"parent\":%d,\"op\":%d,\"name\":%S,\"start_us\":%.1f,\"end_us\":%.1f,\"counters\":{%s}}\n"
        (if i = 0 then "" else ",")
        s.id s.parent s.op s.name
        ((s.start -. t0) *. 1e6)
        ((s.stop -. t0) *. 1e6)
        (String.concat ","
           (List.map (fun (k, v) -> Printf.sprintf "%S:%d" k v) s.counters)))
    l;
  output_string oc "]}\n";
  close_out oc
