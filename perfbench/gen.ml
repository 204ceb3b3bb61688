(* Seeded input generation. Every op a workload sends — query text, key,
   new LAST_NAME value — is a pure function of the seed, the measuring
   process's part number and the session number, so two runs with one
   seed send the same sequences. Which customers are hot depends on the
   seed alone. The program
   under test sees only these texts and SDO edits. *)

type op = { kind : string; text : string }

let cid i = Printf.sprintf "CUST%04d" i

(* Zipf(s) over [1, n]: the inverse CDF is a binary search over the
   cumulative weights. Rank r has weight 1 / r^s. *)
type zipf = { cdf : float array }

let zipf ~n ~s =
  let cdf = Array.make n 0. in
  let acc = ref 0. in
  for r = 1 to n do
    acc := !acc +. (1. /. (float_of_int r ** s));
    cdf.(r - 1) <- !acc
  done;
  let total = !acc in
  { cdf = Array.map (fun c -> c /. total) cdf }

let zipf_rank z st =
  let u = Random.State.float st 1. in
  let lo = ref 0 and hi = ref (Array.length z.cdf - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if z.cdf.(mid) < u then lo := mid + 1 else hi := mid
  done;
  !lo

(* Which customer each popularity rank lands on: a seeded permutation, so
   the hot keys differ from seed to seed. *)
let key_order ~seed ~n =
  let st = Random.State.make [| seed; 0x6b6579 |] in
  let a = Array.init n (fun i -> i + 1) in
  for i = n - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

type keys = { z : zipf; order : int array }

let keys ~seed ~customers =
  { z = zipf ~n:customers ~s:Settings.zipf_s; order = key_order ~seed ~n:customers }

let draw_key k st = k.order.(zipf_rank k.z st)

let profile_text c = Printf.sprintf "getProfileByID(%S)" (cid c)

let probe_text c =
  Printf.sprintf "for $c in CUSTOMER() where $c/CID eq %S return $c" (cid c)

let last_name_probe_text c =
  Printf.sprintf "for $c in CUSTOMER() where $c/CID eq %S return $c/LAST_NAME"
    (cid c)

let order_count_text c =
  Printf.sprintf
    "count(for $o in ORDER_T() where $o/CID eq %S return $o)" (cid c)

let join_range = 20

let join_text lo =
  Printf.sprintf
    "for $c in CUSTOMER(), $x in CREDIT_CARD() where $c/CID eq $x/CID and \
     $c/CID ge %S and $c/CID le %S return <R>{$c/CID, $x/NUM}</R>"
    (cid lo)
    (cid (lo + join_range - 1))

(* Table 1(e): group-by with aggregation, pushed as one GROUP BY. *)
let last_name_groups_text =
  "for $c in CUSTOMER() group $c as $p by $c/LAST_NAME as $l return \
   <CUSTOMER>{$l, count($p)}</CUSTOMER>"

(* Draws from [items] in seeded random order, a whole shuffled copy at a
   time, so every block of [List.length items] draws holds exactly the
   listed mix. *)
let cycle st items =
  let pending = ref [] in
  fun () ->
    (match !pending with
    | [] ->
      let a = Array.of_list items in
      for i = Array.length a - 1 downto 1 do
        let j = Random.State.int st (i + 1) in
        let t = a.(i) in
        a.(i) <- a.(j);
        a.(j) <- t
      done;
      pending := Array.to_list a
    | _ -> ());
    match !pending with
    | x :: rest ->
      pending := rest;
      x
    | [] -> assert false

let repeat n x = List.init n (fun _ -> x)

(* serve: keys Zipf-distributed over all customers; kinds in blocks of 20
   holding exactly 55% profiles, 25% probes, 10% order counts and 10%
   joins, so the realized mix never drifts with the seed. *)
let serve_mix =
  repeat 11 `Profile @ repeat 5 `Probe @ repeat 2 `Count @ repeat 2 `Join

let serve_stream ~seed ~part ~customers ~session =
  let k = keys ~seed ~customers in
  let st = Random.State.make [| seed; 0x7365; part; session |] in
  let next_kind = cycle st serve_mix in
  fun () ->
    let c = draw_key k st in
    match next_kind () with
    | `Profile -> { kind = "profile"; text = profile_text c }
    | `Probe -> { kind = "probe"; text = probe_text c }
    | `Count -> { kind = "count"; text = order_count_text c }
    | `Join ->
      { kind = "join";
        text = join_text (max 1 (min c (customers - join_range + 1))) }

(* report: three report kinds, each cycle in a seeded order so every kind
   runs equally often. *)
let report_texts =
  [ { kind = "scan";
      text =
        "for $c in CUSTOMER() where $c/SINCE ge 1900 return \
         <R>{$c/CID}{$c/LAST_NAME}</R>" };
    { kind = "sorted";
      text =
        "for $c in CUSTOMER() order by fn:string-length($c/FIRST_NAME) mod \
         3, $c/CID descending return <R>{$c/CID}{$c/FIRST_NAME}</R>" };
    (* Table 2(g): outer join with a per-customer count *)
    { kind = "orders";
      text =
        "for $c in CUSTOMER() return <CUSTOMER>{$c/CID, <ORDERS>{count(for \
         $o in ORDER_T() where $o/CID eq $c/CID return $o)}</ORDERS>}</CUSTOMER>" } ]

let report_stream ~seed ~part =
  cycle (Random.State.make [| seed; 0x7270; part |]) report_texts

(* update: one iteration reads a profile, writes a LAST_NAME unique to the
   iteration, then runs the group-by and a probe of the written row. *)
type iteration = { customer : int; new_last_name : string }

let update_stream ~seed ~part ~customers =
  let k = keys ~seed ~customers in
  let st = Random.State.make [| seed; 0x7570; part |] in
  let n = ref 0 in
  fun () ->
    incr n;
    { customer = draw_key k st;
      new_last_name = Printf.sprintf "W%d-%d-%06d" (seed land 0xffff) part !n }

(* The digest of the first [count] ops of every session: a run prints it,
   so two runs can be shown to have sent the same inputs. *)
let sequence_digest ~count streams =
  let b = Buffer.create 65536 in
  List.iter
    (fun next ->
      for _ = 1 to count do
        Buffer.add_string b (next ());
        Buffer.add_char b '\n'
      done)
    streams;
  Digest.to_hex (Digest.string (Buffer.contents b))
