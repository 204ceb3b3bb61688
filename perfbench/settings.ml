(* Every setting the workloads depend on, pinned in one place. The run
   prints them (see [describe]) so a result always carries the
   configuration it was measured under. *)

open Aldsp_core

type size = {
  customers : int;
  orders_per_customer : int;
  cards_per_customer : int;
  report_sort_budget : int;
      (** In-memory rows of a report sort before it spills; set explicitly
          so the ALDSP_SORT_BUDGET environment default never applies. *)
}

(* The demo enterprise every workload runs on. [tiny] is the self-test
   size: same code paths, seconds instead of minutes. *)
let full =
  { customers = 4000; orders_per_customer = 3; cards_per_customer = 1;
    report_sort_budget = 1024 }

let tiny =
  { customers = 120; orders_per_customer = 3; cards_per_customer = 1;
    report_sort_budget = 32 }

let db_latency = 0.0005
let service_latency = 0.001
let zipf_s = 1.0
let plan_cache_capacity = 128
let pool_workers = 4
let max_concurrent = 16
let admission_queue = 64
let stream_buffer = 256

(* An end-to-end run measures in this many processes, one after another,
   each for its share of the window, and pools their samples: how fast
   one process runs varies with where the machine placed it, and pooling
   several evens that out. *)
let processes = 3

(* Repetitions of the whole set-up in each process; set-up time is the
   median over all of them. *)
let setup_repeats = 3

(* Processes that only set up, started before each measuring process: the
   set-ups of one process cluster (0.025 s in one, 0.05 s in the next on a
   shared 2-core host), so the median needs many processes, and these
   cost a fraction of a second each. *)
let setup_processes_per_part = 2

type workload = Serve | Report | Update

let workload_of_string = function
  | "serve" -> Some Serve
  | "report" -> Some Report
  | "update" -> Some Update
  | _ -> None

let workload_name = function
  | Serve -> "serve"
  | Report -> "report"
  | Update -> "update"

let sessions = function Serve -> 2 | Report | Update -> 1
let sharing = function Serve -> true | Report | Update -> false

(* Report sorts spill; serve and update sort in memory. *)
let sort_budget w size =
  match w with Report -> Some size.report_sort_budget | Serve | Update -> None

let optimizer_options w size =
  { Optimizer.default_options with sort_budget_rows = sort_budget w size }

let describe w size =
  Printf.sprintf
    "customers=%d orders_per_customer=%d cards_per_customer=%d \
     db_latency_s=%g service_latency_s=%g zipf_s=%g sessions=%d sharing=%b \
     sort_budget_rows=%s stream_buffer=%d pool_workers=%d \
     plan_cache_capacity=%d max_concurrent=%d admission_queue=%d \
     processes=%d setup_processes_per_part=%d setup_repeats=%d"
    size.customers size.orders_per_customer size.cards_per_customer db_latency
    service_latency zipf_s (sessions w) (sharing w)
    (match sort_budget w size with Some n -> string_of_int n | None -> "none")
    stream_buffer pool_workers plan_cache_capacity max_concurrent
    admission_queue processes setup_processes_per_part setup_repeats
