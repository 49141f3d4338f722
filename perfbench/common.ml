(* Shared plumbing for the workloads: clocks, order statistics, the
   metric record every workload returns, and scratch directories inside
   the checkout. *)

module Json = Encore_obs.Jsonenc

(* --- time ------------------------------------------------------------- *)

let now () = Int64.to_float (Encore_obs.Clock.now_ns ()) /. 1e9

let timed f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* Timer reads made by a traced pass, so the cost of the benchmark's own
   instrumentation can be reported next to what it measured. *)
let timer_reads = ref 0

(* [span acc f] runs [f] and adds its wall time to [acc] (seconds). *)
let span acc f =
  timer_reads := !timer_reads + 2;
  let r, dt = timed f in
  acc := !acc +. dt;
  r

(* Seconds one clock read costs, measured in-process. *)
let clock_read_cost () =
  let n = 20_000 in
  let t0 = now () in
  for _ = 1 to n do
    ignore (Sys.opaque_identity (Encore_obs.Clock.now_ns ()))
  done;
  (now () -. t0) /. float_of_int n

(* --- order statistics -------------------------------------------------- *)

(* Quantiles as Python's [statistics.quantiles(xs, n=4)] computes them
   (the default "exclusive" method), so the figures printed here are the
   ones a reader recomputes from the raw samples. *)
let quartiles xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let ld = Array.length a in
  if ld = 0 then (nan, nan, nan)
  else if ld = 1 then (a.(0), a.(0), a.(0))
  else
    let m = ld + 1 in
    let q i =
      let j = max 1 (min (ld - 1) (i * m / 4)) in
      let delta = float_of_int ((i * m) - (j * 4)) in
      ((a.(j - 1) *. (4.0 -. delta)) +. (a.(j) *. delta)) /. 4.0
    in
    (q 1, q 2, q 3)

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Nearest-rank percentile, [q] in [0, 1]. *)
let percentile xs q =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan
  else a.(max 0 (min (n - 1) (int_of_float (ceil (q *. float_of_int n)) - 1)))

let sum = List.fold_left ( +. ) 0.0

(* --- results ------------------------------------------------------------ *)

type metric = {
  name : string;
  value : float;
  unit_ : string;
  samples : float list;  (* the per-repetition values behind [value] *)
}

let metric name unit_ value = { name; value; unit_; samples = [] }

(* A metric reported as the median of its samples. *)
let median_metric name unit_ samples =
  { name; value = median samples; unit_; samples }

type result = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : metric list;
  notes : string list;  (* output checks that failed, for the report *)
}

(* --- run context ---------------------------------------------------------- *)

type ctx = {
  seed : int;
  seconds : float;
  jobs : int;
  smoke : bool;
  tmp : string;  (* scratch directory inside the checkout *)
}

let config ctx = { Encore.Config.default with Encore.Config.jobs = ctx.jobs }

(* The mining probe's itemset cap: the CLI default, or a small one in
   smoke mode, where the cap-bound probe would otherwise be most of the
   run. *)
let mining_cap ctx =
  if ctx.smoke then 2_000 else Encore.Pipeline.default_mining_cap

let rec rm_rf path =
  match Sys.is_directory path with
  | true ->
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      Sys.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

let fresh_dir ctx name =
  let dir = Filename.concat ctx.tmp name in
  rm_rf dir;
  Sys.mkdir dir 0o755;
  dir

(* Live major heap in MiB after a full major collection, while [keep]
   (the workload's state) is still reachable.  Unlike the peak heap it
   does not follow GC pacing, so it repeats for a seed. *)
let live_heap_mb keep =
  Gc.full_major ();
  let s = Gc.stat () in
  ignore (Sys.opaque_identity keep);
  float_of_int (s.Gc.live_words * (Sys.word_size / 8)) /. 1048576.0

(* --- the benchmark's metrics ------------------------------------------- *)

let end_to_end_units = [ ("setup_s", "s"); ("live_heap_mb", "MiB"); ("items_per_s", "1/s") ]

(* The end-to-end metrics, the same three on every workload: set-up
   time, live heap, and throughput: [items] images, targets or requests
   processed in [busy] seconds of the workload's timed work. *)
let end_to_end ~setups ~heap ~items ~busy =
  [
    median_metric "setup_s" "s" setups;
    metric "live_heap_mb" "MiB" heap;
    metric "items_per_s" "1/s" (float_of_int items /. busy);
  ]

(* Every per-layer metric, with its unit, in the order a traced run
   prints them.  A traced run reports all of them; a layer the workload
   does not call reads 0 (see README). *)
let per_layer =
  [
    ("sysenv.probe_ms", "ms");
    ("confparse.parse_ms", "ms");
    ("typing.infer_ms", "ms");
    ("dataset.augment_ms", "ms");
    ("dataset.columnar_ms", "ms");
    ("dataset.discretize_ms", "ms");
    ("dataset.transactions", "count");
    ("mining.fpgrowth_ms", "ms");
    ("mining.count", "count");
    ("mining.overflowed", "bool");
    ("rules.infer_ms", "ms");
    ("rules.candidates", "count");
    ("rules.filter_ms", "ms");
    ("rules.kept", "count");
    ("rules.kept_per_candidate", "ratio");
    ("detect.value_stats_ms", "ms");
    ("detect.compile_ms", "ms");
    ("detect.check_us", "us");
    ("detect.assemble_target_us", "us");
    ("detect.check_names_us", "us");
    ("detect.check_rules_us", "us");
    ("detect.check_types_us", "us");
    ("detect.check_values_us", "us");
    ("detect.warnings_per_image", "1/image");
    ("detect.recall", "ratio");
    ("detect.false_alarms_per_image", "1/image");
    ("util.pool_efficiency", "ratio");
    ("serve.latency_p50_us", "us");
    ("serve.latency_p99_us", "us");
    ("serve.max_rps", "1/s");
    ("serve.offer_us", "us");
    ("serve.queue_wait_us", "us");
    ("serve.step_us_p50", "us");
    ("serve.step_us_p99", "us");
    ("serve.decode_us", "us");
    ("serve.journal_us", "us");
    ("serve.image_decode_us", "us");
    ("serve.check_us", "us");
    ("serve.watch_us", "us");
    ("serve.encode_us", "us");
    ("serve.watch_delta_share", "ratio");
    ("serve.queue_depth_max", "count");
    ("serve.generator_late_ms", "ms");
    ("trace.coverage", "ratio");
    ("obs.trace_overhead_frac", "ratio");
  ]

(* Repeat [f] until [seconds] have passed, at least once. *)
let repeat_for ~seconds f =
  let t0 = now () in
  let rec go i acc =
    if i >= 1 && now () -. t0 >= seconds then List.rev acc
    else go (i + 1) (f i :: acc)
  in
  go 0 []

let model_digest m =
  Digest.to_hex (Digest.string (Encore_detect.Model_io.to_string m))
