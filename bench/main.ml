(* EnCore benchmark harness.

   Phase 1 regenerates every quantitative table of the paper's
   evaluation at paper scale (the reproduction itself: compare each
   printed table against the corresponding one in the paper, shapes are
   annotated under each).

   Phase 2 times the system with Bechamel: one Test.make per paper
   table plus micro-benchmarks of the pipeline stages (parse, assemble,
   type inference, rule inference, detection, FP-Growth).  The timing
   tests run at test scale so the whole exe stays in CI territory.

   Run with: dune exec bench/main.exe
   Skip timing with: dune exec bench/main.exe -- --tables-only
   Per-stage wall-time of one paper-scale learn/check run:
   dune exec bench/main.exe -- --stage-times [--jobs N]
   Checkpoint snapshot save/load cost at paper scale:
   dune exec bench/main.exe -- --stage checkpoint
   Fleet-checking throughput (compile-once engine vs a single-image
   loop that recompiles per check) at paper scale:
   dune exec bench/main.exe -- --stage check [--jobs N]
   Serve-daemon throughput and latency under a watch change storm:
   dune exec bench/main.exe -- --stage serve
   Rule-learning cost, reference vs sharded bitset evaluator, at paper
   scale and across the synthetic fleet sweep (1k/3k/10k images):
   dune exec bench/main.exe -- --stage learn [--jobs N]
   Machine-readable jobs=1 vs jobs=N comparison (regression gate),
   including the checkpoint, fleet-check and serve measurements:
   dune exec bench/main.exe -- --json FILE [--jobs N] *)

open Bechamel
open Toolkit

module Experiments = Encore.Experiments
module Population = Encore_workloads.Population
module Profile = Encore_workloads.Profile
module Image = Encore_sysenv.Image
module Assemble = Encore_dataset.Assemble
module Detector = Encore_detect.Detector

(* --- phase 1: regenerate the paper's tables ------------------------------- *)

let print_tables () =
  print_endline "=== EnCore (ASPLOS 2014) - reproduced evaluation tables ===\n";
  List.iter
    (fun t ->
      print_endline (Experiments.render t);
      print_newline ())
    (Experiments.all ~scale:Experiments.paper_scale ());
  print_endline "=== Ablation studies (beyond the paper) ===\n";
  List.iter
    (fun t ->
      print_endline (Experiments.render t);
      print_newline ())
    (Encore.Ablation.all ~scale:Experiments.paper_scale ())

(* --- phase 2: bechamel timing ---------------------------------------------- *)

let scale = Experiments.test_scale

(* shared fixtures, built once so the timed closures measure the
   interesting work only *)
let fixture_images =
  lazy (Population.clean (Population.generate ~seed:7 Image.Mysql ~n:25))

let fixture_model = lazy (Detector.learn (Lazy.force fixture_images))

let fixture_assembled =
  lazy (Assemble.assemble_training (Lazy.force fixture_images))

let fixture_target =
  lazy
    (Population.generator_for Image.Mysql Profile.ec2
       (Encore_util.Prng.create 4242) ~id:"bench-target")

let fixture_transactions =
  lazy
    (let assembled = Lazy.force fixture_assembled in
     Encore_dataset.Discretize.transactions assembled.Assemble.table)

(* built lazily per invocation so that --tables-only and --stage-times
   never pay for Bechamel test setup *)
let table_tests () =
  [ Test.make ~name:"table1" (Staged.stage (fun () -> Experiments.table1 ()));
    Test.make ~name:"table2" (Staged.stage (fun () -> Experiments.table2 ~scale ()));
    Test.make ~name:"table3" (Staged.stage (fun () -> Experiments.table3 ~scale ()));
    Test.make ~name:"table8" (Staged.stage (fun () -> Experiments.table8 ~scale ()));
    Test.make ~name:"table9" (Staged.stage (fun () -> Experiments.table9 ~scale ()));
    Test.make ~name:"table10" (Staged.stage (fun () -> Experiments.table10 ~scale ()));
    Test.make ~name:"table11" (Staged.stage (fun () -> Experiments.table11 ~scale ()));
    Test.make ~name:"table12" (Staged.stage (fun () -> Experiments.table12 ~scale ()));
    Test.make ~name:"table13" (Staged.stage (fun () -> Experiments.table13 ~scale ())) ]

let stage_tests () =
  [ Test.make ~name:"parse-image"
      (Staged.stage (fun () ->
           Encore_confparse.Registry.parse_image (Lazy.force fixture_target)));
    Test.make ~name:"assemble-training-25"
      (Staged.stage (fun () -> Assemble.assemble_training (Lazy.force fixture_images)));
    Test.make ~name:"rule-inference-25"
      (Staged.stage (fun () ->
           let assembled = Lazy.force fixture_assembled in
           let images = Lazy.force fixture_images in
           let training =
             List.map2
               (fun img (_, row) -> (img, row))
               images
               (Encore_dataset.Table.rows assembled.Assemble.table)
           in
           Encore_rules.Infer.infer ~types:assembled.Assemble.types training));
    Test.make ~name:"detector-check"
      (Staged.stage (fun () ->
           Detector.check (Lazy.force fixture_model) (Lazy.force fixture_target)));
    Test.make ~name:"fpgrowth-assembled"
      (Staged.stage (fun () ->
           let transactions, _ = Lazy.force fixture_transactions in
           Encore_mining.Fpgrowth.count_only ~max_itemsets:20_000
             ~min_support:(Array.length transactions * 6 / 10)
             transactions));
    Test.make ~name:"generate-image"
      (Staged.stage (fun () ->
           Population.generator_for Image.Mysql Profile.ec2
             (Encore_util.Prng.create 1) ~id:"g"));
    Test.make ~name:"model-serialize"
      (Staged.stage (fun () ->
           Encore_detect.Model_io.to_string (Lazy.force fixture_model)));
    Test.make ~name:"testgen-all-rules"
      (Staged.stage (fun () ->
           Encore.Testgen.generate (Lazy.force fixture_model)
             (Lazy.force fixture_target)));
    (* instrumented path with the nil trace sink: its cost must stay
       within noise of the uninstrumented stages above *)
    Test.make ~name:"learn-resilient-25"
      (Staged.stage (fun () ->
           Encore.Pipeline.learn_resilient (Lazy.force fixture_images))) ]

let run_benchmarks () =
  (* force fixtures outside the timed region *)
  ignore (Lazy.force fixture_images);
  ignore (Lazy.force fixture_model);
  ignore (Lazy.force fixture_assembled);
  ignore (Lazy.force fixture_target);
  ignore (Lazy.force fixture_transactions);
  let cfg =
    Benchmark.cfg ~limit:200 ~quota:(Time.second 1.0) ~kde:(Some 100) ()
  in
  let instances = Instance.[ monotonic_clock ] in
  let tests =
    Test.make_grouped ~name:"encore" ~fmt:"%s/%s" (table_tests () @ stage_tests ())
  in
  let raw = Benchmark.all cfg instances tests in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  print_endline "=== Bechamel timings (monotonic clock, ns/run) ===";
  let rows = ref [] in
  Hashtbl.iter
    (fun name ols_result ->
      match Analyze.OLS.estimates ols_result with
      | Some [ estimate ] -> rows := (name, estimate) :: !rows
      | Some _ | None -> ())
    results;
  List.iter
    (fun (name, ns) ->
      Printf.printf "  %-32s %12.0f ns/run  (%8.3f ms)\n" name ns (ns /. 1e6))
    (List.sort compare !rows)

(* --- per-stage wall time of one paper-scale run ---------------------------- *)

module Trace = Encore_obs.Trace
module Summary = Encore_obs.Summary
module Json = Encore_obs.Jsonenc

let paper_n =
  match List.assoc_opt Image.Mysql Population.paper_training_sizes with
  | Some n -> n
  | None -> 100

(* One paper-scale learn (resilient path) + check with [jobs] worker
   domains, traced into the memory sink; returns the per-stage wall-time
   summary.  Trace and metric state is reset afterwards so back-to-back
   runs at different job counts don't contaminate each other. *)
let run_summary ~jobs =
  let images =
    Population.clean (Population.generate ~seed:7 Image.Mysql ~n:paper_n)
  in
  let target =
    Population.generator_for Image.Mysql Profile.ec2
      (Encore_util.Prng.create 4242) ~id:"bench-target"
  in
  let config = { Encore.Config.default with Encore.Config.jobs } in
  Trace.set_sink Trace.Memory;
  Fun.protect
    ~finally:(fun () ->
      Trace.set_sink Trace.Nil;
      Trace.clear ();
      Encore_obs.Metrics.reset ())
    (fun () ->
      (match Encore.Pipeline.learn_resilient ~config images with
       | Ok (model, _report) -> ignore (Detector.check model target)
       | Error d ->
           prerr_endline
             ("learn failed: " ^ Encore_util.Resilience.diagnostic_to_string d);
           exit 1);
      Summary.of_spans (Trace.roots ()))

let print_stage_times ~jobs =
  Printf.printf
    "=== Per-stage wall time: learn + check, mysql, n=%d (paper scale), \
     jobs=%d ===\n\n"
    paper_n jobs;
  print_string (Summary.to_string (run_summary ~jobs))

(* --- checkpoint / snapshot-store timing ------------------------------------ *)

module Clock = Encore_obs.Clock
module Model_io = Encore_detect.Model_io

let time_ns f =
  let t0 = Clock.now_ns () in
  let r = f () in
  (r, Int64.to_int (Int64.sub (Clock.now_ns ()) t0))

let rec rm_rf path =
  if Sys.is_directory path then begin
    Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
    Sys.rmdir path
  end
  else Sys.remove path

type checkpoint_measurement = {
  payload_bytes : int;
  rounds : int;
  save_ns : int;      (* avg atomic Store.save: temp + fsync + rename + prune *)
  load_ns : int;      (* avg Store.load_latest: verify checksum + parse *)
}

(* Cost of durability at paper scale: serialize the mysql model into a
   snapshot store (atomic write path) and load it back through the
   verifying reader, averaged over a few rounds.  This is the overhead a
   --checkpoint learn run pays per completed stage. *)
let measure_checkpoint () =
  let images =
    Population.clean (Population.generate ~seed:7 Image.Mysql ~n:paper_n)
  in
  let model = Detector.learn images in
  let payload_bytes = String.length (Model_io.to_string model) in
  let dir = Filename.temp_file "encore-bench" ".store" in
  Sys.remove dir;
  Fun.protect ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let store = Model_io.Store.create ~keep:3 ~dir () in
      let rounds = 5 in
      let total_save = ref 0 and total_load = ref 0 in
      for _ = 1 to rounds do
        let _path, ns = time_ns (fun () -> Model_io.Store.save store model) in
        total_save := !total_save + ns;
        let loaded, ns = time_ns (fun () -> Model_io.Store.load_latest store) in
        (match loaded with
         | Ok _ -> ()
         | Error e ->
             prerr_endline
               ("bench: store load failed: " ^ Model_io.load_error_to_string e);
             exit 1);
        total_load := !total_load + ns
      done;
      { payload_bytes; rounds;
        save_ns = !total_save / rounds;
        load_ns = !total_load / rounds })

let print_checkpoint_times () =
  let m = measure_checkpoint () in
  Printf.printf
    "=== Checkpoint snapshot timing: mysql model, n=%d (paper scale) ===\n\n"
    paper_n;
  Printf.printf "  snapshot payload                 %12d bytes\n" m.payload_bytes;
  Printf.printf "  store save (atomic write+prune)  %12d ns  (%8.3f ms)\n"
    m.save_ns (float_of_int m.save_ns /. 1e6);
  Printf.printf "  store load (verify + parse)      %12d ns  (%8.3f ms)\n"
    m.load_ns (float_of_int m.load_ns /. 1e6);
  Printf.printf "  (average of %d rounds)\n" m.rounds

(* --- fleet-checking throughput --------------------------------------------- *)

type check_measurement = {
  fleet_size : int;
  check_jobs : int;
  single_loop_ns : int;  (* Pipeline.check per image: compile every call *)
  fleet_ns : int;        (* Pipeline.check_fleet: compile once, pooled *)
}

let images_per_s ~fleet_size ns =
  if ns <= 0 then 0.0 else float_of_int fleet_size /. (float_of_int ns /. 1e9)

let check_speedup m =
  if m.fleet_ns <= 0 then 0.0
  else float_of_int m.single_loop_ns /. float_of_int m.fleet_ns

(* Serving-path cost at paper scale: check [fleet_size] held-out images
   against a paper-scale mysql model, once through the naive
   single-image loop (Pipeline.check compiles the engine on every
   call) and once through Pipeline.check_fleet (one Engine.compile,
   worker pool).  Both paths produce identical warnings; only the
   throughput differs. *)
let measure_check ~jobs =
  let images =
    Population.clean (Population.generate ~seed:7 Image.Mysql ~n:paper_n)
  in
  let model = Detector.learn images in
  let fleet_size = 100 in
  let fleet =
    List.init fleet_size (fun i ->
        Population.generator_for Image.Mysql Profile.ec2
          (Encore_util.Prng.create (5000 + i))
          ~id:(Printf.sprintf "fleet-%03d" i))
  in
  let config = { Encore.Config.default with Encore.Config.jobs = jobs } in
  (* warm both paths outside the timed region *)
  List.iter (fun img -> ignore (Encore.Pipeline.check model img)) fleet;
  ignore (Encore.Pipeline.check_fleet ~config model fleet);
  (* best of N rounds per path: throughput is a property of the code,
     not of whatever else the host scheduler ran during one pass *)
  let best f =
    let rounds = 3 in
    let m = ref max_int in
    for _ = 1 to rounds do
      let _, ns = time_ns f in
      if ns < !m then m := ns
    done;
    !m
  in
  let single_loop_ns =
    best (fun () ->
        List.iter (fun img -> ignore (Encore.Pipeline.check model img)) fleet)
  in
  let fleet_ns =
    best (fun () -> ignore (Encore.Pipeline.check_fleet ~config model fleet))
  in
  { fleet_size; check_jobs = jobs; single_loop_ns; fleet_ns }

let print_check_times ~jobs =
  let m = measure_check ~jobs in
  Printf.printf
    "=== Fleet checking: %d targets against a mysql model, n=%d (paper \
     scale) ===\n\n"
    m.fleet_size paper_n;
  Printf.printf "  single-image loop (compile per check)  %12d ns  (%8.1f images/s)\n"
    m.single_loop_ns (images_per_s ~fleet_size:m.fleet_size m.single_loop_ns);
  Printf.printf "  check_fleet, jobs=%-2d (compile once)    %12d ns  (%8.1f images/s)\n"
    m.check_jobs m.fleet_ns
    (images_per_s ~fleet_size:m.fleet_size m.fleet_ns);
  Printf.printf "  fleet speedup                          %12.2fx\n" (check_speedup m)

(* --- serve daemon throughput + latency -------------------------------------- *)

type serve_measurement = {
  serve_requests : int;
  serve_images : int;
  serve_wall_ns : int;
  serve_p50_us : float;
  serve_p99_us : float;
  serve_daemon_p50_us : float;  (* the daemon's own rolling-window view *)
  serve_daemon_p99_us : float;
  serve_images_per_s : float;
}

let percentile sorted q =
  let n = Array.length sorted in
  if n = 0 then 0.0
  else sorted.(min (n - 1) (int_of_float (q *. float_of_int n)))

(* The resident daemon under a change storm: [serve_images] mysql
   targets each open a watch session, then replay ConfErr-mutated
   config deltas (the incremental path) with a full inline check mixed
   in every few requests (the full path).  The driver offers one line
   and steps until its response appears, so per-request latency is the
   daemon's processing cost — parse, delta re-check, encode — and
   throughput counts one re-checked image per request. *)
let measure_serve () =
  let images =
    Population.clean (Population.generate ~seed:7 Image.Mysql ~n:paper_n)
  in
  let model = Detector.learn images in
  let srv =
    Encore_serve.Server.create
      (Encore_serve.Cache.create ~provider:(fun ~app:_ -> Ok model))
  in
  let serve_images = 24 in
  let targets =
    Array.init serve_images (fun i ->
        ref
          (Population.generator_for Image.Mysql Profile.ec2
             (Encore_util.Prng.create (9000 + i))
             ~id:(Printf.sprintf "serve-%03d" i)))
  in
  let config_of img =
    match Image.config_for img Image.Mysql with
    | Some cf -> cf.Image.text
    | None -> ""
  in
  let line fields = Json.to_string (Json.Obj fields) in
  let watch_line ~id img =
    line
      [ ("op", Json.Str "watch");
        ("id", Json.Str id);
        ("image", Json.Str img.Image.image_id);
        ("app", Json.Str "mysql");
        ("config", Json.Str (config_of img)) ]
  in
  let check_line ~id img =
    line
      [ ("op", Json.Str "check");
        ("id", Json.Str id);
        ("image", Json.Str (Encore_sysenv.Collector.image_to_text img)) ]
  in
  let rng = Encore_util.Prng.create 77 in
  let serve_requests = 2000 in
  (* the storm is built up front so request encoding (client-side work)
     stays outside the timed region *)
  let lines =
    List.init serve_requests (fun i ->
        let k = i mod serve_images in
        let id = Printf.sprintf "r%04d" i in
        if i < serve_images then watch_line ~id !(targets.(k))
        else if i mod 7 = 0 then check_line ~id !(targets.(k))
        else begin
          let campaign =
            Encore_inject.Conferr.inject rng Image.Mysql !(targets.(k)) ~n:1
          in
          targets.(k) := campaign.Encore_inject.Conferr.image;
          watch_line ~id !(targets.(k))
        end)
  in
  (* warm-up: first contact compiles and caches the engine *)
  ignore (Encore_serve.Server.offer srv (check_line ~id:"warm" !(targets.(0))));
  ignore (Encore_serve.Server.step srv);
  let lat = Array.make serve_requests 0.0 in
  let (), serve_wall_ns =
    time_ns (fun () ->
        List.iteri
          (fun i l ->
            let rs, ns =
              time_ns (fun () ->
                  match Encore_serve.Server.offer srv l with
                  | [] -> Encore_serve.Server.step srv
                  | rs -> rs)
            in
            assert (rs <> []);
            lat.(i) <- float_of_int ns /. 1e3)
          lines)
  in
  (* the daemon's own rolling-window estimate of the same replay,
     read before shutdown: recorded next to the bench-side measurement
     so the two percentile paths can be cross-checked (the window
     estimate interpolates log-scale buckets, so agreement within ~2x
     is the contract, not equality) *)
  let wv = Encore_serve.Server.latency_window srv in
  Encore_serve.Server.request_shutdown srv;
  ignore (Encore_serve.Server.drain_flush srv);
  Array.sort compare lat;
  {
    serve_requests;
    serve_images;
    serve_wall_ns;
    serve_p50_us = percentile lat 0.50;
    serve_p99_us = percentile lat 0.99;
    serve_daemon_p50_us = wv.Encore_obs.Window.w_p50;
    serve_daemon_p99_us = wv.Encore_obs.Window.w_p99;
    serve_images_per_s = images_per_s ~fleet_size:serve_requests serve_wall_ns;
  }

let print_serve_times () =
  let m = measure_serve () in
  Printf.printf
    "=== Serve daemon: %d-request change storm over %d watched mysql \
     targets, model n=%d (paper scale) ===\n\n"
    m.serve_requests m.serve_images paper_n;
  Printf.printf "  sustained throughput  %12.1f images/s\n" m.serve_images_per_s;
  Printf.printf "  request latency p50   %12.1f us\n" m.serve_p50_us;
  Printf.printf "  request latency p99   %12.1f us\n" m.serve_p99_us;
  Printf.printf "  daemon window p50     %12.1f us\n" m.serve_daemon_p50_us;
  Printf.printf "  daemon window p99     %12.1f us\n" m.serve_daemon_p99_us;
  Printf.printf "  wall time             %12d ns  (%8.3f ms)\n" m.serve_wall_ns
    (float_of_int m.serve_wall_ns /. 1e6)

(* --- learning throughput ---------------------------------------------------- *)

module Synthfleet = Encore_workloads.Synthfleet
module Rinfer = Encore_rules.Infer

type learn_point = {
  lp_images : int;
  lp_reference_ns : int;  (* Infer.infer_reference, sequential *)
  lp_sharded_ns : int;    (* Infer.infer: bitset + sharded fan-out *)
}

let learn_ratio p =
  if p.lp_sharded_ns <= 0 then 0.0
  else float_of_int p.lp_reference_ns /. float_of_int p.lp_sharded_ns

type learn_measurement = {
  learn_jobs : int;
  paper : learn_point;
  fleet : learn_point list;   (* one point per Synthfleet.bench_sizes *)
  fleet_monotonic : bool;     (* ratio non-decreasing with fleet size *)
}

let training_of images =
  let assembled = Assemble.assemble_training images in
  let rows = Encore_dataset.Table.rows assembled.Assemble.table in
  ( assembled.Assemble.types,
    List.map2 (fun img (_, row) -> (img, row)) images rows )

(* Rule-learning cost, old evaluator vs new: [infer_reference] is the
   pre-bitset path (one task per candidate, every candidate walking the
   full row range through Relation.eval) run sequentially — what
   "learning" cost before this optimization — while [infer] is the
   sharded bitset path under a [jobs]-domain pool.  Both paths are
   handed the same prebuilt columnar view, so the comparison isolates
   the evaluation strategy from shared data loading.  Each timed round
   starts from a settled major heap ([Gc.full_major]): at 10k rows the
   floating garbage of a previous round otherwise bleeds major-GC
   slices into the next measurement and the points stop being
   comparable across fleet sizes. *)
let measure_learn ~jobs =
  (* the sharded path at 10k rows finishes in a few hundred ms — short
     enough that a single major-GC slice (marking whatever the earlier
     bench stages left live) visibly moves one point and breaks the
     cross-size comparison.  Give the collector headroom for the
     duration of the learn measurement and settle the heap per point. *)
  let gc0 = Gc.get () in
  Gc.set { gc0 with Gc.space_overhead = 800 };
  Fun.protect ~finally:(fun () -> Gc.set gc0) @@ fun () ->
  let best rounds f =
    let m = ref max_int in
    for _ = 1 to rounds do
      Gc.full_major ();
      let _, ns = time_ns f in
      if ns < !m then m := ns
    done;
    !m
  in
  Encore_util.Pool.with_pool ~jobs (fun pool ->
      let point ~rounds n images =
        let types, training = training_of images in
        let view =
          Encore_dataset.Colview.of_rows (List.map snd training)
        in
        (* warm both paths: first touch pays symtab/bitset build *)
        ignore (Rinfer.infer ~pool ~view ~types training);
        Gc.compact ();
        let lp_reference_ns =
          best rounds (fun () ->
              ignore (Rinfer.infer_reference ~view ~types training))
        in
        (* the sharded runs are two orders of magnitude shorter, so a
           single stray GC slice or scheduler stall moves a point far
           more than it moves the reference; buy the variance down with
           extra rounds where rounds are cheap *)
        let lp_sharded_ns =
          best (max rounds 5) (fun () ->
              ignore (Rinfer.infer ~pool ~view ~types training))
        in
        { lp_images = n; lp_reference_ns; lp_sharded_ns }
      in
      let paper =
        point ~rounds:3 paper_n
          (Population.clean (Population.generate ~seed:7 Image.Mysql ~n:paper_n))
      in
      let fleet =
        List.map
          (fun n -> point ~rounds:2 n (Synthfleet.generate ~n ()))
          Synthfleet.bench_sizes
      in
      let rec monotonic = function
        | a :: (b :: _ as rest) ->
            (* 5% slack absorbs clock + GC noise between best-of-N
               points: on a single-core host the reference and sharded
               timings each wander ~15% run to run, so adjacent ratios
               can cross by a few percent even when the underlying
               trend is up *)
            learn_ratio b >= learn_ratio a *. 0.95 && monotonic rest
        | _ -> true
      in
      { learn_jobs = jobs; paper; fleet; fleet_monotonic = monotonic fleet })

let print_learn_times ~jobs =
  let m = measure_learn ~jobs in
  Printf.printf
    "=== Rule learning: reference evaluator (sequential) vs sharded bitset \
     evaluator (jobs=%d) ===\n\n"
    m.learn_jobs;
  let line label p =
    Printf.printf
      "  %-24s reference %12d ns  sharded %12d ns  speedup %6.2fx\n" label
      p.lp_reference_ns p.lp_sharded_ns (learn_ratio p)
  in
  line (Printf.sprintf "mysql n=%d (paper)" paper_n) m.paper;
  List.iter
    (fun p -> line (Printf.sprintf "synthetic fleet n=%d" p.lp_images) p)
    m.fleet;
  Printf.printf "  fleet speedup monotonic                %b\n" m.fleet_monotonic

(* --- incremental learning: suffstats merge + append ------------------------- *)

module Suffstats = Encore_rules.Suffstats

type merge_measurement = {
  mg_images : int;            (* corpus size the learner is resident over *)
  mg_shards : int;
  mg_fold_seq_ns : int;       (* sequential statistics fold *)
  mg_fold_sharded_ns : int;   (* sharded fold on the pool *)
  mg_retrain_ns : int;        (* batch relearn of the n+1 corpus *)
  mg_append_ns : int;         (* learn_append of 1 image into the learner *)
  mg_identical : bool;        (* appended model == retrained model, bytewise *)
}

let fold_ratio m =
  if m.mg_fold_sharded_ns <= 0 then 0.0
  else float_of_int m.mg_fold_seq_ns /. float_of_int m.mg_fold_sharded_ns

let append_ratio m =
  if m.mg_append_ns <= 0 then 0.0
  else float_of_int m.mg_retrain_ns /. float_of_int m.mg_append_ns

(* The acceptance bar for incremental learning: folding one observed
   image into a resident 10k-fleet learner must beat retraining from
   scratch by >= 10x, and the refreshed model must stay byte-identical
   to the batch relearn.  A one-image append is under the learner's
   1 % probe re-arm threshold, so the comparison measures what append
   is designed to amortize: incremental maintenance against the full
   batch pipeline, mining probe included.  The reduced cap keeps the
   retrain leg's probe from dwarfing everything else at this fleet's
   attribute width. *)
let merge_mining_cap = 20_000

let measure_merge ~jobs =
  let n = Synthfleet.full_size in
  let images = Synthfleet.generate ~n () in
  let grown = images @ [ Synthfleet.generate ~seed:4242 ~n:1 () |> List.hd ] in
  let tail = [ List.nth grown n ] in
  let config = { Encore.Config.default with Encore.Config.jobs } in
  let seq_config = { config with Encore.Config.jobs = 1 } in
  let _, mg_fold_seq_ns =
    time_ns (fun () -> Encore.Pipeline.stats_of_images ~config:seq_config images)
  in
  (* the fold shards once per pool worker *)
  let stats, mg_fold_sharded_ns =
    time_ns (fun () -> Encore.Pipeline.stats_of_images ~config images)
  in
  let learner =
    match
      Encore.Pipeline.learner_result ~config ~mining_cap:merge_mining_cap stats
    with
    | Ok l -> l
    | Error d -> failwith d.Encore_util.Resilience.detail
  in
  let retrained, mg_retrain_ns =
    time_ns (fun () ->
        match
          Encore.Pipeline.learn_resilient ~config ~mining_cap:merge_mining_cap
            grown
        with
        | Ok (m, _) -> m
        | Error d -> failwith d.Encore_util.Resilience.detail)
  in
  let appended, mg_append_ns =
    time_ns (fun () -> Encore.Pipeline.learn_append ~config learner tail)
  in
  let mg_identical =
    Model_io.to_string (Encore.Pipeline.model_of_learner appended)
    = Model_io.to_string retrained
  in
  {
    mg_images = n;
    mg_shards = jobs;
    mg_fold_seq_ns;
    mg_fold_sharded_ns;
    mg_retrain_ns;
    mg_append_ns;
    mg_identical;
  }

(* the regression gate --stage merge enforces *)
let merge_gate m = m.mg_identical && append_ratio m >= 10.0

let print_merge_times ~jobs =
  let m = measure_merge ~jobs in
  Printf.printf
    "=== Incremental learning: suffstats fold/merge/append, synthetic fleet \
     n=%d (jobs=%d) ===\n\n"
    m.mg_images jobs;
  Printf.printf "  stats fold sequential   %12d ns  (%8.3f ms)\n"
    m.mg_fold_seq_ns
    (float_of_int m.mg_fold_seq_ns /. 1e6);
  Printf.printf "  stats fold %d shards     %12d ns  (%8.3f ms)  %.2fx\n"
    m.mg_shards m.mg_fold_sharded_ns
    (float_of_int m.mg_fold_sharded_ns /. 1e6)
    (fold_ratio m);
  Printf.printf "  batch relearn n+1       %12d ns  (%8.3f ms)\n"
    m.mg_retrain_ns
    (float_of_int m.mg_retrain_ns /. 1e6);
  Printf.printf "  learn_append 1 image    %12d ns  (%8.3f ms)\n"
    m.mg_append_ns
    (float_of_int m.mg_append_ns /. 1e6);
  Printf.printf "  append speedup vs retrain  %.2fx  (gate: >= 10x)\n"
    (append_ratio m);
  Printf.printf "  appended == retrained      %b\n" m.mg_identical;
  if not (merge_gate m) then begin
    prerr_endline "merge gate FAILED: append not >= 10x or model diverged";
    exit 1
  end

let merge_json m =
  Json.Obj
    [ ("images", Json.Int m.mg_images);
      ("shards", Json.Int m.mg_shards);
      ("fold_seq_ns", Json.Int m.mg_fold_seq_ns);
      ("fold_sharded_ns", Json.Int m.mg_fold_sharded_ns);
      ("fold_speedup", Json.Float (fold_ratio m));
      ("retrain_ns", Json.Int m.mg_retrain_ns);
      ("append_ns", Json.Int m.mg_append_ns);
      ("append_speedup", Json.Float (append_ratio m));
      ("identical", Json.Bool m.mg_identical) ]

(* --- machine-readable regression gate: bench --json FILE ------------------- *)

let stage_ns (s : Summary.t) name =
  match
    List.find_opt (fun st -> st.Summary.stage_name = name) s.Summary.stages
  with
  | Some st -> st.Summary.total_ns
  | None -> 0

let speedup base par = if par <= 0 then 0.0 else float_of_int base /. float_of_int par

(* Time the same paper-scale run sequentially and with [jobs] worker
   domains and emit one JSON document comparing them, stage by stage.
   CI can diff the speedup fields against a committed baseline. *)
let write_json ~jobs path =
  let base = run_summary ~jobs:1 in
  let par = run_summary ~jobs in
  let ckpt = measure_checkpoint () in
  let chk = measure_check ~jobs in
  let srv = measure_serve () in
  let lrn = measure_learn ~jobs in
  let mrg = measure_merge ~jobs in
  let learn_point_json p =
    Json.Obj
      [ ("images", Json.Int p.lp_images);
        ("reference_ns", Json.Int p.lp_reference_ns);
        ("sharded_ns", Json.Int p.lp_sharded_ns);
        ("speedup", Json.Float (learn_ratio p)) ]
  in
  let stage_names =
    List.sort_uniq compare
      (List.map (fun st -> st.Summary.stage_name)
         (base.Summary.stages @ par.Summary.stages))
  in
  let stages =
    List.map
      (fun name ->
        let b = stage_ns base name and p = stage_ns par name in
        Json.Obj
          [ ("name", Json.Str name);
            ("jobs1_ns", Json.Int b);
            ("jobsN_ns", Json.Int p);
            ("speedup", Json.Float (speedup b p)) ])
      stage_names
  in
  let json =
    Json.Obj
      [ ("schema", Json.Str "encore-bench/1");
        ("app", Json.Str "mysql");
        ("images", Json.Int paper_n);
        ("jobs_baseline", Json.Int 1);
        ("jobs_parallel", Json.Int jobs);
        ("wall_ns",
         Json.Obj
           [ ("jobs1", Json.Int base.Summary.wall_ns);
             ("jobsN", Json.Int par.Summary.wall_ns);
             ("speedup",
              Json.Float (speedup base.Summary.wall_ns par.Summary.wall_ns)) ]);
        ("checkpoint",
         Json.Obj
           [ ("payload_bytes", Json.Int ckpt.payload_bytes);
             ("rounds", Json.Int ckpt.rounds);
             ("save_ns", Json.Int ckpt.save_ns);
             ("load_ns", Json.Int ckpt.load_ns) ]);
        ("check",
         Json.Obj
           [ ("fleet_images", Json.Int chk.fleet_size);
             ("jobs", Json.Int chk.check_jobs);
             ("single_loop_ns", Json.Int chk.single_loop_ns);
             ("fleet_ns", Json.Int chk.fleet_ns);
             ("single_images_per_s",
              Json.Float
                (images_per_s ~fleet_size:chk.fleet_size chk.single_loop_ns));
             ("fleet_images_per_s",
              Json.Float (images_per_s ~fleet_size:chk.fleet_size chk.fleet_ns));
             ("fleet_speedup", Json.Float (check_speedup chk)) ]);
        ("learn",
         Json.Obj
           [ ("jobs", Json.Int lrn.learn_jobs);
             ("paper", learn_point_json lrn.paper);
             ("fleet", Json.Arr (List.map learn_point_json lrn.fleet));
             ("fleet_monotonic", Json.Bool lrn.fleet_monotonic) ]);
        ("incremental", merge_json mrg);
        ("serve",
         Json.Obj
           [ ("requests", Json.Int srv.serve_requests);
             ("watched_images", Json.Int srv.serve_images);
             ("wall_ns", Json.Int srv.serve_wall_ns);
             ("images_per_s", Json.Float srv.serve_images_per_s);
             ("p50_us", Json.Float srv.serve_p50_us);
             ("p99_us", Json.Float srv.serve_p99_us);
             ("daemon_p50_us", Json.Float srv.serve_daemon_p50_us);
             ("daemon_p99_us", Json.Float srv.serve_daemon_p99_us) ]);
        ("stages", Json.Arr stages) ]
  in
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc (Json.to_string json);
      output_char oc '\n');
  Printf.printf "bench json written to %s (jobs=1 vs jobs=%d: %.2fx wall)\n"
    path jobs
    (speedup base.Summary.wall_ns par.Summary.wall_ns)

let () =
  let argv = Sys.argv in
  let has flag = Array.exists (fun a -> a = flag) argv in
  let value_of flag =
    let v = ref None in
    Array.iteri
      (fun i a -> if a = flag && i + 1 < Array.length argv then v := Some argv.(i + 1))
      argv;
    !v
  in
  let jobs =
    match value_of "--jobs" with
    | Some s -> (try max 1 (int_of_string s) with Failure _ -> 1)
    | None -> Domain.recommended_domain_count ()
  in
  match value_of "--json" with
  | Some path -> write_json ~jobs path
  | None -> (
      match value_of "--stage" with
      | Some "checkpoint" -> print_checkpoint_times ()
      | Some "check" -> print_check_times ~jobs
      | Some "serve" -> print_serve_times ()
      | Some "learn" -> print_learn_times ~jobs
      | Some "merge" -> print_merge_times ~jobs
      | Some other ->
          prerr_endline
            ("bench: unknown --stage " ^ other
             ^ " (try: checkpoint, check, serve, learn, merge)");
          exit 2
      | None ->
          if has "--stage-times" then print_stage_times ~jobs
          else begin
            print_tables ();
            if not (has "--tables-only") then run_benchmarks ()
          end)
