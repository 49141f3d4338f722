(* Integration tests for the full EnCore pipeline and the experiment
   harness: end-to-end learn/check flows, customization, and the
   qualitative shapes every reproduced paper table must exhibit. *)

module Pipeline = Encore.Pipeline
module Config = Encore.Config
module Experiments = Encore.Experiments
module Population = Encore_workloads.Population
module Profile = Encore_workloads.Profile
module Cases = Encore_workloads.Cases
module Detector = Encore_detect.Detector
module Report = Encore_detect.Report
module Warning = Encore_detect.Warning
module Conferr = Encore_inject.Conferr
module Image = Encore_sysenv.Image
module Prng = Encore_util.Prng

let check = Alcotest.check

let scale = Experiments.test_scale

let training app n = Population.clean (Population.generate ~seed:77 app ~n)

(* --- pipeline ----------------------------------------------------------- *)

let test_learn_produces_rules_and_types () =
  let model = Pipeline.learn (training Image.Mysql 30) in
  check Alcotest.bool "rules learned" true (List.length model.Detector.rules > 5);
  check Alcotest.bool "types inferred" true (List.length model.Detector.types > 30);
  check Alcotest.bool "value stats recorded" true
    (List.length model.Detector.value_stats > 30)

let test_learn_finds_flagship_rules () =
  let model = Pipeline.learn (training Image.Mysql 30) in
  let rendered =
    String.concat "\n"
      (List.map Encore_rules.Template.rule_to_string model.Detector.rules)
  in
  (* the paper's Figure 4(a) rule *)
  check Alcotest.bool "datadir/user ownership" true
    (Encore_util.Strutil.contains_sub rendered "mysql/mysqld/datadir =>");
  (* the client/server socket equality *)
  check Alcotest.bool "socket equality" true
    (Encore_util.Strutil.contains_sub rendered "socket");
  (* the size-ordering family covers net_buffer_length (the direct
     net_buffer < max_allowed_packet edge may be Hasse-reduced through a
     midpoint size, but some ordering rule must bound it) *)
  check Alcotest.bool "net_buffer ordering present" true
    (Encore_util.Strutil.contains_sub rendered "mysql/mysqld/net_buffer_length <#")

let test_check_clean_target_quiet () =
  let model = Pipeline.learn (training Image.Mysql 30) in
  let target =
    Population.generator_for Image.Mysql Profile.ec2 (Prng.create 555) ~id:"held-out"
  in
  let detections = Pipeline.detections model target in
  check Alcotest.bool "few strong warnings on a clean image" true
    (List.length detections <= 2)

(* Determinism contract of the parallel engine: the learned model must
   be byte-identical for every job count, through both the strict and
   the resilient entry points. *)
let test_jobs_model_identical () =
  let images = training Image.Mysql 25 in
  let model_at jobs =
    let config = { Config.default with Config.jobs } in
    Encore_detect.Model_io.to_string (Pipeline.learn ~config images)
  in
  let baseline = model_at 1 in
  List.iter
    (fun jobs ->
      check Alcotest.string
        (Printf.sprintf "jobs=%d model = sequential model" jobs)
        baseline (model_at jobs))
    [ 2; 4 ]

let test_jobs_resilient_identical () =
  let images = training Image.Sshd 20 in
  let run jobs =
    let config = { Config.default with Config.jobs } in
    match Pipeline.learn_resilient ~config images with
    | Ok (model, report) -> (Encore_detect.Model_io.to_string model, report)
    | Error d ->
        Alcotest.failf "resilient learn failed: %s"
          (Encore_util.Resilience.diagnostic_to_string d)
  in
  let model1, report1 = run 1 in
  let model4, report4 = run 4 in
  check Alcotest.string "models identical" model1 model4;
  check Alcotest.int "same survivors" report1.Pipeline.ok report4.Pipeline.ok;
  check Alcotest.int "same retries" report1.Pipeline.retried
    report4.Pipeline.retried;
  check Alcotest.bool "same quarantine" true
    (report1.Pipeline.quarantined = report4.Pipeline.quarantined);
  check Alcotest.bool "same warnings" true
    (report1.Pipeline.warnings = report4.Pipeline.warnings)

(* Randomized extension of the fixed-corpus determinism tests above:
   any workload (study population or reduced-scale synthetic fleet),
   any seed, the learned model must be byte-identical at jobs 1/2/8 —
   sharded rule inference, the parallel mining probe and the forked
   per-image PRNG streams may not let the job count leak into output. *)
let prop_jobs_identical_random =
  let gen =
    QCheck.Gen.(
      triple (oneofl [ `Mysql; `Sshd; `Fleet ]) (int_range 12 36)
        (int_range 0 10_000))
  in
  QCheck.Test.make ~name:"model byte-identical at jobs 1/2/8" ~count:6
    (QCheck.make gen)
    (fun (kind, n, seed) ->
      let images =
        match kind with
        | `Mysql -> Population.clean (Population.generate ~seed Image.Mysql ~n)
        | `Sshd -> Population.clean (Population.generate ~seed Image.Sshd ~n)
        | `Fleet -> Encore_workloads.Synthfleet.generate ~seed ~n ()
      in
      let model_at jobs =
        let config = { Config.default with Config.jobs } in
        Encore_detect.Model_io.to_string (Pipeline.learn ~config images)
      in
      let m1 = model_at 1 in
      String.equal m1 (model_at 2) && String.equal m1 (model_at 8))

let test_end_to_end_injection_detected () =
  let model = Pipeline.learn (training Image.Mysql 30) in
  let target =
    Population.generator_for Image.Mysql Profile.ec2 (Prng.create 556) ~id:"victim"
  in
  let rng = Prng.create 557 in
  match
    Conferr.inject_one rng Image.Mysql target
      (Encore_inject.Fault.Env_fault Encore_inject.Fault.Chown_flip)
  with
  | Some (faulted, injection) ->
      let warnings = Pipeline.check model faulted in
      let base = Encore_confparse.Kv.key_basename injection.Encore_inject.Fault.target_attr in
      check Alcotest.bool "chown detected end to end" true
        (Report.rank_of_attr warnings base <> None)
  | None -> Alcotest.fail "no injectable target"

let test_custom_template_used () =
  (* declare a user type covering the mysql log path and an ownership
     template over it; the learned model must include the custom rule *)
  Encore_typing.Custom_registry.clear ();
  let custom =
    "$$TypeDeclaration\nMysqlLog\n$$TypeInference\nMysqlLog: regex /var/log.+\\.log\n\
     $$TypeValidation\nMysqlLog: is_file\n$$Template\n[A:MysqlLog] => [B:UserName]\n"
  in
  let model = Pipeline.learn ~custom (training Image.Mysql 30) in
  let custom_rules =
    List.filter
      (fun (r : Encore_rules.Template.rule) ->
        Encore_util.Strutil.starts_with ~prefix:"custom:" r.template.Encore_rules.Template.tname)
      model.Detector.rules
  in
  check Alcotest.bool "custom rule instantiated" true (custom_rules <> []);
  Encore_typing.Custom_registry.clear ()

let test_training_soundness () =
  (* soundness bound: a rule learned at confidence c may be violated by
     at most a (1-c) fraction of the training images it was learned
     from; checking the model against its own training set must respect
     that bound for every rule *)
  let images = training Image.Mysql 30 in
  let model = Pipeline.learn images in
  let violations = Hashtbl.create 32 in
  List.iter
    (fun img ->
      List.iter
        (fun (w : Warning.t) ->
          match w.Warning.kind with
          | Warning.Correlation_violation r ->
              let key = Encore_rules.Template.rule_to_string r in
              Hashtbl.replace violations key
                (1 + Option.value ~default:0 (Hashtbl.find_opt violations key))
          | _ -> ())
        (Detector.check model img))
    images;
  let n = float_of_int (List.length images) in
  List.iter
    (fun (r : Encore_rules.Template.rule) ->
      let v =
        float_of_int
          (Option.value ~default:0
             (Hashtbl.find_opt violations (Encore_rules.Template.rule_to_string r)))
      in
      check Alcotest.bool
        (Printf.sprintf "violation rate bounded for %s"
           (Encore_rules.Template.rule_to_string r))
        true
        (v /. n <= (1.0 -. r.Encore_rules.Template.confidence) +. 0.001))
    model.Detector.rules

(* --- exit codes ---------------------------------------------------------- *)

(* The CLI's contract (README): 0 = success, 1 = failure, 3 = degraded
   or timed-out (2 is reserved for usage errors and never produced by
   [exit_code]).  Drive [learn_durable] into each terminal state and
   assert the mapping. *)

(* Generated app populations legitimately overflow the mining cap —
   dozens of fully-correlated columns make the frequent-itemset count
   exponential, which is exactly Table 3's failure mode — so a
   non-degraded exit-0 run needs a small synthetic population with a
   bounded attribute surface. *)
let tiny_image i =
  let text =
    Printf.sprintf "Port 22\nListenAddress 10.0.0.%d\nPermitRootLogin no\n"
      (i + 1)
  in
  Image.make
    ~id:(Printf.sprintf "tiny-%d" i)
    [ { Image.app = Image.Sshd; path = "/etc/ssh/sshd_config"; text } ]

let test_exit_code_ok () =
  let result =
    Pipeline.learn_durable ~mining_cap:10_000_000 (List.init 4 tiny_image)
  in
  (match result with
   | Ok o ->
       check Alcotest.bool "model produced" true (o.Pipeline.model <> None);
       check Alcotest.bool "completed" true
         (o.Pipeline.report.Pipeline.status = Pipeline.Completed)
   | Error d ->
       Alcotest.failf "clean run failed: %s"
         (Encore_util.Resilience.diagnostic_to_string d));
  check Alcotest.int "clean completed run is 0" 0 (Pipeline.exit_code result)

let test_exit_code_degraded () =
  (* a mining cap of 1 always overflows: degraded but still Ok *)
  let result = Pipeline.learn_durable ~mining_cap:1 (training Image.Mysql 10) in
  (match result with
   | Ok o ->
       check Alcotest.bool "still yields a model" true (o.Pipeline.model <> None);
       check Alcotest.bool "overflow recorded" true
         o.Pipeline.report.Pipeline.mining_overflowed
   | Error d ->
       Alcotest.failf "degraded run failed: %s"
         (Encore_util.Resilience.diagnostic_to_string d));
  check Alcotest.int "degraded run is 3" 3 (Pipeline.exit_code result)

let test_exit_code_timed_out () =
  let deadline = Encore_util.Deadline.after_polls 0 in
  let result = Pipeline.learn_durable ~deadline (training Image.Mysql 10) in
  (match result with
   | Ok o ->
       check Alcotest.bool "no model" true (o.Pipeline.model = None);
       check Alcotest.bool "timed out" true
         (o.Pipeline.report.Pipeline.status <> Pipeline.Completed)
   | Error d ->
       Alcotest.failf "timed-out run must be Ok, got: %s"
         (Encore_util.Resilience.diagnostic_to_string d));
  check Alcotest.int "timed-out run is 3" 3 (Pipeline.exit_code result)

let test_exit_code_failed () =
  let result = Pipeline.learn_durable [] in
  check Alcotest.bool "empty population is Error" true (Result.is_error result);
  check Alcotest.int "failed run is 1" 1 (Pipeline.exit_code result)

let test_custom_file_error_raised () =
  Alcotest.check_raises "invalid custom file"
    (Invalid_argument "customization file, line 2: unknown operator: %%")
    (fun () -> ignore (Pipeline.learn ~custom:"$$Template\n[A] %% [B]\n" (training Image.Mysql 6)))

(* --- golden models --------------------------------------------------------- *)

(* Model_io digests recorded before batch learning was folded into the
   sufficient-statistics learner.  Any change to what [Pipeline.learn]
   or [Pipeline.learn_resilient] learns from these corpora — rules,
   types, value statistics, the overflow bit — changes a digest, at
   every job count. *)
let golden_corpora =
  [
    ("mysql", fun () -> Population.clean (Population.generate ~seed:41 Image.Mysql ~n:24));
    ("apache", fun () -> Population.clean (Population.generate ~seed:42 Image.Apache ~n:20));
    ("php", fun () -> Population.clean (Population.generate ~seed:43 Image.Php ~n:20));
    ("sshd", fun () -> Population.clean (Population.generate ~seed:44 Image.Sshd ~n:20));
    ("synthfleet", fun () -> Encore_workloads.Synthfleet.generate ~seed:7 ~n:60 ());
  ]

(* (corpus, entry point, digest) *)
let golden_digests =
  [
    ("mysql", "learn", "df59f4805f3ef1ff5b8abe13f926cd59");
    ("mysql", "learn_resilient", "771dfe695183f8d7b4cec4df2d563b3d");
    ("apache", "learn", "02b619aabea6f7de692bdbff7c9d69a1");
    ("apache", "learn_resilient", "a69ea4caac290a8444ddebf171f08137");
    ("php", "learn", "82ac7f3d654e802bbf05a48a6d046282");
    ("php", "learn_resilient", "f73cbc200aa9d26166535b8584521d4c");
    ("sshd", "learn", "99baf31390b4c711532761374ce7db71");
    ("sshd", "learn_resilient", "7d9c57ebd2ca9c7df28a18a997db4034");
    ("synthfleet", "learn", "dd3ca146de3910623d5ce9b020955b2a");
    ("synthfleet", "learn_resilient", "9fe9a119bf31ee5688cd8ac8c6746f56");
  ]

let model_digest model =
  Digest.to_hex (Digest.string (Encore_detect.Model_io.to_string model))

let golden_model ~jobs corpus entry =
  let config = { Config.default with Config.jobs } in
  let images = (List.assoc corpus golden_corpora) () in
  match entry with
  | "learn" -> Pipeline.learn ~config images
  | _ -> (
      match Pipeline.learn_resilient ~config ~mining_cap:2_000 images with
      | Ok (model, _) -> model
      | Error d ->
          Alcotest.failf "learn_resilient %s: %s" corpus
            (Encore_util.Resilience.diagnostic_to_string d))

let test_golden_models () =
  List.iter
    (fun (corpus, entry, digest) ->
      List.iter
        (fun jobs ->
          check Alcotest.string
            (Printf.sprintf "%s %s jobs=%d" corpus entry jobs)
            digest
            (model_digest (golden_model ~jobs corpus entry)))
        [ 1; 4 ])
    golden_digests

(* --- experiment shapes ---------------------------------------------------- *)

let cell table ~row ~col =
  let t : Experiments.table = table in
  match List.nth_opt t.Experiments.rows row with
  | Some cells -> ( match List.nth_opt cells col with Some c -> c | None -> "")
  | None -> ""

let int_cell table ~row ~col = int_of_string (cell table ~row ~col)

let test_table1_shape () =
  let t = Experiments.table1 () in
  check Alcotest.int "four rows" 4 (List.length t.Experiments.rows)

let test_table2_shape () =
  let t = Experiments.table2 ~scale () in
  (* augmented > original for every app; binomial > augmented *)
  List.iteri
    (fun i _ ->
      let original = int_cell t ~row:i ~col:1 in
      let augmented = int_cell t ~row:i ~col:2 in
      let binomial = int_cell t ~row:i ~col:3 in
      check Alcotest.bool "original < augmented" true (original < augmented);
      check Alcotest.bool "augmented < binomial" true (augmented < binomial))
    t.Experiments.rows

let test_table8_shape () =
  let t = Experiments.table8 ~scale () in
  List.iteri
    (fun i _ ->
      let baseline = int_cell t ~row:i ~col:2 in
      let baseline_env = int_cell t ~row:i ~col:3 in
      let encore = int_cell t ~row:i ~col:4 in
      check Alcotest.bool "baseline <= baseline+env" true (baseline <= baseline_env);
      check Alcotest.bool "baseline+env <= encore" true (baseline_env <= encore);
      check Alcotest.bool "encore detects most faults" true (encore >= 10);
      check Alcotest.bool "encore strictly beats baseline" true (encore > baseline))
    t.Experiments.rows

let test_table9_shape () =
  let t = Experiments.table9 ~scale () in
  check Alcotest.int "ten cases" 10 (List.length t.Experiments.rows);
  List.iter
    (fun row ->
      match row with
      | id :: _ :: _ :: rank :: _ ->
          if id = "8" then check Alcotest.string "case 8 missed" "-" rank
          else
            check Alcotest.bool ("case " ^ id ^ " detected") true (rank <> "-")
      | _ -> Alcotest.fail "malformed row")
    t.Experiments.rows

let test_table11_shape () =
  let t = Experiments.table11 ~scale () in
  List.iteri
    (fun i _ ->
      let entries = int_cell t ~row:i ~col:1 in
      let nontrivial = int_cell t ~row:i ~col:2 in
      let false_types = int_cell t ~row:i ~col:3 in
      let undetected = int_cell t ~row:i ~col:4 in
      check Alcotest.bool "nontrivial <= entries" true (nontrivial <= entries);
      (* accuracy: errors bounded well below the non-trivial population *)
      check Alcotest.bool "false+undetected < nontrivial/2" true
        (2 * (false_types + undetected) < nontrivial))
    t.Experiments.rows

let test_table12_shape () =
  let t = Experiments.table12 ~scale () in
  List.iteri
    (fun i _ ->
      let rules = int_cell t ~row:i ~col:1 in
      let fp = int_cell t ~row:i ~col:2 in
      check Alcotest.bool "rules found" true (rules > 0);
      check Alcotest.bool "fp <= rules" true (fp <= rules))
    t.Experiments.rows

let test_table13_shape () =
  let t = Experiments.table13 ~scale () in
  List.iteri
    (fun i _ ->
      let original = int_cell t ~row:i ~col:1 in
      let fp_reduced = int_cell t ~row:i ~col:2 in
      let fn_introduced = int_cell t ~row:i ~col:3 in
      check Alcotest.bool "filter removes many false rules" true
        (2 * fp_reduced > original);
      check Alcotest.bool "few true rules lost" true (fn_introduced * 4 < original))
    t.Experiments.rows

let test_render_contains_rows () =
  let t = Experiments.table1 () in
  let out = Experiments.render t in
  check Alcotest.bool "title" true (Encore_util.Strutil.contains_sub out "table1");
  check Alcotest.bool "app row" true (Encore_util.Strutil.contains_sub out "MySQL")

let () =
  Alcotest.run "encore_pipeline"
    [
      ( "pipeline",
        [
          Alcotest.test_case "learn rules and types" `Quick test_learn_produces_rules_and_types;
          Alcotest.test_case "flagship rules" `Quick test_learn_finds_flagship_rules;
          Alcotest.test_case "clean target quiet" `Quick test_check_clean_target_quiet;
          Alcotest.test_case "injection detected" `Quick test_end_to_end_injection_detected;
          Alcotest.test_case "jobs: model identical" `Quick test_jobs_model_identical;
          Alcotest.test_case "jobs: resilient identical" `Quick test_jobs_resilient_identical;
          QCheck_alcotest.to_alcotest prop_jobs_identical_random;
          Alcotest.test_case "custom template" `Quick test_custom_template_used;
          Alcotest.test_case "training soundness bound" `Quick test_training_soundness;
          Alcotest.test_case "custom file error" `Quick test_custom_file_error_raised;
          Alcotest.test_case "golden model digests" `Quick test_golden_models;
        ] );
      ( "exit codes",
        [
          Alcotest.test_case "ok is 0" `Quick test_exit_code_ok;
          Alcotest.test_case "degraded is 3" `Quick test_exit_code_degraded;
          Alcotest.test_case "timed-out is 3" `Quick test_exit_code_timed_out;
          Alcotest.test_case "failed is 1" `Quick test_exit_code_failed;
        ] );
      ( "experiments",
        [
          Alcotest.test_case "table1 shape" `Quick test_table1_shape;
          Alcotest.test_case "table2 shape" `Slow test_table2_shape;
          Alcotest.test_case "table8 shape" `Slow test_table8_shape;
          Alcotest.test_case "table9 shape" `Slow test_table9_shape;
          Alcotest.test_case "table11 shape" `Slow test_table11_shape;
          Alcotest.test_case "table12 shape" `Slow test_table12_shape;
          Alcotest.test_case "table13 shape" `Slow test_table13_shape;
          Alcotest.test_case "render" `Quick test_render_contains_rows;
        ] );
    ]
