(* check-fleet: fleet-scale checking with a detection-quality guard.

   Setup learns paper-scale mysql models through [Pipeline.learn], as
   [encore-cli check] does, one per training draw, and generates
   held-out targets for each: half clean, half carrying one ConfErr
   fault with its ground truth.  After an untimed warm-up pass, the
   timed loop runs [Pipeline.check_fleet] of every target set against
   its model, pass after pass, with one job: on a shared 2-vCPU host a two-domain pass
   swings 2x with the neighbours' load, a one-domain pass does not (see
   README); the pooled path is checked for identical output and timed in
   the traced run.  Several training draws per run keep the quality
   figures from hanging on one draw's rule set. *)

open Common
module Pipeline = Encore.Pipeline
module Population = Encore_workloads.Population
module Image = Encore_sysenv.Image
module Conferr = Encore_inject.Conferr
module Fault = Encore_inject.Fault
module Engine = Encore_detect.Engine
module Warning = Encore_detect.Warning

type target = { image : Image.t; faults : Fault.injection list }

type draw = { model : Pipeline.model; targets : target list }

let shape ctx = if ctx.smoke then (2, 40) else (48, 100)

(* One training draw: a paper-scale model and [per_model] held-out
   targets from a different seed stream, both derived from [base]. *)
let draw ctx base per_model =
  let training =
    Population.clean
      (Population.generate ~seed:base Image.Mysql ~n:Learn_paper.paper_n)
  in
  let model = Pipeline.learn ~config:(config ctx) training in
  let held_out =
    Population.clean
      (Population.generate ~seed:(base + 1) Image.Mysql
         ~n:(per_model * 3 / 2))
  in
  let held_out = List.filteri (fun i _ -> i < per_model) held_out in
  let rng = Encore_util.Prng.create (base + 2) in
  let targets =
    List.mapi
      (fun i img ->
        if i < per_model / 2 then { image = img; faults = [] }
        else
          let c = Conferr.inject rng Image.Mysql img ~n:1 in
          { image = c.Conferr.image; faults = c.Conferr.injections })
      held_out
  in
  { model; targets }

(* Draw bases come from the run's seed through the PRNG, so the draws of
   different runs are independent samples. *)
let setup ctx =
  let k, per_model = shape ctx in
  let master = Encore_util.Prng.create ctx.seed in
  List.init k (fun _ ->
      draw ctx (3 * Encore_util.Prng.int master 100_000_000) per_model)

(* Table 8's attribute match: an injection is detected when a warning at
   or above the detection score implicates the corrupted attribute (or,
   for a key typo, the misspelt key). *)
let detected ~score warnings (inj : Fault.injection) =
  let strong = List.filter (fun w -> w.Warning.score >= score) warnings in
  let base = Encore_confparse.Kv.key_basename inj.Fault.target_attr in
  let needles =
    match inj.Fault.fault with
    | Fault.Config_fault Fault.Key_typo ->
        [ Encore_confparse.Kv.key_basename inj.Fault.after; base ]
    | _ -> [ base ]
  in
  List.exists
    (fun n -> Encore_detect.Report.rank_of_attr strong n <> None)
    needles

type quality = {
  injected : int;
  found : int;
  clean : int;
  false_alarms : int;
}

let quality ~score draws reports =
  List.fold_left2
    (fun q d (r : Pipeline.fleet_report) ->
      List.fold_left2
        (fun q t (ir : Pipeline.fleet_image_report) ->
          match t.faults with
          | [] ->
              { q with clean = q.clean + 1;
                       false_alarms = q.false_alarms + ir.Pipeline.fi_detections }
          | faults ->
              { q with
                injected = q.injected + List.length faults;
                found =
                  q.found
                  + List.length
                      (List.filter (detected ~score ir.Pipeline.fi_warnings) faults) })
        q d.targets r.Pipeline.fleet_images)
    { injected = 0; found = 0; clean = 0; false_alarms = 0 }
    draws reports

let check_pass ?pool ~jobs ctx draws =
  let config = { (config ctx) with Encore.Config.jobs } in
  List.map
    (fun d ->
      Pipeline.check_fleet ~config ?pool d.model
        (List.map (fun t -> t.image) d.targets))
    draws

let recall q = float_of_int q.found /. float_of_int q.injected
let false_alarms q = float_of_int q.false_alarms /. float_of_int q.clean

(* Report lines of a pooled pass (jobs = nproc) over every 16th target
   must be byte-identical to the sequential pass's lines for them. *)
let check_pooled ctx draws reports =
  let sampled xs = List.filteri (fun i _ -> i mod 16 = 0) xs in
  let pooled =
    check_pass ~jobs:ctx.jobs ctx
      (List.map (fun d -> { d with targets = sampled d.targets }) draws)
  in
  let lines rs =
    List.concat_map
      (fun (r : Pipeline.fleet_report) ->
        List.map Pipeline.fleet_image_line r.Pipeline.fleet_images)
      rs
  in
  let sampled_reports =
    List.map
      (fun (r : Pipeline.fleet_report) ->
        { r with Pipeline.fleet_images = sampled r.Pipeline.fleet_images })
      reports
  in
  if lines pooled <> lines sampled_reports then
    [ "check_fleet report lines differ between jobs=1 and jobs=N" ]
  else []

let n_targets draws = List.fold_left (fun n d -> n + List.length d.targets) 0 draws

let run ctx =
  let draws, first_setup = timed (fun () -> setup ctx) in
  (* a second set-up, timed and dropped *)
  let again = snd (timed (fun () -> ignore (Sys.opaque_identity (setup ctx)))) in
  let n = n_targets draws in
  let score = Encore.Config.default.Encore.Config.detection_score in
  let lines rs =
    List.concat_map
      (fun (r : Pipeline.fleet_report) ->
        List.map Pipeline.fleet_image_line r.Pipeline.fleet_images)
      rs
  in
  let incomplete =
    List.fold_left
      (fun acc (r : Pipeline.fleet_report) ->
        acc + r.Pipeline.fleet_total - r.Pipeline.fleet_checked)
      0
  in
  let digest rs = Digest.string (String.concat "\n" (lines rs)) in
  (* an untimed warm-up pass: the first pass runs cold, about 1.6x slower
     than the next; its reports are the ones the checks below read *)
  let reports = check_pass ~jobs:1 ctx draws in
  let heap = live_heap_mb (draws, reports) in
  (* a timed pass keeps only its lines' digest, so the heap does not grow
     from pass to pass *)
  let passes =
    repeat_for ~seconds:ctx.seconds (fun _ ->
        let rs, dt = timed (fun () -> check_pass ~jobs:1 ctx draws) in
        (digest rs, incomplete rs, dt))
  in
  let q = quality ~score draws reports in
  let notes =
    (if List.exists (fun (d, _, _) -> d <> digest reports) passes then
       [ "check_fleet output differs between passes" ]
     else [])
    @ (if q.injected = 0 || q.clean = 0 then [ "no targets of one class" ] else [])
    @ check_pooled ctx draws reports
  in
  (* the quality figures repeat exactly for a seed; the traced run
     reports them as detect.recall and detect.false_alarms_per_image *)
  Printf.printf "  detect recall %.6f (%d/%d)  false alarms per clean image %.6f\n"
    (recall q) q.found q.injected (false_alarms q);
  {
    correct = notes = [];
    attempted = n * (1 + List.length passes);
    failed = List.fold_left (fun acc (_, k, _) -> acc + k) (incomplete reports) passes;
    metrics =
      end_to_end ~setups:[ first_setup; again ] ~heap
        ~items:(n * List.length passes)
        ~busy:(sum (List.map (fun (_, _, dt) -> dt) passes));
    notes;
  }

(* --- traced pass ------------------------------------------------------- *)

let only names rules types values =
  {
    Engine.check_names = names;
    check_rules = rules;
    check_types = types;
    check_values = values;
  }

let traced ctx =
  let draws = setup ctx in
  let n = n_targets draws in
  (* the program's own figures: pooled and jobs=1 fleet checks *)
  let _, pooled_s =
    Encore_util.Pool.with_pool ~jobs:ctx.jobs (fun pool ->
        timed (fun () -> check_pass ~pool ~jobs:ctx.jobs ctx draws))
  in
  let reports, seq_s = timed (fun () -> check_pass ~jobs:1 ctx draws) in
  let q =
    quality ~score:Encore.Config.default.Encore.Config.detection_score draws reports
  in
  let read_cost = clock_read_cost () in
  timer_reads := 0;
  let compile = ref 0.0 and assemble = ref 0.0 and check = ref 0.0 in
  let parts = Array.init 4 (fun _ -> ref 0.0) in
  let warnings = ref 0 in
  let part_checks =
    [| only true false false false; only false true false false;
       only false false true false; only false false false true |]
  in
  let (), pass_s =
    timed (fun () ->
        List.iter
          (fun d ->
            let eng = span compile (fun () -> Engine.compile d.model) in
            List.iter
              (fun t ->
                ignore (span assemble (fun () -> Engine.assemble_row eng t.image));
                let ws = span check (fun () -> Engine.check eng t.image) in
                warnings := !warnings + List.length ws;
                Array.iteri
                  (fun i checks ->
                    ignore (span parts.(i) (fun () -> Engine.check ~checks eng t.image)))
                  part_checks)
              d.targets)
          draws)
  in
  let per_image r = !r /. float_of_int n *. 1e6 in
  let k = float_of_int (List.length draws) in
  {
    correct = true;
    attempted = 4 * n;
    failed = 0;
    metrics =
      [
        metric "detect.compile_ms" "ms" (!compile /. k *. 1e3);
        metric "detect.check_us" "us" (per_image check);
        metric "detect.assemble_target_us" "us" (per_image assemble);
        metric "detect.check_names_us" "us" (per_image parts.(0));
        metric "detect.check_rules_us" "us" (per_image parts.(1));
        metric "detect.check_types_us" "us" (per_image parts.(2));
        metric "detect.check_values_us" "us" (per_image parts.(3));
        metric "detect.warnings_per_image" "1/image"
          (float_of_int !warnings /. float_of_int n);
        metric "detect.recall" "ratio" (recall q);
        metric "detect.false_alarms_per_image" "1/image" (false_alarms q);
        metric "util.pool_efficiency" "ratio"
          (!check /. (pooled_s *. float_of_int ctx.jobs));
        metric "trace.coverage" "ratio" ((!compile +. !check) /. seq_s);
        metric "obs.trace_overhead_frac" "ratio"
          (float_of_int !timer_reads *. read_cost /. pass_s);
      ];
    notes = [];
  }
