(* learn-paper: the paper's learning job at its own scale.

   [Pipeline.learn_resilient] (default mining cap) over the clean mysql
   paper population, as [encore-cli learn] runs it; one learn per
   repetition.  The traced pass replays the same learn through the
   public calls it is made of, in the order [learn_resilient] makes
   them, and times each layer. *)

open Common
module Pipeline = Encore.Pipeline
module Population = Encore_workloads.Population
module Image = Encore_sysenv.Image
module Pool = Encore_util.Pool
module Res = Encore_util.Resilience
module Detector = Encore_detect.Detector
module Assemble = Encore_dataset.Assemble
module Row = Encore_dataset.Row
module Table = Encore_dataset.Table
module Tinfer = Encore_typing.Infer
module Rinfer = Encore_rules.Infer
module Filters = Encore_rules.Filters

let paper_n = 187

let population ctx =
  Population.clean
    (Population.generate ~seed:ctx.seed Image.Mysql
       ~n:(if ctx.smoke then 40 else paper_n))

let learn ctx images =
  Pipeline.learn_resilient ~config:(config ctx) ~mining_cap:(mining_cap ctx) images

(* Output checks on one learn: the overflow bit is set (generated
   populations always overflow the cap) and the CLI exit-code contract
   maps the run to 3 (degraded). *)
let check_learn = function
  | Error d -> Error ("learn failed: " ^ Res.diagnostic_to_string d)
  | Ok (model, report) ->
      let outcome =
        { Pipeline.model = Some model; report; resumed = []; checkpointed = [] }
      in
      if not (model.Detector.overflowed && report.Pipeline.mining_overflowed)
      then Error "mining overflow bit not set"
      else if Pipeline.exit_code (Ok outcome) <> 3 then
        Error
          (Printf.sprintf "exit code %d, expected 3"
             (Pipeline.exit_code (Ok outcome)))
      else Ok model

(* [learn_resilient] and the strict [Pipeline.learn] path must agree on
   everything but the overflow bit, which only the resilient path
   computes. *)
let check_strict ctx images model =
  let strict = Pipeline.learn ~config:(config ctx) images in
  if
    model_digest { strict with Detector.overflowed = model.Detector.overflowed }
    = model_digest model
  then []
  else [ "learn_resilient model differs from Pipeline.learn" ]

(* One set-up of about 20 ms, timed from a settled heap: without the
   full collection before it, its time follows how much major-GC work
   the previous set-up or learn left behind. *)
let timed_population ctx =
  Gc.full_major ();
  timed (fun () -> population ctx)

(* [k] more set-ups, timed and dropped, so that they do not add to the
   heap a learn starts from. *)
let more_setups ctx k =
  List.init k (fun _ -> snd (timed_population ctx))

(* 25 set-ups; only the first population is kept. *)
let setup ctx =
  let images, first = timed_population ctx in
  (images, first :: more_setups ctx 24)

let run ctx =
  let images, setups = setup ctx in
  let heap = ref 0.0 in
  let reps =
    repeat_for ~seconds:ctx.seconds (fun i ->
        let r, dt = timed (fun () -> learn ctx images) in
        if i = 0 then heap := live_heap_mb (images, r);
        (check_learn r, dt))
  in
  (* 25 more set-ups after the learns: the shared host's speed moves over
     tens of seconds, and set-ups taken at both ends of the run sample
     two of its states *)
  let setups = setups @ more_setups ctx 25 in
  let models = List.filter_map (fun (r, _) -> Result.to_option r) reps in
  let errors =
    List.filter_map
      (fun (r, _) -> match r with Error e -> Some e | Ok _ -> None)
      reps
  in
  let digests = List.sort_uniq compare (List.map model_digest models) in
  let notes =
    errors
    @ (if List.length digests > 1 then
         [ "model digest differs across repetitions" ]
       else [])
    @ match models with m :: _ -> check_strict ctx images m | [] -> []
  in
  {
    correct = notes = [];
    attempted = List.length reps;
    failed = List.length errors;
    metrics =
      end_to_end ~setups ~heap:!heap
        ~items:(List.length images * List.length reps)
        ~busy:(sum (List.map snd reps));
    notes;
  }

(* --- traced pass ------------------------------------------------------- *)

(* [Assemble.assemble_training]'s second half: the column types of the
   augmented and global attributes. *)
let augmented_types config_types table img_rows =
  List.filter_map
    (fun col ->
      if Tinfer.find config_types col <> None then None
      else if Encore_dataset.Augment.is_augmented col then
        Some
          ( col,
            {
              Tinfer.ctype = Encore_dataset.Augment.augmented_type col;
              agreement = 1.0;
              samples = Table.column_support table col;
            } )
      else
        let samples =
          List.filter_map
            (fun (img, row) ->
              Option.map (fun v -> (img, v)) (Row.get row col))
            img_rows
        in
        Some (col, Tinfer.infer_column samples))
    (Table.columns table)

(* [Detector.model_of_training]'s last step: distinct training values
   per attribute, in first-seen order. *)
let value_stats training =
  let order = ref [] and seen = Hashtbl.create 256 in
  let values = Hashtbl.create 256 in
  List.iter
    (fun (_, row) ->
      List.iter
        (fun (attr, v) ->
          if not (Hashtbl.mem seen attr) then begin
            Hashtbl.add seen attr ();
            order := attr :: !order
          end;
          Hashtbl.add values attr v)
        (Row.to_list row))
    training;
  let known = List.rev !order in
  ( known,
    List.map
      (fun a -> (a, Encore_util.Stats.distinct (Hashtbl.find_all values a)))
      known )

(* One learn, call by call, with each layer's calls timed. *)
let decomposed ctx pool images =
  let probe = ref 0.0 and parse = ref 0.0 and typing = ref 0.0 in
  let augment = ref 0.0 and columnar = ref 0.0 and infer = ref 0.0 in
  let filter = ref 0.0 and values = ref 0.0 and discretize = ref 0.0 in
  let fpgrowth = ref 0.0 in
  let config = config ctx in
  let map f xs = Pool.map pool f xs in
  (* ingest: probe every image on its own fork of the simulator, then
     parse the survivors through the diagnostic lenses *)
  let flaky =
    Encore_sysenv.Flaky.reliable
      ~rng:(Encore_util.Prng.create (config.Encore.Config.seed + 101))
  in
  let with_sims =
    List.map (fun img -> (img, Encore_sysenv.Flaky.fork flaky)) images
  in
  let attempts =
    span probe (fun () ->
        map
          (fun (img, sim) ->
            (img, Encore_sysenv.Flaky.collect_with_retries sim img))
          with_sims)
  in
  let probed =
    List.filter_map
      (fun (img, a) -> match a.Res.outcome with Ok _ -> Some img | Error _ -> None)
      attempts
  in
  let parsed =
    span parse (fun () ->
        map
          (fun img -> (img, Encore_confparse.Registry.parse_image_diag img))
          probed)
  in
  let survivors =
    List.filter_map
      (fun (img, p) ->
        if p.Encore_confparse.Registry.fatal = [] then Some img else None)
      parsed
  in
  (* assemble: parse, type, augment *)
  let rows0 =
    span parse (fun () -> map (fun img -> (img, Assemble.parse_only img)) survivors)
  in
  let config_types =
    span typing (fun () ->
        Tinfer.infer (List.map (fun (img, r) -> (img, Row.to_list r)) rows0))
  in
  let table, types, training =
    span augment (fun () ->
        let rows =
          map
            (fun (img, r) ->
              (img.Image.image_id, Assemble.augment_row ~types:config_types img r))
            rows0
        in
        let table = Table.of_rows rows in
        let training = List.map2 (fun (img, _) (_, r) -> (img, r)) rows0 rows in
        (table, config_types @ augmented_types config_types table training, training))
  in
  (* model: columnar view, rule inference, filters, value statistics *)
  let view =
    span columnar (fun () ->
        Encore_dataset.Colview.of_rows (List.map snd training))
  in
  let inferred =
    span infer (fun () ->
        Rinfer.infer
          ~params:(Encore.Config.rule_params config)
          ~templates:Encore_rules.Template.predefined ~pool ~view ~types
          training)
  in
  let kept =
    span filter (fun () ->
        fst
          (Filters.entropy_filter
             ~threshold:config.Encore.Config.entropy_threshold ~view training
             (Filters.reduce_redundant inferred)))
  in
  let known_attrs, vstats = span values (fun () -> value_stats training) in
  (* mining capacity probe *)
  let transactions, _ =
    span discretize (fun () -> Encore_dataset.Discretize.transactions table)
  in
  let n_tx = Array.length transactions in
  let min_support =
    max 2
      (int_of_float
         (ceil (config.Encore.Config.min_support_frac *. float_of_int n_tx)))
  in
  let count, overflowed =
    span fpgrowth (fun () ->
        Encore_mining.Fpgrowth.count_only
          ~max_itemsets:(mining_cap ctx) ~pool ~min_support
          transactions)
  in
  let model =
    {
      Detector.types;
      rules = kept;
      value_stats = vstats;
      known_attrs;
      training_count = List.length training;
      overflowed;
    }
  in
  let ms name r = metric name "ms" (!r *. 1e3) in
  let total =
    sum
      (List.map ( ! )
         [ probe; parse; typing; augment; columnar; infer; filter; values;
           discretize; fpgrowth ])
  in
  let candidates = List.length inferred and n_kept = List.length kept in
  ( model,
    total,
    [
      ms "sysenv.probe_ms" probe;
      ms "confparse.parse_ms" parse;
      ms "typing.infer_ms" typing;
      ms "dataset.augment_ms" augment;
      ms "dataset.columnar_ms" columnar;
      ms "dataset.discretize_ms" discretize;
      metric "dataset.transactions" "count" (float_of_int n_tx);
      ms "mining.fpgrowth_ms" fpgrowth;
      metric "mining.count" "count" (float_of_int count);
      metric "mining.overflowed" "bool" (if overflowed then 1.0 else 0.0);
      ms "rules.infer_ms" infer;
      metric "rules.candidates" "count" (float_of_int candidates);
      ms "rules.filter_ms" filter;
      metric "rules.kept" "count" (float_of_int n_kept);
      metric "rules.kept_per_candidate" "ratio"
        (if candidates = 0 then 0.0
         else float_of_int n_kept /. float_of_int candidates);
      ms "detect.value_stats_ms" values;
    ] )

let traced ctx =
  let images, _ = setup ctx in
  let reference, learn_wall = timed (fun () -> check_learn (learn ctx images)) in
  let read_cost = clock_read_cost () in
  timer_reads := 0;
  let (model, layer_total, layers), pass_wall =
    timed (fun () ->
        Pool.with_pool ~jobs:ctx.jobs (fun pool -> decomposed ctx pool images))
  in
  let notes =
    match reference with
    | Error e -> [ e ]
    | Ok m when model_digest m <> model_digest model ->
        [ "decomposed learn diverged from learn_resilient" ]
    | Ok _ -> []
  in
  {
    correct = notes = [];
    attempted = 2;
    failed = (match reference with Error _ -> 1 | Ok _ -> 0);
    metrics =
      layers
      @ [
          metric "trace.coverage" "ratio" (layer_total /. learn_wall);
          metric "obs.trace_overhead_frac" "ratio"
            (float_of_int !timer_reads *. read_cost /. pass_wall);
        ];
    notes;
  }
