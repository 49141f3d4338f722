(* encore-cli: command-line interface to the EnCore reproduction.

   Subcommands:
     generate     synthesize an image population and dump one config
                  (--out DIR: write per-image dumps for fleet checking)
     learn        learn a model from a population and print its rules
     check        learn, misconfigure a held-out image, and report
                  (--fleet DIR / --targets FILE: batch-check image dumps
                  through the compiled engine, streaming a JSONL report)
     inject       run a ConfErr-style campaign and show the ground truth
     chaos        storm a population with pipeline faults, learn resiliently
                  (--durability: kill-and-resume + snapshot-damage drill;
                  --serve-storm: request-storm replay against the daemon)
     serve        resident check daemon: JSONL requests (check, watch,
                  reload, status, shutdown) over stdio or a Unix socket
     experiment   regenerate one (or all) of the paper's tables
     ablation     run a design-choice ablation study
     case         reproduce one of the ten Table 9 real-world cases
     study        print the Table 1 catalog study
     export       write the assembled attribute table as CSV
     save         learn a model and serialize it to a file
     load-check   load a serialized model and check an image (--advise)
     testgen      generate rule-violating configuration test cases
     trace        summarize a JSONL trace (per-stage time breakdown)

   learn, check and chaos accept --trace FILE (JSONL span/event export)
   and --metrics (print the metric registry after the run). *)

module Population = Encore_workloads.Population
module Profile = Encore_workloads.Profile
module Detector = Encore_detect.Detector
module Report = Encore_detect.Report
module Image = Encore_sysenv.Image
module Conferr = Encore_inject.Conferr
module Fault = Encore_inject.Fault

open Cmdliner

(* --- shared arguments --------------------------------------------------- *)

let app_conv =
  let parse s =
    match Image.app_of_string s with
    | Some app -> Ok app
    | None -> Error (`Msg (Printf.sprintf "unknown application %S" s))
  in
  Arg.conv (parse, fun fmt app -> Format.pp_print_string fmt (Image.app_to_string app))

let app_arg =
  Arg.(value & opt app_conv Image.Mysql
       & info [ "a"; "app" ] ~docv:"APP" ~doc:"Application: apache, mysql, php or sshd.")

let seed_arg =
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"N" ~doc:"Deterministic master seed.")

let count_arg default =
  Arg.(value & opt int default
       & info [ "n"; "count" ] ~docv:"N" ~doc:"Number of images.")

let profile_conv =
  let parse = function
    | "ec2" -> Ok Profile.ec2
    | "private-cloud" | "cloud" -> Ok Profile.private_cloud
    | "uniform" -> Ok Profile.uniform
    | s -> Error (`Msg (Printf.sprintf "unknown profile %S" s))
  in
  Arg.conv (parse, fun fmt p -> Format.pp_print_string fmt p.Profile.label)

let profile_arg =
  Arg.(value & opt profile_conv Profile.ec2
       & info [ "profile" ] ~docv:"PROFILE" ~doc:"Population profile: ec2, private-cloud or uniform.")

let custom_arg =
  Arg.(value & opt (some file) None
       & info [ "custom" ] ~docv:"FILE" ~doc:"Customization file (Figure 6 format).")

let jobs_arg =
  Arg.(value & opt int (Domain.recommended_domain_count ())
       & info [ "j"; "jobs" ] ~docv:"N"
           ~doc:"Worker domains for the learning pipeline (default: the \
                 machine's recommended domain count; 1 = sequential). \
                 Learned models are identical for every value.")

let chunk_arg =
  Arg.(value & opt (some int) None
       & info [ "chunk" ] ~docv:"K"
           ~doc:"Chunks per worker for one pool round (default 4). \
                 Lower values cut queue/GC synchronization on few-core \
                 hosts; scheduling only, results are identical for \
                 every value.")

let read_file path =
  let ic = open_in path in
  Fun.protect ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let learn_model ?custom ~seed ~profile ~jobs app n =
  let images = Population.clean (Population.generate ~profile ~seed app ~n) in
  let custom = Option.map read_file custom in
  let config = { Encore.Config.default with Encore.Config.seed; jobs } in
  (Encore.Pipeline.learn ~config ?custom images, List.length images)

(* --- telemetry plumbing -------------------------------------------------- *)

let trace_arg =
  Arg.(value & opt (some string) None
       & info [ "trace" ] ~docv:"FILE"
           ~doc:"Export spans and events of the run as JSONL to $(docv) \
                 (inspect with 'trace summarize').")

let metrics_arg =
  Arg.(value & flag
       & info [ "metrics" ]
           ~doc:"Print the telemetry metric registry (counters, gauges, \
                 latency histograms) after the run.")

(* Wire the global telemetry sinks around [f].  With --trace, spans and
   events stream to a JSONL file; with --metrics alone, spans are still
   timed (into the span_us.* histograms) but discarded.  [f] returns the
   exit code, passed through so teardown — closing the trace file —
   happens before the process exits. *)
let with_telemetry ~trace ~metrics f =
  let oc = Option.map open_out trace in
  (match oc with
   | Some oc ->
       Encore_obs.Events.set_sink (Encore_obs.Events.Channel oc);
       Encore_obs.Events.stream_spans ()
   | None ->
       if metrics then
         Encore_obs.Trace.set_sink (Encore_obs.Trace.Stream (fun _ -> ())));
  let code =
    Fun.protect
      ~finally:(fun () ->
        Encore_obs.Trace.set_sink Encore_obs.Trace.Nil;
        Encore_obs.Events.set_sink Encore_obs.Events.Nil;
        Option.iter close_out oc)
      f
  in
  (* stdout may be a pipe whose reader already went away (a scraper
     disconnecting from `serve`); the epilogue is best-effort *)
  (try
     if metrics then begin
       print_newline ();
       print_string
         (Encore_util.Texttab.render ~title:"telemetry metrics"
            ~header:[ "metric"; "kind"; "value" ]
            (Encore_obs.Metrics.rows (Encore_obs.Metrics.snapshot ())))
     end;
     (match trace with
      | Some path -> Printf.printf "trace written to %s\n" path
      | None -> ());
     flush stdout
   with Sys_error _ -> close_out_noerr stdout);
  code

(* --- generate ------------------------------------------------------------ *)

let generate seed profile app n out =
  let pop = Population.generate ~profile ~seed app ~n in
  let clean = Population.clean pop in
  Printf.printf "generated %d %s images under profile %s (%d clean, %d with a latent fault)\n\n"
    n (Image.app_to_string app) profile.Profile.label (List.length clean)
    (n - List.length clean);
  (match out with
   | None -> ()
   | Some dir ->
       if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
       List.iter
         (fun { Population.image; _ } ->
           let path = Filename.concat dir (image.Image.image_id ^ ".img") in
           let oc = open_out path in
           Fun.protect ~finally:(fun () -> close_out oc) (fun () ->
               output_string oc (Encore_sysenv.Collector.image_to_text image)))
         pop;
       Printf.printf "wrote %d image dump(s) under %s (check them with \
                      'check --fleet %s')\n\n"
         (List.length pop) dir dir);
  match pop with
  | { Population.image; latent } :: _ ->
      (match Image.config_for image app with
       | Some cf ->
           Printf.printf "--- %s (%s) ---\n%s" image.Image.image_id cf.Image.path cf.Image.text
       | None -> ());
      List.iter
        (fun inj -> Printf.printf "\nlatent fault: %s\n" (Fault.injection_to_string inj))
        latent;
      0
  | [] -> 0

let generate_cmd =
  let doc = "Synthesize a deterministic image population and print one configuration." in
  Cmd.v (Cmd.info "generate" ~doc)
    Term.(const generate $ seed_arg $ profile_arg $ app_arg $ count_arg 10
          $ Arg.(value & opt (some string) None
                 & info [ "out" ] ~docv:"DIR"
                     ~doc:"Also write every generated image (clean and \
                           faulted) as a collector dump $(docv)/<id>.img — \
                           the on-disk targets of 'check --fleet'."))

(* --- learn ---------------------------------------------------------------- *)

let mode_arg =
  Arg.(value
       & vflag Encore.Pipeline.Keep_going
           [ (Encore.Pipeline.Keep_going,
              info [ "keep-going" ]
                ~doc:"Quarantine damaged images and train on the survivors \
                      (default).");
             (Encore.Pipeline.Fail_fast,
              info [ "fail-fast" ]
                ~doc:"Abort on the first damaged image.") ])

let max_retries_arg =
  Arg.(value & opt int 3
       & info [ "max-retries" ] ~docv:"N"
           ~doc:"Probe retries per image before it is quarantined.")

let chaos_frac_arg =
  Arg.(value & opt float 0.0
       & info [ "chaos" ] ~docv:"FRAC"
           ~doc:"Storm this fraction of the training population with \
                 pipeline faults (truncation, garbage bytes, probe flaps) \
                 before learning.")

let checkpoint_arg =
  Arg.(value & opt (some string) None
       & info [ "checkpoint" ] ~docv:"DIR"
           ~doc:"Persist a checkpoint under $(docv) after each completed \
                 pipeline stage (ingest, assemble, model), through the \
                 atomic snapshot writer.")

let resume_arg =
  Arg.(value & opt (some string) None
       & info [ "resume" ] ~docv:"DIR"
           ~doc:"Resume from checkpoints under $(docv): stages whose \
                 checkpoint verifies and matches this run's population and \
                 parameters are restored instead of recomputed.  The final \
                 model is byte-identical to an uninterrupted run.")

let deadline_arg =
  Arg.(value & opt (some float) None
       & info [ "deadline" ] ~docv:"SECS"
           ~doc:"Execution budget in seconds.  On expiry the run stops at a \
                 clean boundary, keeps the checkpoints it has written, \
                 reports its status as timed-out and exits with code 3.")

let shards_arg =
  Arg.(value & opt int 1
       & info [ "shards" ] ~docv:"K"
           ~doc:"Partition the corpus into $(docv) shards, learn each \
                 shard's sufficient statistics on the worker pool and \
                 recombine them with an order-preserving merge.  The model \
                 is byte-identical for every shard count.")

let stats_arg =
  Arg.(value & opt (some string) None
       & info [ "stats" ] ~docv:"DIR"
           ~doc:"Persist the run's sufficient statistics as a snapshot \
                 under $(docv) (versioned envelope, atomic write); a later \
                 $(b,--append) run or the serve daemon's $(b,--learn-stats) \
                 extends them without retraining.")

let append_arg =
  Arg.(value & opt (some string) None
       & info [ "append" ] ~docv:"DIR"
           ~doc:"Incremental learning: load the newest statistics snapshot \
                 under $(docv), fold this run's population into it in \
                 sublinear time, write the grown statistics back and print \
                 the refreshed model — byte-identical to retraining on the \
                 union corpus.")

(* [--shards K]: K contiguous chunks, each folded on the worker pool,
   merged in corpus order — the statistics of one sequential fold *)
let stats_of_shards ~config k images =
  let module Suffstats = Encore_rules.Suffstats in
  let arr = Array.of_list images in
  let n = Array.length arr in
  let k = max 1 (min k n) in
  List.init k (fun s ->
      let lo = s * n / k in
      Encore.Pipeline.stats_of_images ~config
        (Array.to_list (Array.sub arr lo (((s + 1) * n / k) - lo))))
  |> List.fold_left Suffstats.merge Suffstats.empty

(* the suffstats face of learn: shard-merge batch learning and
   incremental append, both byte-identical to the batch pipeline *)
let learn_mergeable ~config ~custom ~shards ~stats_dir ~append_dir images =
  let module Suffstats = Encore_rules.Suffstats in
  let save_stats learner =
    match stats_dir with
    | None -> ()
    | Some dir ->
        let store = Encore.Stats_io.Store.create ~dir () in
        let path = Encore.Stats_io.Store.save store (Suffstats.stats learner) in
        Printf.printf "statistics snapshot: %s (%d image(s))\n" path
          (Suffstats.n_images (Suffstats.stats learner))
  in
  let learned =
    match append_dir with
    | None ->
        Result.map
          (fun learner -> (Encore.Pipeline.model_of_learner learner, learner, 0))
          (Encore.Pipeline.learner_result ~config ?custom
             (stats_of_shards ~config shards images))
    | Some dir -> (
        let store = Encore.Stats_io.Store.create ~dir () in
        match Encore.Stats_io.Store.load_latest store with
        | Error e ->
            Error
              (Encore_util.Resilience.diag Encore_util.Resilience.Corrupt_image
                 ~subject:dir
                 ("cannot load statistics: "
                 ^ Encore.Stats_io.load_error_to_string e))
        | Ok (stats, _) -> (
            let before = Suffstats.n_images stats in
            match Encore.Pipeline.learner_result ~config ?custom stats with
            | Error d -> Error d
            | Ok learner ->
                let learner =
                  Encore.Pipeline.learn_append ~config learner images
                in
                let path =
                  Encore.Stats_io.Store.save store (Suffstats.stats learner)
                in
                Printf.printf "statistics snapshot: %s\n" path;
                Ok (Encore.Pipeline.model_of_learner learner, learner, before)))
  in
  match learned with
  | Error d ->
      prerr_endline
        ("learning failed: " ^ Encore_util.Resilience.diagnostic_to_string d);
      1
  | Ok (model, learner, before) ->
      save_stats learner;
      if before > 0 then
        Printf.printf "appended %d image(s) to a %d-image corpus\n"
          (List.length images) before
      else if shards > 1 then
        Printf.printf "merged %d shard(s)\n" shards;
      Printf.printf "\nlearned from %d image(s): %d types, %d rules\n\n"
        model.Detector.training_count
        (List.length model.Detector.types)
        (List.length model.Detector.rules);
      List.iter
        (fun r -> print_endline (Encore_rules.Template.rule_to_string r))
        model.Detector.rules;
      (* same exit contract as the batch path: mining overflow degrades *)
      if model.Detector.overflowed then begin
        print_endline
          "degraded: itemset mining overflowed; correlation rules may be \
           incomplete";
        3
      end
      else 0

let learn seed profile app n custom mode max_retries chaos_frac jobs chunk
    shards stats_dir append_dir checkpoint_dir resume_dir deadline_s trace
    metrics =
  with_telemetry ~trace ~metrics @@ fun () ->
  let config =
    { Encore.Config.default with Encore.Config.seed; jobs; chunk }
  in
  let images = Population.clean (Population.generate ~profile ~seed app ~n) in
  let images, stormed =
    if chaos_frac > 0.0 then begin
      let rng = Encore_util.Prng.create (seed + 31) in
      let s = Encore_inject.Chaos.storm ~fraction:chaos_frac ~rng images in
      (s.Encore_inject.Chaos.images,
       List.length s.Encore_inject.Chaos.victims)
    end
    else (images, 0)
  in
  let custom = Option.map read_file custom in
  if shards > 1 || stats_dir <> None || append_dir <> None then
    learn_mergeable ~config ~custom ~shards ~stats_dir ~append_dir images
  else begin
  let checkpoint =
    Option.map (fun dir -> Encore.Checkpoint.create ~dir) checkpoint_dir
  in
  let resume =
    Option.map (fun dir -> Encore.Checkpoint.create ~dir) resume_dir
  in
  let deadline = Option.map Encore_util.Deadline.of_budget_s deadline_s in
  let result =
    Encore.Pipeline.learn_durable ~config ?custom ~mode ~max_retries
      ?checkpoint ?resume ?deadline images
  in
  (match result with
   | Error d ->
       prerr_endline
         ("learning failed: " ^ Encore_util.Resilience.diagnostic_to_string d)
   | Ok o ->
       if stormed > 0 then Printf.printf "chaos: stormed %d image(s)\n" stormed;
       (match o.Encore.Pipeline.resumed with
        | [] -> ()
        | stages ->
            Printf.printf "resumed from checkpoint: %s\n"
              (String.concat ", "
                 (List.map Encore.Checkpoint.stage_to_string stages)));
       let report = o.Encore.Pipeline.report in
       print_string (Encore.Pipeline.report_to_string report);
       (match o.Encore.Pipeline.model with
        | Some model ->
            Printf.printf "\nlearned from %d image(s): %d types, %d rules\n\n"
              report.Encore.Pipeline.ok
              (List.length model.Detector.types)
              (List.length model.Detector.rules);
            List.iter
              (fun r -> print_endline (Encore_rules.Template.rule_to_string r))
              model.Detector.rules
        | None -> ()));
  Encore.Pipeline.exit_code result
  end

let learn_cmd =
  let doc = "Learn configuration rules from a generated population." in
  Cmd.v (Cmd.info "learn" ~doc)
    Term.(const learn $ seed_arg $ profile_arg $ app_arg $ count_arg 100 $ custom_arg
          $ mode_arg $ max_retries_arg $ chaos_frac_arg $ jobs_arg $ chunk_arg
          $ shards_arg $ stats_arg $ append_arg
          $ checkpoint_arg $ resume_arg $ deadline_arg
          $ trace_arg $ metrics_arg)

(* --- chaos ----------------------------------------------------------------- *)

let chaos seed app n fraction max_retries jobs durability serve_storm
    transport_storm clients requests dir trace metrics =
  with_telemetry ~trace ~metrics @@ fun () ->
  let config = { Encore.Config.default with Encore.Config.jobs = jobs } in
  if transport_storm then
    begin match
      Encore.Chaosrun.transport_storm ~config ~requests ~clients ~n ~app ~dir
        ~seed ()
    with
    | Error msg ->
        prerr_endline ("transport storm failed: " ^ msg);
        1
    | Ok o ->
        print_string (Encore.Chaosrun.transport_outcome_to_string o);
        if Encore.Chaosrun.transport_ok o then 0 else 1
    end
  else if serve_storm then
    begin match
      Encore.Chaosrun.serve_storm ~config ~requests ~n ~app ~seed ()
    with
    | Error d ->
        prerr_endline
          ("serve storm failed: " ^ Encore_util.Resilience.diagnostic_to_string d);
        1
    | Ok o ->
        print_string (Encore.Chaosrun.serve_outcome_to_string o);
        if
          o.Encore.Chaosrun.serve_notes = []
          && o.Encore.Chaosrun.serve_all_answered
          && o.Encore.Chaosrun.serve_ring_bound_ok
          && o.Encore.Chaosrun.serve_watch_identical
          && o.Encore.Chaosrun.serve_drained
        then 0
        else 1
    end
  else if durability then
    begin match Encore.Chaosrun.durability ~config ~fraction ~app ~dir ~seed () with
    | Error d ->
        prerr_endline
          ("durability drill failed: "
           ^ Encore_util.Resilience.diagnostic_to_string d);
        1
    | Ok o ->
        print_string (Encore.Chaosrun.durability_outcome_to_string o);
        if
          o.Encore.Chaosrun.durability_notes = []
          && List.for_all snd o.Encore.Chaosrun.kill_stages
          && o.Encore.Chaosrun.truncate_detected
          && o.Encore.Chaosrun.bitflip_detected
          && o.Encore.Chaosrun.rollback_ok
        then 0
        else 1
    end
  else
    match Encore.Chaosrun.run ~config ~n ~fraction ~max_retries ~app ~seed () with
    | Error d ->
        prerr_endline
          ("chaos run failed: " ^ Encore_util.Resilience.diagnostic_to_string d);
        1
    | Ok o ->
        print_string (Encore.Chaosrun.outcome_to_string o);
        0

let chaos_cmd =
  let doc =
    "Storm a training population with the pipeline fault set — truncated \
     files, garbage bytes, permanently flapping probes — learn through the \
     resilient path and compare detection against an undamaged model.  With \
     $(b,--durability): the crash-safety drill (kill-at-checkpoint then \
     resume, truncate-snapshot, bitflip-snapshot, rollback to the newest \
     good snapshot).  With $(b,--serve-storm): replay a request storm — \
     queue-overflow bursts, malformed and oversized lines, crash-injection \
     ops, a mid-storm reload — against the resident serve daemon."
  in
  Cmd.v (Cmd.info "chaos" ~doc)
    Term.(const chaos $ seed_arg $ app_arg $ count_arg 50
          $ Arg.(value & opt float 0.3
                 & info [ "fraction" ] ~docv:"FRAC"
                     ~doc:"Fraction of the population to damage.")
          $ max_retries_arg $ jobs_arg
          $ Arg.(value & flag
                 & info [ "durability" ]
                     ~doc:"Run the durability drill (kill-at-checkpoint \
                           then resume, truncate-snapshot, bitflip-snapshot, \
                           rollback-to-latest-good) instead of the ingestion \
                           storm.  Exit code 0 only when every kill point \
                           resumed and every damaged snapshot was detected. \
                           $(b,-n) and $(b,--max-retries) apply to the storm \
                           only and are ignored here.")
          $ Arg.(value & flag
                 & info [ "serve-storm" ]
                     ~doc:"Replay $(b,--requests) request lines (>= 5% \
                           malformed, >= 5% oversized, crash-injection ops, \
                           a mid-storm reload) against the serve daemon and \
                           check its contract: load is shed but nothing \
                           crashes, every queued request is answered, the \
                           alert ring stays inside its bound, incremental \
                           watch verdicts match full checks byte-for-byte, \
                           and shutdown drains cleanly.  Exit code 0 only \
                           when every invariant holds.")
          $ Arg.(value & flag
                 & info [ "transport-storm" ]
                     ~doc:"Drive the multiplexed transport with \
                           $(b,--clients) concurrent clients injecting \
                           transport faults (torn frames with mid-write \
                           disconnects, unterminated floods, \
                           one-byte-per-poll slow writers), then the \
                           crash-replay drill: journal a request storm, \
                           kill the daemon mid-processing, tear the journal \
                           tail, restart and replay.  Exit code 0 only when \
                           no committed response is lost or misrouted, \
                           health verdicts stay truthful, every client gets \
                           its bye, the torn tail is truncated, and the \
                           replayed responses and alert ring are \
                           byte-identical to an uninterrupted reference \
                           run.")
          $ Arg.(value & opt int 6
                 & info [ "clients" ] ~docv:"N"
                     ~doc:"Concurrent clients for $(b,--transport-storm) \
                           (minimum 2).")
          $ Arg.(value & opt int 10_000
                 & info [ "requests" ] ~docv:"N"
                     ~doc:"Request lines to replay with $(b,--serve-storm) \
                           or to journal with $(b,--transport-storm).")
          $ Arg.(value & opt string "_chaos-durability"
                 & info [ "dir" ] ~docv:"DIR"
                     ~doc:"Working directory for the durability drill's \
                           checkpoints and snapshot store, and the \
                           transport storm's journals.")
          $ trace_arg $ metrics_arg)

(* --- serve ----------------------------------------------------------------- *)

(* Line source over a file descriptor for [Server.run]'s [recv]: polls
   with select so a signal-initiated drain is noticed within [tick],
   splits reads into lines, and delivers a trailing unterminated line
   before EOF. *)
let fd_line_reader ?(tick = 0.25) fd =
  let buf = Buffer.create 4096 in
  let chunk = Bytes.create 4096 in
  let lines = Queue.create () in
  let eof = ref false in
  let split_lines () =
    let s = Buffer.contents buf in
    Buffer.clear buf;
    let rec feed = function
      | [] -> ()
      | [ tail ] -> Buffer.add_string buf tail
      | line :: rest ->
          Queue.push line lines;
          feed rest
    in
    feed (String.split_on_char '\n' s)
  in
  let pull ~wait =
    match Unix.select [ fd ] [] [] (if wait then tick else 0.0) with
    | [], _, _ -> ()
    | _ -> (
        match Unix.read fd chunk 0 (Bytes.length chunk) with
        | 0 -> eof := true
        | n ->
            Buffer.add_subbytes buf chunk 0 n;
            split_lines ()
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> ())
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  in
  fun ~wait ->
    if Queue.is_empty lines && not !eof then pull ~wait;
    match Queue.take_opt lines with
    | Some line -> `Line line
    | None ->
        if !eof then
          if Buffer.length buf > 0 then begin
            let line = Buffer.contents buf in
            Buffer.clear buf;
            `Line line
          end
          else `Eof
        else `Idle

let response_line resp = Encore_obs.Jsonenc.to_string resp ^ "\n"

(* Unix-socket transport: the select-driven multiplexer serves every
   connected client concurrently — per-connection line readers, write
   buffers that survive short writes, round-robin admission into the
   bounded queue, slowloris/flood eviction — and the daemon stays
   resident until a shutdown request or a signal drains it.  Responses
   with no live origin (a SIGHUP reload, filesystem-watcher deltas, the
   bye of a clientless daemon) go to stdout. *)
let serve_socket ?watch ?(learn_feed = false) srv path max_connections =
  (try Unix.unlink path with Unix.Unix_error _ -> ());
  let sfd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind sfd (Unix.ADDR_UNIX path);
  Unix.listen sfd 16;
  let orphan resp =
    print_string (response_line resp);
    flush stdout
  in
  let mconfig =
    {
      Encore_serve.Mux.default_config with
      Encore_serve.Mux.max_connections =
        Option.value
          ~default:Encore_serve.Mux.default_config
                     .Encore_serve.Mux.max_connections max_connections;
    }
  in
  let mux = Encore_serve.Mux.create ~config:mconfig ~listen_fd:sfd ~orphan srv in
  Fun.protect
    ~finally:(fun () ->
      Encore_serve.Mux.shutdown_fds mux;
      try Unix.unlink path with Unix.Unix_error _ -> ())
    (fun () ->
      let rec loop () =
        if Encore_serve.Mux.stopped mux then Encore_serve.Server.exit_code srv
        else begin
          (match watch with
          | Some w ->
              List.iter
                (fun d ->
                  List.iter orphan
                    (Encore_serve.Server.offer srv
                       (Encore_serve.Fswatch.watch_request d)))
                (Encore_serve.Fswatch.poll w);
              if learn_feed then
                List.iter
                  (fun p ->
                    List.iter orphan
                      (Encore_serve.Server.offer srv
                         (Encore_serve.Fswatch.learn_request p)))
                  (Encore_serve.Fswatch.poll_images w)
          | None -> ());
          Encore_serve.Mux.step mux;
          loop ()
        end
      in
      loop ())

let serve model_path store_dir learn_stats_dir socket_path journal_path
    watch_dir max_connections seed profile n jobs queue_capacity
    max_request_bytes ring_capacity deadline_s alert_score trace metrics =
  with_telemetry ~trace ~metrics @@ fun () ->
  (* Continuous learning: a resident suffstats learner backed by a
     statistics store.  The learn-append hook folds one image into the
     statistics in sublinear time, persists the grown snapshot and
     refreshes [model_ref]; the provider below serves that refreshed
     model, so the server's shadow-validated reload adopts it. *)
  let learner_hook, model_ref =
    match learn_stats_dir with
    | None -> (None, ref None)
    | Some dir ->
        let module Suffstats = Encore_rules.Suffstats in
        let config = { Encore.Config.default with Encore.Config.seed; jobs } in
        let store = Encore.Stats_io.Store.create ~dir () in
        let model_ref = ref None in
        let learner_ref = ref None in
        (match Encore.Stats_io.Store.load_latest store with
        | Ok (stats, path) -> (
            match Encore.Pipeline.learner_result ~config stats with
            | Ok l ->
                learner_ref := Some l;
                model_ref := Some (Encore.Pipeline.model_of_learner l);
                Printf.eprintf
                  "serve: learner restored from %s (%d image(s))\n%!" path
                  (Suffstats.n_images stats)
            | Error d ->
                Printf.eprintf "serve: cannot finalize statistics: %s\n%!"
                  (Encore_util.Resilience.diagnostic_to_string d))
        | Error _ -> () (* empty store: the learner starts cold *));
        let hook img =
          match
            match !learner_ref with
            | Some l -> Ok (Encore.Pipeline.learn_append ~config l [ img ])
            | None ->
                Encore.Pipeline.learner_result ~config
                  (Encore.Pipeline.stats_of_images ~config [ img ])
          with
          | Error d -> Error (Encore_util.Resilience.diagnostic_to_string d)
          | exception e -> Error (Printexc.to_string e)
          | Ok l ->
              learner_ref := Some l;
              model_ref := Some (Encore.Pipeline.model_of_learner l);
              let stats = Suffstats.stats l in
              let (_ : string) = Encore.Stats_io.Store.save store stats in
              Ok
                (Printf.sprintf "corpus grew to %d image(s)"
                   (Suffstats.n_images stats))
        in
        (Some hook, model_ref)
  in
  let provider ~app:name =
    match !model_ref with
    | Some m -> Ok m
    | None -> (
    match (model_path, store_dir) with
    | Some path, _ -> (
        match Encore_detect.Model_io.load path with
        | Ok m -> Ok m
        | Error e -> Error (Encore_detect.Model_io.load_error_to_string e))
    | None, Some dir -> (
        let store = Encore_detect.Model_io.Store.create ~dir () in
        match Encore_detect.Model_io.Store.load_latest store with
        | Ok (m, _) -> Ok m
        | Error e -> Error (Encore_detect.Model_io.load_error_to_string e))
    | None, None -> (
        match Image.app_of_string name with
        | None -> Error (Printf.sprintf "unknown application %S" name)
        | Some app -> Ok (fst (learn_model ~seed ~profile ~jobs app n))))
  in
  let dc = Encore_serve.Server.default_config in
  let config =
    { dc with
      Encore_serve.Server.queue_capacity =
        Option.value ~default:dc.Encore_serve.Server.queue_capacity
          queue_capacity;
      max_request_bytes =
        Option.value ~default:dc.Encore_serve.Server.max_request_bytes
          max_request_bytes;
      ring_capacity =
        Option.value ~default:dc.Encore_serve.Server.ring_capacity
          ring_capacity;
      deadline_s =
        (match deadline_s with
         | None -> dc.Encore_serve.Server.deadline_s
         | some -> some);
      alert_score =
        Option.value ~default:dc.Encore_serve.Server.alert_score alert_score;
    }
  in
  match
    match journal_path with
    | None -> Ok None
    | Some path -> (
        match Encore_serve.Journal.open_ ~path with
        | Ok (j, recovery) -> Ok (Some (j, recovery))
        | Error e -> Error e)
  with
  | Error e ->
      prerr_endline ("serve: cannot open journal: " ^ e);
      1
  | Ok journal ->
      let srv =
        Encore_serve.Server.create ~config
          ?journal:(Option.map fst journal)
          ?learner:learner_hook
          (Encore_serve.Cache.create ~provider)
      in
      (* crash recovery before the transport opens: rebuild committed
         state from the journal and re-emit the responses the crash
         swallowed (to stdout — the clients that asked are gone) *)
      (match journal with
      | Some (_, recovery)
        when recovery.Encore_serve.Journal.entries <> [] ->
          let replayed =
            Encore_serve.Server.replay srv
              ~entries:recovery.Encore_serve.Journal.entries
              ~emit:(fun (e : Encore_serve.Journal.entry) resps ->
                if not e.completed then
                  List.iter
                    (fun resp -> print_string (response_line resp))
                    resps)
          in
          flush stdout;
          Printf.eprintf "serve: replayed %d journaled request(s)%s\n%!"
            replayed
            (match recovery.Encore_serve.Journal.truncated_at with
            | Some off -> Printf.sprintf " (torn tail cut at byte %d)" off
            | None -> "")
      | _ -> ());
      let watch = Option.map (fun dir -> Encore_serve.Fswatch.create ~dir) watch_dir in
      let drain _ = Encore_serve.Server.request_shutdown srv in
      Sys.set_signal Sys.sigterm (Sys.Signal_handle drain);
      Sys.set_signal Sys.sigint (Sys.Signal_handle drain);
      Sys.set_signal Sys.sighup
        (Sys.Signal_handle (fun _ -> Encore_serve.Server.request_reload srv));
      Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
      (match socket_path with
      | Some path ->
          serve_socket ?watch
            ~learn_feed:(Option.is_some learner_hook)
            srv path max_connections
      | None ->
          let stdin_recv = fd_line_reader Unix.stdin in
          (* the watcher feeds synthesized watch requests between client
             lines; polled only on waiting reads so a request storm is
             never stalled behind directory stats *)
          let pending_watch = Queue.create () in
          let recv ~wait =
            (match watch with
            | Some w when wait && Queue.is_empty pending_watch ->
                List.iter
                  (fun d ->
                    Queue.push (Encore_serve.Fswatch.watch_request d)
                      pending_watch)
                  (Encore_serve.Fswatch.poll w);
                if Option.is_some learner_hook then
                  List.iter
                    (fun p ->
                      Queue.push (Encore_serve.Fswatch.learn_request p)
                        pending_watch)
                    (Encore_serve.Fswatch.poll_images w)
            | _ -> ());
            match Queue.take_opt pending_watch with
            | Some line -> `Line line
            | None -> stdin_recv ~wait
          in
          (* a scraper spliced onto our pipes (e.g. `encore-cli top`) may
             disconnect while the drain is still flushing; dropping the
             remaining responses beats dying on the closed pipe *)
          let peer_gone = ref false in
          let send resp =
            if not !peer_gone then
              try
                print_string (response_line resp);
                flush stdout
              with Sys_error _ ->
                peer_gone := true;
                (* leave nothing buffered: the at-exit flush of the
                   standard formatters would re-raise on the dead pipe
                   (flush on a closed channel is defined as a no-op) *)
                close_out_noerr stdout
          in
          Encore_serve.Server.run srv ~recv ~send)

let serve_cmd =
  let doc =
    "Run the resident check daemon: JSONL requests ($(b,check), \
     $(b,learn-append), $(b,watch), $(b,reload), $(b,status), $(b,metrics), \
     $(b,health), $(b,shutdown)) over stdio or a Unix socket (concurrent \
     clients via a select multiplexer).  \
     Oversized lines are rejected before queueing, a full queue sheds with \
     an $(i,overloaded) response, malformed requests get typed errors, \
     detections land in a bounded drop-oldest alert ring, and SIGTERM (or a \
     shutdown request) drains gracefully: in-flight requests finish, the \
     ring is flushed, every client gets the bye summary, and the exit code \
     follows the 0/1/2/3 contract (3 when load was shed, the worker \
     restarted, or alerts were dropped).  SIGHUP (or $(b,reload)) swaps the \
     model only after shadow-validating the candidate against recent \
     checks; with $(b,--journal) admitted requests survive kill -9 and are \
     replayed on restart."
  in
  Cmd.v (Cmd.info "serve" ~doc)
    Term.(const serve
          $ Arg.(value & opt (some file) None
                 & info [ "model" ] ~docv:"FILE"
                     ~doc:"Serve the model snapshot at $(docv) for every \
                           application; $(b,reload) re-reads it.")
          $ Arg.(value & opt (some string) None
                 & info [ "store" ] ~docv:"DIR"
                     ~doc:"Serve the newest verifiable snapshot of the model \
                           store under $(docv) (written by 'save --store'); \
                           $(b,reload) picks up new snapshots.")
          $ Arg.(value & opt (some string) None
                 & info [ "learn-stats" ] ~docv:"DIR"
                     ~doc:"Continuous learning: keep a resident learner \
                           whose sufficient statistics persist as snapshots \
                           under $(docv) (restored at startup when \
                           present).  Each $(b,learn-append) request — or \
                           $(i,<name>.img) dump dropped into \
                           $(b,--watch-dir) — folds one observed image into \
                           the statistics in sublinear time and adopts the \
                           refreshed model through the shadow-validated \
                           reload.")
          $ Arg.(value & opt (some string) None
                 & info [ "socket" ] ~docv:"PATH"
                     ~doc:"Listen on a Unix socket at $(docv) instead of \
                           stdio; connected clients are served \
                           concurrently.")
          $ Arg.(value & opt (some string) None
                 & info [ "journal" ] ~docv:"FILE"
                     ~doc:"Write-ahead request journal: every admitted \
                           check/watch request is fsynced to $(docv) before \
                           it is queued, and on restart the journal is \
                           replayed — committed state is rebuilt and \
                           unanswered responses re-emitted — so a kill -9 \
                           mid-storm loses nothing that was accepted.")
          $ Arg.(value & opt (some string) None
                 & info [ "watch-dir" ] ~docv:"DIR"
                     ~doc:"Poll $(docv) for config files named \
                           $(i,<image-id>@<app>.conf) and feed each change \
                           as an incremental watch request against that \
                           image's session.")
          $ Arg.(value & opt (some int) None
                 & info [ "max-connections" ] ~docv:"N"
                     ~doc:"Concurrent socket clients served; further \
                           connections wait in the listen backlog.")
          $ seed_arg $ profile_arg $ count_arg 100 $ jobs_arg
          $ Arg.(value & opt (some int) None
                 & info [ "queue-capacity" ] ~docv:"N"
                     ~doc:"Pending requests before the daemon sheds load.")
          $ Arg.(value & opt (some int) None
                 & info [ "max-request-bytes" ] ~docv:"N"
                     ~doc:"Longer request lines are rejected unqueued, so \
                           queue memory stays bounded.")
          $ Arg.(value & opt (some int) None
                 & info [ "ring-capacity" ] ~docv:"N"
                     ~doc:"Alert ring bound (drop-oldest beyond it).")
          $ Arg.(value & opt (some float) None
                 & info [ "request-deadline" ] ~docv:"SECS"
                     ~doc:"Per-request budget; on expiry the response \
                           carries the ranked partial verdict and \
                           $(i,partial: true).")
          $ Arg.(value & opt (some float) None
                 & info [ "alert-score" ] ~docv:"S"
                     ~doc:"Warnings at or above $(docv) count as detections \
                           and enter the alert ring.")
          $ trace_arg $ metrics_arg)

(* --- top ------------------------------------------------------------------ *)

module Jx = Encore_obs.Jsonenc

(* Counters named detect.rule_fired{rule="..."} from the metrics JSON,
   as (rule label, count) descending — the "top-firing rules" panel. *)
let top_firing_rules counters =
  let prefix = "detect.rule_fired{rule=\"" in
  let plen = String.length prefix in
  List.filter_map
    (fun (name, v) ->
      if String.length name > plen + 2 && String.sub name 0 plen = prefix then
        match Jx.to_int_opt v with
        | Some n -> Some (String.sub name plen (String.length name - plen - 2), n)
        | None -> None
      else None)
    counters
  |> List.sort (fun (a, va) (b, vb) ->
         match compare (vb : int) va with 0 -> compare (a : string) b | c -> c)

let obj_fields = function Jx.Obj fields -> fields | _ -> []

let render_frame ~frame health metrics =
  let buf = Buffer.create 2048 in
  let str j k = Option.bind (Jx.member k j) Jx.to_string_opt in
  let num j k = Option.bind (Jx.member k j) Jx.to_float_opt in
  let verdict = Option.value ~default:"?" (str health "health") in
  let reasons =
    match Jx.member "reasons" health with
    | Some (Jx.Arr rs) -> List.filter_map Jx.to_string_opt rs
    | _ -> []
  in
  Buffer.add_string buf
    (Printf.sprintf "encore top — frame %d — health: %s\n" frame verdict);
  List.iter
    (fun r -> Buffer.add_string buf (Printf.sprintf "  reason: %s\n" r))
    reasons;
  (match Jx.member "window" metrics with
   | Some w ->
       let f k = Option.value ~default:0.0 (num w k) in
       Buffer.add_string buf
         (Printf.sprintf
            "window %.0fs: %d req (%.1f/s)  p50 %.0fus  p90 %.0fus  p99 \
             %.0fus  max %.0fus\n"
            (f "window_s")
            (int_of_float (f "count"))
            (f "rate") (f "p50") (f "p90") (f "p99") (f "max"))
   | None -> ());
  let registry = Option.value ~default:Jx.Null (Jx.member "metrics" metrics) in
  let gauges = obj_fields (Option.value ~default:Jx.Null (Jx.member "gauges" registry)) in
  let counters =
    obj_fields (Option.value ~default:Jx.Null (Jx.member "counters" registry))
  in
  let gauge name =
    match List.assoc_opt name gauges with
    | Some v -> Option.value ~default:0.0 (Jx.to_float_opt v)
    | None -> 0.0
  in
  let counter name =
    match List.assoc_opt name counters with
    | Some v -> Option.value ~default:0 (Jx.to_int_opt v)
    | None -> 0
  in
  Buffer.add_string buf
    (Encore_util.Texttab.render ~title:"daemon"
       ~header:[ "signal"; "value" ]
       [
         [ "requests"; string_of_int (counter "serve.requests") ];
         [ "shed"; string_of_int (counter "serve.shed") ];
         [ "errors"; string_of_int (counter "serve.errors") ];
         [ "restarts"; string_of_int (counter "serve.restarts") ];
         [ "breaker denied"; string_of_int (counter "serve.breaker_denied") ];
         [ "queue depth"; Printf.sprintf "%.0f" (gauge "serve.sampled.queue_depth") ];
         [ "queue occupancy"; Printf.sprintf "%.0f%%" (100.0 *. gauge "serve.sampled.queue_occupancy") ];
         [ "breaker state"; Option.value ~default:"?" (str health "breaker") ];
         [ "sessions"; Printf.sprintf "%.0f" (gauge "serve.sampled.sessions") ];
         [ "ring dropped"; Printf.sprintf "%.0f" (gauge "serve.sampled.ring_dropped") ];
         [ "gc major heap words"; Printf.sprintf "%.0f" (gauge "runtime.gc.heap_words") ];
       ]);
  (match top_firing_rules counters with
   | [] -> ()
   | rules ->
       Buffer.add_string buf
         (Encore_util.Texttab.render ~title:"top-firing rules"
            ~header:[ "rule"; "fired" ]
            (List.filteri (fun i _ -> i < 10) rules
            |> List.map (fun (r, n) -> [ r; string_of_int n ]))));
  Buffer.contents buf

(* Connect to a daemon socket with capped exponential backoff — a
   restarting daemon (journal replay, supervisor respawn) comes back
   within a few seconds, so a resident top should outwait it rather
   than die on the first ECONNREFUSED. *)
let connect_with_backoff ?(attempts = 8) path =
  let rec go k delay last_err =
    if k >= attempts then
      Error
        (Printf.sprintf "top: cannot connect to %s after %d attempt(s): %s"
           path attempts (Unix.error_message last_err))
    else begin
      if k > 0 then Unix.sleepf delay;
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      match Unix.connect fd (Unix.ADDR_UNIX path) with
      | () -> Ok fd
      | exception Unix.Unix_error (e, _, _) ->
          (try Unix.close fd with Unix.Unix_error _ -> ());
          go (k + 1) (Float.min 4.0 (delay *. 2.0)) e
    end
  in
  go 0 0.25 Unix.ECONNREFUSED

(* Poll a running daemon: send a metrics (json) and a health request,
   collect the two responses (skipping unrelated lines, e.g. drained
   alerts), render one frame.  Transport is a Unix socket — connected
   with backoff, reconnected if the daemon goes away between frames —
   or stdio: requests on stdout, responses on stdin, frames on stderr,
   so a harness can splice [top] onto a daemon's pipes. *)
let top socket_path interval frames raw =
  let collect recv =
    let rec go ~idle_budget acc =
      if idle_budget <= 0 then acc
      else
        match recv ~wait:true with
        | `Eof -> acc
        | `Idle -> go ~idle_budget:(idle_budget - 1) acc
        | `Line line -> (
            match Jx.of_string line with
            | Error _ -> go ~idle_budget acc
            | Ok json ->
                let acc =
                  match Option.bind (Jx.member "op" json) Jx.to_string_opt with
                  | Some "metrics" -> (Some json, snd acc)
                  | Some "health" -> (fst acc, Some json)
                  | _ -> acc
                in
                if fst acc <> None && snd acc <> None then acc
                else go ~idle_budget acc)
    in
    (* ~10s of idle ticks before giving up on the daemon *)
    go ~idle_budget:40 (None, None)
  in
  let probes =
    [
      "{\"op\":\"metrics\",\"format\":\"json\",\"id\":\"top-m\"}\n";
      "{\"op\":\"health\",\"id\":\"top-h\"}\n";
    ]
  in
  match socket_path with
  | None ->
      (* stdio splice: the pipes cannot be re-established, so an
         unanswered probe is fatal, as before *)
      let send line =
        print_string line;
        flush stdout
      in
      let recv = fd_line_reader Unix.stdin in
      let rec loop frame =
        List.iter send probes;
        match collect recv with
        | Some metrics, Some health ->
            prerr_string
              ((if raw then "" else "\027[2J\027[H")
              ^ render_frame ~frame health metrics);
            if frames > 0 && frame >= frames then 0
            else begin
              Unix.sleepf interval;
              loop (frame + 1)
            end
        | _ ->
            prerr_endline "top: daemon did not answer metrics/health probes";
            1
      in
      loop 1
  | Some path ->
      let conn = ref None in
      let close_conn () =
        match !conn with
        | Some (fd, _) ->
            (try Unix.close fd with Unix.Unix_error _ -> ());
            conn := None
        | None -> ()
      in
      Fun.protect ~finally:close_conn @@ fun () ->
      let rec loop frame ~retried =
        match
          match !conn with
          | Some c -> Ok c
          | None -> (
              match connect_with_backoff path with
              | Ok fd ->
                  let c = (fd, fd_line_reader fd) in
                  conn := Some c;
                  Ok c
              | Error msg -> Error msg)
        with
        | Error msg ->
            prerr_endline msg;
            1
        | Ok (fd, reader) -> (
            let sent =
              try
                List.iter
                  (fun line ->
                    let rec put off =
                      if off < String.length line then
                        put
                          (off
                          + Unix.write_substring fd line off
                              (String.length line - off))
                    in
                    put 0)
                  probes;
                true
              with Unix.Unix_error _ -> false
            in
            match (if sent then collect reader else (None, None)) with
            | Some metrics, Some health ->
                if not raw then print_string "\027[2J\027[H";
                print_string (render_frame ~frame health metrics);
                flush stdout;
                if frames > 0 && frame >= frames then 0
                else begin
                  Unix.sleepf interval;
                  loop (frame + 1) ~retried:false
                end
            | _ ->
                (* daemon went away mid-frame: reconnect (with backoff)
                   and retry this frame once *)
                close_conn ();
                if retried then begin
                  prerr_endline
                    "top: daemon did not answer metrics/health probes";
                  1
                end
                else begin
                  prerr_endline "top: connection lost, reconnecting";
                  loop frame ~retried:true
                end)
      in
      loop 1 ~retried:false

let top_cmd =
  let doc =
    "Live terminal view over a running serve daemon: rolling latency \
     windows (p50/p90/p99, rate), the health verdict with its reasons, \
     saturation gauges and the top-firing detection rules, polled via \
     $(b,metrics)/$(b,health) requests.  Connects to $(b,--socket), or \
     speaks the protocol over stdio (requests on stdout, responses on \
     stdin, frames on stderr) so it can be spliced onto a daemon's pipes."
  in
  Cmd.v (Cmd.info "top" ~doc)
    Term.(const top
          $ Arg.(value & opt (some string) None
                 & info [ "socket" ] ~docv:"PATH"
                     ~doc:"Unix socket of the daemon (see 'serve --socket').")
          $ Arg.(value & opt float 2.0
                 & info [ "interval" ] ~docv:"SECS"
                     ~doc:"Seconds between polls.")
          $ Arg.(value & opt int 0
                 & info [ "frames" ] ~docv:"N"
                     ~doc:"Render $(docv) frames and exit (0 = poll until \
                           the daemon goes away).")
          $ Arg.(value & flag
                 & info [ "raw" ]
                     ~doc:"Do not clear the screen between frames (append \
                           them instead)."))

(* --- check ---------------------------------------------------------------- *)

(* Load every fleet target: *.img dumps under --fleet DIR (sorted by
   file name) plus the dump paths listed in --targets FILE, in file
   order.  Total: a bad dump is reported, not raised. *)
let load_fleet_targets ~fleet ~targets =
  match
    ( (match fleet with
       | Some dir when not (Sys.file_exists dir && Sys.is_directory dir) ->
           Error (dir ^ ": not a directory")
       | _ -> Ok ()),
      match targets with
      | Some file when not (Sys.file_exists file) ->
          Error (file ^ ": no such file")
      | _ -> Ok () )
  with
  | Error e, _ | _, Error e -> Error e
  | Ok (), Ok () ->
  let dump_paths =
    (match fleet with
     | None -> []
     | Some dir ->
         Sys.readdir dir |> Array.to_list
         |> List.filter (fun f -> Filename.check_suffix f ".img")
         |> List.sort compare
         |> List.map (Filename.concat dir))
    @
    match targets with
    | None -> []
    | Some file -> Encore_util.Strutil.trim_lines (read_file file)
  in
  let rec load acc = function
    | [] -> Ok (List.rev acc)
    | path :: rest -> (
        match
          if Sys.file_exists path then
            Encore_sysenv.Collector.image_of_text (read_file path)
          else Error "no such file"
        with
        | Ok img -> load ((path, img) :: acc) rest
        | Error e -> Error (Printf.sprintf "%s: %s" path e))
  in
  load [] dump_paths

let check_fleet_mode ~seed ~profile ~app ~n ~custom ~threshold ~jobs ~fleet
    ~targets ~report_path ~deadline_s =
  match load_fleet_targets ~fleet ~targets with
  | Error e ->
      prerr_endline ("cannot load fleet target " ^ e);
      1
  | Ok [] ->
      prerr_endline "fleet check: no *.img dumps found";
      1
  | Ok loaded ->
      let model, trained = learn_model ?custom ~seed ~profile ~jobs app n in
      Printf.printf "model: %d rules from %d images; checking %d target(s)\n"
        (List.length model.Detector.rules) trained (List.length loaded);
      let config =
        { Encore.Config.default with
          Encore.Config.seed; jobs; detection_score = threshold }
      in
      let deadline = Option.map Encore_util.Deadline.of_budget_s deadline_s in
      let report_oc = Option.map open_out report_path in
      let stream =
        Option.map
          (fun oc line ->
            output_string oc line;
            output_char oc '\n')
          report_oc
      in
      let fleet_report =
        Fun.protect
          ~finally:(fun () -> Option.iter close_out report_oc)
          (fun () ->
            Encore.Pipeline.check_fleet ~config ?deadline ?stream model
              (List.map snd loaded))
      in
      print_string (Encore.Pipeline.fleet_report_to_string fleet_report);
      (match report_path with
       | Some path -> Printf.printf "JSONL report written to %s\n" path
       | None -> ());
      Encore.Pipeline.fleet_exit_code fleet_report

let check seed profile app n custom threshold jobs fleet targets report_path
    deadline_s trace metrics =
  with_telemetry ~trace ~metrics @@ fun () ->
  if fleet <> None || targets <> None then
    check_fleet_mode ~seed ~profile ~app ~n ~custom ~threshold ~jobs ~fleet
      ~targets ~report_path ~deadline_s
  else begin
    let model, trained = learn_model ?custom ~seed ~profile ~jobs app n in
    Printf.printf "model: %d rules from %d images\n" (List.length model.Detector.rules) trained;
    let rng = Encore_util.Prng.create (seed + 10_000) in
    let target = Population.generator_for app profile rng ~id:"held-out" in
    let campaign = Conferr.inject ~env_fault_fraction:0.4 rng app target ~n:3 in
    print_endline "\ninjected ground truth:";
    List.iter
      (fun inj -> Printf.printf "  %s\n" (Fault.injection_to_string inj))
      campaign.Conferr.injections;
    let warnings =
      List.filter
        (fun w -> w.Encore_detect.Warning.score >= threshold)
        (Detector.check model campaign.Conferr.image)
    in
    print_endline "\nranked warnings:";
    print_string (Report.to_string warnings);
    0
  end

let threshold_arg =
  Arg.(value & opt float 0.45
       & info [ "threshold" ] ~docv:"S" ~doc:"Minimum warning score to report.")

let check_cmd =
  let doc =
    "Misconfigure a held-out image and run the detector against it; or, \
     with $(b,--fleet) / $(b,--targets), batch-check collector image dumps \
     through the compiled engine."
  in
  Cmd.v (Cmd.info "check" ~doc)
    Term.(const check $ seed_arg $ profile_arg $ app_arg $ count_arg 100 $ custom_arg
          $ threshold_arg $ jobs_arg
          $ Arg.(value & opt (some string) None
                 & info [ "fleet" ] ~docv:"DIR"
                     ~doc:"Check every *.img collector dump under $(docv) \
                           (written by 'generate --out'), in file-name \
                           order.  The model is compiled once and shared by \
                           $(b,--jobs) workers; exit code 3 when \
                           $(b,--deadline) expires mid-fleet.")
          $ Arg.(value & opt (some string) None
                 & info [ "targets" ] ~docv:"FILE"
                     ~doc:"Check the image dumps listed in $(docv) (one path \
                           per line), after any $(b,--fleet) dumps.")
          $ Arg.(value & opt (some string) None
                 & info [ "report" ] ~docv:"FILE"
                     ~doc:"Stream one JSON line per checked image to $(docv), \
                           in target order.")
          $ deadline_arg
          $ trace_arg $ metrics_arg)

(* --- inject ---------------------------------------------------------------- *)

let inject seed app n_faults =
  let rng = Encore_util.Prng.create seed in
  let target = Population.generator_for app Profile.ec2 rng ~id:"victim" in
  let campaign = Conferr.inject ~env_fault_fraction:0.3 rng app target ~n:n_faults in
  Printf.printf "%d faults injected into a fresh %s image:\n"
    (List.length campaign.Conferr.injections) (Image.app_to_string app);
  List.iter
    (fun inj -> Printf.printf "  %s\n" (Fault.injection_to_string inj))
    campaign.Conferr.injections;
  (match Image.config_for campaign.Conferr.image app with
   | Some cf -> Printf.printf "\nresulting configuration:\n%s" cf.Image.text
   | None -> ());
  0

let inject_cmd =
  let doc = "Run a ConfErr-style fault-injection campaign and show the result." in
  Cmd.v (Cmd.info "inject" ~doc)
    Term.(const inject $ seed_arg $ app_arg
          $ Arg.(value & opt int 5 & info [ "faults" ] ~docv:"N" ~doc:"Faults to inject."))

(* --- experiment ------------------------------------------------------------- *)

let experiment which scale_name seed =
  let config = { Encore.Config.default with Encore.Config.seed } in
  let scale =
    match scale_name with
    | "paper" -> Encore.Experiments.paper_scale
    | _ -> Encore.Experiments.test_scale
  in
  let tables =
    match which with
    | "all" -> Some (Encore.Experiments.all ~config ~scale ())
    | "table1" -> Some [ Encore.Experiments.table1 () ]
    | "table2" -> Some [ Encore.Experiments.table2 ~config ~scale () ]
    | "table3" -> Some [ Encore.Experiments.table3 ~config ~scale () ]
    | "table8" -> Some [ Encore.Experiments.table8 ~config ~scale () ]
    | "table9" -> Some [ Encore.Experiments.table9 ~config ~scale () ]
    | "table10" -> Some [ Encore.Experiments.table10 ~config ~scale () ]
    | "table11" -> Some [ Encore.Experiments.table11 ~config ~scale () ]
    | "table12" -> Some [ Encore.Experiments.table12 ~config ~scale () ]
    | "table13" -> Some [ Encore.Experiments.table13 ~config ~scale () ]
    | _ -> None
  in
  match tables with
  | None ->
      prerr_endline ("unknown experiment: " ^ which);
      2
  | Some tables ->
      List.iter (fun t -> print_endline (Encore.Experiments.render t)) tables;
      0

let experiment_cmd =
  let doc = "Regenerate one of the paper's evaluation tables (or 'all')." in
  Cmd.v (Cmd.info "experiment" ~doc)
    Term.(const experiment
          $ Arg.(value & pos 0 string "all" & info [] ~docv:"TABLE")
          $ Arg.(value & opt string "paper"
                 & info [ "scale" ] ~docv:"SCALE" ~doc:"'paper' or 'test'.")
          $ seed_arg)

(* --- save / load-check -------------------------------------------------------- *)

let save seed profile app n custom jobs output store_dir keep =
  match (output, store_dir) with
  | None, None ->
      prerr_endline "save: pass --output FILE and/or --store DIR";
      2
  | _ ->
      let model, trained = learn_model ?custom ~seed ~profile ~jobs app n in
      let describe dest =
        Printf.printf
          "saved a model learned from %d images (%d rules, %d typed columns) \
           to %s\n"
          trained
          (List.length model.Detector.rules)
          (List.length model.Detector.types)
          dest
      in
      Option.iter
        (fun path ->
          Encore_detect.Model_io.save path model;
          describe path)
        output;
      Option.iter
        (fun dir ->
          let store = Encore_detect.Model_io.Store.create ~keep ~dir () in
          let path = Encore_detect.Model_io.Store.save store model in
          describe path)
        store_dir;
      0

let save_cmd =
  let doc = "Learn a model and serialize it to a file or a snapshot store." in
  Cmd.v (Cmd.info "save" ~doc)
    Term.(const save $ seed_arg $ profile_arg $ app_arg $ count_arg 100 $ custom_arg
          $ jobs_arg
          $ Arg.(value & opt (some string) None
                 & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Model output path.")
          $ Arg.(value & opt (some string) None
                 & info [ "store" ] ~docv:"DIR"
                     ~doc:"Save into a versioned snapshot store under $(docv) \
                           (atomic write, latest pointer, keeps the last \
                           $(b,--keep) snapshots).")
          $ Arg.(value & opt int 5
                 & info [ "keep" ] ~docv:"K"
                     ~doc:"Snapshots to retain in the store (default 5)."))

let load_check model_path seed app threshold advise =
  match Encore_detect.Model_io.load model_path with
  | Error e ->
      prerr_endline
        ("cannot load model: " ^ Encore_detect.Model_io.load_error_to_string e);
      1
  | Ok model ->
      Printf.printf "loaded model: %d rules, trained on %d images\n"
        (List.length model.Detector.rules) model.Detector.training_count;
      let rng = Encore_util.Prng.create (seed + 20_000) in
      let target = Population.generator_for app Profile.ec2 rng ~id:"target" in
      let campaign = Conferr.inject ~env_fault_fraction:0.4 rng app target ~n:2 in
      print_endline "injected ground truth:";
      List.iter
        (fun inj -> Printf.printf "  %s\n" (Fault.injection_to_string inj))
        campaign.Conferr.injections;
      let warnings =
        List.filter
          (fun w -> w.Encore_detect.Warning.score >= threshold)
          (Detector.check model campaign.Conferr.image)
      in
      print_endline "\nranked warnings:";
      print_string (Report.to_string warnings);
      if advise then begin
        print_endline "\nsuggested remediations:";
        print_string
          (Encore_detect.Advisor.to_string
             (Encore_detect.Advisor.advise model campaign.Conferr.image warnings))
      end;
      0

let load_cmd =
  let doc = "Load a serialized model and check a faulted image against it." in
  Cmd.v (Cmd.info "load-check" ~doc)
    Term.(const load_check
          $ Arg.(required & pos 0 (some string) None & info [] ~docv:"MODEL")
          $ seed_arg $ app_arg $ threshold_arg
          $ Arg.(value & flag & info [ "advise" ] ~doc:"Also print remediation advice."))

(* --- testgen -------------------------------------------------------------------- *)

let testgen seed profile app n jobs =
  let model, _ = learn_model ~seed ~profile ~jobs app n in
  let rng = Encore_util.Prng.create (seed + 30_000) in
  let img = Population.generator_for app profile rng ~id:"seed-image" in
  let cases = Encore.Testgen.generate model img in
  Printf.printf "%d rule-violating test cases generated from %d learned rules:\n"
    (List.length cases) (List.length model.Detector.rules);
  let verified = ref 0 in
  List.iter
    (fun (c : Encore.Testgen.test_case) ->
      let ok = Encore.Testgen.verify_detected model c in
      if ok then incr verified;
      Printf.printf "  [%s] %s\n    target rule: %s\n"
        (if ok then "re-detected" else "silent     ")
        c.Encore.Testgen.description
        (Encore_rules.Template.rule_to_string c.Encore.Testgen.rule))
    cases;
  Printf.printf "\n%d/%d cases re-detected by the checker\n" !verified
    (List.length cases);
  0

let testgen_cmd =
  let doc = "Generate rule-violating configuration test cases (paper section 8)." in
  Cmd.v (Cmd.info "testgen" ~doc)
    Term.(const testgen $ seed_arg $ profile_arg $ app_arg $ count_arg 100 $ jobs_arg)

(* --- ablation --------------------------------------------------------------------- *)

let ablation which scale_name seed =
  let config = { Encore.Config.default with Encore.Config.seed } in
  let scale =
    match scale_name with
    | "paper" -> Encore.Experiments.paper_scale
    | _ -> Encore.Experiments.test_scale
  in
  let tables =
    match which with
    | "all" -> Some (Encore.Ablation.all ~config ~scale ())
    | "training-size" -> Some [ Encore.Ablation.training_size ~config () ]
    | "confidence" -> Some [ Encore.Ablation.confidence_sweep ~config ~scale () ]
    | "type-selection" -> Some [ Encore.Ablation.type_selection ~config ~scale () ]
    | "checks" -> Some [ Encore.Ablation.check_breakdown ~config ~scale () ]
    | "miners" -> Some [ Encore.Ablation.miners ~config ~scale () ]
    | _ -> None
  in
  match tables with
  | None ->
      prerr_endline ("unknown ablation: " ^ which);
      2
  | Some tables ->
      List.iter (fun t -> print_endline (Encore.Experiments.render t)) tables;
      0

let ablation_cmd =
  let doc =
    "Run an ablation study: training-size, confidence, type-selection, \
     checks or all."
  in
  Cmd.v (Cmd.info "ablation" ~doc)
    Term.(const ablation
          $ Arg.(value & pos 0 string "all" & info [] ~docv:"STUDY")
          $ Arg.(value & opt string "paper"
                 & info [ "scale" ] ~docv:"SCALE" ~doc:"'paper' or 'test'.")
          $ seed_arg)

(* --- case ----------------------------------------------------------------- *)

let run_case case_id seed jobs =
  let cases = Encore_workloads.Cases.all ~seed:(seed + 900) in
  match List.find_opt (fun c -> c.Encore_workloads.Cases.case_id = case_id) cases with
  | None ->
      prerr_endline "case id must be between 1 and 10";
      2
  | Some case ->
      Printf.printf "case %d (%s, needs %s):\n  %s\n\n" case.Encore_workloads.Cases.case_id
        (Image.app_to_string case.Encore_workloads.Cases.app)
        (Encore_workloads.Cases.info_to_string case.Encore_workloads.Cases.info)
        case.Encore_workloads.Cases.description;
      let n =
        Option.value ~default:100
          (List.assoc_opt case.Encore_workloads.Cases.app Population.paper_training_sizes)
      in
      let model, _ =
        learn_model ~seed ~profile:Profile.ec2 ~jobs
          case.Encore_workloads.Cases.app n
      in
      let warnings =
        List.filter
          (fun w -> w.Encore_detect.Warning.score >= 0.55)
          (Detector.check model case.Encore_workloads.Cases.target)
      in
      (if warnings = [] then
         print_endline
           (if case.Encore_workloads.Cases.expect_miss then
              "no warnings - the paper misses this case too (no hardware data \
               in EC2-style training)"
            else "no warnings")
       else begin
         print_endline "ranked warnings:";
         print_string (Report.to_string (Report.merge_by_attr warnings));
         print_endline "\nsuggested remediations:";
         print_string
           (Encore_detect.Advisor.to_string
              (Encore_detect.Advisor.advise model case.Encore_workloads.Cases.target
                 (Report.merge_by_attr warnings)))
       end);
      0

let case_cmd =
  let doc = "Reproduce one of the ten real-world cases of paper Table 9." in
  Cmd.v (Cmd.info "case" ~doc)
    Term.(const run_case
          $ Arg.(value & pos 0 int 3 & info [] ~docv:"ID")
          $ seed_arg $ jobs_arg)

(* --- study ------------------------------------------------------------------ *)

let study () =
  print_endline (Encore.Experiments.render (Encore.Experiments.table1 ()));
  0

let study_cmd =
  let doc = "Print the configuration-parameter study (Table 1)." in
  Cmd.v (Cmd.info "study" ~doc) Term.(const study $ const ())

(* --- export ------------------------------------------------------------------- *)

let export seed profile app n output =
  let images = Population.clean (Population.generate ~profile ~seed app ~n) in
  let assembled = Encore_dataset.Assemble.assemble_training images in
  let csv = Encore_dataset.Table.to_csv assembled.Encore_dataset.Assemble.table in
  (match output with
   | Some path ->
       let oc = open_out path in
       Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc csv);
       Printf.printf "wrote %d rows x %d columns to %s\n"
         (Encore_dataset.Table.row_count assembled.Encore_dataset.Assemble.table)
         (Encore_dataset.Table.column_count assembled.Encore_dataset.Assemble.table)
         path
   | None -> print_string csv);
  0

let export_cmd =
  let doc = "Assemble a population and export the attribute table as CSV." in
  Cmd.v (Cmd.info "export" ~doc)
    Term.(const export $ seed_arg $ profile_arg $ app_arg $ count_arg 50
          $ Arg.(value & opt (some string) None
                 & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Output path (stdout if absent)."))

(* --- trace ------------------------------------------------------------------- *)

let trace_summarize file top =
  match Encore_obs.Summary.of_file ~top file with
  | Ok summary ->
      print_string (Encore_obs.Summary.to_string summary);
      0
  | Error msg ->
      prerr_endline ("trace summarize: " ^ msg);
      1

let trace_summarize_cmd =
  let doc = "Summarize a JSONL trace: per-stage time breakdown, slowest spans, \
             event counts." in
  Cmd.v (Cmd.info "summarize" ~doc)
    Term.(const trace_summarize
          $ Arg.(required & pos 0 (some string) None
                 & info [] ~docv:"FILE" ~doc:"JSONL trace written by --trace.")
          $ Arg.(value & opt int 10
                 & info [ "top" ] ~docv:"N"
                     ~doc:"How many of the slowest spans to list."))

let trace_cmd =
  let doc = "Inspect JSONL traces exported with --trace." in
  Cmd.group (Cmd.info "trace" ~doc) [ trace_summarize_cmd ]

(* Exit-code contract (documented in README): 0 = success, 1 = failure,
   2 = usage error (cmdliner's term_err), 3 = degraded or timed-out run.
   Each command term evaluates to its exit code. *)
let () =
  let doc = "EnCore misconfiguration detection (ASPLOS 2014 reproduction)" in
  let info = Cmd.info "encore-cli" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval' ~term_err:2
       (Cmd.group info
          [ generate_cmd; learn_cmd; check_cmd; inject_cmd; experiment_cmd;
            study_cmd; export_cmd; save_cmd; load_cmd; testgen_cmd; case_cmd;
            ablation_cmd; chaos_cmd; serve_cmd; top_cmd; trace_cmd ]))
