(** End-to-end EnCore pipeline (paper Figure 2): data collection and
    assembly, rule inference, anomaly detection — one facade over the
    substrate libraries, parameterized by {!Config}.

    Two learning entry points are exposed.  {!learn} is the historical
    strict path: it assumes a clean corpus and raises on a malformed
    customization file.  {!learn_resilient} is total: every fallible
    ingestion step reports through
    {!Encore_util.Resilience.diagnostic}, damaged images are
    quarantined instead of killing the run, and the returned
    {!ingest_report} accounts for every failure. *)

type model = Encore_detect.Detector.model

val learn_result :
  ?config:Config.t -> ?custom:string -> ?pool:Encore_util.Pool.t ->
  Encore_sysenv.Image.t list ->
  (model, Encore_util.Resilience.diagnostic) result
(** Learn a model from training images.  [custom] is the text of a
    customization file (paper Figure 6): its types are registered and
    its templates used in addition to the predefined ones.  A malformed
    customization file yields [Error] with kind [Custom_rule_error].

    Parallelism: with [pool], assembly and candidate-rule evaluation run
    on its worker domains.  Without [pool], a transient pool of
    [config.jobs] workers is used when [config.jobs > 1]; otherwise the
    pipeline is sequential.  The learned model is byte-identical in all
    cases. *)

val learn :
  ?config:Config.t -> ?custom:string -> ?pool:Encore_util.Pool.t ->
  Encore_sysenv.Image.t list -> model
(** Raising wrapper over {!learn_result}, kept for API compatibility.
    @raise Invalid_argument when the customization file is malformed. *)

(** {1 Mergeable sufficient-statistics learning}

    The incremental/sharded face of learning: statistics fold per image
    and merge associatively ({!Encore_rules.Suffstats}), a resident
    learner finalizes them into a model and extends in sublinear time.
    Every learning entry point, {!learn} and {!learn_resilient}
    included, is this fold + finalize, so all of them produce
    byte-identical models under the same {!Config}. *)

val stats_of_images :
  ?config:Config.t -> ?pool:Encore_util.Pool.t ->
  Encore_sysenv.Image.t list -> Encore_rules.Suffstats.t
(** Fold the corpus into sufficient statistics, one contiguous chunk
    per worker of the configured pool, recombined with an
    order-preserving merge reduction; the result is identical for
    every pool size. *)

val learner_result :
  ?config:Config.t -> ?custom:string -> ?pool:Encore_util.Pool.t ->
  ?mining_cap:int -> Encore_rules.Suffstats.t ->
  (Encore_rules.Suffstats.learner, Encore_util.Resilience.diagnostic) result
(** Finalize statistics into a resident learner under the configured
    thresholds (and optional customization file, as {!learn_result}).
    The learner's model matches {!learn_resilient}'s on the same
    corpus, mining-overflow bit included. *)

val learn_append :
  ?config:Config.t -> ?pool:Encore_util.Pool.t ->
  Encore_rules.Suffstats.learner -> Encore_sysenv.Image.t list ->
  Encore_rules.Suffstats.learner
(** Fold new images into a resident learner — sublinear in corpus size
    while type decisions hold (see {!Encore_rules.Suffstats.append});
    the refreshed model always equals a batch relearn over the grown
    corpus. *)

val model_of_learner : Encore_rules.Suffstats.learner -> model

val check :
  ?config:Config.t -> model -> Encore_sysenv.Image.t ->
  Encore_detect.Warning.t list
(** Ranked warnings for a target image. *)

val detections :
  ?config:Config.t -> model -> Encore_sysenv.Image.t ->
  Encore_detect.Warning.t list
(** Warnings at or above the configured detection score. *)

(** {1 Resilient ingestion} *)

type mode =
  | Keep_going  (** quarantine damaged images, train on the survivors *)
  | Fail_fast   (** surface the first fatal diagnostic as [Error] *)

type run_status =
  | Completed
  | Timed_out_at of Checkpoint.stage
      (** the deadline expired while this stage was running; stages
          before it completed (and were checkpointed when a checkpoint
          directory was given) *)

val run_status_to_string : run_status -> string

type ingest_report = {
  total : int;            (** images offered for training *)
  ok : int;               (** images that survived probing and parsing *)
  quarantined : (string * Encore_util.Resilience.diagnostic list) list;
      (** image id -> fatal diagnostics, in quarantine order *)
  retried : int;          (** probe retries performed across the run *)
  total_backoff_ms : int; (** virtual backoff accumulated by retries *)
  warnings : Encore_util.Resilience.diagnostic list;
      (** recoverable diagnostics: skipped config lines, dropped or
          truncated metadata records, mining overflow *)
  histogram : (Encore_util.Resilience.error_kind * int) list;
      (** every diagnostic of the run (fatal and recoverable) counted
          by kind; total = quarantine diagnostics + warnings *)
  mining_overflowed : bool;
  status : run_status;
}

val default_mining_cap : int

type outcome = {
  model : model option;
      (** [None] only when the run timed out before the model stage
          finished *)
  report : ingest_report;
  resumed : Checkpoint.stage list;
      (** stages restored from checkpoints instead of recomputed *)
  checkpointed : Checkpoint.stage list;
      (** stages persisted by this run *)
}

val learn_durable :
  ?config:Config.t ->
  ?custom:string ->
  ?mode:mode ->
  ?max_retries:int ->
  ?flaky:Encore_sysenv.Flaky.t ->
  ?mining_cap:int ->
  ?pool:Encore_util.Pool.t ->
  ?checkpoint:Checkpoint.t ->
  ?resume:Checkpoint.t ->
  ?deadline:Encore_util.Deadline.t ->
  ?kill_after:Checkpoint.stage ->
  Encore_sysenv.Image.t list ->
  (outcome, Encore_util.Resilience.diagnostic) result
(** {!learn_resilient} with durability.  The run proceeds in three
    stages — ingest, assemble (the statistics fold over the
    survivors), model (finalize, then the mining probe) — and:

    - with [checkpoint], persists each completed stage's artifact
      through the atomic snapshot writer;
    - with [resume], restores any stage whose checkpoint verifies and
      matches the run's fingerprint (population + parameters), skipping
      its computation.  Stale or damaged checkpoints are recomputed, so
      an interrupted-then-resumed run always produces a model
      byte-identical to an uninterrupted one;
    - with [deadline], polls the token at every stage boundary, before
      every probe, and (via {!Encore_util.Pool.with_deadline}) at every
      pooled work item.  Expiry is graceful: completed stages keep
      their checkpoints and the result is [Ok] with [model = None] and
      [report.status = Timed_out_at stage], plus a [Timed_out] warning
      diagnostic and a [deadline] event.

    [kill_after] is the chaos hook: it raises
    [Checkpoint.Simulated_crash] immediately after the given stage's
    checkpoint is written — the only exception this function lets
    escape. *)

val exit_code : (outcome, Encore_util.Resilience.diagnostic) result -> int
(** Process exit code for a durable run: [0] for a clean completed run,
    [3] for a degraded one (timed out, quarantined images or mining
    overflow), [1] for a failed one.  [2] is reserved for usage errors
    (set by the CLI's argument parser). *)

val learn_resilient :
  ?config:Config.t ->
  ?custom:string ->
  ?mode:mode ->
  ?max_retries:int ->
  ?flaky:Encore_sysenv.Flaky.t ->
  ?mining_cap:int ->
  ?pool:Encore_util.Pool.t ->
  Encore_sysenv.Image.t list ->
  (model * ingest_report, Encore_util.Resilience.diagnostic) result
(** Total learning path.  Each image is probed through [flaky] (default:
    a reliable simulator — only the image's own flakiness can fail it)
    with up to [max_retries] deterministic retries, then parsed through
    the diagnostic lens registry.  Images whose probe never succeeds or
    whose config payload is damaged are quarantined ([Keep_going],
    default) or returned as [Error] ([Fail_fast]).  The model is
    trained on the survivors; an FP-growth capacity probe (cap
    [mining_cap], default {!default_mining_cap}) sets the model's
    [overflowed] bit.  [Error] in keep-going mode only for a malformed
    customization file or a fully-quarantined population.  Never
    raises.

    Parallelism follows the same rule as {!learn_result}: an explicit
    [pool], else a transient pool of [config.jobs] workers.  Probing
    stays sequential (the flaky simulator's PRNG draw order defines
    reproducibility); parsing, assembly and rule inference fan out.
    The model and ingest report are byte-identical for any pool
    size. *)

val report_to_string : ingest_report -> string

(** {1 Fleet checking (the serving path)} *)

type fleet_image_report = {
  fi_image : string;                              (** image id *)
  fi_warnings : Encore_detect.Warning.t list;     (** ranked, best first *)
  fi_detections : int;
      (** warnings at or above the configured detection score *)
}

type fleet_status =
  | Fleet_completed
  | Fleet_timed_out
      (** the deadline expired; the report covers the prefix of the
          targets checked before expiry *)

val fleet_status_to_string : fleet_status -> string

type fleet_report = {
  fleet_total : int;            (** targets offered *)
  fleet_checked : int;          (** targets actually checked *)
  fleet_warning_count : int;
  fleet_detection_count : int;
  fleet_images : fleet_image_report list;  (** in target order *)
  fleet_status : fleet_status;
}

val fleet_image_line : fleet_image_report -> string
(** One image's report as a single JSON line:
    [{"image":…,"warnings":n,"detections":n,"items":[…]}] with each
    item's kind label, score, implicated attributes and message. *)

val check_fleet :
  ?config:Config.t ->
  ?pool:Encore_util.Pool.t ->
  ?deadline:Encore_util.Deadline.t ->
  ?stream:(string -> unit) ->
  model ->
  Encore_sysenv.Image.t list ->
  fleet_report
(** Check many target images against one model.  The model is compiled
    once ({!Encore_detect.Engine.compile}) and the compiled engine —
    immutable — is shared by every worker; each image is checked under
    its own [check] span.  Pool selection follows {!learn_result}: an
    explicit [pool], else a transient pool of [config.jobs] workers,
    else sequential.  Per-image reports come back in target order and
    the rendered output is byte-identical for any pool size.

    [stream] receives each completed image's {!fleet_image_line} in
    target order, as soon as its batch completes — a JSONL sink for
    fleets too large to hold a report in memory.

    With [deadline], expiry is graceful: checking stops at a batch
    boundary (per image when sequential), the report covers the
    completed prefix with [fleet_status = Fleet_timed_out], and a
    [deadline] event is emitted.  A [fleet_report] event plus the
    [fleet.images_checked] / [fleet.warnings] counters account for
    every run. *)

val fleet_exit_code : fleet_report -> int
(** [0] for a completed run, [3] for a timed-out (degraded) one —
    the same contract as {!exit_code}; [1]/[2] remain load-failure and
    usage errors, set by the CLI. *)

val fleet_report_to_string : fleet_report -> string

type degraded_check = {
  result : Encore_detect.Warning.t list;
  notes : string list;  (** degradations that limit detection coverage *)
}

val check_degraded :
  ?config:Config.t -> ?report:ingest_report -> model ->
  Encore_sysenv.Image.t -> degraded_check
(** {!check}, annotated with what the model {e cannot} see: mining
    overflow, quarantined training images, failed custom lenses, and
    predefined template classes for which no rule survived learning. *)
