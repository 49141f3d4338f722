(** Mergeable sufficient statistics: the one learner.

    What this module keeps is the retained corpus — every training
    image with its parsed raw row — plus per-attribute typing tallies
    and bounded distinct-value sets.  Only the tallies are summaries
    whose size is independent of the corpus; the rules' redundancy and
    entropy filters and the value statistics need the rows themselves.
    The algebra is

    {[ empty   add_image   merge   finalize ]}

    where [merge] is associative and [add_image t img = merge t
    (add_image empty img)], so partitioning a corpus arbitrarily,
    folding each part and merging in corpus order yields the statistics
    of one sequential fold.  Finalizing ({!learner_of}) is the only way
    a model is built: batch learning is fold + finalize, and the
    mining-overflow diagnostic is one separate step ({!probe}).

    On top of the algebra sits a resident {!learner} that keeps the
    derived caches (columnar view, bitset overlay, per-candidate
    counts, and once probed the mining transactions) alive so {!append}
    folds new images in sublinear time: only appended rows are scanned
    unless a type decision shifts, in which case it transparently falls
    back to a full rebuild — the result is identical either way. *)

type t
(** Sufficient statistics over a multiset of system images: the images
    themselves with their parsed rows, in corpus order, plus
    per-attribute typing tallies. *)

val empty : t
val add_image : t -> Encore_sysenv.Image.t -> t

val merge : t -> t -> t
(** Associative; [merge empty t = merge t empty = t].  Corpus order is
    left-then-right, so a deterministic left-to-right reduction over
    corpus-ordered shards equals the sequential fold. *)

val of_images : ?pool:Encore_util.Pool.t -> Encore_sysenv.Image.t list -> t
(** Fold the corpus (span [stats-fold]), partitioned into one
    contiguous chunk per pool worker so parsing fans out, and
    recombined with an order-preserving [merge] reduction.  Identical
    result for every pool size. *)

val n_images : t -> int
val images : t -> Encore_sysenv.Image.t list
(** Corpus order. *)

(** The finalized model quantities, structurally what
    [Detector.model] carries (duplicated here because [detect]
    depends on [rules], not the reverse). *)
type finalized = {
  f_types : Encore_typing.Infer.env;
  f_rules : Template.rule list;
  f_value_stats : (string * string list) list;
  f_known_attrs : string list;
  f_training_count : int;
  f_overflowed : bool;
      (** {!probe} hit its itemset cap; [false] until it runs *)
}

type learner
(** Resident finalized state: the model plus the caches needed to
    extend it incrementally. *)

val learner_of :
  ?pool:Encore_util.Pool.t ->
  ?params:Infer.params ->
  ?templates:Template.t list ->
  ?entropy_threshold:float ->
  t -> learner
(** Finalize: assemble the corpus under the tallied type decisions,
    judge every candidate through the counts engine, filter, and
    collect the value statistics, under the [assemble], [rule-infer],
    [rule-filter] and [value-stats] spans.  No mining probe runs, so
    [f_overflowed] is [false]. *)

val probe :
  ?pool:Encore_util.Pool.t -> mining_cap:int -> learner -> learner
(** The mining capacity probe (span [mining-probe], with [discretize]
    and [fpgrowth] inside): discretize the assembled rows into
    transactions and count frequent itemsets at the learner's
    [min_support_frac] of the corpus until [mining_cap]; sets
    [f_overflowed].  The learner keeps the transactions, and from then
    on {!append} maintains them and re-probes. *)

val append :
  ?pool:Encore_util.Pool.t ->
  learner -> Encore_sysenv.Image.t list -> learner
(** Fold new images into the statistics and refresh the model.  When
    every previously-decided raw column keeps its type, only the new
    rows are assembled and scanned (candidate counts extend by their
    row-range delta, mining transactions append); otherwise the
    learner rebuilds from the merged statistics.  In both cases the
    result equals finalizing [fold add_image stats images] (and
    probing it, when the learner was probed), with one amortization:
    the mining overflow probe — the lone diagnostic that cannot be
    maintained incrementally — re-runs only once the corpus has grown
    at least 1 % past its last probed size, so [f_overflowed] can lag
    by up to that much growth on very large corpora (appends into
    small corpora always re-probe). *)

val stats : learner -> t
val current : learner -> finalized

(** {2 Versioned persistence payload}

    Line-oriented text: the corpus as byte-framed
    {!Encore_sysenv.Collector} image dumps, then the per-column
    tallies.  Raw rows are re-derived by parsing on load (parsing is
    deterministic), so the payload never stores derived state.  Framed
    by {!payload_schema} at the snapshot layer. *)

val payload_schema : string
(** ["ENCORE-SUFFSTATS 1"]. *)

val to_payload : t -> string

val of_payload : string -> (t, string) result
(** Total inverse of {!to_payload}. *)
