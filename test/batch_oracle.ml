(* The batch model builder, kept as a test oracle.

   This is how models were built before every learner went through
   sufficient statistics: assemble the whole training table
   ([Assemble.assemble_training]), infer rules with the batch judge
   ([Rinfer.infer]), filter, collect value statistics with a hashtable
   walk, and probe mining capacity by discretizing the assembled table.
   It shares no finalize code with [Suffstats], so comparing the two
   byte for byte checks the learner against an independent
   construction rather than against itself.  Default configuration
   throughout. *)

module Row = Encore_dataset.Row
module Assemble = Encore_dataset.Assemble
module Rinfer = Encore_rules.Infer
module Filters = Encore_rules.Filters
module Detector = Encore_detect.Detector
module Config = Encore.Config

let config = Config.default

let model_of_training ~types training =
  let view = Encore_dataset.Colview.of_rows (List.map snd training) in
  let inferred =
    Rinfer.infer ~params:(Config.rule_params config) ~view ~types training
  in
  let kept, _dropped =
    Filters.entropy_filter ~threshold:config.Config.entropy_threshold ~view
      training
      (Filters.reduce_redundant inferred)
  in
  let attr_order = ref [] in
  let seen = Hashtbl.create 256 in
  let values = Hashtbl.create 256 in
  List.iter
    (fun (_, row) ->
      List.iter
        (fun (attr, v) ->
          if not (Hashtbl.mem seen attr) then begin
            Hashtbl.add seen attr ();
            attr_order := attr :: !attr_order
          end;
          Hashtbl.add values attr v)
        (Row.to_list row))
    training;
  let known_attrs = List.rev !attr_order in
  {
    Detector.types;
    rules = kept;
    value_stats =
      List.map
        (fun attr ->
          (attr, Encore_util.Stats.distinct (Hashtbl.find_all values attr)))
        known_attrs;
    known_attrs;
    training_count = List.length training;
    overflowed = false;
  }

(* The counting miner over the discretized assembled table: the
   overflow bit the resilient pipeline reports. *)
let mining_overflowed ~mining_cap table =
  let transactions, _dict = Encore_dataset.Discretize.transactions table in
  let n_tx = Array.length transactions in
  n_tx > 0
  &&
  let min_support =
    max 2
      (int_of_float
         (ceil (config.Config.min_support_frac *. float_of_int n_tx)))
  in
  snd
    (Encore_mining.Fpgrowth.count_only ~max_itemsets:mining_cap ~min_support
       transactions)

(* [Pipeline.learn] over [images]; with [mining_cap], the model
   carries the probe's overflow bit, as [Pipeline.learn_resilient]
   learns it from a clean corpus. *)
let learn ?mining_cap images =
  let assembled = Assemble.assemble_training images in
  let training =
    List.map2
      (fun img (_, row) -> (img, row))
      images
      (Encore_dataset.Table.rows assembled.Assemble.table)
  in
  let model = model_of_training ~types:assembled.Assemble.types training in
  match mining_cap with
  | None -> model
  | Some mining_cap ->
      { model with
        Detector.overflowed =
          mining_overflowed ~mining_cap assembled.Assemble.table }
