(* Tests for the mergeable sufficient-statistics learner: merge
   algebra laws, shard/append byte-identity against the batch path,
   and envelope persistence. *)

module Suffstats = Encore_rules.Suffstats
module Detector = Encore_detect.Detector
module Model_io = Encore_detect.Model_io
module Pipeline = Encore.Pipeline
module Stats_io = Encore.Stats_io
module Config = Encore.Config
module Synthfleet = Encore_workloads.Synthfleet
module Image = Encore_sysenv.Image
module Fs = Encore_sysenv.Fs
module Accounts = Encore_sysenv.Accounts

let check = Alcotest.check

let fleet = Synthfleet.generate ~seed:7 ~n:60 ()

(* The synthetic fleet's attribute universe makes the mining probe the
   dominant cost at the default cap; a small cap keeps every finalize
   cheap and still exercises the overflow bit (it overflows here). *)
let mining_cap = 2_000

let payload t = Suffstats.to_payload t

let model_string learner =
  Model_io.to_string (Detector.model_of_finalized (Suffstats.current learner))

(* The batch oracle with the mining probe, as [learn_resilient] runs
   it over a clean corpus: an independent construction, so the
   learner is never compared with itself. *)
let batch_model_string images =
  Model_io.to_string (Batch_oracle.learn ~mining_cap images)

(* finalize under the default parameters, then the probe *)
let learner_of_stats t = Suffstats.learner_of t |> Suffstats.probe ~mining_cap

(* cut a list at ascending positions *)
let split_at cuts xs =
  let rec go acc cur i cuts = function
    | [] -> List.rev (List.rev cur :: acc)
    | x :: rest -> (
        match cuts with
        | c :: cuts' when i = c ->
            go (List.rev cur :: acc) [ x ] (i + 1) cuts' rest
        | _ -> go acc (x :: cur) (i + 1) cuts rest)
  in
  go [] [] 0 (List.sort_uniq compare cuts) xs

(* --- merge algebra --------------------------------------------------------- *)

let test_merge_unit () =
  let t = Suffstats.of_images (List.filteri (fun i _ -> i < 10) fleet) in
  check Alcotest.string "left unit" (payload t)
    (payload (Suffstats.merge Suffstats.empty t));
  check Alcotest.string "right unit" (payload t)
    (payload (Suffstats.merge t Suffstats.empty))

let qcheck_associative =
  QCheck.Test.make ~name:"suffstats merge is associative" ~count:30
    QCheck.(pair (int_bound 59) (int_bound 59))
    (fun (i, j) ->
      let i, j = (min i j, max i j) in
      match split_at [ i; j ] fleet with
      | [ xs; ys; zs ] | [ xs; ys; zs; _ ] ->
          let a = Suffstats.of_images xs
          and b = Suffstats.of_images ys
          and c = Suffstats.of_images zs in
          payload (Suffstats.merge (Suffstats.merge a b) c)
          = payload (Suffstats.merge a (Suffstats.merge b c))
      | parts ->
          (* split_at yields 1-3 parts for degenerate cuts; folding is
             then trivially associative *)
          List.length parts <= 3)

let qcheck_partition_invariant =
  QCheck.Test.make
    ~name:"any corpus partition merges to the sequential fold" ~count:30
    QCheck.(list_of_size (Gen.int_range 0 6) (int_bound 59))
    (fun cuts ->
      let parts = split_at cuts fleet in
      let merged =
        List.fold_left Suffstats.merge Suffstats.empty
          (List.map Suffstats.of_images parts)
      in
      payload merged = payload (Suffstats.of_images fleet))

(* --- shard-merge learning -------------------------------------------------- *)

let test_sharded_stats_identity () =
  let seq = Suffstats.of_images fleet in
  List.iter
    (fun jobs ->
      let config = { Config.default with Config.jobs } in
      let sharded = Pipeline.stats_of_images ~config fleet in
      check Alcotest.string
        (Printf.sprintf "jobs=%d (one shard per worker) equals sequential" jobs)
        (payload seq) (payload sharded))
    [ 1; 3; 4 ]

let test_finalize_matches_batch () =
  check Alcotest.string "unprobed finalize equals the batch oracle"
    (Model_io.to_string (Batch_oracle.learn fleet))
    (Model_io.to_string (Detector.learn fleet));
  let expected = batch_model_string fleet in
  List.iter
    (fun jobs ->
      let config = { Config.default with Config.jobs } in
      match
        Pipeline.learner_result ~config ~mining_cap
          (Pipeline.stats_of_images ~config fleet)
      with
      | Error d -> Alcotest.failf "learner_result: %s" d.Encore_util.Resilience.detail
      | Ok learner ->
          check Alcotest.string
            (Printf.sprintf "jobs=%d model equals batch" jobs)
            expected
            (Model_io.to_string (Pipeline.model_of_learner learner)))
    [ 1; 4 ]

(* --- incremental append ---------------------------------------------------- *)

let learner_of_images images = learner_of_stats (Suffstats.of_images images)

let test_append_matches_batch () =
  match split_at [ 40; 50 ] fleet with
  | [ base; mid; tail ] ->
      let one_shot = learner_of_images fleet in
      let appended =
        Suffstats.append (Suffstats.append (learner_of_images base) mid) tail
      in
      check Alcotest.string "appended model equals one-shot learner"
        (model_string one_shot) (model_string appended);
      check Alcotest.string "appended model equals batch pipeline"
        (batch_model_string fleet) (model_string appended);
      check Alcotest.string "appended stats equal the full fold"
        (payload (Suffstats.of_images fleet))
        (payload (Suffstats.stats appended))
  | _ -> Alcotest.fail "bad split"

let test_append_empty_is_noop () =
  let l = learner_of_images (List.filteri (fun i _ -> i < 15) fleet) in
  check Alcotest.string "append [] keeps the model" (model_string l)
    (model_string (Suffstats.append l []))

(* A corpus whose type decision flips when new evidence arrives: [port]
   verifies as Number over the base corpus, then a textual value
   degrades it to String — the resident learner must fall back to a
   full rebuild and still match the batch path. *)
let tiny_image id entries =
  let fs = Fs.add_dir ~owner:"mysql" ~group:"mysql" Fs.empty "/var/lib/mysql" in
  let accounts = Accounts.add_service_account Accounts.base "mysql" in
  let text =
    "[mysqld]\n"
    ^ String.concat "" (List.map (fun (k, v) -> k ^ " = " ^ v ^ "\n") entries)
  in
  Image.make ~id ~fs ~accounts
    [ { Image.app = Image.Mysql; path = "/etc/my.cnf"; text } ]

let test_append_type_shift_rebuilds () =
  let base =
    List.init 12 (fun i ->
        tiny_image
          (Printf.sprintf "base-%d" i)
          [ ("port", string_of_int (3306 + (i mod 2)));
            ("datadir", "/var/lib/mysql") ])
  in
  let shift =
    [ tiny_image "shift-0" [ ("port", "auto"); ("new_knob", "on") ] ]
  in
  let appended = Suffstats.append (learner_of_images base) shift in
  check Alcotest.string "type-shifting append equals one-shot"
    (model_string (learner_of_images (base @ shift)))
    (model_string appended);
  check Alcotest.string "type-shifting append equals batch pipeline"
    (batch_model_string (base @ shift))
    (model_string appended)

let qcheck_append_split_invariant =
  let one_shot = lazy (model_string (learner_of_images fleet)) in
  QCheck.Test.make
    ~name:"learn_append over any split equals one-shot" ~count:8
    QCheck.(int_bound 59)
    (fun cut ->
      match split_at [ cut ] fleet with
      | [ base; rest ] ->
          model_string (Suffstats.append (learner_of_images base) rest)
          = Lazy.force one_shot
      | [ _ ] -> true (* cut at 0: nothing to split *)
      | _ -> false)

(* --- persistence ----------------------------------------------------------- *)

let fresh_dir () =
  let path = Filename.temp_file "encore-suffstats" "" in
  Sys.remove path;
  path

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

let test_payload_roundtrip () =
  let t = Suffstats.of_images (List.filteri (fun i _ -> i < 25) fleet) in
  match Suffstats.of_payload (Suffstats.to_payload t) with
  | Error e -> Alcotest.failf "of_payload: %s" e
  | Ok t' ->
      check Alcotest.string "payload round-trips" (payload t) (payload t');
      check Alcotest.int "image count survives" (Suffstats.n_images t)
        (Suffstats.n_images t')

let test_store_roundtrip () =
  let dir = fresh_dir () in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let store = Stats_io.Store.create ~dir () in
      let t = Suffstats.of_images (List.filteri (fun i _ -> i < 20) fleet) in
      let (_ : string) = Stats_io.Store.save store t in
      match Stats_io.Store.load_latest store with
      | Error e -> Alcotest.fail (Stats_io.load_error_to_string e)
      | Ok (t', _) ->
          check Alcotest.string "store round-trips" (payload t) (payload t');
          (* the reloaded statistics finalize to the same model *)
          check Alcotest.string "reloaded stats finalize identically"
            (model_string (learner_of_stats t))
            (model_string (learner_of_stats t')))

let test_envelope_rejects_foreign_schema () =
  let path = Filename.temp_file "encore-suffstats" ".snap" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Encore_util.Snapshot.write_atomic ~kind:Stats_io.snapshot_kind path
        (Encore_util.Snapshot.frame ~schema:"ENCORE-SUFFSTATS 99" "images 0\n@stats\n");
      match Stats_io.load path with
      | Error (Encore_util.Snapshot.Version_mismatch _) -> ()
      | Error e -> Alcotest.failf "unexpected error: %s" (Stats_io.load_error_to_string e)
      | Ok _ -> Alcotest.fail "future schema must not load")

let qcheck cases = List.map (QCheck_alcotest.to_alcotest ~long:false) cases

let () =
  Alcotest.run "suffstats"
    [
      ( "merge-algebra",
        [
          Alcotest.test_case "merge unit" `Quick test_merge_unit;
        ]
        @ qcheck [ qcheck_associative; qcheck_partition_invariant ] );
      ( "shard-merge",
        [
          Alcotest.test_case "sharded stats identity" `Quick
            test_sharded_stats_identity;
          Alcotest.test_case "finalize matches batch" `Slow
            test_finalize_matches_batch;
        ] );
      ( "append",
        [
          Alcotest.test_case "append matches batch" `Slow
            test_append_matches_batch;
          Alcotest.test_case "append [] is a no-op" `Quick
            test_append_empty_is_noop;
          Alcotest.test_case "type shift forces rebuild" `Quick
            test_append_type_shift_rebuilds;
        ]
        @ qcheck [ qcheck_append_split_invariant ] );
      ( "persistence",
        [
          Alcotest.test_case "payload round-trip" `Quick test_payload_roundtrip;
          Alcotest.test_case "store round-trip" `Quick test_store_roundtrip;
          Alcotest.test_case "foreign schema rejected" `Quick
            test_envelope_rejects_foreign_schema;
        ] );
    ]
