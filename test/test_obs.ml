(* Tests for the observability layer (lib/obs): span nesting and
   ordering — including under exceptions — histogram bucket
   boundaries, the JSONL encoder's escaping, nil-sink no-op cost
   paths, event-log emission, trace summarization and snapshot
   determinism of the metric registry under a seeded workload. *)

module Clock = Encore_obs.Clock
module Jsonenc = Encore_obs.Jsonenc
module Metrics = Encore_obs.Metrics
module Window = Encore_obs.Window
module Sampler = Encore_obs.Sampler
module Trace = Encore_obs.Trace
module Events = Encore_obs.Events
module Summary = Encore_obs.Summary
module Image = Encore_sysenv.Image
module Profile = Encore_workloads.Profile
module Population = Encore_workloads.Population

let check = Alcotest.check

(* Every test that touches the global sinks/registry restores a clean
   slate so suites stay order-independent. *)
let pristine f () =
  Fun.protect
    ~finally:(fun () ->
      Trace.set_sink Trace.Nil;
      Trace.clear ();
      Events.set_sink Events.Nil;
      Metrics.reset ();
      Clock.set_source Clock.default)
    f

(* --- clock ---------------------------------------------------------------- *)

let test_clock_counter () =
  let src = Clock.counter ~start:100L ~step_ns:10L () in
  check Alcotest.int64 "first" 100L (src ());
  check Alcotest.int64 "second" 110L (src ());
  Clock.with_source (Clock.counter ~step_ns:5L ()) (fun () ->
      check Alcotest.int64 "installed source" 0L (Clock.now_ns ());
      check Alcotest.int64 "advances" 5L (Clock.now_ns ()))

let test_clock_monotonic_clamp () =
  let values = ref [ 50L; 30L; 70L ] in
  let src () =
    match !values with
    | v :: rest ->
        values := rest;
        v
    | [] -> 99L
  in
  Clock.with_source src (fun () ->
      check Alcotest.int64 "initial" 50L (Clock.now_ns ());
      check Alcotest.int64 "backwards step clamped" 50L (Clock.now_ns ());
      check Alcotest.int64 "resumes" 70L (Clock.now_ns ()))

(* --- json encoder --------------------------------------------------------- *)

let roundtrip v =
  match Jsonenc.of_string (Jsonenc.to_string v) with
  | Ok v' -> v'
  | Error e -> Alcotest.failf "roundtrip parse failed: %s" e

let test_json_escaping () =
  check Alcotest.string "quotes and backslash" {|"a\"b\\c"|}
    (Jsonenc.to_string (Jsonenc.Str {|a"b\c|}));
  check Alcotest.string "newline tab cr" {|"a\nb\tc\rd"|}
    (Jsonenc.to_string (Jsonenc.Str "a\nb\tc\rd"));
  check Alcotest.string "control char" {|"x\u0001y"|}
    (Jsonenc.to_string (Jsonenc.Str "x\x01y"));
  (* UTF-8 bytes above 0x7f pass through unescaped *)
  check Alcotest.string "non-ascii passthrough" "\"caf\xc3\xa9\""
    (Jsonenc.to_string (Jsonenc.Str "caf\xc3\xa9"))

let test_json_roundtrip () =
  let v =
    Jsonenc.Obj
      [
        ("s", Jsonenc.Str "he said \"hi\"\n\x02\xe2\x82\xac");
        ("n", Jsonenc.Int (-42));
        ("f", Jsonenc.Float 1.5);
        ("b", Jsonenc.Bool true);
        ("z", Jsonenc.Null);
        ("a", Jsonenc.Arr [ Jsonenc.Int 1; Jsonenc.Str "x" ]);
      ]
  in
  check Alcotest.bool "object round-trips" true (roundtrip v = v);
  (* decoder expands \uXXXX — including surrogate pairs — to UTF-8 *)
  (match Jsonenc.of_string {|"€😀"|} with
  | Ok (Jsonenc.Str s) ->
      check Alcotest.string "unicode escapes decode to UTF-8"
        "\xe2\x82\xac\xf0\x9f\x98\x80" s
  | Ok _ | Error _ -> Alcotest.fail "unicode escape decode failed");
  match Jsonenc.of_string "{\"a\":1} trailing" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "trailing garbage must be rejected"

let test_json_nonfinite () =
  check Alcotest.string "nan is null" "null"
    (Jsonenc.to_string (Jsonenc.Float Float.nan));
  check Alcotest.string "inf is null" "null"
    (Jsonenc.to_string (Jsonenc.Float Float.infinity))

(* --- metrics -------------------------------------------------------------- *)

let test_histogram_buckets () =
  check Alcotest.int "0.5 -> bucket 0" 0 (Metrics.bucket_of_value 0.5);
  check Alcotest.int "1.0 -> bucket 1" 1 (Metrics.bucket_of_value 1.0);
  check Alcotest.int "1.99 -> bucket 1" 1 (Metrics.bucket_of_value 1.99);
  check Alcotest.int "2.0 -> bucket 2" 2 (Metrics.bucket_of_value 2.0);
  check Alcotest.int "4.0 -> bucket 3" 3 (Metrics.bucket_of_value 4.0);
  check Alcotest.int "huge -> bucket 63" 63 (Metrics.bucket_of_value 1e300);
  let lo, hi = Metrics.bucket_bounds 3 in
  check (Alcotest.float 0.0) "bucket 3 lower" 4.0 lo;
  check (Alcotest.float 0.0) "bucket 3 upper" 8.0 hi;
  (* boundaries land in the bucket whose inclusive lower bound they are *)
  List.iter
    (fun b ->
      let lo, _ = Metrics.bucket_bounds b in
      check Alcotest.int
        (Printf.sprintf "lower bound of bucket %d" b)
        b
        (Metrics.bucket_of_value lo))
    [ 1; 2; 3; 10; 30; 62 ]

let test_metrics_registry () =
  let c = Metrics.counter "test.counter" in
  Metrics.incr c;
  Metrics.incr ~by:4 c;
  check Alcotest.int "counter" 5 (Metrics.count c);
  let g = Metrics.gauge "test.gauge" in
  Metrics.set g 2.0;
  Metrics.set_max g 1.0;
  Metrics.set_max g 7.0;
  let h = Metrics.histogram "test.hist" in
  Metrics.observe h 3.0;
  Metrics.observe h 3.5;
  let s = Metrics.snapshot () in
  check
    Alcotest.(list (pair string int))
    "counters" [ ("test.counter", 5) ] s.Metrics.counters;
  check
    Alcotest.(list (pair string (float 0.0)))
    "gauges keeps max" [ ("test.gauge", 7.0) ] s.Metrics.gauges;
  (match s.Metrics.histograms with
  | [ ("test.hist", hv) ] ->
      check Alcotest.int "hist count" 2 hv.Metrics.hv_count;
      check (Alcotest.float 1e-9) "hist sum" 6.5 hv.Metrics.hv_sum;
      check
        Alcotest.(list (pair int int))
        "hist buckets" [ (2, 2) ] hv.Metrics.hv_buckets
  | _ -> Alcotest.fail "expected exactly test.hist");
  (match
     try
       ignore (Metrics.gauge "test.counter");
       None
     with Invalid_argument m -> Some m
   with
  | Some _ -> ()
  | None -> Alcotest.fail "kind clash must raise");
  Metrics.reset ();
  check Alcotest.int "reset zeroes handles in place" 0 (Metrics.count c);
  let s = Metrics.snapshot () in
  check Alcotest.int "snapshot omits untouched instruments" 0
    (List.length s.Metrics.counters + List.length s.Metrics.gauges
   + List.length s.Metrics.histograms)

let test_bucket_edge_cases () =
  check Alcotest.int "zero" 0 (Metrics.bucket_of_value 0.0);
  check Alcotest.int "negative zero" 0 (Metrics.bucket_of_value (-0.0));
  check Alcotest.int "negative" 0 (Metrics.bucket_of_value (-1.0));
  check Alcotest.int "very negative" 0 (Metrics.bucket_of_value (-1e300));
  check Alcotest.int "neg infinity" 0 (Metrics.bucket_of_value neg_infinity);
  check Alcotest.int "nan" 0 (Metrics.bucket_of_value Float.nan);
  check Alcotest.int "subnormal" 0
    (Metrics.bucket_of_value (Float.min_float /. 2.0));
  check Alcotest.int "infinity" (Metrics.n_buckets - 1)
    (Metrics.bucket_of_value infinity);
  check Alcotest.int "2^62" (Metrics.n_buckets - 1)
    (Metrics.bucket_of_value (Float.ldexp 1.0 62));
  check Alcotest.int "max float" (Metrics.n_buckets - 1)
    (Metrics.bucket_of_value Float.max_float)

(* property: any value inside [bucket_bounds b) maps back to bucket b.
   For 1 <= b <= 62 the bounds are [2^(b-1), 2^b), so lo *. (1 +. f)
   with f in [0, 1) covers the whole bucket without ever rounding onto
   the upper edge (lo is a power of two: the scaling is exact). *)
let prop_bucket_bounds_roundtrip =
  QCheck.Test.make ~name:"bucket_bounds/bucket_of_value roundtrip" ~count:500
    (QCheck.make
       QCheck.Gen.(
         pair (int_range 1 (Metrics.n_buckets - 2))
           (float_bound_exclusive 1.0)))
    (fun (b, f) ->
      let lo, hi = Metrics.bucket_bounds b in
      let v = lo *. (1.0 +. f) in
      v >= lo && v < hi && Metrics.bucket_of_value v = b)

let prop_bucket_zero_absorbs =
  QCheck.Test.make ~name:"bucket 0 absorbs everything below 1" ~count:500
    (QCheck.make QCheck.Gen.(float_range (-1e9) 1.0))
    (fun v -> v >= 1.0 || Metrics.bucket_of_value v = 0)

let test_snapshot_to_prom () =
  let c = Metrics.counter (Metrics.labeled "detect.rule_fired" [ ("rule", "a->b") ]) in
  Metrics.incr ~by:3 c;
  let c2 =
    Metrics.counter (Metrics.labeled "detect.rule_fired" [ ("rule", "x\"y") ])
  in
  Metrics.incr c2;
  let g = Metrics.gauge "serve.sampled.breaker" in
  Metrics.set g 2.0;
  let h = Metrics.histogram "serve.request_us" in
  Metrics.observe h 3.0;
  Metrics.observe h 5.0;
  Metrics.observe h 5.0;
  check Alcotest.string "prometheus text"
    "# TYPE detect_rule_fired counter\n\
     detect_rule_fired{rule=\"a->b\"} 3\n\
     detect_rule_fired{rule=\"x\\\"y\"} 1\n\
     # TYPE serve_sampled_breaker gauge\n\
     serve_sampled_breaker 2\n\
     # TYPE serve_request_us histogram\n\
     serve_request_us_bucket{le=\"4\"} 1\n\
     serve_request_us_bucket{le=\"8\"} 3\n\
     serve_request_us_bucket{le=\"+Inf\"} 3\n\
     serve_request_us_sum 13\n\
     serve_request_us_count 3\n"
    (Metrics.snapshot_to_prom (Metrics.snapshot ()))

let test_labeled_names () =
  (* keys are sorted so the same label set always yields the same
     registry name, and values are escaped at construction *)
  check Alcotest.string "sorted keys" "m{a=\"1\",b=\"2\"}"
    (Metrics.labeled "m" [ ("b", "2"); ("a", "1") ]);
  check Alcotest.string "no labels" "m" (Metrics.labeled "m" []);
  check Alcotest.string "escaped value" "m{k=\"a\\\\b\\n\"}"
    (Metrics.labeled "m" [ ("k", "a\\b\n") ])

(* --- window --------------------------------------------------------------- *)

let test_window_quantiles () =
  let now = ref 0L in
  Clock.with_source (fun () -> !now) @@ fun () ->
  let w = Window.create ~intervals:4 ~interval_ns:1_000L () in
  for v = 1 to 100 do
    Window.observe w (float_of_int v)
  done;
  let v = Window.view w in
  check Alcotest.int "count" 100 v.Window.w_count;
  check (Alcotest.float 1e-9) "sum" 5050.0 v.Window.w_sum;
  check (Alcotest.float 1e-9) "max" 100.0 v.Window.w_max;
  (* values 1..100: rank 50 lands in bucket [32, 64) after 31 smaller
     observations -> 32 + (50-31)/32 * 32 = 51 exactly *)
  check (Alcotest.float 1e-9) "interpolated p50" 51.0 v.Window.w_p50;
  check Alcotest.bool "quantiles ordered" true
    (v.Window.w_p50 <= v.Window.w_p90 && v.Window.w_p90 <= v.Window.w_p99);
  check Alcotest.bool "estimates clamped to observed max" true
    (v.Window.w_p99 <= v.Window.w_max);
  check (Alcotest.float 1e-3) "rate = count / window span"
    (float_of_int v.Window.w_count /. v.Window.w_window_s)
    v.Window.w_rate

let test_window_expiry () =
  let now = ref 0L in
  Clock.with_source (fun () -> !now) @@ fun () ->
  let w = Window.create ~intervals:3 ~interval_ns:100L () in
  Window.observe w 10.0 (* interval 0 *);
  now := 150L;
  Window.observe w 20.0 (* interval 1 *);
  now := 250L;
  Window.observe w 30.0 (* interval 2 *);
  let v = Window.view w in
  check Alcotest.int "all three inside the window" 3 v.Window.w_count;
  check (Alcotest.float 1e-9) "merged max" 30.0 v.Window.w_max;
  now := 350L;
  let v = Window.view w in
  check Alcotest.int "oldest interval aged out" 2 v.Window.w_count;
  check (Alcotest.float 1e-9) "expired value gone from sum" 50.0 v.Window.w_sum;
  now := 10_000L;
  let v = Window.view w in
  check Alcotest.int "fully idle window is empty" 0 v.Window.w_count;
  check (Alcotest.float 1e-9) "empty window p99 is 0" 0.0 v.Window.w_p99;
  (* a stale slot is recycled in place by the next observation *)
  Window.observe w 5.0;
  let v = Window.view w in
  check Alcotest.int "recycled slot counts once" 1 v.Window.w_count;
  check (Alcotest.float 1e-9) "single value p99 clamps to it" 5.0
    v.Window.w_p99

let test_window_export () =
  let now = ref 0L in
  Clock.with_source (fun () -> !now) @@ fun () ->
  let w = Window.create ~intervals:2 ~interval_ns:1_000L () in
  Window.observe w 7.0;
  Window.export (Window.view w) ~prefix:"test.win";
  let s = Metrics.snapshot () in
  check
    (Alcotest.option (Alcotest.float 1e-9))
    "count gauge" (Some 1.0)
    (List.assoc_opt "test.win.count" s.Metrics.gauges);
  check
    (Alcotest.option (Alcotest.float 1e-9))
    "max gauge" (Some 7.0)
    (List.assoc_opt "test.win.max" s.Metrics.gauges);
  check Alcotest.bool "p99 gauge exported" true
    (List.mem_assoc "test.win.p99" s.Metrics.gauges)

(* --- sampler -------------------------------------------------------------- *)

let test_sampler_poll_cadence () =
  let now = ref 0L in
  Clock.with_source (fun () -> !now) @@ fun () ->
  let depth = ref 4.0 in
  let s =
    Sampler.create ~interval_ns:100L
      ~gauges:(fun () -> [ ("test.sampled.depth", !depth) ])
      ()
  in
  check Alcotest.bool "first poll always samples" true (Sampler.poll s);
  check Alcotest.bool "cadence not yet elapsed" false (Sampler.poll s);
  now := 99L;
  check Alcotest.bool "one ns short" false (Sampler.poll s);
  now := 100L;
  depth := 9.0;
  check Alcotest.bool "cadence elapsed" true (Sampler.poll s);
  check Alcotest.int "two captures" 2 (Sampler.samples s);
  let snap = Metrics.snapshot () in
  List.iter
    (fun name ->
      check Alcotest.bool (name ^ " gauge present") true
        (List.mem_assoc name snap.Metrics.gauges))
    [
      "runtime.gc.minor_collections";
      "runtime.gc.major_collections";
      "runtime.gc.compactions";
      "runtime.gc.heap_words";
      "runtime.gc.minor_words";
    ];
  check
    (Alcotest.option (Alcotest.float 1e-9))
    "caller gauge tracks the latest capture" (Some 9.0)
    (List.assoc_opt "test.sampled.depth" snap.Metrics.gauges)

(* --- trace ---------------------------------------------------------------- *)

let span_names spans = List.map (fun (s : Trace.span) -> s.Trace.name) spans

let test_nil_sink_noop () =
  let ran = ref false in
  let out = Trace.with_span "outer" (fun () -> ran := true; 41 + 1) in
  check Alcotest.bool "function ran" true !ran;
  check Alcotest.int "result returned" 42 out;
  check Alcotest.int "no roots collected" 0 (List.length (Trace.roots ()));
  let s = Metrics.snapshot () in
  check Alcotest.bool "no span histograms under nil sink" true
    (not
       (List.exists
          (fun (n, _) -> String.length n >= 8 && String.sub n 0 8 = "span_us.")
          s.Metrics.histograms))

let test_span_nesting () =
  Trace.set_sink Trace.Memory;
  Clock.with_source (Clock.counter ~step_ns:100L ()) (fun () ->
      Trace.with_span "root" (fun () ->
          Trace.with_span "a" (fun () -> Trace.with_span "a1" ignore);
          Trace.with_span "b" ignore));
  match Trace.roots () with
  | [ root ] ->
      check Alcotest.string "root name" "root" root.Trace.name;
      check Alcotest.int "root depth" 0 root.Trace.depth;
      check
        Alcotest.(list string)
        "children in completion order" [ "a"; "b" ]
        (span_names (Trace.children_in_order root));
      let a = List.hd (Trace.children_in_order root) in
      check
        Alcotest.(list string)
        "grandchild" [ "a1" ]
        (span_names (Trace.children_in_order a));
      check (Alcotest.option Alcotest.string) "parent link" (Some "root")
        a.Trace.parent;
      check Alcotest.int "a1 depth" 2
        (List.hd (Trace.children_in_order a)).Trace.depth;
      check Alcotest.bool "durations from the deterministic clock" true
        (root.Trace.dur_ns > a.Trace.dur_ns)
  | roots -> Alcotest.failf "expected one root, got %d" (List.length roots)

let test_span_exception () =
  Trace.set_sink Trace.Memory;
  (try
     Trace.with_span "boom-root" (fun () ->
         Trace.with_span "child-ok" ignore;
         Trace.with_span "child-bad" (fun () -> failwith "kaboom"))
   with Failure _ -> ());
  match Trace.roots () with
  | [ root ] ->
      check Alcotest.string "exception recorded on root"
        "error: Failure(\"kaboom\")"
        (Trace.status_to_string root.Trace.status);
      let children = Trace.children_in_order root in
      check
        Alcotest.(list string)
        "both children finished" [ "child-ok"; "child-bad" ]
        (span_names children);
      check Alcotest.string "ok child stays ok" "ok"
        (Trace.status_to_string (List.hd children).Trace.status);
      (* a fresh span can be opened after the failure: current was restored *)
      Trace.with_span "after" ignore;
      check Alcotest.int "tracing still works" 2 (List.length (Trace.roots ()))
  | roots -> Alcotest.failf "expected one root, got %d" (List.length roots)

let test_stream_sink_order () =
  let seen = ref [] in
  Trace.set_sink (Trace.Stream (fun s -> seen := s.Trace.name :: !seen));
  Trace.with_span "outer" (fun () -> Trace.with_span "inner" ignore);
  check
    Alcotest.(list string)
    "children stream before parents" [ "inner"; "outer" ]
    (List.rev !seen)

(* --- events --------------------------------------------------------------- *)

let test_events_buffer () =
  let buf = Buffer.create 256 in
  Events.set_sink (Events.Buffer buf);
  check Alcotest.bool "enabled" true (Events.enabled ());
  Clock.with_source (Clock.counter ~start:5L ~step_ns:1L ()) (fun () ->
      Events.emit "ping" ~fields:[ ("x", Jsonenc.Int 1) ];
      Events.emit_diag ~kind:"parse-error" ~subject:"img-1" ~detail:"d");
  let lines =
    List.filter (fun l -> l <> "") (String.split_on_char '\n' (Buffer.contents buf))
  in
  check Alcotest.int "two lines" 2 (List.length lines);
  List.iter
    (fun line ->
      match Jsonenc.of_string line with
      | Error e -> Alcotest.failf "unparseable event line %S: %s" line e
      | Ok v ->
          check Alcotest.bool "has ts_ns" true
            (Option.is_some
               (Option.bind (Jsonenc.member "ts_ns" v) Jsonenc.to_int_opt)))
    lines;
  match Jsonenc.of_string (List.nth lines 1) with
  | Ok v ->
      check
        (Alcotest.option Alcotest.string)
        "diag kind field" (Some "parse-error")
        (Option.bind (Jsonenc.member "diag_kind" v) Jsonenc.to_string_opt)
  | Error e -> Alcotest.failf "diag line: %s" e

(* --- summary -------------------------------------------------------------- *)

let test_summary_of_lines () =
  let span name parent depth start dur =
    Jsonenc.to_string
      (Jsonenc.Obj
         [
           ("ts_ns", Jsonenc.Int (start + dur));
           ("ev", Jsonenc.Str "span");
           ("name", Jsonenc.Str name);
           ( "parent",
             match parent with Some p -> Jsonenc.Str p | None -> Jsonenc.Null );
           ("depth", Jsonenc.Int depth);
           ("start_ns", Jsonenc.Int start);
           ("dur_ns", Jsonenc.Int dur);
           ("status", Jsonenc.Str "ok");
         ])
  in
  let lines =
    [
      span "ingest" (Some "learn") 1 0 300;
      span "mine" (Some "learn") 1 300 600;
      span "learn" None 0 0 1000;
      {|{"ts_ns":1,"ev":"diag","diag_kind":"parse-error","subject":"i","detail":"d"}|};
      {|{"ts_ns":2,"ev":"diag","diag_kind":"parse-error","subject":"j","detail":"d"}|};
      "this is not json";
      "";
    ]
  in
  let s = Summary.of_lines ~top:2 lines in
  check Alcotest.int "wall from root span" 1000 s.Summary.wall_ns;
  check Alcotest.int "span count" 3 s.Summary.span_count;
  check Alcotest.int "bad lines counted" 1 s.Summary.bad_lines;
  check Alcotest.int "top-k respected" 2 (List.length s.Summary.slowest);
  (match s.Summary.stages with
  | [ m; i ] ->
      check Alcotest.string "stages sorted by time" "mine" m.Summary.stage_name;
      check (Alcotest.float 0.01) "mine pct" 60.0 m.Summary.pct;
      check Alcotest.string "second stage" "ingest" i.Summary.stage_name
  | st -> Alcotest.failf "expected 2 stages, got %d" (List.length st));
  check (Alcotest.float 0.01) "coverage" 90.0 s.Summary.coverage_pct;
  check
    Alcotest.(list (pair string int))
    "diag kinds" [ ("parse-error", 2) ] s.Summary.diag_kinds;
  check Alcotest.int "event kinds include spans" 3
    (Option.value ~default:0 (List.assoc_opt "span" s.Summary.event_kinds))

let test_summary_of_file_tolerates_torn_final_line () =
  (* a kill mid-append leaves the log's last line incomplete: summarize
     must skip the torn record, flag the trace, and keep every whole
     line *)
  let whole =
    [
      {|{"ts_ns":1,"ev":"diag","diag_kind":"parse-error","subject":"i","detail":"d"}|};
      "not json at all";
    ]
  in
  let torn = {|{"ts_ns":2,"ev":"diag","diag_kind":"probe-fa|} in
  let path = Filename.temp_file "encore-test-trace" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out_bin path in
      output_string oc (String.concat "\n" whole ^ "\n" ^ torn);
      close_out oc;
      (match Summary.of_file path with
      | Error e -> Alcotest.failf "of_file failed: %s" e
      | Ok s ->
          check Alcotest.bool "flagged truncated" true s.Summary.truncated;
          check Alcotest.int "torn line skipped, not counted bad" 1
            s.Summary.bad_lines;
          check Alcotest.int "whole events kept" 1
            (Option.value ~default:0
               (List.assoc_opt "diag" s.Summary.event_kinds));
          let rendered = Summary.to_string s in
          check Alcotest.bool "rendering notes the truncation" true
            (let needle = "truncated" in
             let n = String.length needle and l = String.length rendered in
             let rec scan i =
               i + n <= l && (String.sub rendered i n = needle || scan (i + 1))
             in
             scan 0));
      (* the same log with a clean final newline is not truncated *)
      let oc = open_out_bin path in
      output_string oc (String.concat "\n" whole ^ "\n");
      close_out oc;
      match Summary.of_file path with
      | Error e -> Alcotest.failf "clean of_file failed: %s" e
      | Ok s ->
          check Alcotest.bool "clean file not flagged" false s.Summary.truncated)

let test_summary_of_spans_matches_of_lines () =
  Trace.set_sink Trace.Memory;
  Clock.with_source (Clock.counter ~step_ns:50L ()) (fun () ->
      Trace.with_span "learn" (fun () ->
          Trace.with_span "ingest" ignore;
          Trace.with_span "assemble" ignore));
  let s = Summary.of_spans (Trace.roots ()) in
  check Alcotest.int "three spans" 3 s.Summary.span_count;
  check
    Alcotest.(list string)
    "stage names"
    [ "assemble"; "ingest" ]
    (List.sort compare
       (List.map (fun st -> st.Summary.stage_name) s.Summary.stages)
    |> List.sort compare);
  check Alcotest.bool "full coverage of synthetic tree" true
    (s.Summary.coverage_pct > 0.0)

let test_summary_of_spans_truncated () =
  Trace.set_sink Trace.Memory;
  Trace.with_span "learn" ignore;
  let s = Summary.of_spans ~truncated:true (Trace.roots ()) in
  check Alcotest.bool "truncated flag forwarded" true s.Summary.truncated;
  let s = Summary.of_spans (Trace.roots ()) in
  check Alcotest.bool "defaults to not truncated" false s.Summary.truncated

let test_summary_of_file_empty_and_blank () =
  let path = Filename.temp_file "encore-test-blank" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      (* a zero-byte log: no spans, no bad lines, not truncated *)
      (match Summary.of_file path with
      | Error e -> Alcotest.failf "empty of_file failed: %s" e
      | Ok s ->
          check Alcotest.int "empty file has no spans" 0 s.Summary.span_count;
          check Alcotest.int "empty file has no events" 0 s.Summary.event_count;
          check Alcotest.int "empty file has no bad lines" 0
            s.Summary.bad_lines;
          check Alcotest.bool "empty file not truncated" false
            s.Summary.truncated;
          check Alcotest.int "empty file wall" 0 s.Summary.wall_ns);
      (* whitespace-only lines are skipped, not counted bad *)
      let oc = open_out_bin path in
      output_string oc "   \n\t\n \n";
      close_out oc;
      match Summary.of_file path with
      | Error e -> Alcotest.failf "blank of_file failed: %s" e
      | Ok s ->
          check Alcotest.int "blank lines yield no events" 0
            s.Summary.event_count;
          check Alcotest.int "blank lines are not bad lines" 0
            s.Summary.bad_lines;
          check Alcotest.bool "newline-terminated blanks not truncated" false
            s.Summary.truncated)

(* --- the stage split of a traced learn -------------------------------------- *)

let clean_mysql n =
  let profile = { Profile.ec2 with Profile.latent_error_rate = 0.0 } in
  Population.images (Population.generate ~profile ~seed:11 Image.Mysql ~n)

(* stage names under the root span, each of which must appear once *)
let traced_stages f =
  Trace.set_sink Trace.Memory;
  f ();
  let s = Summary.of_spans (Trace.roots ()) in
  Trace.clear ();
  List.iter
    (fun st ->
      check Alcotest.int
        (Printf.sprintf "%s opened once" st.Summary.stage_name)
        1 st.Summary.calls)
    s.Summary.stages;
  List.sort compare (List.map (fun st -> st.Summary.stage_name) s.Summary.stages)

let test_learn_stage_split () =
  let images = clean_mysql 12 in
  check
    Alcotest.(list string)
    "learn: fold, then finalize's stages"
    [ "assemble"; "rule-filter"; "rule-infer"; "stats-fold"; "value-stats" ]
    (traced_stages (fun () -> ignore (Encore.Pipeline.learn images)));
  check
    Alcotest.(list string)
    "learn_resilient: ingest, fold, finalize, probe, report"
    [ "assemble"; "ingest"; "mining-probe"; "report"; "rule-filter";
      "rule-infer"; "stats-fold"; "value-stats" ]
    (traced_stages (fun () ->
         ignore (Encore.Pipeline.learn_resilient ~mining_cap:2_000 images)))

(* --- determinism under a seeded workload ----------------------------------- *)

let seeded_snapshot () =
  Metrics.reset ();
  match Encore.Pipeline.learn_resilient (clean_mysql 12) with
  | Ok _ -> Jsonenc.to_string (Metrics.snapshot_to_json (Metrics.snapshot ()))
  | Error d ->
      Alcotest.failf "learn failed: %s"
        (Encore_util.Resilience.diagnostic_to_string d)

let test_snapshot_determinism () =
  (* trace sink stays Nil, so no timing histograms leak into the
     snapshot; everything left is a function of the seeded workload *)
  let a = seeded_snapshot () in
  let b = seeded_snapshot () in
  check Alcotest.string "identical snapshots for identical seeded runs" a b

let () =
  let t name f = Alcotest.test_case name `Quick (pristine f) in
  Alcotest.run "encore_obs"
    [
      ( "clock",
        [
          t "deterministic counter source" test_clock_counter;
          t "monotonic clamp" test_clock_monotonic_clamp;
        ] );
      ( "jsonenc",
        [
          t "escaping" test_json_escaping;
          t "roundtrip" test_json_roundtrip;
          t "non-finite floats" test_json_nonfinite;
        ] );
      ( "metrics",
        [
          t "log-scale bucket boundaries" test_histogram_buckets;
          t "registry operations" test_metrics_registry;
          t "bucket edge cases" test_bucket_edge_cases;
          QCheck_alcotest.to_alcotest prop_bucket_bounds_roundtrip;
          QCheck_alcotest.to_alcotest prop_bucket_zero_absorbs;
          t "prometheus exposition" test_snapshot_to_prom;
          t "labeled series names" test_labeled_names;
        ] );
      ( "window",
        [
          t "interpolated quantiles" test_window_quantiles;
          t "interval expiry and recycling" test_window_expiry;
          t "export mirrors into gauges" test_window_export;
        ] );
      ( "sampler",
        [ t "poll cadence and gauges" test_sampler_poll_cadence ] );
      ( "trace",
        [
          t "nil sink is a no-op" test_nil_sink_noop;
          t "nesting and ordering" test_span_nesting;
          t "exception safety" test_span_exception;
          t "stream sink ordering" test_stream_sink_order;
        ] );
      ( "events",
        [ t "buffer sink emits parseable JSONL" test_events_buffer ] );
      ( "summary",
        [
          t "of_lines" test_summary_of_lines;
          t "of_file tolerates torn final line"
            test_summary_of_file_tolerates_torn_final_line;
          t "of_spans" test_summary_of_spans_matches_of_lines;
          t "of_spans truncated passthrough" test_summary_of_spans_truncated;
          t "of_file on empty and blank files"
            test_summary_of_file_empty_and_blank;
          t "learn stages appear once each" test_learn_stage_split;
        ] );
      ( "determinism",
        [ t "seeded metric snapshots are identical" test_snapshot_determinism ] );
    ]
