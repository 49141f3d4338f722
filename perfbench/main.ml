(* The EnCore benchmark: one workload per invocation.

     main.exe --workload NAME --seed N --seconds S --trace 0|1
              [--commit SHA] [--smoke]

   Workloads: learn-paper, check-fleet, serve-storm.  With
   --trace 0 the run prints the workload's end-to-end metrics; with
   --trace 1 it prints the per-layer metrics of a traced pass.  The last
   line of standard output is one JSON object
   {"correct", "attempted", "failed", "metrics"}; the line before it
   records the host and run with every metric's quartiles.  The exit
   code is 0 when every output check passed, 1 when one failed, 2 on a
   usage error.  --smoke shrinks every input to a few seconds' work.
   Learning and pooled checking run at [nproc] jobs, as the CLI's
   default [-j] does. *)

open Common

let workloads =
  [
    ("learn-paper", (Learn_paper.run, Learn_paper.traced));
    ("check-fleet", (Check_fleet.run, Check_fleet.traced));
    ("serve-storm", (Serve_storm.run, Serve_storm.traced));
  ]

let usage () =
  prerr_endline
    ("usage: main.exe --workload "
    ^ String.concat "|" (List.map fst workloads)
    ^ " --seed N --seconds S --trace 0|1 [--commit SHA] [--smoke]");
  exit 2

let arg name =
  let rec find = function
    | k :: v :: _ when k = name -> Some v
    | _ :: rest -> find rest
    | [] -> None
  in
  find (Array.to_list Sys.argv)

let int_arg name ~default =
  match arg name with
  | None -> default
  | Some v -> ( match int_of_string_opt v with Some n -> n | None -> usage ())

let coverage_lo = 0.3
let coverage_hi = 3.0

let metric_json m =
  Json.Obj [ ("value", Json.Float m.value); ("unit", Json.Str m.unit_) ]

(* Floats with every digit: the result line carries measurements as
   measured, not rounded to the event log's 12 significant digits. *)
let render_float f = Printf.sprintf "%.17g" f

let rec render = function
  | Json.Float f when Float.is_finite f -> render_float f
  | Json.Arr xs -> "[" ^ String.concat "," (List.map render xs) ^ "]"
  | Json.Obj kvs ->
      "{"
      ^ String.concat ","
          (List.map
             (fun (k, v) -> Json.to_string (Json.Str k) ^ ":" ^ render v)
             kvs)
      ^ "}"
  | j -> Json.to_string j

let () =
  let workload = match arg "--workload" with Some w -> w | None -> usage () in
  let run, traced =
    match List.assoc_opt workload workloads with
    | Some fs -> fs
    | None -> usage ()
  in
  let trace = int_arg "--trace" ~default:0 in
  let nproc = Domain.recommended_domain_count () in
  let smoke = Array.mem "--smoke" Sys.argv in
  let ctx =
    {
      seed = int_arg "--seed" ~default:1;
      seconds = float_of_int (int_arg "--seconds" ~default:10);
      jobs = nproc;
      smoke;
      tmp =
        Filename.concat ".bench_tmp"
          (Printf.sprintf "%s-%d" workload (Unix.getpid ()));
    }
  in
  if trace <> 0 && trace <> 1 then usage ();
  if not (Sys.file_exists ".bench_tmp") then Sys.mkdir ".bench_tmp" 0o755;
  Sys.mkdir ctx.tmp 0o755;
  let result =
    Fun.protect
      ~finally:(fun () ->
        rm_rf ctx.tmp;
        try Sys.rmdir ".bench_tmp" with Sys_error _ -> ())
      (fun () -> if trace = 1 then traced ctx else run ctx)
  in
  (* a traced decomposition that explains far less or far more than the
     program's own time has drifted from the program *)
  let result =
    match List.find_opt (fun m -> m.name = "trace.coverage") result.metrics with
    | Some m when not (m.value >= coverage_lo && m.value <= coverage_hi) ->
        let note =
          Printf.sprintf "trace.coverage %.3f outside [%g, %g]" m.value
            coverage_lo coverage_hi
        in
        { result with correct = false; notes = result.notes @ [ note ] }
    | _ -> result
  in
  (* the result line holds exactly the manifest's metrics of the mode:
     the three end-to-end ones, or every per-layer one, 0 for a layer the
     workload does not call *)
  let result =
    let listed = if trace = 1 then per_layer else end_to_end_units in
    let stray =
      List.filter_map
        (fun m ->
          if List.assoc_opt m.name listed = Some m.unit_ then None
          else Some (Printf.sprintf "metric %s (%s) is not in the manifest" m.name m.unit_))
        result.metrics
    in
    let found name = List.find_opt (fun m -> m.name = name) result.metrics in
    let missing =
      if trace = 1 then []
      else
        List.filter_map
          (fun (name, _) -> if found name = None then Some ("no value for " ^ name) else None)
          listed
    in
    let metrics =
      List.filter_map
        (fun (name, unit_) ->
          match found name with
          | Some m -> Some m
          | None when trace = 1 -> Some (metric name unit_ 0.0)
          | None -> None)
        listed
    in
    let notes = result.notes @ stray @ missing in
    { result with metrics; notes; correct = result.correct && notes = [] }
  in
  List.iter (fun n -> Printf.printf "CHECK FAILED: %s\n" n) result.notes;
  List.iter
    (fun m ->
      let q1, q2, q3 = quartiles m.samples in
      if m.samples = [] then Printf.printf "  %-32s %16.6f %s\n" m.name m.value m.unit_
      else
        Printf.printf "  %-32s %16.6f %s  (n=%d q1=%.6g q2=%.6g q3=%.6g)\n"
          m.name m.value m.unit_ (List.length m.samples) q1 q2 q3)
    result.metrics;
  let record =
    Json.Obj
      [
        ("workload", Json.Str workload);
        ("seed", Json.Int ctx.seed);
        ("seconds", Json.Float ctx.seconds);
        ("trace", Json.Int trace);
        ("smoke", Json.Bool smoke);
        ("jobs", Json.Int ctx.jobs);
        ("nproc", Json.Int nproc);
        ("ocaml", Json.Str Sys.ocaml_version);
        ("commit", Json.Str (Option.value (arg "--commit") ~default:"unknown"));
        ( "quartiles",
          Json.Obj
            (List.filter_map
               (fun m ->
                 if m.samples = [] then None
                 else
                   let q1, q2, q3 = quartiles m.samples in
                   Some
                     ( m.name,
                       Json.Obj
                         [
                           ("n", Json.Int (List.length m.samples));
                           ("q1", Json.Float q1);
                           ("median", Json.Float q2);
                           ("q3", Json.Float q3);
                         ] ))
               result.metrics) );
      ]
  in
  print_endline ("run " ^ render record);
  print_endline
    (render
       (Json.Obj
          [
            ("correct", Json.Bool result.correct);
            ("attempted", Json.Int result.attempted);
            ("failed", Json.Int result.failed);
            ( "metrics",
              Json.Obj (List.map (fun m -> (m.name, metric_json m)) result.metrics) );
          ]));
  exit (if result.correct then 0 else 1)
