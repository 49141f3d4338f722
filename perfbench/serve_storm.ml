(* serve-storm: open-loop load into the production reactor.

   [Server.run] is fed through its two transport closures: [recv]
   releases each request line when its due time comes (sleeping when
   the daemon is idle, never holding a line back once due) and [send]
   stamps each response, so latency runs from the due time and includes
   queueing.  The EJRNL1 write-ahead journal is on, in a scratch
   directory.  The mix is watch deltas (ConfErr-mutated configs) with a
   full inline check every seventh request, over 24 watched mysql
   targets; each carries one fresh fault on its target's original
   config.  Every rung of load starts a fresh daemon whose first 24
   requests check the targets, opening their watch sessions.

   The transport closures also time each request's phases: [Server.run]
   calls [recv] right after every [offer] and [step], so the gaps
   between [recv] calls, less the [send]s inside them, are the daemon's
   own offer and step times (see [phases]).

   After a warm-up rung, the untraced run measures the nominal rate
   (about half the daemon's capacity).  The traced run measures it
   again, then climbs a fixed geometric ladder (rate 1000 * 2^(k/8)
   req/s): coarse steps up from the nominal rate to the first rung that
   fails, then single steps between the last rung met and that one.  A
   rung is met when its p99 is at most 20 ms, nothing was shed, and
   the backlog did not grow over the rung. *)

open Common
module Server = Encore_serve.Server
module Proto = Encore_serve.Proto
module Journal = Encore_serve.Journal
module Watch = Encore_serve.Watch
module Cache = Encore_serve.Cache
module Population = Encore_workloads.Population
module Profile = Encore_workloads.Profile
module Image = Encore_sysenv.Image
module Collector = Encore_sysenv.Collector
module Engine = Encore_detect.Engine

let watched = 24
let p99_limit_s = 0.020
let ladder_rate k = 1000.0 *. (2.0 ** (float_of_int k /. 8.0))

(* The nominal rung, 354 req/s: about half the highest rung the
   journaled daemon meets on a quiet 2-core host (700-1000 req/s). *)
let nominal_k = -12
let nominal_rate = ladder_rate nominal_k
let rung_seconds ctx = if ctx.smoke then 0.1 else 1.5
let nominal_seconds ctx = if ctx.smoke then 0.2 else 0.6 *. ctx.seconds

(* The generator sleeps until this long before a due time, then spins. *)
let spin_s = 0.0005

type storm = {
  model : Encore.Pipeline.model;
  lines : string array;  (* request i carries id "r<i>" *)
}

let config_of img =
  match Image.config_for img Image.Mysql with
  | Some cf -> cf.Image.text
  | None -> ""

let line fields = Json.to_string (Json.Obj fields)

let check_line i img =
  line
    [
      ("op", Json.Str "check");
      ("id", Json.Str (Printf.sprintf "r%d" i));
      ("image", Json.Str (Collector.image_to_text img));
    ]

let watch_line i img =
  line
    [
      ("op", Json.Str "watch");
      ("id", Json.Str (Printf.sprintf "r%d" i));
      ("image", Json.Str img.Image.image_id);
      ("app", Json.Str "mysql");
      ("config", Json.Str (config_of img));
    ]

(* Long enough for the nominal rung and for a ladder rung at 2^3 times
   the nominal rate. *)
let storm_size ctx =
  int_of_float
    (nominal_rate *. Float.max (nominal_seconds ctx) (8.0 *. rung_seconds ctx))

(* The model and the whole request stream, encoded up front so client
   work stays out of the measured region. *)
let setup ctx =
  let training =
    Population.clean
      (Population.generate ~seed:ctx.seed Image.Mysql ~n:Learn_paper.paper_n)
  in
  let model = Encore.Pipeline.learn ~config:(config ctx) training in
  let targets =
    Array.init watched (fun i ->
        Population.generator_for Image.Mysql Profile.ec2
          (Encore_util.Prng.create ((ctx.seed * 1000) + 9000 + i))
          ~id:(Printf.sprintf "serve-%03d" i))
  in
  (* every delta is the target's original config with one fresh fault,
     so request cost stays stationary over the schedule *)
  let rng = Encore_util.Prng.create ((ctx.seed * 1000) + 77) in
  let lines =
    Array.init (storm_size ctx) (fun i ->
        let k = i mod watched in
        if i < watched then check_line i targets.(k)
        else
          let faulted =
            (Encore_inject.Conferr.inject rng Image.Mysql targets.(k) ~n:1)
              .Encore_inject.Conferr.image
          in
          if i mod 7 = 0 then check_line i faulted else watch_line i faulted)
  in
  { model; lines }

(* --- one rung ------------------------------------------------------------ *)

(* Per-request phase timings of one rung, taken by the transport
   closures around [Server.run].  [Server.run] calls [recv] right after
   each [offer] and after each [step], so the time from a [recv] that
   returned a line to the next [recv] call is that line's [offer], and
   the time from a [recv] that returned [`Idle] (the queue is not
   empty) to the next call is one [step]; the [send] calls made in
   between are timed apart and taken out.  Steps made while draining,
   after the last line, are not timed. *)
type phases = {
  offer : float list;
  wait : float list;  (* admission to the start of the step serving it *)
  step : float list;
  send : float list;  (* encoding one response *)
  depth : int;  (* most requests queued at a [recv] *)
}

type rung = {
  rate : float;
  offered : int;
  latencies : float list;
      (* seconds from due time to response, per request; a refused or
         failed request counts as the rung's whole length *)
  p99_s : float;
  shed : int;
  errors : int;  (* typed errors and deadline partials *)
  growing : bool;
  achieved : float;  (* responses per second over the rung *)
  late : float list;  (* generator lateness of lines released from idle *)
  ok : string list;  (* output-check failures *)
  watch_delta : int;
  watch_total : int;
  phases : phases;
}

let met r = r.p99_s <= p99_limit_s && r.shed = 0 && not r.growing

let id_of json =
  match Json.member "id" json with
  | Some (Json.Str s) when String.length s > 1 && s.[0] = 'r' ->
      int_of_string_opt (String.sub s 1 (String.length s - 1))
  | _ -> None

let new_server ctx storm name =
  let path = Filename.concat ctx.tmp (name ^ ".jrnl") in
  (try Sys.remove path with Sys_error _ -> ());
  match Journal.open_ ~path with
  | Error e -> failwith ("journal: " ^ e)
  | Ok (j, _) ->
      let model = storm.model in
      (Server.create ~journal:j (Cache.create ~provider:(fun ~app:_ -> Ok model)), j)

(* The open-loop transport of [Server.run]: [recv] releases line [i] at
   [t0 + i/rate]; [send] encodes and stamps responses. *)
let drive ctx storm ~name ~rate ~count =
  let srv, journal = new_server ctx storm name in
  let due = Array.make count 0.0 in
  let answered_at = Array.make count nan in
  let released = ref 0 and n_sent = ref 0 in
  let late = ref [] in
  let backlog = Array.make count 0 in
  let sent = ref [] in
  (* the call [Server.run] is in since the last [recv] returned *)
  let gap = ref `None and gap_t = ref 0.0 in
  let gap_send = ref 0.0 and gap_sends = ref 0 in
  let admitted = Queue.create () in
  let offers = ref [] and waits = ref [] and steps = ref [] and sends = ref [] in
  let depth = ref 0 in
  let close_gap t =
    let dt = t -. !gap_t -. !gap_send in
    (match !gap with
    | `Offer ->
        offers := dt :: !offers;
        if !gap_sends = 0 then Queue.push t admitted
    | `Step -> steps := dt :: !steps
    | `None -> ());
    gap := `None;
    gap_send := 0.0;
    gap_sends := 0
  in
  let open_gap kind t =
    gap := kind;
    gap_t := t
  in
  let t0 = now () +. 0.002 in
  Array.iteri (fun i _ -> due.(i) <- t0 +. (float_of_int i /. rate)) due;
  let release i t =
    backlog.(i) <- i - !n_sent;
    incr released;
    open_gap `Offer t;
    `Line storm.lines.(i)
  in
  let recv ~wait =
    let t = now () in
    close_gap t;
    depth := max !depth (Server.pending srv);
    let i = !released in
    if i >= count then `Eof
    else if t >= due.(i) then release i t
    else if wait then begin
      (* sleep to just short of the due time, then spin: the wake-up
         slack of a loaded host would otherwise land in every idle
         request's latency *)
      if due.(i) -. t > spin_s then Unix.sleepf (due.(i) -. t -. spin_s);
      while now () < due.(i) do () done;
      let t = now () in
      late := (t -. due.(i)) :: !late;
      release i t
    end
    else begin
      (* [Server.run] steps next, and the request at the head of the
         queue is the oldest one admitted *)
      (match Queue.take_opt admitted with
      | Some t_adm -> waits := (t -. t_adm) :: !waits
      | None -> ());
      open_gap `Step t;
      `Idle
    end
  in
  (* encode as the CLI transport does before writing, then stamp *)
  let send json =
    let t = now () in
    let text = Json.to_string json in
    let t' = now () in
    sends := (t' -. t) :: !sends;
    gap_send := !gap_send +. (t' -. t);
    incr gap_sends;
    incr n_sent;
    sent := (text, t') :: !sent
  in
  let (), wall = timed (fun () -> ignore (Server.run srv ~recv ~send)) in
  Journal.close journal;
  let parsed = List.rev_map (fun (text, t) -> (Json.of_string text, t)) !sent in
  let responses = List.filter_map (fun (j, _) -> Result.to_option j) parsed in
  let flag k j = Json.member k j = Some (Json.Bool true) in
  let refused j = flag "overloaded" j in
  let failed j = Json.member "ok" j = Some (Json.Bool false) || flag "partial" j in
  let missed = Array.make count false in
  List.iter
    (fun (j, t) ->
      match j with
      | Ok j -> (
          match id_of j with
          | Some i when i < count ->
              missed.(i) <- failed j;
              if Float.is_nan answered_at.(i) then answered_at.(i) <- t
              else answered_at.(i) <- infinity (* answered twice *)
          | _ -> ())
      | Error _ -> ())
    parsed;
  let lat =
    List.init count (fun i -> if missed.(i) then wall else answered_at.(i) -. due.(i))
  in
  let count_if p = List.length (List.filter p responses) in
  let shed = count_if refused in
  let errors = count_if (fun j -> failed j && not (refused j)) in
  let watch_delta = count_if (fun j -> Json.member "mode" j = Some (Json.Str "delta")) in
  let watch_total = count_if (fun j -> Json.member "mode" j <> None) in
  (* output checks: every request answered exactly once, one bye, and
     every response renders to JSON that parses back *)
  let ok =
    (if Array.exists (fun t -> Float.is_nan t || t = infinity) answered_at then
       [ Printf.sprintf "%s: a request was not answered exactly once" name ]
     else [])
    @ (if count_if (fun j -> Json.member "op" j = Some (Json.Str "bye")) <> 1
       then [ name ^ ": expected one bye" ]
       else [])
    @
    if List.exists (fun (j, _) -> Result.is_error j) parsed then
      [ name ^ ": malformed JSON response" ]
    else []
  in
  let third a b =
    let xs = Array.sub backlog a (b - a) in
    if Array.length xs = 0 then 0.0
    else float_of_int (Array.fold_left ( + ) 0 xs) /. float_of_int (Array.length xs)
  in
  let growing =
    count >= 3
    && third (2 * count / 3) count > (2.0 *. third 0 (count / 3)) +. 4.0
  in
  {
    rate;
    offered = count;
    latencies = lat;
    p99_s = percentile lat 0.99;
    shed;
    errors;
    growing;
    achieved = float_of_int count /. wall;
    late = !late;
    ok;
    watch_delta;
    watch_total;
    phases =
      { offer = !offers; wait = !waits; step = !steps; send = !sends; depth = !depth };
  }

(* Requests in a ladder rung: its length at the rate, and at least 1000
   so that ten samples lie beyond the p99. *)
let rung_count ctx storm rate =
  let floor = if ctx.smoke then 2 * watched else 1000 in
  min (Array.length storm.lines)
    (max floor (int_of_float (rate *. rung_seconds ctx)))

let nominal_count ctx storm =
  min (Array.length storm.lines)
    (int_of_float (nominal_rate *. nominal_seconds ctx))

let measure ctx storm name rate count = drive ctx storm ~name ~rate ~count

(* A short unmeasured rung: a process's first rung otherwise pays heap
   growth and first-touch costs. *)
let warmup ctx storm =
  ignore (measure ctx storm "warmup" nominal_rate (rung_count ctx storm nominal_rate))

(* The ladder around a measured nominal rung: every rung measured, by
   ladder index, nominal included. *)
let ladder ctx storm nominal =
  let rungs = ref [ (nominal_k, nominal) ] in
  let measured = Hashtbl.create 16 in
  Hashtbl.replace measured nominal_k (met nominal);
  (* a rung that fails is measured once more before it counts as
     failed: one stall of the shared host should not end the climb *)
  let passes k =
    match Hashtbl.find_opt measured k with
    | Some ok -> ok
    | None ->
        let rate = ladder_rate k in
        let attempt () =
          let r =
            measure ctx storm (Printf.sprintf "rung%d" k) rate (rung_count ctx storm rate)
          in
          rungs := (k, r) :: !rungs;
          met r
        in
        let ok = attempt () || attempt () in
        Hashtbl.replace measured k ok;
        ok
  in
  (* coarse steps of 4 ladder indices, up from the nominal rate while
     rungs are met (down while they are not), then single steps *)
  let rec coarse k step =
    let k' = k + step in
    if k' > 32 || k' < nominal_k - 24 then k
    else if passes k' = (step > 0) then coarse k' step
    else k
  in
  let lo, hi =
    if met nominal then
      let top = coarse nominal_k 4 in
      (top, top + 4)
    else
      let bottom = coarse nominal_k (-4) in
      (bottom - 4, bottom)
  in
  let rec fine k = if k < hi && passes k then fine (k + 1) in
  fine (lo + 1);
  List.rev !rungs

(* Achieved throughput of the highest rung met (0 when none was). *)
let max_rps rungs =
  snd
    (List.fold_left
       (fun (rate, achieved) (_, r) ->
         if met r && r.rate > rate then (r.rate, r.achieved) else (rate, achieved))
       (0.0, 0.0) rungs)

let print_rung (k, r) =
  Printf.printf
    "  rung %3d  %8.1f req/s  achieved %8.1f  p50 %8.1f us  p99 %8.1f us  \
     shed %d  errors %d  growing %b  generator late p99 %.3f ms  %s\n"
    k r.rate r.achieved
    (percentile r.latencies 0.5 *. 1e6)
    (r.p99_s *. 1e6) r.shed r.errors r.growing
    (percentile r.late 0.99 *. 1e3)
    (if met r then "met" else "not met")

let us xs q = percentile xs q *. 1e6

(* Untraced: the nominal rung through [Server.run].  Its latencies are
   printed, not gated: on a shared host they move with the neighbours'
   disk and CPU load far more than any bound allows (see README).  The
   step throughput, the daemon's own work per request, is gated. *)
let run ctx =
  let setups = List.init 5 (fun _ -> timed (fun () -> setup ctx)) in
  let storm = fst (List.hd setups) in
  warmup ctx storm;
  let nominal =
    measure ctx storm "nominal" nominal_rate
      (nominal_count ctx storm)
  in
  let heap = live_heap_mb storm in
  (* five more set-ups after the nominal rung: set-ups taken at both ends
     of the run sample two states of the shared host *)
  let setups =
    List.map snd setups
    @ List.init 5 (fun _ -> snd (timed (fun () -> ignore (Sys.opaque_identity (setup ctx)))))
  in
  print_rung (nominal_k, nominal);
  let p = nominal.phases in
  Printf.printf "  busy %.1f responses/s  step p90 %.1f us  offer p50 %.1f us\n"
    (float_of_int (List.length p.step) /. (sum p.offer +. sum p.step +. sum p.send))
    (us p.step 0.9) (us p.offer 0.5);
  {
    correct = nominal.ok = [];
    attempted = nominal.offered;
    failed = nominal.shed + nominal.errors;
    metrics =
      end_to_end ~setups ~heap ~items:(List.length p.step) ~busy:(sum p.step);
    notes = nominal.ok;
  }

(* --- traced pass ------------------------------------------------------- *)

(* The nominal stream again, sequentially, through the calls a request
   makes inside the daemon: [Proto.parse] (once at admission, once at
   dispatch), [Journal.append], then [Collector.image_of_text] and a
   full check ([Watch.start]) for checks, or [Watch.update] for watch
   deltas. *)
let replay ctx storm count =
  let eng = Engine.compile storm.model in
  let fingerprint = Cache.fingerprint_of storm.model in
  let path = Filename.concat ctx.tmp "replay.jrnl" in
  let journal =
    match Journal.open_ ~path with Ok (j, _) -> j | Error e -> failwith e
  in
  let decode = ref 0.0 and jrnl = ref 0.0 and image = ref 0.0 in
  let check = ref 0.0 and watch = ref 0.0 in
  let n_check = ref 0 and n_watch = ref 0 in
  let sessions = Hashtbl.create 64 in
  for i = 0 to count - 1 do
    let text = storm.lines.(i) in
    ignore (span decode (fun () -> Proto.parse text));
    ignore (span jrnl (fun () -> Journal.append journal ("t-000000 " ^ text)));
    match span decode (fun () -> Proto.parse text) with
    | Ok (Proto.Check { source = Proto.Inline dump; _ }) -> (
        incr n_check;
        match span image (fun () -> Collector.image_of_text dump) with
        | Ok img -> (
            match span check (fun () -> Watch.start eng ~fingerprint img) with
            | Some s, _ -> Hashtbl.replace sessions img.Image.image_id s
            | None, _ -> ())
        | Error _ -> ())
    | Ok (Proto.Watch { image_id; config; _ }) -> (
        incr n_watch;
        match Hashtbl.find_opt sessions image_id with
        | Some s ->
            ignore
              (span watch (fun () ->
                   Watch.update s eng ~app:Image.Mysql ~config))
        | None -> ())
    | _ -> ()
  done;
  Journal.close journal;
  let per r n = if n = 0 then 0.0 else !r /. float_of_int n *. 1e6 in
  ( !decode +. !jrnl +. !image +. !check +. !watch,
    [
      metric "serve.decode_us" "us" (per decode count);
      metric "serve.journal_us" "us" (per jrnl count);
      metric "serve.image_decode_us" "us" (per image !n_check);
      metric "serve.check_us" "us" (per check !n_check);
      metric "serve.watch_us" "us" (per watch !n_watch);
    ] )

let traced ctx =
  let storm = setup ctx in
  let count = nominal_count ctx storm in
  warmup ctx storm;
  let read_cost = clock_read_cost () in
  let nominal = measure ctx storm "traced" nominal_rate count in
  let p = nominal.phases in
  let reactor_s = sum p.offer +. sum p.step +. sum p.send in
  (* the one clock read per response that the transport makes only to
     time the encoding *)
  let own_reads = List.length p.send in
  let rungs = ladder ctx storm nominal in
  List.iter print_rung rungs;
  let replay_s, phases = replay ctx storm count in
  let all = List.map snd rungs in
  let notes = List.concat_map (fun r -> r.ok) all in
  {
    correct = notes = [];
    attempted = List.fold_left (fun n r -> n + r.offered) 0 all;
    failed = List.fold_left (fun n r -> n + r.shed + r.errors) 0 all;
    metrics =
      [
        metric "serve.latency_p50_us" "us" (us nominal.latencies 0.5);
        metric "serve.latency_p99_us" "us" (nominal.p99_s *. 1e6);
        metric "serve.max_rps" "1/s" (max_rps rungs);
        metric "serve.offer_us" "us" (us p.offer 0.5);
        (* the mean: at the nominal rate most requests are stepped
           the moment they are admitted, and the median wait is 0 *)
        metric "serve.queue_wait_us" "us"
          (sum p.wait /. float_of_int (max 1 (List.length p.wait)) *. 1e6);
        metric "serve.step_us_p50" "us" (us p.step 0.5);
        metric "serve.step_us_p99" "us" (us p.step 0.99);
      ]
      @ phases
      @ [
          metric "serve.encode_us" "us"
            (sum p.send /. float_of_int (max 1 (List.length p.send)) *. 1e6);
          metric "serve.watch_delta_share" "ratio"
            (float_of_int nominal.watch_delta /. float_of_int (max 1 nominal.watch_total));
          metric "serve.queue_depth_max" "count" (float_of_int p.depth);
          metric "serve.generator_late_ms" "ms" (percentile nominal.late 0.99 *. 1e3);
          metric "trace.coverage" "ratio" ((replay_s +. sum p.send) /. reactor_s);
          metric "obs.trace_overhead_frac" "ratio"
            (float_of_int own_reads *. read_cost /. reactor_s);
        ];
    notes;
  }
