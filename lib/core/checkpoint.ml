module Res = Encore_util.Resilience
module Snapshot = Encore_util.Snapshot
module Csvio = Encore_util.Csvio
module Oevents = Encore_obs.Events
module Ometrics = Encore_obs.Metrics
module Image = Encore_sysenv.Image
module Model_io = Encore_detect.Model_io

type stage = Ingest | Assemble | Model

let all_stages = [ Ingest; Assemble; Model ]

let stage_to_string = function
  | Ingest -> "ingest"
  | Assemble -> "assemble"
  | Model -> "model"

let stage_of_string = function
  | "ingest" -> Some Ingest
  | "assemble" -> Some Assemble
  | "model" -> Some Model
  | _ -> None

exception Simulated_crash of stage

type t = { ckpt_dir : string }

let create ~dir =
  Snapshot.mkdir_p dir;
  { ckpt_dir = dir }

let dir t = t.ckpt_dir

let stage_path t stage =
  Filename.concat t.ckpt_dir (stage_to_string stage ^ ".ckpt")

let kind_of_stage stage = "ckpt-" ^ stage_to_string stage

let m_saves = Ometrics.counter "checkpoint.saves"
let m_resumes = Ometrics.counter "checkpoint.resumes"
let m_stale = Ometrics.counter "checkpoint.stale"

(* --- fingerprint ---------------------------------------------------------- *)

(* Images and configs are plain data, so marshalling digests their full
   content — any change to the training population or to a parameter
   that reaches the learner invalidates every checkpoint. *)
let fingerprint ~config ~custom ~mode ~max_retries ~mining_cap images =
  let buf = Buffer.create 512 in
  Buffer.add_string buf
    (Digest.to_hex (Digest.string (Marshal.to_string (config : Config.t) [])));
  Buffer.add_string buf mode;
  Buffer.add_string buf
    (match custom with
     | None -> "-"
     | Some c -> Digest.to_hex (Digest.string c));
  Buffer.add_string buf
    (match max_retries with None -> "-" | Some n -> string_of_int n);
  Buffer.add_string buf (string_of_int mining_cap);
  List.iter
    (fun (img : Image.t) ->
      Buffer.add_string buf
        (Digest.to_hex (Digest.string (Marshal.to_string img []))))
    images;
  Digest.to_hex (Digest.string (Buffer.contents buf))

(* --- framed save / load --------------------------------------------------- *)

(* Assemble/model checkpoints are functions of the images that actually
   survived ingest, not of the requested population alone: a flaky run
   that quarantined images must not share post-ingest checkpoints with
   a clean run (or a differently-flaky one) over the same corpus, or a
   [--resume] would silently rebuild from the wrong survivor set.  The
   stage fingerprint therefore folds the survivor and quarantine ids
   into the base run fingerprint. *)
let stage_fingerprint ~fingerprint ~survivor_ids ~quarantined_ids =
  let buf = Buffer.create 256 in
  Buffer.add_string buf fingerprint;
  Buffer.add_string buf "\ns:";
  List.iter
    (fun id ->
      Buffer.add_string buf id;
      Buffer.add_char buf '\n')
    survivor_ids;
  Buffer.add_string buf "q:";
  List.iter
    (fun id ->
      Buffer.add_string buf id;
      Buffer.add_char buf '\n')
    quarantined_ids;
  Digest.to_hex (Digest.string (Buffer.contents buf))

let save_payload t stage payload =
  let path = stage_path t stage in
  Snapshot.write_atomic ~kind:(kind_of_stage stage) path payload;
  Ometrics.incr m_saves;
  Oevents.emit_checkpoint ~stage:(stage_to_string stage) ~path
    ~bytes:(String.length payload) ~action:"saved"

let note_stale t stage =
  Ometrics.incr m_stale;
  Oevents.emit_checkpoint ~stage:(stage_to_string stage)
    ~path:(stage_path t stage) ~bytes:0 ~action:"stale"

let note_resumed t stage bytes =
  Ometrics.incr m_resumes;
  Oevents.emit_checkpoint ~stage:(stage_to_string stage)
    ~path:(stage_path t stage) ~bytes ~action:"resumed"

(* Every checkpoint payload begins with its fingerprint line; a payload
   that fails verification, carries the wrong fingerprint or does not
   parse is reported stale and the stage recomputed. *)
let load_payload t stage ~fingerprint =
  let path = stage_path t stage in
  if not (Sys.file_exists path) then None
  else
    match Snapshot.read ~kind:(kind_of_stage stage) path with
    | Error _ ->
        note_stale t stage;
        None
    | Ok payload -> (
        match String.index_opt payload '\n' with
        | None ->
            note_stale t stage;
            None
        | Some nl ->
            let fp = String.sub payload 0 nl in
            if fp <> fingerprint then begin
              note_stale t stage;
              None
            end
            else
              Some
                (String.sub payload (nl + 1) (String.length payload - nl - 1)))

let ( let* ) = Option.bind

let cut ~sep s =
  let n = String.length s and m = String.length sep in
  let rec go i =
    if i + m > n then None
    else if String.sub s i m = sep then
      Some (String.sub s 0 i, String.sub s (i + m) (n - i - m))
    else go (i + 1)
  in
  go 0

(* --- ingest state --------------------------------------------------------- *)

type ingest_state = {
  survivor_ids : string list;
  quarantined : (string * Res.diagnostic list) list;
  warnings : Res.diagnostic list;
  retried : int;
  total_backoff_ms : int;
}

let diag_row (d : Res.diagnostic) =
  [ Res.kind_to_string d.Res.kind; d.Res.subject; d.Res.detail ]

let diag_of_row = function
  | [ kind; subject; detail ] ->
      Option.map
        (fun k -> Res.diag k ~subject detail)
        (Res.kind_of_string kind)
  | _ -> None

let ingest_payload st =
  let buf = Buffer.create 1024 in
  let row fields =
    Buffer.add_string buf (Csvio.row_to_string fields);
    Buffer.add_char buf '\n'
  in
  row [ string_of_int st.retried; string_of_int st.total_backoff_ms ];
  Buffer.add_string buf "@survivors\n";
  List.iter (fun id -> row [ id ]) st.survivor_ids;
  Buffer.add_string buf "@quarantined\n";
  List.iter
    (fun (subject, diags) ->
      match diags with
      | [] -> row [ subject ]
      | diags -> List.iter (fun d -> row (subject :: diag_row d)) diags)
    st.quarantined;
  Buffer.add_string buf "@warnings\n";
  List.iter (fun d -> row (diag_row d)) st.warnings;
  Buffer.contents buf

let group_quarantined rows =
  (* rows for one subject are written consecutively *)
  let grouped =
    List.fold_left
      (fun acc row ->
        match (row, acc) with
        | [ subject ], _ -> (subject, []) :: acc
        | subject :: diag, (s, ds) :: rest when s = subject -> (
            match diag_of_row diag with
            | Some d -> (s, d :: ds) :: rest
            | None -> acc)
        | subject :: diag, acc -> (
            match diag_of_row diag with
            | Some d -> (subject, [ d ]) :: acc
            | None -> (subject, []) :: acc)
        | [], acc -> acc)
      [] rows
  in
  List.rev_map (fun (s, ds) -> (s, List.rev ds)) grouped

let parse_ingest text =
  let* counters, rest = cut ~sep:"@survivors\n" text in
  let* survivors_text, rest = cut ~sep:"@quarantined\n" rest in
  let* quarantined_text, warnings_text = cut ~sep:"@warnings\n" rest in
  let* retried, total_backoff_ms =
    match Csvio.parse counters with
    | [ [ r; b ] ] -> (
        match (int_of_string_opt r, int_of_string_opt b) with
        | Some r, Some b -> Some (r, b)
        | _ -> None)
    | _ -> None
  in
  let survivor_ids =
    List.filter_map
      (function [ id ] -> Some id | _ -> None)
      (Csvio.parse survivors_text)
  in
  let quarantined = group_quarantined (Csvio.parse quarantined_text) in
  let warnings = List.filter_map diag_of_row (Csvio.parse warnings_text) in
  Some { survivor_ids; quarantined; warnings; retried; total_backoff_ms }

let save_ingest t ~fingerprint st =
  save_payload t Ingest (fingerprint ^ "\n" ^ ingest_payload st)

let load_ingest t ~fingerprint =
  let* rest = load_payload t Ingest ~fingerprint in
  match parse_ingest rest with
  | Some st ->
      note_resumed t Ingest (String.length rest);
      Some st
  | None ->
      note_stale t Ingest;
      None

(* --- assembled statistics ------------------------------------------------- *)

(* The Assemble stage's artifact is the statistics fold over the
   survivors, stored as its [Stats_io] frame: the framed payload
   carries its own schema line, so a checkpoint in any other format
   (such as the older row-by-row table) fails to unframe and reads as
   stale. *)
let save_assemble t ~fingerprint stats =
  save_payload t Assemble (fingerprint ^ "\n" ^ Stats_io.to_string stats)

let load_assemble t ~fingerprint =
  let* rest = load_payload t Assemble ~fingerprint in
  match Stats_io.of_string ~path:(stage_path t Assemble) rest with
  | Ok stats ->
      note_resumed t Assemble (String.length rest);
      Some stats
  | Error _ ->
      note_stale t Assemble;
      None

(* --- model ---------------------------------------------------------------- *)

let save_model t ~fingerprint model =
  save_payload t Model (fingerprint ^ "\n" ^ Model_io.to_string model)

let load_model t ~fingerprint =
  let* rest = load_payload t Model ~fingerprint in
  match Model_io.parse_payload rest with
  | Ok model ->
      note_resumed t Model (String.length rest);
      Some model
  | Error _ ->
      note_stale t Model;
      None
