module Row = Encore_dataset.Row
module Tinfer = Encore_typing.Infer
module Augment = Encore_dataset.Augment
module Bitcol = Encore_dataset.Bitcol
module Bitset = Bitcol.Bitset

type training = (Encore_sysenv.Image.t * Row.t) list

type params = { min_support_frac : float; min_confidence : float }

let default_params = { min_support_frac = 0.10; min_confidence = 0.90 }

let type_of types attr =
  match Tinfer.find types attr with
  | Some d -> d.Tinfer.ctype
  | None ->
      if Augment.is_augmented attr then Augment.augmented_type attr
      else Encore_typing.Ctype.String_t

(* Equality and boolean-implication templates are how augmented
   environment attributes enter rules; the remaining (path/user/number)
   relations instantiate over configuration entries and image globals
   only — pairing every path with every augmented .owner/.group copy
   would restate the same fact quadratically. *)
let augmented_slots_allowed (template : Template.t) =
  match template.Template.relation with
  | Relation.Eq_all | Relation.Eq_exists | Relation.Bool_implies _ -> true
  | Relation.Subnet | Relation.Concat_path | Relation.Substring
  | Relation.User_in_group | Relation.Not_accessible | Relation.Ownership
  | Relation.Num_less | Relation.Size_less ->
      false

let instantiations ~types template attrs =
  let slot_ok attr =
    augmented_slots_allowed template || not (Augment.is_augmented attr)
  in
  let eligible_a =
    List.filter
      (fun a -> slot_ok a && Template.eligible_a template (type_of types a))
      attrs
  in
  let eligible_b =
    List.filter
      (fun b -> slot_ok b && Template.eligible_b template (type_of types b))
      attrs
  in
  List.concat_map
    (fun a ->
      List.filter_map
        (fun b ->
          if a = b then None
          else if
            (* symmetric relations: one orientation suffices; boolean
               implications: the a>b orientation is the contrapositive
               of an a<b rule with flipped polarities, so it is learned
               iff that one is — keep the canonical orientation only *)
            (Relation.symmetric template.Template.relation
            || match template.Template.relation with
               | Relation.Bool_implies _ -> true
               | _ -> false)
            && a > b
          then None
          else if Augment.base_attr a = Augment.base_attr b then
            (* an entry and its own augmentation correlate trivially *)
            None
          else if
            Relation.same_type_required template.Template.relation
            && not
                 (Encore_typing.Ctype.equal (type_of types a) (type_of types b))
          then None
          else Some (a, b))
        eligible_b)
    eligible_a

let evaluate_instantiation template training ~a ~b =
  List.fold_left
    (fun (applicable, valid) (image, row) ->
      let va = Row.get_all row a and vb = Row.get_all row b in
      if va = [] || vb = [] then (applicable, valid)
      else
        match
          Relation.eval template.Template.relation
            { Relation.image; row } ~a:va ~b:vb
        with
        | None -> (applicable, valid)
        | Some true -> (applicable + 1, valid + 1)
        | Some false -> (applicable + 1, valid))
    (0, 0) training

let expand_polarities templates =
  List.concat_map
    (fun t ->
      match t.Template.relation with
      | Relation.Bool_implies _ ->
          List.map
            (fun (pa, pb) ->
              { t with Template.relation = Relation.Bool_implies (pa, pb) })
            [ (true, true); (true, false); (false, true); (false, false) ]
      | _ -> [ t ])
    templates

(* For implication rules, vacuous truth (antecedent never holding) must
   not count as evidence: require the antecedent polarity to actually
   occur in a minimum number of training images. *)
let truthy v =
  match Encore_util.Strutil.lowercase_ascii (String.trim v) with
  | "on" | "true" | "yes" | "1" | "enabled" -> Some true
  | "off" | "false" | "no" | "0" | "disabled" -> Some false
  | _ -> None

let min_lift_margin = 0.05

(* One candidate's fate; tallied by the caller in candidate order so
   parallel evaluation never shares mutable state. *)
type verdict =
  | Kept of Template.rule
  | Rejected_support     (* applicable too rarely, or vacuous *)
  | Rejected_confidence  (* confident too rarely, or no lift *)

(* Columnar training set: [columns.(attr_id).(row)] is the instance
   list, [ctxs.(row)] the per-image evaluation context.  Candidate
   evaluation touches every (attribute, row) cell once per candidate;
   interning the attribute once per candidate and indexing arrays per
   row replaces a string hash + hashtable probe per cell. *)
type columnar = {
  cols : Encore_dataset.Colview.t;
  ctxs : Relation.ctx array;
}

let columnar_of_training ?view training =
  {
    cols =
      (match view with
       | Some v -> v
       | None -> Encore_dataset.Colview.of_rows (List.map snd training));
    ctxs =
      Array.of_list
        (List.map (fun (image, row) -> { Relation.image; row }) training);
  }

let empty_column = [||]

let column c attr =
  match Encore_dataset.Colview.id c.cols attr with
  | Some id -> Encore_dataset.Colview.column c.cols id
  | None -> empty_column

let evaluate_instantiation_cols template c ~ca ~cb =
  let applicable = ref 0 and valid = ref 0 in
  let n = Array.length c.ctxs in
  if Array.length ca = n && Array.length cb = n then
    for i = 0 to n - 1 do
      let va = ca.(i) and vb = cb.(i) in
      if va <> [] && vb <> [] then
        match
          Relation.eval template.Template.relation c.ctxs.(i) ~a:va ~b:vb
        with
        | None -> ()
        | Some true ->
            incr applicable;
            incr valid
        | Some false -> incr applicable
    done;
  (!applicable, !valid)

let antecedent_support_cols relation ~ca =
  match relation with
  | Relation.Bool_implies (pa, _) ->
      Some
        (Array.fold_left
           (fun acc values ->
             if List.exists (fun v -> truthy v = Some pa) values then acc + 1
             else acc)
           0 ca)
  | _ -> None

(* The consequent's base rate: fraction of images carrying B whose value
   already equals the implied polarity.  An implication whose confidence
   does not beat this base rate carries no information (lift ≈ 1) — the
   dominant source of binomial association noise. *)
let consequent_base_rate_cols relation ~cb =
  match relation with
  | Relation.Bool_implies (_, pb) ->
      let present = ref 0 and matching = ref 0 in
      Array.iter
        (fun values ->
          if values <> [] then begin
            incr present;
            if List.for_all (fun v -> truthy v = Some pb) values then
              incr matching
          end)
        cb;
      if !present = 0 then None
      else Some (float_of_int !matching /. float_of_int !present)
  | _ -> None

(* Judge one (template, a, b) candidate against the columnar view. *)
let evaluate_candidate ~params ~min_support c (template, a, b) =
  let ca = column c a and cb = column c b in
  let applicable, valid = evaluate_instantiation_cols template c ~ca ~cb in
  let vacuous =
    match antecedent_support_cols template.Template.relation ~ca with
    | Some s -> s < min_support
    | None -> false
  in
  if applicable < min_support || vacuous then Rejected_support
  else
    let min_conf =
      Option.value ~default:params.min_confidence
        template.Template.min_confidence
    in
    let confidence = float_of_int valid /. float_of_int applicable in
    let lifts =
      match consequent_base_rate_cols template.Template.relation ~cb with
      | Some base -> confidence >= base +. min_lift_margin
      | None -> true
    in
    if confidence >= min_conf && lifts then
      Kept
        { Template.template; attr_a = a; attr_b = b;
          support = applicable; confidence }
    else Rejected_confidence

(* --- bitset evaluation (the fast path) ------------------------------------ *)

(* Per-attribute metadata interned once per inference run: everything
   the pair filters of {!instantiations} ask per candidate
   ([Augment.base_attr] allocates a fresh string per call — quadratic
   noise when asked per pair) becomes an array lookup. *)
type meta = {
  names : string array;  (* id -> attribute, in view interning order *)
  ctypes : Encore_typing.Ctype.t array;
  augmented : bool array;
  bases : string array;  (* Augment.base_attr, precomputed *)
}

let meta_of ~types view =
  let names = Array.of_list (Encore_dataset.Colview.attrs view) in
  {
    names;
    ctypes = Array.map (type_of types) names;
    augmented = Array.map Augment.is_augmented names;
    bases = Array.map Augment.base_attr names;
  }

(* Id-based candidate generation: same filters, same order as
   {!instantiations} over the view's attribute list (ids are interning
   order), but every per-pair question is an array access. *)
let instantiations_idx meta template =
  let n = Array.length meta.names in
  let slot_ok i = augmented_slots_allowed template || not meta.augmented.(i) in
  let ea = ref [] and eb = ref [] in
  for i = n - 1 downto 0 do
    if slot_ok i then begin
      if Template.eligible_a template meta.ctypes.(i) then ea := i :: !ea;
      if Template.eligible_b template meta.ctypes.(i) then eb := i :: !eb
    end
  done;
  let canonical_only =
    Relation.symmetric template.Template.relation
    ||
    match template.Template.relation with
    | Relation.Bool_implies _ -> true
    | _ -> false
  in
  let same_type = Relation.same_type_required template.Template.relation in
  List.concat_map
    (fun ia ->
      List.filter_map
        (fun ib ->
          if ia = ib then None
          else if canonical_only && meta.names.(ia) > meta.names.(ib) then None
          else if meta.bases.(ia) = meta.bases.(ib) then None
          else if
            same_type
            && not (Encore_typing.Ctype.equal meta.ctypes.(ia) meta.ctypes.(ib))
          then None
          else Some (template, ia, ib))
        !eb)
    !ea

(* Per-attribute derived bitsets and parse caches, built once per
   training set before candidates fan out.  Every structure here is
   immutable afterwards, so pool worker domains share them freely.

   [tru]/[fls] are only built for single-instance Bool-typed columns
   (boolean-implication slots); [numv]/[sizv] for Number-/Size-typed
   ones.  Attributes with multi-instance cells fall back to the generic
   per-row evaluator.  [ante_cnt] and [base_rate] pre-answer the
   vacuity and lift questions per attribute, so per-candidate they cost
   one array read instead of a popcount. *)
type fast = {
  c : columnar;
  meta : meta;
  bits : Bitcol.t;
  tru : Bitset.t option array;   (* single value truthy-true, per attr id *)
  fls : Bitset.t option array;   (* single value truthy-false *)
  tany : Bitset.t option array;  (* tru OR fls *)
  ante_cnt : (int * int) option array;      (* (|tru|, |fls|) *)
  base_rate : (float * float) option array; (* consequent base rate, pb=(t,f) *)
  numv : (float array * Bitset.t) option array;  (* parsed Strutil numbers *)
  sizv : (int array * Bitset.t) option array;    (* parsed Strutil sizes *)
}

let build_value_cache bits view a ~zero parse =
  match Bitcol.single_ids bits a with
  | None -> None
  | Some _ ->
      let col = Encore_dataset.Colview.column view a in
      let n = Array.length col in
      let vals = Array.make n zero in
      let ok = Bitset.create n in
      Array.iter
        (fun i ->
          match col.(i) with
          | [ v ] -> (
              match parse v with
              | Some f ->
                  vals.(i) <- f;
                  Bitset.set ok i
              | None -> ())
          | _ -> ())
        (Bitcol.index bits a);
      Some (vals, ok)

let build_fast ?bits ~meta c =
  let view = c.cols in
  let bits =
    match bits with Some b -> b | None -> Bitcol.of_colview view
  in
  let n_attrs = Encore_dataset.Colview.n_attrs view in
  let tru = Array.make n_attrs None
  and fls = Array.make n_attrs None
  and tany = Array.make n_attrs None
  and ante_cnt = Array.make n_attrs None
  and base_rate = Array.make n_attrs None
  and numv = Array.make n_attrs None
  and sizv = Array.make n_attrs None in
  Array.iteri
    (fun a (ctype : Encore_typing.Ctype.t) ->
      match ctype with
      | Encore_typing.Ctype.Bool_t -> (
          match Bitcol.single_ids bits a with
          | None -> ()
          | Some _ ->
              let col = Encore_dataset.Colview.column view a in
              let t = Bitset.create (Bitcol.n_rows bits)
              and f = Bitset.create (Bitcol.n_rows bits) in
              Array.iter
                (fun i ->
                  match col.(i) with
                  | [ v ] -> (
                      match truthy v with
                      | Some true -> Bitset.set t i
                      | Some false -> Bitset.set f i
                      | None -> ())
                  | _ -> ())
                (Bitcol.index bits a);
              tru.(a) <- Some t;
              fls.(a) <- Some f;
              tany.(a) <- Some (Bitset.union t f);
              let ct = Bitset.count t and cf = Bitset.count f in
              ante_cnt.(a) <- Some (ct, cf);
              let present = Bitset.count (Bitcol.presence bits a) in
              if present > 0 then
                base_rate.(a) <-
                  Some
                    ( float_of_int ct /. float_of_int present,
                      float_of_int cf /. float_of_int present ))
      | Encore_typing.Ctype.Number | Encore_typing.Ctype.Port_number ->
          numv.(a) <-
            build_value_cache bits view a ~zero:0.0
              Encore_util.Strutil.parse_number
      | Encore_typing.Ctype.Size ->
          sizv.(a) <-
            build_value_cache bits view a ~zero:0
              Encore_util.Strutil.parse_size
      | _ -> ())
    meta.ctypes;
  { c; meta; bits; tru; fls; tany; ante_cnt; base_rate; numv; sizv }

(* Generic per-row fallback, restricted to the co-presence intersection:
   walk the sparser attribute's dense index and test membership in the
   other's presence bitset, so absent rows are never touched. *)
let eval_generic_inter fast template ia ib =
  let ca = Encore_dataset.Colview.column fast.c.cols ia
  and cb = Encore_dataset.Colview.column fast.c.cols ib in
  let pa = Bitcol.presence fast.bits ia
  and pb = Bitcol.presence fast.bits ib in
  let ixa = Bitcol.index fast.bits ia and ixb = Bitcol.index fast.bits ib in
  let applicable = ref 0 and valid = ref 0 in
  let visit i =
    match
      Relation.eval template.Template.relation fast.c.ctxs.(i) ~a:ca.(i)
        ~b:cb.(i)
    with
    | None -> ()
    | Some true ->
        incr applicable;
        incr valid
    | Some false -> incr applicable
  in
  if Array.length ixa <= Array.length ixb then
    Array.iter (fun i -> if Bitset.mem pb i then visit i) ixa
  else Array.iter (fun i -> if Bitset.mem pa i then visit i) ixb;
  (!applicable, !valid)

(* (applicable, valid) for one candidate, via popcounts and typed value
   arrays where the columns allow it, the generic evaluator otherwise.
   Must agree exactly with {!evaluate_instantiation_cols}. *)
let counts_fast fast template ia ib ~co_present =
  match template.Template.relation with
  | Relation.Eq_all | Relation.Eq_exists -> (
      match (Bitcol.single_ids fast.bits ia, Bitcol.single_ids fast.bits ib) with
      | Some va, Some vb ->
          (* single-instance cells: both equality flavours degenerate to
             one interned-id comparison per co-present row *)
          let valid =
            Bitset.fold_inter
              (Bitcol.presence fast.bits ia)
              (Bitcol.presence fast.bits ib)
              ~init:0
              (fun acc i -> if va.(i) = vb.(i) then acc + 1 else acc)
          in
          (co_present, valid)
      | _ -> eval_generic_inter fast template ia ib)
  | Relation.Bool_implies (pa, pb) -> (
      match (fast.tany.(ia), fast.tany.(ib)) with
      | Some ta, Some tb ->
          let applicable = Bitset.inter_count ta tb in
          let ante =
            match (if pa then fast.tru.(ia) else fast.fls.(ia)) with
            | Some s -> s
            | None -> assert false
          and not_cons =
            match (if pb then fast.fls.(ib) else fast.tru.(ib)) with
            | Some s -> s
            | None -> assert false
          in
          (applicable, applicable - Bitset.inter_count ante not_cons)
      | _ -> eval_generic_inter fast template ia ib)
  | Relation.Num_less -> (
      match (fast.numv.(ia), fast.numv.(ib)) with
      | Some (va, oka), Some (vb, okb) ->
          let applicable = Bitset.inter_count oka okb in
          let valid =
            Bitset.fold_inter oka okb ~init:0 (fun acc i ->
                if va.(i) < vb.(i) then acc + 1 else acc)
          in
          (applicable, valid)
      | _ -> eval_generic_inter fast template ia ib)
  | Relation.Size_less -> (
      match (fast.sizv.(ia), fast.sizv.(ib)) with
      | Some (va, oka), Some (vb, okb) ->
          let applicable = Bitset.inter_count oka okb in
          let valid =
            Bitset.fold_inter oka okb ~init:0 (fun acc i ->
                if va.(i) < vb.(i) then acc + 1 else acc)
          in
          (applicable, valid)
      | _ -> eval_generic_inter fast template ia ib)
  | Relation.Subnet | Relation.Concat_path | Relation.Substring
  | Relation.User_in_group | Relation.Not_accessible | Relation.Ownership ->
      eval_generic_inter fast template ia ib

let antecedent_support_fast fast relation ia =
  match relation with
  | Relation.Bool_implies (pa, _) ->
      Some
        (match fast.ante_cnt.(ia) with
         | Some (t, f) -> if pa then t else f
         | None ->
             (* multi-instance boolean column: count per row *)
             let col = Encore_dataset.Colview.column fast.c.cols ia in
             Array.fold_left
               (fun acc i ->
                 if List.exists (fun v -> truthy v = Some pa) col.(i) then
                   acc + 1
                 else acc)
               0 (Bitcol.index fast.bits ia))
  | _ -> None

let consequent_base_rate_fast fast relation ib =
  match relation with
  | Relation.Bool_implies (_, pb) -> (
      match fast.base_rate.(ib) with
      | Some (t, f) -> Some (if pb then t else f)
      | None ->
          let present = Bitset.count (Bitcol.presence fast.bits ib) in
          if present = 0 then None
          else
            let col = Encore_dataset.Colview.column fast.c.cols ib in
            let matching =
              Array.fold_left
                (fun acc i ->
                  if List.for_all (fun v -> truthy v = Some pb) col.(i) then
                    acc + 1
                  else acc)
                0 (Bitcol.index fast.bits ib)
            in
            Some (float_of_int matching /. float_of_int present))
  | _ -> None

(* --- sharded evaluation --------------------------------------------------- *)

(* Candidates are judged in fixed-size shards, each folding into a
   domain-local accumulator; shard boundaries depend only on the
   candidate list, never on the job count, and the merge walks shards
   in order — so the rule list and the rejection counters are
   byte-identical at any [--jobs]. *)
type shard_acc = {
  kept_rev : Template.rule list;
  rej_support : int;
  rej_confidence : int;
}

let shard_size = 256

let shard_candidates candidates =
  let arr = Array.of_list candidates in
  let n = Array.length arr in
  let n_shards = (n + shard_size - 1) / shard_size in
  List.init n_shards (fun s ->
      Array.sub arr (s * shard_size) (min shard_size (n - (s * shard_size))))

let evaluate_shard judge shard =
  Array.fold_left
    (fun acc cand ->
      match judge cand with
      | Kept rule -> { acc with kept_rev = rule :: acc.kept_rev }
      | Rejected_support -> { acc with rej_support = acc.rej_support + 1 }
      | Rejected_confidence ->
          { acc with rej_confidence = acc.rej_confidence + 1 })
    { kept_rev = []; rej_support = 0; rej_confidence = 0 }
    shard

let sort_rules rules =
  List.sort
    (fun (a : Template.rule) b ->
      match compare b.confidence a.confidence with
      | 0 -> compare b.support a.support
      | c -> c)
    rules

let emit_metrics ~candidates ~rej_support ~rej_confidence ~kept =
  Encore_obs.Metrics.incr ~by:candidates
    (Encore_obs.Metrics.counter "rules.candidates");
  Encore_obs.Metrics.incr ~by:rej_support
    (Encore_obs.Metrics.counter "rules.rejected_support");
  Encore_obs.Metrics.incr ~by:rej_confidence
    (Encore_obs.Metrics.counter "rules.rejected_confidence");
  Encore_obs.Metrics.incr ~by:kept (Encore_obs.Metrics.counter "rules.kept")

(* --- counts engine -------------------------------------------------------- *)

(* The per-candidate arithmetic of {!infer}, exposed as a handle over a
   prebuilt view/overlay so {!Suffstats} can maintain (applicable,
   valid) counts as mergeable integers: candidates and verdicts are
   regenerated from cached counts instead of re-scanning every row.
   Every function here reuses the exact code paths of {!infer}, so a
   verdict computed from counts equals the batch verdict bit for bit. *)
type engine = { fast : fast }

let engine_of ~types ~ctxs ~view ~bits =
  let c = { cols = view; ctxs } in
  let meta = meta_of ~types view in
  { fast = build_fast ~bits ~meta c }

let engine_instantiations eng template = instantiations_idx eng.fast.meta template
let engine_attr eng i = eng.fast.meta.names.(i)

let co_presence fast ia ib =
  Bitset.inter_count (Bitcol.presence fast.bits ia) (Bitcol.presence fast.bits ib)

let engine_counts eng (template, ia, ib) =
  counts_fast eng.fast template ia ib ~co_present:(co_presence eng.fast ia ib)

(* First index position whose row id is >= [x] (the arrays are
   ascending), so tail scans skip the already-counted prefix. *)
let lower_bound arr x =
  let lo = ref 0 and hi = ref (Array.length arr) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if arr.(mid) < x then lo := mid + 1 else hi := mid
  done;
  !lo

let engine_counts_from eng ~from_row (template, ia, ib) =
  let fast = eng.fast in
  let ixa = Bitcol.index fast.bits ia and ixb = Bitcol.index fast.bits ib in
  let sa = lower_bound ixa from_row and sb = lower_bound ixb from_row in
  let la = Array.length ixa - sa and lb = Array.length ixb - sb in
  if la = 0 || lb = 0 then (0, 0)
  else begin
    let ca = Encore_dataset.Colview.column fast.c.cols ia
    and cb = Encore_dataset.Colview.column fast.c.cols ib in
    let pa = Bitcol.presence fast.bits ia
    and pb = Bitcol.presence fast.bits ib in
    let applicable = ref 0 and valid = ref 0 in
    let visit i =
      match
        Relation.eval template.Template.relation fast.c.ctxs.(i) ~a:ca.(i)
          ~b:cb.(i)
      with
      | None -> ()
      | Some true ->
          incr applicable;
          incr valid
      | Some false -> incr applicable
    in
    if la <= lb then
      for p = sa to Array.length ixa - 1 do
        let i = ixa.(p) in
        if Bitset.mem pb i then visit i
      done
    else
      for p = sb to Array.length ixb - 1 do
        let i = ixb.(p) in
        if Bitset.mem pa i then visit i
      done;
    (!applicable, !valid)
  end

let vacuous fast ~min_support relation ia =
  match antecedent_support_fast fast relation ia with
  | Some s -> s < min_support
  | None -> false

(* Support, confidence and lift from a candidate's counts — the one
   verdict every judge ends in, once vacuity is ruled out. *)
let verdict_of_counts fast ~params ~min_support (template, ia, ib) ~applicable
    ~valid =
  if applicable < min_support then Rejected_support
  else
    let min_conf =
      Option.value ~default:params.min_confidence template.Template.min_confidence
    in
    let confidence = float_of_int valid /. float_of_int applicable in
    let lifts =
      match consequent_base_rate_fast fast template.Template.relation ib with
      | Some base -> confidence >= base +. min_lift_margin
      | None -> true
    in
    if confidence >= min_conf && lifts then
      Kept
        { Template.template;
          attr_a = fast.meta.names.(ia);
          attr_b = fast.meta.names.(ib);
          support = applicable; confidence }
    else Rejected_confidence

let engine_verdict eng ~params ~min_support ((template, ia, _) as c)
    ~applicable ~valid =
  if vacuous eng.fast ~min_support template.Template.relation ia then
    Rejected_support
  else verdict_of_counts eng.fast ~params ~min_support c ~applicable ~valid

let candidates_of ~types ~templates attrs =
  List.concat_map
    (fun template ->
      List.map
        (fun (a, b) -> (template, a, b))
        (instantiations ~types template attrs))
    templates

let min_support_of ~params n =
  max 2 (int_of_float (ceil (params.min_support_frac *. float_of_int n)))

let infer ?(params = default_params) ?(templates = Template.predefined)
    ?jobs ?pool ?view ~types training =
  let templates = expand_polarities templates in
  let min_support = min_support_of ~params (List.length training) in
  let columnar = columnar_of_training ?view training in
  let meta = meta_of ~types columnar.cols in
  let fast = build_fast ~meta columnar in
  (* candidates are generated over interned column ids (the view's
     first-appearance order), so the judging loop never touches an
     attribute name until a rule is actually kept *)
  let candidates =
    List.concat_map (fun t -> instantiations_idx meta t) templates
  in
  (* vacuity, then the co-presence popcount (applicable <= co-present,
     so it alone disposes of candidates that cannot reach minimum
     support), then the counts and the shared verdict *)
  let judge ((template, ia, ib) as c) =
    if vacuous fast ~min_support template.Template.relation ia then
      Rejected_support
    else
      let co_present = co_presence fast ia ib in
      if co_present < min_support then Rejected_support
      else
        let applicable, valid = counts_fast fast template ia ib ~co_present in
        verdict_of_counts fast ~params ~min_support c ~applicable ~valid
  in
  let shards = shard_candidates candidates in
  let accs =
    (* zero state sharing between shard evaluations: each shard folds
       into its own accumulator on whichever domain runs it; [Pool.map]
       keeps shard order for the merge below *)
    match pool with
    | Some p -> Encore_util.Pool.map p (evaluate_shard judge) shards
    | None -> (
        match jobs with
        | Some j when j > 1 ->
            Encore_util.Pool.with_pool ~jobs:j (fun p ->
                Encore_util.Pool.map p (evaluate_shard judge) shards)
        | Some _ | None -> List.map (evaluate_shard judge) shards)
  in
  let rej_support =
    List.fold_left (fun n s -> n + s.rej_support) 0 accs
  and rej_confidence =
    List.fold_left (fun n s -> n + s.rej_confidence) 0 accs
  in
  let rules = List.concat_map (fun s -> List.rev s.kept_rev) accs in
  emit_metrics ~candidates:(List.length candidates) ~rej_support
    ~rej_confidence ~kept:(List.length rules);
  sort_rules rules

(* The pre-bitset evaluator, retained verbatim as the semantic
   reference: every candidate walks the full columnar row range through
   {!Relation.eval}.  Equivalence tests pin the fast path to it, and
   the bench's learn stage reports the speedup against it. *)
let infer_reference ?(params = default_params)
    ?(templates = Template.predefined) ?jobs ?pool ?view ~types training =
  let templates = expand_polarities templates in
  let min_support = min_support_of ~params (List.length training) in
  let columnar = columnar_of_training ?view training in
  let attrs = Encore_dataset.Colview.attrs columnar.cols in
  let candidates = candidates_of ~types ~templates attrs in
  let judge = evaluate_candidate ~params ~min_support columnar in
  let verdicts =
    match pool with
    | Some p -> Encore_util.Pool.map p judge candidates
    | None -> (
        match jobs with
        | Some j when j > 1 ->
            Encore_util.Pool.with_pool ~jobs:j (fun p ->
                Encore_util.Pool.map p judge candidates)
        | Some _ | None -> List.map judge candidates)
  in
  let rej_support = ref 0 and rej_confidence = ref 0 in
  let rules =
    List.filter_map
      (function
        | Kept rule -> Some rule
        | Rejected_support ->
            incr rej_support;
            None
        | Rejected_confidence ->
            incr rej_confidence;
            None)
      verdicts
  in
  emit_metrics ~candidates:(List.length candidates) ~rej_support:!rej_support
    ~rej_confidence:!rej_confidence ~kept:(List.length rules);
  sort_rules rules
