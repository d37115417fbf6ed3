
type t =
  | Bmc_only of Bmc.check
  | Itp
  | Itpseq of Bmc.check
  | Sitpseq of float * Bmc.check
  | Itpseq_cba of float * Bmc.check
  | Itpseq_pba of float * Bmc.check
  | Kind
  | Pdr
  | Portfolio

(* Under PBA, α = 0 selects the parallel extraction on the abstraction. *)
let pba_mode a = if a > 0.0 then Seq_family.Serial a else Seq_family.Parallel

let name = function
  | Bmc_only c -> Printf.sprintf "bmc-%s" (Bmc.check_name c)
  | Itp -> "itp"
  | Itpseq c -> Itpseq_verif.name ~abstraction:No_abstraction ~mode:Seq_family.Parallel c
  | Sitpseq (a, c) ->
    Itpseq_verif.name ~abstraction:No_abstraction ~mode:(Seq_family.Serial a) c
  | Itpseq_cba (a, c) -> Itpseq_verif.name ~abstraction:Cba ~mode:(Seq_family.Serial a) c
  | Itpseq_pba (a, c) -> Itpseq_verif.name ~abstraction:Pba ~mode:(pba_mode a) c
  | Kind -> "kind"
  | Pdr -> "pdr"
  | Portfolio -> "portfolio"

(* A parameterized tail "<alpha>[-<check>]", as [name] prints it — so
   every [name] spelling round-trips through [of_name].  An α that [name]
   would print as another number is refused: the run, its ledger entry
   and its checkpoint would otherwise name a different engine. *)
let parse_param s ~default_check rest mk =
  let alpha_s, check_s =
    match String.index_opt rest '-' with
    | Some i ->
      (String.sub rest 0 i, Some (String.sub rest (i + 1) (String.length rest - i - 1)))
    | None -> (rest, None)
  in
  match float_of_string_opt alpha_s with
  | Some a when a >= 0.0 && a <= 1.0 -> (
    let printed = Itpseq_verif.alpha_name a in
    if float_of_string printed <> a then
      Some
        (Error
           (Printf.sprintf
              "engine %S: alpha %s would be recorded as %s; give at most 6 \
               significant digits"
              s alpha_s printed))
    else
      match check_s with
      | None -> Some (Ok (mk a default_check))
      | Some "assume" -> Some (Ok (mk a Bmc.Assume))
      | Some "exact" -> Some (Ok (mk a Bmc.Exact))
      | Some _ -> None)
  | _ -> None

let of_name s =
  match s with
  | "bmc" | "bmc-assume" -> Ok (Bmc_only Bmc.Assume)
  | "bmc-exact" -> Ok (Bmc_only Bmc.Exact)
  | "bmc-bound" -> Ok (Bmc_only Bmc.Bound)
  | "itp" -> Ok Itp
  | "itpseq" | "itpseq-assume" -> Ok (Itpseq Bmc.Assume)
  | "itpseq-exact" -> Ok (Itpseq Bmc.Exact)
  | "sitpseq" | "sitpseq-assume" -> Ok (Sitpseq (0.5, Bmc.Assume))
  | "sitpseq-exact" -> Ok (Sitpseq (0.5, Bmc.Exact))
  | "itpseqcba" -> Ok (Itpseq_cba (0.5, Bmc.Exact))
  | "itpseqcba-assume" -> Ok (Itpseq_cba (0.5, Bmc.Assume))
  | "itpseqcba-exact" -> Ok (Itpseq_cba (0.5, Bmc.Exact))
  | "itpseqpba" -> Ok (Itpseq_pba (0.0, Bmc.Exact))
  | "itpseqpba-assume" -> Ok (Itpseq_pba (0.0, Bmc.Assume))
  | "itpseqpba-exact" -> Ok (Itpseq_pba (0.0, Bmc.Exact))
  | "kind" -> Ok Kind
  | "pdr" -> Ok Pdr
  | "portfolio" -> Ok Portfolio
  | s -> (
    let param (prefix, default_check, mk) =
      let np = String.length prefix in
      if String.length s > np && String.sub s 0 np = prefix then
        parse_param s ~default_check (String.sub s np (String.length s - np)) mk
      else None
    in
    match
      List.find_map param
        [
          ("sitpseq", Bmc.Assume, fun a c -> Sitpseq (a, c));
          ("itpseqcba", Bmc.Exact, fun a c -> Itpseq_cba (a, c));
          ("itpseqpba", Bmc.Exact, fun a c -> Itpseq_pba (a, c));
        ]
    with
    | Some r -> r
    | None ->
      Error
        (Printf.sprintf
           "unknown engine %S (expected bmc[-exact|-bound], itp, itpseq[-exact], \
            sitpseq[<alpha>][-exact], itpseqcba[<alpha>][-assume|-exact], \
            itpseqpba[<alpha>][-assume|-exact], kind, pdr, portfolio)"
           s))

let all =
  [ Itp; Itpseq Bmc.Assume; Sitpseq (0.5, Bmc.Assume); Itpseq_cba (0.5, Bmc.Exact) ]

let stepper = function
  (* The incremental BMC solver is a portfolio-member tuning knob, not a
     default; plain deepening keeps the historical [run] behavior. *)
  | Bmc_only check -> Some (Bmc.stepper ~check ())
  | Itp -> Some (Itp_verif.stepper ())
  | Itpseq check -> Some (Itpseq_verif.stepper ~mode:Seq_family.Parallel ~check ())
  | Sitpseq (alpha, check) ->
    Some (Itpseq_verif.stepper ~mode:(Seq_family.Serial alpha) ~check ())
  | Itpseq_cba (alpha, check) ->
    Some (Itpseq_verif.stepper ~abstraction:Cba ~mode:(Seq_family.Serial alpha) ~check ())
  | Itpseq_pba (alpha, check) ->
    Some (Itpseq_verif.stepper ~abstraction:Pba ~mode:(pba_mode alpha) ~check ())
  | Kind -> Some (Kind.stepper ())
  | Pdr -> Some (Pdr.stepper ())
  | Portfolio -> None

let run engine ?limits model =
  (* The root span of a run: everything an engine does — bound checks,
     interpolant extraction, SAT calls — nests below it. *)
  Isr_obs.Trace.span "engine"
    ~args:[ ("engine", name engine); ("model", model.Isr_model.Model.name) ]
  @@ fun () ->
  match stepper engine with
  | Some p -> Step.drive (Step.start ?limits p model)
  | None -> Portfolio.verify ?limits model

let verify_both ?limits model =
  List.map (fun e -> (e, fst (run e ?limits model))) all
