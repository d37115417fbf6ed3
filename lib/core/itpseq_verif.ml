open Isr_sat
open Isr_aig
open Isr_model

let src = Logs.Src.create "isr.itpseq" ~doc:"interpolation sequence engine"

module Log = (val Logs.src_log src : Logs.LOG)

type abstraction = No_abstraction | Cba | Pba

let alpha_name a = Printf.sprintf "%g" a

let name ~abstraction ~mode check =
  let alpha = match mode with Seq_family.Parallel -> 0.0 | Seq_family.Serial a -> a in
  let family =
    match (abstraction, mode) with
    | No_abstraction, Seq_family.Parallel -> "itpseq"
    | No_abstraction, Seq_family.Serial a -> "sitpseq" ^ alpha_name a
    | Cba, _ -> "itpseqcba" ^ alpha_name alpha
    | Pba, _ -> "itpseqpba" ^ alpha_name alpha
  in
  family ^ "-" ^ Bmc.check_name check

(* --- step-wise state machine -------------------------------------------
   One step is the depth-0 check, one attempt at bound [k], or one
   inclusion test of the sweep.  The attempt is where the strategies
   differ: without abstraction it solves the bound and extracts the
   family; under CBA it solves the abstract bound and either takes the
   family, falsifies by extension, or refines and stays at [k]; under
   PBA it solves the concrete bound, harvests the unsat core, and leaves
   the family extraction on the abstraction to an [Abstract] step.
   Snapshots capture the columns and the abstraction mask as of the
   bound's entry; every attempt is deterministic (refinement is
   monotone), so a resume re-drives the bound and lands in the same
   place.  The concrete refutation held by [Abstract] lives only in
   memory, so a snapshot maps it back to the bound's concrete solve. *)

type phase =
  | Check0                                   (* init ∧ bad *)
  | Family                                   (* one attempt at bound [k] *)
  | Abstract of Unroll.t                     (* PBA: extract on the abstraction *)
  | Sweep of { j : int; r : Aig.lit }        (* test ℐ_j ⇒ R_{j-1} = r *)

type mask =
  | Unmasked
  | Frozen of Cba.t                          (* CBA: refined per spurious cex *)
  | Relevant of bool array                   (* PBA: latches in some unsat core *)

type st = {
  model : Model.t;
  limits : Budget.limits;
  budget : Budget.t;
  stats : Verdict.stats;
  mode : Seq_family.mode;
  check : Bmc.check;
  system : Isr_itp.Itp.system option;
  mask : mask;
  incl : Incl.t;                             (* sweep context, a cache *)
  mutable k : int;
  (* Column conjunctions ℐ_j, 1-based; grows by one per bound. *)
  mutable columns : Aig.lit array;
  (* [columns] and the mask as of the entry of bound [k] — what a
     snapshot carries. *)
  mutable entry_columns : Aig.lit array;
  mutable entry_mask : bool array option;
  mutable phase : phase;
}

let num_true a = Array.fold_left (fun n b -> if b then n + 1 else n) 0 a

let mask_state = function
  | Unmasked -> None
  | Frozen cba -> Some (Cba.freeze_state cba)
  | Relevant r -> Some (Array.copy r)

let finish st v =
  Verdict.set_time st.stats (Budget.elapsed st.budget);
  (match st.mask with
  | Unmasked -> ()
  | Frozen cba -> Verdict.set_abstract_latches st.stats (Cba.num_frozen cba)
  | Relevant r -> Verdict.set_abstract_latches st.stats (Array.length r - num_true r));
  (v, st.stats)

let mk ~limits ~abstraction ~mode ~check ~system ~k ~columns ?saved model =
  let mask =
    match abstraction with
    | No_abstraction -> Unmasked
    | Cba ->
      let cba = Cba.create model in
      Option.iter (Cba.restore_state cba) saved;
      Frozen cba
    | Pba -> Relevant (Option.value saved ~default:(Array.make model.Model.num_latches false))
  in
  {
    model;
    limits;
    budget = Budget.start limits;
    stats = Verdict.mk_stats ();
    mode;
    check;
    system;
    mask;
    incl = Incl.create model;
    k;
    columns;
    entry_columns = Array.copy columns;
    entry_mask = mask_state mask;
    phase = (if k = 0 then Check0 else Family);
  }

let next_bound st =
  st.k <- st.k + 1;
  st.entry_columns <- Array.copy st.columns;
  st.entry_mask <- mask_state st.mask;
  st.phase <- Family

(* Solve bound [k] on the model as the mask abstracts it and extract the
   family from the refutation. *)
let attempt st ~k =
  let frozen, detail =
    match st.mask with
    | Unmasked -> (None, None)
    | Frozen cba ->
      (Some (Cba.frozen cba), Some (Printf.sprintf "%d frozen" (Cba.num_frozen cba)))
    | Relevant r ->
      (Some (fun i -> not r.(i)), Some (Printf.sprintf "%d relevant" (num_true r)))
  in
  Verdict.beat st.stats ~step:k ?detail "itpseq.outer";
  Isr_obs.Trace.span "itpseq.outer" ~args:[ ("k", string_of_int k) ] (fun () ->
      Seq_family.compute ?system:st.system st.budget st.stats ?frozen st.model ~mode:st.mode
        ~check:st.check ~k)

(* Conjoin the family into the interior columns, append column [k], and
   start the sweep. *)
let take_family st family =
  let man = st.model.Model.man and entry = st.entry_columns in
  st.columns <-
    Array.init st.k (fun idx ->
        if idx < Array.length entry then Aig.and_ man entry.(idx) family.(idx)
        else family.(idx));
  st.phase <- Sweep { j = 1; r = Model.init_lit st.model };
  Step.Running

(* CBA's REFINE: unfreeze the latches the spurious trace diverges on. *)
let refine st cba u trace ~k =
  let n = Cba.refine cba trace ~abstract_state:(fun ~frame -> Unroll.state_values u ~frame) in
  Verdict.incr_refinements st.stats;
  Verdict.beat st.stats ~step:k ~detail:(Printf.sprintf "refined %d" n) "cba.refine";
  Isr_obs.Trace.instant "cba.refine"
    ~args:
      [
        ("k", string_of_int k);
        ("unfrozen", string_of_int n);
        ("still_frozen", string_of_int (Cba.num_frozen cba));
      ];
  Log.debug (fun m ->
      m "k=%d: refined %d latches (%d still frozen)" k n (Cba.num_frozen cba))

(* A counterexample at bound [k].  Concrete simulation decides it (CBA's
   EXTEND); only an abstract one can fail to reach bad, and refines. *)
let on_cex st u ~k =
  let trace = Unroll.trace u in
  match (Sim.first_bad st.model trace, st.mask) with
  | None, Frozen cba ->
    refine st cba u trace ~k;
    Step.Running
  | depth, _ ->
    let depth = Option.value depth ~default:k in
    Step.Done (finish st (Verdict.Falsified { depth; trace }))

(* PBA: mark the latches whose transition clauses the refutation used. *)
let harvest_core st relevant u ~k =
  List.iter
    (fun cid ->
      match Unroll.latch_of_clause u cid with Some i -> relevant.(i) <- true | None -> ())
    (Proof.core (Solver.proof (Unroll.solver u)));
  Verdict.incr_refinements st.stats;
  let n = num_true relevant in
  Isr_obs.Trace.instant "pba.core"
    ~args:[ ("k", string_of_int k); ("relevant", string_of_int n) ];
  Log.debug (fun m -> m "k=%d: %d relevant latches" k n)

let step st =
  let status =
    Step.budget_guard ~finish:(finish st) @@ fun () ->
    match st.phase with
    | Check0 -> (
      match Bmc.check_depth st.budget st.stats st.model ~check:Bmc.Exact ~k:0 with
      | `Sat u ->
        Step.Done (finish st (Verdict.Falsified { depth = 0; trace = Unroll.trace u }))
      | `Unsat _ ->
        st.k <- 1;
        st.phase <- Family;
        Step.Running)
    | Family -> (
      let k = st.k in
      if k > st.limits.Budget.bound_limit then
        Step.Done
          (finish st (Verdict.Unknown (Verdict.Bound_limit st.limits.Budget.bound_limit)))
      else
        match st.mask with
        | Relevant relevant -> (
          (* Concrete check first: SAT is a real counterexample; UNSAT
             yields the core that drives the abstraction. *)
          match Bmc.check_depth st.budget st.stats st.model ~check:st.check ~k with
          | `Sat u -> on_cex st u ~k
          | `Unsat u ->
            harvest_core st relevant u ~k;
            st.phase <- Abstract u;
            Step.Running)
        | Unmasked | Frozen _ -> (
          match attempt st ~k with
          | `Cex u -> on_cex st u ~k
          | `Family family -> take_family st family))
    | Abstract u ->
      let k = st.k in
      take_family st
        (match attempt st ~k with
        | `Family family -> family
        | `Cex _ ->
          (* Cannot happen — the abstract instance contains the whole
             unsat core of the concrete one — but stay safe: extract the
             family from the concrete refutation. *)
          Seq_family.of_refutation ?system:st.system st.budget st.stats u ~ncuts:k)
    | Sweep { j; r } ->
      (* Inclusion sweep: ℐ_j ⇒ R_{j-1} with R_j = R_{j-1} ∨ ℐ_j. *)
      let k = st.k in
      let c = st.columns.(j - 1) in
      if
        Isr_obs.Trace.span "itpseq.sweep"
          ~args:[ ("k", string_of_int k); ("j", string_of_int j) ]
          (fun () -> Incl.implies st.incl st.budget st.stats c r)
      then begin
        Log.debug (fun m -> m "fixpoint at k=%d j=%d" k j);
        Step.Done (finish st (Verdict.Proved { kfp = k; jfp = j; invariant = Some r }))
      end
      else begin
        if j >= k then next_bound st
        else st.phase <- Sweep { j = j + 1; r = Aig.or_ st.model.Model.man r c };
        Step.Running
      end
  in
  (st, status)

(* Payloads: [(k, cones)] without abstraction, [(k, cones, mask)] with
   one.  A tuple marshals like a record of the same fields, so these are
   the bytes earlier versions wrote, and their checkpoints still resume. *)
let stepper ?(abstraction = No_abstraction) ?(mode = Seq_family.Parallel)
    ?(check = Bmc.Assume) ?system () =
  if check = Bmc.Bound then
    invalid_arg "Itpseq_verif.stepper: bound-k has no single-frame target";
  let mk = mk ~abstraction ~mode ~check ~system in
  Step.Packed
    {
      Step.name = name ~abstraction ~mode check;
      init = (fun ~limits model -> mk ~limits ~k:0 ~columns:[||] model);
      step;
      stats = (fun st -> st.stats);
      bound = (fun st -> st.k);
      snapshot =
        (fun st ->
          let k = match st.phase with Check0 -> 0 | _ -> st.k in
          let cones = Checkpoint.cones_of_lits st.model.Model.man st.entry_columns in
          match st.entry_mask with
          | None -> Marshal.to_string (k, cones) []
          | Some mask -> Marshal.to_string (k, cones, mask) []);
      restore =
        (fun ~limits model payload ->
          let k, cones, saved =
            match abstraction with
            | No_abstraction ->
              let (k, cones) : int * Checkpoint.cone array = Marshal.from_string payload 0 in
              (k, cones, None)
            | Cba | Pba ->
              let (k, cones, mask) : int * Checkpoint.cone array * bool array =
                Marshal.from_string payload 0
              in
              if Array.length mask <> model.Model.num_latches then
                invalid_arg "Itpseq_verif.restore: latch count mismatch";
              (k, cones, Some mask)
          in
          let columns = Checkpoint.lits_of_cones model.Model.man cones in
          mk ~limits ~k ~columns ?saved model);
    }

let verify ?abstraction ?mode ?check ?system ?limits model =
  Step.drive (Step.start ?limits (stepper ?abstraction ?mode ?check ?system ()) model)
