open Isr_aig
open Isr_model

let src = Logs.Src.create "isr.itpseq" ~doc:"interpolation sequence engine"

module Log = (val Logs.src_log src : Logs.LOG)

(* --- step-wise state machine -------------------------------------------
   One step is the depth-0 check, one bound instance (BMC + sequence
   extraction + column update), or one inclusion test of the sweep.
   Snapshots capture the columns as they stood at entry of the current
   bound, so a resume re-drives the bound's family and sweep — both
   deterministic. *)

type phase =
  | Check0                                   (* init ∧ bad *)
  | Family                                   (* solve bound [k], extract sequence *)
  | Sweep of { j : int; r : Aig.lit }        (* test ℐ_j ⇒ R_{j-1} = r *)

type st = {
  model : Model.t;
  limits : Budget.limits;
  budget : Budget.t;
  stats : Verdict.stats;
  mode : Seq_family.mode;
  check : Bmc.check;
  system : Isr_itp.Itp.system option;
  incl : Incl.t;                             (* sweep context, a cache *)
  mutable k : int;
  (* Column conjunctions ℐ_j, 1-based; grows by one per bound. *)
  mutable columns : Aig.lit array;
  (* [columns] as of the entry of bound [k] — what a snapshot carries. *)
  mutable entry_columns : Aig.lit array;
  mutable phase : phase;
}

type snap = { s_k : int; s_cols : Checkpoint.cone array }

let finish st v =
  Verdict.set_time st.stats (Budget.elapsed st.budget);
  (v, st.stats)

let mk ~limits ~mode ~check ~system ~k ~columns model =
  {
    model;
    limits;
    budget = Budget.start limits;
    stats = Verdict.mk_stats ();
    mode;
    check;
    system;
    incl = Incl.create model;
    k;
    columns;
    entry_columns = Array.copy columns;
    phase = (if k = 0 then Check0 else Family);
  }

let next_bound st =
  st.k <- st.k + 1;
  st.entry_columns <- Array.copy st.columns;
  st.phase <- Family

let step st =
  let status =
    Step.budget_guard ~finish:(finish st) @@ fun () ->
    let man = st.model.Model.man in
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
      else begin
        Verdict.beat st.stats ~step:k "itpseq.outer";
        Isr_obs.Trace.span "itpseq.outer" ~args:[ ("k", string_of_int k) ] (fun () ->
            Seq_family.compute ?system:st.system st.budget st.stats st.model
              ~mode:st.mode ~check:st.check ~k)
        |> function
        | `Cex u ->
          let tr = Unroll.trace u in
          let depth = match Sim.first_bad st.model tr with Some d -> d | None -> k in
          Step.Done (finish st (Verdict.Falsified { depth; trace = tr }))
        | `Family family ->
          (* Update columns: conjoin interior terms, append column k. *)
          let entry = st.entry_columns in
          st.columns <-
            Array.init k (fun idx ->
                if idx < Array.length entry then Aig.and_ man entry.(idx) family.(idx)
                else family.(idx));
          st.phase <- Sweep { j = 1; r = Model.init_lit st.model };
          Step.Running
      end)
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
        else st.phase <- Sweep { j = j + 1; r = Aig.or_ man r c };
        Step.Running
      end
  in
  (st, status)

let stepper ?(mode = Seq_family.Parallel) ?(check = Bmc.Assume) ?system () =
  if check = Bmc.Bound then
    invalid_arg "Itpseq_verif.stepper: bound-k has no single-frame target";
  let name =
    match mode with
    | Seq_family.Parallel -> Printf.sprintf "itpseq-%s" (Bmc.check_name check)
    | Seq_family.Serial a -> Printf.sprintf "sitpseq%.2g-%s" a (Bmc.check_name check)
  in
  Step.Packed
    {
      Step.name;
      init = (fun ~limits model -> mk ~limits ~mode ~check ~system ~k:0 ~columns:[||] model);
      step;
      stats = (fun st -> st.stats);
      bound = (fun st -> st.k);
      snapshot =
        (fun st ->
          let s_k = match st.phase with Check0 -> 0 | _ -> st.k in
          Marshal.to_string
            { s_k; s_cols = Checkpoint.cones_of_lits st.model.Model.man st.entry_columns }
            []);
      restore =
        (fun ~limits model payload ->
          let s : snap = Marshal.from_string payload 0 in
          let columns = Checkpoint.lits_of_cones model.Model.man s.s_cols in
          mk ~limits ~mode ~check ~system ~k:s.s_k ~columns model);
    }

let verify ?(mode = Seq_family.Parallel) ?(check = Bmc.Assume) ?system ?limits model =
  Step.drive (Step.start ?limits (stepper ~mode ~check ?system ()) model)
