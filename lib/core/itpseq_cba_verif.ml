open Isr_aig
open Isr_model

let src = Logs.Src.create "isr.itpseqcba" ~doc:"interpolation sequences + CBA"

module Log = (val Logs.src_log src : Logs.LOG)

(* --- step-wise state machine -------------------------------------------
   One step is the depth-0 check, one abstract attempt at the current
   bound (which either yields a family, falsifies by extension, or
   refines the abstraction and stays), or one inclusion test.  Snapshots
   capture the columns and frozen mask as of the bound's entry;
   refinement is monotone and deterministic, so a resume replays the
   bound's refinements and lands in the same place. *)

type phase =
  | Check0
  | Family                                   (* one abstract attempt at [k] *)
  | Sweep of { j : int; r : Aig.lit }

type st = {
  model : Model.t;
  limits : Budget.limits;
  budget : Budget.t;
  stats : Verdict.stats;
  alpha : float;
  check : Bmc.check;
  cba : Cba.t;
  incl : Incl.t;                             (* sweep context, a cache *)
  mutable k : int;
  mutable columns : Aig.lit array;
  mutable entry_columns : Aig.lit array;
  mutable entry_frozen : bool array;
  mutable phase : phase;
}

type snap = { s_k : int; s_cols : Checkpoint.cone array; s_frozen : bool array }

let finish st v =
  Verdict.set_time st.stats (Budget.elapsed st.budget);
  Verdict.set_abstract_latches st.stats (Cba.num_frozen st.cba);
  (v, st.stats)

let mk ~limits ~alpha ~check ~k ~columns ?frozen model =
  let cba = Cba.create model in
  (match frozen with Some f -> Cba.restore_state cba f | None -> ());
  {
    model;
    limits;
    budget = Budget.start limits;
    stats = Verdict.mk_stats ();
    alpha;
    check;
    cba;
    incl = Incl.create model;
    k;
    columns;
    entry_columns = Array.copy columns;
    entry_frozen = Cba.freeze_state cba;
    phase = (if k = 0 then Check0 else Family);
  }

let next_bound st =
  st.k <- st.k + 1;
  st.entry_columns <- Array.copy st.columns;
  st.entry_frozen <- Cba.freeze_state st.cba;
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
        (* One abstract attempt: extend, refine, or accept the family. *)
        Verdict.beat st.stats ~step:k
          ~detail:(Printf.sprintf "%d frozen" (Cba.num_frozen st.cba))
          "itpseq.outer";
        match
          Isr_obs.Trace.span "itpseq.outer" ~args:[ ("k", string_of_int k) ] (fun () ->
              Seq_family.compute st.budget st.stats ~frozen:(Cba.frozen st.cba) st.model
                ~mode:(Seq_family.Serial st.alpha) ~check:st.check ~k)
        with
        | `Cex u -> (
          let tr = Unroll.trace u in
          match Cba.extend st.cba tr with
          | Some depth -> Step.Done (finish st (Verdict.Falsified { depth; trace = tr }))
          | None ->
            let n =
              Cba.refine st.cba tr ~abstract_state:(fun ~frame ->
                  Unroll.state_values u ~frame)
            in
            Verdict.incr_refinements st.stats;
            Verdict.beat st.stats ~step:k
              ~detail:(Printf.sprintf "refined %d" n)
              "cba.refine";
            Isr_obs.Trace.instant "cba.refine"
              ~args:
                [
                  ("k", string_of_int k);
                  ("unfrozen", string_of_int n);
                  ("still_frozen", string_of_int (Cba.num_frozen st.cba));
                ];
            Log.debug (fun m ->
                m "k=%d: refined %d latches (%d still frozen)" k n
                  (Cba.num_frozen st.cba));
            Step.Running)
        | `Family family ->
          let entry = st.entry_columns in
          st.columns <-
            Array.init k (fun idx ->
                if idx < Array.length entry then Aig.and_ man entry.(idx) family.(idx)
                else family.(idx));
          st.phase <- Sweep { j = 1; r = Model.init_lit st.model };
          Step.Running
      end)
    | Sweep { j; r } ->
      let k = st.k in
      let c = st.columns.(j - 1) in
      if
        Isr_obs.Trace.span "itpseq.sweep"
          ~args:[ ("k", string_of_int k); ("j", string_of_int j) ]
          (fun () -> Incl.implies st.incl st.budget st.stats c r)
      then Step.Done (finish st (Verdict.Proved { kfp = k; jfp = j; invariant = Some r }))
      else begin
        if j >= k then next_bound st
        else st.phase <- Sweep { j = j + 1; r = Aig.or_ man r c };
        Step.Running
      end
  in
  (st, status)

let stepper ?(alpha = 0.5) ?(check = Bmc.Exact) () =
  if check = Bmc.Bound then
    invalid_arg "Itpseq_cba_verif.stepper: bound-k has no single-frame target";
  Step.Packed
    {
      Step.name = Printf.sprintf "itpseqcba%.2g-%s" alpha (Bmc.check_name check);
      init =
        (fun ~limits model -> mk ~limits ~alpha ~check ~k:0 ~columns:[||] model);
      step;
      stats = (fun st -> st.stats);
      bound = (fun st -> st.k);
      snapshot =
        (fun st ->
          let s_k = match st.phase with Check0 -> 0 | _ -> st.k in
          Marshal.to_string
            {
              s_k;
              s_cols = Checkpoint.cones_of_lits st.model.Model.man st.entry_columns;
              s_frozen = st.entry_frozen;
            }
            []);
      restore =
        (fun ~limits model payload ->
          let s : snap = Marshal.from_string payload 0 in
          let columns = Checkpoint.lits_of_cones model.Model.man s.s_cols in
          mk ~limits ~alpha ~check ~k:s.s_k ~columns ~frozen:s.s_frozen model);
    }

let verify ?(alpha = 0.5) ?(check = Bmc.Exact) ?limits model =
  Step.drive (Step.start ?limits (stepper ~alpha ~check ()) model)
