open Isr_sat
open Isr_aig
open Isr_model

let src = Logs.Src.create "isr.itpseqpba" ~doc:"interpolation sequences + PBA"

module Log = (val Logs.src_log src : Logs.LOG)

(* Latches whose transition-equality clauses appear in the unsat core. *)
let core_latches u proof acc =
  List.iter
    (fun cid ->
      match Unroll.latch_of_clause u cid with
      | Some i -> acc.(i) <- true
      | None -> ())
    (Proof.core proof);
  acc

(* --- step-wise state machine -------------------------------------------
   One step is the depth-0 check, the concrete solve at the current bound
   (which harvests the unsat core), the abstract family extraction, or
   one inclusion test.  Snapshots capture the columns and the relevant
   set as of the bound's entry; the concrete refutation held between the
   concrete and abstract phases lives only in memory, so a snapshot maps
   back to the bound's concrete solve. *)

type phase =
  | Check0
  | Concrete                                 (* concrete solve at [k], harvest core *)
  | Abstract of Unroll.t                     (* extract family on the abstraction *)
  | Sweep of { j : int; r : Aig.lit }

type st = {
  model : Model.t;
  limits : Budget.limits;
  budget : Budget.t;
  stats : Verdict.stats;
  alpha : float;
  check : Bmc.check;
  relevant : bool array;                     (* cumulative across bounds *)
  incl : Incl.t;                             (* sweep context, a cache *)
  mutable k : int;
  mutable columns : Aig.lit array;
  mutable entry_columns : Aig.lit array;
  mutable entry_relevant : bool array;
  mutable phase : phase;
}

type snap = { s_k : int; s_cols : Checkpoint.cone array; s_relevant : bool array }

let finish st v =
  Verdict.set_time st.stats (Budget.elapsed st.budget);
  Verdict.set_abstract_latches st.stats
    (Array.fold_left (fun n b -> if b then n else n + 1) 0 st.relevant);
  (v, st.stats)

let mk ~limits ~alpha ~check ~k ~columns ?relevant model =
  let rel =
    match relevant with
    | Some r -> Array.copy r
    | None -> Array.make model.Model.num_latches false
  in
  {
    model;
    limits;
    budget = Budget.start limits;
    stats = Verdict.mk_stats ();
    alpha;
    check;
    relevant = rel;
    incl = Incl.create model;
    k;
    columns;
    entry_columns = Array.copy columns;
    entry_relevant = Array.copy rel;
    phase = (if k = 0 then Check0 else Concrete);
  }

let next_bound st =
  st.k <- st.k + 1;
  st.entry_columns <- Array.copy st.columns;
  st.entry_relevant <- Array.copy st.relevant;
  st.phase <- Concrete

let step st =
  let status =
    Step.budget_guard ~finish:(finish st) @@ fun () ->
    let man = st.model.Model.man in
    let mode =
      if st.alpha > 0.0 then Seq_family.Serial st.alpha else Seq_family.Parallel
    in
    match st.phase with
    | Check0 -> (
      match Bmc.check_depth st.budget st.stats st.model ~check:Bmc.Exact ~k:0 with
      | `Sat u ->
        Step.Done (finish st (Verdict.Falsified { depth = 0; trace = Unroll.trace u }))
      | `Unsat _ ->
        st.k <- 1;
        st.phase <- Concrete;
        Step.Running)
    | Concrete -> (
      let k = st.k in
      if k > st.limits.Budget.bound_limit then
        Step.Done
          (finish st (Verdict.Unknown (Verdict.Bound_limit st.limits.Budget.bound_limit)))
      else
        (* Concrete check first: SAT is a real counterexample; UNSAT
           yields the core that drives the abstraction. *)
        match Bmc.check_depth st.budget st.stats st.model ~check:st.check ~k with
        | `Sat u ->
          let tr = Unroll.trace u in
          let depth = match Sim.first_bad st.model tr with Some d -> d | None -> k in
          Step.Done (finish st (Verdict.Falsified { depth; trace = tr }))
        | `Unsat u ->
          let proof = Solver.proof (Unroll.solver u) in
          ignore (core_latches u proof st.relevant);
          Verdict.incr_refinements st.stats;
          let nrelevant =
            Array.fold_left (fun n b -> if b then n + 1 else n) 0 st.relevant
          in
          Isr_obs.Trace.instant "pba.core"
            ~args:[ ("k", string_of_int k); ("relevant", string_of_int nrelevant) ];
          Log.debug (fun m -> m "k=%d: %d relevant latches" k nrelevant);
          st.phase <- Abstract u;
          Step.Running)
    | Abstract u ->
      let k = st.k in
      let nrelevant = Array.fold_left (fun n b -> if b then n + 1 else n) 0 st.relevant in
      let frozen i = not st.relevant.(i) in
      Verdict.beat st.stats ~step:k
        ~detail:(Printf.sprintf "%d relevant" nrelevant)
        "itpseq.outer";
      let family =
        match
          Isr_obs.Trace.span "itpseq.outer" ~args:[ ("k", string_of_int k) ] (fun () ->
              Seq_family.compute st.budget st.stats ~frozen st.model ~mode ~check:st.check
                ~k)
        with
        | `Family family -> family
        | `Cex _ ->
          (* Cannot happen — the abstract instance contains the whole
             unsat core of the concrete one — but stay safe: extract the
             family from the concrete refutation. *)
          Seq_family.of_refutation st.budget st.stats u ~ncuts:k
      in
      let entry = st.entry_columns in
      st.columns <-
        Array.init k (fun idx ->
            if idx < Array.length entry then Aig.and_ man entry.(idx) family.(idx)
            else family.(idx));
      st.phase <- Sweep { j = 1; r = Model.init_lit st.model };
      Step.Running
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

let stepper ?(alpha = 0.0) ?(check = Bmc.Exact) () =
  if check = Bmc.Bound then
    invalid_arg "Itpseq_pba_verif.stepper: bound-k has no single-frame target";
  Step.Packed
    {
      Step.name = Printf.sprintf "itpseqpba%.2g-%s" alpha (Bmc.check_name check);
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
              s_relevant = st.entry_relevant;
            }
            []);
      restore =
        (fun ~limits model payload ->
          let s : snap = Marshal.from_string payload 0 in
          if Array.length s.s_relevant <> model.Model.num_latches then
            invalid_arg "Itpseq_pba_verif.restore: latch count mismatch";
          let columns = Checkpoint.lits_of_cones model.Model.man s.s_cols in
          mk ~limits ~alpha ~check ~k:s.s_k ~columns ~relevant:s.s_relevant model);
    }

let verify ?(alpha = 0.0) ?(check = Bmc.Exact) ?limits model =
  Step.drive (Step.start ?limits (stepper ~alpha ~check ()) model)
