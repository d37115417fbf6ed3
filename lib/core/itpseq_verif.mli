(** Unbounded model checking with interpolation sequences — Figure 2 of
    the paper — as one step machine for the whole ITPSEQ family:

    - the {e parallel} variant (Vizel–Grumberg style, every I{^k}{_j}
      from one refutation) and the {e serial} variant of Section IV-C
      (SITPSEQ, a chain of standard interpolations for the first
      ⌊α·n⌋ terms);
    - ITPSEQCBAVERIF (Figure 5): the same loop with an abstract BMC
      check.  Abstract counterexamples on the frozen-latch model ({!Cba})
      are either extended to concrete failures (FAIL) or refine the
      abstraction; once the abstract instance is unsatisfiable, the
      family is extracted {e from the abstract model}.  Proofs are never
      restarted after a refinement;
    - the proof-based abstraction (PBA) Section V sets aside in favour of
      CBA: the {e concrete} instance is solved first (SAT is a genuine
      counterexample), the latches in its unsat core are collected
      cumulatively across bounds, and the family is extracted from the
      smaller refutation of the abstraction that freezes every other
      latch.

    The matrix of interpolants is maintained column-wise:
    ℐ{_j} = ⋀{_i≥j} I{^i}{_j}, and the fixpoint test ℐ{_j} ⇒ R{_j-1}
    runs after every column update.  The BMC check defaults to
    {e assume-k}, the formulation Section III recommends; [Exact] is
    available for the Figure-7 comparison. *)

open Isr_model

type abstraction =
  | No_abstraction
  | Cba  (** counterexample-based: frozen latches, refined per spurious cex *)
  | Pba  (** proof-based: latches outside every concrete unsat core frozen *)

val alpha_name : float -> string
(** How α is spelled in engine names ([%g]); {!Engine.of_name} accepts
    only an α this reproduces exactly. *)

val name : abstraction:abstraction -> mode:Seq_family.mode -> Bmc.check -> string
(** The {!Engine.name} spelling of a parameter setting: ["itpseq-assume"],
    ["sitpseq0.5-assume"], ["itpseqcba0.5-exact"], ["itpseqpba0-exact"],
    …  Under an abstraction, [Parallel] is spelled as α = 0. *)

val stepper :
  ?abstraction:abstraction ->
  ?mode:Seq_family.mode ->
  ?check:Bmc.check ->
  ?system:Isr_itp.Itp.system ->
  unit ->
  Step.packed
(** The step-wise form: one step is the depth-0 check, one attempt at the
    current bound, or one inclusion test of the sweep.  An attempt
    extracts the family (no abstraction); or extracts it on the abstract
    model, falsifies by extension, or refines and stays at the bound
    (CBA); or solves the concrete bound and harvests its core, leaving
    the abstract extraction to the next step (PBA).  Snapshots carry the
    bound, the column circuits (as portable cones) and the abstraction
    mask as of the bound's entry, so a resume re-drives the bound
    deterministically.  Defaults: no abstraction, [Parallel], [Assume].
    @raise Invalid_argument on [check = Bound]. *)

val verify :
  ?abstraction:abstraction ->
  ?mode:Seq_family.mode ->
  ?check:Bmc.check ->
  ?system:Isr_itp.Itp.system ->
  ?limits:Budget.limits ->
  Model.t ->
  Verdict.t * Verdict.stats
(** {!stepper} driven to completion.
    @raise Invalid_argument on [check = Bound] (sequences require a
    single-frame target). *)
