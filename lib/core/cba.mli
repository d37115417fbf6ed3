(** Counterexample-based abstraction (CBA) over latches.

    The abstraction freezes a subset of latches: a frozen latch's
    next-frame variable is left unconstrained in the unrolling, turning
    it into a free input — the localization abstraction of [13] in the
    paper.  The initial abstraction keeps only the latches read directly
    by the property cone.

    [EXTEND] replays an abstract counterexample's primary inputs on the
    concrete model (which is deterministic, so {!Sim.first_bad} decides
    it; {!Itpseq_verif} does this for every counterexample);
    [REFINE] re-concretizes the frozen latches whose abstract values
    diverge from the concrete simulation at the earliest divergent
    frame.  When the counterexample does not extend, at least one frozen
    latch is guaranteed to diverge, so refinement always progresses. *)

open Isr_model

type t

val create : Model.t -> t
val frozen : t -> int -> bool
(** Usable as the [?frozen] argument of the unrolling. *)

val num_frozen : t -> int

val freeze_state : t -> bool array
(** A copy of the frozen mask — for checkpoints. *)

val restore_state : t -> bool array -> unit
(** Overwrites the frozen mask with a previously saved copy.
    @raise Invalid_argument on latch-count mismatch. *)

val refine : t -> Trace.t -> abstract_state:(frame:int -> bool array) -> int
(** Re-concretizes divergent latches; returns how many were unfrozen
    (always [>= 1] when called on a non-extending counterexample). *)
