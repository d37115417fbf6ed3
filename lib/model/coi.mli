(** Cone-of-influence reduction: drop every latch and primary input the
    property cannot observe.

    The static counterpart of the dynamic localization the CBA engine
    performs — useful as a preprocessing step and as a reference point
    for how much of a design is {e syntactically} irrelevant (CBA can
    freeze more, since it also exploits semantic irrelevance). *)



type reduction = {
  model : Model.t;            (** the reduced model *)
  kept_latches : int array;   (** reduced latch index -> original index *)
  kept_inputs : int array;    (** reduced input index -> original index *)
  source_inputs : int;        (** primary inputs of the original model *)
}

val reduce : Model.t -> reduction
(** Computes the least set of latches closed under next-state support
    containing the property's latch support, and rebuilds the model on
    it.  The reduced model is bad-reachability-equivalent to the
    original. *)

val lift_trace : reduction -> Trace.t -> Trace.t
(** Lifts a counterexample of the reduced model back to the original
    input space: every frame is [source_inputs] wide, and dropped inputs
    are set to false — any value works, they cannot influence the
    property. *)
