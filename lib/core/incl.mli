(** SAT-based implication checks between state predicates (circuits over
    the model's latch literals) — the fixpoint tests [ℐ_j ⇒ R_{j-1}] of
    the engines.

    A context serves one engine run (ITP, whose traversal restarts from
    the initial states at every bound, takes a fresh one per bound, so
    the dead chains of earlier bounds stay out of its search).  It owns one solver and one Tseitin
    encoder whose node cache lives as long as the context, so a query
    encodes only the AIG nodes no earlier query reached — with R_j =
    R_{j-1} ∨ ℐ_j hash-consed in the model's manager, that is the new
    columns plus one OR per step.  Each query is solved under assumptions;
    the clause database only ever holds node definitions, so learnt
    clauses carry over between queries and no query constrains the next.
    A context is a cache, never checkpoint state: an engine rebuilds it
    when it is restored. *)

open Isr_aig
open Isr_model

type t

val create : Model.t -> t

val implies : t -> Budget.t -> Verdict.stats -> Aig.lit -> Aig.lit -> bool
(** [implies t budget stats a b] decides [a ⇒ b] over the state space by
    refuting [a ∧ ¬b] under the assumptions [[a; ¬b]], through
    {!Budget.solve}: the budget's deadline, conflict pool and cancel
    token apply and the call is charged to [stats]. *)
