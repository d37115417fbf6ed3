open Isr_sat
open Isr_model
module Tseitin = Isr_cnf.Tseitin

type t = { solver : Solver.t; enc : Tseitin.t }

let create model =
  let solver = Solver.create () in
  (* State predicates range over the latches; any AIG input (latch or
     primary input) in a cone gets one free variable, shared by every
     query. *)
  let enc =
    Tseitin.create ~man:model.Model.man ~solver ~tag:1 ~input_lit:(fun _ ->
        Lit.pos (Solver.new_var solver))
  in
  { solver; enc }

let implies t budget stats a b =
  Isr_obs.Trace.span "incl.check" @@ fun () ->
  let assumptions = [ Tseitin.lit t.enc a; Lit.neg (Tseitin.lit t.enc b) ] in
  match Budget.solve ~assumptions budget stats t.solver with
  | Solver.Sat -> false
  | Solver.Unsat -> true
  | Solver.Undef -> assert false
