open Isr_model

type t = { model : Model.t; frozen : bool array }

let create model =
  let nl = model.Model.num_latches in
  let frozen = Array.make nl true in
  (* Keep the latches the property reads directly. *)
  List.iter
    (fun i ->
      let li = i - model.Model.num_inputs in
      if li >= 0 then frozen.(li) <- false)
    (Isr_aig.Aig.support model.Model.man model.Model.bad);
  { model; frozen }

let frozen t i = t.frozen.(i)

let freeze_state t = Array.copy t.frozen

let restore_state t saved =
  if Array.length saved <> Array.length t.frozen then
    invalid_arg "Cba.restore_state: latch count mismatch";
  Array.blit saved 0 t.frozen 0 (Array.length saved)

let num_frozen t = Array.fold_left (fun n b -> if b then n + 1 else n) 0 t.frozen

let refine t trace ~abstract_state =
  let states = Sim.run t.model trace in
  let frames = Array.length trace.Trace.inputs in
  let unfrozen = ref 0 in
  (* Earliest frame where some frozen latch diverges from the concrete
     simulation; unfreeze every divergent latch of that frame. *)
  let rec at_frame f =
    if f >= frames then ()
    else begin
      let abs = abstract_state ~frame:f in
      let conc = states.(f) in
      let divergent = ref [] in
      Array.iteri
        (fun i frz -> if frz && abs.(i) <> conc.(i) then divergent := i :: !divergent)
        t.frozen;
      match !divergent with
      | [] -> at_frame (f + 1)
      | ls ->
        List.iter
          (fun i ->
            t.frozen.(i) <- false;
            incr unfrozen)
          ls
    end
  in
  at_frame 0;
  if !unfrozen = 0 then begin
    (* Cannot happen for a genuine non-extending counterexample; stay
       safe by fully concretizing. *)
    Array.iteri (fun i frz -> if frz then (t.frozen.(i) <- false; incr unfrozen)) t.frozen
  end;
  !unfrozen
