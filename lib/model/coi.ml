open Isr_aig

type reduction = {
  model : Model.t;
  kept_latches : int array;
  kept_inputs : int array;
  source_inputs : int;
}

let reduce (m : Model.t) =
  let ni = m.Model.num_inputs and nl = m.Model.num_latches in
  (* Closure: latches read by the property, then by kept next-states. *)
  let obs = Model.observable m [ m.Model.bad ] in
  let kept_latches =
    Array.of_list (List.filter (fun i -> obs.Model.obs_latches.(i)) (List.init nl Fun.id))
  in
  let kept_inputs =
    Array.of_list (List.filter (fun i -> obs.Model.obs_inputs.(i)) (List.init ni Fun.id))
  in
  (* Rebuild on the kept signals. *)
  let b = Builder.create (m.Model.name ^ "_coi") in
  let new_inputs = Array.map (fun _ -> Builder.input b) kept_inputs in
  let new_latches =
    Array.map (fun oi -> Builder.latch b ~init:m.Model.init.(oi) ()) kept_latches
  in
  let input_map = Hashtbl.create 16 and latch_map = Hashtbl.create 16 in
  Array.iteri (fun ni' oi -> Hashtbl.add input_map oi new_inputs.(ni')) kept_inputs;
  Array.iteri (fun nl' oi -> Hashtbl.add latch_map oi new_latches.(nl')) kept_latches;
  let map i =
    if i < ni then Hashtbl.find input_map i else Hashtbl.find latch_map (i - ni)
  in
  let copy = Aig.copier ~src:m.Model.man ~dst:(Builder.man b) ~map in
  Array.iteri
    (fun nl' oi -> Builder.set_next b new_latches.(nl') (copy m.Model.next.(oi)))
    kept_latches;
  let model = Builder.finish b ~bad:(copy m.Model.bad) in
  { model; kept_latches; kept_inputs; source_inputs = ni }

let lift_trace r (tr : Trace.t) =
  let inputs =
    Array.map
      (fun frame ->
        let full = Array.make r.source_inputs false in
        Array.iteri (fun ri oi -> full.(oi) <- frame.(ri)) r.kept_inputs;
        full)
      tr.Trace.inputs
  in
  { Trace.inputs }
