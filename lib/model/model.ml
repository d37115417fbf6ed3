open Isr_aig

type t = {
  name : string;
  man : Aig.man;
  num_inputs : int;
  num_latches : int;
  next : Aig.lit array;
  init : bool array;
  bad : Aig.lit;
}

let input_lit t i =
  if i < 0 || i >= t.num_inputs then invalid_arg "Model.input_lit";
  Aig.input t.man i

let latch_lit t i =
  if i < 0 || i >= t.num_latches then invalid_arg "Model.latch_lit";
  Aig.input t.man (t.num_inputs + i)

let prop t = Aig.not_ t.bad

let init_lit t =
  let conj = ref Aig.lit_true in
  for i = 0 to t.num_latches - 1 do
    let l = latch_lit t i in
    let l = if t.init.(i) then l else Aig.not_ l in
    conj := Aig.and_ t.man !conj l
  done;
  !conj

let init_state t = Array.copy t.init

let validate t =
  let fail fmt = Format.kasprintf (fun s -> Error s) fmt in
  if Array.length t.next <> t.num_latches then
    fail "%s: %d next functions for %d latches" t.name (Array.length t.next) t.num_latches
  else if Array.length t.init <> t.num_latches then
    fail "%s: %d init values for %d latches" t.name (Array.length t.init) t.num_latches
  else if Aig.num_inputs t.man < t.num_inputs + t.num_latches then
    fail "%s: manager has %d inputs, needs %d" t.name (Aig.num_inputs t.man)
      (t.num_inputs + t.num_latches)
  else begin
    (* One walk over every root with a shared seen-set: an undeclared
       input reached from an earlier root would have failed there, so the
       first offending root and its least offending input are the same
       as with a separate support per root. *)
    let max_idx = t.num_inputs + t.num_latches in
    let walk = Aig.cone_walk t.man in
    let rec all = function
      | [] -> Ok ()
      | (what, l) :: rest -> (
        let least = ref max_int in
        walk l ~f:(fun node ->
            let nl = node lsl 1 in
            if Aig.is_input t.man nl then begin
              let i = Aig.input_index t.man nl in
              if i >= max_idx then least := min !least i
            end);
        if !least < max_int then fail "%s: %s reads undeclared input %d" t.name what !least
        else all rest)
    in
    all
      (("bad", t.bad)
      :: List.init t.num_latches (fun i -> (Printf.sprintf "next(%d)" i, t.next.(i))))
  end

type observables = { obs_latches : bool array; obs_inputs : bool array }

let observable t roots =
  let obs_latches = Array.make t.num_latches false in
  let obs_inputs = Array.make t.num_inputs false in
  (* One walk for the whole closure: a node shared by several kept cones
     is visited once. *)
  let walk = Aig.cone_walk t.man in
  let fresh = ref [] in
  let mark node =
    let l = node lsl 1 in
    if Aig.is_input t.man l then begin
      let i = Aig.input_index t.man l in
      if i < t.num_inputs then obs_inputs.(i) <- true
      else begin
        let li = i - t.num_inputs in
        if li < t.num_latches && not obs_latches.(li) then begin
          obs_latches.(li) <- true;
          fresh := li :: !fresh
        end
      end
    end
  in
  List.iter (fun r -> walk r ~f:mark) roots;
  let rec close () =
    match !fresh with
    | [] -> ()
    | li :: rest ->
      fresh := rest;
      walk t.next.(li) ~f:mark;
      close ()
  in
  close ();
  { obs_latches; obs_inputs }

let num_ands t =
  (* AND nodes in the union of all relevant cones. *)
  Aig.cone_sizes t.man (t.bad :: Array.to_list t.next)

let pp_stats fmt t =
  Format.fprintf fmt "%s: %d PIs, %d latches, %d ANDs" t.name t.num_inputs t.num_latches
    (num_ands t)
