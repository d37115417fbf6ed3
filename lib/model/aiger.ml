open Isr_aig

let parse_ascii_outputs ?(name = "aiger") text =
  let ( let* ) = Result.bind in
  let lines =
    String.split_on_char '\n' text |> List.map String.trim
    |> List.filter (fun l -> l <> "")
  in
  let ints line =
    String.split_on_char ' ' line
    |> List.filter (fun s -> s <> "")
    |> List.map int_of_string_opt
    |> fun l ->
    if List.mem None l then None else Some (List.map Option.get l)
  in
  match lines with
  | [] -> Error "empty file"
  | header :: rest ->
    let* m, i, l, o, a, b =
      match String.split_on_char ' ' header |> List.filter (fun s -> s <> "") with
      | "aag" :: nums -> (
        match List.map int_of_string_opt nums with
        | [ Some m; Some i; Some l; Some o; Some a ] -> Ok (m, i, l, o, a, 0)
        | [ Some m; Some i; Some l; Some o; Some a; Some b ] -> Ok (m, i, l, o, a, b)
        | _ -> Error "malformed aag header")
      | _ -> Error "not an ascii aiger file (expected 'aag' header)"
    in
    let needed = i + l + o + a + b in
    if List.length rest < needed then Error "truncated file"
    else begin
      let rest = Array.of_list rest in
      let man = Aig.create () in
      (* aiger var -> our literal; var 0 is constant false *)
      let var_lit = Array.make (m + 1) (-1) in
      var_lit.(0) <- Aig.lit_false;
      let lit_of al =
        let v = al / 2 in
        if v > m then Error (Printf.sprintf "literal %d out of range" al)
        else if var_lit.(v) < 0 then Error (Printf.sprintf "literal %d used before definition" al)
        else Ok (if al land 1 = 1 then Aig.not_ var_lit.(v) else var_lit.(v))
      in
      let error = ref None in
      let fail msg = if !error = None then error := Some msg in
      (* Inputs. *)
      for k = 0 to i - 1 do
        match ints rest.(k) with
        | Some [ al ] when al land 1 = 0 && al / 2 <= m ->
          if var_lit.(al / 2) >= 0 then fail "input redefines a variable"
          else var_lit.(al / 2) <- Aig.fresh_input man
        | _ -> fail (Printf.sprintf "bad input line: %s" rest.(k))
      done;
      (* Latches: allocate now, parse next-state literals after ANDs. *)
      let latch_next_lits = Array.make l 0 in
      let latch_init = Array.make l false in
      for k = 0 to l - 1 do
        match ints rest.(i + k) with
        | Some (al :: nl :: init_rest) when al land 1 = 0 && al / 2 <= m ->
          if var_lit.(al / 2) >= 0 then fail "latch redefines a variable"
          else begin
            var_lit.(al / 2) <- Aig.fresh_input man;
            latch_next_lits.(k) <- nl;
            match init_rest with
            | [] | [ 0 ] -> ()
            | [ 1 ] -> latch_init.(k) <- true
            | _ -> fail "unsupported latch reset value"
          end
        | _ -> fail (Printf.sprintf "bad latch line: %s" rest.(i + k))
      done;
      (* Outputs / bad lines. *)
      let bad_lits = ref [] in
      for k = 0 to o + b - 1 do
        match ints rest.(i + l + k) with
        | Some [ al ] -> bad_lits := al :: !bad_lits
        | _ -> fail (Printf.sprintf "bad output line: %s" rest.(i + l + k))
      done;
      (* AND gates, topological order required. *)
      for k = 0 to a - 1 do
        match ints rest.(i + l + o + b + k) with
        | Some [ lhs; r0; r1 ] when lhs land 1 = 0 && lhs / 2 <= m ->
          if var_lit.(lhs / 2) >= 0 then fail "and gate redefines a variable"
          else begin
            match (lit_of r0, lit_of r1) with
            | Ok l0, Ok l1 -> var_lit.(lhs / 2) <- Aig.and_ man l0 l1
            | Error e, _ | _, Error e -> fail e
          end
        | _ -> fail (Printf.sprintf "bad and line: %s" rest.(i + l + o + b + k))
      done;
      match !error with
      | Some msg -> Error msg
      | None ->
        let* next =
          Array.fold_left
            (fun acc nl ->
              let* acc = acc in
              let* l = lit_of nl in
              Ok (l :: acc))
            (Ok []) latch_next_lits
          |> Result.map (fun ls -> Array.of_list (List.rev ls))
        in
        let* bads =
          List.fold_left
            (fun acc al ->
              let* acc = acc in
              let* l = lit_of al in
              Ok (l :: acc))
            (Ok []) (List.rev !bad_lits)
          |> Result.map List.rev
        in
        let bad = match bads with [] -> Aig.lit_false | b :: _ -> b in
        let model =
          {
            Model.name;
            man;
            num_inputs = i;
            num_latches = l;
            next;
            init = latch_init;
            bad;
          }
        in
        let* () = Model.validate model in
        Ok (model, bads)
    end

(* --- binary (aig) reader ------------------------------------------------ *)

exception Bad of string

let parse_binary_outputs ?(name = "aiger") text =
  let pos = ref 0 in
  let len = String.length text in
  let fail msg = raise (Bad msg) in
  let read_line () =
    let start = !pos in
    while !pos < len && text.[!pos] <> '\n' do
      incr pos
    done;
    if !pos >= len then fail "unexpected end of file";
    let line = String.sub text start (!pos - start) in
    incr pos;
    line
  in
  let ints line =
    String.split_on_char ' ' line
    |> List.filter (fun s -> s <> "")
    |> List.map (fun s ->
           match int_of_string_opt s with Some i -> i | None -> fail ("not a number: " ^ s))
  in
  (* LEB128-style 7-bit little-endian delta. *)
  let read_delta () =
    let rec go shift acc =
      if !pos >= len then fail "truncated binary section";
      let byte = Char.code text.[!pos] in
      incr pos;
      let acc = acc lor ((byte land 0x7f) lsl shift) in
      if byte land 0x80 <> 0 then go (shift + 7) acc else acc
    in
    go 0 0
  in
  try
    let header = read_line () in
    let m, i, l, o, a, b =
      match String.split_on_char ' ' header |> List.filter (fun s -> s <> "") with
      | "aig" :: nums -> (
        match List.map int_of_string_opt nums with
        | [ Some m; Some i; Some l; Some o; Some a ] -> (m, i, l, o, a, 0)
        | [ Some m; Some i; Some l; Some o; Some a; Some b ] -> (m, i, l, o, a, b)
        | _ -> fail "malformed aig header")
      | _ -> fail "not a binary aiger file"
    in
    if m <> i + l + a then fail "binary aiger requires M = I + L + A";
    let man = Aig.create () in
    let var_lit = Array.make (m + 1) Aig.lit_false in
    for v = 1 to i + l do
      var_lit.(v) <- Aig.fresh_input man
    done;
    let lit_of al =
      if al / 2 > m then fail (Printf.sprintf "literal %d out of range" al);
      if al land 1 = 1 then Aig.not_ var_lit.(al / 2) else var_lit.(al / 2)
    in
    (* Latch lines: next literal and optional reset. *)
    let latch_next = Array.make l 0 in
    let latch_init = Array.make l false in
    for k = 0 to l - 1 do
      match ints (read_line ()) with
      | [ nl ] -> latch_next.(k) <- nl
      | [ nl; 0 ] -> latch_next.(k) <- nl
      | [ nl; 1 ] ->
        latch_next.(k) <- nl;
        latch_init.(k) <- true
      | _ -> fail "bad latch line"
    done;
    let bad_lits = ref [] in
    for _ = 1 to o + b do
      match ints (read_line ()) with
      | [ al ] -> bad_lits := al :: !bad_lits
      | _ -> fail "bad output line"
    done;
    (* AND gates: lhs implicit, deltas binary. *)
    for k = 0 to a - 1 do
      let lhs = 2 * (i + l + k + 1) in
      let d0 = read_delta () in
      let d1 = read_delta () in
      let rhs0 = lhs - d0 in
      let rhs1 = rhs0 - d1 in
      if rhs0 < 0 || rhs1 < 0 then fail "negative rhs in binary and gate";
      var_lit.(lhs / 2) <- Aig.and_ man (lit_of rhs0) (lit_of rhs1)
    done;
    let next = Array.map lit_of latch_next in
    let bads = List.rev_map lit_of !bad_lits in
    let bad = match bads with [] -> Aig.lit_false | b :: _ -> b in
    let model =
      { Model.name; man; num_inputs = i; num_latches = l; next; init = latch_init; bad }
    in
    Result.bind (Model.validate model) (fun () -> Ok (model, bads))
  with Bad msg -> Error msg

let parse_outputs ?name text =
  if String.length text >= 4 && String.sub text 0 4 = "aig " then
    parse_binary_outputs ?name text
  else parse_ascii_outputs ?name text

let parse_string ?name text = Result.map fst (parse_outputs ?name text)

let parse_string_multi ?name text =
  Result.map
    (fun ((model : Model.t), bads) ->
      match bads with
      | [] | [ _ ] -> [ model ]
      | _ ->
        List.mapi
          (fun idx bad ->
            { model with Model.name = Printf.sprintf "%s_p%d" model.Model.name idx; bad })
          bads)
    (parse_outputs ?name text)

let parse_file path =
  match In_channel.with_open_bin path In_channel.input_all with
  | text -> parse_string ~name:(Filename.remove_extension (Filename.basename path)) text
  | exception Sys_error msg -> Error msg

(* Shared numbering for both writers: inputs 1..I, latches I+1..I+L, then
   ANDs in topological order (so fanin literals always precede the
   defined one — a requirement of the binary encoding). *)
let number (model : Model.t) =
  let man = model.Model.man in
  let num_i = model.Model.num_inputs and num_l = model.Model.num_latches in
  let var_of_node = Hashtbl.create 256 in
  Hashtbl.add var_of_node 0 0;
  for k = 0 to num_i + num_l - 1 do
    Hashtbl.add var_of_node (Aig.node_of (Aig.input man k)) (k + 1)
  done;
  let next_var = ref (num_i + num_l + 1) in
  let ands = ref [] in
  (* One walk over next(0..L-1) then bad: each AND is numbered the first
     time any root's cone reaches it. *)
  Aig.iter_cones man (Array.to_list model.Model.next @ [ model.Model.bad ]) ~f:(fun node ->
      if not (Hashtbl.mem var_of_node node) then begin
        Hashtbl.add var_of_node node !next_var;
        incr next_var;
        ands := node :: !ands
      end);
  let alit l =
    let v = Hashtbl.find var_of_node (Aig.node_of l) in
    (2 * v) + if Aig.is_complemented l then 1 else 0
  in
  (List.rev !ands, alit, !next_var - 1)

let to_string (model : Model.t) =
  let man = model.Model.man in
  let num_i = model.Model.num_inputs and num_l = model.Model.num_latches in
  let ands, alit, max_var = number model in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf "aag %d %d %d 1 %d\n" max_var num_i num_l (List.length ands));
  for k = 0 to num_i - 1 do
    Buffer.add_string buf (Printf.sprintf "%d\n" (2 * (k + 1)))
  done;
  for k = 0 to num_l - 1 do
    Buffer.add_string buf
      (Printf.sprintf "%d %d %d\n"
         (2 * (num_i + k + 1))
         (alit model.Model.next.(k))
         (if model.Model.init.(k) then 1 else 0))
  done;
  Buffer.add_string buf (Printf.sprintf "%d\n" (alit model.Model.bad));
  List.iter
    (fun node ->
      let f0, f1 = Aig.fanins man (node lsl 1) in
      Buffer.add_string buf
        (Printf.sprintf "%d %d %d\n" (alit (node lsl 1)) (alit f0) (alit f1)))
    ands;
  Buffer.add_string buf (Printf.sprintf "c\nmodel %s\n" model.Model.name);
  Buffer.contents buf

let to_binary_string (model : Model.t) =
  let man = model.Model.man in
  let num_i = model.Model.num_inputs and num_l = model.Model.num_latches in
  let ands, alit, max_var = number model in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf "aig %d %d %d 1 %d\n" max_var num_i num_l (List.length ands));
  for k = 0 to num_l - 1 do
    Buffer.add_string buf
      (Printf.sprintf "%d %d\n"
         (alit model.Model.next.(k))
         (if model.Model.init.(k) then 1 else 0))
  done;
  Buffer.add_string buf (Printf.sprintf "%d\n" (alit model.Model.bad));
  let put_delta d =
    let rec go d =
      if d < 0x80 then Buffer.add_char buf (Char.chr d)
      else begin
        Buffer.add_char buf (Char.chr (0x80 lor (d land 0x7f)));
        go (d lsr 7)
      end
    in
    go d
  in
  List.iter
    (fun node ->
      let f0, f1 = Aig.fanins man (node lsl 1) in
      let lhs = alit (node lsl 1) in
      let r0 = alit f0 and r1 = alit f1 in
      let rhs0 = max r0 r1 and rhs1 = min r0 r1 in
      assert (lhs > rhs0);
      put_delta (lhs - rhs0);
      put_delta (rhs0 - rhs1))
    ands;
  Buffer.add_string buf (Printf.sprintf "c\nmodel %s\n" model.Model.name);
  Buffer.contents buf

let witness_to_string (model : Model.t) (tr : Trace.t) =
  let buf = Buffer.create 256 in
  Buffer.add_string buf "1\nb0\n";
  Array.iter (fun b -> Buffer.add_char buf (if b then '1' else '0')) model.Model.init;
  Buffer.add_char buf '\n';
  Array.iter
    (fun frame ->
      Array.iter (fun b -> Buffer.add_char buf (if b then '1' else '0')) frame;
      Buffer.add_char buf '\n')
    tr.Trace.inputs;
  Buffer.add_string buf ".\n";
  Buffer.contents buf

let witness_of_string (model : Model.t) text =
  let lines =
    String.split_on_char '\n' text |> List.map String.trim
    |> List.filter (fun l -> l <> "" && l.[0] <> '#')
  in
  match lines with
  | "1" :: _prop :: init_line :: rest ->
    if String.length init_line <> model.Model.num_latches then
      Error "witness: wrong latch-line width"
    else begin
      let frames = ref [] in
      let error = ref None in
      List.iter
        (fun line ->
          if !error = None && line <> "." then
            if String.length line <> model.Model.num_inputs then
              error := Some "witness: wrong input-line width"
            else
              frames := Array.init (String.length line) (fun i -> line.[i] = '1') :: !frames)
        rest;
      match !error with
      | Some e -> Error e
      | None -> Ok { Trace.inputs = Array.of_list (List.rev !frames) }
    end
  | _ -> Error "witness: expected status 1 and a property line"

let write_file ?(format = `Ascii) model path =
  let text = match format with `Ascii -> to_string model | `Binary -> to_binary_string model in
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc text)
