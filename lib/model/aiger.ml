open Isr_aig

(* --- scanner ------------------------------------------------------------ *)

(* Both readers walk the text once with a cursor.  The ASCII body and the
   binary header, latch and output lines are lines of unsigned decimals,
   read into a small int buffer; nothing is split into substrings. *)

exception Bad of string

let fail msg = raise (Bad msg)
let failf fmt = Printf.ksprintf fail fmt

type cursor = {
  text : string;
  mutable pos : int;
  mutable line_start : int;   (* first byte of the line last read *)
  fields : int array;         (* that line's numbers *)
  mutable nfields : int;
}

(* No header line holds more than six numbers, no body line more than
   three; a longer line is malformed whatever it says. *)
let max_fields = 6

(* Keeps every literal 2v+1 and every sum of header counts far from
   overflow. *)
let max_field = 1 lsl 48

(* A header may declare at most this many variables per byte of text: a
   binary file's inputs take no bytes, so M is the one count the text
   length cannot bound line by line. *)
let vars_per_byte = 4

let cursor text = { text; pos = 0; line_start = 0; fields = Array.make max_fields 0; nfields = 0 }

let is_blank c = c = ' ' || c = '\t' || c = '\r' || c = '\012'

let skip_blank_lines c =
  let text = c.text in
  while c.pos < String.length text && (is_blank text.[c.pos] || text.[c.pos] = '\n') do
    c.pos <- c.pos + 1
  done

(* Reads the fields from the cursor to the end of its line and steps past
   the newline.  The position lives in a local while the line is
   scanned; every [unsafe_get] is behind a [< len] test. *)
let read_fields c =
  let text = c.text and len = String.length c.text in
  let pos = ref c.pos and n = ref 0 in
  c.line_start <- !pos;
  while !pos < len && String.unsafe_get text !pos <> '\n' do
    let ch = String.unsafe_get text !pos in
    if is_blank ch then incr pos
    else if ch >= '0' && ch <= '9' then begin
      if !n = max_fields then fail "too many fields on a line";
      let v = ref 0 in
      while
        !pos < len
        &&
        let d = String.unsafe_get text !pos in
        d >= '0' && d <= '9'
      do
        v := (10 * !v) + Char.code (String.unsafe_get text !pos) - Char.code '0';
        if !v > max_field then fail "number too large";
        incr pos
      done;
      c.fields.(!n) <- !v;
      incr n
    end
    else failf "not an unsigned decimal: %C" ch
  done;
  c.pos <- (if !pos < len then !pos + 1 else !pos);
  c.nfields <- !n

(* Reads the next non-empty line. *)
let read_line c =
  skip_blank_lines c;
  if c.pos >= String.length c.text then fail "unexpected end of file";
  read_fields c

let bad_line c what =
  let stop = min (String.length c.text) (c.line_start + 40) in
  let rec eol i = if i < stop && c.text.[i] <> '\n' then eol (i + 1) else i in
  failf "bad %s line: %s" what (String.sub c.text c.line_start (eol c.line_start - c.line_start))

(* The header after its magic word: M I L O A [B].  M is checked against
   the text length here, the line counts by [fits] in each reader, both
   before anything is sized by them. *)
let header c magic =
  let len = String.length c.text in
  if not (c.pos + 3 < len && String.sub c.text c.pos 3 = magic && is_blank c.text.[c.pos + 3]) then
    failf "not an %s aiger file (expected '%s' header)"
      (if magic = "aag" then "ascii" else "binary") magic;
  c.pos <- c.pos + 3;
  read_fields c;
  let f = c.fields in
  let m, i, l, o, a, b =
    match c.nfields with
    | 5 -> (f.(0), f.(1), f.(2), f.(3), f.(4), 0)
    | 6 -> (f.(0), f.(1), f.(2), f.(3), f.(4), f.(5))
    | _ -> failf "malformed %s header" magic
  in
  if m > vars_per_byte * len then
    failf "header declares %d variables for %d bytes of text" m len;
  (m, i, l, o, a, b)

(* Fails unless [bytes], the fewest the declared body can take, remain. *)
let fits c bytes =
  let left = String.length c.text - c.pos in
  if bytes > left then
    failf "truncated file: the header declares more than the %d bytes after it hold" left

(* A latch line's optional reset field [k]: absent or 0 is false, 1 true. *)
let read_reset c k =
  if c.nfields <= k then false
  else
    match c.fields.(k) with
    | 0 -> false
    | 1 -> true
    | _ -> fail "unsupported latch reset value"

(* The O + B output and bad literals, one per line. *)
let read_outputs c n =
  Array.init n (fun _ ->
      read_line c;
      if c.nfields <> 1 then bad_line c "output";
      c.fields.(0))

(* --- ASCII (aag) reader ------------------------------------------------- *)

let parse_ascii_outputs text =
  let c = cursor text in
  skip_blank_lines c;
  if c.pos >= String.length text then fail "empty file";
  let m, i, l, o, a, b = header c "aag" in
  (* Every body line is at least one digit and, but for the last, a
     newline. *)
  fits c ((2 * (i + l + o + a + b)) - 1);
  let man = Aig.create () in
  (* aiger var -> our literal; var 0 is constant false *)
  let var_lit = Array.make (m + 1) (-1) in
  var_lit.(0) <- Aig.lit_false;
  let lit_of al =
    let v = al / 2 in
    if v > m then failf "literal %d out of range" al
    else if var_lit.(v) < 0 then failf "literal %d used before definition" al
    else if al land 1 = 1 then Aig.not_ var_lit.(v)
    else var_lit.(v)
  in
  (* The variable an input, latch or AND line defines. *)
  let define what lhs =
    if lhs land 1 = 1 || lhs / 2 > m then bad_line c what;
    if var_lit.(lhs / 2) >= 0 then failf "%s redefines a variable" what;
    lhs / 2
  in
  for _ = 1 to i do
    read_line c;
    if c.nfields <> 1 then bad_line c "input";
    let v = define "input" c.fields.(0) in
    var_lit.(v) <- Aig.fresh_input man
  done;
  (* Latches: allocate now, resolve next-state literals after ANDs. *)
  let latch_next = Array.make l 0 in
  let latch_init = Array.make l false in
  for k = 0 to l - 1 do
    read_line c;
    if c.nfields < 2 || c.nfields > 3 then bad_line c "latch";
    let v = define "latch" c.fields.(0) in
    var_lit.(v) <- Aig.fresh_input man;
    latch_next.(k) <- c.fields.(1);
    latch_init.(k) <- read_reset c 2
  done;
  let bad_lits = read_outputs c (o + b) in
  (* AND gates, topological order required. *)
  for _ = 1 to a do
    read_line c;
    if c.nfields <> 3 then bad_line c "and";
    let v = define "and gate" c.fields.(0) in
    let r0 = lit_of c.fields.(1) in
    let r1 = lit_of c.fields.(2) in
    var_lit.(v) <- Aig.and_ man r0 r1
  done;
  let next = Array.map lit_of latch_next in
  let bads = Array.to_list (Array.map lit_of bad_lits) in
  (man, i, l, next, latch_init, bads)

(* --- binary (aig) reader ------------------------------------------------ *)

(* LEB128-style 7-bit little-endian delta.  Nine bytes already carry 63
   bits, more than any literal a checked header allows, so a tenth is an
   error rather than an overflow. *)
let rec read_delta c shift acc =
  if c.pos >= String.length c.text then fail "truncated binary section";
  if shift > 56 then fail "binary delta too large";
  let byte = Char.code c.text.[c.pos] in
  c.pos <- c.pos + 1;
  let acc = acc lor ((byte land 0x7f) lsl shift) in
  if byte land 0x80 <> 0 then read_delta c (shift + 7) acc else acc

let parse_binary_outputs text =
  let c = cursor text in
  let m, i, l, o, a, b = header c "aig" in
  (* Latch and output lines take at least two bytes, gates two deltas. *)
  fits c (2 * (l + o + b + a));
  if m <> i + l + a then fail "binary aiger requires M = I + L + A";
  let man = Aig.create () in
  let var_lit = Array.make (m + 1) Aig.lit_false in
  for v = 1 to i + l do
    var_lit.(v) <- Aig.fresh_input man
  done;
  let lit_of al =
    if al / 2 > m then failf "literal %d out of range" al;
    if al land 1 = 1 then Aig.not_ var_lit.(al / 2) else var_lit.(al / 2)
  in
  (* Latch lines: next literal and optional reset. *)
  let latch_next = Array.make l 0 in
  let latch_init = Array.make l false in
  for k = 0 to l - 1 do
    read_line c;
    if c.nfields < 1 || c.nfields > 2 then bad_line c "latch";
    latch_next.(k) <- c.fields.(0);
    latch_init.(k) <- read_reset c 1
  done;
  let bad_lits = read_outputs c (o + b) in
  (* AND gates: lhs implicit, deltas binary, fanins strictly below. *)
  for k = 0 to a - 1 do
    let lhs = 2 * (i + l + k + 1) in
    let d0 = read_delta c 0 0 in
    let d1 = read_delta c 0 0 in
    if d0 <= 0 || d0 > lhs then fail "bad rhs delta in binary and gate";
    let rhs0 = lhs - d0 in
    if d1 < 0 || d1 > rhs0 then fail "negative rhs in binary and gate";
    let rhs1 = rhs0 - d1 in
    var_lit.(lhs / 2) <- Aig.and_ man (lit_of rhs0) (lit_of rhs1)
  done;
  let next = Array.map lit_of latch_next in
  let bads = Array.to_list (Array.map lit_of bad_lits) in
  (man, i, l, next, latch_init, bads)

let parse_outputs ?(name = "aiger") text =
  match
    if String.starts_with ~prefix:"aig " text then parse_binary_outputs text
    else parse_ascii_outputs text
  with
  | exception Bad msg -> Error msg
  | man, num_inputs, num_latches, next, init, bads ->
    let bad = match bads with [] -> Aig.lit_false | b :: _ -> b in
    let model = { Model.name; man; num_inputs; num_latches; next; init; bad } in
    Result.map (fun () -> (model, bads)) (Model.validate model)

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
   defined one — a requirement of the binary encoding).  Returns the ANDs
   in that order and the AIGER variable of every node (-1 off the
   cones). *)
let number (model : Model.t) =
  let man = model.Model.man in
  let num_i = model.Model.num_inputs and num_l = model.Model.num_latches in
  let var_of_node = Array.make (Aig.num_nodes man) (-1) in
  var_of_node.(0) <- 0;
  for k = 0 to num_i + num_l - 1 do
    var_of_node.(Aig.node_of (Aig.input man k)) <- k + 1
  done;
  let ands = Array.make (Aig.num_nodes man) 0 and num_a = ref 0 in
  (* One walk over next(0..L-1) then bad: each AND is numbered the first
     time any root's cone reaches it. *)
  Aig.iter_cones man (Array.to_list model.Model.next @ [ model.Model.bad ]) ~f:(fun node ->
      if var_of_node.(node) < 0 then begin
        var_of_node.(node) <- num_i + num_l + 1 + !num_a;
        ands.(!num_a) <- node;
        incr num_a
      end);
  (Array.sub ands 0 !num_a, var_of_node)

let alit var_of_node l = (2 * var_of_node.(Aig.node_of l)) + if Aig.is_complemented l then 1 else 0

(* The decimal digits of [n >= 0], without the intermediate string
   [string_of_int] would allocate through the C formatter. *)
let rec add_int buf n =
  if n >= 10 then add_int buf (n / 10);
  Buffer.add_char buf (Char.unsafe_chr (Char.code '0' + (n mod 10)))

(* "<magic> M I L 1 A\n" *)
let add_header buf magic (model : Model.t) num_a =
  let num_i = model.Model.num_inputs and num_l = model.Model.num_latches in
  Buffer.add_string buf magic;
  List.iter
    (fun n ->
      Buffer.add_char buf ' ';
      add_int buf n)
    [ num_i + num_l + num_a; num_i; num_l; 1; num_a ];
  Buffer.add_char buf '\n'

let add_trailer buf (model : Model.t) =
  Buffer.add_string buf "c\nmodel ";
  Buffer.add_string buf model.Model.name;
  Buffer.add_char buf '\n'

let to_string (model : Model.t) =
  let man = model.Model.man in
  let num_i = model.Model.num_inputs and num_l = model.Model.num_latches in
  let ands, var_of_node = number model in
  let alit = alit var_of_node in
  let buf = Buffer.create (64 + (8 * (num_i + num_l)) + (24 * Array.length ands)) in
  add_header buf "aag" model (Array.length ands);
  for k = 0 to num_i - 1 do
    add_int buf (2 * (k + 1));
    Buffer.add_char buf '\n'
  done;
  for k = 0 to num_l - 1 do
    add_int buf (2 * (num_i + k + 1));
    Buffer.add_char buf ' ';
    add_int buf (alit model.Model.next.(k));
    Buffer.add_string buf (if model.Model.init.(k) then " 1\n" else " 0\n")
  done;
  add_int buf (alit model.Model.bad);
  Buffer.add_char buf '\n';
  Array.iter
    (fun node ->
      let f0, f1 = Aig.fanins man (node lsl 1) in
      add_int buf (alit (node lsl 1));
      Buffer.add_char buf ' ';
      add_int buf (alit f0);
      Buffer.add_char buf ' ';
      add_int buf (alit f1);
      Buffer.add_char buf '\n')
    ands;
  add_trailer buf model;
  Buffer.contents buf

let to_binary_string (model : Model.t) =
  let man = model.Model.man in
  let num_l = model.Model.num_latches in
  let ands, var_of_node = number model in
  let alit = alit var_of_node in
  let buf = Buffer.create (64 + (8 * num_l) + (4 * Array.length ands)) in
  add_header buf "aig" model (Array.length ands);
  for k = 0 to num_l - 1 do
    add_int buf (alit model.Model.next.(k));
    Buffer.add_string buf (if model.Model.init.(k) then " 1\n" else " 0\n")
  done;
  add_int buf (alit model.Model.bad);
  Buffer.add_char buf '\n';
  let rec put_delta d =
    if d < 0x80 then Buffer.add_char buf (Char.chr d)
    else begin
      Buffer.add_char buf (Char.chr (0x80 lor (d land 0x7f)));
      put_delta (d lsr 7)
    end
  in
  Array.iter
    (fun node ->
      let f0, f1 = Aig.fanins man (node lsl 1) in
      let lhs = alit (node lsl 1) in
      let r0 = alit f0 and r1 = alit f1 in
      let rhs0 = max r0 r1 and rhs1 = min r0 r1 in
      assert (lhs > rhs0);
      put_delta (lhs - rhs0);
      put_delta (rhs0 - rhs1))
    ands;
  add_trailer buf model;
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
