(* Tests for models, the builder, simulation, AIGER I/O, Tseitin encoding
   and the time-frame unroller. *)

open Isr_sat
open Isr_aig
open Isr_model

(* A [bits]-wide counter that flags bad when it reaches [target]. *)
let counter_model ?(bits = 4) ~target () =
  let b = Builder.create (Printf.sprintf "counter%d_%d" bits target) in
  let q = Builder.latches b bits in
  let q1 = Builder.vec_incr b q in
  Array.iteri (fun i l -> Builder.set_next b l q1.(i)) q;
  Builder.finish b ~bad:(Builder.vec_eq_const b q target)

(* A counter frozen by an enable input. *)
let gated_counter ?(bits = 3) ~target () =
  let b = Builder.create "gated" in
  let en = Builder.input b in
  let q = Builder.latches b bits in
  let q1 = Builder.vec_mux b en (Builder.vec_incr b q) q in
  Array.iteri (fun i l -> Builder.set_next b l q1.(i)) q;
  Builder.finish b ~bad:(Builder.vec_eq_const b q target)

let test_builder_counter () =
  let m = counter_model ~bits:3 ~target:5 () in
  Alcotest.(check int) "latches" 3 m.Model.num_latches;
  Alcotest.(check int) "inputs" 0 m.Model.num_inputs;
  (* Simulate 8 steps; bad must hold exactly at step 5. *)
  let state = ref (Model.init_state m) in
  for step = 0 to 7 do
    let bad = Sim.bad_now m ~state:!state ~inputs:[||] in
    Alcotest.(check bool) (Printf.sprintf "bad at %d" step) (step = 5) bad;
    state := Sim.step m ~state:!state ~inputs:[||]
  done

let test_builder_missing_next () =
  let b = Builder.create "broken" in
  let _q = Builder.latch b () in
  match Builder.finish b ~bad:Aig.lit_false with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected Invalid_argument"

(* [validate] walks every root once with a shared seen-set; it must
   still name the first root that reads an undeclared input, and that
   root's least such input, even when later roots share the offending
   logic. *)
let test_validate_first_offender () =
  let man = Aig.create () in
  let ins = Array.init 5 (fun _ -> Aig.fresh_input man) in
  (* Declared: one input, two latches (inputs 0..2); 3 and 4 are not. *)
  let shared = Aig.and_ man ins.(4) ins.(3) in
  let m =
    {
      Model.name = "undeclared";
      man;
      num_inputs = 1;
      num_latches = 2;
      next = [| Aig.and_ man ins.(0) ins.(1); Aig.or_ man shared ins.(2) |];
      init = [| false; false |];
      bad = shared;
    }
  in
  let expect what m =
    match Model.validate m with
    | Ok () -> Alcotest.fail "expected a validation error"
    | Error msg -> Alcotest.(check string) "first offender" what msg
  in
  expect "undeclared: bad reads undeclared input 3" m;
  expect "undeclared: next(1) reads undeclared input 3" { m with Model.bad = ins.(1) };
  Alcotest.(check bool) "declared cones pass" true
    (Model.validate { m with Model.bad = ins.(1); next = [| ins.(2); ins.(0) |] } = Ok ())

let test_init_values () =
  let b = Builder.create "init" in
  let q0 = Builder.latch b ~init:true () in
  let q1 = Builder.latch b () in
  Builder.set_next b q0 q1;
  Builder.set_next b q1 q0;
  let m = Builder.finish b ~bad:(Aig.and_ (Builder.man b) q0 q1) in
  Alcotest.(check bool) "q0 starts true" true m.Model.init.(0);
  Alcotest.(check bool) "q1 starts false" false m.Model.init.(1);
  (* The two latches swap forever; bad (both true) never holds. *)
  let state = ref (Model.init_state m) in
  for _ = 0 to 5 do
    Alcotest.(check bool) "never both" false (Sim.bad_now m ~state:!state ~inputs:[||]);
    state := Sim.step m ~state:!state ~inputs:[||]
  done

let test_trace_check () =
  let m = gated_counter ~bits:3 ~target:2 () in
  (* Enable for two frames: counter reaches 2 at frame 2. *)
  let tr = { Trace.inputs = [| [| true |]; [| true |]; [| false |] |] } in
  Alcotest.(check bool) "trace reaches bad" true (Sim.check_trace m tr);
  Alcotest.(check (option int)) "first bad at 2" (Some 2) (Sim.first_bad m tr);
  let tr_bad = { Trace.inputs = [| [| true |]; [| false |]; [| false |] |] } in
  Alcotest.(check bool) "stalled trace misses bad" false (Sim.check_trace m tr_bad)

(* --- AIGER -------------------------------------------------------------- *)

let models_equal_by_sim m1 m2 =
  (* Differential simulation on random input sequences. *)
  let rand = Random.State.make [| 42 |] in
  let ok = ref true in
  for _ = 1 to 50 do
    let depth = 1 + Random.State.int rand 8 in
    let inputs =
      Array.init depth (fun _ ->
          Array.init m1.Model.num_inputs (fun _ -> Random.State.bool rand))
    in
    let tr = { Trace.inputs } in
    let s1 = Sim.run m1 tr and s2 = Sim.run m2 tr in
    if s1 <> s2 then ok := false;
    if Sim.check_trace m1 tr <> Sim.check_trace m2 tr then ok := false
  done;
  !ok

let test_aiger_roundtrip () =
  let m = gated_counter ~bits:4 ~target:11 () in
  let text = Aiger.to_string m in
  match Aiger.parse_string text with
  | Error e -> Alcotest.failf "parse: %s" e
  | Ok m' ->
    Alcotest.(check int) "inputs" m.Model.num_inputs m'.Model.num_inputs;
    Alcotest.(check int) "latches" m.Model.num_latches m'.Model.num_latches;
    Alcotest.(check bool) "behaviour preserved" true (models_equal_by_sim m m')

let test_aiger_init_roundtrip () =
  let b = Builder.create "init_rt" in
  let q0 = Builder.latch b ~init:true () in
  Builder.set_next b q0 (Aig.not_ q0);
  let m = Builder.finish b ~bad:q0 in
  match Aiger.parse_string (Aiger.to_string m) with
  | Error e -> Alcotest.failf "parse: %s" e
  | Ok m' ->
    Alcotest.(check bool) "init preserved" true m'.Model.init.(0);
    Alcotest.(check bool) "behaviour" true (models_equal_by_sim m m')

let test_aiger_binary_roundtrip () =
  List.iter
    (fun m ->
      let bin = Aiger.to_binary_string m in
      Alcotest.(check bool) "binary header" true (String.sub bin 0 4 = "aig ");
      match Aiger.parse_string bin with
      | Error e -> Alcotest.failf "binary parse: %s" e
      | Ok m' ->
        Alcotest.(check int) "inputs" m.Model.num_inputs m'.Model.num_inputs;
        Alcotest.(check int) "latches" m.Model.num_latches m'.Model.num_latches;
        Alcotest.(check bool) "behaviour preserved" true (models_equal_by_sim m m'))
    [
      gated_counter ~bits:4 ~target:11 ();
      counter_model ~bits:5 ~target:17 ();
    ]

let test_aiger_ascii_binary_agree () =
  let m = gated_counter ~bits:4 ~target:9 () in
  match (Aiger.parse_string (Aiger.to_string m), Aiger.parse_string (Aiger.to_binary_string m)) with
  | Ok a, Ok b ->
    Alcotest.(check bool) "same behaviour via both encodings" true (models_equal_by_sim a b)
  | Error e, _ | _, Error e -> Alcotest.failf "parse: %s" e

let test_aiger_errors () =
  let cases =
    [
      "";
      "aig 1 0 0 0 0";
      "aag x";
      "aag 1 1 0 1 0\n2";
      "aag 2 1 0 1 1\n2\n6\n4 2 6";
      (* and uses lit 6 > max var *)
      "aag 3 1 1 1 1\n2\n4 -6\n6\n6 2 4\n";
      "aag -3 1 1 1 1\n2\n4 6\n6\n6 2 4\n";
      "aag 3 1 1 1 1\n2\n4 0x6\n6\n6 2 4\n";
      "aag 3 1 1 1 1\n2\n4 6\n6\n6 2 8\n";
      "aag 3 1 1 1 1\n2\n4 6\n6\n6 2 6\n";
      "aag 3 1 1 1 1\n0\n4 6\n6\n6 2 4\n";
      "aag 1000000000000 0 0 0 0\n";
      "aag 1 1000000000000 0 0 0\n";
      "aag 99999999999999999999999 0 0 0 0\n";
      "aig 2 1 1 1 0\n9\n0\n";
      "aig 2 1 1 1 0\n4 2\n0\n";
      "aig 1 1 0 1 0\n-2\n";
      "aig 2 1 0 1 1\n4\n\000\001";
      "aig 2 1 0 1 1\n4\n\005\001";
      "aig 2 1 0 1 1\n4\n\002\003";
      "aig 2 1 0 1 1\n4\n\255\255\255\255\255\255\255\255\255\255\001";
      "aig 1000000000 1000000000 0 0 0\n";
    ]
  in
  List.iter
    (fun text ->
      match Aiger.parse_string text with
      | Ok _ -> Alcotest.failf "expected error for %S" text
      | Error _ -> ())
    cases

let test_aiger_minimal () =
  (* Hand-written file: 1 input, 1 latch toggling, bad = latch & input. *)
  let text = "aag 3 1 1 1 1\n2\n4 5 0\n6\n6 4 2\n" in
  match Aiger.parse_string text with
  | Error e -> Alcotest.failf "parse: %s" e
  | Ok m ->
    Alcotest.(check int) "inputs" 1 m.Model.num_inputs;
    Alcotest.(check int) "latches" 1 m.Model.num_latches;
    (* latch starts 0, next = !latch; bad = latch & input *)
    let tr = { Trace.inputs = [| [| true |]; [| true |] |] } in
    Alcotest.(check bool) "bad at frame 1" true (Sim.check_trace m tr)

(* Parsed node counts of every fig6 entry and four padded industrial
   designs, from the reader as it stood before the open-addressed strash:
   the numbering must not move. *)
let parsed_nodes =
  [
    ("amba2g3", 14); ("amba3g4", 40); ("amba4bug", 75); ("eijkring8", 89);
    ("eijkring12", 181); ("eijkring10u7", 42); ("lfsr8d40", 25); ("lfsr9safe", 21);
    ("vending11", 42); ("vending7bug", 38); ("traffic6", 32); ("traffic5bug", 34);
    ("peterson", 59); ("prodcons8", 61); ("prodcons6bug", 42); ("coherence3", 87);
    ("coherence4", 124); ("coherence3bug", 78); ("reactor2x3", 48); ("reactor3x2", 40);
    ("guidance4", 54); ("tcas12", 60); ("tcas25", 78); ("feistel8x8", 181);
    ("rether16", 47); ("rether33", 57); ("counter6t40", 31); ("countermod6m50", 40);
    ("gcount5t20", 41); ("fifo3", 137); ("fifo2bug", 85); ("elevator6", 50);
    ("hamming8", 91); ("hamming6bug", 70); ("dekker", 77); ("johnson6", 42);
    ("johnson5u8", 10); ("stack4", 80); ("stack3bug", 60); ("industrialA1", 1135);
    ("industrialA2", 2291); ("industrialA3", 2152); ("industrialA4", 2156);
    ("industrialB1", 6741); ("industrialB2", 7067); ("industrialB3", 7289);
    ("industrialC1", 7190); ("industrialC2", 5567); ("industrialD1", 930);
    ("industrialE1", 5596); ("industrialF1", 14881); ("industrialF2", 20359);
    ("industrialF3", 17619); ("counter7t10", 36); ("counter7t20", 37); ("counter7t30", 36);
    ("counter7t50", 36); ("counter7t70", 36); ("counter7t90", 36); ("countermod7m12", 48);
    ("countermod7m24", 47); ("countermod7m48", 46); ("countermod7m96", 45);
    ("ring4safe", 29); ("ring6safe", 55); ("ring10safe", 131); ("ring14safe", 239);
    ("ring16safe", 305); ("ring6u3", 26); ("ring8u5", 34); ("ring12u9", 50);
    ("ring14u11", 58); ("tcas6", 42); ("tcas9", 60); ("tcas15", 59); ("tcas18", 78);
    ("tcas21", 78); ("tcas30", 78); ("rether8", 37); ("rether12", 37); ("rether20", 47);
    ("rether24", 47); ("rether40", 57); ("vending5", 31); ("vending9", 43);
    ("vending14", 41); ("vending18", 53); ("vending5bug", 28); ("vending9bug", 39);
    ("vending13bug", 39); ("prodcons4", 43); ("prodcons6", 44); ("prodcons12", 62);
    ("prodcons16", 79); ("prodcons4bug", 42); ("prodcons10bug", 59); ("prodcons14bug", 59);
    ("arbiter4", 71); ("arbiter5", 121); ("arbiter6", 174); ("coherence5x", 164);
    ("coherence6x", 207); ("traffic4", 31); ("traffic9", 40); ("traffic12", 38);
    ("feistel4x6", 134); ("feistel6x10", 212); ("feistel10x12", 259); ("guidance3", 46);
    ("guidance5", 62); ("guidance6", 70); ("lfsr8d15", 25); ("lfsr8d25", 25);
    ("lfsr8d55", 25); ("reactor2x2", 27); ("reactor4x2", 53); ("reactor2x4", 70);
    ("fifo2safe", 87); ("fifo4safe", 187); ("fifo3bug", 135); ("elevator4", 34);
    ("elevator8", 50); ("hamming5", 58); ("hamming12", 135); ("johnson4", 20);
    ("johnson8", 72); ("johnson10", 110); ("stack3", 62); ("stack5", 98);
    ("industrialP150", 1418); ("industrialP300", 2807); ("industrialP450", 4194);
    ("peterson+pad90", 899); ("stack5+pad600", 5695); ("traffic6+pad2200", 20564);
    ("vending11+pad1200", 11241);
  ]

let roundtrip_designs () =
  let module R = Isr_suite.Registry in
  List.map (fun e -> (e.R.name, e.R.build)) R.fig6
  @ List.map
      (fun (core, pad, seed) ->
        let name = Printf.sprintf "%s+pad%d" core pad in
        let e = Option.get (R.find core) in
        ( name,
          fun () ->
            Isr_suite.Circuits.industrial ~name ~core:(e.R.build ()) ~pad_latches:pad
              ~pad_inputs:(pad / 3) ~seed ))
      [ ("peterson", 90, 1); ("stack5", 600, 2); ("traffic6", 2200, 3); ("vending11", 1200, 4) ]

(* The writer numbers ANDs in cone-walk order, larger fanin first, and
   the reader numbers them in file order, so [to_string (parse t)] is a
   renumbering of [t], not [t] itself.  Both halves are pinned instead:
   one digest over, per design, the ASCII and binary renderings and the
   renderings of what the reader makes of them, taken with the writer and
   reader as they stood before the array numbering and the one-pass
   cursor. *)
let renderings_digest = "5018f48629c4f6be182f2bd91170f11b"

let test_aiger_renderings_and_numbering () =
  let designs = roundtrip_designs () in
  Alcotest.(check int) "every design pinned" (List.length parsed_nodes) (List.length designs);
  let buf = Buffer.create 4096 in
  List.iter
    (fun (name, build) ->
      let m = build () in
      let reparse text =
        match Aiger.parse_string ~name:m.Model.name text with
        | Ok m' ->
          Alcotest.(check int) (name ^ ": parsed nodes") (List.assoc name parsed_nodes)
            (Aig.num_nodes m'.Model.man);
          m'
        | Error e -> Alcotest.failf "%s: %s" name e
      in
      let a = Aiger.to_string m and b = Aiger.to_binary_string m in
      let pa = reparse a and pb = reparse b in
      Alcotest.(check string) (name ^ ": both encodings parse alike") (Aiger.to_string pa)
        (Aiger.to_string pb);
      List.iter (Buffer.add_string buf) [ a; b; Aiger.to_string pa; Aiger.to_binary_string pb ])
    designs;
  Alcotest.(check string) "renderings digest" renderings_digest
    (Digest.to_hex (Digest.string (Buffer.contents buf)))

(* Seeded byte and line mutations of valid renderings: the reader answers
   [Ok] or [Error] and never raises, and whatever it accepts validates. *)
let mutate rand text =
  let len = String.length text in
  let int n = Random.State.int rand (max 1 n) in
  let byte () =
    let alphabet = "0123456789  \n\n-+xa\t\r\128\255" in
    if int 4 = 0 then Char.chr (int 256) else alphabet.[int (String.length alphabet)]
  in
  let lines = String.split_on_char '\n' text |> Array.of_list in
  let nlines = Array.length lines in
  let k = int nlines in
  let join a = String.concat "\n" (Array.to_list a) in
  match int 8 with
  | 0 ->
    let at = int len in
    String.mapi (fun i ch -> if i = at then byte () else ch) text
  | 1 when len > 0 ->
    let at = int len in
    String.sub text 0 at ^ String.sub text (at + 1) (len - at - 1)
  | 2 ->
    let at = int len in
    String.sub text 0 at ^ String.make 1 (byte ()) ^ String.sub text at (len - at)
  | 3 -> String.sub text 0 (int len)
  | 4 -> join (Array.append (Array.sub lines 0 k) (Array.sub lines (k + 1) (nlines - k - 1)))
  | 5 ->
    let j = int nlines in
    let t = lines.(k) in
    lines.(k) <- lines.(j);
    lines.(j) <- t;
    join lines
  | 6 ->
    lines.(k) <- lines.(k) ^ " " ^ lines.(int nlines);
    join lines
  | _ ->
    (* Overwrite one field with a boundary value. *)
    let fields = String.split_on_char ' ' lines.(k) |> Array.of_list in
    let values = [| "0"; "1"; "-1"; "-6"; "4611686018427387903"; "99999999999999999999"; "x" |] in
    fields.(int (Array.length fields)) <- values.(int (Array.length values));
    lines.(k) <- String.concat " " (Array.to_list fields);
    join lines

let test_aiger_mutations () =
  let examples =
    Sys.readdir "../examples/aiger" |> Array.to_list |> List.sort compare
    |> List.filter (fun f -> Filename.check_suffix f ".aag")
    |> List.map (fun f ->
           In_channel.with_open_bin (Filename.concat "../examples/aiger" f) In_channel.input_all)
  in
  Alcotest.(check bool) "example files found" true (examples <> []);
  let renderings =
    List.concat_map
      (fun text ->
        match Aiger.parse_string text with
        | Ok m -> [ text; Aiger.to_binary_string m ]
        | Error e -> Alcotest.failf "example: %s" e)
      examples
    @ List.concat_map
        (fun name ->
          let m = Isr_suite.Registry.build_validated (Option.get (Isr_suite.Registry.find name)) in
          [ Aiger.to_string m; Aiger.to_binary_string m ])
        [ "peterson"; "vending11"; "traffic6"; "vending7bug"; "amba2g3"; "lfsr8d40" ]
  in
  let rand = Random.State.make [| 15 |] in
  let tried = ref 0 and accepted = ref 0 in
  List.iter
    (fun base ->
      for _ = 1 to 40 do
        let text = ref base in
        for _ = 0 to Random.State.int rand 3 do
          text := mutate rand !text
        done;
        incr tried;
        match Aiger.parse_string !text with
        | Error _ -> ()
        | Ok m -> (
          incr accepted;
          match Model.validate m with
          | Ok () -> ()
          | Error e -> Alcotest.failf "accepted %S but it does not validate: %s" !text e)
        | exception e ->
          Alcotest.failf "parse_string %S raised %s" !text (Printexc.to_string e)
      done)
    renderings;
  Alcotest.(check bool) (Printf.sprintf "at least 300 mutants (%d)" !tried) true (!tried >= 300);
  Alcotest.(check bool)
    (Printf.sprintf "some mutants rejected (%d accepted)" !accepted)
    true (!accepted < !tried)

(* --- Tseitin ------------------------------------------------------------ *)

let test_tseitin_equisat () =
  (* For a sample of small circuits: SAT result matches brute force. *)
  let m = Aig.create () in
  let a = Aig.fresh_input m and b = Aig.fresh_input m and c = Aig.fresh_input m in
  let circuits =
    [
      Aig.and_ m a (Aig.not_ a);
      Aig.big_and m [ a; b; c ];
      Aig.xor_ m (Aig.xor_ m a b) c;
      Aig.and_ m (Aig.or_ m a b) (Aig.and_ m (Aig.not_ a) (Aig.not_ b));
      Aig.lit_true;
      Aig.lit_false;
    ]
  in
  List.iter
    (fun circuit ->
      let solver = Solver.create () in
      let in_vars = Array.init 3 (fun _ -> Lit.pos (Solver.new_var solver)) in
      let ctx =
        Isr_cnf.Tseitin.create ~man:m ~solver ~tag:1 ~input_lit:(fun i -> in_vars.(i))
      in
      Isr_cnf.Tseitin.assert_lit ctx circuit;
      let expect =
        let rec any mask =
          mask < 8 && (Aig.eval m (fun i -> (mask lsr i) land 1 = 1) circuit || any (mask + 1))
        in
        any 0
      in
      let got = Solver.solve solver = Solver.Sat in
      Alcotest.(check bool) "equisatisfiable" expect got)
    circuits

let test_aiger_multi_output () =
  (* Two outputs: latch0 (depth 2 with enable) and constant false. *)
  let m = gated_counter ~bits:3 ~target:2 () in
  (* Hand-build a two-output file from the single-output rendering: add a
     second output line referencing constant false (literal 0). *)
  let text = Aiger.to_string m in
  let lines = String.split_on_char '\n' text in
  let header, rest =
    match lines with h :: r -> (h, r) | [] -> Alcotest.fail "empty render"
  in
  let header' =
    match String.split_on_char ' ' header with
    | [ "aag"; m'; i; l; _o; a ] -> String.concat " " [ "aag"; m'; i; l; "2"; a ]
    | _ -> Alcotest.fail "unexpected header"
  in
  (* Insert the extra output line right after the existing output. *)
  let num_i = m.Model.num_inputs and num_l = m.Model.num_latches in
  let before, after =
    let rec split n acc = function
      | rest when n = 0 -> (List.rev acc, rest)
      | x :: rest -> split (n - 1) (x :: acc) rest
      | [] -> (List.rev acc, [])
    in
    split (num_i + num_l + 1) [] rest
  in
  let text2 = String.concat "\n" ((header' :: before) @ ("0" :: after)) in
  match Aiger.parse_string_multi text2 with
  | Error e -> Alcotest.failf "multi parse: %s" e
  | Ok models ->
    Alcotest.(check int) "two models" 2 (List.length models);
    let m0 = List.nth models 0 and m1 = List.nth models 1 in
    Alcotest.(check bool) "p0 behaves like original" true (models_equal_by_sim m m0);
    (* p1's bad is constant false: no trace can reach it. *)
    let tr = { Trace.inputs = [| [| true |]; [| true |]; [| true |] |] } in
    Alcotest.(check bool) "p1 never bad" false (Sim.check_trace m1 tr)

let test_witness_roundtrip () =
  let m = gated_counter ~bits:3 ~target:2 () in
  let tr = { Trace.inputs = [| [| true |]; [| true |]; [| false |] |] } in
  Alcotest.(check bool) "trace valid" true (Sim.check_trace m tr);
  let text = Aiger.witness_to_string m tr in
  (match Aiger.witness_of_string m text with
  | Error e -> Alcotest.failf "witness parse: %s" e
  | Ok tr' ->
    Alcotest.(check bool) "roundtrip equal" true (tr = tr');
    Alcotest.(check bool) "still replays" true (Sim.check_trace m tr'));
  (* Malformed witnesses are rejected. *)
  List.iter
    (fun bad ->
      match Aiger.witness_of_string m bad with
      | Ok _ -> Alcotest.failf "expected error for %S" bad
      | Error _ -> ())
    [ ""; "0\nb0\n000\n.\n"; "1\nb0\n00\n.\n"; "1\nb0\n000\n11\n.\n" ]

(* --- cone of influence ------------------------------------------------------ *)

let test_coi_drops_irrelevant () =
  (* A relevant 3-bit counter plus 5 disconnected junk latches. *)
  let b = Builder.create "junky" in
  let junk_in = Builder.input b in
  let q = Builder.latches b 3 in
  let junk = Builder.latches b 5 in
  let q1 = Builder.vec_incr b q in
  Array.iteri (fun i l -> Builder.set_next b l q1.(i)) q;
  Array.iteri
    (fun i l ->
      Builder.set_next b l
        (Isr_aig.Aig.xor_ (Builder.man b) junk_in junk.((i + 1) mod 5)))
    junk;
  let m = Builder.finish b ~bad:(Builder.vec_eq_const b q 5) in
  let r = Coi.reduce m in
  Alcotest.(check int) "kept latches" 3 r.Coi.model.Model.num_latches;
  Alcotest.(check int) "kept inputs" 0 r.Coi.model.Model.num_inputs;
  (* Reachability is preserved: both fail at depth 5. *)
  let rec first_bad model state step =
    if step > 10 then None
    else if Sim.bad_now model ~state ~inputs:(Array.make model.Model.num_inputs false)
    then Some step
    else
      first_bad model
        (Sim.step model ~state ~inputs:(Array.make model.Model.num_inputs false))
        (step + 1)
  in
  Alcotest.(check (option int)) "original depth" (Some 5)
    (first_bad m (Model.init_state m) 0);
  Alcotest.(check (option int)) "reduced depth" (Some 5)
    (first_bad r.Coi.model (Model.init_state r.Coi.model) 0)

let test_coi_keeps_everything_when_needed () =
  let m = gated_counter ~bits:3 ~target:5 () in
  let r = Coi.reduce m in
  Alcotest.(check int) "latches kept" m.Model.num_latches r.Coi.model.Model.num_latches;
  Alcotest.(check int) "inputs kept" m.Model.num_inputs r.Coi.model.Model.num_inputs

let test_coi_lift_trace () =
  (* Reduced-model counterexamples replay on the original model. *)
  let b = Builder.create "liftable" in
  let junk_in = Builder.input b in
  let en = Builder.input b in
  let q = Builder.latches b 3 in
  let junk = Builder.latch b () in
  Builder.set_next b junk junk_in;
  let q1 = Builder.vec_mux b en (Builder.vec_incr b q) q in
  Array.iteri (fun i l -> Builder.set_next b l q1.(i)) q;
  let m = Builder.finish b ~bad:(Builder.vec_eq_const b q 3) in
  let r = Coi.reduce m in
  Alcotest.(check int) "one input kept" 1 r.Coi.model.Model.num_inputs;
  (* Drive the reduced model to the bug, lift, replay on the original. *)
  let tr_red = { Trace.inputs = Array.make 4 [| true |] } in
  Alcotest.(check bool) "reduced trace hits" true (Sim.first_bad r.Coi.model tr_red = Some 3);
  let lifted = Coi.lift_trace r tr_red in
  Alcotest.(check bool) "lifted trace hits" true (Sim.first_bad m lifted = Some 3)

(* The design of examples/aiger/cone_witness.aag: bad reads a latch
   loaded from input 0, so the cone drops input 1, the last one.  A lifted
   counterexample must still be as wide as the source design, or its
   witness file is refused. *)
let test_coi_witness_width () =
  let m =
    match Aiger.parse_string ~name:"cone_witness" "aag 3 2 1 0 0 1\n2\n4\n6 2\n6\n" with
    | Ok m -> m
    | Error e -> Alcotest.fail e
  in
  let round_trip what reduced lift =
    Alcotest.(check int) (what ^ ": one input kept") 1 reduced.Model.num_inputs;
    (* Load the latch at step 0; it flags bad at step 1. *)
    let tr = { Trace.inputs = [| [| true |]; [| false |] |] } in
    Alcotest.(check bool) (what ^ ": reduced trace hits") true (Sim.check_trace reduced tr);
    match Aiger.witness_of_string m (Aiger.witness_to_string m (lift tr)) with
    | Error e -> Alcotest.failf "%s: %s" what e
    | Ok back -> Alcotest.(check bool) (what ^ ": witness replays") true (Sim.check_trace m back)
  in
  let r = Coi.reduce m in
  round_trip "coi" r.Coi.model (Coi.lift_trace r);
  let a = Isr_analyze.run m in
  Alcotest.(check bool) "no trivial verdict" true (a.Isr_analyze.verdict = None);
  round_trip "analyze" a.Isr_analyze.model a.Isr_analyze.lift

(* --- random simulation ---------------------------------------------------- *)

let test_randsim_finds_inputfree_bug () =
  (* No inputs: every lane runs the same execution, so the bug at depth 6
     is found deterministically. *)
  let m = counter_model ~bits:4 ~target:6 () in
  match Rand_sim.falsify m with
  | None -> Alcotest.fail "expected a counterexample"
  | Some tr ->
    Alcotest.(check bool) "replays" true (Sim.check_trace m tr);
    Alcotest.(check int) "depth" 6 (Trace.depth tr)

let test_randsim_finds_robust_bug () =
  (* Bad = latch that copies the input: hit with probability 1 - 2^-64
     per frame. *)
  let b = Builder.create "copy" in
  let x = Builder.input b in
  let q = Builder.latch b () in
  Builder.set_next b q x;
  let m = Builder.finish b ~bad:q in
  match Rand_sim.falsify m with
  | None -> Alcotest.fail "expected a counterexample"
  | Some tr -> Alcotest.(check bool) "replays" true (Sim.check_trace m tr)

let test_randsim_none_on_safe () =
  let b = Builder.create "safe" in
  let q = Builder.latch b () in
  Builder.set_next b q q;
  let m = Builder.finish b ~bad:q in
  (* q stays 0 forever. *)
  Alcotest.(check bool) "no cex" true (Rand_sim.falsify m = None)

(* --- Unroll: hand-rolled BMC -------------------------------------------- *)

(* Exact-k BMC on a model: is bad reachable in exactly k steps? *)
let bmc_exact model k =
  let u = Unroll.create model in
  Unroll.assert_init u ~tag:1;
  for f = 1 to k do
    ignore f;
    Unroll.add_transition u ~tag:(Unroll.nframes u)
  done;
  Unroll.assert_circuit u ~frame:k ~tag:(k + 1) model.Model.bad;
  match Solver.solve (Unroll.solver u) with
  | Solver.Sat -> Some (Unroll.trace u)
  | Solver.Unsat -> None
  | Solver.Undef -> assert false

let test_unroll_counter () =
  let m = counter_model ~bits:4 ~target:6 () in
  for k = 0 to 8 do
    match bmc_exact m k with
    | Some tr ->
      Alcotest.(check bool) (Printf.sprintf "depth %d reaches bad iff k=6" k) true (k = 6);
      Alcotest.(check bool) "trace validates" true (Sim.check_trace m tr)
    | None -> Alcotest.(check bool) (Printf.sprintf "unsat at %d" k) true (k <> 6)
  done

let test_unroll_gated () =
  let m = gated_counter ~bits:3 ~target:3 () in
  (* target 3 needs three enabled steps: reachable at exactly k >= 3. *)
  (match bmc_exact m 2 with
  | None -> ()
  | Some _ -> Alcotest.fail "depth 2 should be unsat");
  match bmc_exact m 3 with
  | None -> Alcotest.fail "depth 3 should be sat"
  | Some tr ->
    Alcotest.(check bool) "returned trace is a real counterexample" true
      (Sim.check_trace m tr)

let test_unroll_state_values () =
  let m = counter_model ~bits:3 ~target:2 () in
  match
    let u = Unroll.create m in
    Unroll.assert_init u ~tag:1;
    Unroll.add_transition u ~tag:2;
    Unroll.add_transition u ~tag:3;
    Unroll.assert_circuit u ~frame:2 ~tag:4 m.Model.bad;
    (u, Solver.solve (Unroll.solver u))
  with
  | u, Solver.Sat ->
    Alcotest.(check (array bool)) "frame0 = init" (Model.init_state m)
      (Unroll.state_values u ~frame:0);
    Alcotest.(check (array bool)) "frame2 = 2" [| false; true; false |]
      (Unroll.state_values u ~frame:2)
  | _ -> Alcotest.fail "expected sat"

(* Frame and index bounds: out-of-range accesses must fail loudly (and
   name the offending accessor), never read a stale or foreign frame. *)
let test_unroll_bounds () =
  let m = gated_counter ~bits:3 ~target:3 () in
  let u = Unroll.create m in
  Unroll.assert_init u ~tag:1;
  Unroll.add_transition u ~tag:2;
  Alcotest.(check int) "two frames allocated" 2 (Unroll.nframes u);
  (* In-range accesses succeed, including the last frame. *)
  ignore (Unroll.state_lit u ~frame:1 2);
  ignore (Unroll.pi_lit u ~frame:1 0);
  let expect_invalid name f =
    match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.failf "%s: expected Invalid_argument" name
  in
  (match Unroll.state_lit u ~frame:2 0 with
  | exception Invalid_argument msg ->
    Alcotest.(check string) "state_lit names itself" "Unroll.state_lit: no such frame" msg
  | _ -> Alcotest.fail "state_lit past the last frame: expected Invalid_argument");
  (match Unroll.pi_lit u ~frame:2 0 with
  | exception Invalid_argument msg ->
    Alcotest.(check string) "pi_lit goes through pi_frame" "Unroll.pi_frame: no such frame"
      msg
  | _ -> Alcotest.fail "pi_lit past the last frame: expected Invalid_argument");
  expect_invalid "state_lit negative frame" (fun () -> Unroll.state_lit u ~frame:(-1) 0);
  expect_invalid "pi_lit negative frame" (fun () -> Unroll.pi_lit u ~frame:(-1) 0);
  expect_invalid "state_lit latch out of range" (fun () -> Unroll.state_lit u ~frame:0 3);
  expect_invalid "pi_lit input out of range" (fun () -> Unroll.pi_lit u ~frame:0 1)

let () =
  Alcotest.run "isr_model"
    [
      ( "builder+sim",
        [
          Alcotest.test_case "counter" `Quick test_builder_counter;
          Alcotest.test_case "missing next" `Quick test_builder_missing_next;
          Alcotest.test_case "validate names the first offender" `Quick
            test_validate_first_offender;
          Alcotest.test_case "init values" `Quick test_init_values;
          Alcotest.test_case "trace check" `Quick test_trace_check;
        ] );
      ( "aiger",
        [
          Alcotest.test_case "roundtrip" `Quick test_aiger_roundtrip;
          Alcotest.test_case "binary roundtrip" `Quick test_aiger_binary_roundtrip;
          Alcotest.test_case "ascii/binary agree" `Quick test_aiger_ascii_binary_agree;
          Alcotest.test_case "init roundtrip" `Quick test_aiger_init_roundtrip;
          Alcotest.test_case "errors" `Quick test_aiger_errors;
          Alcotest.test_case "minimal file" `Quick test_aiger_minimal;
          Alcotest.test_case "multi output" `Quick test_aiger_multi_output;
          Alcotest.test_case "witness roundtrip" `Quick test_witness_roundtrip;
          Alcotest.test_case "renderings and numbering" `Quick test_aiger_renderings_and_numbering;
          Alcotest.test_case "mutations" `Quick test_aiger_mutations;
        ] );
      ("tseitin", [ Alcotest.test_case "equisat" `Quick test_tseitin_equisat ]);
      ( "coi",
        [
          Alcotest.test_case "drops irrelevant" `Quick test_coi_drops_irrelevant;
          Alcotest.test_case "keeps needed" `Quick test_coi_keeps_everything_when_needed;
          Alcotest.test_case "lift trace" `Quick test_coi_lift_trace;
          Alcotest.test_case "lifted witness width" `Quick test_coi_witness_width;
        ] );
      ( "rand_sim",
        [
          Alcotest.test_case "input-free bug" `Quick test_randsim_finds_inputfree_bug;
          Alcotest.test_case "robust bug" `Quick test_randsim_finds_robust_bug;
          Alcotest.test_case "safe model" `Quick test_randsim_none_on_safe;
        ] );
      ( "unroll",
        [
          Alcotest.test_case "counter bmc" `Quick test_unroll_counter;
          Alcotest.test_case "gated bmc" `Quick test_unroll_gated;
          Alcotest.test_case "state values" `Quick test_unroll_state_values;
          Alcotest.test_case "frame and index bounds" `Quick test_unroll_bounds;
        ] );
    ]
