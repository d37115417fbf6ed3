(* Tests for the certified static analyzer: ternary simulation agrees
   with concrete simulation on X-free inputs and is monotone under
   X-refinement; pipeline verdicts match exhaustive reachability on
   small random circuits; and counterexamples lifted through any pass
   composition replay on the original model. *)

open Isr_aig
open Isr_model
module A = Isr_analyze
module Ternary = Isr_analyze.Ternary
module Level = Isr_check_core.Level

let nl = 3 (* latches *)
let ni = 2 (* inputs *)

(* Random combinational functions over the latches and inputs. *)
type expr = T | F | In of int | L of int | Not of expr | And of expr * expr | Xor of expr * expr

let gen_expr =
  let open QCheck2.Gen in
  sized_size (int_range 0 5) @@ fix (fun self n ->
      if n = 0 then
        oneof
          [
            pure T; pure F;
            map (fun i -> In i) (int_range 0 (ni - 1));
            map (fun i -> L i) (int_range 0 (nl - 1));
          ]
      else
        let sub = self (n / 2) in
        oneof
          [
            map (fun e -> Not e) sub;
            map2 (fun a b -> And (a, b)) sub sub;
            map2 (fun a b -> Xor (a, b)) sub sub;
          ])

let gen_circuit =
  let open QCheck2.Gen in
  let* nexts = list_size (pure nl) gen_expr in
  let* bad = gen_expr in
  let* inits = list_size (pure nl) bool in
  pure (nexts, bad, inits)

let print_circuit (_ : expr list * expr * bool list) = "<circuit>"

let build (nexts, bad, inits) =
  let b = Builder.create "random" in
  let ins = Builder.inputs b ni in
  let ls =
    Array.of_list (List.map (fun init -> Builder.latch b ~init ()) inits)
  in
  let rec tr = function
    | T -> Aig.lit_true
    | F -> Aig.lit_false
    | In i -> ins.(i)
    | L i -> ls.(i)
    | Not e -> Aig.not_ (tr e)
    | And (a, b') -> Aig.and_ (Builder.man b) (tr a) (tr b')
    | Xor (a, b') -> Aig.xor_ (Builder.man b) (tr a) (tr b')
  in
  List.iteri (fun i e -> Builder.set_next b ls.(i) (tr e)) nexts;
  Builder.finish b ~bad:(tr bad)

(* Exhaustive reachability on the explicit state graph: is some
   reachable state bad under some input assignment? *)
let explicit_unsafe m =
  let bools_of mask width = Array.init width (fun i -> (mask lsr i) land 1 = 1) in
  let visited = Array.make (1 lsl nl) false in
  let mask_of state =
    Array.to_list state
    |> List.mapi (fun i b -> if b then 1 lsl i else 0)
    |> List.fold_left ( + ) 0
  in
  let rec explore frontier =
    match frontier with
    | [] -> false
    | state :: rest ->
      let sm = mask_of state in
      if visited.(sm) then explore rest
      else begin
        visited.(sm) <- true;
        let bad_here = ref false in
        let succs = ref rest in
        for im = 0 to (1 lsl ni) - 1 do
          let inputs = bools_of im ni in
          if Sim.bad_now m ~state ~inputs then bad_here := true;
          succs := Sim.step m ~state ~inputs :: !succs
        done;
        !bad_here || explore !succs
      end
  in
  explore [ Model.init_state m ]

let with_level level f =
  let prev = Level.get () in
  Level.set level;
  Fun.protect ~finally:(fun () -> Level.set prev) f

(* --- ternary simulator ------------------------------------------------- *)

(* On X-free environments the ternary simulator is exact: it agrees with
   concrete Sim and with lane 0 of the 64-bit kernel. *)
let ternary_concrete_agreement =
  QCheck2.Test.make ~count:300 ~name:"ternary = concrete Sim/Rand_sim on X-free inputs"
    ~print:print_circuit
    gen_circuit
    (fun circuit ->
      let m = build circuit in
      let state = Model.init_state m in
      let inputs = [| true; false |] in
      let tstate = Array.map Ternary.of_bool state in
      let tinputs = Array.map Ternary.of_bool inputs in
      let broadcast b = if b then -1L else 0L in
      let fr =
        Rand_sim.frame64 m ~state:(Array.map broadcast state)
          ~input:(fun i -> broadcast inputs.(i))
      in
      let lane0 w = Int64.logand w 1L = 1L in
      let ok_bad =
        Ternary.bad_now m ~state:tstate ~inputs:tinputs
        = Ternary.of_bool (Sim.bad_now m ~state ~inputs)
        && lane0 fr.Rand_sim.bad = Sim.bad_now m ~state ~inputs
      in
      let concrete_next = Sim.step m ~state ~inputs in
      let ternary_next = Ternary.step m ~state:tstate ~inputs:tinputs in
      ok_bad
      && Array.for_all2
           (fun tv b -> tv = Ternary.of_bool b)
           ternary_next concrete_next
      && Array.for_all2
           (fun w b -> lane0 w = b)
           fr.Rand_sim.next concrete_next)

(* Refining X inputs to concrete values can only refine the output: a
   constant ternary answer is pinned for every completion. *)
let ternary_monotone =
  QCheck2.Test.make ~count:300 ~name:"ternary eval is monotone under X-refinement"
    ~print:print_circuit
    gen_circuit
    (fun circuit ->
      let m = build circuit in
      let state = Model.init_state m in
      let tstate = Array.map Ternary.of_bool state in
      (* Abstract: every input X.  Refined: concrete values. *)
      let xin = Array.make ni Ternary.X in
      let inputs = [| false; true |] in
      let tin = Array.map Ternary.of_bool inputs in
      let roots = m.Model.bad :: Array.to_list m.Model.next in
      let abs = Ternary.node_values m.Model.man ~env:(Ternary.env_of m ~state:tstate ~inputs:xin) roots in
      let conc = Ternary.node_values m.Model.man ~env:(Ternary.env_of m ~state:tstate ~inputs:tin) roots in
      List.for_all
        (fun root ->
          Ternary.refines (Ternary.lit_value conc root) (Ternary.lit_value abs root))
        roots)

(* Everything the lfp pins constant really is stuck there: walk concrete
   executions for a few random steps and compare. *)
let lfp_sound =
  QCheck2.Test.make ~count:200 ~name:"lfp constants hold on concrete executions"
    ~print:(fun _ -> "<circuit+inputs>")
    QCheck2.Gen.(pair gen_circuit (list_size (pure 8) (int_bound ((1 lsl ni) - 1))))
    (fun (circuit, input_masks) ->
      let m = build circuit in
      let fix = Ternary.lfp m in
      let state = ref (Model.init_state m) in
      let ok = ref true in
      List.iter
        (fun mask ->
          let inputs = Array.init ni (fun i -> (mask lsr i) land 1 = 1) in
          Array.iteri
            (fun i v ->
              match Ternary.to_bool v with
              | Some b -> if !state.(i) <> b then ok := false
              | None -> ())
            fix;
          state := Sim.step m ~state:!state ~inputs)
        input_masks;
      !ok)

(* --- pipeline ----------------------------------------------------------- *)

(* Trivial verdicts agree with exhaustive reachability, under full
   certification. *)
let verdict_sound =
  QCheck2.Test.make ~count:150 ~name:"analyzer verdicts = exhaustive reachability"
    ~print:print_circuit
    gen_circuit
    (fun circuit ->
      let m = build circuit in
      with_level Level.Paranoid (fun () ->
          let r = A.run ~mode:A.Full m in
          match r.A.verdict with
          | None -> true
          | Some (A.Safe _) -> not (explicit_unsafe m)
          | Some (A.Unsafe { trace }) -> Sim.check_trace m trace))

(* A counterexample found on the simplified model lifts through the
   whole pass composition (coi, const, coi, fraig) to a trace that
   replays on the original via Sim. *)
let lift_replays =
  QCheck2.Test.make ~count:150 ~name:"lifted counterexamples replay on the original"
    ~print:print_circuit
    gen_circuit
    (fun circuit ->
      let m = build circuit in
      with_level Level.Fast (fun () ->
          let r = A.run ~mode:A.Full m in
          match r.A.verdict with
          | Some (A.Unsafe { trace }) -> Sim.check_trace m trace
          | Some (A.Safe _) -> true
          | None -> (
            match Rand_sim.falsify ~rounds:4 ~max_depth:16 r.A.model with
            | None -> true
            | Some tr -> Sim.check_trace m (r.A.lift tr))))

(* --- pad invariance ------------------------------------------------------ *)

(* The analyzer reduces to the property's cone before any ternary pass, so
   the logic padded around a core cannot change what it finds: the
   reduced model and the trivial verdict depend on the core alone. *)
let padded ?(name = "padded") ~pad ~seed core =
  Isr_suite.Circuits.industrial ~name ~core ~pad_latches:pad ~pad_inputs:(pad / 3) ~seed

let verdict_kind (r : A.result) =
  match r.A.verdict with None -> "none" | Some (A.Safe _) -> "safe" | Some (A.Unsafe _) -> "unsafe"

let same_under_pads ~mode core =
  let a = A.run ~mode (padded ~pad:12 ~seed:1 core) in
  let b = A.run ~mode (padded ~pad:60 ~seed:5 core) in
  verdict_kind a = verdict_kind b
  && Aiger.to_string a.A.model = Aiger.to_string b.A.model

(* Random cores exercise const, which no registry entry triggers. *)
let pad_invariance =
  QCheck2.Test.make ~count:150 ~name:"random cores: analysis is pad-invariant"
    ~print:(fun (c, _) -> print_circuit c)
    QCheck2.Gen.(pair gen_circuit bool)
    (fun (circuit, full) ->
      with_level Level.Fast (fun () ->
          same_under_pads ~mode:(if full then A.Full else A.Fast) (build circuit)))

let registry_sample =
  [ "vending11"; "vending7bug"; "peterson"; "fifo3"; "traffic6"; "arbiter5"; "coherence4" ]

let test_registry_pad_invariance () =
  List.iter
    (fun name ->
      let e = Option.get (Isr_suite.Registry.find name) in
      Alcotest.(check bool) (name ^ " pad-invariant") true
        (same_under_pads ~mode:A.Fast (e.Isr_suite.Registry.build ())))
    registry_sample

(* Reduced-model digests taken before the pass order put the cone first;
   the order change must keep them. *)
let test_reduced_model_pins () =
  List.iter
    (fun (core, pad, seed, mode, digest) ->
      let e = Option.get (Isr_suite.Registry.find core) in
      let m =
        padded ~name:(Printf.sprintf "%s+pad%d" core pad) ~pad ~seed
          (e.Isr_suite.Registry.build ())
      in
      let r = A.run ~mode m in
      Alcotest.(check string)
        (Printf.sprintf "%s+pad%d seed %d" core pad seed)
        digest
        (Digest.to_hex (Digest.string (Aiger.to_string r.A.model)));
      Alcotest.(check string) (core ^ " verdict") "none" (verdict_kind r))
    [
      ("vending11", 90, 1, A.Fast, "9b742fc42a3c2c68297f7646cec5587d");
      ("peterson", 700, 3, A.Fast, "39fee3a9340799452809722606edb036");
      ("fifo3", 300, 5, A.Fast, "fcae5b74ec65bdf3f6828b8fc03686b4");
      ("traffic6", 2000, 11, A.Fast, "d45bd5e787148c83dcbbc0cab78e3dd0");
      ("vending7bug", 150, 2, A.Fast, "057a8f4d7931eadc80b0ae349066fcd1");
      ("arbiter5", 500, 7, A.Full, "b185a349863a6a1eca7ee79f90688b98");
      ("coherence4", 120, 4, A.Full, "1cd30396528dc76065e365a02c658adc");
    ]

(* --- unit tests on hand-built models ----------------------------------- *)

(* A latch frozen at its initial value gating the property: the ternary
   fixpoint must prove safety outright, with a certified invariant. *)
let test_stuck_latch_safe () =
  let b = Builder.create "stuck" in
  let _free = Builder.input b in
  let frozen = Builder.latch b ~init:false () in
  let counter = Builder.latches b 2 in
  Builder.set_next b frozen frozen;
  Array.iteri
    (fun i l -> Builder.set_next b l (Builder.vec_incr b counter).(i))
    counter;
  (* bad requires the frozen latch: unreachable. *)
  let bad = Aig.and_ (Builder.man b) frozen (Builder.vec_eq_const b counter 3) in
  let m = Builder.finish b ~bad in
  with_level Level.Paranoid (fun () ->
      let r = A.run ~mode:A.Fast m in
      match r.A.verdict with
      | Some (A.Safe { invariant }) ->
        (* The invariant must hold initially and exclude bad states. *)
        let env i =
          if i < m.Model.num_inputs then false else m.Model.init.(i - m.Model.num_inputs)
        in
        Alcotest.(check bool) "init |= inv" true (Aig.eval m.Model.man env invariant)
      | _ -> Alcotest.fail "expected a Safe verdict from the stuck-at analysis")

let test_depth0_unsafe () =
  let b = Builder.create "d0" in
  let x = Builder.input b in
  let q = Builder.latch b ~init:true () in
  Builder.set_next b q q;
  let m = Builder.finish b ~bad:(Aig.and_ (Builder.man b) q x) in
  with_level Level.Paranoid (fun () ->
      let r = A.run m in
      match r.A.verdict with
      | Some (A.Unsafe { trace }) ->
        Alcotest.(check bool) "replays" true (Sim.check_trace m trace);
        Alcotest.(check int) "depth 0" 0 (Trace.depth trace)
      | _ -> Alcotest.fail "expected an Unsafe verdict at depth 0")

(* Reductions compose: a stuck-at latch, the logic it gates and the
   latches feeding only that logic all disappear, while the residual
   (deeper) counterexample still lifts through the composition. *)
let test_reductions_compose () =
  let b = Builder.create "compose" in
  let man = Builder.man b in
  let i0 = Builder.input b in
  let stuck = Builder.latch b ~init:false () in
  Builder.set_next b stuck stuck;
  let dead = Builder.latch b () in
  Builder.set_next b dead (Aig.xor_ man dead i0);
  let q = Builder.latches b 2 in
  Array.iteri (fun i l -> Builder.set_next b l (Builder.vec_incr b q).(i)) q;
  (* Dangling logic: built but unused. *)
  ignore (Aig.and_ man i0 (Aig.not_ i0));
  (* Reachable only at q = 3 with i0 high — beyond the analyzer's
     depth-0 horizon, so no trivial verdict; the [stuck && dead] arm is
     constant-folded away, which then strands [dead] outside the COI. *)
  let bad =
    Aig.or_ man
      (Aig.and_ man (Aig.and_ man q.(0) q.(1)) i0)
      (Aig.and_ man stuck dead)
  in
  let m = Builder.finish b ~bad in
  with_level Level.Paranoid (fun () ->
      let r = A.run ~mode:A.Full m in
      (match r.A.verdict with
      | None -> ()
      | Some _ -> Alcotest.fail "bad is reachable only at depth 3: no trivial verdict");
      Alcotest.(check bool) "latches reduced" true
        (r.A.model.Model.num_latches < m.Model.num_latches);
      Alcotest.(check bool) "ands reduced" true
        (Model.num_ands r.A.model < Model.num_ands m);
      Alcotest.(check bool) "claims discharged" true (A.total_claims r >= 1);
      match Rand_sim.falsify r.A.model with
      | None -> Alcotest.fail "random simulation must falsify the 2-bit counter"
      | Some tr ->
        Alcotest.(check bool) "lifted trace replays on the original" true
          (Sim.check_trace m (r.A.lift tr)))

let test_analyze_off_is_identity () =
  let m = build ([ L 0; L 1; In 0 ], In 1, [ false; true; false ]) in
  let r = A.run ~mode:A.Off m in
  Alcotest.(check bool) "same model" true (r.A.model == m);
  Alcotest.(check int) "no passes" 0 (List.length r.A.passes)

let test_metrics_recorded () =
  let m = build ([ F; L 1; L 2 ], And (L 0, In 0), [ false; false; false ]) in
  let reg = Isr_obs.Metrics.create () in
  let _r = A.run ~mode:A.Fast ~registry:reg m in
  let names = Isr_obs.Metrics.names reg in
  Alcotest.(check bool) "analyze.* gauges present" true
    (List.mem "analyze.ands_before" names && List.mem "analyze.ands_after" names)

let () =
  Alcotest.run "isr_analyze"
    [
      ( "ternary",
        List.map QCheck_alcotest.to_alcotest
          [ ternary_concrete_agreement; ternary_monotone; lfp_sound ] );
      ( "pipeline",
        List.map QCheck_alcotest.to_alcotest [ verdict_sound; lift_replays; pad_invariance ] );
      ( "pads",
        [
          Alcotest.test_case "registry cores are pad-invariant" `Quick
            test_registry_pad_invariance;
          Alcotest.test_case "reduced-model pins" `Quick test_reduced_model_pins;
        ] );
      ( "units",
        [
          Alcotest.test_case "stuck latch proves safe" `Quick test_stuck_latch_safe;
          Alcotest.test_case "depth-0 bad proves unsafe" `Quick test_depth0_unsafe;
          Alcotest.test_case "reductions compose" `Quick test_reductions_compose;
          Alcotest.test_case "mode off is identity" `Quick test_analyze_off_is_identity;
          Alcotest.test_case "metrics recorded" `Quick test_metrics_recorded;
        ] );
    ]
