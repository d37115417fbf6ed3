(* End-to-end tests for the verification engines: every engine must agree
   with the ground-truth verdict of the benchmark circuits, counterexamples
   must replay on the concrete model, and the depth measures must satisfy
   the paper's structural relations. *)

open Isr_model
open Isr_core
open Isr_suite

let limits =
  { Budget.time_limit = 30.0; conflict_limit = 2_000_000; bound_limit = 60; reduce = Isr_sat.Solver.default_reduce }

let engines =
  [
    Engine.Itp;
    Engine.Itpseq Bmc.Assume;
    Engine.Itpseq Bmc.Exact;
    Engine.Sitpseq (0.5, Bmc.Assume);
    Engine.Sitpseq (1.0, Bmc.Assume);
    Engine.Itpseq_cba (0.5, Bmc.Exact);
    Engine.Itpseq_pba (0.0, Bmc.Exact);
    Engine.Kind;
    Engine.Pdr;
    Engine.Portfolio;
  ]

(* The fast instances every engine is expected to close within the test
   limits. *)
let fast_names =
  [
    "amba2g3"; "amba4bug"; "eijkring8"; "eijkring10u7"; "vending7bug"; "traffic6";
    "traffic5bug"; "peterson"; "prodcons6bug"; "coherence3"; "coherence3bug";
    "guidance4"; "tcas12"; "rether16"; "counter6t40"; "gcount5t20"; "vending11";
    "prodcons8"; "reactor3x2"; "fifo2bug"; "hamming8"; "hamming6bug"; "dekker";
    "johnson6"; "johnson5u8"; "elevator6"; "stack3bug";
  ]

let entry name =
  match Registry.find name with
  | Some e -> e
  | None -> Alcotest.failf "no registry entry %s" name

let check_engine_on eng e =
  let model = Registry.build_validated e in
  let verdict, _stats = Engine.run eng ~limits model in
  match (verdict, e.Registry.expected) with
  | Verdict.Proved _, Registry.Safe -> ()
  | Verdict.Falsified { depth; trace }, Registry.Unsafe d ->
    Alcotest.(check int) (Printf.sprintf "%s cex depth" e.Registry.name) d depth;
    (* Counterexamples must replay concretely. *)
    Alcotest.(check bool)
      (Printf.sprintf "%s trace replays" e.Registry.name)
      true
      (Sim.first_bad model trace = Some depth)
  | v, expected ->
    Alcotest.failf "%s: engine %s answered %a, expected %a" e.Registry.name
      (Engine.name eng) Verdict.pp v Registry.pp_expected expected

let engine_tests =
  List.map
    (fun eng ->
      Alcotest.test_case (Engine.name eng) `Slow (fun () ->
          List.iter (fun n -> check_engine_on eng (entry n)) fast_names))
    engines

(* Incremental BMC agrees with from-scratch BMC instance by instance. *)
let test_bmc_incremental_agrees () =
  List.iter
    (fun name ->
      let e = entry name in
      let model = Registry.build_validated e in
      List.iter
        (fun check ->
          let v1, _ = Bmc.run ~check ~limits model in
          let v2, _ = Bmc.run ~check ~incremental:true ~limits model in
          match (v1, v2) with
          | Verdict.Falsified { depth = d1; _ }, Verdict.Falsified { depth = d2; trace } ->
            Alcotest.(check int) (name ^ " same depth") d1 d2;
            Alcotest.(check bool) (name ^ " inc trace replays") true
              (Sim.first_bad model trace = Some d2)
          | Verdict.Unknown (Verdict.Bound_limit _), Verdict.Unknown (Verdict.Bound_limit _)
            ->
            ()
          | _ ->
            Alcotest.failf "%s: scratch %a vs incremental %a" name Verdict.pp v1
              Verdict.pp v2)
        [ Bmc.Exact; Bmc.Assume ])
    [ "tcas12"; "rether16"; "amba4bug"; "vending7bug"; "johnson5u8" ];
  (* And on a safe instance with a small bound cap. *)
  let safe = Registry.build_validated (entry "traffic6") in
  let small = { limits with Budget.bound_limit = 8 } in
  match Bmc.run ~check:Bmc.Assume ~incremental:true ~limits:small safe with
  | Verdict.Unknown (Verdict.Bound_limit 8), _ -> ()
  | v, _ -> Alcotest.failf "incremental on safe: %a" Verdict.pp v

(* BMC alone falsifies and never proves. *)
let test_bmc_falsification () =
  List.iter
    (fun check ->
      let e = entry "tcas12" in
      let model = Registry.build_validated e in
      match Bmc.run ~check ~limits model with
      | Verdict.Falsified { depth; trace }, _ ->
        Alcotest.(check int) "depth" 12 depth;
        Alcotest.(check bool) "replays" true (Sim.check_trace model trace)
      | v, _ -> Alcotest.failf "bmc: %a" Verdict.pp v)
    [ Bmc.Bound; Bmc.Exact; Bmc.Assume ];
  let safe = Registry.build_validated (entry "traffic6") in
  match
    Bmc.run ~limits:{ limits with Budget.bound_limit = 10 } ~check:Bmc.Assume safe
  with
  | Verdict.Unknown (Verdict.Bound_limit _), _ -> ()
  | v, _ -> Alcotest.failf "bmc on safe model: %a" Verdict.pp v

(* Structural relations on depth measures (Section IV-B): for ITPSEQ
   variants, kfp - jfp is bounded by the backward diameter. *)
let test_depth_relation () =
  let checked = ref 0 in
  List.iter
    (fun name ->
      let e = entry name in
      let model = Registry.build_validated e in
      match Isr_bdd.Reach.backward ~max_nodes:2_000_000 model with
      | { Isr_bdd.Reach.verdict = Isr_bdd.Reach.Proved; diameter = Some db; _ } -> (
        match Engine.run (Engine.Itpseq Bmc.Assume) ~limits model with
        | Verdict.Proved { kfp; jfp; _ }, _ ->
          incr checked;
          Alcotest.(check bool)
            (Printf.sprintf "%s: kfp(%d) - jfp(%d) <= d_B(%d)" name kfp jfp db)
            true
            (kfp - jfp <= db)
        | _ -> ())
      | _ -> ())
    [ "amba2g3"; "traffic6"; "coherence3"; "guidance4"; "vending11" ];
  Alcotest.(check bool) "at least two instances checked" true (!checked >= 2)

(* The engines must also agree with exhaustive BDD reachability on every
   mid-size instance that BDDs can handle. *)
let test_bdd_cross_check () =
  List.iter
    (fun name ->
      let e = entry name in
      let model = Registry.build_validated e in
      match Isr_bdd.Reach.forward ~max_nodes:4_000_000 model with
      | { Isr_bdd.Reach.verdict = Isr_bdd.Reach.Proved; _ } ->
        Alcotest.(check bool) (name ^ " expected safe") true (e.Registry.expected = Registry.Safe)
      | { Isr_bdd.Reach.verdict = Isr_bdd.Reach.Falsified d; _ } ->
        Alcotest.(check bool)
          (Printf.sprintf "%s expected unsafe@%d" name d)
          true
          (e.Registry.expected = Registry.Unsafe d)
      | _ -> ())
    fast_names

(* Every PASS ships an inductive certificate that an independent checker
   accepts — including the subtle assume-k case, where closure relies on
   the columns implying the property. *)
let test_certificates () =
  let proving_engines =
    [
      Engine.Itp;
      Engine.Itpseq Bmc.Assume;
      Engine.Itpseq Bmc.Exact;
      Engine.Sitpseq (0.5, Bmc.Assume);
      Engine.Itpseq_cba (0.5, Bmc.Exact);
      Engine.Itpseq_pba (0.0, Bmc.Exact);
      Engine.Pdr;
    ]
  in
  let safe_names = [ "amba2g3"; "traffic6"; "coherence3"; "vending11"; "peterson"; "guidance4" ] in
  List.iter
    (fun name ->
      let model = Registry.build_validated (entry name) in
      List.iter
        (fun eng ->
          match Engine.run eng ~limits model with
          | (Verdict.Proved { invariant = Some _; _ } as v), _ -> (
            match Certify.check_verdict model v with
            | Ok () -> ()
            | Error e -> Alcotest.failf "%s / %s: %s" name (Engine.name eng) e)
          | v, _ ->
            Alcotest.failf "%s / %s: expected a certified PASS, got %a" name
              (Engine.name eng) Verdict.pp v)
        proving_engines)
    safe_names

let test_certify_rejects_bogus () =
  let model = Registry.build_validated (entry "vending11") in
  let man = model.Isr_model.Model.man in
  (* "true" is not safe; "false" is not initial; credit=0 is not closed. *)
  (match Certify.check model Isr_aig.Aig.lit_true with
  | Error Certify.Not_safe -> ()
  | _ -> Alcotest.fail "true should fail safety");
  (match Certify.check model Isr_aig.Aig.lit_false with
  | Error Certify.Not_initial -> ()
  | _ -> Alcotest.fail "false should fail initiation");
  let credit_zero =
    List.init model.Isr_model.Model.num_latches (fun i ->
        Isr_aig.Aig.not_ (Isr_model.Model.latch_lit model i))
    |> Isr_aig.Aig.big_and man
  in
  match Certify.check model credit_zero with
  | Error Certify.Not_inductive -> ()
  | _ -> Alcotest.fail "credit=0 should fail consecution"

(* Liveness via L2S: justice properties decided by the safety engines. *)
let test_l2s_liveness () =
  let open Isr_aig in
  (* 1. A free-running 3-bit counter visits 0 infinitely often: the
     transformed model must be falsifiable, and the counterexample must
     decode into a genuine fair lasso. *)
  let free = Isr_suite.Circuits.counter ~bits:3 ~target:7 in
  let j_zero =
    Aig.big_and free.Isr_model.Model.man
      (List.init 3 (fun i -> Aig.not_ (Isr_model.Model.latch_lit free i)))
  in
  let safety, decode = L2s.transform free ~justice:[ j_zero ] in
  (match Engine.run (Engine.Bmc_only Bmc.Exact) ~limits safety with
  | Verdict.Falsified { trace; _ }, _ ->
    let w = decode trace in
    Alcotest.(check bool) "fair lasso replays" true
      (L2s.check_witness free ~justice:[ j_zero ] w)
  | v, _ -> Alcotest.failf "free counter liveness: %a" Verdict.pp v);
  (* 2. A saturating counter never reaches 6 once stuck at 4: the
     justice condition "counter = 6" admits no fair lasso. *)
  let b = Isr_model.Builder.create "saturating" in
  let q = Isr_model.Builder.latches b 3 in
  let at4 = Isr_model.Builder.vec_eq_const b q 4 in
  let q1 = Isr_model.Builder.vec_mux b at4 q (Isr_model.Builder.vec_incr b q) in
  Array.iteri (fun i l -> Isr_model.Builder.set_next b l q1.(i)) q;
  let sat_model = Isr_model.Builder.finish b ~bad:Aig.lit_false in
  let eq_sat v =
    Aig.big_and sat_model.Isr_model.Model.man
      (List.init 3 (fun i ->
           let l = Isr_model.Model.latch_lit sat_model i in
           if (v lsr i) land 1 = 1 then l else Aig.not_ l))
  in
  let safety2, _ = L2s.transform sat_model ~justice:[ eq_sat 6 ] in
  (match Engine.run Engine.Pdr ~limits safety2 with
  | Verdict.Proved _, _ -> ()
  | v, _ -> Alcotest.failf "saturating liveness: %a" Verdict.pp v);
  (* 3. Two justice conditions at once: the lasso must visit both 1 and
     2 — satisfiable on the free counter. *)
  let eq_const v =
    Aig.big_and free.Isr_model.Model.man
      (List.init 3 (fun i ->
           let l = Isr_model.Model.latch_lit free i in
           if (v lsr i) land 1 = 1 then l else Aig.not_ l))
  in
  let js = [ eq_const 1; eq_const 2 ] in
  let safety3, decode3 = L2s.transform free ~justice:js in
  match Engine.run (Engine.Bmc_only Bmc.Exact) ~limits safety3 with
  | Verdict.Falsified { trace; _ }, _ ->
    Alcotest.(check bool) "two-condition lasso" true
      (L2s.check_witness free ~justice:js (decode3 trace))
  | v, _ -> Alcotest.failf "two-justice liveness: %a" Verdict.pp v

(* Unknown paths: a tiny budget must yield Unknown, never a wrong
   verdict. *)
let test_resource_limits () =
  let e = entry "rether16" in
  let model = Registry.build_validated e in
  let tiny = { Budget.time_limit = 30.0; conflict_limit = 5; bound_limit = 60; reduce = Isr_sat.Solver.default_reduce } in
  (match Engine.run Engine.Itp ~limits:tiny model with
  | Verdict.Unknown _, _ -> ()
  | Verdict.Falsified { depth; trace }, _ ->
    (* Acceptable only if it is the true counterexample. *)
    Alcotest.(check int) "depth" 16 depth;
    Alcotest.(check bool) "replays" true (Sim.check_trace model trace)
  | v, _ -> Alcotest.failf "tiny budget: %a" Verdict.pp v);
  let short = { Budget.time_limit = 30.0; conflict_limit = 2_000_000; bound_limit = 3; reduce = Isr_sat.Solver.default_reduce } in
  match Engine.run (Engine.Itpseq Bmc.Assume) ~limits:short model with
  | Verdict.Unknown (Verdict.Bound_limit 3), _ -> ()
  | v, _ -> Alcotest.failf "bound limit: %a" Verdict.pp v

(* Regression: [Budget.solve] used to leave its [on_learnt]/[on_restart]
   observers installed after returning or raising, so a later direct
   [Solver.solve] on the same solver kept charging the stale registry of
   a finished call. *)
(* Pigeonhole php(n): needs well over the tiny conflict budgets below. *)
let php_solver n =
  let open Isr_sat in
  let var p h = (p * n) + h in
  let s = Solver.create () in
  for _ = 1 to (n + 1) * n do
    ignore (Solver.new_var s)
  done;
  for p = 0 to n do
    Solver.add_clause s (List.init n (fun h -> Lit.pos (var p h)))
  done;
  for h = 0 to n - 1 do
    for p1 = 0 to n do
      for p2 = p1 + 1 to n do
        Solver.add_clause s [ Lit.neg (Lit.pos (var p1 h)); Lit.neg (Lit.pos (var p2 h)) ]
      done
    done
  done;
  s

let test_budget_callbacks_cleared () =
  let open Isr_sat in
  let s = php_solver 5 in
  let stats = Verdict.mk_stats () in
  let tiny = { Budget.time_limit = 30.0; conflict_limit = 50; bound_limit = 60; reduce = Isr_sat.Solver.default_reduce } in
  let budget = Budget.start tiny in
  (match Budget.solve budget stats s with
  | exception Budget.Out_of_conflicts -> ()
  | _ -> Alcotest.fail "expected conflict exhaustion");
  let observed = Isr_obs.Metrics.hist_count stats.Verdict.h_learnt_len in
  Alcotest.(check bool) "some clauses learnt" true (observed > 0);
  (* Finishing the refutation outside the budget layer learns many more
     clauses; none of them may reach the finished call's registry. *)
  Alcotest.(check bool) "refutes" true (Solver.solve s = Solver.Unsat);
  Alcotest.(check int) "observer was cleared" observed
    (Isr_obs.Metrics.hist_count stats.Verdict.h_learnt_len)

(* Budget exhaustion mid-solve must leave a loadable flight.jsonl: the
   raise site inside [Budget.solve] dumps before unwinding. *)
let test_budget_expiry_dumps_flight () =
  let dir = Filename.temp_file "isr_flight" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  let rec rm p =
    if Sys.is_directory p then begin
      Array.iter (fun e -> rm (Filename.concat p e)) (Sys.readdir p);
      Sys.rmdir p
    end
    else Sys.remove p
  in
  Fun.protect
    ~finally:(fun () ->
      Isr_obs.Flight.disarm ();
      if Sys.file_exists dir then rm dir)
    (fun () ->
      Isr_obs.Flight.arm ~dir ();
      (* Something in the ring before the search, so the dump provably
         carries the pre-expiry tail. *)
      Isr_obs.Event.emit
        (Isr_obs.Event.Phase { phase = "test.pre"; step = -1; detail = "" });
      let s = php_solver 5 in
      let stats = Verdict.mk_stats () in
      let tiny =
        { Budget.time_limit = 30.0; conflict_limit = 50; bound_limit = 60;
          reduce = Isr_sat.Solver.default_reduce }
      in
      (match Budget.solve (Budget.start tiny) stats s with
      | exception Budget.Out_of_conflicts -> ()
      | _ -> Alcotest.fail "expected conflict exhaustion");
      let path = Filename.concat dir "flight.jsonl" in
      Alcotest.(check bool) "budget expiry left a dump" true (Sys.file_exists path);
      let meta, evs = Isr_obs.Flight.read path in
      (match meta with
      | Some m ->
        Alcotest.(check string) "dump reason" "budget.conflicts"
          m.Isr_obs.Flight.reason
      | None -> Alcotest.fail "no flight metadata line");
      Alcotest.(check bool) "events loadable and non-empty" true (evs <> []);
      Alcotest.(check bool) "pre-expiry event survived" true
        (List.exists
           (fun (e : Isr_obs.Event.t) ->
             match e.Isr_obs.Event.kind with
             | Isr_obs.Event.Phase { phase; _ } -> phase = "test.pre"
             | _ -> false)
           evs))

(* --- formulation pin -----------------------------------------------------
   Verdict and convergence depths of the interpolation engines on quick
   registry entries.  kfp and jfp are decided by the fixpoint checks, so
   a change to how those checks are posed (encoding, solver reuse, proof
   logging) must leave this table unchanged; a deliberate change of
   formulation updates it and says why.  fifo3 runs only the engine that
   closes it quickly. *)
type pin = Pin_proved of int * int | Pin_falsified of int

let pin_engines =
  [ "itp"; "itpseq-assume"; "sitpseq0.5-assume"; "itpseqcba0.5-exact"; "itpseqpba-exact" ]

let pins =
  let p k j = Pin_proved (k, j) and f d = Pin_falsified d in
  (* A row pins the first engines of [pin_engines], in order. *)
  let row name ps = (name, List.mapi (fun i pin -> (List.nth pin_engines i, pin)) ps) in
  [
    row "vending11" [ p 1 4; p 6 6; p 6 6; p 7 7; p 7 6 ];
    row "peterson" [ p 6 6; p 11 7; p 11 7; p 10 6; p 11 7 ];
    row "traffic6" [ p 1 3; p 3 3; p 3 3; p 3 3; p 3 3 ];
    row "ring6safe" [ p 1 6; p 6 6; p 6 6; p 6 6; p 6 6 ];
    row "coherence4" [ p 1 5; p 4 4; p 4 4; p 5 3; p 5 3 ];
    row "johnson6" [ p 2 12; p 12 12; p 12 12; p 12 12; p 12 12 ];
    row "arbiter5" [ p 2 4; p 3 2; p 3 2; p 3 2; p 3 2 ];
    row "eijkring12" [ p 1 12; p 12 12; p 12 12 ];
    row "vending7bug" [ f 8; f 8; f 8; f 8; f 8 ];
    row "stack3bug" [ f 9; f 9; f 9; f 9; f 9 ];
    ("fifo3", [ ("sitpseq0.5-assume", p 13 9) ]);
  ]

let test_formulation_pin name cells () =
  let model = Registry.build_validated (entry name) in
  List.iter
    (fun (ename, pin) ->
      let eng = match Engine.of_name ename with Ok e -> e | Error m -> Alcotest.fail m in
      let ctx = Printf.sprintf "%s/%s" name ename in
      match (Engine.run eng ~limits model, pin) with
      | (Verdict.Proved { kfp; jfp; _ }, _), Pin_proved (k, j) ->
        Alcotest.(check (pair int int)) (ctx ^ " kfp,jfp") (k, j) (kfp, jfp)
      | (Verdict.Falsified { depth; _ }, _), Pin_falsified d ->
        Alcotest.(check int) (ctx ^ " cex depth") d depth
      | (v, _), _ -> Alcotest.failf "%s: verdict changed to %a" ctx Verdict.pp v)
    cells

(* --- Incl: one context, many queries ---------------------------------------
   A random sequence of implication queries on one context must agree with
   exhaustive enumeration of the latch valuations: neither the cached
   cones nor the learnt clauses of earlier queries may leak into a later
   answer.  The sequence is replayed reversed, and every predicate is also
   tested against both constants on both sides. *)
type pred = P_true | P_false | P_latch of int | P_not of pred | P_and of pred * pred | P_or of pred * pred

let rec show_pred = function
  | P_true -> "T"
  | P_false -> "F"
  | P_latch i -> Printf.sprintf "l%d" i
  | P_not p -> "!" ^ show_pred p
  | P_and (a, b) -> Printf.sprintf "(%s & %s)" (show_pred a) (show_pred b)
  | P_or (a, b) -> Printf.sprintf "(%s | %s)" (show_pred a) (show_pred b)

let gen_incl_case =
  let open QCheck2.Gen in
  let* nl = int_range 1 8 in
  let leaf = oneof [ pure P_true; pure P_false; map (fun i -> P_latch i) (int_range 0 (nl - 1)) ] in
  let pred =
    sized_size (int_range 0 6) @@ fix (fun self n ->
        if n = 0 then leaf
        else
          let sub = self (n / 2) in
          oneof
            [
              leaf;
              map (fun p -> P_not p) sub;
              map2 (fun a b -> P_and (a, b)) sub sub;
              map2 (fun a b -> P_or (a, b)) sub sub;
            ])
  in
  let* preds = list_size (int_range 1 6) pred in
  let* queries =
    list_size (int_range 1 20)
      (pair (int_range 0 (List.length preds - 1)) (int_range 0 (List.length preds - 1)))
  in
  pure (nl, Array.of_list preds, queries)

let print_incl_case (nl, preds, queries) =
  Printf.sprintf "%d latches; preds [%s]; queries [%s]" nl
    (String.concat "; " (Array.to_list (Array.map show_pred preds)))
    (String.concat "; " (List.map (fun (a, b) -> Printf.sprintf "%d=>%d" a b) queries))

let prop_incl_agrees =
  QCheck2.Test.make ~count:100 ~name:"incl context agrees with enumeration"
    ~print:print_incl_case gen_incl_case (fun (nl, preds, queries) ->
      let open Isr_aig in
      let b = Builder.create "incl" in
      Array.iter (fun l -> Builder.set_next b l (Aig.not_ l)) (Builder.latches b nl);
      let model = Builder.finish b ~bad:Aig.lit_false in
      let man = model.Model.man in
      let rec lit = function
        | P_true -> Aig.lit_true
        | P_false -> Aig.lit_false
        | P_latch i -> Model.latch_lit model i
        | P_not p -> Aig.not_ (lit p)
        | P_and (a, b) -> Aig.and_ man (lit a) (lit b)
        | P_or (a, b) -> Aig.or_ man (lit a) (lit b)
      in
      let holds l state = Sim.eval_lit model ~state ~inputs:[||] l in
      let reference a b =
        List.for_all
          (fun s ->
            let state = Array.init nl (fun i -> (s lsr i) land 1 = 1) in
            (not (holds a state)) || holds b state)
          (List.init (1 lsl nl) Fun.id)
      in
      let incl = Incl.create model in
      let budget = Budget.start limits and stats = Verdict.mk_stats () in
      (* Predicates are built lazily, query by query, so the context sees
         the manager grow between queries as it does inside an engine. *)
      let ask a b = Incl.implies incl budget stats a b = reference a b in
      let pair_queries = List.map (fun (i, j) -> (preds.(i), preds.(j))) queries in
      let const_queries =
        List.concat_map
          (fun p -> [ (p, P_true); (p, P_false); (P_true, p); (P_false, p) ])
          (Array.to_list preds)
      in
      List.for_all
        (fun (a, b) -> ask (lit a) (lit b))
        (pair_queries @ const_queries @ List.rev pair_queries @ pair_queries))

let () =
  Alcotest.run "isr_core"
    [
      ("engines", engine_tests);
      ( "formulation pin",
        List.map
          (fun (name, cells) ->
            Alcotest.test_case name `Slow (test_formulation_pin name cells))
          pins );
      ("incl", [ QCheck_alcotest.to_alcotest prop_incl_agrees ]);
      ( "bmc",
        [
          Alcotest.test_case "falsification" `Slow test_bmc_falsification;
          Alcotest.test_case "incremental agrees" `Slow test_bmc_incremental_agrees;
          Alcotest.test_case "resource limits" `Quick test_resource_limits;
        ] );
      ( "budget",
        [
          Alcotest.test_case "observers cleared" `Quick test_budget_callbacks_cleared;
          Alcotest.test_case "budget expiry dumps flight" `Quick
            test_budget_expiry_dumps_flight;
        ] );
      ( "cross-checks",
        [
          Alcotest.test_case "depth relation" `Slow test_depth_relation;
          Alcotest.test_case "bdd agreement" `Slow test_bdd_cross_check;
        ] );
      ( "certificates",
        [
          Alcotest.test_case "proofs certify" `Slow test_certificates;
          Alcotest.test_case "bogus rejected" `Quick test_certify_rejects_bogus;
        ] );
      ( "liveness",
        [
          Alcotest.test_case "l2s" `Slow test_l2s_liveness;
        ] );
    ]
