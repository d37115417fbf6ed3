(* Tests for the step-wise engine kernel: checkpoint/resume determinism
   for every engine, scheduler interleaving invariance, and the
   engine-name round-trip contract.

   The checkpoint contract under test is the one step.mli states: a
   snapshot captures the entry of the current bound, and a resumed run
   re-does that bound from scratch — so interrupting a run anywhere and
   restoring the checkpoint onto a freshly built model must reproduce
   the uninterrupted verdict, convergence depths and certificate. *)

open Isr_core
open Isr_suite

let limits =
  { Budget.time_limit = 30.0; conflict_limit = 2_000_000; bound_limit = 60;
    reduce = Isr_sat.Solver.default_reduce }

let entry name =
  match Registry.find name with
  | Some e -> e
  | None -> Alcotest.failf "no registry entry %s" name

let build name = Registry.build_validated (entry name)

(* Verdict equality up to the certificate literal (which lives on a
   different AIG manager after a restore — it is checked semantically
   via Certify instead). *)
let same_verdict ctx a b =
  match (a, b) with
  | Verdict.Proved { kfp = k1; jfp = j1; _ }, Verdict.Proved { kfp = k2; jfp = j2; _ } ->
    Alcotest.(check int) (ctx ^ " kfp") k1 k2;
    Alcotest.(check int) (ctx ^ " jfp") j1 j2
  | Verdict.Falsified { depth = d1; trace = t1 }, Verdict.Falsified { depth = d2; trace = t2 } ->
    Alcotest.(check int) (ctx ^ " cex depth") d1 d2;
    Alcotest.(check bool) (ctx ^ " same trace") true (t1 = t2)
  | Verdict.Unknown r1, Verdict.Unknown r2 ->
    Alcotest.(check bool) (ctx ^ " same reason") true (r1 = r2)
  | _ ->
    Alcotest.failf "%s: verdicts diverged: %a vs %a" ctx Verdict.pp a Verdict.pp b

(* Drive [inst] for at most [n] steps; stops early on [Done]. *)
let step_n inst n =
  let rec go k = if k > 0 && Step.step inst = Step.Running then go (k - 1) in
  go n

(* The round-trip: run the engine uninterrupted for a reference verdict,
   then run a fresh instance half-way, snapshot it through an actual
   checkpoint file, restore onto a third freshly built model and drive
   to completion.  Both final verdicts must agree, and the restored
   run's certificate must check on the restored model. *)
let ckpt_roundtrip packed model_name () =
  let ref_inst = Step.start ~limits packed (build model_name) in
  let ref_v, _ = Step.drive ref_inst in
  let total = Step.steps_done ref_inst in
  let inst = Step.start ~limits packed (build model_name) in
  step_n inst (max 1 (total / 2));
  match Step.status inst with
  | Step.Done (v, _) ->
    (* converged before the midpoint (tiny run) — still a valid check *)
    same_verdict (Step.name inst ^ " early") ref_v v
  | Step.Running ->
    let file = Filename.temp_file "isr_ck" ".ck" in
    Checkpoint.write file (Step.snapshot inst);
    let ck = Checkpoint.read file in
    Sys.remove file;
    let model = build model_name in
    let inst' = Step.restore ~limits packed model ck in
    let v', _ = Step.drive inst' in
    let ctx = Printf.sprintf "%s on %s" (Step.name inst') model_name in
    same_verdict ctx ref_v v';
    (match Certify.check_verdict ~limits model v' with
    | Ok () -> ()
    | Error msg -> Alcotest.failf "%s: restored verdict fails certification: %s" ctx msg)

(* The ITPSEQ machine under its two abstractions, at the engine defaults. *)
let itpseq_cba =
  Itpseq_verif.stepper ~abstraction:Cba ~mode:(Seq_family.Serial 0.5) ~check:Bmc.Exact ()

let itpseq_pba = Itpseq_verif.stepper ~abstraction:Pba ~check:Bmc.Exact ()

(* Every engine, on a safe and (where falsification applies) an unsafe
   instance.  BMC never proves, so it only gets the unsafe ones. *)
let roundtrip_tests =
  let safe = "eijkring8" and unsafe = "vending7bug" in
  [
    ("bmc ckpt/resume (cex)", Bmc.stepper ~check:Bmc.Assume (), unsafe);
    ("bmc incremental ckpt/resume (cex)", Bmc.stepper ~check:Bmc.Assume ~incremental:true (), "prodcons6bug");
    ("itp ckpt/resume (safe)", Itp_verif.stepper (), safe);
    ("itp ckpt/resume (cex)", Itp_verif.stepper (), unsafe);
    ("itpseq ckpt/resume (safe)", Itpseq_verif.stepper (), safe);
    ("itpseq ckpt/resume (cex)", Itpseq_verif.stepper (), unsafe);
    ("sitpseq ckpt/resume (safe)", Itpseq_verif.stepper ~mode:(Seq_family.Serial 0.5) (), safe);
    ("itpseqcba ckpt/resume (safe)", itpseq_cba, safe);
    ("itpseqcba ckpt/resume (cex)", itpseq_cba, unsafe);
    ("itpseqpba ckpt/resume (safe)", itpseq_pba, safe);
    ("itpseqpba ckpt/resume (cex)", itpseq_pba, unsafe);
    ("kind ckpt/resume (safe)", Kind.stepper (), safe);
    ("kind ckpt/resume (cex)", Kind.stepper (), unsafe);
    ("pdr ckpt/resume (safe)", Pdr.stepper (), safe);
    ("pdr ckpt/resume (cex)", Pdr.stepper (), unsafe);
  ]
  |> List.map (fun (doc, p, m) -> Alcotest.test_case doc `Slow (ckpt_roundtrip p m))

(* A checkpoint snapped at EVERY step index of a short run must resume
   to the reference verdict — not just the midpoint.  Exercised on the
   sequence machine under each abstraction strategy (the richest
   snapshot payloads: interpolant columns, plus the mask under CBA and
   PBA). *)
let every_cut_point packed () =
  let name = "traffic6" in
  let ref_inst = Step.start ~limits packed (build name) in
  let ref_v, _ = Step.drive ref_inst in
  let total = Step.steps_done ref_inst in
  for cut = 1 to total - 1 do
    let inst = Step.start ~limits packed (build name) in
    step_n inst cut;
    if Step.status inst = Step.Running then begin
      let model = build name in
      let inst' = Step.restore ~limits packed model (Step.snapshot inst) in
      let v', _ = Step.drive inst' in
      same_verdict (Printf.sprintf "%s cut@%d/%d" (Step.name inst) cut total) ref_v v'
    end
  done

(* Restores must be refused when the checkpoint does not describe the
   engine and model it is being applied to. *)
let restore_mismatch () =
  let packed = Itpseq_verif.stepper () in
  let inst = Step.start ~limits packed (build "traffic6") in
  step_n inst 2;
  let ck = Step.snapshot inst in
  (match Step.restore ~limits (Kind.stepper ()) (build "traffic6") ck with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "restore accepted a checkpoint from another engine");
  (match Step.restore ~limits packed (build "peterson") ck with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "restore accepted a checkpoint from another model");
  let file = Filename.temp_file "isr_ck" ".ck" in
  Out_channel.with_open_bin file (fun oc -> output_string oc "not a checkpoint\n");
  (match Checkpoint.read file with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "Checkpoint.read accepted garbage");
  Sys.remove file

(* The meta line survives the file round-trip byte-exactly. *)
let ckpt_file_roundtrip () =
  let inst = Step.start ~limits (Pdr.stepper ()) (build "traffic6") in
  step_n inst 2;
  let ck = Step.snapshot inst in
  let file = Filename.temp_file "isr_ck" ".ck" in
  Checkpoint.write file ck;
  let ck' = Checkpoint.read file in
  Sys.remove file;
  Alcotest.(check string) "meta json" (Checkpoint.meta_json ck) (Checkpoint.meta_json ck')

(* --- scheduler ------------------------------------------------------------ *)

let lane_members =
  [ ("itpseq", Itpseq_verif.stepper ()); ("sitpseq", Itpseq_verif.stepper ~mode:(Seq_family.Serial 0.5) ());
    ("kind", Kind.stepper ()) ]

let mk_lanes model_name =
  List.mapi
    (fun i (name, p) ->
      { Sched.id = i; name; weight = 1; inst = Step.start ~lane:i ~limits p (build model_name) })
    lane_members

let solo_verdicts model_name =
  List.map
    (fun (_, p) -> fst (Step.drive (Step.start ~limits p (build model_name))))
    lane_members

(* Any step schedule — an arbitrary recorded prefix, then fair
   round-robin — must crown a winner whose verdict equals that engine's
   solo verdict: interleaving never changes what an engine computes. *)
let qcheck_interleaving =
  let model_name = "eijkring8" in
  let solo = lazy (solo_verdicts model_name) in
  let gen = QCheck.(list_of_size (Gen.int_range 0 60) (int_bound (List.length lane_members - 1))) in
  QCheck.Test.make ~count:8 ~name:"interleaving invariance (itpseq columns)" gen
    (fun schedule ->
      let run () =
        match Sched.run ~schedule ~into:(Verdict.mk_stats ()) (mk_lanes model_name) with
        | Sched.Winner { lane; verdict } -> (lane.Sched.id, verdict)
        | Sched.Exhausted _ -> QCheck.Test.fail_report "no lane converged"
      in
      let id, v = run () in
      let id', v' = run () in
      (* replay determinism: the same schedule crowns the same winner *)
      if id <> id' then QCheck.Test.fail_report "same schedule, different winner";
      same_verdict "replayed winner" v v';
      (* and the winner's verdict is its solo verdict *)
      same_verdict (Printf.sprintf "lane %d vs solo" id) (List.nth (Lazy.force solo) id) v;
      true)

(* Exhaustion path: lanes that retire Unknown roll their reasons up and
   the refill hook hands work over exactly once per retirement. *)
let sched_exhaustion () =
  let tight = { limits with bound_limit = 3 } in
  let mk i = { Sched.id = i; name = "bmc"; weight = 2;
               inst = Step.start ~lane:i ~limits:tight (Bmc.stepper ()) (build "eijkring8") } in
  let handed = ref false in
  let refill () = if !handed then None else begin handed := true; Some (mk 7) end in
  match Sched.run ~refill ~into:(Verdict.mk_stats ()) [ mk 0; mk 1 ] with
  | Sched.Winner _ -> Alcotest.fail "BMC cannot prove a safe model"
  | Sched.Exhausted { reasons } ->
    Alcotest.(check int) "three retirements (two seeds + one refill)" 3 (List.length reasons);
    Alcotest.(check bool) "hand-off consumed" true !handed;
    List.iter
      (function Verdict.Bound_limit _ -> () | r ->
        Alcotest.failf "unexpected reason %a" Verdict.pp (Verdict.Unknown r))
      reasons

(* --- engine naming -------------------------------------------------------- *)

(* of_name (name e) = Ok e, for the paper engines and every constructor
   family at assorted parameters — the contract engine.mli documents
   (this is the drift the CLI help and docs regressed on before). *)
let name_roundtrip () =
  let variants =
    Engine.all
    @ [
        Engine.Bmc_only Bmc.Assume; Engine.Bmc_only Bmc.Exact; Engine.Bmc_only Bmc.Bound;
        Engine.Itp; Engine.Itpseq Bmc.Assume; Engine.Itpseq Bmc.Exact;
        Engine.Sitpseq (0.5, Bmc.Assume); Engine.Sitpseq (0.25, Bmc.Exact);
        Engine.Sitpseq (1.0, Bmc.Assume); Engine.Sitpseq (0.125, Bmc.Assume);
        Engine.Itpseq_cba (0.5, Bmc.Exact); Engine.Itpseq_cba (0.75, Bmc.Assume);
        Engine.Itpseq_cba (0.125, Bmc.Exact);
        Engine.Itpseq_pba (0.0, Bmc.Exact); Engine.Itpseq_pba (0.3, Bmc.Assume);
        Engine.Kind; Engine.Pdr; Engine.Portfolio;
      ]
  in
  List.iter
    (fun e ->
      let n = Engine.name e in
      match Engine.of_name n with
      | Ok e' when e' = e -> ()
      | Ok e' ->
        Alcotest.failf "of_name %S: got %s, expected the original" n (Engine.name e')
      | Error msg -> Alcotest.failf "of_name %S rejected: %s" n msg)
    variants;
  (match Engine.of_name "sitpseq1.5-assume" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "alpha out of range accepted");
  (* An α the name cannot print exactly would run one engine and record
     another. *)
  match Engine.of_name "sitpseq0.1234567" with
  | Error msg -> Alcotest.(check bool) "one-line error" false (String.contains msg '\n')
  | Ok e -> Alcotest.failf "unprintable alpha accepted as %s" (Engine.name e)

(* The kernel spelling must match the façade spelling: checkpoints
   written under one name must resolve back to the same engine. *)
let stepper_names () =
  List.iter
    (fun e ->
      match Engine.stepper e with
      | None -> Alcotest.(check bool) "only portfolio lacks a stepper" true (e = Engine.Portfolio)
      | Some (Step.Packed k) ->
        Alcotest.(check string) "stepper name" (Engine.name e) k.Step.name)
    (Engine.Portfolio :: Engine.Bmc_only Bmc.Assume :: Engine.Kind :: Engine.Pdr
     :: Engine.Itpseq_pba (0.0, Bmc.Exact) :: Engine.all)

let () =
  Alcotest.run "step"
    [
      ("roundtrip", roundtrip_tests);
      ( "cut-points",
        [
          Alcotest.test_case "every cut point resumes to the verdict" `Slow
            (every_cut_point (Itpseq_verif.stepper ()));
          Alcotest.test_case "every cut point resumes to the verdict (cba)" `Slow
            (every_cut_point itpseq_cba);
          Alcotest.test_case "every cut point resumes to the verdict (pba)" `Slow
            (every_cut_point itpseq_pba);
        ] );
      ( "envelope",
        [
          Alcotest.test_case "mismatched restores are refused" `Quick restore_mismatch;
          Alcotest.test_case "file round-trip preserves meta" `Quick ckpt_file_roundtrip;
        ] );
      ( "sched",
        [
          QCheck_alcotest.to_alcotest qcheck_interleaving;
          Alcotest.test_case "exhaustion + work hand-off" `Quick sched_exhaustion;
        ] );
      ( "naming",
        [
          Alcotest.test_case "of_name (name e) = Ok e" `Quick name_roundtrip;
          Alcotest.test_case "stepper names match engine names" `Quick stepper_names;
        ] );
    ]
