(* The parallel runner: raced verdicts must agree with the sequential
   portfolio (and with the ground truth), bound-parallel BMC must report
   the same minimal depth as sequential deepening, and losers must
   observe cancellation promptly instead of running to their deadline. *)

open Isr_core
open Isr_model
open Isr_suite

let limits =
  { Budget.time_limit = 30.0; conflict_limit = 2_000_000; bound_limit = 60; reduce = Isr_sat.Solver.default_reduce }

let entry name =
  match Registry.find name with
  | Some e -> e
  | None -> Alcotest.failf "no benchmark %s" name

(* Small instances covering both verdicts; the sequential engine tests
   already close all of these within the limits. *)
let race_names = [ "amba2g3"; "traffic6"; "vending7bug"; "fifo2bug"; "hamming6bug" ]

let test_race_agrees () =
  List.iter
    (fun name ->
      let e = entry name in
      let model = Registry.build_validated e in
      let seq, _ = Portfolio.verify ~limits model in
      let par, stats = Isr_par.portfolio ~jobs:4 ~limits model in
      Alcotest.(check bool)
        (name ^ ": proved agree") (Verdict.is_proved seq) (Verdict.is_proved par);
      Alcotest.(check bool)
        (name ^ ": falsified agree")
        (Verdict.is_falsified seq) (Verdict.is_falsified par);
      (* And both match the generator's ground truth. *)
      (match (e.Registry.expected, par) with
      | Registry.Safe, Verdict.Proved _ -> ()
      | Registry.Unsafe d, Verdict.Falsified { depth; trace } ->
        Alcotest.(check int) (name ^ ": minimal depth") d depth;
        Alcotest.(check bool) (name ^ ": trace replays") true
          (Sim.check_trace model trace)
      | _, v -> Alcotest.failf "%s: raced verdict %a" name Verdict.pp v);
      (* The workers' registries were merged at join. *)
      Alcotest.(check bool) (name ^ ": stats merged") true (Verdict.sat_calls stats > 0))
    race_names

let test_bmc_par_depth () =
  List.iter
    (fun name ->
      let e = entry name in
      let model = Registry.build_validated e in
      match (Bmc.run ~check:Bmc.Exact ~limits model, Isr_par.bmc ~jobs:4 ~limits model) with
      | (Verdict.Falsified { depth = ds; _ }, _), (Verdict.Falsified { depth = dp; trace }, _)
        ->
        Alcotest.(check int) (name ^ ": same depth") ds dp;
        Alcotest.(check bool) (name ^ ": trace replays") true
          (Sim.check_trace model trace)
      | (vs, _), (vp, _) ->
        Alcotest.failf "%s: seq %a vs par %a" name Verdict.pp vs Verdict.pp vp)
    [ "vending7bug"; "traffic5bug"; "prodcons6bug" ]

(* --- clause sharing ----------------------------------------------------------- *)

(* Sharing must be invisible in the answers: same verdicts as the
   sequential schedule, same ground truth, same minimal counterexample
   depth — only the share.* traffic counters may differ from a run
   without it. *)
let test_share_race_agrees () =
  List.iter
    (fun name ->
      let e = entry name in
      let model = Registry.build_validated e in
      let seq, _ = Portfolio.verify ~limits model in
      let par, stats =
        Isr_par.portfolio ~jobs:4 ~share:Isr_par.Share.default_filter ~limits model
      in
      Alcotest.(check bool)
        (name ^ ": proved agree") (Verdict.is_proved seq) (Verdict.is_proved par);
      Alcotest.(check bool)
        (name ^ ": falsified agree")
        (Verdict.is_falsified seq) (Verdict.is_falsified par);
      (match (e.Registry.expected, par) with
      | Registry.Safe, Verdict.Proved _ -> ()
      | Registry.Unsafe d, Verdict.Falsified { depth; trace } ->
        Alcotest.(check int) (name ^ ": minimal depth") d depth;
        Alcotest.(check bool) (name ^ ": trace replays") true
          (Sim.check_trace model trace)
      | _, v -> Alcotest.failf "%s: shared-race verdict %a" name Verdict.pp v);
      Alcotest.(check bool) (name ^ ": stats merged") true (Verdict.sat_calls stats > 0))
    race_names

(* Depth minimality must be deterministic under sharing: every replay
   reports the sequential depth, regardless of which probe's imports
   accelerated whom. *)
let test_share_bmc_depth () =
  List.iter
    (fun name ->
      let e = entry name in
      let model = Registry.build_validated e in
      let ds =
        match Bmc.run ~check:Bmc.Exact ~limits model with
        | Verdict.Falsified { depth; _ }, _ -> depth
        | v, _ -> Alcotest.failf "%s: sequential bmc %a" name Verdict.pp v
      in
      for _ = 1 to 2 do
        match
          Isr_par.bmc ~jobs:4 ~share:Isr_par.Share.default_filter ~limits model
        with
        | Verdict.Falsified { depth = dp; trace }, _ ->
          Alcotest.(check int) (name ^ ": same depth") ds dp;
          Alcotest.(check bool) (name ^ ": trace replays") true
            (Sim.check_trace model trace)
        | v, _ -> Alcotest.failf "%s: shared bmc %a" name Verdict.pp v
      done)
    [ "vending7bug"; "traffic5bug" ]

(* Agreement may not hinge on a friendly filter: any (max_lbd, max_len)
   pair — including 0/0, which shares nothing — must leave both engines'
   answers at the ground truth. *)
let prop_share_filter_agrees =
  let gen =
    let open QCheck2.Gen in
    let* max_lbd = int_range 0 6 in
    let* max_len = int_range 0 10 in
    let* name = oneofl [ "traffic6"; "vending7bug"; "fifo2bug" ] in
    pure (max_lbd, max_len, name)
  in
  let print (lbd, len, name) = Printf.sprintf "lbd:%d,len:%d on %s" lbd len name in
  QCheck2.Test.make ~count:6 ~name:"random filters preserve ground truth" ~print gen
    (fun (max_lbd, max_len, name) ->
      let e = entry name in
      let model = Registry.build_validated e in
      let share = { Isr_par.Share.max_lbd; max_len } in
      let ok_portfolio =
        match (e.Registry.expected, fst (Isr_par.portfolio ~jobs:3 ~share ~limits model)) with
        | Registry.Safe, Verdict.Proved _ -> true
        | Registry.Unsafe d, Verdict.Falsified { depth; _ } -> d = depth
        | _ -> false
      in
      let ok_bmc =
        match e.Registry.expected with
        | Registry.Safe -> true (* bmc alone cannot prove; skip the slow full sweep *)
        | Registry.Unsafe d -> (
          match fst (Isr_par.bmc ~jobs:3 ~share ~limits model) with
          | Verdict.Falsified { depth; _ } -> d = depth
          | _ -> false)
      in
      ok_portfolio && ok_bmc)

(* A pre-set token aborts before any search is attempted. *)
let test_cancel_preset () =
  let token = Atomic.make true in
  match
    Budget.with_cancel token (fun () ->
        let b = Budget.start limits in
        Budget.check_time b)
  with
  | exception Budget.Cancelled -> ()
  | () -> Alcotest.fail "expected Cancelled"

(* A racing loser must stop within a conflict slice of the token being
   set, not at its deadline: refuting php(9) takes far longer than the
   handful of milliseconds we allow before cancelling. *)
let test_cancel_mid_search () =
  let n = 9 in
  let var p h = (p * n) + h in
  let open Isr_sat in
  let token = Atomic.make false in
  let worker () =
    Budget.with_cancel token @@ fun () ->
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
          Solver.add_clause s
            [ Lit.neg (Lit.pos (var p1 h)); Lit.neg (Lit.pos (var p2 h)) ]
        done
      done
    done;
    let b = Budget.start { limits with Budget.time_limit = 600.0 } in
    let stats = Verdict.mk_stats () in
    match Budget.solve b stats s with
    | exception Budget.Cancelled -> `Cancelled
    | r -> `Finished r
  in
  let t0 = Isr_obs.Clock.now () in
  let d = Domain.spawn worker in
  Unix.sleepf 0.05;
  Atomic.set token true;
  let outcome = Domain.join d in
  let elapsed = Isr_obs.Clock.now () -. t0 in
  (match outcome with
  | `Cancelled -> ()
  | `Finished _ -> Alcotest.fail "php(9) refuted before cancellation?");
  (* Generous bound: one poll interval is a few hundred conflicts, far
     under a second even on a slow machine. *)
  Alcotest.(check bool)
    (Printf.sprintf "stopped promptly (%.2fs)" elapsed)
    true (elapsed < 10.0)

(* --- event stream of a real race --------------------------------------------- *)

module Event = Isr_obs.Event

(* The race's lifecycle, projected out of the merged stream: spawns,
   cancellations with their causal edges, published verdicts. *)
let lifecycle evs =
  List.filter_map
    (fun e ->
      match e.Event.kind with
      | Event.Spawn { worker; engines } -> Some (`Spawn (worker, engines))
      | Event.Cancel { worker; cause; by } -> Some (`Cancel (worker, cause, by))
      | Event.Verdict { worker; verdict } -> Some (`Verdict (worker, verdict))
      | _ -> None)
    evs

let record_race f =
  let r = Event.recorder () in
  Event.set_recorder r;
  let result = Fun.protect ~finally:Event.clear_recorder f in
  (result, Event.events r)

(* Replaying the same portfolio race must tell the same story: the same
   workers spawned on the same engine groups, a winner that published the
   same verdict, and every Race_won cancellation edge pointing at that
   winner.  (Which worker wins may differ between replays — that's the
   race — but the record must stay internally causal each time.) *)
let test_race_event_story () =
  let model = Registry.build_validated (entry "amba2g3") in
  let story () =
    let (verdict, _), evs = record_race (fun () -> Isr_par.portfolio ~jobs:4 ~limits model) in
    (* The merged stream is sorted by (ts, dom, seq). *)
    let key e = (e.Event.ts, e.Event.dom, e.Event.seq) in
    Alcotest.(check bool) "merged stream sorted" true
      (List.sort (fun a b -> compare (key a) (key b)) evs = evs);
    let life = lifecycle evs in
    let spawns =
      List.filter_map (function `Spawn (w, e) -> Some (w, e) | _ -> None) life
    in
    let winner =
      match List.filter_map (function `Verdict (w, v) -> Some (w, v) | _ -> None) life with
      | [] -> Alcotest.fail "no verdict event in a decided race"
      | (w, v) :: _ -> (w, v)
    in
    List.iter
      (function
        | `Cancel (w, Event.Race_won, by) ->
          Alcotest.(check int) "cancel edge points at the winner" (fst winner) by;
          Alcotest.(check bool) "winner is not cancelled by itself" true (w <> by)
        | _ -> ())
      life;
    (* Every spawned loser has an explanation: a cancellation edge or a
       budget expiry of its own. *)
    List.iter
      (fun (w, _) ->
        if w <> fst winner then
          Alcotest.(check bool)
            (Printf.sprintf "worker %d's stop is explained" w)
            true
            (List.exists (function `Cancel (w', _, _) -> w' = w | _ -> false) life))
      spawns;
    (verdict, List.sort compare spawns, snd winner)
  in
  let v1, spawns1, tag1 = story () in
  let v2, spawns2, tag2 = story () in
  Alcotest.(check bool) "replay: same verdict" true
    (Verdict.is_proved v1 = Verdict.is_proved v2
    && Verdict.is_falsified v1 = Verdict.is_falsified v2);
  Alcotest.(check bool) "replay: same worker/engine groups" true (spawns1 = spawns2);
  Alcotest.(check string) "replay: same published verdict tag" tag1 tag2

(* Bound-parallel BMC: the counterexample's publisher is the [by] edge of
   every Min_depth cancellation, and dispatch events cover every bound up
   to the found depth. *)
let test_bmc_event_story () =
  let model = Registry.build_validated (entry "vending7bug") in
  let (verdict, _), evs = record_race (fun () -> Isr_par.bmc ~jobs:4 ~limits model) in
  let depth =
    match verdict with
    | Verdict.Falsified { depth; _ } -> depth
    | v -> Alcotest.failf "expected a counterexample, got %a" Verdict.pp v
  in
  let life = lifecycle evs in
  (* The standing verdict is the last published one: earlier, deeper
     counterexamples are superseded by the minimisation. *)
  let publishers =
    List.filter_map (function `Verdict (w, v) -> Some (w, v) | _ -> None) life
  in
  (match List.rev publishers with
  | [] -> Alcotest.fail "no verdict event"
  | (_, v) :: _ ->
    Alcotest.(check string) "final publication names the minimal depth"
      (Printf.sprintf "falsified(d=%d)" depth) v);
  List.iter
    (function
      | `Cancel (_, Event.Min_depth, by) ->
        Alcotest.(check bool) "min-depth edge comes from a publisher" true
          (List.mem_assoc by publishers)
      | _ -> ())
    life;
  let dispatched =
    List.filter_map
      (fun e ->
        match e.Event.kind with Event.Dispatch { bound; _ } -> Some bound | _ -> None)
      evs
  in
  List.iter
    (fun b ->
      Alcotest.(check bool) (Printf.sprintf "bound %d was dispatched" b) true
        (List.mem b dispatched))
    (List.init (depth + 1) Fun.id)

(* Regression: an unlimited bound cap means unlimited, not a wrapped
   [max_int + 1] worker clamp.  Before the fix, [min jobs (bound_limit+1)]
   overflowed to [min_int] and the "4-domain" run silently raced one
   worker — count the Spawn events to pin it. *)
let test_bmc_jobs_unlimited_bound () =
  let model = Registry.build_validated (entry "vending7bug") in
  let (verdict, _), evs =
    record_race (fun () ->
        Isr_par.bmc ~jobs:4 ~limits:{ limits with Budget.bound_limit = max_int } model)
  in
  let expected =
    match (entry "vending7bug").Registry.expected with
    | Registry.Unsafe d -> d
    | Registry.Safe -> Alcotest.fail "vending7bug is unsafe"
  in
  (match verdict with
  | Verdict.Falsified { depth; _ } -> Alcotest.(check int) "depth" expected depth
  | v -> Alcotest.failf "expected a counterexample, got %a" Verdict.pp v);
  let spawns =
    List.length
      (List.filter_map
         (function `Spawn (w, _) -> Some w | _ -> None)
         (lifecycle evs))
  in
  Alcotest.(check int) "all four workers spawned" 4 spawns

(* A lane whose every member merely ran out of bound cap is exhausted,
   not deadline-starved — the distinct cause must appear on its
   self-edge.  With two lanes, the members partition round-robin into
   (randsim, kind, itp) and (bmc, pdr, itpseqcba): randsim answers
   [Time_limit] when it finds nothing, so only the second lane can be
   exhausted — and with the bound cap at 0 on a safe design, it must
   be.  The design's property must not be 0-inductive (amba3g4 needs
   k = 2): k-induction proves amba2g3 at bound 0, and when that lane
   wins first the exhausted lane is cancelled before it can report. *)
let test_exhausted_cause () =
  let model = Registry.build_validated (entry "amba3g4") in
  (* With the bound cap at 0 the (bmc, pdr, itpseqcba) lane burns through
     its slate in milliseconds, every member bound-limited, long before
     the other lane's random simulation finishes — so its self-edge must
     say "exhausted", never "deadline". *)
  let tight = { limits with Budget.bound_limit = 0 } in
  let (_, _), evs =
    record_race (fun () -> Isr_par.portfolio ~jobs:2 ~limits:tight model)
  in
  let life = lifecycle evs in
  let publishers =
    List.filter_map (function `Verdict (w, _) -> Some w | _ -> None) life
  in
  List.iter
    (function
      | `Cancel (w, Event.Exhausted, by) ->
        Alcotest.(check int) "exhaustion is a self-edge" w by;
        Alcotest.(check bool) "an exhausted lane published nothing" false
          (List.mem w publishers)
      | _ -> ())
    life;
  Alcotest.(check bool) "the all-bound-limited lane reports exhaustion" true
    (List.exists
       (function `Cancel (_, Event.Exhausted, _) -> true | _ -> false)
       life)

(* A lane stolen late in the race must inherit the race's remaining
   time, not start a fresh budget: an undecided race ends by its own
   deadline.  fifo3 stays undecided by every member within 1 s. *)
let test_race_deadline () =
  let model = Registry.build_validated (entry "fifo3") in
  let t0 = Isr_obs.Clock.now () in
  let v, _ =
    Isr_par.portfolio ~jobs:2 ~limits:{ limits with Budget.time_limit = 1.0 } model
  in
  let elapsed = Isr_obs.Clock.now () -. t0 in
  (match v with
  | Verdict.Unknown _ -> ()
  | v -> Alcotest.failf "fifo3 decided within 1 s: %a" Verdict.pp v);
  if elapsed >= 1.5 then Alcotest.failf "race overran its 1 s deadline: %.2f s" elapsed

(* Lanes grow their manager (PDR cubes, interpolants), and two domains
   growing one manager corrupt its hash-consing, which now and then broke
   a raced certificate.  Each domain runs on its own clone: the caller's
   manager gains only the winning invariant's cone, and that invariant
   certifies on the caller's model. *)
let test_race_private_managers () =
  let core = Isr_analyze.run (Registry.build_validated (entry "johnson4")) in
  let text = Aiger.to_string core.Isr_analyze.model in
  for _ = 1 to 50 do
    let model = Result.get_ok (Aiger.parse_string text) in
    let man = model.Model.man in
    let before = Isr_aig.Aig.num_nodes man in
    let v, _ = Isr_par.portfolio ~jobs:2 ~limits model in
    (match Certify.check_verdict ~limits model v with
    | Ok () -> ()
    | Error e -> Alcotest.failf "raced certificate: %s" e);
    let allowed =
      match v with
      | Verdict.Proved { invariant; _ } ->
        Option.fold ~none:0 ~some:(Isr_aig.Aig.cone_size man) invariant
      | v -> Alcotest.failf "johnson4 is safe, raced verdict %a" Verdict.pp v
    in
    let grown = Isr_aig.Aig.num_nodes man - before in
    if grown > allowed then
      Alcotest.failf "caller's manager grew by %d nodes, invariant cone %d" grown allowed
  done

let () =
  Alcotest.run "isr_par"
    [
      ( "portfolio",
        [
          Alcotest.test_case "race agrees with sequential" `Slow test_race_agrees;
          Alcotest.test_case "stolen lanes keep the race deadline" `Slow test_race_deadline;
          Alcotest.test_case "racing domains grow private managers" `Slow
            test_race_private_managers;
        ] );
      ( "bmc",
        [
          Alcotest.test_case "bound-parallel depth" `Slow test_bmc_par_depth;
          Alcotest.test_case "unlimited bound spawns all workers" `Slow
            test_bmc_jobs_unlimited_bound;
        ] );
      ( "share",
        List.map QCheck_alcotest.to_alcotest [ prop_share_filter_agrees ]
        @ [
            Alcotest.test_case "shared race agrees with sequential" `Slow
              test_share_race_agrees;
            Alcotest.test_case "shared bmc depth deterministic" `Slow
              test_share_bmc_depth;
          ] );
      ( "events",
        [
          Alcotest.test_case "portfolio race story replays" `Slow test_race_event_story;
          Alcotest.test_case "bound-parallel cancellation edges" `Slow
            test_bmc_event_story;
          Alcotest.test_case "exhausted slate cause" `Slow test_exhausted_cause;
        ] );
      ( "cancellation",
        [
          Alcotest.test_case "preset token" `Quick test_cancel_preset;
          Alcotest.test_case "mid-search" `Quick test_cancel_mid_search;
        ] );
    ]
