(* Same-runner verification benchmark.

   One process runs one workload.  It draws the workload's cells from the
   seed, renders every instance to AIGER text (the set-up), then drives
   each cell from that text to a verdict through the library's public
   API, one cell at a time: a closed loop with one client, the next cell
   starting when the previous verdict returns.  The drawn cell list is
   repeated in passes for the requested number of seconds; probes between
   cells measure the host's speed, and each pass's cell times are divided
   by it.  README.md in this directory documents the workloads, the draw
   rule and every metric.

     perfbench run --workload W --seed N --seconds S --trace 0|1 [--cells-out FILE]
     perfbench calibrate

   Both read or write perfbench/pool.tsv relative to the current directory,
   the repository root. *)

open Isr_model
open Isr_core
open Isr_suite
module Clock = Isr_obs.Clock
module Span = Isr_obs.Trace
module Event = Isr_obs.Event
module Profile = Isr_obs.Profile

(* --- workloads ---------------------------------------------------------- *)

(* The public entry point a cell drives, named in the pool file and in
   the drawn cell list. *)
type runner =
  | Engine of Engine.t  (** [Engine.run] on the parsed model *)
  | Analyzed_race
      (** [Isr_analyze.run ~mode:Fast], then [Isr_par.portfolio ~jobs:2] on
          the reduced model, counterexamples lifted back *)

let analyzed_race_name = "analyze-fast+portfolio-j2"

let runner_of_name s =
  if s = analyzed_race_name then Analyzed_race
  else match Engine.of_name s with Ok e -> Engine e | Error m -> invalid_arg m

type workload = {
  name : string;
  limit : float;  (** per-cell wall-clock limit [s], one number per workload *)
  candidates : (Registry.entry * string) list;  (** (pool entry, runner name) *)
}

let mid = List.filter (fun e -> e.Registry.category = Registry.Mid) Registry.fig6

let with_runners names entries =
  List.concat_map (fun e -> List.map (fun r -> (e, r)) names) entries

(* Two workloads, so that each run can measure long enough to ride out
   the host's speed swings; README.md says what each one exercises. *)
let workloads =
  [
    {
      name = "table1-mid";
      limit = 2.0;
      candidates = with_runners (List.map Engine.name Engine.all) mid;
    };
    {
      name = "industrial-race";
      limit = 2.0;
      candidates = with_runners [ analyzed_race_name ] mid;
    };
  ]

let find_workload name =
  match List.find_opt (fun w -> w.name = name) workloads with
  | Some w -> w
  | None ->
    invalid_arg
      (Printf.sprintf "unknown workload %S (one of: %s)" name
         (String.concat ", " (List.map (fun w -> w.name) workloads)))

(* A cell is eligible for the draw only if its reference run decided it
   correctly within an eighth of the limit: no cell of a draw is expected
   to fail, and the costliest cells, whose pick would swing a draw's total
   most, stay out. *)
let cap w = w.limit /. 8.

(* Pad sizes of the industrial designs span the registry's range. *)
let pad_min = 90
let pad_max = 2200

(* --- instances and cells ----------------------------------------------- *)

type instance = {
  iname : string;  (** the model name carried in the AIGER text *)
  entry : Registry.entry;  (** ground truth *)
  params : string;  (** generator parameters, for the cell list *)
  build : unit -> Model.t;
}

type cell = { inst : instance; runner : string; ref_s : float }

let registry_instance (e : Registry.entry) =
  { iname = e.name; entry = e; params = "registry"; build = e.build }

let industrial_instance (e : Registry.entry) ~pad_latches ~pad_inputs ~pad_seed =
  let iname = Printf.sprintf "%s+pad%d" e.name pad_latches in
  {
    iname;
    entry = e;
    params =
      Printf.sprintf "core=%s pad_latches=%d pad_inputs=%d pad_seed=%d" e.name pad_latches
        pad_inputs pad_seed;
    build =
      (fun () ->
        Circuits.industrial ~name:iname ~core:(e.build ()) ~pad_latches ~pad_inputs
          ~seed:pad_seed);
  }

(* The instance a candidate's reference run uses: the registry entry
   itself, or for industrial cells the core under the smallest pad. *)
let reference_instance e runner =
  match runner_of_name runner with
  | Analyzed_race -> industrial_instance e ~pad_latches:pad_min ~pad_inputs:(pad_min / 5) ~pad_seed:1
  | Engine _ -> registry_instance e

(* --- reference pool ----------------------------------------------------- *)

(* One line per candidate cell, written by [calibrate]:
   workload, entry, runner, reference seconds, status. *)
let pool_path = "perfbench/pool.tsv"

type ref_cell = { w : string; entry : string; runner : string; secs : float; status : string }

let load_pool path =
  let ic = open_in path in
  Fun.protect ~finally:(fun () -> close_in ic) @@ fun () ->
  let rec loop acc =
    match input_line ic with
    | exception End_of_file -> List.rev acc
    | line when line = "" || line.[0] = '#' -> loop acc
    | line -> (
      match String.split_on_char '\t' line with
      | [ w; entry; runner; secs; status ] ->
        loop ({ w; entry; runner; secs = float_of_string secs; status } :: acc)
      | _ -> failwith (Printf.sprintf "%s: malformed line %S" path line))
  in
  loop []

let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done

(* The draw rule.  Every eligible cell is drawn, so every draw has the
   same cost profile: drawing one cell of each reference-ranked pair
   instead moved table1-mid's median cell time and peak heap by a tenth
   from seed to seed, more than the host did once normalised.
   Industrial cells get their pad from the equal-width bands of
   [pad_min, pad_max], the i-th cheapest core the i-th smallest band, so
   a cell's cost follows its rank; the seed picks the size within the
   band and the pad seed, so every seed gets fresh designs.  A pad has a
   third as many inputs as latches: the analyzer's cost grows with both,
   and a drawn ratio would swing the cost of single cells by half.
   The cell order is a seeded shuffle. *)
let draw w ~seed pool =
  let rng = Random.State.make [| seed; Hashtbl.hash w.name |] in
  let eligible =
    pool
    |> List.filter (fun r -> r.w = w.name && r.status = "ok" && r.secs <= cap w)
    |> List.sort (fun a b -> compare (a.secs, a.entry, a.runner) (b.secs, b.entry, b.runner))
    |> Array.of_list
  in
  let m = Array.length eligible in
  if m = 0 then failwith (Printf.sprintf "no eligible cell for %s in the pool" w.name);
  let cells =
    Array.mapi
      (fun i r ->
        let e =
          match Registry.find r.entry with
          | Some e -> e
          | None -> failwith (Printf.sprintf "pool entry %S is not in the registry" r.entry)
        in
        let inst =
          match runner_of_name r.runner with
          | Analyzed_race ->
            let width = float_of_int (pad_max - pad_min) /. float_of_int m in
            let pad_latches =
              pad_min
              + int_of_float (width *. (float_of_int i +. Random.State.float rng 1.0))
            in
            industrial_instance e ~pad_latches ~pad_inputs:(pad_latches / 3)
              ~pad_seed:(Random.State.bits rng)
          | Engine _ -> registry_instance e
        in
        { inst; runner = r.runner; ref_s = r.secs })
      eligible
  in
  shuffle rng cells;
  Array.to_list cells

(* --- one cell ------------------------------------------------------------ *)

type answer = {
  verdict : Verdict.t;
  stats : Verdict.stats;
  cert_model : Model.t;  (** the model the verdict's certificate refers to *)
  analysis : Isr_analyze.result option;
}

(* From AIGER text to verdict.  The spans are the benchmark's own, around
   the public calls it makes; the library adds its spans underneath. *)
let exec w cell text =
  let limits = { Budget.default_limits with time_limit = w.limit } in
  let model =
    match Span.span "aiger.parse" (fun () -> Aiger.parse_string ~name:cell.inst.iname text) with
    | Ok m -> m
    | Error e -> failwith ("AIGER: " ^ e)
  in
  match runner_of_name cell.runner with
  | Engine e ->
    let verdict, stats = Engine.run e ~limits model in
    { verdict; stats; cert_model = model; analysis = None }
  | Analyzed_race -> (
    (* As [Isr_par.portfolio ~analyze]: analysis once, a trivial verdict
       skips the race, a winning counterexample is lifted back. *)
    let r = Span.span "analyze" (fun () -> Isr_analyze.run ~mode:Isr_analyze.Fast model) in
    let analysis = Some r in
    let trivial verdict = { verdict; stats = Verdict.mk_stats (); cert_model = model; analysis } in
    match r.Isr_analyze.verdict with
    | Some (Isr_analyze.Safe { invariant }) ->
      trivial (Verdict.Proved { kfp = 0; jfp = 0; invariant = Some invariant })
    | Some (Isr_analyze.Unsafe { trace }) ->
      trivial (Verdict.Falsified { depth = Isr_model.Trace.depth trace; trace })
    | None -> (
      match Isr_par.portfolio ~jobs:2 ~limits r.Isr_analyze.model with
      | Verdict.Falsified { depth; trace }, stats ->
        {
          verdict = Verdict.Falsified { depth; trace = r.Isr_analyze.lift trace };
          stats;
          cert_model = model;
          analysis;
        }
      | verdict, stats -> { verdict; stats; cert_model = r.Isr_analyze.model; analysis }))

type status = Solved | Undecided | Wrong of string | Failed of string

type result = {
  cell : cell;
  wall : float;  (** seconds from AIGER text to verdict, timed from outside *)
  cpu : float;  (** process CPU seconds over the same interval *)
  out : (answer, string) Stdlib.result;
  steps : int;  (** engine-kernel steps (traced passes only) *)
  cancel_latency : float option;  (** race winner's verdict event to return (traced) *)
}

let run_cell ~traced w cell text =
  let recorder =
    if traced then begin
      let r = Event.recorder () in
      Event.set_recorder r;
      Some r
    end
    else None
  in
  let c0 = Sys.time () in
  let t0 = Clock.now () in
  let out =
    try Ok (Span.span "bench.cell" (fun () -> exec w cell text))
    with e -> Error (Printexc.to_string e)
  in
  let t1 = Clock.now () in
  let cpu = Sys.time () -. c0 in
  let events =
    match recorder with
    | None -> []
    | Some r ->
      Event.clear_recorder ();
      Event.events r
  in
  let steps =
    List.length (List.filter (fun ev -> match ev.Event.kind with Event.Step _ -> true | _ -> false) events)
  in
  let cancel_latency =
    List.find_map
      (fun ev -> match ev.Event.kind with Event.Verdict _ -> Some (t1 -. ev.Event.ts) | _ -> None)
      events
  in
  { cell; wall = t1 -. t0; cpu; out; steps; cancel_latency }

(* The correctness gate: a conclusive verdict must match the registry's
   ground truth (a counterexample at exactly the expected depth) and
   survive [Certify.check_verdict].  Runs outside the timed region; a
   certificate check that raises fails the cell. *)
let cert_limits = { Budget.default_limits with time_limit = 30. }

let judge r =
  match r.out with
  | Error msg -> Failed msg
  | Ok a -> (
    let claim =
      match a.verdict with
      | Verdict.Proved _ -> Some `Proved
      | Verdict.Falsified { depth; _ } -> Some (`Falsified depth)
      | Verdict.Unknown _ -> None
    in
    match claim with
    | None -> Undecided
    | Some c when not (Registry.agrees r.cell.inst.entry c) ->
      Wrong
        (Format.asprintf "expected %a, got %a" Registry.pp_expected r.cell.inst.entry.expected
           Verdict.pp a.verdict)
    | Some _ -> (
      match Certify.check_verdict ~limits:cert_limits a.cert_model a.verdict with
      | Ok () -> Solved
      | Error m -> Wrong ("certificate: " ^ m)
      | exception e -> Failed ("certify: " ^ Printexc.to_string e)))

(* --- statistics ----------------------------------------------------------- *)

(* Linear interpolation between closest ranks. *)
let quantile q xs =
  match List.sort compare xs with
  | [] -> 0.
  | sorted ->
    let a = Array.of_list sorted in
    let pos = q *. float_of_int (Array.length a - 1) in
    let lo = int_of_float pos in
    let hi = min (lo + 1) (Array.length a - 1) in
    a.(lo) +. ((a.(hi) -. a.(lo)) *. (pos -. float_of_int lo))

let median = quantile 0.5
let ratio a b = if b = 0. then 0. else a /. b
let sum f xs = List.fold_left (fun s x -> s +. f x) 0. xs

(* --- per-layer metrics ------------------------------------------------------ *)

let hot_field pick name hot =
  List.fold_left (fun s ((n, _, _, _) as h) -> if n = name then s +. pick h else s) 0. hot

let self_s = hot_field (fun (_, _, _, self) -> self)
let total_s = hot_field (fun (_, _, total, _) -> total)
let calls = hot_field (fun (_, c, _, _) -> float_of_int c)

let answers raw = List.filter_map (fun r -> Result.to_option r.out) raw
let stat f raw = sum (fun a -> float_of_int (f a.stats)) (answers raw)
let depth f raw = sum (fun a -> float_of_int (Option.value ~default:0 (f a.verdict))) (answers raw)

let proof_bytes raw =
  sum (fun a -> Isr_obs.Metrics.(gauge_value (gauge (Verdict.registry a.stats) "proof.bytes"))) (answers raw)

let analyses raw = List.filter_map (fun a -> a.analysis) (answers raw)

let ands_kept_frac raw =
  let an = analyses raw in
  ratio
    (sum (fun an -> float_of_int (Model.num_ands an.Isr_analyze.model)) an)
    (sum (fun an -> float_of_int (Model.num_ands an.Isr_analyze.original)) an)

let trivial_frac raw =
  let an = analyses raw in
  ratio
    (float_of_int (List.length (List.filter (fun an -> an.Isr_analyze.verdict <> None) an)))
    (float_of_int (List.length an))

(* Per-layer metrics of one traced pass: (name, unit, value).  [hot] is
   the pass's profile.  spec.json lists each metric's module and the
   end-to-end metric it should move; run.py checks the names agree. *)
let layer_metrics w ~hot ~certify_s raw =
  [
    ("aiger.parse_s", "s", total_s "aiger.parse" hot);
    ("analyze.s", "s", total_s "analyze" hot);
    ("analyze.claims", "count", sum (fun an -> float_of_int (Isr_analyze.total_claims an)) (analyses raw));
    ("analyze.ands_kept_frac", "frac", ands_kept_frac raw);
    ("analyze.trivial_frac", "frac", trivial_frac raw);
    ("engine.self_s", "s", self_s "engine" hot);
    ("portfolio.self_s", "s", self_s "portfolio" hot);
    ("step.count", "count", sum (fun r -> float_of_int r.steps) raw);
    ("incl.check.self_s", "s", self_s "incl.check" hot);
    ("incl.check.calls", "count", calls "incl.check" hot);
    ("bmc.bound.self_s", "s", self_s "bmc.bound" hot);
    ("bmc.bound.calls", "count", calls "bmc.bound" hot);
    ("itp.inner.self_s", "s", self_s "itp.inner" hot);
    ("itpseq.serial_step.self_s", "s", self_s "itpseq.serial_step" hot);
    ("itpseq.family.self_s", "s", self_s "itpseq.family" hot);
    ("kind.step.self_s", "s", self_s "kind.step" hot);
    ("pdr.block.self_s", "s", self_s "pdr.block" hot);
    ("pdr.propagate.self_s", "s", self_s "pdr.propagate" hot);
    ("engine.kfp_sum", "count", depth Verdict.kfp raw);
    ("engine.jfp_sum", "count", depth Verdict.jfp raw);
    ("itp.extract.self_s", "s", self_s "itp.extract" hot);
    ("itp.analyze.self_s", "s", self_s "itp.analyze" hot);
    ("itp.nodes", "count", stat Verdict.itp_nodes raw);
    ("sat.solve.self_s", "s", self_s "sat.solve" hot);
    ("sat.calls", "count", stat Verdict.sat_calls raw);
    ("sat.conflicts", "count", stat Verdict.conflicts raw);
    ("sat.propagations", "count", stat Verdict.propagations raw);
    ("sat.props_per_s", "1/s", ratio (stat Verdict.propagations raw) (total_s "sat.solve" hot));
    ("proof.steps", "count", stat Verdict.proof_steps raw);
    ("proof.bytes", "B", proof_bytes raw);
    ("par.overrun_s", "s", sum (fun r -> Float.max 0. (r.wall -. w.limit)) raw);
    ("par.cancel_latency_s", "s", median (List.filter_map (fun r -> r.cancel_latency) raw));
    ("certify.s", "s", certify_s);
  ]

(* --- host speed ------------------------------------------------------------ *)

(* On a shared host the machine's speed swings by 20 to 40 % for tens of
   seconds at a time as other tenants come and go, and every cell time
   follows it.  A probe slice is a fixed piece of work that runs between
   cells, outside the timed region, and measures that speed.  It uses only
   the standard library: it builds and sorts short lists, so it allocates
   like the checker but only garbage that dies young, and its minor
   collections promote next to nothing.  A slice right after checker work
   pays for that work's leftover collection and refills the caches, about
   a tenth of its time, so each probe runs one slice untimed and times
   the next, whose time then follows the host rather than the checker.
   A pass's host factor is its mean timed slice time over [probe_ref_s];
   a pass's cell times divided by it are seconds at the reference speed.
   Over ten seeds of table1-mid at 50 s on a shared two-core Xeon VM,
   the median raw pass time spread by 19 % (quartile distance over the
   median) and the normalised wall_norm_s by 2.4 %.  Of five candidate
   slices (this one, an in-place sort, hashing into tables of 0.5, 8 and
   32 MB), this one followed the cell times most closely. *)
let probe_slice () =
  let acc = ref 0 in
  for r = 0 to 19 do
    let l = List.init 1000 (fun i -> ((i * 7919) + r) land 1023) in
    acc := !acc + List.hd (List.sort compare l)
  done;
  ignore (Sys.opaque_identity !acc)

(* The unit [host] factors are measured in: a round figure [s] for a
   timed slice, which took 0.9 to 1.7 ms on a shared two-core Xeon VM. *)
let probe_ref_s = 1.2e-3

(* A probe runs whenever this much cell time has passed since the last
   one, and at both ends of a pass: about 3 % on top of the cells. *)
let probe_every_s = 0.1

let timed f =
  let t0 = Clock.now () in
  f ();
  Clock.now () -. t0

(* One probe: a slice untimed, then the time of the next. *)
let probe_time () =
  probe_slice ();
  timed probe_slice

(* --- passes -------------------------------------------------------------- *)

type sample = { s_wall : float; s_cpu : float; s_status : status }

(* A pass keeps scalars only: holding on to the answers (models,
   certificates, registries) would grow the live heap pass after pass
   and slow every later pass's GC. *)
type pass = {
  traced : bool;
  samples : sample array;  (** in cell order, times divided by [host] *)
  p_wall : float;  (** the cells' total wall time, as measured *)
  host : float;  (** mean probe slice time over [probe_ref_s] *)
  layers : (string * string * float) list;  (** traced passes only *)
  minor_words : float;
  major_collections : int;
}

let report r = function
  | Solved -> ()
  | Undecided -> Printf.printf "UNDECIDED %s/%s after %.3f s\n" r.cell.inst.iname r.cell.runner r.wall
  | Wrong m -> Printf.printf "WRONG %s/%s: %s\n" r.cell.inst.iname r.cell.runner m
  | Failed m -> Printf.printf "FAILED %s/%s: %s\n" r.cell.inst.iname r.cell.runner m

let run_pass ~traced w cells texts =
  (* Every pass starts from the same heap: the garbage of the previous
     pass (and its certification) is collected outside the timed region. *)
  Gc.full_major ();
  let snapshot =
    if traced then begin
      let sink, snapshot = Profile.collector () in
      Span.set_sink sink;
      Some snapshot
    end
    else None
  in
  (* The probes' own allocation is left out of the GC counters. *)
  let slices = ref [] and since = ref 0. and probe_words = ref 0. in
  let probe () =
    let w0 = Gc.minor_words () in
    slices := probe_time () :: !slices;
    probe_words := !probe_words +. (Gc.minor_words () -. w0);
    since := 0.
  in
  probe ();
  probe_words := 0.;
  let gc0 = Gc.quick_stat () in
  let raw =
    List.map
      (fun c ->
        let r = run_cell ~traced w c (Hashtbl.find texts c.inst.iname) in
        since := !since +. r.wall;
        if !since >= probe_every_s then probe ();
        r)
      cells
  in
  let gc1 = Gc.quick_stat () in
  let minor_words = gc1.Gc.minor_words -. gc0.Gc.minor_words -. !probe_words in
  probe ();
  let host = sum Fun.id !slices /. float_of_int (List.length !slices) /. probe_ref_s in
  let hot =
    match snapshot with
    | None -> []
    | Some snapshot ->
      Span.clear_sink ();
      Profile.hot (snapshot ())
  in
  let t0 = Clock.now () in
  let samples =
    List.map
      (fun r ->
        let s = judge r in
        report r s;
        { s_wall = r.wall /. host; s_cpu = r.cpu /. host; s_status = s })
      raw
  in
  let certify_s = Clock.now () -. t0 in
  {
    traced;
    samples = Array.of_list samples;
    p_wall = sum (fun r -> r.wall) raw;
    host;
    layers = (if traced then layer_metrics w ~hot ~certify_s raw else []);
    minor_words;
    major_collections = gc1.Gc.major_collections - gc0.Gc.major_collections;
  }

(* Passes until the next one is predicted to end past [seconds]; at least
   one pass, and with [trace] at least one untraced and one traced pass,
   alternating so host drift hits both alike. *)
let measure ~seconds ~trace w cells texts =
  let min_passes = if trace then 2 else 1 in
  let t_start = Clock.now () in
  let rec go acc n =
    let elapsed = Clock.now () -. t_start in
    if n >= min_passes && elapsed +. (elapsed /. float_of_int n) > seconds then List.rev acc
    else go (run_pass ~traced:(trace && n mod 2 = 1) w cells texts :: acc) (n + 1)
  in
  go [] 0

(* Every pass does the same work from the same heap (races aside), and
   the host factor takes out the host's speed, so what is left between
   passes is the noise of single cells.  Medians and percentiles over
   the passes do not depend on how many passes fitted into the run, as a
   best time would.  [pass_total] is a pass's total over its cells of a
   normalised time. *)
let pass_total f p = Array.fold_left (fun s x -> s +. f x) 0. p.samples

(* Every cell time of [passes], normalised: the sample the percentiles
   are taken over.  A race's time varies from pass to pass with which
   engine wins, so one sample per cell and pass ranks the tail more
   steadily than one per-cell summary would. *)
let pooled passes = List.concat_map (fun p -> Array.to_list (Array.map (fun s -> s.s_wall) p.samples)) passes

(* --- set-up --------------------------------------------------------------- *)

(* Generate every distinct instance of the draw and render it to AIGER
   text, at least [setup_min_reps] times and until [setup_min_s] have
   passed.  Each repetition is timed between two runs of [setup_probes]
   probes and divided by their host factor, as the passes' cell times
   are; [setup_s] is the median of these normalised times.  Returns the
   raw times, the normalised ones and the texts. *)
let setup_min_reps = 5
let setup_min_s = 1.0
let setup_probes = 3

let host_now () =
  let t = ref 0. in
  for _ = 1 to setup_probes do
    t := !t +. probe_time ()
  done;
  !t /. float_of_int setup_probes /. probe_ref_s

let setup cells =
  let once () =
    let texts = Hashtbl.create 64 in
    let h0 = host_now () in
    let t0 = Clock.now () in
    List.iter
      (fun c ->
        if not (Hashtbl.mem texts c.inst.iname) then
          Hashtbl.add texts c.inst.iname (Aiger.to_string (c.inst.build ())))
      cells;
    let t = Clock.now () -. t0 in
    (t, t /. ((h0 +. host_now ()) /. 2.), texts)
  in
  let rec go raw norm n =
    let t, tn, texts = once () in
    let raw = t :: raw and norm = tn :: norm in
    if n + 1 >= setup_min_reps && sum Fun.id raw >= setup_min_s then (raw, norm, texts)
    else go raw norm (n + 1)
  in
  go [] [] 0

(* --- output --------------------------------------------------------------- *)

let json_metrics ms =
  String.concat ", "
    (List.map
       (fun (name, unit, v) -> Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" name v unit)
       ms)

let write_cells path w ~seed cells =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) @@ fun () ->
  Printf.fprintf oc "# workload=%s seed=%d limit_s=%g cells=%d\n" w.name seed w.limit
    (List.length cells);
  Printf.fprintf oc "# index\tinstance\trunner\texpected\tref_s\tgenerator\n";
  List.iteri
    (fun i c ->
      Printf.fprintf oc "%d\t%s\t%s\t%s\t%g\t%s\n" i c.inst.iname c.runner
        (Format.asprintf "%a" Registry.pp_expected c.inst.entry.expected)
        c.ref_s c.inst.params)
    cells

(* The overrun probe of a racing workload's traced run: one core the
   reference race left undecided, raced once untraced under the
   workload's limit.  It shows how far past the limit a race returns; it
   is not a cell of the workload and counts in no end-to-end metric. *)
let overrun_probe w ~seed pool =
  let undecided =
    List.filter (fun r -> r.w = w.name && r.status = "undecided") pool |> Array.of_list
  in
  if Array.length undecided = 0 then 0.
  else begin
    let rng = Random.State.make [| seed; Hashtbl.hash "probe" |] in
    let r = undecided.(Random.State.int rng (Array.length undecided)) in
    match Registry.find r.entry with
    | None -> 0.
    | Some e ->
      let inst = reference_instance e r.runner in
      let cell = { inst; runner = r.runner; ref_s = r.secs } in
      let res = run_cell ~traced:false w cell (Aiger.to_string (inst.build ())) in
      Printf.printf "overrun probe %s: %.3f s under a %g s limit\n" inst.iname res.wall w.limit;
      Float.max 0. (res.wall -. w.limit)
  end

let run ~workload ~seed ~seconds ~trace ~cells_out =
  let w = find_workload workload in
  let pool = load_pool pool_path in
  let cells = draw w ~seed pool in
  Option.iter (fun path -> write_cells path w ~seed cells) cells_out;
  let setup_raw, setup_norm, texts = setup cells in
  let races = List.exists (fun (_, r) -> runner_of_name r = Analyzed_race) w.candidates in
  let probe = if trace && races then overrun_probe w ~seed pool else 0. in
  let passes = measure ~seconds ~trace w cells texts in
  let plain = List.filter (fun p -> not p.traced) passes in
  let traced = List.filter (fun p -> p.traced) passes in
  let statuses = List.concat_map (fun p -> Array.to_list (Array.map (fun s -> s.s_status) p.samples)) passes in
  let count f = List.length (List.filter f statuses) in
  let attempted = List.length statuses in
  let solved = count (( = ) Solved) in
  let wrong = count (function Wrong _ -> true | _ -> false) in
  let med f ps = median (List.map f ps) in
  let cell_times = pooled plain in
  let wall_norm ps = med (pass_total (fun s -> s.s_wall)) ps in
  let metrics =
    if not trace then
      [
        ("setup_s", "s", median setup_norm);
        ("wall_norm_s", "s", wall_norm plain);
        ("cpu_norm_s", "s", med (pass_total (fun s -> s.s_cpu)) plain);
        ("cell_p50_norm_s", "s", quantile 0.5 cell_times);
        ("cell_p90_norm_s", "s", quantile 0.9 cell_times);
        ("solved_frac", "frac", ratio (float_of_int solved) (float_of_int attempted));
        ( "heap_peak_mb",
          "MiB",
          float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576. );
      ]
    else
      List.map
        (fun (name, unit, _) ->
          let v =
            med (fun p -> List.find_map (fun (n, _, v) -> if n = name then Some v else None) p.layers |> Option.get) traced
          in
          (name, unit, if name = "par.overrun_s" then v +. probe else v))
        (List.hd traced).layers
      @ [
          ( "obs.trace_overhead_frac",
            "frac",
            ratio (wall_norm traced) (wall_norm plain) -. 1. );
          ("gc.minor_mwords", "Mword", med (fun p -> p.minor_words /. 1e6) plain);
          ("gc.major_collections", "count", med (fun p -> float_of_int p.major_collections) plain);
        ]
  in
  Printf.printf "workload %s, seed %d, limit %g s per cell: %d cells x %d passes (%d traced)\n"
    w.name seed w.limit (List.length cells) (List.length passes) (List.length traced);
  Printf.printf "pass wall_s (host factor): %s\n"
    (String.concat " "
       (List.map
          (fun p -> Printf.sprintf "%.3f%s (%.3f)" p.p_wall (if p.traced then "t" else "") p.host)
          passes));
  Printf.printf "%-26s %14.6g s\n%-26s %14.6g s\n%-26s %14.6g\n" "wall_s (median pass)"
    (med (fun p -> p.p_wall) plain) "setup (median, raw)" (median setup_raw) "host factor (median)"
    (med (fun p -> p.host) plain);
  List.iter (fun (n, u, v) -> Printf.printf "%-26s %14.6g %s\n" n v u) metrics;
  Printf.printf "%-26s %14d\n%-26s %14d\n" "cells" attempted "wrong_verdicts" wrong;
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (wrong = 0) attempted (attempted - solved) (json_metrics metrics);
  if wrong > 0 then exit 1

(* --- calibration ------------------------------------------------------------ *)

(* Runs every candidate cell under its workload's limit and writes the
   reference pool the draw ranks by.  A candidate cheap enough to be
   eligible is timed [calibrate_reps] times and keeps its best time, so
   the ranking of millisecond cells is not left to one noisy sample. *)
let calibrate_reps = 3

let calibrate () =
  let oc = open_out pool_path in
  Fun.protect ~finally:(fun () -> close_out oc) @@ fun () ->
  Printf.fprintf oc "# workload\tentry\trunner\tref_s\tstatus\n";
  List.iter
    (fun w ->
      List.iter
        (fun ((e : Registry.entry), runner) ->
          let inst = reference_instance e runner in
          let cell = { inst; runner; ref_s = 0. } in
          let text = Aiger.to_string (inst.build ()) in
          let rec best n secs =
            let r = run_cell ~traced:false w cell text in
            match judge r with
            | Solved ->
              let secs = Float.min secs r.wall in
              if n + 1 < calibrate_reps && secs <= cap w then best (n + 1) secs else ("ok", secs)
            | Undecided -> ("undecided", r.wall)
            | Wrong _ -> ("wrong", r.wall)
            | Failed _ -> ("failed", r.wall)
          in
          let status, secs = best 0 infinity in
          Printf.fprintf oc "%s\t%s\t%s\t%.6f\t%s\n%!" w.name e.name runner secs status)
        w.candidates)
    workloads

let () =
  let mode = if Array.length Sys.argv > 1 then Sys.argv.(1) else "" in
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  let cells_out = ref "" in
  let specs =
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N seed of the draw");
      ("--seconds", Arg.Set_float seconds, "S measuring time");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics");
      ("--cells-out", Arg.Set_string cells_out, "FILE write the drawn cell list here");
    ]
  in
  let usage = "perfbench (run|calibrate) [options]" in
  (try Arg.parse_argv ~current:(ref 1) Sys.argv specs (fun a -> raise (Arg.Bad ("unexpected " ^ a))) usage
   with
  | Arg.Bad m | Arg.Help m ->
    prerr_string m;
    exit 2);
  match mode with
  | "run" ->
    run ~workload:!workload ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1)
      ~cells_out:(if !cells_out = "" then None else Some !cells_out)
  | "calibrate" -> calibrate ()
  | _ ->
    prerr_endline (Arg.usage_string specs usage);
    exit 2
