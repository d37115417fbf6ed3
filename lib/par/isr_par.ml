open Isr_core
open Isr_model

let default_jobs () = max 1 (Domain.recommended_domain_count ())

(* Learnt-clause exchange between racing domains.  Each worker owns a
   bounded export ring (mutex-striped: one lock per exporter, never a
   global one); its budgeted SAT calls push eligible learnt clauses in
   as they are born, and every peer drains the ring at its own conflict
   slice boundaries through {!Isr_sat.Solver.import_clause} — which
   re-derives each candidate against the importer's own clause database
   and logs a real resolution chain, so certification never depends on a
   foreign domain's proof log.  A full ring overwrites its oldest
   entries: exporters never block, slow importers lose stale clauses. *)
module Share = struct
  type filter = { max_lbd : int; max_len : int }

  (* Glue <= 4 or length <= 8: the classic HordeSat-flavoured "cheap and
     likely reusable" slice of the learnt stream. *)
  let default_filter = { max_lbd = 4; max_len = 8 }

  let eligible f ~lits ~lbd = lbd <= f.max_lbd || Array.length lits <= f.max_len

  type entry = { e_lits : Isr_sat.Lit.t array; e_lbd : int }

  (* [head] counts entries ever written; slot = seq mod capacity. *)
  type ring = { lock : Mutex.t; buf : entry array; mutable head : int }

  let capacity = 256

  type t = {
    filter : filter;
    rings : ring array;        (* exporter -> its ring *)
    cursors : int array array; (* cursors.(importer).(exporter) = next seq *)
    exported : int array;      (* cumulative per-worker traffic counts; *)
    imported : int array;      (* each cell is only ever written by its *)
    dropped : int array;       (* own worker's domain *)
  }

  let create ~jobs filter =
    let dummy = { e_lits = [||]; e_lbd = 0 } in
    {
      filter;
      rings =
        Array.init jobs (fun _ ->
            { lock = Mutex.create (); buf = Array.make capacity dummy; head = 0 });
      cursors = Array.make_matrix jobs jobs 0;
      exported = Array.make jobs 0;
      imported = Array.make jobs 0;
      dropped = Array.make jobs 0;
    }

  (* The budget layer's ambient share context for [worker]: install with
     [Budget.with_share] inside the worker's domain. *)
  let attach h ~worker =
    let nw = Array.length h.rings in
    let export ~lits ~lbd =
      eligible h.filter ~lits ~lbd
      && begin
           let r = h.rings.(worker) in
           Mutex.protect r.lock (fun () ->
               r.buf.(r.head mod capacity) <- { e_lits = lits; e_lbd = lbd };
               r.head <- r.head + 1);
           h.exported.(worker) <- h.exported.(worker) + 1;
           true
         end
    in
    let import solver =
      let imported = ref 0 and satisfied = ref 0 and dropped = ref 0 in
      for peer = 0 to nw - 1 do
        if peer <> worker then begin
          let r = h.rings.(peer) in
          (* Snapshot under the lock, re-derive outside it: importing
             runs unit propagation and must not stall the exporter. *)
          let batch =
            Mutex.protect r.lock (fun () ->
                let first = max h.cursors.(worker).(peer) (r.head - capacity) in
                let n = r.head - first in
                h.cursors.(worker).(peer) <- r.head;
                Array.init n (fun i -> r.buf.((first + i) mod capacity)))
          in
          Array.iter
            (fun e ->
              match
                Isr_sat.Solver.import_clause solver ~lbd:e.e_lbd
                  (Array.to_list e.e_lits)
              with
              | `Imported -> incr imported
              | `Satisfied -> incr satisfied
              | `Dropped -> incr dropped)
            batch
        end
      done;
      h.imported.(worker) <- h.imported.(worker) + !imported;
      h.dropped.(worker) <- h.dropped.(worker) + !satisfied + !dropped;
      if !imported + !satisfied + !dropped > 0 && Isr_obs.Event.enabled () then
        Isr_obs.Event.emit
          (Isr_obs.Event.Share
             {
               worker;
               exported = h.exported.(worker);
               imported = h.imported.(worker);
               dropped = h.dropped.(worker);
             });
      (!imported, !satisfied, !dropped)
    in
    { Budget.export; import }
end

(* Run [body] under [worker]'s share context when a hub is present. *)
let with_share_ctx hub ~worker body =
  match hub with
  | None -> body ()
  | Some h -> Budget.with_share (Share.attach h ~worker) body

(* Round-robin partition of the portfolio across [jobs] domains, keeping
   the sequential order (cheap members first) inside each group so a
   2-way race still tries random simulation before PDR. *)
let partition jobs members =
  let groups = Array.make jobs [] in
  List.iteri (fun i m -> groups.(i mod jobs) <- m :: groups.(i mod jobs)) members;
  Array.to_list (Array.map List.rev groups) |> List.filter (fun g -> g <> [])

let verdict_tag = function
  | Verdict.Proved _ -> "proved"
  | Verdict.Falsified { depth; _ } -> Printf.sprintf "falsified(d=%d)" depth
  | Verdict.Unknown _ -> "unknown"

(* One up-front analyzer run shared by every domain: a trivial verdict
   short-circuits the race entirely, otherwise the workers race the
   simplified model and a winning counterexample is lifted back to the
   original inputs.  The analyzer's registry is merged into the returned
   stats either way. *)
let with_analysis ?analyze model k =
  match analyze with
  | None | Some Isr_analyze.Off -> k model
  | Some mode ->
    let areg = Isr_obs.Metrics.create () in
    let r = Isr_analyze.run ~mode ~registry:areg model in
    let verdict, stats =
      match r.Isr_analyze.verdict with
      | Some (Isr_analyze.Safe { invariant }) ->
        (Verdict.Proved { kfp = 0; jfp = 0; invariant = Some invariant }, Verdict.mk_stats ())
      | Some (Isr_analyze.Unsafe { trace }) ->
        (Verdict.Falsified { depth = Trace.depth trace; trace }, Verdict.mk_stats ())
      | None -> (
        match k r.Isr_analyze.model with
        | Verdict.Falsified { depth; trace }, stats ->
          (Verdict.Falsified { depth; trace = r.Isr_analyze.lift trace }, stats)
        | out -> out)
    in
    Isr_obs.Metrics.merge ~into:(Verdict.registry stats) areg;
    (verdict, stats)

let portfolio_race ~jobs ~limits ~share ~members model =
  let t0 = Isr_obs.Clock.now () in
  let cancel = Atomic.make false in
  let winner : (string * Verdict.t) option Atomic.t = Atomic.make None in
  (* Members are identified by their global index: lane ids in the event
     stream, and the claim flags below, both use it.  A member belongs to
     whichever domain CAS-claims it — each domain seeds its scheduler
     with the head of its round-robin group and leaves the tail in the
     common pool, so a domain whose lanes retire early picks up pending
     members from anywhere (work hand-off between lanes). *)
  let indexed = List.mapi (fun i (w, m) -> (i, w, m)) members in
  let claimed = Array.init (List.length indexed) (fun _ -> Atomic.make false) in
  let groups = partition jobs indexed in
  let ngroups = List.length groups in
  let hub = Option.map (fun f -> Share.create ~jobs:ngroups f) share in
  (* Each racer gets the race's whole remaining wall-clock budget: the
     race trades cores for latency, it does not split the deadline.  A
     lane claimed late (stolen after its group's head retired) gets what
     is left of [time_limit] since [t0], not a fresh one, so the race
     as a whole ends by its deadline. *)
  let claim (i, w, m) =
    if Atomic.compare_and_set claimed.(i) false true then
      let left = limits.Budget.time_limit -. (Isr_obs.Clock.now () -. t0) in
      let limits = { limits with Budget.time_limit = Float.max 0. left } in
      Some
        {
          Sched.id = i;
          name = Portfolio.member_name m;
          weight = Portfolio.weight w;
          inst = Step.start ~lane:i ~limits (Portfolio.stepper_of m) model;
        }
    else None
  in
  (* Lifecycle events carry the logical worker index [w], not the domain
     id: domain ids vary across replays, worker indices do not, so the
     merged stream's race story is reproducible.  The winning worker
     emits its own verdict plus one causal cancellation edge per loser;
     a worker whose whole slate retires without a verdict records a
     deadline (or exhaustion) self-edge. *)
  let worker w group () =
    Budget.with_cancel cancel @@ fun () ->
    with_share_ctx hub ~worker:w @@ fun () ->
    if Isr_obs.Event.enabled () then
      Isr_obs.Event.emit
        (Isr_obs.Event.Spawn
           {
             worker = w;
             engines =
               String.concat "+" (List.map (fun (_, _, m) -> Portfolio.member_name m) group);
           });
    let rec scan = function
      | [] -> None
      | x :: tl -> ( match claim x with Some l -> Some l | None -> scan tl)
    in
    let rec take n xs =
      if n = 0 then []
      else match scan xs with None -> [] | Some l -> l :: take (n - 1) xs
    in
    (* Seed with the head half of the group; the rest stays stealable. *)
    let lanes = take (max 1 ((List.length group + 1) / 2)) group in
    let refill () = match scan group with Some l -> Some l | None -> scan indexed in
    let stats = Verdict.mk_stats () in
    match Sched.run ~refill ~into:stats lanes with
    | exception Budget.Cancelled -> ([], stats)
    | Sched.Winner { lane; verdict } ->
      if Atomic.compare_and_set winner None (Some (lane.Sched.name, verdict)) then begin
        Atomic.set cancel true;
        if Isr_obs.Event.enabled () then begin
          Isr_obs.Event.emit
            (Isr_obs.Event.Verdict { worker = w; verdict = verdict_tag verdict });
          for j = 0 to ngroups - 1 do
            if j <> w then
              Isr_obs.Event.emit
                (Isr_obs.Event.Cancel { worker = j; cause = Isr_obs.Event.Race_won; by = w })
          done
        end
      end;
      ([], stats)
    | Sched.Exhausted { reasons } ->
      if Isr_obs.Event.enabled () && not (Atomic.get cancel) then begin
        (* Why did this lane stop?  A slate that ran to completion with
           every member merely bound-limited was exhausted, not starved
           of budget — report it as such so explain-race/top don't blame
           a deadline that never fired. *)
        let exhausted =
          reasons <> []
          && List.for_all
               (function Verdict.Bound_limit _ -> true | _ -> false)
               reasons
        in
        Isr_obs.Event.emit
          (Isr_obs.Event.Cancel
             {
               worker = w;
               cause = (if exhausted then Isr_obs.Event.Exhausted else Isr_obs.Event.Deadline);
               by = w;
             })
      end;
      (reasons, stats)
  in
  let total = Verdict.mk_stats () in
  Isr_obs.Trace.span "portfolio"
    ~args:[ ("mode", "parallel"); ("jobs", string_of_int jobs) ]
    ~end_args:(fun () ->
      [
        ("winner",
         match Atomic.get winner with Some (name, _) -> name | None -> "none");
      ])
  @@ fun () ->
  Isr_obs.Resource.with_attached (Verdict.registry total) @@ fun () ->
  let domains = List.mapi (fun w g -> Domain.spawn (worker w g)) groups in
  let results = List.map Domain.join domains in
  List.iter (fun (_, stats) -> Verdict.merge_into ~into:total stats) results;
  Verdict.set_time total (Isr_obs.Clock.now () -. t0);
  match Atomic.get winner with
  | Some (_, verdict) -> (verdict, total)
  | None ->
    let reasons = List.concat_map fst results in
    (Verdict.Unknown (Sched.worst_reason reasons Verdict.Time_limit), total)

let portfolio ?(jobs = 0) ?analyze ?share ?(limits = Budget.default_limits) model =
  with_analysis ?analyze model @@ fun model ->
  let jobs = if jobs <= 0 then default_jobs () else jobs in
  let jobs = min jobs (List.length Portfolio.members) in
  if jobs = 1 then
    (* One domain needs no race: the same lanes run under the sequential
       interleaver (there is nobody to share with either). *)
    Portfolio.verify ~limits model
  else portfolio_race ~jobs ~limits ~share ~members:Portfolio.members model

(* Bound-parallel BMC probes.

   Bounds are handed out from one atomic counter, so they are attempted
   in strictly increasing order across the workers.  When some probe
   comes back satisfiable, its trace is depth-minimised ([Sim.first_bad])
   and published as [best]; from then on no new bound >= best is started,
   and in-flight probes that published a current bound >= best are
   cancelled through their per-worker token.  Probes at bounds < best
   keep running: the minimal counterexample depth d* satisfies the exact
   formulation at bound d* <= best, and that bound was dispatched before
   best was found — so the minimum over the collected results is the
   true minimal depth, exactly as in sequential deepening.  Races on
   [best]/[current] are benign: at worst a doomed probe runs to
   completion, never a wrong verdict. *)
let bmc ?(check = Bmc.Exact) ?(jobs = 0) ?analyze ?share ?(limits = Budget.default_limits)
    model =
  with_analysis ?analyze model @@ fun model ->
  let jobs = if jobs <= 0 then default_jobs () else jobs in
  (* There are [bound_limit + 1] bounds to probe (0 included), so more
     workers than that would idle — but [bound_limit] is [max_int] for
     unlimited-bound runs and the [+ 1] must not wrap to [min_int]. *)
  let bound_cap =
    if limits.Budget.bound_limit >= max_int - 1 then max_int
    else limits.Budget.bound_limit + 1
  in
  let jobs = max 1 (min jobs bound_cap) in
  let hub = Option.map (fun f -> Share.create ~jobs f) share in
  let t0 = Isr_obs.Clock.now () in
  let next = Atomic.make 0 in
  let best = Atomic.make max_int in
  let tokens = Array.init jobs (fun _ -> Atomic.make false) in
  let current = Array.init jobs (fun _ -> Atomic.make max_int) in
  let publish depth i =
    let rec shrink () =
      let b = Atomic.get best in
      if depth < b && not (Atomic.compare_and_set best b depth) then shrink ()
    in
    shrink ();
    let b = Atomic.get best in
    if Isr_obs.Event.enabled () then
      Isr_obs.Event.emit
        (Isr_obs.Event.Verdict { worker = i; verdict = Printf.sprintf "falsified(d=%d)" depth });
    Array.iteri
      (fun j c ->
        if j <> i && Atomic.get c >= b then begin
          Atomic.set tokens.(j) true;
          if Isr_obs.Event.enabled () then
            Isr_obs.Event.emit
              (Isr_obs.Event.Cancel { worker = j; cause = Isr_obs.Event.Min_depth; by = i })
        end)
      current
  in
  let worker i () =
    Budget.with_cancel tokens.(i) @@ fun () ->
    with_share_ctx hub ~worker:i @@ fun () ->
    if Isr_obs.Event.enabled () then
      Isr_obs.Event.emit (Isr_obs.Event.Spawn { worker = i; engines = "bmc" });
    let budget = Budget.start limits in
    let stats = Verdict.mk_stats () in
    let found = ref [] in
    let reason = ref None in
    (try
       let rec loop () =
         (* A signal handler that lost the ring lock leaves its flight
            dump pending; the bound-dispatch boundary is a safe, frequent
            place to honour it (the Budget interrupt poll covers the
            in-solve stretches). *)
         Isr_obs.Flight.poll ();
         let k = Atomic.fetch_and_add next 1 in
         if k > limits.Budget.bound_limit then reason := Some (Verdict.Bound_limit limits.Budget.bound_limit)
         else if k >= Atomic.get best then ()
         else begin
           Atomic.set current.(i) k;
           if Isr_obs.Event.enabled () then
             Isr_obs.Event.emit (Isr_obs.Event.Dispatch { worker = i; bound = k });
           (match Bmc.check_depth budget stats model ~check ~k with
           | `Sat u ->
             let tr = Unroll.trace u in
             let depth = match Sim.first_bad model tr with Some d -> d | None -> k in
             found := (depth, tr) :: !found;
             publish depth i
           | `Unsat _ -> ());
           Atomic.set current.(i) max_int;
           loop ()
         end
       in
       loop ()
     with
    | Budget.Out_of_time ->
      reason := Some Verdict.Time_limit;
      if Isr_obs.Event.enabled () then
        Isr_obs.Event.emit
          (Isr_obs.Event.Cancel { worker = i; cause = Isr_obs.Event.Deadline; by = i })
    | Budget.Out_of_conflicts ->
      reason := Some Verdict.Conflict_limit;
      if Isr_obs.Event.enabled () then
        Isr_obs.Event.emit
          (Isr_obs.Event.Cancel { worker = i; cause = Isr_obs.Event.Deadline; by = i })
    | Budget.Cancelled -> ());
    Atomic.set current.(i) max_int;
    (!found, !reason, stats)
  in
  let total = Verdict.mk_stats () in
  Isr_obs.Trace.span "bmc.par"
    ~args:
      [
        ("check", Bmc.check_name check);
        ("jobs", string_of_int jobs);
        ("mode", "parallel");
      ]
    ~end_args:(fun () ->
      [
        ("best",
         let b = Atomic.get best in
         if b = max_int then "none" else string_of_int b);
      ])
  @@ fun () ->
  Isr_obs.Resource.with_attached (Verdict.registry total) @@ fun () ->
  let domains = List.init jobs (fun i -> Domain.spawn (worker i)) in
  let results = List.map Domain.join domains in
  List.iter (fun (_, _, stats) -> Verdict.merge_into ~into:total stats) results;
  Verdict.set_time total (Isr_obs.Clock.now () -. t0);
  let sats = List.concat_map (fun (found, _, _) -> found) results in
  match List.sort (fun (d, _) (d', _) -> compare d d') sats with
  | (depth, trace) :: _ -> (Verdict.Falsified { depth; trace }, total)
  | [] ->
    let reasons = List.filter_map (fun (_, r, _) -> r) results in
    let reason =
      if List.mem Verdict.Time_limit reasons then Verdict.Time_limit
      else if List.mem Verdict.Conflict_limit reasons then Verdict.Conflict_limit
      else Verdict.Bound_limit limits.Budget.bound_limit
    in
    (Verdict.Unknown reason, total)
