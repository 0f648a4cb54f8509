type engine = Two_pass | Bellman_ford_baseline

type config = {
  margin_frac : float;
  aligned : bool;
  max_rounds : int;
  bisection_steps : int;
  engine : engine;
}

let default_config =
  {
    margin_frac = 0.05;
    aligned = true;
    max_rounds = 24;
    bisection_steps = 24;
    engine = Two_pass;
  }

(* The recovery ladder's "try budgeting harder" rung: a coarser slack bin
   (fewer, larger updates converge on stubborn designs), more refinement
   rounds and a finer bisection.  Idempotent enough to apply repeatedly. *)
let relax c =
  {
    c with
    margin_frac = Float.min 0.25 (c.margin_frac *. 2.0);
    max_rounds = max 8 (c.max_rounds * 2);
    bisection_steps = max 16 (c.bisection_steps + 8);
  }

type infeasible = {
  slack_at_min : Slack.result;
  critical : Dfg.Op_id.t list;
}

type outcome = Feasible of float array | Infeasible of infeasible

(* Telemetry (paper §V): phase-1 bisection steps repair negative slack,
   phase-2 rounds distribute positive slack as per-op delay updates;
   freezes bound the updates any op can trigger (the slack-binning
   argument for bounded budgeting work). *)
let c_runs = Obs.counter "budget.runs"
let c_infeasible = Obs.counter "budget.infeasible"
let c_probes = Obs.counter "budget.feasibility_probes"
let c_bisect = Obs.counter "budget.bisection_steps"
let c_rounds = Obs.counter "budget.rounds"
let c_updates = Obs.counter "budget.delay_updates"
let c_half = Obs.counter "budget.half_retries"
let c_freezes = Obs.counter "budget.freezes"

let delays_at ~lambda tdfg ~ranges =
  let dfg = Timed_dfg.dfg tdfg in
  let n = Dfg.op_count dfg in
  Array.init n (fun i ->
      let o = Dfg.Op_id.of_int i in
      let r = ranges o in
      Interval.lo r +. (lambda *. Interval.width r))

let analyze ?attrib config tdfg ~clock delays =
  let del o = delays.(Dfg.Op_id.to_int o) in
  (match config.engine with
  | Two_pass -> ()
  | Bellman_ford_baseline ->
    (* Charge the prior-work fixpoint cost; its (unaligned) result is
       discarded in favour of the aligned linear pass below. *)
    ignore (Bf_timing.analyze tdfg ~clock ~del));
  let r = Slack.analyze ~aligned:config.aligned tdfg ~clock ~del in
  (match attrib with
  | Some a -> Attrib.observe a ~margin:(config.margin_frac *. clock) r
  | None -> ());
  r

let run ?(config = default_config) ?(event_phase = "budget") ?attrib
    ?(emit = Obs.Events.emit) tdfg ~clock ~ranges ~sensitivity =
  let eps = 1e-6 in
  let margin = config.margin_frac *. clock in
  let attrib =
    match attrib with Some a -> a | None -> Attrib.create tdfg
  in
  let analyze config tdfg ~clock delays =
    analyze ~attrib config tdfg ~clock delays
  in
  let dfg = Timed_dfg.dfg tdfg in
  let op_name o = (Dfg.op dfg o).Dfg.name in
  let ev_on () = Obs.Events.enabled () in
  Obs.incr c_runs;
  let feasible_with delays =
    Obs.incr c_probes;
    Slack.feasible ~eps (analyze config tdfg ~clock delays)
  in
  (* Phase 1 (negative slack repair): find the largest uniform knob that is
     feasible.  Monotonicity: raising any delay can only lower slacks. *)
  let at lambda = delays_at ~lambda tdfg ~ranges in
  if not (feasible_with (at 0.0)) then begin
    Obs.incr c_infeasible;
    let r = analyze config tdfg ~clock (at 0.0) in
    Infeasible { slack_at_min = r; critical = Slack.critical_ops tdfg r }
  end
  else begin
    let lambda =
      if feasible_with (at 1.0) then 1.0
      else begin
        let lo = ref 0.0 and hi = ref 1.0 in
        for _ = 1 to config.bisection_steps do
          Obs.incr c_bisect;
          let mid = 0.5 *. (!lo +. !hi) in
          if feasible_with (at mid) then lo := mid else hi := mid
        done;
        !lo
      end
    in
    let delays = at lambda in
    (* The uniform raise is itself a per-op budget update for every op with
       a non-degenerate delay range. *)
    (if lambda > 0.0 then begin
       let raised =
         List.filter
           (fun o -> Interval.width (ranges o) > eps)
           (Timed_dfg.active_ops tdfg)
       in
       Obs.add c_updates (List.length raised);
       (* The uniform phase-1 raise reported as round 0. *)
       if ev_on () then
         List.iter
           (fun o ->
             let i = Dfg.Op_id.to_int o in
             emit
               (Obs.Events.Delay_update
                  {
                    op = op_name o;
                    phase = event_phase;
                    round = 0;
                    from_ps = Interval.lo (ranges o);
                    to_ps = delays.(i);
                  }))
           raised
     end);
    (* Phase 2 (positive budgeting): raise individual delays up to their
       binned slack, most area-sensitive ops first, verifying after each
       tentative increase.  An op whose increase fails verification is
       frozen for the remaining rounds. *)
    let n = Array.length delays in
    let frozen = Array.make n false in
    let ops = Timed_dfg.active_ops tdfg in
    let round_no = ref 0 in
    let round () =
      Obs.incr c_rounds;
      incr round_no;
      let rn = !round_no in
      let updates_this_round = ref 0 in
      let result = ref (analyze config tdfg ~clock delays) in
      if ev_on () then
        List.iter
          (fun o ->
            emit
              (Obs.Events.Slack_computed
                 {
                   op = op_name o;
                   phase = event_phase;
                   round = rn;
                   slack_ps = Slack.op_slack !result o;
                 }))
          ops;
      let by_gain =
        let gain o =
          let i = Dfg.Op_id.to_int o in
          let r = ranges o in
          let headroom = Interval.hi r -. delays.(i) in
          let s = Slack.op_slack !result o in
          if frozen.(i) || headroom <= eps || s <= margin then 0.0
          else sensitivity o delays.(i) *. Float.min s headroom
        in
        List.filter (fun o -> gain o > 0.0) ops
        |> List.map (fun o -> (gain o, o))
        |> List.sort (fun (a, _) (b, _) -> Float.compare b a)
        |> List.map snd
      in
      let changed = ref false in
      List.iter
        (fun o ->
          let i = Dfg.Op_id.to_int o in
          if not frozen.(i) then begin
            let r = ranges o in
            let s = Slack.op_slack !result o in
            let headroom = Interval.hi r -. delays.(i) in
            (* Fair-share stepping: never grab the whole slack at once, so
               ops sharing a path converge to similar delays instead of the
               first visitor consuming everything (which snaps poorly to
               discrete curve points later). *)
            let bump = Float.min (Float.min s headroom) (Float.max margin (s /. 3.0)) in
            if bump > margin +. eps || (bump > eps && Float.abs (bump -. headroom) < eps)
            then begin
              let old = delays.(i) in
              delays.(i) <- old +. bump;
              let r' = analyze config tdfg ~clock delays in
              if Slack.feasible ~eps r' then begin
                Obs.incr c_updates;
                incr updates_this_round;
                if ev_on () then
                  emit
                    (Obs.Events.Delay_update
                       {
                         op = op_name o;
                         phase = event_phase;
                         round = rn;
                         from_ps = old;
                         to_ps = delays.(i);
                       });
                result := r';
                changed := true
              end
              else begin
                (* Retry with half the bump before freezing: alignment makes
                   slack a conservative, not exact, headroom estimate. *)
                Obs.incr c_half;
                delays.(i) <- old +. (0.5 *. bump);
                let r'' = analyze config tdfg ~clock delays in
                if Slack.feasible ~eps r'' && 0.5 *. bump > margin then begin
                  Obs.incr c_updates;
                  incr updates_this_round;
                  if ev_on () then
                    emit
                      (Obs.Events.Delay_update
                         {
                           op = op_name o;
                           phase = event_phase;
                           round = rn;
                           from_ps = old;
                           to_ps = delays.(i);
                         });
                  result := r'';
                  changed := true
                end
                else begin
                  delays.(i) <- old;
                  frozen.(i) <- true;
                  Obs.incr c_freezes
                end
              end
            end
          end)
        by_gain;
      if ev_on () then
        emit
          (Obs.Events.Budget_round { round = rn; updates = !updates_this_round });
      !changed
    in
    let rec loop k = if k > 0 && round () then loop (k - 1) in
    loop config.max_rounds;
    Feasible delays
  end
