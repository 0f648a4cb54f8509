(* Per-layer probes for the traced run.  Each probe times calls into one
   layer's public functions from here, on the workload's own designs, with
   every Obs sink off; the counters and spans the program records itself
   are read separately (see {!from_counters}). *)

open Common

(* Median wall of [reps] calls, in ms. *)
let per_call_ms ?(reps = 3) f =
  median (List.init reps (fun _ -> fst (time f) *. 1000.0))

let min_delay dfg o =
  let op = Dfg.op dfg o in
  match Library.op_curve lib op.Dfg.kind ~width:op.Dfg.width with
  | Some c -> Curve.min_delay c
  | None -> 0.0

(* The delay range and sensitivity the slack flow hands to budgeting. *)
let ranges dfg budget o =
  let op = Dfg.op dfg o in
  match Library.op_curve lib op.Dfg.kind ~width:op.Dfg.width with
  | Some c ->
    let lo = Curve.min_delay c in
    Interval.make lo (Float.max lo (Float.min (Curve.max_delay c) budget))
  | None -> Interval.point 0.0

let sensitivity dfg o d =
  let op = Dfg.op dfg o in
  match Library.op_curve lib op.Dfg.kind ~width:op.Dfg.width with
  | Some c -> Curve.sensitivity c d
  | None -> 0.0

(* corpus, dfg, timing, budget and core, on a sample of the workload's
   designs at their own clock (budgeting also at 1.2x). *)
let pipeline r (sample : Corpus.entry list) =
  let design_ms = ref [] and digest_ms = ref [] and build_ms = ref [] in
  let slack_ms = ref [] and budget_ms = ref [] in
  let conv_ms = ref [] and slack_run_ms = ref [] in
  List.iter
    (fun (e : Corpus.entry) ->
      let t, d = time (fun () -> Corpus.design e) in
      design_ms := (t *. 1000.0) :: !design_ms;
      let dfg = d.Random_design.dfg in
      digest_ms := per_call_ms (fun () -> ignore (Dfg.digest dfg)) :: !digest_ms;
      let spans = Dfg.compute_spans dfg in
      match Timed_dfg.build dfg ~spans with
      | exception Timed_dfg.Unrealizable _ -> ()
      | tdfg ->
        build_ms := per_call_ms (fun () -> ignore (Timed_dfg.build dfg ~spans)) :: !build_ms;
        let budget_at clock = clock -. Library.register_overhead lib in
        let clock = e.Corpus.clock_ps in
        slack_ms :=
          per_call_ms (fun () ->
              ignore
                (Slack.analyze ~aligned:true tdfg ~clock:(budget_at clock)
                   ~del:(min_delay dfg)))
          :: !slack_ms;
        List.iter
          (fun clock ->
            let b = budget_at clock in
            budget_ms :=
              per_call_ms ~reps:1 (fun () ->
                  ignore
                    (Budget.run tdfg ~clock:b ~ranges:(ranges dfg b)
                       ~sensitivity:(sensitivity dfg)))
              :: !budget_ms)
          [ clock; clock *. 1.2 ];
        let ii = if e.Corpus.ii > 0 then Some e.Corpus.ii else None in
        let design = Hls.design ?ii ~name:e.Corpus.name ~clock dfg in
        let run flow =
          fst (time (fun () -> ignore (Hls.run ~lib ~config:flow_config flow design)))
        in
        conv_ms := (run Flows.Conventional *. 1000.0) :: !conv_ms;
        slack_run_ms := (run Flows.Slack_based *. 1000.0) :: !slack_run_ms)
    sample;
  put r "corpus.design_ms" "ms" (mean !design_ms);
  put r "dfg.digest_ms" "ms" (mean !digest_ms);
  put r "timing.build_ms" "ms" (mean !build_ms);
  put r "timing.slack_ms" "ms" (mean !slack_ms);
  put r "budget.run_ms" "ms" (mean !budget_ms);
  put r "core.conv_run_ms" "ms" (mean !conv_ms);
  put r "core.slack_run_ms" "ms" (mean !slack_run_ms);
  put r "core.slack_over_conv" "ratio" (ratio (sum !slack_run_ms) (sum !conv_ms))

(* Framing: Protocol.frame + split of a run request, per frame. *)
let protocol r =
  let payload =
    Obs.Json.to_string
      (Protocol.request_to_json
         {
           Protocol.id = "c042-loop-medium@2000.250/slack";
           deadline_s = None;
           trace = None;
           req = Protocol.Run { design = "c042-loop-medium"; clock = Some 2000.25; flow = "slack" };
         })
  in
  let n = 20_000 in
  let t, () =
    time (fun () ->
        for _ = 1 to n do
          match Protocol.split (Protocol.frame payload) with
          | Protocol.Complete (p, _) -> assert (String.length p = String.length payload)
          | Protocol.Incomplete | Protocol.Oversized _ -> assert false
        done)
  in
  put r "protocol.frame_us" "us" (t *. 1e6 /. float_of_int n)

let summ =
  {
    Eval_cache.status = Eval_cache.Success;
    area = 1234.5;
    steps = 4;
    delay_ps = 8000.0;
    relaxations = 0;
    regrades = 0;
    recoveries = 0;
    error = "";
  }

(* Journal: the fsync'd append alone (5 trials of 20 records), and what
   journaling adds to a small explore sweep — paired, alternating trials,
   so the sign of the overhead is only claimed when the spread agrees. *)
let journal r (e : Corpus.entry) =
  let path = work "probe.jnl" in
  let per_record =
    List.init 5 (fun trial ->
        let w = Journal.start ~path ~fresh:true in
        let t, () =
          time (fun () ->
              for i = 1 to 20 do
                Journal.record w ~key:(Printf.sprintf "probe|%d|%d" trial i) summ
              done)
        in
        Journal.close w;
        t *. 1000.0 /. 20.0)
  in
  put r "journal.record_ms" "ms" (median per_record);
  put r "journal.record_q1_ms" "ms" (quantile 0.25 per_record);
  put r "journal.record_q3_ms" "ms" (quantile 0.75 per_record);
  let grid = corpus_grid ~clocks:[ e.Corpus.clock_ps; e.Corpus.clock_ps *. 1.2 ] e in
  let sweep journaled =
    let w = if journaled then Some (Journal.start ~path ~fresh:true) else None in
    let t, _ =
      time (fun () ->
          Explore.run ~jobs:1 ?journal:w ~lib ~config:flow_config ~name:e.Corpus.name
            ~build:(build_of e) grid)
    in
    Option.iter Journal.close w;
    t
  in
  let overheads =
    List.init 7 (fun k ->
        let tj, tb =
          if k mod 2 = 0 then
            let tj = sweep true in
            (tj, sweep false)
          else
            let tb = sweep false in
            (sweep true, tb)
        in
        100.0 *. ((tj /. tb) -. 1.0))
  in
  let q1 = quantile 0.25 overheads and q3 = quantile 0.75 overheads in
  put r "journal.overhead_pct" "%" (median overheads);
  put r "journal.overhead_q1_pct" "%" q1;
  put r "journal.overhead_q3_pct" "%" q3;
  Printf.printf
    "journal fsync overhead on a %d-point sweep of %s: median %+.1f%% (IQR \
     %+.1f..%+.1f%%, %d pairs): sign %s\n"
    (Explore_grid.size grid) e.Corpus.name (median overheads) q1 q3 (List.length overheads)
    (sign_of ~q1 ~q3)

(* Tracing cost: paired per-unit walls, traced over untraced. *)
let trace_overhead r ~untraced ~traced =
  let per_unit = List.map2 (fun u t -> 100.0 *. ((t /. u) -. 1.0)) untraced traced in
  let q1 = quantile 0.25 per_unit and q3 = quantile 0.75 per_unit in
  put r "obs.trace_overhead_pct" "%" (100.0 *. ((sum traced /. sum untraced) -. 1.0));
  put r "obs.trace_overhead_q1_pct" "%" q1;
  put r "obs.trace_overhead_q3_pct" "%" q3;
  Printf.printf
    "trace overhead: %+.1f%% of %.2f s untraced (per-unit IQR %+.1f..%+.1f%%, %d units): \
     sign %s\n"
    (100.0 *. ((sum traced /. sum untraced) -. 1.0))
    (sum untraced) q1 q3 (List.length per_unit) (sign_of ~q1 ~q3)

(* Layer metrics the program records itself: counters plus span totals
   ([path, calls, total_ns]) from one traced pass, wherever it ran. *)
let from_counters r ~counters ~spans ~busy_domains ~wall =
  let c name = float_of_int (Option.value ~default:0 (List.assoc_opt name counters)) in
  let span_total leaf =
    List.fold_left
      (fun (calls, ns) (path, n, t) ->
        if path = leaf || String.ends_with ~suffix:("/" ^ leaf) path then (calls + n, ns +. t)
        else (calls, ns))
      (0, 0.0) spans
  in
  let per_call leaf =
    let calls, ns = span_total leaf in
    if calls = 0 then 0.0 else ns /. 1e6 /. float_of_int calls
  in
  List.iter
    (fun name -> put r name "count" (c name))
    [
      "slack.analyses"; "slack.edge_relaxations"; "budget.runs"; "budget.rounds";
      "budget.feasibility_probes"; "sched.rebudget.runs"; "sched.runs"; "sched.failures";
      "flow.relaxations"; "sched.defer.no_resource"; "bind.instances"; "rtl.fu_instances";
    ];
  put r "timing.wasted_work_ratio" "ratio"
    (if c "timing.wasted_work_ratio.touched" = 0.0 then 0.0
     else 1.0 -. (c "timing.wasted_work_ratio.cone" /. c "timing.wasted_work_ratio.touched"));
  put r "sched.useful_ratio" "ratio"
    (if c "sched.runs" = 0.0 then 0.0 else 1.0 -. (c "sched.failures" /. c "sched.runs"));
  let _, hls_ns = span_total "hls.run" and _, sched_ns = span_total "flow.schedule" in
  put r "flow.schedule_share" "ratio" (ratio sched_ns hls_ns);
  put r "rtl.area_model_ms" "ms" (per_call "hls.area_model");
  put r "rtl.netlist_ms" "ms" (per_call "hls.netlist");
  put r "explore.pool_busy_frac" "ratio"
    (ratio (hls_ns /. 1e9) (float_of_int busy_domains *. wall));
  let hits = c "explore.cache.hits" and misses = c "explore.cache.misses" in
  put r "explore.cache_hit_frac" "ratio" (ratio hits (hits +. misses))

(* The standalone probes every traced run ends with, after
   [from_counters]: the pipeline layers on [sample], framing, the journal,
   a range partition of the workload's full cache keys over two workers,
   and the corpus plan. *)
let probes r ~sample ~keys =
  pipeline r sample;
  (* Re-budgeting time estimate: standalone Budget.run x rebudget count. *)
  let find name = List.find_opt (fun m -> m.name = name) r.metrics in
  (match (find "budget.run_ms", find "sched.rebudget.runs") with
  | Some b, Some n -> put r "budget.rebudget_est_ms" "ms" (b.value *. n.value)
  | _ -> ());
  protocol r;
  journal r (List.hd sample);
  put r "shard.plan_ms" "ms" (per_call_ms ~reps:5 (fun () -> ignore (Shard.plan ~shards:2 keys)));
  put r "corpus.plan_ms" "ms"
    (per_call_ms (fun () -> ignore (Corpus.plan ~count:Corpus.default_count ~seed:42 ())))
