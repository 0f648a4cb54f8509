(* Fleet observability costs: the per-call price of shipping a worker's
   telemetry — event emission, JSONL serialization, Telemetry.capture +
   to_json, Prometheus rendering.  These rows are single-shot figures for
   orientation; the wall-clock overhead of tracing and journaling is
   measured with paired trials by perfbench (obs.trace_overhead_pct,
   journal.overhead_pct).

   Every row uses fixed iteration counts (not quota-driven sampling),
   so the counters the measured bodies bump — obs.telemetry.captures,
   flow counters from the workload run — stay deterministic and the
   baseline gate can keep its 0% counter tolerance. *)

let fixed_n n f =
  let t0 = Obs.Telemetry.uptime_ns () in
  for _ = 1 to n do
    f ()
  done;
  let t1 = Obs.Telemetry.uptime_ns () in
  float_of_int (t1 - t0) /. float_of_int n

let fir_design () =
  let f = Fir.build ~taps:8 ~latency:6 () in
  Hls.design ~name:"fir8" ~clock:2500.0 f.Fir.dfg

let run_flow d =
  match Hls.run Flows.Slack_based d with
  | Ok _ -> ()
  | Error e -> Printf.printf "  fir8 FAILED: %s\n" (Flows.error_message e)

let run () =
  Bench_common.section "Fleet observability: telemetry shipping cost per call";
  let prof_was = Obs.Prof.enabled () in
  let stats_was = Obs.collecting () in
  (* Mirror `hlsc serve --telemetry`: events + trace + profiling on, then
     one real flow so the rings hold representative content before the
     capture rows run over them. *)
  Obs.enable_trace ();
  Obs.Events.enable ();
  Obs.Prof.enable ();
  let d = fir_design () in
  run_flow d;
  let payload =
    Obs.Events.Slack_computed
      { op = "a0"; phase = "bench"; round = 1; slack_ps = 12.5 }
  in
  let sample_ev = { Obs.Events.seq = 0; payload } in
  let emit_on = fixed_n 10_000 (fun () -> Obs.Events.emit payload) in
  let jsonl =
    fixed_n 10_000 (fun () ->
        ignore (Obs.Events.tagged_to_jsonl_line ~stream:"L0" sample_ev))
  in
  let cap_light =
    fixed_n 200 (fun () ->
        ignore
          (Obs.Json.to_string
             (Obs.Telemetry.to_json
                (Obs.Telemetry.capture ~events_limit:0 ~include_trace:false ()))))
  in
  let cap_full =
    fixed_n 50 (fun () ->
        ignore
          (Obs.Json.to_string
             (Obs.Telemetry.to_json
                (Obs.Telemetry.capture ~events_limit:256 ()))))
  in
  let expo = fixed_n 500 (fun () -> ignore (Obs.Expo.render ())) in
  Obs.Events.disable ();
  let emit_off = fixed_n 10_000 (fun () -> Obs.Events.emit payload) in
  Printf.printf "%-46s %12s\n" "path" "per call";
  List.iter
    (fun (name, ns) -> Printf.printf "%-46s %12s\n" name (Bench_common.pp_ns ns))
    [
      ("events.emit (enabled, ring at default size)", emit_on);
      ("events.emit (disabled: flag test)", emit_off);
      ("events.tagged_to_jsonl_line", jsonl);
      ("telemetry.capture+to_json (counters only)", cap_light);
      ("telemetry.capture+to_json (trace + 256 events)", cap_full);
      ("expo.render (/metrics scrape)", expo);
    ];
  Obs.disable ();
  Obs.Prof.disable ();
  if prof_was then Obs.Prof.enable ();
  if stats_was then Obs.enable_stats ()
