(* The repository benchmark.  One invocation runs one workload:

     perfbench --workload corpus-batch|serve-mix|fleet-sweep|all
               --seed N --seconds S --trace 0|1

   With --trace 0 it prints the end-to-end metrics, measured with every
   Obs sink off; with --trace 1 it prints the per-layer metrics from a
   separate traced run.  Human-readable lines come first; the last line of
   stdout is one JSON object {correct, attempted, failed, metrics}.  Exit
   status 1 means an output check failed (the JSON is still printed, with
   "correct": false); 2 a usage or environment error.  Run it from the
   repository root: the hlsc binary and corpus/manifest.tsv are found
   relative to it. *)

open Common

(* Every end-to-end metric is printed on every workload; README.md gives
   each one's meaning per workload. *)
let end_to_end =
  [
    ("setup_s", "s"); ("points_per_s", "points/s"); ("req_p50_ms", "ms");
    ("req_tail_ms", "ms"); ("ok_frac", "ratio"); ("feasible_frac", "ratio");
    ("slack_area_ratio", "ratio"); ("peak_rss_mb", "MB");
  ]

(* Per-layer metrics, grouped by module.  A layer the workload bypasses
   reads 0 (no calls, no time) — that is the measurement, not a gap. *)
let per_layer =
  [
    ("corpus.plan_ms", "ms"); ("corpus.design_ms", "ms"); ("dfg.digest_ms", "ms");
    ("timing.build_ms", "ms"); ("timing.slack_ms", "ms"); ("slack.analyses", "count");
    ("slack.edge_relaxations", "count"); ("timing.wasted_work_ratio", "ratio");
    ("budget.run_ms", "ms"); ("budget.runs", "count"); ("budget.rounds", "count");
    ("budget.feasibility_probes", "count"); ("sched.rebudget.runs", "count");
    ("budget.rebudget_est_ms", "ms"); ("sched.runs", "count"); ("sched.failures", "count");
    ("sched.useful_ratio", "ratio"); ("flow.relaxations", "count");
    ("sched.defer.no_resource", "count"); ("flow.schedule_share", "ratio");
    ("core.conv_run_ms", "ms"); ("core.slack_run_ms", "ms"); ("core.slack_over_conv", "ratio");
    ("rtl.area_model_ms", "ms"); ("rtl.netlist_ms", "ms"); ("bind.instances", "count");
    ("rtl.fu_instances", "count"); ("explore.pool_busy_frac", "ratio");
    ("explore.cache_hit_frac", "ratio"); ("journal.record_ms", "ms");
    ("journal.record_q1_ms", "ms"); ("journal.record_q3_ms", "ms");
    ("journal.overhead_pct", "%"); ("journal.overhead_q1_pct", "%");
    ("journal.overhead_q3_pct", "%"); ("serve.hit_p50_ms", "ms"); ("serve.miss_p50_ms", "ms");
    ("serve.server_p50_ms", "ms"); ("serve.transport_ms", "ms"); ("protocol.frame_us", "us");
    ("serve.shed_frac", "ratio"); ("dispatch.lease_rtt_ms", "ms");
    ("dispatch.health_rtt_ms", "ms"); ("dispatch.idle_frac", "ratio");
    ("dispatch.leases", "count"); ("dispatch.reassigned", "count");
    ("dispatch.workers_lost", "count"); ("shard.plan_ms", "ms"); ("shard.merge_ms", "ms");
    ("obs.trace_overhead_pct", "%"); ("obs.trace_overhead_q1_pct", "%");
    ("obs.trace_overhead_q3_pct", "%");
  ]

let workloads =
  [
    ("corpus-batch", Corpus_batch.run); ("serve-mix", Serve_mix.run);
    ("fleet-sweep", Fleet_sweep.run);
  ]

let usage () =
  prerr_endline
    "usage: perfbench --workload corpus-batch|serve-mix|fleet-sweep|all --seed N \
     --seconds S --trace 0|1 [--hlsc PATH]";
  exit 2

let run_one ~workload ~seed ~seconds ~trace =
  let r = new_result () in
  init_work ~workload;
  let body = List.assoc workload workloads in
  let outcome =
    Fun.protect
      ~finally:(fun () ->
        kill_all ();
        rm_rf !work_dir;
        try Unix.rmdir work_root with Unix.Unix_error _ -> ())
      (fun () ->
        try Ok (body r ~seed ~seconds ~trace)
        with e -> Error (Printexc.to_string e))
  in
  (match outcome with
  | Ok () ->
    (* The workloads inject no faults: a crashed or timed-out point, an
       error reply or a reassigned lease is a defect, not noise. *)
    if r.failed > 0 then
      mismatch r "%d of %d attempts failed in a fault-free run" r.failed r.attempted
  | Error m ->
    Printf.eprintf "perfbench: %s: %s\n%!" workload m;
    exit 2);
  (* Fill the metrics the workload never reached (bypassed layers) with 0,
     and order them as listed above. *)
  let names = if trace then per_layer else end_to_end in
  let have = r.metrics in
  r.metrics <-
    List.rev_map
      (fun (name, unit_) ->
        match List.find_opt (fun m -> m.name = name) have with
        | Some m -> m
        | None -> { name; unit_; value = 0.0 })
      names;
  (* One row per workload: metric = value unit. *)
  Printf.printf "%-13s %s\n" workload
    (String.concat "  "
       (List.rev_map (fun m -> Printf.sprintf "%s=%.4g %s" m.name m.value m.unit_) r.metrics));
  r

let () =
  let workload = ref "" and seed = ref 42 and seconds = ref 20.0 and trace = ref 0 in
  let rec parse = function
    | "--workload" :: v :: tl -> workload := v; parse tl
    | "--seed" :: v :: tl ->
      (match int_of_string_opt v with Some n -> seed := n | None -> usage ());
      parse tl
    | "--seconds" :: v :: tl ->
      (match float_of_string_opt v with Some s when s > 0.0 -> seconds := s | _ -> usage ());
      parse tl
    | "--trace" :: v :: tl ->
      (match v with "0" -> trace := 0 | "1" -> trace := 1 | _ -> usage ());
      parse tl
    | "--hlsc" :: v :: tl -> hlsc := v; parse tl
    | [] -> ()
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  if not (Sys.file_exists manifest && Sys.file_exists !hlsc) then begin
    prerr_endline "perfbench: run from the repository root after building bin/hlsc.exe";
    exit 2
  end;
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let trace = !trace = 1 in
  let selected =
    if !workload = "all" then List.map fst workloads
    else if List.mem_assoc !workload workloads then [ !workload ]
    else usage ()
  in
  let results =
    List.map (fun w -> (w, run_one ~workload:w ~seed:!seed ~seconds:!seconds ~trace)) selected
  in
  let r =
    match results with
    | [ (_, r) ] -> r
    | _ ->
      (* --workload all: one JSON object, metrics prefixed by workload. *)
      let all = new_result () in
      List.iter
        (fun (w, (x : result)) ->
          all.attempted <- all.attempted + x.attempted;
          all.failed <- all.failed + x.failed;
          all.mismatches <- x.mismatches @ all.mismatches;
          all.metrics <-
            List.map (fun m -> { m with name = w ^ "/" ^ m.name }) x.metrics @ all.metrics)
        results;
      all
  in
  print_endline (result_json r);
  exit (if r.mismatches = [] then 0 else 1)
