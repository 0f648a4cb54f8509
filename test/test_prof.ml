(* Work-attribution profiler: GC/alloc deltas (Obs.Prof), per-span alloc
   aggregation, snapshot round-trips, cost-attribution counters on a
   hand-built DFG, and event-stream divergence localization. *)

(* Allocate [n] list cells the optimizer cannot discard. *)
let churn n = ignore (Sys.opaque_identity (List.init n (fun i -> i + 1)))

(* GC counters are cumulative and monotone: a delta over an allocating
   region is positive, over an empty region non-negative. *)
let test_gc_delta_monotone () =
  let a = Obs.Prof.sample () in
  let b = Obs.Prof.sample () in
  let empty = Obs.Prof.delta ~before:a ~after:b in
  Alcotest.(check bool) "empty delta minor >= 0" true (empty.Obs.Prof.minor_words >= 0.0);
  Alcotest.(check bool) "empty delta major >= 0" true (empty.Obs.Prof.major_words >= 0.0);
  let c = Obs.Prof.sample () in
  churn 50_000;
  let d = Obs.Prof.sample () in
  let dl = Obs.Prof.delta ~before:c ~after:d in
  (* 50k cons cells = at least 150k minor words. *)
  Alcotest.(check bool) "allocation shows up in the delta" true
    (dl.Obs.Prof.minor_words >= 100_000.0);
  Alcotest.(check bool) "collections delta non-negative" true
    (dl.Obs.Prof.minor_collections >= 0 && dl.Obs.Prof.major_collections >= 0)

(* With profiling on, a span's row carries the allocation of its body. *)
let test_span_alloc_aggregation () =
  Obs.reset ();
  Obs.enable_stats ();
  Obs.Prof.enable ();
  Fun.protect
    ~finally:(fun () ->
      Obs.Prof.disable ();
      Obs.disable ();
      Obs.reset ())
  @@ fun () ->
  Alcotest.(check bool) "profiling reports enabled" true (Obs.Prof.enabled ());
  Obs.span "prof_test" (fun () -> churn 50_000);
  Obs.span "prof_test" (fun () -> churn 50_000);
  match
    List.find_opt
      (fun (r : Obs.Prof.row) -> String.equal r.Obs.Prof.path "prof_test")
      (Obs.Prof.rows ())
  with
  | None -> Alcotest.fail "span row missing from Prof.rows"
  | Some r ->
    Alcotest.(check int) "both calls aggregated" 2 r.Obs.Prof.calls;
    Alcotest.(check bool) "row minor words cover the churn" true
      (r.Obs.Prof.minor_words >= 200_000.0);
    Alcotest.(check bool) "row wall clock is positive" true (r.Obs.Prof.total_ns > 0.0)

(* Profiling off (the default): rows still exist, alloc fields stay zero. *)
let test_span_alloc_off () =
  Obs.reset ();
  Obs.enable_stats ();
  Fun.protect
    ~finally:(fun () ->
      Obs.disable ();
      Obs.reset ())
  @@ fun () ->
  Alcotest.(check bool) "profiling off by default" false (Obs.Prof.enabled ());
  Obs.span "prof_off" (fun () -> churn 50_000);
  match
    List.find_opt
      (fun (r : Obs.Prof.row) -> String.equal r.Obs.Prof.path "prof_off")
      (Obs.Prof.rows ())
  with
  | None -> Alcotest.fail "span row missing from Prof.rows"
  | Some r ->
    Alcotest.(check (float 0.0)) "minor words zero" 0.0 r.Obs.Prof.minor_words;
    Alcotest.(check (float 0.0)) "major words zero" 0.0 r.Obs.Prof.major_words

(* The profiler must not feed its own allocation into what it measures:
   a span allocates exactly as many words with profiling on as with it
   off (no GC-stat record per sample). *)
let span_words ~prof =
  Obs.reset ();
  Obs.enable_stats ();
  if prof then Obs.Prof.enable ();
  Fun.protect
    ~finally:(fun () ->
      Obs.Prof.disable ();
      Obs.disable ();
      Obs.reset ())
  @@ fun () ->
  Obs.span "prof_cost" (fun () -> ());
  let w0 = Gc.minor_words () in
  for _ = 1 to 1000 do
    Obs.span "prof_cost" (fun () -> ())
  done;
  (Gc.minor_words () -. w0) /. 1000.0

let test_span_sampling_alloc_free () =
  let off = span_words ~prof:false in
  let on = span_words ~prof:true in
  Alcotest.(check (float 0.0)) "words per span, profiling on - off" 0.0 (on -. off)

(* Snapshots round-trip exactly through their JSON document.  Values are
   chosen representable in the emitter's %.6g float format, so the
   serialize-parse-serialize chain is a fixed point. *)
let test_snapshot_roundtrip () =
  let s =
    {
      Obs.Prof.mode = "quick";
      sections =
        [
          {
            Obs.Prof.path = "bench.table1";
            calls = 3;
            total_ns = 125000.0;
            minor_words = 786432.0;
            major_words = 2048.0;
            minor_collections = 7;
            major_collections = 1;
          };
          {
            Obs.Prof.path = "bench.table2";
            calls = 1;
            total_ns = 50.0;
            minor_words = 0.0;
            major_words = 0.0;
            minor_collections = 0;
            major_collections = 0;
          };
        ];
      counters = [ ("budget.runs", 12); ("slack.analyses", 240) ];
    }
  in
  let str1 = Obs.Json.to_string (Obs.Prof.snapshot_to_json s) in
  match Obs.Json.parse str1 with
  | Error m -> Alcotest.fail ("snapshot JSON does not parse: " ^ m)
  | Ok doc -> (
    match Obs.Prof.snapshot_of_json doc with
    | Error m -> Alcotest.fail ("snapshot JSON does not decode: " ^ m)
    | Ok s' ->
      Alcotest.(check bool) "snapshot record round-trips" true (s = s');
      let str2 = Obs.Json.to_string (Obs.Prof.snapshot_to_json s') in
      Alcotest.(check string) "serialization is a fixed point" str1 str2)

(* Snapshots written before the profiler existed (no alloc fields) still
   load, with alloc fields defaulting to zero. *)
let test_snapshot_lenient () =
  let legacy =
    {|{"harness":"slackhls-bench","mode":"full","sections":[{"span":"bench.old","calls":2,"total_ns":1000}],"counters":{"budget.runs":4}}|}
  in
  match Obs.Json.parse legacy with
  | Error m -> Alcotest.fail ("legacy snapshot does not parse: " ^ m)
  | Ok doc -> (
    match Obs.Prof.snapshot_of_json doc with
    | Error m -> Alcotest.fail ("legacy snapshot does not decode: " ^ m)
    | Ok s ->
      Alcotest.(check string) "mode" "full" s.Obs.Prof.mode;
      (match s.Obs.Prof.sections with
      | [ r ] ->
        Alcotest.(check (float 0.0)) "minor defaults to 0" 0.0 r.Obs.Prof.minor_words;
        Alcotest.(check (float 0.0)) "major defaults to 0" 0.0 r.Obs.Prof.major_words;
        Alcotest.(check int) "collections default to 0" 0 r.Obs.Prof.minor_collections
      | rows -> Alcotest.failf "expected 1 section, got %d" (List.length rows)))

(* ------------------------------------------------------------------ *)
(* Attribution counters, exact on a hand-built 5-op chain.

   CFG: start --e0--> state --e1--> exit; five ops on e0 in a chain
   rd -> add -> mul -> sub -> wr.  The timed DFG then has 4 chain edges
   plus one sink edge per op: E = 9, so one full analysis touches 2E = 18
   directed relaxations.  Incident-edge degrees: rd and wr 2 (one chain
   edge + sink), add/mul/sub 3 (two chain edges + sink); total 13. *)
let chain_tdfg () =
  let cfg = Cfg.create () in
  let st = Cfg.add_node cfg Cfg.State in
  let ex = Cfg.add_node cfg Cfg.Exit in
  let e0 = Cfg.add_edge cfg (Cfg.start cfg) st in
  let (_ : Cfg.Edge_id.t) = Cfg.add_edge cfg st ex in
  Cfg.seal cfg;
  let dfg = Dfg.create cfg in
  let op kind name = Dfg.add_op dfg ~kind ~width:16 ~birth:e0 ~name () in
  let rd = op (Dfg.Read "x") "rd" in
  let add = op Dfg.Add "add" in
  let mul = op Dfg.Mul "mul" in
  let sub = op Dfg.Sub "sub" in
  let wr = op (Dfg.Write "y") "wr" in
  List.iter
    (fun (src, dst) -> Dfg.add_dep dfg ~src ~dst ())
    [ (rd, add); (add, mul); (mul, sub); (sub, wr) ];
  let spans = Dfg.compute_spans dfg in
  (Timed_dfg.build dfg ~spans, mul)

let totals_check msg (expected : Attrib.totals) (got : Attrib.totals) =
  Alcotest.(check int) (msg ^ ": analyses") expected.Attrib.analyses got.Attrib.analyses;
  Alcotest.(check int) (msg ^ ": touched") expected.Attrib.touched got.Attrib.touched;
  Alcotest.(check int) (msg ^ ": cone") expected.Attrib.cone got.Attrib.cone;
  Alcotest.(check int)
    (msg ^ ": changed_bin")
    expected.Attrib.changed_bin got.Attrib.changed_bin

let test_attrib_exact () =
  let tdfg, mul = chain_tdfg () in
  Alcotest.(check int) "timed DFG has 4 chain + 5 sink edges" 9
    (Timed_dfg.edge_count tdfg);
  let a = Attrib.create tdfg in
  let clock = 1000.0 and margin = 50.0 in
  let del_flat _ = 100.0 in
  (* First analysis: everything is dirty (cone = touched), no bin history. *)
  Attrib.observe a ~margin (Slack.analyze tdfg ~clock ~del:del_flat);
  totals_check "first analysis"
    { Attrib.analyses = 1; touched = 18; cone = 18; changed_bin = 0 }
    (Attrib.instance_totals a);
  (* Identical delays: nothing changed, the entire re-analysis is waste. *)
  Attrib.observe a ~margin (Slack.analyze tdfg ~clock ~del:del_flat);
  totals_check "identical re-analysis"
    { Attrib.analyses = 2; touched = 36; cone = 18; changed_bin = 0 }
    (Attrib.instance_totals a);
  Alcotest.(check (float 1e-9)) "wasted ratio = 1/2" 0.5
    (Attrib.wasted_ratio (Attrib.instance_totals a));
  (* Slowing the middle op moves every op's arrival or required time: the
     cone is the full incident-degree sum (13) and every slack drops by
     500 ps, crossing 50 ps bins. *)
  let del_slow o = if Dfg.Op_id.equal o mul then 600.0 else 100.0 in
  Attrib.observe a ~margin (Slack.analyze tdfg ~clock ~del:del_slow);
  totals_check "perturbed re-analysis"
    { Attrib.analyses = 3; touched = 54; cone = 31; changed_bin = 5 }
    (Attrib.instance_totals a)

(* Global counters integrate every tracker (Budget.run creates one per
   run), so they only ever grow. *)
let test_attrib_global_counters () =
  let before = Attrib.totals () in
  let tdfg, _ = chain_tdfg () in
  let a = Attrib.create tdfg in
  Attrib.observe a ~margin:50.0 (Slack.analyze tdfg ~clock:1000.0 ~del:(fun _ -> 100.0));
  let after = Attrib.totals () in
  Alcotest.(check int) "global analyses grew by 1" 1
    (after.Attrib.analyses - before.Attrib.analyses);
  Alcotest.(check int) "global touched grew by 2E" 18
    (after.Attrib.touched - before.Attrib.touched)

(* ------------------------------------------------------------------ *)
(* Event-stream divergence localization. *)

let mk_events payloads =
  List.mapi (fun i p -> { Obs.Events.seq = i; payload = p }) payloads

let sample_payloads =
  [
    Obs.Events.Budget_round { round = 1; updates = 4 };
    Obs.Events.Slack_computed
      { op = "mul"; phase = "budget"; round = 1; slack_ps = 240.0 };
    Obs.Events.Budget_round { round = 2; updates = 0 };
    Obs.Events.Edge_scheduled { edge = 0; step = 1; placed = 3; deferred = 1 };
  ]

let test_diff_identical () =
  let a = mk_events sample_payloads in
  let b = mk_events sample_payloads in
  match Obs.Events.diff a b with
  | None -> ()
  | Some d -> Alcotest.failf "identical streams diverge at index %d" d.Obs.Events.index

let test_diff_truncated () =
  let a = mk_events sample_payloads in
  let b = List.filteri (fun i _ -> i < 2) a in
  match Obs.Events.diff a b with
  | None -> Alcotest.fail "truncation not detected"
  | Some d ->
    Alcotest.(check int) "divergence at the cut" 2 d.Obs.Events.index;
    Alcotest.(check bool) "A still has an event" true (d.Obs.Events.a <> None);
    Alcotest.(check bool) "B has ended" true (d.Obs.Events.b = None);
    Alcotest.(check int) "no field diff across an ended stream" 0
      (List.length d.Obs.Events.fields)

let test_diff_field_perturbation () =
  let a = mk_events sample_payloads in
  let b =
    mk_events
      (List.map
         (function
           | Obs.Events.Budget_round { round = 2; updates } ->
             Obs.Events.Budget_round { round = 9; updates }
           | p -> p)
         sample_payloads)
  in
  match Obs.Events.diff a b with
  | None -> Alcotest.fail "field perturbation not detected"
  | Some d ->
    Alcotest.(check int) "localized to the perturbed event" 2 d.Obs.Events.index;
    (match d.Obs.Events.fields with
    | [ f ] ->
      Alcotest.(check string) "the round field" "round" f.Obs.Events.field;
      Alcotest.(check string) "old value" "2" f.Obs.Events.a_val;
      Alcotest.(check string) "new value" "9" f.Obs.Events.b_val
    | fs -> Alcotest.failf "expected exactly 1 field diff, got %d" (List.length fs))

let test_diff_both_empty () =
  Alcotest.(check bool) "two empty streams are identical" true
    (Obs.Events.diff [] [] = None)

let () =
  Alcotest.run "prof"
    [
      ( "gc",
        [
          Alcotest.test_case "GC deltas are monotone" `Quick test_gc_delta_monotone;
          Alcotest.test_case "span rows carry alloc telemetry" `Quick
            test_span_alloc_aggregation;
          Alcotest.test_case "alloc fields zero with profiling off" `Quick
            test_span_alloc_off;
          Alcotest.test_case "span sampling allocates nothing" `Quick
            test_span_sampling_alloc_free;
        ] );
      ( "snapshot",
        [
          Alcotest.test_case "snapshot JSON round-trip is exact" `Quick
            test_snapshot_roundtrip;
          Alcotest.test_case "legacy snapshots load with zero alloc" `Quick
            test_snapshot_lenient;
        ] );
      ( "attrib",
        [
          Alcotest.test_case "counters exact on a 5-op chain" `Quick
            test_attrib_exact;
          Alcotest.test_case "global counters integrate trackers" `Quick
            test_attrib_global_counters;
        ] );
      ( "diff",
        [
          Alcotest.test_case "identical streams" `Quick test_diff_identical;
          Alcotest.test_case "truncated stream localized" `Quick test_diff_truncated;
          Alcotest.test_case "field perturbation localized" `Quick
            test_diff_field_perturbation;
          Alcotest.test_case "empty streams" `Quick test_diff_both_empty;
        ] );
    ]
