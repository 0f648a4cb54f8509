(* corpus-batch: every design of the 100-design corpus, in a seeded order, through
   Explore.run in this process — the grid `hlsc sweep --corpus` uses
   (8 auto clocks x {conv, slack}, manifest II) on one shared domain pool
   of 2, cold cache, no journal.  One unit of work ("request") is one
   design's whole grid; a run is one or more whole passes. *)

open Common

type unit_run = { entry : Corpus.entry; wall : float; outcome : Explore.outcome }

let jobs = 2

(* One pass of the corpus takes about 17 to 20 s on the 2-vCPU machine the
   bounds were set on; a run makes one pass per whole 20 s of --seconds,
   at least one. *)
let pass_seconds = 20.0
let passes ~seconds = max 1 (int_of_float (seconds /. pass_seconds))

let explore pool (e : Corpus.entry) =
  let wall, outcome =
    time (fun () ->
        Explore.run ~pool ~lib ~config:flow_config ~name:e.Corpus.name ~build:(build_of e)
          (corpus_grid e))
  in
  { entry = e; wall; outcome }

let account r u =
  let o = u.outcome in
  r.attempted <- r.attempted + o.Explore.total;
  r.failed <- r.failed + o.Explore.timed_out + o.Explore.crashed + o.Explore.pending

let points_of units =
  List.concat_map
    (fun u ->
      List.map
        (fun (pr : Explore.point_result) ->
          (u.entry.Corpus.name, pr.Explore.point, pr.Explore.summary))
        u.outcome.Explore.results)
    units

(* Output check: re-run a seeded sample of ok points outside the timed
   region under Check.Paranoid — Hls.run then audits schedule, netlist and
   area — and compare area and steps with the timed summaries. *)
let check r ~seed units =
  let ok =
    Array.of_list
      (List.concat_map
         (fun u ->
           List.filter_map
             (fun (pr : Explore.point_result) ->
               if Eval_cache.ok pr.Explore.summary then Some (u.entry, pr) else None)
             u.outcome.Explore.results)
         units)
  in
  Splitmix.shuffle (rng seed 7) ok;
  let sample = Array.sub ok 0 (min 24 (Array.length ok)) in
  let paranoid = { flow_config with Flows.validate = Check.Paranoid } in
  Array.iter
    (fun ((e : Corpus.entry), (pr : Explore.point_result)) ->
      let p = pr.Explore.point and s = pr.Explore.summary in
      let design =
        Hls.design ?ii:p.Explore_grid.ii ~name:e.Corpus.name ~clock:p.Explore_grid.clock
          (build_of e ())
      in
      let config = { paranoid with Flows.recover_area = p.Explore_grid.recover } in
      match Hls.run ~lib ~config p.Explore_grid.flow design with
      | Error err ->
        mismatch r "%s %s: paranoid re-run failed: %s" e.Corpus.name pr.Explore.pkey
          (Flows.error_message err)
      | Ok res ->
        let sched = res.Hls.report.Flows.schedule in
        let audit =
          Check.errors
            (Audit.check_schedule sched @ Audit.check_netlist res.Hls.netlist
            @ Audit.check_area sched res.Hls.area)
        in
        if audit <> [] then
          mismatch r "%s %s: audit: %s" e.Corpus.name pr.Explore.pkey (Check.summary audit);
        if
          Hls.total_area res <> s.Eval_cache.area
          || Schedule.steps_used sched <> s.Eval_cache.steps
        then
          mismatch r "%s %s: paranoid area %.17g / %d steps, timed %.17g / %d"
            e.Corpus.name pr.Explore.pkey (Hls.total_area res) (Schedule.steps_used sched)
            s.Eval_cache.area s.Eval_cache.steps)
    sample;
  List.iter
    (fun u ->
      let o = u.outcome in
      if List.length o.Explore.results <> o.Explore.total then
        mismatch r "%s: %d results for %d points" u.entry.Corpus.name
          (List.length o.Explore.results) o.Explore.total)
    units;
  Array.length sample

let run r ~seed ~seconds ~trace =
  let plans = set_up_repeatedly (fun _ -> plan_corpus r) in
  let setup_s = median (List.map fst plans) and entries = snd (List.hd plans) in
  let order = Array.of_list (interleave_by_class (rng seed 1) entries) in
  let pool = Domain_pool.create ~jobs in
  Fun.protect ~finally:(fun () -> Domain_pool.shutdown pool) @@ fun () ->
  if not trace then begin
    (* Whole passes only, and a number of them fixed by --seconds alone,
       so every run — of any seed, on any commit, on a fast or slow
       phase of the machine — measures the same work: one design of the
       large class alone takes a quarter of a pass, and a time cut-off
       would make throughput hinge on whether it fell inside the window. *)
    let t0 = now () in
    let units =
      List.concat
        (List.init (passes ~seconds) (fun _ -> List.map (explore pool) (Array.to_list order)))
    in
    let wall = now () -. t0 in
    let rss = peak_rss_mb 0 in
    List.iter (account r) units;
    let points = points_of units in
    let n_ok = List.length (List.filter (fun (_, _, s) -> Eval_cache.ok s) points) in
    let n_done = List.length (List.filter (fun (_, _, s) -> completed s) points) in
    let walls = List.map (fun u -> u.wall *. 1000.0) units in
    let ratios = area_ratios points in
    let checked = check r ~seed units in
    put_end_to_end r ~setup_s
      ~points_per_s:(float_of_int n_done /. wall)
      ~latencies_ms:walls ~feasible:n_ok ~completed:n_done ~ratios ~rss_mb:rss;
    Printf.printf
      "corpus-batch: %d pass(es) of %d designs, %d points in %.2f s; tail = p%.0f of %d \
       designs; area saving %.2f%% over %d pairs; %d ok points re-checked paranoid\n"
      (List.length units / Array.length order)
      (Array.length order) (List.length points) wall
      (100.0 *. tail_q (List.length walls))
      (List.length walls)
      (100.0 *. (1.0 -. mean ratios))
      (List.length ratios) checked
  end
  else begin
    (* Traced run: a fixed quarter of the corpus (every 4th design of the
       interleaved order), alternating untraced and traced passes while
       time remains; counters and spans come from the first traced pass. *)
    let sample = List.filteri (fun i _ -> i mod 4 = 0) (Array.to_list order) in
    let pass _ traced =
      (* Reset before every pass, traced or not: Obs distributions keep
         every sample, so a ledger left to grow slows the later passes. *)
      Obs.reset ();
      if traced then begin
        Obs.enable_stats ();
        Obs.Prof.enable ()
      end;
      let wall, units = time (fun () -> List.map (explore pool) sample) in
      Obs.disable ();
      Obs.Prof.disable ();
      (wall, units, if traced then Some (Obs.counters_snapshot (), Obs.span_stats ()) else None)
    in
    let runs = pass_pairs ~seconds pass in
    List.iter (fun ((_, u, _), (_, t, _)) -> List.iter (account r) u; List.iter (account r) t) runs;
    (match runs with
    | (_, (wall, _, Some (counters, spans))) :: _ ->
      Layers.from_counters r ~counters ~spans ~busy_domains:jobs ~wall
    | _ -> ());
    let unit_walls sel =
      List.concat_map
        (fun run ->
          let _, units, _ = sel run in
          List.map (fun u -> u.wall) units)
        runs
    in
    Layers.trace_overhead r ~untraced:(unit_walls fst) ~traced:(unit_walls snd);
    Layers.probes r
      ~sample:(List.filteri (fun i _ -> i mod 3 = 0) sample)
      ~keys:
        (List.concat_map
           (fun (e : Corpus.entry) ->
             let digest = Dfg.digest (build_of e ()) in
             List.map
               (fun p -> full_key ~digest (Explore_grid.point_key p))
               (Explore_grid.points (corpus_grid e)))
           entries);
    Printf.printf "corpus-batch traced: %d pass pairs over %d designs\n" (List.length runs)
      (List.length sample)
  end
