(* fleet-sweep: repeated `hlsc sweep --workers unix:A,unix:B` invocations
   against two `hlsc serve --jobs 1` daemons, default lease settings and a
   50 ms heartbeat.  Each sweep covers 6 tiny-class corpus designs x 12
   clocks x {conv, slack}; the clocks are fresh seeded values never swept
   before in the run, so no point is answered from the daemons' warm
   caches.  One unit of work ("request") is one sweep invocation, timed
   from spawn to exit. *)

open Common

let designs_per_sweep = 6
let clocks_per_sweep = 12

(* Health-probe period.  The supervisor joins its heartbeat threads when a
   sweep ends, and each sits out its period first: at the default 1 s that
   sleep is ~95% of a sweep's wall and would hide any change to the work. *)
let heartbeat = "0.05"

type sweep = {
  entries : Corpus.entry list;
  clocks : float list;
  dir : string;
  wall : float;
  code : int;
  stdout : string;
  merged : (string * Eval_cache.summary) list;
}

(* Seeded sweep plans: designs drawn in rounds over the tiny class (every
   design once per round), clocks on a 1/8 ps grid within 0.8x..1.5x of
   the designs' clock, never repeated. *)
let planner ~seed (tiny : Corpus.entry array) =
  let g = rng seed 200 in
  let draw = rounds g tiny in
  let used = Hashtbl.create 64 in
  fun () ->
    let rec pick acc =
      if List.length acc = min designs_per_sweep (Array.length tiny) then List.rev acc
      else
        let e = draw () in
        pick (if List.memq e acc then acc else e :: acc)
    in
    let entries = pick [] in
    let base =
      List.fold_left (fun m (e : Corpus.entry) -> Float.min m e.Corpus.clock_ps) infinity entries
    in
    let rec clock () =
      let c = Float.round (8.0 *. base *. (0.8 +. Splitmix.float g 0.7)) /. 8.0 in
      if Hashtbl.mem used c then clock ()
      else begin
        Hashtbl.replace used c ();
        c
      end
    in
    (entries, List.sort Float.compare (List.init clocks_per_sweep (fun _ -> clock ())))

let counter = ref 0

let sweep ~daemons ~traced (entries, clocks) =
  incr counter;
  let dir = work (Printf.sprintf "sweep%d" !counter) in
  let manifest = work (Printf.sprintf "sweep%d.tsv" !counter) in
  Corpus.save ~path:manifest ~seed:42 entries;
  let out = work (Printf.sprintf "sweep%d.out" !counter) in
  let argv =
    [
      "sweep"; "--corpus"; manifest; "--clocks";
      String.concat "," (List.map (Printf.sprintf "%.3f") clocks); "--flows"; "conv,slack";
      "--workers"; String.concat "," (List.map (fun d -> "unix:" ^ d.sock) daemons);
      "--heartbeat"; heartbeat; "--dir"; dir;
    ]
    @ if traced then [ "--stats" ] else []
  in
  let wall, code =
    time (fun () ->
        wait_exit
          (spawn ~stdout_to:out ~stderr_to:(work (Printf.sprintf "sweep%d.err" !counter)) argv))
  in
  let stdout = In_channel.with_open_text out In_channel.input_all in
  let merged =
    match Journal.load ~path:(Filename.concat dir "merged.jnl") with
    | Ok (entries, _) -> entries
    | Error _ -> []
  in
  { entries; clocks; dir; wall; code; stdout; merged }

(* A fixed number of sweeps per run, set by --seconds alone (each takes
   about a quarter of a second on the 2-vCPU machine the bounds were set
   on), so a faster commit is timed on the same sweeps, and the daemons'
   caches and RSS grow by the same amount, as a slower one. *)
let sweeps ~seconds = max 1 (int_of_float (3.0 *. seconds))

let points s = List.length s.entries * List.length s.clocks * 2

(* "sweep: dispatched N points to 2 workers: L leases, R reassigned, S
   stolen, V salvaged, W lost workers" *)
let dispatch_counts s =
  List.find_map
    (fun line ->
      Scanf.sscanf_opt line
        "sweep: dispatched %d points to %d workers: %d leases, %d reassigned, %d stolen, \
         %d salvaged, %d lost workers"
        (fun _ _ l r _ _ w -> (l, r, w)))
    (String.split_on_char '\n' s.stdout)

(* Failed: every point of a sweep that exited non-zero or merged short,
   and every reassignment or lost worker — none happen in a fault-free
   run. *)
let account r sweeps =
  List.iter
    (fun s ->
      let n = points s in
      r.attempted <- r.attempted + n;
      let lost =
        match dispatch_counts s with Some (_, re, w) -> re + w | None -> n
      in
      let short = if s.code <> 0 then n else n - min n (List.length s.merged) in
      r.failed <- r.failed + min n (max short lost))
    sweeps

let grid_of s (e : Corpus.entry) = corpus_grid ~clocks:s.clocks e

(* Output check: the merged records of every sweep against Explore.run of
   the same grid in this process. *)
let check r sweeps =
  let jobs =
    Array.of_list (List.concat_map (fun s -> List.map (fun e -> (s, e)) s.entries) sweeps)
  in
  let outcomes =
    explore_each (fun (s, (e : Corpus.entry)) -> (e.Corpus.name, build_of e, grid_of s e)) jobs
  in
  Array.iteri
    (fun i (s, (e : Corpus.entry)) ->
      match outcomes.(i) with
      | Domain_pool.Done o ->
        List.iter
          (fun (pr : Explore.point_result) ->
            let key = full_key ~digest:o.Explore.digest pr.Explore.pkey in
            match List.assoc_opt key s.merged with
            | Some m when m = pr.Explore.summary -> ()
            | Some _ ->
              mismatch r "%s %s: merged record differs from Explore.run" e.Corpus.name
                pr.Explore.pkey
            | None ->
              mismatch r "%s %s: missing from the merged journal of %s" e.Corpus.name
                pr.Explore.pkey s.dir)
          o.Explore.results
      | _ -> mismatch r "%s: in-process explore did not complete" e.Corpus.name)
    jobs

let merged_points sweeps =
  List.concat_map
    (fun s ->
      List.concat_map
        (fun (e : Corpus.entry) ->
          let digest = Dfg.digest (build_of e ()) in
          List.filter_map
            (fun p ->
              Option.map (fun sm -> (e.Corpus.name, p, sm))
                (List.assoc_opt (full_key ~digest (Explore_grid.point_key p)) s.merged))
            (Explore_grid.points (grid_of s e)))
        s.entries)
    sweeps

let start_pair ~traced tag =
  List.init 2 (fun k ->
      start_daemon ~name:(Printf.sprintf "%s-w%d" tag (k + 1))
        ([ "--jobs"; "1"; "--corpus"; manifest ] @ if traced then [ "--stats" ] else []))

(* Lease service the daemons report: n x mean of serve.latency.shard_explore. *)
let service_s daemons =
  sum
    (List.map
       (fun d ->
         let st = stats d in
         path_num st [ "latency_ms"; "shard_explore"; "n" ]
         *. path_num st [ "latency_ms"; "shard_explore"; "mean_ms" ]
         /. 1000.0)
       daemons)

(* One shard_explore lease sent by hand through Client: [e]'s grid at
   clocks 1/16 ps off [clocks], off the sweeps' grid, so no point is
   cached. *)
let hand_lease r d (e : Corpus.entry) clocks =
  let clocks = List.map (fun c -> c +. 0.0625) (List.filteri (fun i _ -> i < 4) clocks) in
  let req =
    Protocol.Shard_explore
      {
        design = e.Corpus.name;
        clocks = String.concat "," (List.map (Printf.sprintf "%.4f") clocks);
        flows = "conv,slack";
        iis = (if e.Corpus.ii > 0 then string_of_int e.Corpus.ii else "none");
        recover = "on";
        point_deadline = None;
        lease = "perfbench-1";
        keys = List.map Explore_grid.point_key (Explore_grid.points (corpus_grid ~clocks e));
      }
  in
  let body =
    Obs.Json.to_string
      (Protocol.request_to_json { Protocol.id = "lease"; deadline_s = None; trace = None; req })
  in
  let t, reply = time (fun () -> call d.addr body) in
  (match reply with
  | Ok ("ok", _, _) -> ()
  | Ok (st, _, _) -> mismatch r "hand-made lease answered %s" st
  | Error m -> mismatch r "hand-made lease: %s" m);
  t *. 1000.0

let run r ~seed ~seconds ~trace =
  let setup_s, entries, daemons =
    setup_daemons r (fun k -> start_pair ~traced:false (Printf.sprintf "setup%d" k))
  in
  let tiny =
    Array.of_list (List.filter (fun (e : Corpus.entry) -> e.Corpus.klass = Corpus.Tiny) entries)
  in
  let next = planner ~seed tiny in
  if not trace then begin
    let sweeps = List.init (sweeps ~seconds) (fun _ -> sweep ~daemons ~traced:false (next ())) in
    let rss = List.fold_left (fun m d -> Float.max m (peak_rss_mb d.pid)) 0.0 daemons in
    List.iter stop_daemon daemons;
    account r sweeps;
    check r sweeps;
    List.iter
      (fun s -> if s.code <> 0 then mismatch r "%s: hlsc sweep exited %d" s.dir s.code)
      sweeps;
    let pts = merged_points sweeps in
    let n_ok = List.length (List.filter (fun (_, _, s) -> Eval_cache.ok s) pts) in
    let n_done = List.length (List.filter (fun (_, _, s) -> completed s) pts) in
    let walls = List.map (fun s -> s.wall *. 1000.0) sweeps in
    let ratios = area_ratios pts in
    put_end_to_end r ~setup_s
      ~points_per_s:(float_of_int n_done /. sum (List.map (fun s -> s.wall) sweeps))
      ~latencies_ms:walls ~feasible:n_ok ~completed:n_done ~ratios ~rss_mb:rss;
    Printf.printf
      "fleet-sweep: %d sweeps of %d points (%d merged) in %.2f s; tail = p%.0f; area \
       saving %.2f%% over %d pairs\n"
      (List.length sweeps) (points (List.hd sweeps)) (List.length pts)
      (sum (List.map (fun s -> s.wall) sweeps))
      (100.0 *. tail_q (List.length walls))
      (100.0 *. (1.0 -. mean ratios))
      (List.length ratios)
  end
  else begin
    (* Traced run: a fixed 3 sweeps per pass against a fresh daemon pair
       (cold caches), alternating plain daemons and sweeps with daemons
       and supervisor under --stats. *)
    List.iter stop_daemon daemons;
    let plans = List.init 3 (fun _ -> next ()) in
    let pass k traced =
      let ds = start_pair ~traced (Printf.sprintf "pass%d%b" k traced) in
      let sweeps = List.map (sweep ~daemons:ds ~traced) plans in
      let service = service_s ds in
      (* The serve layer, measured on this workload's own daemons once. *)
      if k = 0 && not traced then Serve_mix.serve_probe r (List.hd ds) ~seed ~entries ~limit:100;
      let tele = if traced then List.map telemetry ds else [] in
      let health = if traced then health_rtt_ms (List.hd ds) else 0.0 in
      let lease_ms =
        match plans with
        | (e :: _, clocks) :: _ when traced -> hand_lease r (List.hd ds) e clocks
        | _ -> 0.0
      in
      List.iter stop_daemon ds;
      (sweeps, service, tele, health, lease_ms)
    in
    let runs = pass_pairs ~seconds pass in
    let sweeps_of (s, _, _, _, _) = s in
    List.iter (fun (u, t) -> account r (sweeps_of u); account r (sweeps_of t)) runs;
    let (u0, service0, _, _, _), (t1, _, tele1, health1, lease1) = List.hd runs in
    let wall1 = sum (List.map (fun s -> s.wall) t1) in
    (* Worker-side counters and spans, summed over the pair. *)
    let counters =
      List.fold_left
        (fun acc (cs, _) ->
          List.fold_left
            (fun acc (k, v) ->
              (k, v + Option.value ~default:0 (List.assoc_opt k acc)) :: List.remove_assoc k acc)
            acc cs)
        [] tele1
    in
    let spans = List.concat_map snd tele1 in
    Layers.from_counters r ~counters ~spans ~busy_domains:2 ~wall:wall1;
    let l, re, w =
      List.fold_left
        (fun (l, re, w) s ->
          match dispatch_counts s with
          | Some (l', re', w') -> (l + l', re + re', w + w')
          | None -> (l, re, w))
        (0, 0, 0) t1
    in
    put r "dispatch.leases" "count" (float_of_int l);
    put r "dispatch.reassigned" "count" (float_of_int re);
    put r "dispatch.workers_lost" "count" (float_of_int w);
    put r "dispatch.lease_rtt_ms" "ms" lease1;
    put r "dispatch.health_rtt_ms" "ms" health1;
    let wall0 = sum (List.map (fun s -> s.wall) u0) in
    put r "dispatch.idle_frac" "ratio" (1.0 -. ratio service0 (2.0 *. wall0));
    (* Merge the first untraced sweep's worker journals again, by hand. *)
    let s0 = List.hd u0 in
    let inputs =
      List.filter_map
        (fun n ->
          if Filename.check_suffix n ".jnl" && n <> "merged.jnl" then
            Some (Filename.concat s0.dir n)
          else None)
        (Array.to_list (Sys.readdir s0.dir))
    in
    put r "shard.merge_ms" "ms"
      (Layers.per_call_ms (fun () ->
           match Shard.merge_journals ~inputs ~output:(work "remerge.jnl") with
           | Ok st when st.Shard.entries = List.length s0.merged -> ()
           | Ok st ->
             mismatch r "re-merge of %s: %d records, expected %d" s0.dir st.Shard.entries
               (List.length s0.merged)
           | Error m -> mismatch r "re-merge of %s: %s" s0.dir m));
    let walls sel =
      List.concat_map (fun run -> List.map (fun s -> s.wall) (sweeps_of (sel run))) runs
    in
    Layers.trace_overhead r ~untraced:(walls fst) ~traced:(walls snd);
    Layers.probes r ~sample:(List.concat_map fst plans) ~keys:(List.map fst s0.merged);
    Printf.printf "fleet-sweep traced: %d pass pairs of %d sweeps\n" (List.length runs)
      (List.length plans)
  end
