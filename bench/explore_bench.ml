(* Design-space exploration section: paper-style area/delay tradeoff
   curves (Fig. 9 / Table 4 territory) for all four shipped workloads,
   produced by the lib/explore engine, plus three invariance checks: the
   sweep is the same on one worker and on two, a warm cache evaluates
   nothing, and a journaled sweep equals a bare one.

   Every sweep names its worker count.  The default follows
   Domain.recommended_domain_count, and on one core the pool runs its
   points on the main domain, which moves their spans (and allocation)
   under bench.explore/...; a fixed count keeps the baseline snapshot the
   same on any machine. *)

open Bench_common

let workloads =
  [
    ("fir8", 2500.0, fun () -> (Fir.build ~taps:8 ~latency:6 ()).Fir.dfg);
    ("idct", 2500.0, fun () -> (Idct.build ~latency:12 ~passes:1 ()).Idct.dfg);
    ( "interpolation",
      Interpolation.clock,
      fun () -> (Interpolation.unrolled ()).Interpolation.dfg );
    ("resizer", 4000.0, fun () -> (Resizer.full ()).Resizer.dfg);
  ]

let grid_for base_clock ~quick =
  let n = if quick then 4 else 8 in
  let clocks = List.init n (fun k -> base_clock *. (0.8 +. (0.1 *. float_of_int k))) in
  match
    Explore_grid.make ~clocks
      ~flows:[ Flows.Conventional; Flows.Slack_based ]
      ()
  with
  | Ok g -> g
  | Error m -> failwith m

let config = Flows.default_config
let jobs = 2

let tradeoff_curves ~quick () =
  section "Exploration: area/delay Pareto frontiers (paper Fig. 9 territory)";
  List.iter
    (fun (name, base_clock, build) ->
      let grid = grid_for base_clock ~quick in
      let outcome = Explore.run ~jobs ~lib:realistic ~config ~name ~build grid in
      subsection
        (Printf.sprintf "%s: %d points, frontier %d, failed %d" name
           outcome.Explore.total
           (List.length outcome.Explore.frontier)
           outcome.Explore.failed);
      print_string (Explore.render_summary outcome))
    workloads

let jobs_invariance ~quick () =
  subsection "worker count (one idct sweep per jobs setting)";
  let _, base_clock, build = List.nth workloads 1 in
  let n = if quick then 6 else 15 in
  let clocks =
    List.init n (fun k -> base_clock *. (0.8 +. (0.05 *. float_of_int k)))
  in
  let grid =
    match
      Explore_grid.make ~clocks
        ~flows:[ Flows.Conventional; Flows.Slowest_first; Flows.Slack_based ]
        ()
    with
    | Ok g -> g
    | Error m -> failwith m
  in
  let sweep jobs = Explore.run ~jobs ~lib:realistic ~config ~name:"idct" ~build grid in
  let o1 = sweep 1 in
  let on = sweep jobs in
  (* Whatever the worker count, the sweep itself must be identical. *)
  if Explore.to_csv o1 <> Explore.to_csv on then
    failwith "exploration results differ across worker counts";
  Printf.printf "  jobs=1 and jobs=%d: %d points, identical CSV\n" jobs o1.Explore.total

let cache_effect () =
  subsection "evaluation cache (same sweep twice)";
  let _, base_clock, build = List.hd workloads in
  let grid = grid_for base_clock ~quick:false in
  let cache = Eval_cache.create () in
  let run () = Explore.run ~jobs ~cache ~lib:realistic ~config ~name:"fir8" ~build grid in
  let o_cold = run () in
  let o_warm = run () in
  Printf.printf "  cold: %d evaluated   warm: %d evaluated, %d hits\n"
    o_cold.Explore.evaluated o_warm.Explore.evaluated o_warm.Explore.hits;
  if o_warm.Explore.evaluated <> 0 then failwith "warm sweep re-evaluated points"

let journal_invariance () =
  subsection "checkpoint journal (fsync per completed point)";
  let _, base_clock, build = List.hd workloads in
  let grid = grid_for base_clock ~quick:false in
  let sweep ?journal () =
    Explore.run ~jobs ?journal ~lib:realistic ~config ~name:"fir8" ~build grid
  in
  let o_bare = sweep () in
  let path = Filename.temp_file "explore_bench" ".journal" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let w = Journal.start ~path ~fresh:true in
      let o_journaled =
        Fun.protect ~finally:(fun () -> Journal.close w) (fun () -> sweep ~journal:w ())
      in
      (* The journal must not perturb the sweep itself. *)
      if Explore.to_csv o_bare <> Explore.to_csv o_journaled then
        failwith "journaled sweep differs from bare sweep";
      Printf.printf "  %d records fsync'd, journaled CSV identical to bare\n"
        o_journaled.Explore.total)

let run ~quick () =
  tradeoff_curves ~quick ();
  jobs_invariance ~quick ();
  cache_effect ();
  journal_invariance ()
