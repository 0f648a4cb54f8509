(* Shared plumbing for the benchmark workloads: clocks, order statistics,
   the metric ledger each run fills, child processes (daemons and sweep
   invocations of the hlsc binary) and the private work directory. *)

let now () = Int64.to_float (Obs.now_ns ()) /. 1e9

let time f =
  let t0 = now () in
  let r = f () in
  (now () -. t0, r)

(* {1 Order statistics} *)

let sorted xs = List.sort Float.compare xs

(* Linear interpolation between closest ranks, [q] in [0, 1]. *)
let quantile q xs =
  match sorted xs with
  | [] -> 0.0
  | s ->
    let a = Array.of_list s in
    let n = Array.length a in
    let pos = q *. float_of_int (n - 1) in
    let i = max 0 (min (n - 1) (int_of_float pos)) in
    if i >= n - 1 then a.(n - 1)
    else
      let frac = pos -. float_of_int i in
      a.(i) +. (frac *. (a.(i + 1) -. a.(i)))

let median xs = quantile 0.5 xs
let sum xs = List.fold_left ( +. ) 0.0 xs
let mean xs = match xs with [] -> 0.0 | _ -> sum xs /. float_of_int (List.length xs)

(* The highest percentile with at least ten samples beyond it, capped at
   p99 and floored at the median: p99 needs 1000 samples, p90 needs 100. *)
let tail_q n =
  if n <= 0 then 0.5 else Float.max 0.5 (Float.min 0.99 (1.0 -. (10.0 /. float_of_int n)))

let ratio a b = if b = 0.0 then 0.0 else a /. b

(* Run-to-run spread of a paired overhead: median with quartiles, and a
   sign that is only claimed when the whole interquartile range agrees. *)
let sign_of ~q1 ~q3 =
  if q1 > 0.0 then "positive" else if q3 < 0.0 then "negative" else "unresolved"

(* {1 Metric ledger} *)

type metric = { name : string; unit_ : string; value : float }

type result = {
  mutable attempted : int;
  mutable failed : int;
  mutable mismatches : string list;  (* output-check failures, newest first *)
  mutable metrics : metric list;  (* reverse insertion order *)
}

let new_result () = { attempted = 0; failed = 0; mismatches = []; metrics = [] }

let put r name unit_ value =
  let value = if Float.is_finite value then value else 0.0 in
  r.metrics <- { name; unit_; value } :: List.filter (fun m -> m.name <> name) r.metrics

let mismatch r fmt =
  Printf.ksprintf
    (fun m ->
      if List.length r.mismatches < 20 then prerr_endline ("perfbench: mismatch: " ^ m);
      r.mismatches <- m :: r.mismatches)
    fmt

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

(* Values carry every digit ([%.17g]); the driver compares raw numbers. *)
let result_json r =
  let metrics =
    List.rev_map
      (fun m ->
        Printf.sprintf "%s: {\"value\": %.17g, \"unit\": %s}" (json_string m.name) m.value
          (json_string m.unit_))
      r.metrics
  in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    (r.mismatches = []) (max 1 r.attempted) r.failed (String.concat ", " metrics)

(* The end-to-end row every workload reports (see README.md). *)
let put_end_to_end r ~setup_s ~points_per_s ~latencies_ms ~feasible ~completed ~ratios ~rss_mb =
  put r "setup_s" "s" setup_s;
  put r "points_per_s" "points/s" points_per_s;
  put r "req_p50_ms" "ms" (median latencies_ms);
  put r "req_tail_ms" "ms" (quantile (tail_q (List.length latencies_ms)) latencies_ms);
  put r "ok_frac" "ratio" (1.0 -. ratio (float_of_int r.failed) (float_of_int r.attempted));
  put r "feasible_frac" "ratio" (ratio (float_of_int feasible) (float_of_int completed));
  put r "slack_area_ratio" "ratio" (if ratios = [] then 1.0 else mean ratios);
  put r "peak_rss_mb" "MB" rss_mb

(* {1 Work directory}

   Everything a run writes (manifests, sockets, journals, sweep dirs, child
   logs) lives under perfbench/_work/<workload>-<pid>, relative to the
   checkout root, and is removed when the run ends.  Relative socket paths
   also keep clear of the 108-byte sun_path limit wherever the checkout
   lives. *)

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error _ -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun n -> rm_rf (Filename.concat path n)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Unix.unlink path

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    Unix.mkdir d 0o755
  end

let work_root = Filename.concat "perfbench" "_work"
let work_dir = ref work_root
let work name = Filename.concat !work_dir name

let init_work ~workload =
  work_dir := Filename.concat work_root (Printf.sprintf "%s-%d" workload (Unix.getpid ()));
  rm_rf !work_dir;
  mkdir_p !work_dir

(* {1 Child processes} *)

let hlsc = ref (Filename.concat "_build" (Filename.concat "default" "bin/hlsc.exe"))
let children : int list ref = ref []

let spawn ?(stdout_to = "/dev/null") ?(stderr_to = "/dev/null") argv =
  let dev_null = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let out = Unix.openfile stdout_to [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let err =
    if stderr_to = stdout_to then out
    else Unix.openfile stderr_to [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644
  in
  let pid = Unix.create_process !hlsc (Array.of_list (!hlsc :: argv)) dev_null out err in
  Unix.close dev_null;
  Unix.close out;
  if err != out then Unix.close err;
  children := pid :: !children;
  pid

let forget pid = children := List.filter (( <> ) pid) !children

let rec waitpid_nointr flags pid =
  try Unix.waitpid flags pid
  with Unix.Unix_error (Unix.EINTR, _, _) -> waitpid_nointr flags pid

(* Blocking wait; returns the exit code (128+signal when killed). *)
let wait_exit pid =
  let _, st = waitpid_nointr [] pid in
  forget pid;
  match st with Unix.WEXITED c -> c | Unix.WSIGNALED s | Unix.WSTOPPED s -> 128 + abs s

(* Wait up to [timeout] seconds, then SIGKILL and reap. *)
let wait_or_kill ?(timeout = 15.0) pid =
  let deadline = now () +. timeout in
  let rec go () =
    match waitpid_nointr [ Unix.WNOHANG ] pid with
    | 0, _ when now () < deadline ->
      Unix.sleepf 0.005;
      go ()
    | 0, _ ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      ignore (wait_exit pid);
      137
    | _, st -> (
      forget pid;
      match st with Unix.WEXITED c -> c | Unix.WSIGNALED s | Unix.WSTOPPED s -> 128 + abs s)
  in
  go ()

let kill_all () =
  List.iter
    (fun pid ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      try ignore (waitpid_nointr [] pid) with Unix.Unix_error _ -> ())
    !children;
  children := []

(* Peak resident set ([VmHWM]) of a process, in MB. *)
let peak_rss_mb pid =
  let path = Printf.sprintf "/proc/%s/status" (if pid = 0 then "self" else string_of_int pid) in
  match In_channel.with_open_text path In_channel.input_lines with
  | exception Sys_error _ -> 0.0
  | lines ->
    List.fold_left
      (fun acc l ->
        match String.split_on_char ':' l with
        | [ "VmHWM"; v ] -> (
          match Scanf.sscanf_opt (String.trim v) "%d kB" (fun k -> k) with
          | Some kb -> float_of_int kb /. 1024.0
          | None -> acc)
        | _ -> acc)
      0.0 lines

(* {1 Seeded inputs} *)

let rng seed tag = Splitmix.create ((seed * 1_000_003) + tag)

(* Interleave the corpus by class, each class in a seeded order, so any
   slice of the sequence (the traced run takes every fourth design) holds
   every class in proportion.  Stride scheduling: the k-th design of a
   class of size n is due at (k + 0.5) / n of the sequence. *)
let interleave_by_class rng (entries : Corpus.entry list) =
  List.concat_map
    (fun k ->
      let a = Array.of_list (List.filter (fun (e : Corpus.entry) -> e.Corpus.klass = k) entries) in
      Splitmix.shuffle rng a;
      let n = float_of_int (Array.length a) in
      Array.to_list (Array.mapi (fun i e -> ((float_of_int i +. 0.5) /. n, e)) a))
    Corpus.all_klasses
  |> List.stable_sort (fun (a, _) (b, _) -> Float.compare a b)
  |> List.map snd

let flow_config = Flows.default_config
let lib = Library.default

(* The corpus grid `hlsc sweep --corpus` uses: 8 "auto" clocks from 0.8x
   to 1.5x of the design's clock, both flows, the manifest II. *)
let auto_clocks (e : Corpus.entry) =
  List.init 8 (fun k -> e.Corpus.clock_ps *. (0.8 +. (0.1 *. float_of_int k)))

let corpus_grid ?(clocks = []) (e : Corpus.entry) =
  let clocks = if clocks = [] then auto_clocks e else clocks in
  let iis = if e.Corpus.ii > 0 then [ Some e.Corpus.ii ] else [ None ] in
  match
    Explore_grid.make ~clocks ~flows:[ Flows.Conventional; Flows.Slack_based ] ~iis ()
  with
  | Ok g -> g
  | Error m -> failwith ("grid: " ^ m)

let build_of (e : Corpus.entry) () = (Corpus.design e).Random_design.dfg

(* A point that completed: a result, feasible or not.  Crashed and
   timed-out points are failures, never throughput. *)
let completed (s : Eval_cache.summary) =
  Eval_cache.ok s || s.Eval_cache.status = Eval_cache.Infeasible

(* The reference evaluation the output checks compare against:
   [Explore.run] of [grid_of x] for every item, in this process, one grid
   per task on a fresh pool of 2 domains.  [grid_of x] is (name, build,
   grid). *)
let explore_each grid_of items =
  let pool = Domain_pool.create ~jobs:2 in
  Fun.protect ~finally:(fun () -> Domain_pool.shutdown pool) @@ fun () ->
  Domain_pool.run ~pool
    (fun x ->
      let name, build, grid = grid_of x in
      Explore.run ~jobs:1 ~lib ~config:flow_config ~name ~build grid)
    items

let full_key ~digest pkey =
  Eval_cache.key ~digest ~lib:(Library.name lib)
    ~config:(Explore.config_fingerprint flow_config) ~point_key:pkey

(* Set-up is repeated this many times per run and reported as a median.
   The machine's speed drifts in phases of a few tenths of a second (the
   corpus verify alone reads 14 or 24 ms depending on the phase), so the
   repeats are spaced 100 ms apart to sample several phases. *)
let setups = 9

let set_up_repeatedly f =
  List.init setups (fun k ->
      if k > 0 then Unix.sleepf 0.1;
      f k)

(* The design population of every workload is the committed corpus
   (corpus/manifest.tsv, master seed 42).  The benchmark's seed draws from
   it — order, requests, clocks — but does not regenerate it: corpora
   planned from other master seeds differ too much in cost (36 to 106
   points/s over five seeds), which would drown any change being measured.

   Set-up shared by every workload: load the manifest, re-plan it from its
   own master seed and check every entry ([Corpus.verify]). *)
let manifest = Filename.concat "corpus" "manifest.tsv"

let plan_corpus r =
  let t, entries =
    time (fun () ->
        (match Corpus.verify ~path:manifest with
        | Ok _ -> ()
        | Error m -> mismatch r "corpus manifest does not verify: %s" m);
        match Corpus.load ~path:manifest with
        | Ok (_, entries) -> entries
        | Error m -> failwith ("corpus manifest: " ^ m))
  in
  (t, entries)

(* A seeded draw that visits every element once per round, in a fresh
   order each round — no element is over- or under-sampled by chance. *)
let rounds g (a : 'a array) =
  let order = Array.copy a and i = ref (Array.length a) in
  fun () ->
    if !i >= Array.length order then begin
      Splitmix.shuffle g order;
      i := 0
    end;
    incr i;
    order.(!i - 1)

(* A pair ratio A_slack / A_conv for every (design, clock) where both flows
   succeeded — the paper's Table 4 comparison, as a ratio so it is never 0. *)
let area_ratios (points : (string * Explore_grid.point * Eval_cache.summary) list) =
  let conv = Hashtbl.create 64 in
  List.iter
    (fun (d, (p : Explore_grid.point), (s : Eval_cache.summary)) ->
      if p.Explore_grid.flow = Flows.Conventional && Eval_cache.ok s && s.Eval_cache.area > 0.0
      then
        Hashtbl.replace conv
          (d, Explore_grid.point_key { p with flow = Flows.Slack_based })
          s.Eval_cache.area)
    points;
  List.filter_map
    (fun (d, (p : Explore_grid.point), (s : Eval_cache.summary)) ->
      if p.Explore_grid.flow = Flows.Slack_based && Eval_cache.ok s then
        Option.map (fun ac -> s.Eval_cache.area /. ac)
          (Hashtbl.find_opt conv (d, Explore_grid.point_key p))
      else None)
    points

(* {1 Daemons}

   hlsc serve processes on private unix sockets in the work directory.
   Set-up time runs from spawn to the first answered health probe. *)

type daemon = { pid : int; sock : string; addr : Client.addr }

let health_json = "{\"op\":\"health\",\"id\":\"perfbench\"}"

let call ?(deadline_s = 60.0) addr payload =
  match Client.one_shot ~deadline_s addr payload with
  | Error m -> Error m
  | Ok body -> (
    match Protocol.response_status body with
    | Ok (status, json) -> Ok (status, json, body)
    | Error m -> Error m)

let start_daemon ~name args =
  let sock = work (name ^ ".sock") in
  let pid = spawn ~stderr_to:(work (name ^ ".log")) ([ "serve"; "--socket"; sock ] @ args) in
  let addr = Client.Unix_path sock in
  let deadline = now () +. 30.0 in
  let rec wait () =
    match waitpid_nointr [ Unix.WNOHANG ] pid with
    | p, _ when p <> 0 ->
      forget pid;
      failwith (Printf.sprintf "daemon %s exited during start (log: %s.log)" name name)
    | _ -> (
      match call ~deadline_s:5.0 addr health_json with
      | Ok ("ok", _, _) -> ()
      | _ when now () < deadline ->
        Unix.sleepf 0.002;
        wait ()
      | _ -> failwith (Printf.sprintf "daemon %s never answered health" name))
  in
  wait ();
  { pid; sock; addr }

let stop_daemon d =
  ignore (call ~deadline_s:10.0 d.addr "{\"op\":\"shutdown\",\"id\":\"perfbench\"}");
  ignore (wait_or_kill d.pid)

let fields json = match Protocol.obj_fields json with Ok f -> f | Error _ -> []

let num = function
  | Obs.Json.Int i -> float_of_int i
  | Obs.Json.Float f -> f
  | _ -> 0.0

let rec path_num json = function
  | [] -> num json
  | k :: tl -> (
    match List.assoc_opt k (fields json) with Some v -> path_num v tl | None -> 0.0)

(* The daemon's own ledger: counters and aggregated spans (populated when
   it runs with --stats) from the telemetry op. *)
let telemetry d =
  match call d.addr "{\"op\":\"telemetry\",\"id\":\"perfbench\"}" with
  | Ok ("ok", json, _) -> (
    match List.assoc_opt "telemetry" (fields json) with
    | Some tj -> (
      match Obs.Telemetry.of_json tj with
      | Ok snap ->
        ( Obs.Telemetry.counters snap,
          List.map
            (fun (row : Obs.Prof.row) ->
              (row.Obs.Prof.path, row.Obs.Prof.calls, row.Obs.Prof.total_ns))
            snap.Obs.Telemetry.prof.Obs.Prof.sections )
      | Error m -> failwith ("telemetry snapshot: " ^ m))
    | None -> failwith "telemetry reply without snapshot")
  | _ -> failwith "telemetry op failed"

let stats d =
  match call d.addr "{\"op\":\"stats\",\"id\":\"perfbench\"}" with
  | Ok ("ok", json, _) -> json
  | _ -> failwith "stats op failed"

(* Set-up, [setups] times: load and verify the corpus, then [start k]
   spawns the workload's daemons and waits for their first health reply.
   Every set-up but the last is torn down at once (untimed); the last
   one's daemons serve the run. *)
let setup_daemons r start =
  let made =
    set_up_repeatedly (fun k ->
        let t, (entries, ds) =
          time (fun () ->
              let _, entries = plan_corpus r in
              (entries, start k))
        in
        if k < setups - 1 then List.iter stop_daemon ds;
        (t, entries, ds))
  in
  let _, entries, ds = List.nth made (setups - 1) in
  (median (List.map (fun (t, _, _) -> t) made), entries, ds)

let health_rtt_ms d =
  median
    (List.init 21 (fun _ -> fst (time (fun () -> ignore (call d.addr health_json))) *. 1000.0))

(* Untraced/traced pass pairs for the traced run: the order flips every
   pair, so warm-up and drift land on both sides.  At least one pair, at
   most four, while [seconds] last.  [pass k traced]. *)
let pass_pairs ~seconds pass =
  let t0 = now () in
  let rec go k acc =
    if k > 0 && (now () -. t0 >= seconds || k >= 4) then List.rev acc
    else
      let pair =
        if k mod 2 = 0 then
          let u = pass k false in
          (u, pass k true)
        else
          let t = pass k true in
          (pass k false, t)
      in
      go (k + 1) (pair :: acc)
  in
  go 0 []
