(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (see DESIGN.md for the experiment index), then runs the
   ablation sweeps.  `dune exec bench/main.exe` prints everything;
   `dune exec bench/main.exe -- --quick` skips the slow sections;
   `--json FILE` additionally dumps the per-section span profile (wall
   clock and GC words) and the full telemetry counter snapshot as JSON.

   Regression gate: `--baseline FILE` diffs the current snapshot against a
   committed one (BENCH_BASELINE.json).  The gate is exact and has no
   knobs; it judges only what is deterministic on one compiler version:
   - counters are event counts, so any delta on a counter the baseline
     knows is a regression, and so is a missing one;
   - every baseline section must still be present;
   - minor words per section may grow by at most [alloc_threshold_pct]
     (sections under [alloc_floor_words] are exempt);
   - major words are gated only as the snapshot total, since a section's
     major words are whatever the next minor GC promoted while it was open.
   Wall clock is not gated here: perfbench/ (paired trials, bounds in
   BENCHMARK.json) is the wall-time judge.  `--diff FILE` skips benching
   and diffs an existing snapshot file instead — the fast path for build
   rules.  Exit codes: 0 clean, 1 regression, 2 usage (including a
   quick/full mode mismatch). *)

type opts = {
  quick : bool;
  json : string option;
  baseline : string option;
  diff : string option;
}

let usage () =
  prerr_endline "usage: bench [--quick] [--json FILE] [--baseline FILE] [--diff FILE]";
  exit 2

let parse_opts () =
  let o = ref { quick = false; json = None; baseline = None; diff = None } in
  let rec go = function
    | [] -> ()
    | "--quick" :: rest ->
      o := { !o with quick = true };
      go rest
    | "--json" :: path :: rest ->
      o := { !o with json = Some path };
      go rest
    | "--baseline" :: path :: rest ->
      o := { !o with baseline = Some path };
      go rest
    | "--diff" :: path :: rest ->
      o := { !o with diff = Some path };
      go rest
    | [ ("--json" | "--baseline" | "--diff") as flag ] ->
      Printf.eprintf "bench: %s requires an argument\n" flag;
      exit 2
    | arg :: _ ->
      Printf.eprintf "bench: unknown argument %s\n" arg;
      usage ()
  in
  go (List.tl (Array.to_list Sys.argv));
  !o

(* ------------------------------------------------------------------ *)
(* Snapshots: the profile document written by --json and diffed by the
   baseline gate now lives in Obs.Prof (shared with any other harness);
   it carries per-section GC/alloc telemetry alongside wall clock. *)

let load_snapshot ~path =
  match
    let ic = open_in path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  with
  | exception Sys_error m ->
    Printf.eprintf "bench: %s\n" m;
    exit 2
  | text -> (
    match Obs.Json.parse text with
    | Error m ->
      Printf.eprintf "bench: %s: %s\n" path m;
      exit 2
    | Ok doc -> (
      match Obs.Prof.snapshot_of_json doc with
      | Error m ->
        Printf.eprintf "bench: %s: %s\n" path m;
        exit 2
      | Ok s -> s))

let write_json ~path doc =
  let oc = open_out path in
  output_string oc (Obs.Json.to_string doc);
  output_char oc '\n';
  close_out oc;
  Printf.printf "wrote %s\n" path

(* The one allocation tolerance.  Word counts are deterministic for one
   compiler version and runtime configuration: re-runs of an unchanged
   tree match to the word in all but a few sections, and the major-word
   total moves by under 2%. *)
let alloc_threshold_pct = 10.0

(* Sections below this many baseline words are exempt from the alloc gate:
   at tiny volumes a single extra boxed value is a huge percentage. *)
let alloc_floor_words = 1024.0

(* Rows are inclusive of their children, so the root rows sum to every
   word charged to any span. *)
let total_major_words (s : Obs.Prof.snapshot) =
  List.fold_left
    (fun acc (r : Obs.Prof.row) ->
      if String.contains r.Obs.Prof.path '/' then acc else acc +. r.Obs.Prof.major_words)
    0.0 s.Obs.Prof.sections

let diff_snapshots ~(baseline : Obs.Prof.snapshot) ~(current : Obs.Prof.snapshot) =
  if not (String.equal baseline.Obs.Prof.mode current.Obs.Prof.mode) then begin
    Printf.eprintf
      "bench: baseline mode %S does not match current mode %S (regenerate the \
       baseline with the same --quick setting)\n"
      baseline.Obs.Prof.mode current.Obs.Prof.mode;
    exit 2
  end;
  let regressions = ref 0 in
  let regress fmt =
    incr regressions;
    Printf.printf ("REGRESSION " ^^ fmt ^^ "\n")
  in
  List.iter
    (fun (name, bv) ->
      match List.assoc_opt name current.Obs.Prof.counters with
      | Some cv when cv = bv -> ()
      | Some cv -> regress "counter %s: baseline %d, current %d (%+d)" name bv cv (cv - bv)
      | None -> regress "counter %s: baseline %d, missing from current" name bv)
    baseline.Obs.Prof.counters;
  List.iter
    (fun (name, cv) ->
      if List.assoc_opt name baseline.Obs.Prof.counters = None then
        Printf.printf "note: new counter %s = %d (not in baseline)\n" name cv)
    current.Obs.Prof.counters;
  (* Only increases regress: less allocation is an improvement, and the
     next baseline refresh absorbs it. *)
  let check_alloc what bw cw =
    if bw >= alloc_floor_words && cw > bw then begin
      let pct = (cw -. bw) /. bw *. 100.0 in
      if pct > alloc_threshold_pct then
        regress "alloc %s: %.0f -> %.0f words (+%.1f%%, threshold %.0f%%)" what bw cw
          pct alloc_threshold_pct
    end
  in
  let current_row path =
    List.find_opt (fun (r : Obs.Prof.row) -> String.equal r.Obs.Prof.path path)
      current.Obs.Prof.sections
  in
  List.iter
    (fun (b : Obs.Prof.row) ->
      match current_row b.Obs.Prof.path with
      | None -> regress "section %s: in baseline, missing from current" b.Obs.Prof.path
      | Some c ->
        check_alloc (b.Obs.Prof.path ^ " (minor)") b.Obs.Prof.minor_words
          c.Obs.Prof.minor_words)
    baseline.Obs.Prof.sections;
  check_alloc "total (major)" (total_major_words baseline) (total_major_words current);
  if !regressions = 0 then begin
    Printf.printf "baseline check: OK (%d counters, %d sections, alloc threshold %.0f%%)\n"
      (List.length baseline.Obs.Prof.counters)
      (List.length baseline.Obs.Prof.sections)
      alloc_threshold_pct;
    0
  end
  else begin
    Printf.printf "baseline check: %d regression%s\n" !regressions
      (if !regressions = 1 then "" else "s");
    1
  end

let () =
  let opts = parse_opts () in
  match opts.diff with
  | Some path ->
    (* Diff-only mode: no benching, compare two snapshot files. *)
    let baseline =
      match opts.baseline with
      | Some b -> load_snapshot ~path:b
      | None ->
        prerr_endline "bench: --diff requires --baseline FILE";
        exit 2
    in
    let current = load_snapshot ~path in
    exit (diff_snapshots ~baseline ~current)
  | None ->
    let quick = opts.quick in
    if opts.json <> None || opts.baseline <> None then begin
      Obs.enable_stats ();
      Obs.Prof.enable ()
    end;
    let sec name f = Obs.span ("bench." ^ name) f in
    print_endline "slackhls benchmark harness";
    print_endline "reproducing: Kondratyev et al., 'Exploiting area/delay tradeoffs";
    print_endline "in high-level synthesis', DATE 2012";
    sec "table1" Tables.table1;
    sec "table2" Tables.table2;
    sec "table3" Tables.table3;
    sec "table4" Tables.table4;
    sec "customer" (Tables.customer ~count:(if quick then 20 else 100));
    sec "explore" (Explore_bench.run ~quick);
    sec "corpus" (Corpus_bench.run ~quick);
    sec "attribution" Attribution.run;
    sec "fleet" Fleet_bench.run;
    if not quick then sec "table5" Tables.table5
    else print_endline "\n(table 5 timing skipped in --quick mode)";
    if not quick then sec "ablations" Ablations.run
    else print_endline "(ablations skipped in --quick mode)";
    print_newline ();
    let current = Obs.Prof.snapshot ~mode:(if quick then "quick" else "full") in
    let doc = Obs.Prof.snapshot_to_json ~harness:"slackhls-bench" current in
    (match opts.json with Some path -> write_json ~path doc | None -> ());
    let code =
      match opts.baseline with
      | None -> 0
      | Some bpath -> diff_snapshots ~baseline:(load_snapshot ~path:bpath) ~current
    in
    print_endline "done.";
    exit code
