(* Golden per-point oracle for the scheduling pipeline.

   Every point of a fixed, seeded set — the four paper kernels under all
   three flows, a sample of each corpus class over its auto clock grid, a
   pipelined (ii > 0) design, a known-infeasible point and hand-picked
   points that recover on the retry ladder or relax many times — is run through
   [Hls.run] and summarised as one TSV row: status, total area ([%h],
   bit-exact), control steps, relaxations, area-recovery regrades, an MD5
   of every placement (edge, step, start, effective delay, instance) and
   instance grade, and an MD5 of the deterministic event stream.  The
   committed table [golden/sched_points.tsv] must be reproduced byte for
   byte: any change to which schedule, allocation or diagnosis the
   pipeline finds shows up as a diff here.

   Regenerate (only when an output change is intended) with
     dune exec test/test_golden.exe -- --regen test/golden/sched_points.tsv *)

let lib = Library.default
let golden_path = Filename.concat "golden" "sched_points.tsv"

type point = {
  label : string;
  design : Hls.design;
  flow : Flows.flow;
}

let flow_tag = function
  | Flows.Conventional -> "conv"
  | Flows.Slowest_first -> "slowest"
  | Flows.Slack_based -> "slack"

let all_flows = [ Flows.Conventional; Flows.Slowest_first; Flows.Slack_based ]

let kernel_points () =
  let kernels =
    [
      ("interpolation", (fun () -> (Interpolation.unrolled ()).Interpolation.dfg),
       Interpolation.clock);
      ("resizer", (fun () -> (Resizer.full ()).Resizer.dfg), 4000.0);
      ("idct", (fun () -> (Idct.build ~latency:12 ~passes:1 ()).Idct.dfg), 2500.0);
      ("fir8", (fun () -> (Fir.build ~taps:8 ~latency:6 ()).Fir.dfg), 2500.0);
    ]
  in
  List.concat_map
    (fun (name, build, clock) ->
      List.concat_map
        (fun scale ->
          let clock = clock *. scale in
          List.map
            (fun flow -> { label = name; design = Hls.design ~name ~clock (build ()); flow })
            all_flows)
        [ 0.8; 1.0; 1.3 ])
    kernels
  @ (* Infeasible: the whole recovery ladder fails. *)
  List.map
    (fun flow ->
      {
        label = "interpolation";
        design =
          Hls.design ~name:"interpolation" ~clock:600.0
            (Interpolation.unrolled ()).Interpolation.dfg;
        flow;
      })
    [ Flows.Conventional; Flows.Slack_based ]

(* A seeded sample of the committed corpus (master seed 42): [per_class]
   designs of each class, plus the first pipelined entry, each over the
   8-clock auto grid of [hlsc sweep --corpus] under both paper flows. *)
let corpus_points () =
  let entries = Corpus.plan ~seed:42 () in
  let rng = Splitmix.create 2012 in
  let pick k n =
    let a =
      Array.of_list (List.filter (fun (e : Corpus.entry) -> e.Corpus.klass = k) entries)
    in
    Splitmix.shuffle rng a;
    Array.to_list (Array.sub a 0 (min n (Array.length a)))
  in
  let per_class =
    [ (Corpus.Tiny, 3); (Corpus.Medium, 2); (Corpus.Large, 1); (Corpus.Mulheavy, 2) ]
  in
  let sample = List.concat_map (fun (k, n) -> pick k n) per_class in
  let pipelined =
    match List.find_opt (fun (e : Corpus.entry) -> e.Corpus.ii > 0) entries with
    | Some e when not (List.memq e sample) -> [ e ]
    | Some _ | None -> []
  in
  List.concat_map
    (fun (e : Corpus.entry) ->
      let ii = if e.Corpus.ii > 0 then Some e.Corpus.ii else None in
      List.concat_map
        (fun k ->
          let clock = e.Corpus.clock_ps *. (0.8 +. (0.1 *. float_of_int k)) in
          List.map
            (fun flow ->
              {
                label = e.Corpus.name;
                design =
                  Hls.design ?ii ~name:e.Corpus.name ~clock
                    (Corpus.design e).Random_design.dfg;
                flow;
              })
            [ Flows.Conventional; Flows.Slack_based ])
        (List.init 8 Fun.id))
    (sample @ pipelined)

(* Hand-picked corpus points on top of the sample: the only two points of
   the 1600-point corpus grid whose recovery ladder ends [ok] (each
   recovers on its second rung), and slack-flow points from further
   designs that need many relaxation attempts, where later attempts
   repeat the placements of earlier ones.  [k] indexes the auto clock grid
   as in [corpus_points]. *)
let ladder_points () =
  let entries = Corpus.plan ~seed:42 () in
  let picks =
    [
      ("c040-line-mulheavy", 3); ("c081-diamond-mulheavy", 0);
      ("c044-line-mulheavy", 0); ("c019-nest-mulheavy", 0);
      ("c053-diamond-mulheavy", 0); ("c061-diamond-medium", 0);
      ("c060-line-medium", 0); ("c038-loop-medium", 0); ("c025-diamond-tiny", 0);
      ("c099-nest-mulheavy", 1); ("c048-line-mulheavy", 1); ("c051-nest-medium", 5);
      ("c031-nest-medium", 6); ("c035-nest-medium", 0); ("c017-diamond-mulheavy", 1);
    ]
  in
  List.map
    (fun (name, k) ->
      let e = List.find (fun (e : Corpus.entry) -> e.Corpus.name = name) entries in
      let ii = if e.Corpus.ii > 0 then Some e.Corpus.ii else None in
      let clock = e.Corpus.clock_ps *. (0.8 +. (0.1 *. float_of_int k)) in
      {
        label = name;
        design = Hls.design ?ii ~name ~clock (Corpus.design e).Random_design.dfg;
        flow = Flows.Slack_based;
      })
    picks

let placement_digest sched =
  let b = Buffer.create 4096 in
  Array.iteri
    (fun i p ->
      match p with
      | None -> Printf.bprintf b "%d -\n" i
      | Some p ->
        Printf.bprintf b "%d %d %d %h %h %s\n" i
          (Cfg.Edge_id.to_int p.Schedule.edge)
          p.Schedule.step p.Schedule.start p.Schedule.eff_delay
          (match p.Schedule.inst with
          | Some id -> string_of_int (Alloc.Inst_id.to_int id)
          | None -> "-"))
    sched.Schedule.placements;
  List.iter
    (fun i ->
      Printf.bprintf b "fu%d %s w%d %h %h\n" (Alloc.Inst_id.to_int i.Alloc.id)
        (Resource_kind.name i.Alloc.rk) i.Alloc.width i.Alloc.point.Curve.delay
        i.Alloc.point.Curve.area)
    (Alloc.instances sched.Schedule.alloc);
  Digest.to_hex (Digest.string (Buffer.contents b))

let blame_string = function
  | Some (rk, w) -> Printf.sprintf "%s/w%d" (Resource_kind.name rk) w
  | None -> "-"

let reason_string = function
  | Sched_core.No_resource { op; rk; width } ->
    Printf.sprintf "no-resource op%d %s/w%d" (Dfg.Op_id.to_int op) (Resource_kind.name rk)
      width
  | Sched_core.Too_slow { op; window; blame } ->
    Printf.sprintf "too-slow op%d %h %s" (Dfg.Op_id.to_int op) window (blame_string blame)
  | Sched_core.No_time { op; blame } ->
    Printf.sprintf "no-time op%d %s" (Dfg.Op_id.to_int op) (blame_string blame)
  | Sched_core.Retime_failed m -> "retime-failed " ^ m

let events_digest evs =
  let b = Buffer.create 4096 in
  List.iter
    (fun ev ->
      if Obs.Events.deterministic ev then begin
        Buffer.add_string b (Obs.Events.to_jsonl_line ev);
        Buffer.add_char b '\n'
      end)
    (Obs.Events.renumber evs);
  Digest.to_hex (Digest.string (Buffer.contents b))

let row p =
  Obs.Events.clear ();
  let mark = Obs.Events.mark () in
  let result = Hls.run ~lib p.flow p.design in
  let evs = events_digest (Obs.Events.since ~mark) in
  let head =
    Printf.sprintf "%s\t%s\t%h\t%s" p.label (flow_tag p.flow) p.design.Hls.clock
      (match p.design.Hls.ii with Some k -> string_of_int k | None -> "-")
  in
  match result with
  | Ok r ->
    let rep = r.Hls.report in
    Printf.sprintf "%s\tok\t%h\t%d\t%d\t%d\t%d\t%s\t%s" head (Hls.total_area r)
      (Schedule.steps_used rep.Flows.schedule)
      rep.Flows.relaxations rep.Flows.regrades
      (List.length rep.Flows.recovery_log)
      (placement_digest rep.Flows.schedule)
      evs
  | Error e ->
    let status, detail =
      match e with
      | Flows.Invalid m -> ("invalid", m)
      | Flows.Validation_failed _ -> ("validation-failed", Flows.error_message e)
      | Flows.Sched_failed { failure; _ } ->
        ("sched-failed", reason_string failure.Sched_core.reason ^ "\n" ^ Flows.error_message e)
      | Flows.Timed_out _ -> ("timed-out", Flows.error_message e)
    in
    Printf.sprintf "%s\t%s\t-\t-\t-\t-\t-\t%s\t%s" head status
      (Digest.to_hex (Digest.string detail))
      evs

let header =
  "# design\tflow\tclock\tii\tstatus\tarea\tsteps\trelaxations\tregrades\trecoveries\t\
   digest\tevents"

let table () =
  Obs.Events.enable ~capacity:(1 lsl 20) ();
  Fun.protect ~finally:Obs.Events.disable @@ fun () ->
  let rows = List.map row (kernel_points () @ corpus_points () @ ladder_points ()) in
  String.concat "\n" (header :: rows) ^ "\n"

let read_file path = In_channel.with_open_bin path In_channel.input_all

let test_golden () =
  let expected = read_file golden_path in
  let actual = table () in
  if actual <> expected then begin
    let el = String.split_on_char '\n' expected and al = String.split_on_char '\n' actual in
    let rec first_diff i = function
      | e :: es, a :: as_ -> if e = a then first_diff (i + 1) (es, as_) else Some (i, e, a)
      | e :: _, [] -> Some (i, e, "<missing>")
      | [], a :: _ -> Some (i, "<missing>", a)
      | [], [] -> None
    in
    match first_diff 1 (el, al) with
    | Some (line, e, a) ->
      Alcotest.failf "golden mismatch at line %d:\n expected %s\n actual   %s" line e a
    | None -> Alcotest.fail "golden mismatch"
  end

let () =
  match Array.to_list Sys.argv with
  | [ _; "--regen"; path ] ->
    Out_channel.with_open_bin path (fun oc -> output_string oc (table ()))
  | _ ->
    Alcotest.run "golden"
      [
        ( "golden",
          [ Alcotest.test_case "scheduling points match the committed table" `Quick test_golden ] );
      ]
