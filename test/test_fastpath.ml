(* Differential tests for the scheduler's fast paths: each compiled or
   indexed structure is checked against the straightforward reference
   computation it replaces, on random designs.

   - The slack kernel ({!Slack.analyze}, two loops over the compiled
     timed DFG) against the node-by-node list propagation below, bit for
     bit: arrival, required and slack arrays (NaN positions included) and
     the minimum slack, aligned and unaligned, on built graphs and on
     re-weighted {!Timed_dfg.with_edge_weight} copies.
   - The timed DFG's node-level views against an independent reading of
     its definition (paper Definition 2).
   - {!Schedule.conflicts} (per-instance booking index) against the
     placement-scan definition, on random schedules and after
     {!Inject.swap_placements}.
   - The slack flow's per-point re-budget memo, which has no switch: the
     flow with events off (no recording, no replay) against the flow with
     events on (hits replay what their miss recorded), and two events-on
     runs against each other. *)

(* ------------------------------------------------------------------ *)
(* Reference slack: the list-based propagation over the node-level graph
   (one forward and one backward fold per node, sinks as explicit nodes). *)

module Slack_ref = struct
  let analyze ?(aligned = false) tdfg ~clock ~del =
    let dfg = Timed_dfg.dfg tdfg in
    let n = Dfg.op_count dfg in
    let arr = Array.make n nan and req = Array.make n nan in
    let sink_arr = Array.make n nan and sink_req = Array.make n nan in
    let get_arr = function
      | Timed_dfg.Op o -> arr.(Dfg.Op_id.to_int o)
      | Timed_dfg.Sink o -> sink_arr.(Dfg.Op_id.to_int o)
    in
    let get_req = function
      | Timed_dfg.Op o -> req.(Dfg.Op_id.to_int o)
      | Timed_dfg.Sink o -> sink_req.(Dfg.Op_id.to_int o)
    in
    let node_del = function Timed_dfg.Op o -> del o | Timed_dfg.Sink _ -> 0.0 in
    let order = Timed_dfg.topo tdfg in
    List.iter
      (fun node ->
        let preds = Timed_dfg.preds tdfg node in
        let raw =
          List.fold_left
            (fun acc (p, lat) ->
              let a = get_arr p +. node_del p -. (clock *. float_of_int lat) in
              Float.max acc a)
            neg_infinity preds
        in
        let a0 = if preds = [] then 0.0 else raw in
        let a =
          if aligned then Slack.align_start ~clock ~delay:(node_del node) a0 else a0
        in
        match node with
        | Timed_dfg.Op o -> arr.(Dfg.Op_id.to_int o) <- a
        | Timed_dfg.Sink o -> sink_arr.(Dfg.Op_id.to_int o) <- a)
      order;
    List.iter
      (fun node ->
        let succs = Timed_dfg.succs tdfg node in
        let d = node_del node in
        let raw =
          List.fold_left
            (fun acc (s, lat) ->
              let r = get_req s -. d +. (clock *. float_of_int lat) in
              Float.min acc r)
            infinity succs
        in
        let r0 = if succs = [] then clock else raw in
        let r = if aligned then Slack.align_finish_constraint ~clock ~delay:d r0 else r0 in
        match node with
        | Timed_dfg.Op o -> req.(Dfg.Op_id.to_int o) <- r
        | Timed_dfg.Sink o -> sink_req.(Dfg.Op_id.to_int o) <- r)
      (List.rev order);
    let slack = Array.make n nan in
    let min_slack = ref infinity in
    List.iter
      (fun o ->
        let i = Dfg.Op_id.to_int o in
        slack.(i) <- req.(i) -. arr.(i);
        if slack.(i) < !min_slack then min_slack := slack.(i))
      (Timed_dfg.active_ops tdfg);
    { Slack.arr; req; slack; min_slack = !min_slack }
end

(* ------------------------------------------------------------------ *)
(* Random inputs. *)

let profiles =
  [|
    Corpus.profile_of_klass Corpus.Tiny;
    Corpus.profile_of_klass Corpus.Medium;
    Corpus.profile_of_klass Corpus.Mulheavy;
  |]

let random_design rng =
  let profile = Splitmix.choose rng profiles in
  let shape = Splitmix.choose rng (Array.of_list Random_design.all_shapes) in
  Random_design.generate ~profile ~shape ~seed:(Splitmix.int rng 1_000_000) ()

(* A delay table over all ops: mostly in-cycle delays, some over a whole
   clock, an occasional NaN so propagation of invalid input is compared
   too.  [del] is a pure lookup, as the kernel's callers guarantee. *)
let random_delays rng n ~clock =
  Array.init n (fun _ ->
      match Splitmix.int rng 40 with
      | 0 -> nan
      | 1 | 2 -> clock *. (1.0 +. Splitmix.float rng 1.0)
      | _ -> Splitmix.float rng clock)

let same_float a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)
let same_array a b = Array.length a = Array.length b && Array.for_all2 same_float a b

let same_result (a : Slack.result) (b : Slack.result) =
  same_array a.Slack.arr b.Slack.arr
  && same_array a.Slack.req b.Slack.req
  && same_array a.Slack.slack b.Slack.slack
  && same_float a.Slack.min_slack b.Slack.min_slack

(* All node-level edges of the graph, as (src, dst) pairs. *)
let all_edges tdfg =
  List.concat_map
    (fun node -> List.map (fun (s, _) -> (node, s)) (Timed_dfg.succs tdfg node))
    (Timed_dfg.topo tdfg)

(* ------------------------------------------------------------------ *)
(* Properties. *)

let prop_kernel_matches_reference =
  QCheck.Test.make ~name:"slack kernel == list reference, bitwise" ~count:150
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let rng = Splitmix.create seed in
      let d = random_design rng in
      let dfg = d.Random_design.dfg in
      let tdfg = Timed_dfg.build dfg ~spans:(Dfg.compute_spans dfg) in
      let clock = 400.0 +. Splitmix.float rng 3000.0 in
      let delays = random_delays rng (Dfg.op_count dfg) ~clock in
      let del o = delays.(Dfg.Op_id.to_int o) in
      let agree g =
        List.for_all
          (fun aligned ->
            same_result (Slack.analyze ~aligned g ~clock ~del)
              (Slack_ref.analyze ~aligned g ~clock ~del))
          [ false; true ]
      in
      let before = Slack.analyze ~aligned:true tdfg ~clock ~del in
      (* A re-weighted copy (negative weights included); the original must
         be left untouched. *)
      let reweighted =
        match all_edges tdfg with
        | [] -> true
        | edges ->
          let src, dst = Splitmix.choose rng (Array.of_list edges) in
          let weight = Splitmix.int rng 6 - 2 in
          let g = Timed_dfg.with_edge_weight tdfg ~src ~dst ~weight in
          agree g
          && List.exists
               (fun (s, w) -> Timed_dfg.node_equal s dst && w = weight)
               (Timed_dfg.succs g src)
          && List.exists
               (fun (p, w) -> Timed_dfg.node_equal p src && w = weight)
               (Timed_dfg.preds g dst)
      in
      agree tdfg && reweighted
      && same_result before (Slack.analyze ~aligned:true tdfg ~clock ~del))

(* Definition 2, read directly: an active op's successors are its active
   forward DFG successors, weighted by the latency between the early edges
   (in dependency order), then its sink, weighted by the latency across its
   own span; predecessors mirror successors. *)
let prop_graph_matches_definition =
  QCheck.Test.make ~name:"timed DFG views == Definition 2" ~count:100
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let rng = Splitmix.create seed in
      let d = random_design rng in
      let dfg = d.Random_design.dfg in
      let cfg = Dfg.cfg dfg in
      let spans = Dfg.compute_spans dfg in
      let tdfg = Timed_dfg.build dfg ~spans in
      let span o = spans.(Dfg.Op_id.to_int o) in
      let expected_succs o =
        if not (Timed_dfg.active tdfg o) then []
        else
          List.filter_map
            (fun s ->
              if Timed_dfg.active tdfg s then
                Option.map
                  (fun w -> (Timed_dfg.Op s, w))
                  (Cfg.latency cfg (span o).Dfg.early (span s).Dfg.early)
              else None)
            (Dfg.succs dfg o)
          @ [ (Timed_dfg.Sink o, Option.get (Cfg.latency cfg (span o).Dfg.early (span o).Dfg.late)) ]
      in
      let expected_preds o =
        if not (Timed_dfg.active tdfg o) then []
        else
          List.concat_map
            (fun p ->
              List.filter_map
                (fun (s, w) ->
                  if Timed_dfg.node_equal s (Timed_dfg.Op o) then Some (Timed_dfg.Op p, w)
                  else None)
                (expected_succs p))
            (Dfg.ops dfg)
      in
      let same l1 l2 =
        List.length l1 = List.length l2
        && List.for_all2 (fun (a, w) (b, v) -> Timed_dfg.node_equal a b && w = v) l1 l2
      in
      List.for_all
        (fun o ->
          same (Timed_dfg.succs tdfg (Timed_dfg.Op o)) (expected_succs o)
          && same (Timed_dfg.preds tdfg (Timed_dfg.Op o)) (expected_preds o)
          && Timed_dfg.degree tdfg o
             = List.length (expected_succs o) + List.length (expected_preds o)
          && (Timed_dfg.succs tdfg (Timed_dfg.Sink o) = [])
          && same
               (Timed_dfg.preds tdfg (Timed_dfg.Sink o))
               (List.filter
                  (fun (s, _) -> Timed_dfg.node_equal s (Timed_dfg.Sink o))
                  (expected_succs o)
               |> List.map (fun (_, w) -> (Timed_dfg.Op o, w))))
        (Dfg.ops dfg)
      && Timed_dfg.edge_count tdfg
         = List.fold_left (fun acc o -> acc + List.length (expected_succs o)) 0 (Dfg.ops dfg)
      && List.length (Timed_dfg.topo tdfg) = 2 * List.length (Timed_dfg.active_ops tdfg))

(* The conflict rule, by a scan over every placement bound to the
   instance. *)
let conflicts_by_scan (s : Schedule.t) inst ~edge =
  let cfg = Dfg.cfg s.Schedule.dfg in
  let step = Cfg.state_of_edge cfg edge in
  List.exists
    (fun o ->
      match Schedule.placement s o with
      | Some p ->
        if p.Schedule.step = step then
          Cfg.Edge_id.equal p.Schedule.edge edge
          || Cfg.reaches cfg p.Schedule.edge edge
          || Cfg.reaches cfg edge p.Schedule.edge
        else (
          match s.Schedule.ii with
          | Some k -> p.Schedule.step mod k = step mod k
          | None -> false)
      | None -> false)
    (Schedule.ops_of_inst s inst)

let prop_conflict_index_matches_scan =
  QCheck.Test.make ~name:"conflict index == placement scan" ~count:100
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let rng = Splitmix.create seed in
      let d = random_design rng in
      let dfg = d.Random_design.dfg in
      let edges = Array.of_list (Cfg.forward_edges_topo (Dfg.cfg dfg)) in
      let alloc = Alloc.create Library.default in
      let add_inst () =
        ignore
          (Alloc.add_instance alloc ~rk:Resource_kind.Adder ~width:16 ~delay:0.0)
      in
      for _ = 1 to 1 + Splitmix.int rng 4 do
        add_inst ()
      done;
      let ii = if Splitmix.bool rng then Some (1 + Splitmix.int rng 3) else None in
      let sched = Schedule.create ?ii dfg ~clock:2000.0 ~alloc in
      (* Instances added after the schedule exists must be indexed too. *)
      for _ = 1 to Splitmix.int rng 3 do
        add_inst ()
      done;
      let insts = Array.of_list (Alloc.instances alloc) in
      List.iter
        (fun o ->
          if (not (Schedule.is_placed sched o)) && Splitmix.int rng 4 > 0 then
            Schedule.place sched o ~edge:(Splitmix.choose rng edges) ~start:0.0
              ~eff_delay:0.0
              ~inst:
                (if Splitmix.int rng 5 = 0 then None
                 else Some (Splitmix.choose rng insts).Alloc.id))
        (Dfg.ops dfg);
      let agree s =
        Array.for_all
          (fun i ->
            Array.for_all
              (fun edge ->
                Schedule.conflicts s i.Alloc.id ~edge = conflicts_by_scan s i.Alloc.id ~edge)
              edges)
          insts
      in
      agree sched
      && match Inject.swap_placements sched with Some s' -> agree s' | None -> true)

(* ------------------------------------------------------------------ *)
(* Re-budget memo: schedules must not depend on the event mode, and the
   replayed event stream must be reproducible. *)

let outcome_digest = function
  | Error e -> "error " ^ Flows.error_message e
  | Ok r ->
    let rep = r.Hls.report in
    let b = Buffer.create 1024 in
    Printf.bprintf b "%h %d %d\n" (Hls.total_area r) rep.Flows.relaxations
      (List.length rep.Flows.recovery_log);
    Array.iteri
      (fun i p ->
        match p with
        | None -> Printf.bprintf b "%d -\n" i
        | Some p ->
          Printf.bprintf b "%d %d %h %h %s\n" i (Cfg.Edge_id.to_int p.Schedule.edge)
            p.Schedule.start p.Schedule.eff_delay
            (match p.Schedule.inst with
            | Some id -> string_of_int (Alloc.Inst_id.to_int id)
            | None -> "-"))
      rep.Flows.schedule.Schedule.placements;
    List.iter
      (fun i -> Printf.bprintf b "fu%d %h\n" (Alloc.Inst_id.to_int i.Alloc.id) i.Alloc.point.Curve.delay)
      (Alloc.instances rep.Flows.schedule.Schedule.alloc);
    Digest.to_hex (Digest.string (Buffer.contents b))

let memo_hits () =
  Option.value ~default:0
    (List.assoc_opt "sched.rebudget.memo_hits" (Obs.counters_snapshot ()))

(* One slack-flow run of a freshly generated design; with [events] the
   deterministic event stream as JSONL lines, else []. *)
let run_slack ~events (seed, shape, scale, ii) =
  let d = Random_design.generate ~shape ~seed () in
  let design =
    Hls.design ?ii ~name:d.Random_design.name
      ~clock:(d.Random_design.suggested_clock *. scale)
      d.Random_design.dfg
  in
  if events then Obs.Events.enable ~capacity:(1 lsl 20) () else Obs.Events.disable ();
  Fun.protect ~finally:Obs.Events.disable @@ fun () ->
  let mark = Obs.Events.mark () in
  let r = Hls.run Flows.Slack_based design in
  let evs =
    if events then
      List.map Obs.Events.to_jsonl_line
        (Obs.Events.renumber
           (List.filter Obs.Events.deterministic (Obs.Events.since ~mark)))
    else []
  in
  (outcome_digest r, evs)

let prop_memo_event_modes_agree =
  QCheck.Test.make ~name:"slack flow: events on == events off; replay reproducible"
    ~count:40
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let rng = Splitmix.create seed in
      let point =
        ( Splitmix.int rng 1_000_000,
          Splitmix.choose rng (Array.of_list Random_design.all_shapes),
          Splitmix.choose rng [| 0.7; 0.85; 1.0 |],
          if Splitmix.int rng 3 = 0 then Some (1 + Splitmix.int rng 3) else None )
      in
      let off, _ = run_slack ~events:false point in
      let on1, evs1 = run_slack ~events:true point in
      let on2, evs2 = run_slack ~events:true point in
      String.equal off on1 && String.equal on1 on2 && evs1 = evs2)

(* The property above only compares modes; this fixed point shows the
   events-on path really goes through the memo.  c040-line-mulheavy at the
   fourth auto clock relaxes 21 times and recovers on the retry ladder, so
   later attempts repeat earlier prefixes. *)
let test_memo_hits_with_events () =
  let e =
    List.find
      (fun (e : Corpus.entry) -> e.Corpus.name = "c040-line-mulheavy")
      (Corpus.plan ~seed:42 ())
  in
  let ii = if e.Corpus.ii > 0 then Some e.Corpus.ii else None in
  let design =
    Hls.design ?ii ~name:e.Corpus.name ~clock:(e.Corpus.clock_ps *. 1.1)
      (Corpus.design e).Random_design.dfg
  in
  Obs.Events.enable ~capacity:(1 lsl 20) ();
  Fun.protect ~finally:Obs.Events.disable @@ fun () ->
  let hits0 = memo_hits () in
  (match Hls.run Flows.Slack_based design with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "c040 point failed: %s" (Flows.error_message e));
  Alcotest.(check bool) "events-on run hits the re-budget memo" true
    (memo_hits () - hits0 > 0)

let () =
  Alcotest.run "fastpath"
    [
      ( "fastpath",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_kernel_matches_reference;
            prop_graph_matches_definition;
            prop_conflict_index_matches_scan;
            prop_memo_event_modes_agree;
          ]
        @ [ Alcotest.test_case "re-budget memo exercised" `Quick test_memo_hits_with_events ] );
    ]
