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
   - {!Sched_core.run} (array-based, allocation-lean edge loop) against
     the list-based reference loop, for all three flows' pass inputs,
     pipelined and not, on random designs and on kernels with loop-carried
     recurrences, at clocks from infeasible to easy: bitwise
     placements, failure reason and message, final grades, sched.* and
     bind.* counter deltas and event streams.
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
(* Reference scheduler: the straightforward list-based form of
   {!Sched_core.run}'s edge loop — candidate lists filtered and re-sorted
   per sweep, an instance list filtered, stably sorted and filtered again
   per attempt.  The array-based loop must reproduce it exactly:
   placements, failures, counters and events. *)

module Sched_ref = struct
  open Sched_core

  exception Fail of failure

  let eps = 1e-6

  (* Why a placement attempt was deferred.  Most deferrals are transient
     (the op is retried on a later edge of its span), so the blame walk that
     a failure report needs is only done when a deferral on the last span
     edge turns into a failure ([reason_of] in [run]). *)
  type defer =
    | Busy of Resource_kind.t * int  (** every compatible instance is booked *)
    | Slow of float  (** no instance fits this window *)
    | Starved  (** the ready time leaves no window *)

  type attempt = Placed | Defer of defer

  (* The same named counters as the scheduler's ({!Obs.counter} returns
     the registered handle), so counter deltas compare directly. *)
  let c_runs = Obs.counter "sched.runs"
  let c_edges = Obs.counter "sched.edges"
  let c_sweeps = Obs.counter "sched.ready_sweeps"
  let c_ready = Obs.counter "sched.ready_ops"
  let c_placements = Obs.counter "sched.placements"
  let c_defer_res = Obs.counter "sched.defer.no_resource"
  let c_defer_slow = Obs.counter "sched.defer.too_slow"
  let c_defer_time = Obs.counter "sched.defer.no_time"
  let c_upgrades = Obs.counter "sched.upgrades_on_miss"
  let c_respans = Obs.counter "sched.respans"
  let c_failures = Obs.counter "sched.failures"
  let c_retime_repairs = Obs.counter "sched.retime_repairs"

  let count_defer = function
    | Busy _ -> Obs.incr c_defer_res
    | Slow _ -> Obs.incr c_defer_slow
    | Starved -> Obs.incr c_defer_time

  let run dfg ~alloc params =
    Obs.incr c_runs;
    let cfg = Dfg.cfg dfg in
    let sched = Schedule.create ?ii:params.ii dfg ~clock:params.clock ~alloc in
    let budget = Schedule.step_budget sched in
    let pin o =
      Option.map (fun p -> p.Schedule.edge) (Schedule.placement sched o)
    in
    let spans = ref (Dfg.compute_spans dfg) in
    (* Ops bound to each instance so far (instances are not added during a
       pass). *)
    let fanin = Array.make (Alloc.count alloc) 0 in
    let fanin_of id = fanin.(Alloc.Inst_id.to_int id) in
    let active o =
      match (Dfg.op dfg o).Dfg.kind with Dfg.Const _ -> false | _ -> true
    in
    let active_ops = List.filter active (Dfg.ops dfg) in
    let topo = Dfg.topo_order dfg in
    (* Ready worklist: an op is only a ready candidate once every forward
       predecessor is placed, so each ready sweep scans just the unplaced
       ops whose count of unplaced predecessors is zero ([candidates];
       placed ones are pruned at the next sweep). *)
    let waiting = Array.make (Dfg.op_count dfg) 0 in
    List.iter
      (fun o ->
        List.iter
          (fun p ->
            if not (Schedule.is_placed sched p) then
              waiting.(Dfg.Op_id.to_int o) <- waiting.(Dfg.Op_id.to_int o) + 1)
          (Dfg.preds dfg o))
      active_ops;
    let candidates =
      ref (List.filter (fun o -> waiting.(Dfg.Op_id.to_int o) = 0) active_ops)
    in
    (* Compatible instances per (kind, width), in instance order; grades
       change during the pass, so each placement sorts afresh. *)
    let compat = Hashtbl.create 8 in
    let compatible_insts (op : Dfg.op) =
      let key = (op.Dfg.kind, op.Dfg.width) in
      match Hashtbl.find_opt compat key with
      | Some l -> l
      | None ->
        let l =
          List.filter
            (fun i -> Alloc.compatible i ~op_kind:op.Dfg.kind ~width:op.Dfg.width)
            (Alloc.instances alloc)
        in
        Hashtbl.add compat key l;
        l
    in
    let span_of o = (!spans).(Dfg.Op_id.to_int o) in
    let mux_pen inputs = Library.mux_delay (Alloc.library alloc) ~inputs in
    (* When an operation starves (its producers finish too late for any
       window to remain), the actionable bottleneck is usually a resource
       group several chain links upstream.  Walk the latest-finishing
       producer chain: move to the latest pred while it shares the failing
       step or finishes late in its own step; blame where the walk stops. *)
    let blame_for o fail_step =
      let latest_pred o =
        List.fold_left
          (fun acc p ->
            match Schedule.placement sched p with
            | None -> acc
            | Some pp -> (
              let fin = pp.Schedule.start +. pp.Schedule.eff_delay in
              match acc with
              | Some (_, bs, bf) when (bs, bf) >= (pp.Schedule.step, fin) -> acc
              | Some _ | None -> Some (p, pp.Schedule.step, fin)))
          None (Dfg.preds dfg o)
      in
      let budget_late = 0.7 *. budget in
      let rec walk o step =
        match latest_pred o with
        | Some (p, ps, fin) when ps = step || fin > budget_late -> walk p ps
        | Some _ | None -> o
      in
      let culprit = walk o fail_step in
      let op = Dfg.op dfg culprit in
      match Resource_kind.of_op_kind op.Dfg.kind with
      | Some rk -> Some (rk, op.Dfg.width)
      | None -> None
    in
    (* Readiness of [o] on edge [e]: the edge lies in o's span, every
       forward predecessor is placed with its value available here, and
       under pipelining no already-placed loop-carried partner's recurrence
       window is violated by this step. *)
    let lc_ok o step =
      List.for_all
        (fun (p, lc) ->
          (not lc)
          ||
          match Schedule.placement sched p with
          | Some pp -> Schedule.lc_step_ok sched ~producer_step:pp.Schedule.step ~consumer_step:step
          | None -> true)
        (Dfg.all_preds dfg o)
      && List.for_all
           (fun (c, lc) ->
             (not lc)
             ||
             match Schedule.placement sched c with
             | Some pc -> Schedule.lc_step_ok sched ~producer_step:step ~consumer_step:pc.Schedule.step
             | None -> true)
           (Dfg.all_succs dfg o)
    in
    let ready_on o e step =
      let s = span_of o in
      Cfg.reaches cfg s.Dfg.early e
      && Cfg.reaches cfg e s.Dfg.late
      && List.for_all
           (fun p ->
             match Schedule.placement sched p with
             | None -> false
             | Some pp -> pp.Schedule.step < step || Cfg.reaches cfg pp.Schedule.edge e)
           (Dfg.preds dfg o)
      && lc_ok o step
    in
    let ready_time o step =
      List.fold_left
        (fun acc p ->
          match Schedule.placement sched p with
          | Some pp when pp.Schedule.step = step ->
            Float.max acc (pp.Schedule.start +. pp.Schedule.eff_delay)
          | Some _ | None -> acc)
        0.0 (Dfg.preds dfg o)
    in
    let try_place_raw o e step =
      let op = Dfg.op dfg o in
      let rt = ready_time o step in
      let window = budget -. rt in
      if window < -.eps then Defer Starved
      else begin
        let rk =
          match Resource_kind.of_op_kind op.Dfg.kind with
          | Some rk -> rk
          | None -> assert false (* constants never reach try_place *)
        in
        let free =
          List.filter
            (fun c -> not (Schedule.conflicts sched c.Alloc.id ~edge:e))
            (compatible_insts op)
        in
        (* Cheapest (slowest) grade first; among equal grades prefer the
           emptiest instance so sharing — and its mux penalty — spreads;
           then instance order. *)
        let free =
          List.stable_sort
            (fun a b ->
              match Float.compare b.Alloc.point.Curve.delay a.Alloc.point.Curve.delay with
              | 0 -> Int.compare (fanin_of a.Alloc.id) (fanin_of b.Alloc.id)
              | c -> c)
            free
        in
        let eff_of c = c.Alloc.point.Curve.delay +. mux_pen (fanin_of c.Alloc.id + 1) in
        let fitting = List.filter (fun c -> eff_of c <= window +. eps) free in
        let do_place c =
          let eff = eff_of c in
          Schedule.place sched o ~edge:e ~start:rt ~eff_delay:eff ~inst:(Some c.Alloc.id);
          let k = Alloc.Inst_id.to_int c.Alloc.id in
          fanin.(k) <- fanin.(k) + 1;
          List.iter
            (fun s ->
              let j = Dfg.Op_id.to_int s in
              waiting.(j) <- waiting.(j) - 1;
              if waiting.(j) = 0 then candidates := s :: !candidates)
            (Dfg.succs dfg o);
          Placed
        in
        let miss () =
          if free = [] then Defer (Busy (rk, op.Dfg.width))
          else if window <= eps then Defer Starved
          else Defer (Slow window)
        in
        match fitting with
        | _ :: _ ->
          (* Prefer the slowest instance not slower than the budgeted target
             (cheapest honouring the plan); if every fitting instance is
             slower than the target, take the fastest fitting one to leave
             room for chained consumers. *)
          let target = params.target o in
          let near = List.filter (fun c -> c.Alloc.point.Curve.delay <= target +. 1.0) fitting in
          (match near with
          | c :: _ -> do_place c
          | [] -> do_place (List.nth fitting (List.length fitting - 1)))
        | [] ->
          if params.upgrade_on_miss then begin
            let viable =
              List.filter
                (fun c ->
                  Curve.min_delay c.Alloc.curve +. mux_pen (fanin_of c.Alloc.id + 1)
                  <= window +. eps)
                free
            in
            match viable with
            | [] -> miss ()
            | _ :: _ ->
              (* Upgrade the instance whose area damage is smallest. *)
              let cost c =
                let needed = window -. mux_pen (fanin_of c.Alloc.id + 1) in
                Curve.area_at c.Alloc.curve needed -. c.Alloc.point.Curve.area
              in
              let best =
                List.fold_left
                  (fun acc c ->
                    match acc with
                    | None -> Some c
                    | Some b -> if cost c < cost b then Some c else acc)
                  None viable
              in
              (match best with
              | Some c ->
                let needed = window -. mux_pen (fanin_of c.Alloc.id + 1) in
                if Alloc.upgrade_to_fit alloc c.Alloc.id ~max_delay:needed then begin
                  Obs.incr c_upgrades;
                  do_place c
                end
                else Defer (Slow window)
              | None -> Defer (Slow window))
          end
          else miss ()
      end
    in
    let try_place o e step =
      match try_place_raw o e step with
      | Placed ->
        Obs.incr c_placements;
        Placed
      | Defer d as a ->
        count_defer d;
        a
    in
    let reason_of o step = function
      | Busy (rk, width) -> No_resource { op = o; rk; width }
      | Slow window -> Too_slow { op = o; window; blame = blame_for o step }
      | Starved -> No_time { op = o; blame = blame_for o step }
    in
    let fail op_name reason =
      let message =
        match reason with
        | No_resource { rk; width; _ } ->
          Printf.sprintf "op %s: no free %s (w%d) instance on its last span edge" op_name
            (Resource_kind.name rk) width
        | Too_slow { window; _ } ->
          Printf.sprintf "op %s: no instance fits the %.0f ps window on its last span edge"
            op_name window
        | No_time _ ->
          Printf.sprintf "op %s: ready time exhausts the step budget; more states needed"
            op_name
        | Retime_failed m -> m
      in
      Obs.incr c_failures;
      raise (Fail { reason; message })
    in
    let ev_on () = Obs.Events.enabled () in
    let emit_pick o e step ~ready_set_size =
      Obs.Events.emit
        (Obs.Events.Op_picked
           {
             op = (Dfg.op dfg o).Dfg.name;
             edge = Cfg.Edge_id.to_int e;
             step;
             priority = params.priority o;
             ready_set_size;
           })
    in
    try
      List.iter
        (fun e ->
          Obs.incr c_edges;
          let step = Cfg.state_of_edge cfg e in
          Obs.span "sched.list" (fun () ->
              let placed_here = ref 0 in
              let deferred_here = ref 0 in
              let progress = ref true in
              while !progress do
                progress := false;
                Obs.incr c_sweeps;
                candidates := List.filter (fun o -> not (Schedule.is_placed sched o)) !candidates;
                let ready =
                  !candidates
                  |> List.filter (fun o -> ready_on o e step)
                  |> List.sort (fun a b ->
                         (* Ops whose span ends here go first, then by
                            priority; the order is total, so it does not
                            depend on the order of [candidates]. *)
                         let late_idx o = Cfg.edge_topo_index cfg (span_of o).Dfg.late in
                         match Int.compare (late_idx a) (late_idx b) with
                         | 0 -> (
                           match Float.compare (params.priority a) (params.priority b) with
                           | 0 -> Dfg.Op_id.compare a b
                           | c -> c)
                         | c -> c)
                in
                let nready = List.length ready in
                Obs.add c_ready nready;
                List.iter
                  (fun o ->
                    if not (Schedule.is_placed sched o) then
                      match try_place o e step with
                      | Placed ->
                        progress := true;
                        incr placed_here;
                        if ev_on () then emit_pick o e step ~ready_set_size:nready
                      | Defer _ -> incr deferred_here)
                  ready
              done;
              (* Paper step (b): an op whose span ends here must be placed.
                 The sweep follows dependency order so that when a chain is
                 stuck the blocking producer reports its own (actionable)
                 failure before a merely-waiting consumer reports a
                 misleading one. *)
              List.iter
                (fun o ->
                  if
                    active o
                    && (not (Schedule.is_placed sched o))
                    && Cfg.Edge_id.equal (span_of o).Dfg.late e
                  then begin
                    match if ready_on o e step then try_place o e step else Defer Starved with
                    | Placed ->
                      incr placed_here;
                      (* Span-end forced placement: the op was the only
                         candidate. *)
                      if ev_on () then emit_pick o e step ~ready_set_size:1
                    | Defer d -> fail (Dfg.op dfg o).Dfg.name (reason_of o step d)
                  end)
                topo;
              if ev_on () then
                Obs.Events.emit
                  (Obs.Events.Edge_scheduled
                     {
                       edge = Cfg.Edge_id.to_int e;
                       step;
                       placed = !placed_here;
                       deferred = !deferred_here;
                     }));
          let respan () =
            Obs.incr c_respans;
            spans := Obs.span "sched.respan" (fun () -> Dfg.compute_spans ~pin dfg)
          in
          match params.after_edge with
          | Keep_spans -> ()
          | Respan -> respan ()
          | Respan_and_rebudget rebudget ->
            respan ();
            Obs.span "sched.rebudget" (fun () -> rebudget sched !spans))
        (Cfg.forward_edges_topo cfg);
      (* Everything must be placed by now. *)
      List.iter
        (fun o ->
          if not (Schedule.is_placed sched o) then
            fail (Dfg.op dfg o).Dfg.name (No_time { op = o; blame = None }))
        active_ops;
      (* Final retiming with exact mux fan-ins.  Binding charged each op a
         fan-in-at-bind-time penalty; later arrivals on the same instance can
         push earlier chains past the budget.  Repair by speeding up the
         slowest instance on the violating chain until the schedule verifies
         (a bounded, delay-decreasing loop). *)
      let chain_instances culprit =
        let seen = Hashtbl.create 8 in
        let insts = ref [] in
        let rec walk o =
          if not (Hashtbl.mem seen (Dfg.Op_id.to_int o)) then begin
            Hashtbl.replace seen (Dfg.Op_id.to_int o) ();
            match Schedule.placement sched o with
            | None -> ()
            | Some p ->
              (match p.Schedule.inst with
              | Some id -> insts := id :: !insts
              | None -> ());
              List.iter
                (fun pr ->
                  match Schedule.placement sched pr with
                  | Some pp when pp.Schedule.step = p.Schedule.step -> walk pr
                  | Some _ | None -> ())
                (Dfg.preds dfg o)
          end
        in
        walk culprit;
        List.sort_uniq Alloc.Inst_id.compare !insts
      in
      let rec repair tries =
        match Schedule.retime sched with
        | Ok () -> Ok sched
        | Error v when tries > 0 -> (
          match v.Schedule.culprit with
          | None ->
            Error
              { reason = Retime_failed v.Schedule.detail;
                message = "final retiming failed: " ^ v.Schedule.detail }
          | Some culprit -> (
            let candidates =
              chain_instances culprit
              |> List.map (fun id -> Alloc.instance alloc id)
              |> List.filter (fun i ->
                     i.Alloc.point.Curve.delay > Curve.min_delay i.Alloc.curve +. eps)
              |> List.sort (fun a b ->
                     Float.compare b.Alloc.point.Curve.delay a.Alloc.point.Curve.delay)
            in
            match candidates with
            | [] ->
              Error
                { reason = Retime_failed v.Schedule.detail;
                  message = "final retiming failed (chain already fastest): " ^ v.Schedule.detail }
            | i :: _ ->
              Obs.incr c_retime_repairs;
              let want = i.Alloc.point.Curve.delay -. v.Schedule.overshoot -. 1.0 in
              Alloc.set_grade alloc i.Alloc.id
                ~delay:(Float.max (Curve.min_delay i.Alloc.curve) want);
              repair (tries - 1)))
        | Error v ->
          Error
            { reason = Retime_failed v.Schedule.detail;
              message = "final retiming failed: " ^ v.Schedule.detail }
      in
      Obs.span "sched.retime" (fun () -> repair 200)
    with Fail f -> Error f
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
(* The list scheduler against {!Sched_ref}.  Each flow's pass inputs are
   built the way {!Flows} builds them — delay targets and priorities, one
   allocation per (kind, width) group graded at the targets' median (the
   fastest grade for the conventional flow), and for the slack flow the
   per-edge respan with or without the re-budget hook — and failed passes
   grow the allocation as the relaxation loop would, so successes and
   every failure reason are compared. *)

let lib = Library.default

let op_range dfg ~budget o =
  let op = Dfg.op dfg o in
  match Library.op_curve lib op.Dfg.kind ~width:op.Dfg.width with
  | Some c ->
    let lo = Curve.min_delay c in
    Interval.make lo (Float.max lo (Float.min (Curve.max_delay c) budget))
  | None -> Interval.point 0.0

let op_sensitivity dfg o d =
  let op = Dfg.op dfg o in
  match Library.op_curve lib op.Dfg.kind ~width:op.Dfg.width with
  | Some c -> Curve.sensitivity c d
  | None -> 0.0

(* Active ops by natural (kind, width) group, in key order. *)
let resource_groups dfg =
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun o ->
      let op = Dfg.op dfg o in
      match Resource_kind.of_op_kind op.Dfg.kind with
      | Some rk ->
        let key = (rk, op.Dfg.width) in
        Hashtbl.replace tbl key (o :: Option.value ~default:[] (Hashtbl.find_opt tbl key))
      | None -> ())
    (Dfg.ops dfg);
  List.sort compare (Hashtbl.fold (fun key ops acc -> (key, List.rev ops) :: acc) tbl [])

let slack_priorities tdfg ~budget targets =
  let res =
    Slack.analyze ~aligned:true tdfg ~clock:budget ~del:(fun o -> targets.(Dfg.Op_id.to_int o))
  in
  Array.init (Array.length targets) (fun i -> Slack.op_slack res (Dfg.Op_id.of_int i))

(* Initial delay targets and priorities of a flow. *)
let flow_inputs flow dfg ~budget =
  let n = Dfg.op_count dfg in
  let ops = Array.init n Dfg.Op_id.of_int in
  let range = op_range dfg ~budget in
  let fastest = Array.map (fun o -> Interval.lo (range o)) ops in
  let spans = Dfg.compute_spans dfg in
  let cfg = Dfg.cfg dfg in
  let mobility =
    Array.map
      (fun o ->
        let s = spans.(Dfg.Op_id.to_int o) in
        float_of_int (Cfg.state_of_edge cfg s.Dfg.late - Cfg.state_of_edge cfg s.Dfg.early))
      ops
  in
  match flow with
  | Flows.Conventional -> (fastest, mobility)
  | Flows.Slowest_first -> (Array.map (fun o -> Interval.hi (range o)) ops, mobility)
  | Flows.Slack_based -> (
    match Timed_dfg.build dfg ~spans with
    | exception Timed_dfg.Unrealizable _ -> (fastest, mobility)
    | tdfg -> (
      match
        Budget.run tdfg ~clock:budget ~ranges:range ~sensitivity:(op_sensitivity dfg)
      with
      | Budget.Feasible delays -> (delays, slack_priorities tdfg ~budget delays)
      | Budget.Infeasible _ -> (fastest, mobility)))

(* One pass's allocation and parameters, with fresh mutable state. *)
let make_pass flow dfg ~clock ~ii ~rebudget (targets0, prios0) groups counts =
  let budget = clock -. Library.register_overhead lib in
  let targets = Array.copy targets0 and prios = Array.copy prios0 in
  let alloc = Alloc.create lib in
  List.iter
    (fun ((rk, width), gops) ->
      let grade =
        match flow with
        | Flows.Conventional -> 0.0
        | Flows.Slowest_first | Flows.Slack_based ->
          let ds = List.sort Float.compare (List.map (fun o -> targets.(Dfg.Op_id.to_int o)) gops) in
          List.nth ds (List.length ds / 2)
      in
      for _ = 1 to Hashtbl.find counts (rk, width) do
        ignore (Alloc.add_instance alloc ~rk ~width ~delay:grade)
      done)
    groups;
  let rebudget_hook sched spans =
    match Timed_dfg.build dfg ~spans with
    | exception Timed_dfg.Unrealizable _ -> ()
    | tdfg -> (
      let ranges o =
        match Schedule.placement sched o with
        | Some p -> Interval.point p.Schedule.eff_delay
        | None -> op_range dfg ~budget o
      in
      let sensitivity o d = if Schedule.is_placed sched o then 0.0 else op_sensitivity dfg o d in
      let config = { Budget.default_config with max_rounds = 4; bisection_steps = 12 } in
      let unplaced f =
        Array.iteri
          (fun i _ -> if not (Schedule.is_placed sched (Dfg.Op_id.of_int i)) then f i)
          targets
      in
      match Budget.run ~config ~event_phase:"rebudget" tdfg ~clock:budget ~ranges ~sensitivity with
      | Budget.Feasible delays ->
        unplaced (fun i -> targets.(i) <- delays.(i));
        Array.blit (slack_priorities tdfg ~budget targets) 0 prios 0 (Array.length prios)
      | Budget.Infeasible _ ->
        unplaced (fun i -> targets.(i) <- Interval.lo (op_range dfg ~budget (Dfg.Op_id.of_int i))))
  in
  let after_edge =
    match flow with
    | Flows.Conventional | Flows.Slowest_first -> Sched_core.Keep_spans
    | Flows.Slack_based ->
      if rebudget then Sched_core.Respan_and_rebudget rebudget_hook else Sched_core.Respan
  in
  ( alloc,
    {
      Sched_core.clock;
      ii;
      priority = (fun o -> prios.(Dfg.Op_id.to_int o));
      target = (fun o -> targets.(Dfg.Op_id.to_int o));
      upgrade_on_miss = flow <> Flows.Conventional;
      after_edge;
    } )

let render_reason = function
  | Sched_core.No_resource { op; rk; width } ->
    Printf.sprintf "no_resource %d %s %d" (Dfg.Op_id.to_int op) (Resource_kind.name rk) width
  | Sched_core.Too_slow { op; window; blame } ->
    Printf.sprintf "too_slow %d %h %s" (Dfg.Op_id.to_int op) window
      (match blame with Some (rk, w) -> Printf.sprintf "%s/%d" (Resource_kind.name rk) w | None -> "-")
  | Sched_core.No_time { op; blame } ->
    Printf.sprintf "no_time %d %s" (Dfg.Op_id.to_int op)
      (match blame with Some (rk, w) -> Printf.sprintf "%s/%d" (Resource_kind.name rk) w | None -> "-")
  | Sched_core.Retime_failed m -> "retime_failed " ^ m

(* Everything a pass decides: its placements (bitwise) or its failure, the
   allocation's final grades, the sched.* and bind.* counter deltas and
   the deterministic event stream. *)
let observe run dfg (alloc, params) =
  let counters () =
    List.filter
      (fun (k, _) -> String.starts_with ~prefix:"sched." k || String.starts_with ~prefix:"bind." k)
      (Obs.counters_snapshot ())
  in
  Obs.Events.enable ~capacity:(1 lsl 20) ();
  Fun.protect ~finally:Obs.Events.disable @@ fun () ->
  let before = counters () in
  let mark = Obs.Events.mark () in
  let r = run dfg ~alloc params in
  let events =
    List.map Obs.Events.to_jsonl_line
      (Obs.Events.renumber (List.filter Obs.Events.deterministic (Obs.Events.since ~mark)))
  in
  let deltas =
    List.map
      (fun (k, v) -> (k, v - Option.value ~default:0 (List.assoc_opt k before)))
      (counters ())
  in
  let b = Buffer.create 1024 in
  (match r with
  | Ok s ->
    Array.iteri
      (fun i p ->
        match p with
        | None -> Printf.bprintf b "%d -\n" i
        | Some p ->
          Printf.bprintf b "%d %d %d %h %h %s\n" i (Cfg.Edge_id.to_int p.Schedule.edge)
            p.Schedule.step p.Schedule.start p.Schedule.eff_delay
            (match p.Schedule.inst with
            | Some id -> string_of_int (Alloc.Inst_id.to_int id)
            | None -> "-"))
      s.Schedule.placements
  | Error f ->
    Printf.bprintf b "error %s\n%s\n" (render_reason f.Sched_core.reason) f.Sched_core.message);
  List.iter
    (fun i ->
      Printf.bprintf b "fu%d %h %h\n" (Alloc.Inst_id.to_int i.Alloc.id) i.Alloc.point.Curve.delay
        i.Alloc.point.Curve.area)
    (Alloc.instances alloc);
  (Buffer.contents b, deltas, events, r)

(* Runs a flow's passes under both schedulers, growing the allocation
   after each failure as {!Flows}' relaxation loop does, for at most
   [attempts] passes; false at the first disagreement. *)
let flow_agrees flow dfg ~clock ~ii ~rebudget ~attempts =
  let budget = clock -. Library.register_overhead lib in
  let inputs = flow_inputs flow dfg ~budget in
  let groups = resource_groups dfg in
  let counts = Hashtbl.create 8 in
  List.iter
    (fun (key, gops) ->
      Hashtbl.replace counts key
        (match flow with
        | Flows.Slack_based -> max 1 (List.length gops / 3)
        | Flows.Conventional | Flows.Slowest_first -> 1))
    groups;
  let grow key =
    match List.assoc_opt key groups with
    | Some gops when Hashtbl.find counts key < List.length gops ->
      Hashtbl.replace counts key (Hashtbl.find counts key + 1);
      true
    | Some _ | None -> false
  in
  let group_of op =
    let o = Dfg.op dfg op in
    Option.map (fun rk -> (rk, o.Dfg.width)) (Resource_kind.of_op_kind o.Dfg.kind)
  in
  let rec go k =
    let pass () = make_pass flow dfg ~clock ~ii ~rebudget inputs groups counts in
    let fast, fast_deltas, fast_events, r = observe Sched_core.run dfg (pass ()) in
    let ref_, ref_deltas, ref_events, _ = observe Sched_ref.run dfg (pass ()) in
    let same =
      String.equal fast ref_ && fast_deltas = ref_deltas && fast_events = ref_events
    in
    if not same then
      QCheck.Test.fail_reportf "flow %s, pass %d disagrees:@.fast:@.%s@.reference:@.%s"
        (Flows.flow_name flow) k fast ref_;
    match r with
    | Ok _ -> true
    | Error _ when k + 1 >= attempts -> true
    | Error f -> (
      let grown =
        match f.Sched_core.reason with
        | Sched_core.No_resource { op; _ } -> (
          match group_of op with Some key -> grow key | None -> false)
        | Sched_core.Retime_failed _ ->
          List.fold_left (fun acc (key, _) -> grow key || acc) false groups
        | Sched_core.Too_slow { op; blame; _ } | Sched_core.No_time { op; blame } -> (
          match (blame, group_of op) with
          | Some key, _ when List.mem_assoc key groups -> grow key
          | _, Some key -> grow key
          | _, None -> false)
      in
      (not grown) || go (k + 1))
  in
  go 0

let recurrence_src =
  {|
process recurrence {
  port in a : 16;
  port in b : 16;
  port out y : 16;
  var s : 16;
  var t : 16;
  loop {
    t = s * read(a);
    wait;
    s = t + read(b);
    wait;
    write(y, s);
  }
}
|}

let prop_sched_matches_reference =
  QCheck.Test.make
    ~name:"list scheduler == list reference (placements, failures, counters, events)"
    ~count:80
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let rng = Splitmix.create seed in
      (* Random designs carry no loop-carried dependencies, so some cases
         are kernels with recurrences that the pipelined readiness check
         must honour: FIR, the resizer, and [recurrence_src], where the
         recurrence binds (its producer finishes a state after its
         consumer starts). *)
      let dfg, clock0, pipeline_odds =
        match Splitmix.int rng 8 with
        | 0 ->
          let f = Fir.build ~taps:(2 + Splitmix.int rng 7) ~latency:(2 + Splitmix.int rng 5) () in
          (f.Fir.dfg, 2500.0, 2)
        | 1 -> ((Resizer.full ()).Resizer.dfg, 4000.0, 2)
        | 2 | 3 -> ((Elaborate.elaborate (Parser.parse recurrence_src)).Elaborate.dfg, 2500.0, 2)
        | _ ->
          let d = random_design rng in
          (d.Random_design.dfg, d.Random_design.suggested_clock, 3)
      in
      (* From infeasible (most points fail or relax) to easily feasible. *)
      let clock = clock0 *. Splitmix.choose rng [| 0.5; 0.7; 0.85; 1.0; 1.4; 2.5 |] in
      let ii =
        if Splitmix.int rng pipeline_odds = 0 then Some (1 + Splitmix.int rng 3) else None
      in
      let rebudget = Splitmix.int rng 4 > 0 in
      clock <= Library.register_overhead lib
      || List.for_all
           (fun flow -> flow_agrees flow dfg ~clock ~ii ~rebudget ~attempts:8)
           [ Flows.Conventional; Flows.Slowest_first; Flows.Slack_based ])

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
            prop_sched_matches_reference;
            prop_memo_event_modes_agree;
          ]
        @ [ Alcotest.test_case "re-budget memo exercised" `Quick test_memo_hits_with_events ] );
    ]
