type failure_reason =
  | No_resource of { op : Dfg.Op_id.t; rk : Resource_kind.t; width : int }
  | Too_slow of { op : Dfg.Op_id.t; window : float; blame : (Resource_kind.t * int) option }
  | No_time of { op : Dfg.Op_id.t; blame : (Resource_kind.t * int) option }
  | Retime_failed of string

type failure = { reason : failure_reason; message : string }

let pp_failure ppf f = Format.pp_print_string ppf f.message

type after_edge =
  | Keep_spans
  | Respan
  | Respan_and_rebudget of (Schedule.t -> Dfg.span array -> unit)

type params = {
  clock : float;
  ii : int option;
  priority : Dfg.Op_id.t -> float;
  target : Dfg.Op_id.t -> float;
  upgrade_on_miss : bool;
  after_edge : after_edge;
}

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

(* Telemetry (paper §VI, Fig. 8): per-CFG-edge scheduler events.  Deferral
   counters split by reason so a failing run's event stream shows whether
   the bottleneck was resources, windows, or ready-time starvation. *)
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
