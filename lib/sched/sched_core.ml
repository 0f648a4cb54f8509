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

(* Outcome of one placement attempt.  Most deferrals are transient (the op
   is retried on a later edge of its span), so a deferral carries no
   payload: the details a failure report needs — the group, the window
   (kept in [last_window]), the blame walk — are assembled in [reason_of]
   only when a deferral on the last span edge turns into a failure. *)
type attempt =
  | Placed
  | Busy  (** every compatible instance is booked *)
  | Slow  (** no instance fits this window *)
  | Starved  (** the ready time leaves no window *)

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

let count_attempt = function
  | Placed -> Obs.incr c_placements
  | Busy -> Obs.incr c_defer_res
  | Slow -> Obs.incr c_defer_slow
  | Starved -> Obs.incr c_defer_time

(* [a.(lo .. hi-1)] sorted in place by the strict total order [lt], with
   [tmp] as the merge buffer.  Ready sets are mostly a handful of ops, which
   the insertion sort handles alone.  Top-level functions, so a sort
   allocates no closures. *)
let insertion_sort lt a lo hi =
  for i = lo + 1 to hi - 1 do
    let x = a.(i) in
    let j = ref (i - 1) in
    while !j >= lo && lt x a.(!j) do
      a.(!j + 1) <- a.(!j);
      decr j
    done;
    a.(!j + 1) <- x
  done

let rec merge_sort lt a tmp lo hi =
  if hi - lo <= 16 then insertion_sort lt a lo hi
  else begin
    let mid = (lo + hi) / 2 in
    merge_sort lt a tmp lo mid;
    merge_sort lt a tmp mid hi;
    Array.blit a lo tmp lo (hi - lo);
    let i = ref lo and j = ref mid in
    for k = lo to hi - 1 do
      if !j >= hi || (!i < mid && not (lt tmp.(!j) tmp.(!i))) then begin
        a.(k) <- tmp.(!i);
        incr i
      end
      else begin
        a.(k) <- tmp.(!j);
        incr j
      end
    done
  end

(* The per-edge work below runs ~15k passes per corpus sweep and must not
   allocate beyond the placements it records: on OCaml 5 every minor
   collection stops all domains, so garbage here is what limits parallel
   exploration (DESIGN.md §7).  Candidates and the ready set live in
   per-pass [int]-backed arrays, the walks over preds and bookings are
   plain recursions, and float accumulators are local refs (unboxed). *)
let run dfg ~alloc params =
  Obs.incr c_runs;
  let cfg = Dfg.cfg dfg in
  let sched = Schedule.create ?ii:params.ii dfg ~clock:params.clock ~alloc in
  let budget = Schedule.step_budget sched in
  let pipelined = Option.is_some params.ii in
  let pin o =
    Option.map (fun p -> p.Schedule.edge) (Schedule.placement sched o)
  in
  let spans = ref (Dfg.compute_spans dfg) in
  let n = Dfg.op_count dfg in
  let idx = Dfg.Op_id.to_int in
  (* Instances are not added during a pass, and an instance's position is
     its id; [fanin] counts the ops bound to each so far. *)
  let insts = Array.of_list (Alloc.instances alloc) in
  let fanin = Array.make (Array.length insts) 0 in
  (* Mux steering penalty of one more input on an instance already bound
     to [k] ops, for every reachable [k]. *)
  let mux_pen =
    let lib = Alloc.library alloc in
    Array.init (n + 1) (fun k -> Library.mux_delay lib ~inputs:(k + 1))
  in
  let active o =
    match (Dfg.op dfg o).Dfg.kind with Dfg.Const _ -> false | _ -> true
  in
  let active_ops = List.filter active (Dfg.ops dfg) in
  let topo = Dfg.topo_order dfg in
  (* Ready worklist: an op is only a ready candidate once every forward
     predecessor is placed, so each ready sweep scans just the unplaced
     ops whose count of unplaced predecessors is zero ([cand]; placed ones
     are pruned at the next sweep).  An op joins at most once. *)
  let waiting = Array.make n 0 in
  List.iter
    (fun o ->
      List.iter
        (fun p -> if not (Schedule.is_placed sched p) then waiting.(idx o) <- waiting.(idx o) + 1)
        (Dfg.preds dfg o))
    active_ops;
  let cand = Array.make n (Dfg.Op_id.of_int 0) and ncand = ref 0 in
  let push_cand o =
    cand.(!ncand) <- o;
    incr ncand
  in
  List.iter (fun o -> if waiting.(idx o) = 0 then push_cand o) active_ops;
  let rec release = function
    | [] -> ()
    | s :: rest ->
      let j = idx s in
      waiting.(j) <- waiting.(j) - 1;
      if waiting.(j) = 0 then push_cand s;
      release rest
  in
  (* The ready set of one sweep and its sort keys: late-edge index, then
     priority, then op id — a total order, so the result does not depend
     on the order of [cand]. *)
  let ready = Array.make n (Dfg.Op_id.of_int 0) and sort_tmp = Array.make n (Dfg.Op_id.of_int 0) in
  let late_key = Array.make n 0 and prio_key = Array.make n 0.0 in
  let ready_lt a b =
    let ia = idx a and ib = idx b in
    let la = late_key.(ia) and lb = late_key.(ib) in
    if la <> lb then la < lb
    else
      match Float.compare prio_key.(ia) prio_key.(ib) with 0 -> ia < ib | c -> c < 0
  in
  (* Compatible instances of each op, as positions in instance order. *)
  let compat =
    let by_key = Hashtbl.create 8 in
    let all = List.init (Array.length insts) Fun.id in
    let arr = Array.make n [||] in
    List.iter
      (fun o ->
        let op = Dfg.op dfg o in
        let key = (op.Dfg.kind, op.Dfg.width) in
        arr.(idx o) <-
          (match Hashtbl.find_opt by_key key with
          | Some c -> c
          | None ->
            let c =
              Array.of_list
                (List.filter
                   (fun k ->
                     Alloc.compatible insts.(k) ~op_kind:op.Dfg.kind ~width:op.Dfg.width)
                   all)
            in
            Hashtbl.add by_key key c;
            c))
      active_ops;
    arr
  in
  (* Free instances of the current attempt, for the upgrade scan. *)
  let free = Array.make (Array.length insts) 0 in
  (* The window of the last [Slow] deferral (a float array cell: storing
     into it does not allocate). *)
  let last_window = Array.make 1 0.0 in
  let span_of o = (!spans).(idx o) in
  (* Instance selection order: cheapest (slowest) grade first; among equal
     grades the emptiest instance, so sharing — and its mux penalty —
     spreads; then instance order.  [precedes a b]: [a] comes first. *)
  let precedes a b =
    match Float.compare insts.(b).Alloc.point.Curve.delay insts.(a).Alloc.point.Curve.delay with
    | 0 -> ( match Int.compare fanin.(a) fanin.(b) with 0 -> a < b | c -> c < 0)
    | c -> c < 0
  in
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
  let rec preds_ready e step = function
    | [] -> true
    | p :: rest -> (
      match Schedule.placement sched p with
      | None -> false
      | Some pp ->
        (pp.Schedule.step < step || Cfg.reaches cfg pp.Schedule.edge e)
        && preds_ready e step rest)
  in
  let rec lc_preds_ok step = function
    | [] -> true
    | (p, lc) :: rest ->
      (match Schedule.placement sched p with
      | Some pp when lc ->
        Schedule.lc_step_ok sched ~producer_step:pp.Schedule.step ~consumer_step:step
      | Some _ | None -> true)
      && lc_preds_ok step rest
  in
  let rec lc_succs_ok step = function
    | [] -> true
    | (c, lc) :: rest ->
      (match Schedule.placement sched c with
      | Some pc when lc ->
        Schedule.lc_step_ok sched ~producer_step:step ~consumer_step:pc.Schedule.step
      | Some _ | None -> true)
      && lc_succs_ok step rest
  in
  let ready_on o e step =
    let s = span_of o in
    Cfg.reaches cfg s.Dfg.early e
    && Cfg.reaches cfg e s.Dfg.late
    && preds_ready e step (Dfg.preds dfg o)
    && ((not pipelined)
       || (lc_preds_ok step (Dfg.all_preds dfg o) && lc_succs_ok step (Dfg.all_succs dfg o)))
  in
  let place o e ~start c =
    let inst = insts.(c) in
    let eff = inst.Alloc.point.Curve.delay +. mux_pen.(fanin.(c)) in
    Schedule.place sched o ~edge:e ~start ~eff_delay:eff ~inst:(Some inst.Alloc.id);
    fanin.(c) <- fanin.(c) + 1;
    release (Dfg.succs dfg o);
    Placed
  in
  let try_place_raw o e step =
    (* Ready time: the latest finish among same-step producers. *)
    let rt = ref 0.0 in
    let ps = ref (Dfg.preds dfg o) in
    while !ps != [] do
      match !ps with
      | [] -> ()
      | p :: rest -> (
        ps := rest;
        match Schedule.placement sched p with
        | Some pp when pp.Schedule.step = step ->
          rt := Float.max !rt (pp.Schedule.start +. pp.Schedule.eff_delay)
        | Some _ | None -> ())
    done;
    let rt = !rt in
    let window = budget -. rt in
    if window < -.eps then Starved
    else begin
      (* One scan in instance order keeps, under the selection order, the
         first fitting instance not slower than the budgeted target (the
         cheapest honouring the plan) and the last fitting one (the
         fastest, taken when every fitting instance is slower than the
         target, to leave room for chained consumers). *)
      let cs = compat.(idx o) in
      let nfree = ref 0 and near = ref (-1) and last_fit = ref (-1) in
      let target = ref 0.0 and have_target = ref false in
      for k = 0 to Array.length cs - 1 do
        let c = cs.(k) in
        if not (Schedule.conflicts sched insts.(c).Alloc.id ~edge:e) then begin
          free.(!nfree) <- c;
          incr nfree;
          let d = insts.(c).Alloc.point.Curve.delay in
          if d +. mux_pen.(fanin.(c)) <= window +. eps then begin
            if !last_fit < 0 || precedes !last_fit c then last_fit := c;
            if not !have_target then begin
              target := params.target o;
              have_target := true
            end;
            if d <= !target +. 1.0 && (!near < 0 || precedes c !near) then near := c
          end
        end
      done;
      let missed =
        if !nfree = 0 then Busy else if window <= eps then Starved else Slow
      in
      let outcome =
        if !last_fit >= 0 then place o e ~start:rt (if !near >= 0 then !near else !last_fit)
        else if params.upgrade_on_miss && !nfree > 0 then begin
          (* Upgrade the viable instance whose area damage is smallest, the
             first in selection order among equals (areas are finite). *)
          let best = ref (-1) and best_cost = ref 0.0 in
          for k = 0 to !nfree - 1 do
            let c = free.(k) in
            let inst = insts.(c) in
            let pen = mux_pen.(fanin.(c)) in
            if Curve.min_delay inst.Alloc.curve +. pen <= window +. eps then begin
              let cost =
                Curve.area_at inst.Alloc.curve (window -. pen) -. inst.Alloc.point.Curve.area
              in
              if !best < 0 || cost < !best_cost || (cost = !best_cost && precedes c !best)
              then begin
                best := c;
                best_cost := cost
              end
            end
          done;
          if !best < 0 then missed
          else begin
            let c = !best in
            let needed = window -. mux_pen.(fanin.(c)) in
            if Alloc.upgrade_to_fit alloc insts.(c).Alloc.id ~max_delay:needed then begin
              Obs.incr c_upgrades;
              place o e ~start:rt c
            end
            else Slow
          end
        end
        else missed
      in
      (match outcome with Slow -> last_window.(0) <- window | Placed | Busy | Starved -> ());
      outcome
    end
  in
  let try_place o e step =
    let a = try_place_raw o e step in
    count_attempt a;
    a
  in
  let reason_of o step = function
    | Busy ->
      let op = Dfg.op dfg o in
      let rk =
        match Resource_kind.of_op_kind op.Dfg.kind with
        | Some rk -> rk
        | None -> assert false (* constants never reach try_place *)
      in
      No_resource { op = o; rk; width = op.Dfg.width }
    | Slow -> Too_slow { op = o; window = last_window.(0); blame = blame_for o step }
    | Starved -> No_time { op = o; blame = blame_for o step }
    | Placed -> assert false (* only deferrals fail *)
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
  let placed_here = ref 0 and deferred_here = ref 0 in
  (* One ready sweep over [cand]; true when it placed something. *)
  let sweep e step =
    Obs.incr c_sweeps;
    let kept = ref 0 and nready = ref 0 in
    for j = 0 to !ncand - 1 do
      let o = cand.(j) in
      if not (Schedule.is_placed sched o) then begin
        cand.(!kept) <- o;
        incr kept;
        if ready_on o e step then begin
          ready.(!nready) <- o;
          incr nready;
          late_key.(idx o) <- Cfg.edge_topo_index cfg (span_of o).Dfg.late;
          prio_key.(idx o) <- params.priority o
        end
      end
    done;
    ncand := !kept;
    let nready = !nready in
    merge_sort ready_lt ready sort_tmp 0 nready;
    Obs.add c_ready nready;
    let progress = ref false in
    for j = 0 to nready - 1 do
      let o = ready.(j) in
      if not (Schedule.is_placed sched o) then
        match try_place o e step with
        | Placed ->
          progress := true;
          incr placed_here;
          if ev_on () then emit_pick o e step ~ready_set_size:nready
        | Busy | Slow | Starved -> incr deferred_here
    done;
    !progress
  in
  (* Paper step (b): an op whose span ends here must be placed.  The sweep
     follows dependency order so that when a chain is stuck the blocking
     producer reports its own (actionable) failure before a merely-waiting
     consumer reports a misleading one. *)
  let rec force e step = function
    | [] -> ()
    | o :: rest ->
      if
        active o
        && (not (Schedule.is_placed sched o))
        && Cfg.Edge_id.equal (span_of o).Dfg.late e
      then begin
        match if ready_on o e step then try_place o e step else Starved with
        | Placed ->
          incr placed_here;
          (* Span-end forced placement: the op was the only candidate. *)
          if ev_on () then emit_pick o e step ~ready_set_size:1
        | (Busy | Slow | Starved) as d -> fail (Dfg.op dfg o).Dfg.name (reason_of o step d)
      end;
      force e step rest
  in
  let schedule_edge e step =
    placed_here := 0;
    deferred_here := 0;
    while sweep e step do
      ()
    done;
    force e step topo;
    if ev_on () then
      Obs.Events.emit
        (Obs.Events.Edge_scheduled
           { edge = Cfg.Edge_id.to_int e; step; placed = !placed_here; deferred = !deferred_here })
  in
  try
    List.iter
      (fun e ->
        Obs.incr c_edges;
        let step = Cfg.state_of_edge cfg e in
        Obs.span "sched.list" (fun () -> schedule_edge e step);
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
