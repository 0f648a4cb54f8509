type result = {
  arr : float array;
  req : float array;
  slack : float array;
  min_slack : float;
}

(* Telemetry (paper §IV–V): one analysis = one forward + one backward
   linear pass, each relaxing every timed-DFG connection exactly once —
   the counters below are the evidence for the linearity claim that the
   Bellman–Ford baseline ([Bf_timing]) cannot match. *)
let c_analyses = Obs.counter "slack.analyses"
let c_fwd = Obs.counter "slack.forward_passes"
let c_bwd = Obs.counter "slack.backward_passes"
let c_relax = Obs.counter "slack.edge_relaxations"
let c_nodes = Obs.counter "slack.node_visits"

let frac ~clock x = x -. (clock *. Float.floor (x /. clock))

let align_start ~clock ~delay a =
  let f = frac ~clock a in
  if f +. delay > clock +. 1e-9 then clock *. (Float.floor (a /. clock) +. 1.0) else a

let align_finish_constraint ~clock ~delay r =
  let f = frac ~clock r in
  if f +. delay > clock +. 1e-9 then (clock *. Float.floor (r /. clock)) +. clock -. delay
  else r

(* Two loops over the compiled graph ({!Timed_dfg.csr}).  Sinks are
   folded into their ops: a sink's arrival is never read, and its required
   time is [clock] (aligned with zero delay) for every sink, so the sink
   edge is the last term of its op's backward fold — the position it holds
   in [Timed_dfg.succs].  Every fold keeps the node-level order and float
   expressions, so the results are bit-identical to a node-by-node
   propagation.  [del] is called once per active op. *)
let analyze ?(aligned = false) tdfg ~clock ~del =
  if clock <= 0.0 then invalid_arg "Slack.analyze: clock must be positive";
  let { Timed_dfg.order; pred_off; pred_src; pred_lat; succ_off; succ_dst; succ_lat; sink_lat } =
    Timed_dfg.csr tdfg
  in
  let n = Dfg.op_count (Timed_dfg.dfg tdfg) in
  let arr = Array.make n nan and req = Array.make n nan in
  let dl = Array.make n 0.0 in
  Obs.incr c_analyses;
  Obs.incr c_fwd;
  Obs.incr c_bwd;
  (* Each pass visits every node (an op and its sink per active op) and
     relaxes every edge exactly once. *)
  Obs.add c_nodes (2 * 2 * Array.length order);
  Obs.add c_relax (2 * Timed_dfg.edge_count tdfg);
  (* Forward: arrival times. *)
  for k = 0 to Array.length order - 1 do
    let i = order.(k) in
    let d = del (Dfg.Op_id.of_int i) in
    dl.(i) <- d;
    let lo = pred_off.(i) and hi = pred_off.(i + 1) in
    let a0 =
      if lo = hi then 0.0
      else begin
        let acc = ref neg_infinity in
        for j = lo to hi - 1 do
          let p = pred_src.(j) in
          acc := Float.max !acc (arr.(p) +. dl.(p) -. (clock *. float_of_int pred_lat.(j)))
        done;
        !acc
      end
    in
    arr.(i) <- (if aligned then align_start ~clock ~delay:d a0 else a0)
  done;
  (* Backward: required times. *)
  let sink_req = if aligned then align_finish_constraint ~clock ~delay:0.0 clock else clock in
  for k = Array.length order - 1 downto 0 do
    let i = order.(k) in
    let d = dl.(i) in
    let acc = ref infinity in
    for j = succ_off.(i) to succ_off.(i + 1) - 1 do
      acc := Float.min !acc (req.(succ_dst.(j)) -. d +. (clock *. float_of_int succ_lat.(j)))
    done;
    let r0 = Float.min !acc (sink_req -. d +. (clock *. float_of_int sink_lat.(i))) in
    req.(i) <- (if aligned then align_finish_constraint ~clock ~delay:d r0 else r0)
  done;
  let slack = Array.make n nan in
  let min_slack = ref infinity in
  List.iter
    (fun o ->
      let i = Dfg.Op_id.to_int o in
      slack.(i) <- req.(i) -. arr.(i);
      if slack.(i) < !min_slack then min_slack := slack.(i))
    (Timed_dfg.active_ops tdfg);
  { arr; req; slack; min_slack = !min_slack }

let op_slack r o = r.slack.(Dfg.Op_id.to_int o)

let critical_ops ?(eps = 1e-6) tdfg r =
  List.filter
    (fun o -> op_slack r o <= r.min_slack +. eps)
    (Timed_dfg.active_ops tdfg)

let negative_ops ?(eps = 1e-6) tdfg r =
  List.filter (fun o -> op_slack r o < -.eps) (Timed_dfg.active_ops tdfg)

let feasible ?(eps = 1e-6) r = r.min_slack >= -.eps
