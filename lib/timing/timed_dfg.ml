type node = Op of Dfg.Op_id.t | Sink of Dfg.Op_id.t

let node_equal a b =
  match (a, b) with
  | Op x, Op y | Sink x, Sink y -> Dfg.Op_id.equal x y
  | Op _, Sink _ | Sink _, Op _ -> false

let pp_node ppf = function
  | Op o -> Format.fprintf ppf "op%d" (Dfg.Op_id.to_int o)
  | Sink o -> Format.fprintf ppf "sink%d" (Dfg.Op_id.to_int o)

(* The graph is stored compiled (CSR) for the linear-time kernels: active
   ops in topological order, and per-op predecessor/successor ranges into
   flat source/latency arrays.  Sinks are implicit — every active op [o]
   has exactly one sink edge [o -> s(o)], whose weight lives in
   [sink_lat] — so every array is indexed by op and has [n] (or, for the
   offsets, [n + 1]) entries.  The node-level views ({!topo}, {!preds},
   {!succs}) serve the validators, exporters and the Bellman–Ford
   baseline; they are built from these arrays on first use and kept. *)
type csr = {
  order : int array;
  pred_off : int array;
  pred_src : int array;
  pred_lat : int array;
  succ_off : int array;
  succ_dst : int array;
  succ_lat : int array;
  sink_lat : int array;
}

type views = {
  topo_nodes : node list;
  pred_lists : (node * int) list array; (* 2n slots: op i at i, sink i at n+i *)
  succ_lists : (node * int) list array;
}

type t = {
  dfg : Dfg.t;
  spans : Dfg.span array;
  is_active : bool array; (* by op index *)
  active : Dfg.Op_id.t list; (* active ops, by id *)
  g : csr;
  edges : int;
  mutable views : views option;
}

exception Unrealizable of string

let c_builds = Obs.counter "timed_dfg.builds"
let c_nodes = Obs.counter "timed_dfg.nodes"
let c_edges = Obs.counter "timed_dfg.edges"

let build dfg ~spans =
  let cfg = Dfg.cfg dfg in
  let n = Dfg.op_count dfg in
  if Array.length spans <> n then invalid_arg "Timed_dfg.build: span array size mismatch";
  let is_active = Array.make n false in
  Dfg.iter_ops dfg (fun o ->
      is_active.(Dfg.Op_id.to_int o.Dfg.id) <-
        (match o.Dfg.kind with Dfg.Const _ -> false | _ -> true));
  let early i = spans.(i).Dfg.early in
  (* Dependency edges: forward deps between active ops, in op-id order and
     then dependency insertion order (the order every consumer folds in). *)
  let deps = ref [] in
  for i = 0 to n - 1 do
    if is_active.(i) then
      let oid = Dfg.Op_id.of_int i in
      List.iter
        (fun sid ->
          let j = Dfg.Op_id.to_int sid in
          if is_active.(j) then begin
            match Cfg.latency cfg (early i) (early j) with
            | Some w -> deps := (i, j, w) :: !deps
            | None ->
              raise
                (Unrealizable
                   (Printf.sprintf "dependency %s -> %s has undefined latency"
                      (Dfg.op dfg oid).Dfg.name (Dfg.op dfg sid).Dfg.name))
          end)
        (Dfg.succs dfg oid)
  done;
  let deps = Array.of_list (List.rev !deps) in
  (* Sink edges: weight = latency(early o, late o).  Checked after every
     dependency edge, as the node-level construction did. *)
  let sink_lat = Array.make n 0 in
  for i = 0 to n - 1 do
    if is_active.(i) then
      match Cfg.latency cfg (early i) spans.(i).Dfg.late with
      | Some w -> sink_lat.(i) <- w
      | None ->
        raise
          (Unrealizable
             (Printf.sprintf "op %s has a span with unreachable late edge"
                (Dfg.op dfg (Dfg.Op_id.of_int i)).Dfg.name))
  done;
  let m = Array.length deps in
  let pred_off = Array.make (n + 1) 0 and succ_off = Array.make (n + 1) 0 in
  Array.iter
    (fun (i, j, _) ->
      succ_off.(i + 1) <- succ_off.(i + 1) + 1;
      pred_off.(j + 1) <- pred_off.(j + 1) + 1)
    deps;
  for i = 0 to n - 1 do
    succ_off.(i + 1) <- succ_off.(i + 1) + succ_off.(i);
    pred_off.(i + 1) <- pred_off.(i + 1) + pred_off.(i)
  done;
  let pred_src = Array.make m 0 and pred_lat = Array.make m 0 in
  let succ_dst = Array.make m 0 and succ_lat = Array.make m 0 in
  let pred_fill = Array.sub pred_off 0 n and succ_fill = Array.sub succ_off 0 n in
  Array.iter
    (fun (i, j, w) ->
      let k = succ_fill.(i) in
      succ_dst.(k) <- j;
      succ_lat.(k) <- w;
      succ_fill.(i) <- k + 1;
      let k = pred_fill.(j) in
      pred_src.(k) <- i;
      pred_lat.(k) <- w;
      pred_fill.(j) <- k + 1)
    deps;
  let order =
    Array.of_list
      (List.filter_map
         (fun oid ->
           let i = Dfg.Op_id.to_int oid in
           if is_active.(i) then Some i else None)
         (Dfg.topo_order dfg))
  in
  let active = List.filter (fun o -> is_active.(Dfg.Op_id.to_int o)) (Dfg.ops dfg) in
  let edges = m + Array.length order in
  Obs.incr c_builds;
  (* Every active op contributes an op node and its sink node. *)
  Obs.add c_nodes (2 * Array.length order);
  Obs.add c_edges edges;
  {
    dfg;
    spans;
    is_active;
    active;
    g = { order; pred_off; pred_src; pred_lat; succ_off; succ_dst; succ_lat; sink_lat };
    edges;
    views = None;
  }

let dfg t = t.dfg
let spans t = t.spans
let csr t = t.g
let active t o = t.is_active.(Dfg.Op_id.to_int o)
let active_ops t = t.active

let slot n = function
  | Op o -> Dfg.Op_id.to_int o
  | Sink o -> n + Dfg.Op_id.to_int o

let build_views t =
  let g = t.g and n = Dfg.op_count t.dfg in
  let range off other lat i tail =
    let acc = ref tail in
    for k = off.(i + 1) - 1 downto off.(i) do
      acc := (Op (Dfg.Op_id.of_int other.(k)), lat.(k)) :: !acc
    done;
    !acc
  in
  let pred_lists = Array.make (2 * n) [] and succ_lists = Array.make (2 * n) [] in
  Array.iter
    (fun i ->
      let o = Dfg.Op_id.of_int i in
      pred_lists.(i) <- range g.pred_off g.pred_src g.pred_lat i [];
      succ_lists.(i) <- range g.succ_off g.succ_dst g.succ_lat i [ (Sink o, g.sink_lat.(i)) ];
      pred_lists.(n + i) <- [ (Op o, g.sink_lat.(i)) ])
    g.order;
  let topo_nodes =
    Array.fold_right
      (fun i acc ->
        let o = Dfg.Op_id.of_int i in
        Op o :: Sink o :: acc)
      g.order []
  in
  { topo_nodes; pred_lists; succ_lists }

let views t =
  match t.views with
  | Some v -> v
  | None ->
    let v = build_views t in
    t.views <- Some v;
    v

let topo t = (views t).topo_nodes
let preds t node = (views t).pred_lists.(slot (Dfg.op_count t.dfg) node)
let succs t node = (views t).succ_lists.(slot (Dfg.op_count t.dfg) node)

let degree t o =
  let g = t.g and i = Dfg.Op_id.to_int o in
  if not t.is_active.(i) then 0
  else g.pred_off.(i + 1) - g.pred_off.(i) + (g.succ_off.(i + 1) - g.succ_off.(i)) + 1

let edge_count t = t.edges

let latency_between t o1 o2 =
  let early o = t.spans.(Dfg.Op_id.to_int o).Dfg.early in
  Cfg.latency (Dfg.cfg t.dfg) (early o1) (early o2)

(* Fault-injection hook: a copy of the graph with one edge's latency weight
   replaced.  The result is deliberately allowed to be ill-formed (negative
   weights included) so tests can prove the timed-DFG validator fires. *)
let with_edge_weight t ~src ~dst ~weight =
  let no_edge () = invalid_arg "Timed_dfg.with_edge_weight: no such edge" in
  let g = t.g in
  match (src, dst) with
  | Op s, Sink d when Dfg.Op_id.equal s d && active t s ->
    let sink_lat = Array.copy g.sink_lat in
    sink_lat.(Dfg.Op_id.to_int s) <- weight;
    { t with g = { g with sink_lat }; views = None }
  | Op s, Op d ->
    let s = Dfg.Op_id.to_int s and d = Dfg.Op_id.to_int d in
    let succ_lat = Array.copy g.succ_lat and pred_lat = Array.copy g.pred_lat in
    let found = ref false in
    for k = g.succ_off.(s) to g.succ_off.(s + 1) - 1 do
      if g.succ_dst.(k) = d then begin
        succ_lat.(k) <- weight;
        found := true
      end
    done;
    if not !found then no_edge ();
    for k = g.pred_off.(d) to g.pred_off.(d + 1) - 1 do
      if g.pred_src.(k) = s then pred_lat.(k) <- weight
    done;
    { t with g = { g with succ_lat; pred_lat }; views = None }
  | Op _, Sink _ | Sink _, _ -> no_edge ()
