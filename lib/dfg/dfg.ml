
module Op_id = Id.Make ()

type cmp = Lt | Le | Eq | Ne | Ge | Gt

type op_kind =
  | Add
  | Sub
  | Mul
  | Div
  | Modulo
  | Shl
  | Shr
  | Land
  | Lor
  | Lxor
  | Lnot
  | Cmp of cmp
  | Mux
  | Read of string
  | Write of string
  | Const of int

let op_kind_name = function
  | Add -> "add"
  | Sub -> "sub"
  | Mul -> "mul"
  | Div -> "div"
  | Modulo -> "mod"
  | Shl -> "shl"
  | Shr -> "shr"
  | Land -> "and"
  | Lor -> "or"
  | Lxor -> "xor"
  | Lnot -> "not"
  | Cmp Lt -> "lt"
  | Cmp Le -> "le"
  | Cmp Eq -> "eq"
  | Cmp Ne -> "ne"
  | Cmp Ge -> "ge"
  | Cmp Gt -> "gt"
  | Mux -> "mux"
  | Read p -> "read:" ^ p
  | Write p -> "write:" ^ p
  | Const v -> "const:" ^ string_of_int v

let pp_op_kind ppf k = Format.pp_print_string ppf (op_kind_name k)

let default_fixed = function
  | Read _ | Write _ | Mux -> true
  | Add | Sub | Mul | Div | Modulo | Shl | Shr | Land | Lor | Lxor | Lnot | Cmp _ | Const _
    -> false

type op = {
  id : Op_id.t;
  kind : op_kind;
  width : int;
  birth : Cfg.Edge_id.t;
  fixed : bool;
  name : string;
}

type dep = { src : int; dst : int; loop_carried : bool }

type span = { early : Cfg.Edge_id.t; late : Cfg.Edge_id.t }

type t = {
  cfg : Cfg.t;
  ops_v : op Vec.t;
  deps : dep Vec.t;
  mutable adj : adj option; (* invalidated on mutation *)
}

(* Derived views of [ops_v]/[deps], built on first use and dropped (with
   [adj <- None]) by every mutation, [fix_op] included (spans read the
   [fixed] flag).  The lists and the span array are handed out as they
   are, so the per-op queries allocate nothing. *)
and adj = {
  op_ids : Op_id.t list;
  fwd_succ : Op_id.t list array;
  fwd_pred : Op_id.t list array;
  all_succ : (Op_id.t * bool) list array;
  all_pred : (Op_id.t * bool) list array;
  mutable topo : Op_id.t list option;  (* forward topological order *)
  mutable spans : span array option;  (* unpinned [compute_spans] *)
}

exception Malformed of string

let create cfg = { cfg; ops_v = Vec.create (); deps = Vec.create (); adj = None }
let cfg t = t.cfg

let add_op t ~kind ~width ~birth ?fixed ?name () =
  if width <= 0 then invalid_arg "Dfg.add_op: width must be positive";
  let fixed = match fixed with Some f -> f | None -> default_fixed kind in
  let idx = Vec.length t.ops_v in
  let name =
    match name with Some n -> n | None -> Printf.sprintf "%s_%d" (op_kind_name kind) idx
  in
  let id = Op_id.of_int idx in
  ignore (Vec.push t.ops_v { id; kind; width; birth; fixed; name });
  t.adj <- None;
  id

let op t id = Vec.get t.ops_v (Op_id.to_int id)

let fix_op t id =
  let i = Op_id.to_int id in
  let o = Vec.get t.ops_v i in
  Vec.set t.ops_v i { o with fixed = true };
  t.adj <- None
let op_count t = Vec.length t.ops_v
let dep_count t = Vec.length t.deps

let add_dep t ~src ~dst ?(loop_carried = false) () =
  let s = Op_id.to_int src and d = Op_id.to_int dst in
  let n = op_count t in
  if s < 0 || s >= n || d < 0 || d >= n then invalid_arg "Dfg.add_dep: op out of range";
  if s = d && not loop_carried then
    invalid_arg "Dfg.add_dep: self dependency must be loop-carried";
  ignore (Vec.push t.deps { src = s; dst = d; loop_carried });
  t.adj <- None

let iter_ops t f = Vec.iter f t.ops_v

let adjacency t =
  match t.adj with
  | Some a -> a
  | None ->
    let n = op_count t in
    let fwd_succ = Array.make n [] and fwd_pred = Array.make n [] in
    let all_succ = Array.make n [] and all_pred = Array.make n [] in
    (* Iterate in reverse so the resulting lists are in insertion order. *)
    let ds = Vec.to_array t.deps in
    for i = Array.length ds - 1 downto 0 do
      let { src; dst; loop_carried } = ds.(i) in
      let s = Op_id.of_int src and d = Op_id.of_int dst in
      all_succ.(src) <- (d, loop_carried) :: all_succ.(src);
      all_pred.(dst) <- (s, loop_carried) :: all_pred.(dst);
      if not loop_carried then begin
        fwd_succ.(src) <- d :: fwd_succ.(src);
        fwd_pred.(dst) <- s :: fwd_pred.(dst)
      end
    done;
    let op_ids = List.init n Op_id.of_int in
    let a = { op_ids; fwd_succ; fwd_pred; all_succ; all_pred; topo = None; spans = None } in
    t.adj <- Some a;
    a

let ops t = (adjacency t).op_ids
let preds t id = (adjacency t).fwd_pred.(Op_id.to_int id)
let succs t id = (adjacency t).fwd_succ.(Op_id.to_int id)
let all_preds t id = (adjacency t).all_pred.(Op_id.to_int id)
let all_succs t id = (adjacency t).all_succ.(Op_id.to_int id)

exception Cyclic of Op_id.t list

(* Mirror of the forward-dependency relation as a Digraph, for the
   structural queries in Traverse. *)
let fwd_digraph t =
  let a = adjacency t in
  let g = Digraph.create ~initial_capacity:(op_count t) () in
  for _ = 1 to op_count t do
    ignore (Digraph.add_node g)
  done;
  Array.iteri
    (fun u succs -> List.iter (fun v -> Digraph.add_edge g u (Op_id.to_int v)) succs)
    a.fwd_succ;
  g

let forward_cycle t =
  Option.map (List.map Op_id.of_int) (Traverse.find_cycle (fwd_digraph t))

(* Kahn's algorithm; the order is cached with the adjacency (so any
   mutation drops it).  A cyclic graph is never cached: every call
   raises. *)
let compute_topo t a =
  let n = op_count t in
  let indeg = Array.make n 0 in
  for v = 0 to n - 1 do
    indeg.(v) <- List.length a.fwd_pred.(v)
  done;
  let queue = Queue.create () in
  for v = 0 to n - 1 do
    if indeg.(v) = 0 then Queue.add v queue
  done;
  let order = ref [] and count = ref 0 in
  while not (Queue.is_empty queue) do
    let u = Queue.pop queue in
    incr count;
    order := u :: !order;
    List.iter
      (fun v ->
        let v = Op_id.to_int v in
        indeg.(v) <- indeg.(v) - 1;
        if indeg.(v) = 0 then Queue.add v queue)
      a.fwd_succ.(u)
  done;
  if !count <> n then
    raise (Cyclic (match forward_cycle t with Some path -> path | None -> []));
  List.rev_map Op_id.of_int !order

let topo_order t =
  let a = adjacency t in
  match a.topo with
  | Some order -> order
  | None ->
    let order = compute_topo t a in
    a.topo <- Some order;
    order

let cycle_message t path =
  Printf.sprintf "forward dependencies are cyclic: %s"
    (String.concat " -> " (List.map (fun o -> (op t o).name) path))

let validate t =
  if not (Cfg.is_sealed t.cfg) then invalid_arg "Dfg.validate: CFG not sealed";
  (match topo_order t with
  | _ -> ()
  | exception Cyclic path -> raise (Malformed (cycle_message t path)));
  iter_ops t (fun o ->
      if Cfg.is_backward t.cfg o.birth then
        raise (Malformed (Printf.sprintf "op %s born on a backward CFG edge" o.name)));
  Vec.iter
    (fun { src; dst; loop_carried } ->
      if not loop_carried then begin
        let po = Vec.get t.ops_v src and so = Vec.get t.ops_v dst in
        if not (Cfg.reaches t.cfg po.birth so.birth) then
          raise
            (Malformed
               (Printf.sprintf "dependency %s -> %s crosses no forward CFG path" po.name
                  so.name))
      end)
    t.deps

let span_edges t { early; late } =
  List.filter
    (fun e -> Cfg.reaches t.cfg early e && Cfg.reaches t.cfg e late)
    (Cfg.forward_edges_topo t.cfg)

let is_const o = match o.kind with Const _ -> true | _ -> false

(* Spans are computed in two sweeps over the forward-topological order of
   operations: earlies forward, lates backward.  Candidate edges are scanned
   in CFG edge-topological order; graphs are small enough that the O(ops *
   edges) scan with O(1) reachability queries is cheap.  The scheduler
   respans after every CFG edge, so the sweeps keep edges as ints (-1 for
   none yet) and walk lists by plain recursion instead of building
   per-op filters, closures and options.  The unpinned result is cached
   with the adjacency (every scheduler pass starts from it). *)
let spans_with ~pin t =
  let cfg = t.cfg in
  if not (Cfg.is_sealed cfg) then invalid_arg "Dfg.compute_spans: CFG not sealed";
  let n = op_count t in
  let order = topo_order t in
  let edges_topo = Cfg.forward_edges_topo cfg in
  let edges_rev = List.rev edges_topo in
  let early = Array.make n (-1) and late = Array.make n (-1) in
  let edge i = Cfg.Edge_id.of_int i in
  let a = adjacency t in
  let const_op p = is_const (Vec.get t.ops_v (Op_id.to_int p)) in
  (* Earlies, forward: the first edge dominating the birth edge that every
     non-constant forward predecessor's early edge reaches. *)
  let rec preds_reach e = function
    | [] -> true
    | p :: rest ->
      (const_op p || Cfg.reaches cfg (edge early.(Op_id.to_int p)) e) && preds_reach e rest
  in
  let rec first_early birth ps = function
    | [] -> birth
    | e :: rest ->
      if Cfg.edge_dominates cfg e birth && preds_reach e ps then e
      else first_early birth ps rest
  in
  List.iter
    (fun id ->
      let i = Op_id.to_int id in
      let o = Vec.get t.ops_v i in
      let e =
        match pin id with
        | Some pinned -> pinned
        | None ->
          let ps = a.fwd_pred.(i) in
          if o.fixed || is_const o || List.for_all const_op ps then o.birth
          else first_early o.birth ps edges_topo
      in
      early.(i) <- Cfg.Edge_id.to_int e)
    order;
  (* Lates, backward: the last edge sink-reachable from the birth edge
     that reaches every forward successor's late edge. *)
  let rec succs_reached e = function
    | [] -> true
    | s :: rest -> Cfg.reaches cfg e (edge late.(Op_id.to_int s)) && succs_reached e rest
  in
  let rec last_late birth ss = function
    | [] -> birth
    | e :: rest ->
      if Cfg.sink_reaches cfg birth e && succs_reached e ss then e
      else last_late birth ss rest
  in
  List.iter
    (fun id ->
      let i = Op_id.to_int id in
      let o = Vec.get t.ops_v i in
      let e =
        match pin id with
        | Some pinned -> pinned
        | None ->
          if o.fixed || is_const o then o.birth
          else if List.exists (fun (_, lc) -> lc) a.all_succ.(i) then
            (* Loop-carried producers must execute on every iteration path:
               sinking them into a conditional branch would skip the update
               on the other branch.  Keep them on their birth edge. *)
            o.birth
          else last_late o.birth a.fwd_succ.(i) edges_rev
      in
      late.(i) <- Cfg.Edge_id.to_int e)
    (List.rev order);
  Array.init n (fun i ->
      let e = edge early.(i) and l = edge late.(i) in
      (* A span must be internally consistent; fall back to the birth edge
         if pinning produced an inverted window. *)
      if Cfg.reaches cfg e l then { early = e; late = l }
      else begin
        let b = (Vec.get t.ops_v i).birth in
        { early = b; late = b }
      end)

let compute_spans ?pin t =
  match pin with
  | Some pin -> spans_with ~pin t
  | None -> (
    let a = adjacency t in
    match a.spans with
    | Some s -> s
    | None ->
      let s = spans_with ~pin:(fun _ -> None) t in
      a.spans <- Some s;
      s)

let pp_op ppf o =
  Format.fprintf ppf "%s(%a, w%d, e%d%s)" o.name pp_op_kind o.kind o.width
    (Cfg.Edge_id.to_int o.birth)
    (if o.fixed then ", fixed" else "")

let pp ppf t =
  Format.fprintf ppf "@[<v>DFG: %d ops, %d deps@," (op_count t) (dep_count t);
  iter_ops t (fun o ->
      let ss = succs t o.id in
      Format.fprintf ppf "  %a ->%a@," pp_op o
        (Format.pp_print_list ~pp_sep:Format.pp_print_space (fun ppf s ->
             Format.fprintf ppf " %s" (op t s).name))
        ss);
  Format.fprintf ppf "@]"

(* ------------------------------------------------------------------ *)
(* Content digest *)

let digest t =
  let buf = Buffer.create 4096 in
  let c = t.cfg in
  Buffer.add_string buf
    (Printf.sprintf "cfg %d %d\n" (Cfg.node_count c) (Cfg.edge_count c));
  for n = 0 to Cfg.node_count c - 1 do
    Buffer.add_string buf
      (Format.asprintf "n%d %a\n" n Cfg.pp_node_kind
         (Cfg.node_kind c (Cfg.Node_id.of_int n)))
  done;
  Cfg.iter_edges c (fun e ->
      Buffer.add_string buf
        (Printf.sprintf "e%d %d %d\n" (Cfg.Edge_id.to_int e)
           (Cfg.Node_id.to_int (Cfg.edge_src c e))
           (Cfg.Node_id.to_int (Cfg.edge_dst c e))));
  Vec.iteri
    (fun i o ->
      Buffer.add_string buf
        (Printf.sprintf "o%d %s w%d b%d f%b %s\n" i (op_kind_name o.kind) o.width
           (Cfg.Edge_id.to_int o.birth) o.fixed o.name))
    t.ops_v;
  (* Dependency insertion order is a construction detail, not content:
     sort so equal graphs built in different orders digest equally. *)
  let deps = Vec.to_array t.deps in
  Array.sort
    (fun a b -> compare (a.src, a.dst, a.loop_carried) (b.src, b.dst, b.loop_carried))
    deps;
  Array.iter
    (fun d ->
      Buffer.add_string buf (Printf.sprintf "d %d %d %b\n" d.src d.dst d.loop_carried))
    deps;
  Digest.to_hex (Digest.string (Buffer.contents buf))
