(** Timed DFG (paper §V, Definition 2).

    Derived from a DFG and the spans of its operations by:

    + dropping loop-carried (backward) dependencies, making the graph
      acyclic;
    + dropping constant operands (constants do not affect timing);
    + adding one sink node [s(o)] per operation with an edge [o -> s(o)]
      whose weight encodes the operation's span
      ([early s(o) = late o]);
    + weighting every edge [(o1, o2)] with
      [latency (early o1) (early o2)] — the minimum number of state nodes
      between the frames in which the two operations can begin. *)

type node = Op of Dfg.Op_id.t | Sink of Dfg.Op_id.t

val node_equal : node -> node -> bool
val pp_node : Format.formatter -> node -> unit

type t

exception Unrealizable of string
(** Raised by {!build} when some dependency has undefined latency (its
    endpoint spans are not connected by a forward CFG path). *)

val build : Dfg.t -> spans:Dfg.span array -> t
(** Requires a sealed CFG and spans as produced by {!Dfg.compute_spans}
    (one entry per op, indexed by [Op_id.to_int]). *)

val dfg : t -> Dfg.t
val spans : t -> Dfg.span array

val active : t -> Dfg.Op_id.t -> bool
(** Whether the op participates in timing (constants do not). *)

val active_ops : t -> Dfg.Op_id.t list
val topo : t -> node list
(** All active nodes (ops and sinks), topologically sorted. *)

val preds : t -> node -> (node * int) list
(** Predecessors with latency weights. *)

val succs : t -> node -> (node * int) list
(** Successors with latency weights; an active op's sink comes last. *)

val degree : t -> Dfg.Op_id.t -> int
(** Timed-DFG edges incident to the op's node (its sink edge included);
    [0] for inactive ops. *)

val edge_count : t -> int

(** {1 Compiled form}

    The graph as flat int arrays, for the linear-time kernels
    ({!Slack.analyze}).  Sinks are implicit: every active op [o] has
    exactly one sink edge, of weight [sink_lat.(o)].  The arrays are
    shared with the graph and must not be mutated. *)

type csr = private {
  order : int array;     (** active op indices, topologically sorted *)
  pred_off : int array;  (** [n + 1] offsets into [pred_src]/[pred_lat] *)
  pred_src : int array;  (** dependency sources, grouped by destination *)
  pred_lat : int array;
  succ_off : int array;  (** [n + 1] offsets into [succ_dst]/[succ_lat] *)
  succ_dst : int array;  (** dependency destinations, grouped by source *)
  succ_lat : int array;
  sink_lat : int array;  (** by op index; meaningful for active ops only *)
}
(** Within each group, edges keep the order {!preds} and {!succs} list
    them in. *)

val csr : t -> csr

val latency_between : t -> Dfg.Op_id.t -> Dfg.Op_id.t -> int option
(** Latency weight that an edge between these two ops would carry:
    [Cfg.latency (early o1) (early o2)]. *)

val with_edge_weight : t -> src:node -> dst:node -> weight:int -> t
(** A copy with the [src -> dst] edge's latency weight replaced; raises
    [Invalid_argument] when no such edge exists.  Fault-injection hook: the
    copy may deliberately violate the invariants {!build} establishes
    (negative weights included), so the pipeline validators can be shown to
    catch a corrupted graph.  Not for production use. *)
