(** The resource- and timing-constrained schedule pass (paper Figure 8).

    CFG edges are visited in topological order; at each edge the ready
    operations (span contains the edge, every forward predecessor placed
    with its value available here) are scheduled in priority order onto
    compatible, conflict-free resource instances whose effective delay
    (grade + mux steering penalty) fits the remaining step budget.  An
    operation that does not fit is deferred to a later edge of its span;
    if the current edge is the {e last} of its span, the pass fails with a
    diagnosis that drives the relaxation loop.

    After every edge, the pass can recompute operation spans with the
    placements pinned and then re-run slack budgeting on them (paper
    Schedule_pass steps c-d) — sharing merges critical paths, so
    criticality must be refreshed. *)

type failure_reason =
  | No_resource of { op : Dfg.Op_id.t; rk : Resource_kind.t; width : int }
      (** every compatible instance is busy in this step *)
  | Too_slow of { op : Dfg.Op_id.t; window : float; blame : (Resource_kind.t * int) option }
      (** instances exist but none (even upgraded) fits the remaining
          combinational window; [blame] names the resource group whose
          starvation pushed the chain this late (found by walking the
          latest-finishing producer chain) *)
  | No_time of { op : Dfg.Op_id.t; blame : (Resource_kind.t * int) option }
      (** the operation's ready time already exceeds the step budget:
          relax by widening the blamed group, or add a state *)
  | Retime_failed of string
      (** final retiming with exact mux fan-ins found a violation *)

type failure = { reason : failure_reason; message : string }

val pp_failure : Format.formatter -> failure -> unit

(** What the pass does after scheduling each CFG edge.  Re-budgeting
    needs the freshly pinned spans, so it only comes with respanning. *)
type after_edge =
  | Keep_spans
  | Respan  (** recompute spans with the placements so far pinned *)
  | Respan_and_rebudget of (Schedule.t -> Dfg.span array -> unit)
      (** respan, then call the hook with the new spans (inside a
          [sched.rebudget] span) *)

type params = {
  clock : float;
  ii : int option;
      (** pipelining initiation interval (see {!Schedule.create}); loop
          pipelining adds the recurrence constraint that a loop-carried
          producer lands within [ii] steps of its consumer, and folds
          resource booking modulo [ii] *)
  priority : Dfg.Op_id.t -> float;
      (** lower schedules first (criticality) *)
  target : Dfg.Op_id.t -> float;
      (** budgeted delay: instance selection prefers the cheapest fitting
          instance not slower than needed *)
  upgrade_on_miss : bool;
      (** speed up an existing instance when nothing fits (slowest-first
          and slack-based flows) *)
  after_edge : after_edge;
}

val run : Dfg.t -> alloc:Alloc.t -> params -> (Schedule.t, failure) result
(** Requires a validated DFG over a sealed CFG.  On success the returned
    schedule has passed {!Schedule.retime} with final fan-ins.  Telemetry
    spans: each edge's ready and placement sweeps run in [sched.list],
    respans in [sched.respan], the re-budget hook in [sched.rebudget] and
    the final retiming in [sched.retime]. *)
