(** Sequential-slack budgeting (paper §V, Figure 7).

    Each operation has a delay range [dmin, dmax] — the fastest and slowest
    implementations in the resource library.  Budgeting assigns each
    operation a delay inside its range such that the aligned sequential
    slack of every operation is non-negative (when possible), while pushing
    delays as high as the slack allows so that area recovery can pick
    slower, smaller resources.

    The paper prescribes two phases (Fig. 7 steps 3–4): repair negative
    aligned slack by decreasing delays, then budget the remaining positive
    slack by increasing them.  This implementation realises the phases as:

    - {e negative phase}: a bisection over a global knob [lambda], where
      every delay is [dmin + lambda * (dmax - dmin)].  Aligned slack is
      monotone in delays, so the largest feasible [lambda] is well defined;
      this both repairs negative slack and provides a fair initial spread.
    - {e positive phase}: zero-slack-style refinement.  Operations are
      visited in decreasing order of area sensitivity; each op's delay is
      raised by its (binned) slack, the increase being kept only if a full
      timing verification stays feasible.  Slack {e binning} (paper: 5% of
      the clock) treats slacks below the margin as zero and bounds the
      number of updates per operation.

    Both phases use {e aligned} slack by default, so chained operations
    that would straddle a clock boundary are accounted for — the effect
    that makes the paper's interpolation example (Fig. 2d) pick 550 ps
    multipliers. *)

type engine =
  | Two_pass
      (** the paper's contribution: one forward and one backward sweep in
          topological order, O(E) per analysis *)
  | Bellman_ford_baseline
      (** prior work (paper ref. [10], Table 5 right column): every
          analysis first runs the Bellman-Ford fixpoint over the
          constraint graph (its cost), then derives the aligned values
          from the linear sweep so results stay identical — Bellman-Ford
          cannot express clock alignment *)

type config = {
  margin_frac : float;  (** slack bin as a fraction of the clock; paper: 0.05 *)
  aligned : bool;       (** use aligned slack (default true) *)
  max_rounds : int;     (** refinement sweep bound (default 8) *)
  bisection_steps : int; (** lambda bisection iterations (default 24) *)
  engine : engine;      (** timing-analysis engine (default [Two_pass]) *)
}

val default_config : config

val relax : config -> config
(** A strictly more persistent configuration — coarser slack bin, more
    refinement rounds, finer bisection — used by the scheduling recovery
    ladder's re-budgeting rung.  Safe to apply repeatedly (every knob is
    clamped). *)

type infeasible = {
  slack_at_min : Slack.result;  (** analysis with every delay at its minimum *)
  critical : Dfg.Op_id.t list;  (** ops pinning the negative slack *)
}

type outcome =
  | Feasible of float array
      (** budgeted delay per op index (dmin of the range for inactive ops) *)
  | Infeasible of infeasible
      (** even the fastest resources miss the clock: the scheduler must
          relax (add states) or the design is overconstrained *)

val run :
  ?config:config ->
  ?event_phase:string ->
  ?attrib:Attrib.t ->
  ?emit:(Obs.Events.payload -> unit) ->
  Timed_dfg.t ->
  clock:float ->
  ranges:(Dfg.Op_id.t -> Interval.t) ->
  sensitivity:(Dfg.Op_id.t -> float -> float) ->
  outcome
(** [ranges] gives each active op's delay interval (callers typically clamp
    the upper end to the clock period); [sensitivity o d] is the area saved
    per unit of delay added at delay [d] (see {!Curve.sensitivity}).

    [attrib] is the work-attribution tracker every timing analysis of this
    run is observed into (see {!Attrib.observe}); a run-private tracker is
    created when omitted, so the global wasted-work counters are always
    charged.  Pass one explicitly to also read {!Attrib.instance_totals}
    for this run alone.

    [event_phase] (default ["budget"]) tags the provenance events this run
    emits ({!Obs.Events.Slack_computed}, {!Obs.Events.Delay_update},
    {!Obs.Events.Budget_round}) so replay can distinguish the initial
    budgeting pass from per-edge re-budgeting (["rebudget"]) and the
    recovery ladder (["recovery"]).  They go through [emit] (default
    {!Obs.Events.emit}), and only while events are enabled; a caller that
    passes its own sink sees exactly the payloads this run records, in
    order, whatever other domains emit meanwhile. *)

val delays_at : lambda:float -> Timed_dfg.t -> ranges:(Dfg.Op_id.t -> Interval.t) -> float array
(** The uniform-knob delay assignment used by the negative phase; exposed
    for tests and ablation benchmarks. *)
