(* Counter family consumed by `hlsc --stats`, the bench attribution table
   and the baseline gate; see the .mli for the semantics of each. *)
let c_analyses = Obs.counter "timing.attrib.analyses"
let c_touched = Obs.counter "timing.wasted_work_ratio.touched"
let c_cone = Obs.counter "timing.wasted_work_ratio.cone"
let c_changed_bin = Obs.counter "timing.wasted_work_ratio.changed_bin"

type t = {
  tdfg : Timed_dfg.t;
  degree : int array;  (* incident timed-DFG edges per op node *)
  edge_count : int;
  mutable prev : Slack.result option;
  mutable t_analyses : int;
  mutable t_touched : int;
  mutable t_cone : int;
  mutable t_changed_bin : int;
}

let create tdfg =
  let n = Dfg.op_count (Timed_dfg.dfg tdfg) in
  let degree = Array.make n 0 in
  List.iter
    (fun o -> degree.(Dfg.Op_id.to_int o) <- Timed_dfg.degree tdfg o)
    (Timed_dfg.active_ops tdfg);
  {
    tdfg;
    degree;
    edge_count = Timed_dfg.edge_count tdfg;
    prev = None;
    t_analyses = 0;
    t_touched = 0;
    t_cone = 0;
    t_changed_bin = 0;
  }

let eps = 1e-9

let bin ~margin s =
  if margin <= 0.0 then 0 else int_of_float (Float.floor (s /. margin))

let observe t ~margin (r : Slack.result) =
  let touched = 2 * t.edge_count in
  let cone, changed_bin =
    match t.prev with
    | None ->
      (* First analysis of this context: everything is genuinely dirty
         (no bins existed yet, so no bin changed). *)
      (touched, 0)
    | Some p ->
      let cone = ref 0 and changed_bin = ref 0 in
      List.iter
        (fun o ->
          let i = Dfg.Op_id.to_int o in
          if
            Float.abs (r.Slack.arr.(i) -. p.Slack.arr.(i)) > eps
            || Float.abs (r.Slack.req.(i) -. p.Slack.req.(i)) > eps
          then begin
            cone := !cone + t.degree.(i);
            if bin ~margin r.Slack.slack.(i) <> bin ~margin p.Slack.slack.(i) then
              incr changed_bin
          end)
        (Timed_dfg.active_ops t.tdfg);
      (* Shared edges are counted once per endpoint; clamp so the cone
         never exceeds the work actually done. *)
      (min touched !cone, !changed_bin)
  in
  t.t_analyses <- t.t_analyses + 1;
  t.t_touched <- t.t_touched + touched;
  t.t_cone <- t.t_cone + cone;
  t.t_changed_bin <- t.t_changed_bin + changed_bin;
  Obs.incr c_analyses;
  Obs.add c_touched touched;
  Obs.add c_cone cone;
  Obs.add c_changed_bin changed_bin;
  t.prev <- Some r

let charge_touched n = Obs.add c_touched n

type totals = { analyses : int; touched : int; cone : int; changed_bin : int }

let instance_totals t =
  {
    analyses = t.t_analyses;
    touched = t.t_touched;
    cone = t.t_cone;
    changed_bin = t.t_changed_bin;
  }

let totals () =
  {
    analyses = Obs.value c_analyses;
    touched = Obs.value c_touched;
    cone = Obs.value c_cone;
    changed_bin = Obs.value c_changed_bin;
  }

let wasted_ratio tt =
  if tt.touched = 0 then 0.0
  else 1.0 -. (float_of_int tt.cone /. float_of_int tt.touched)
