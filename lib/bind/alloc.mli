(** Resource allocation: a multiset of functional-unit instances, each at a
    concrete speed grade (a point on its area/delay curve).

    The allocation is mutable on purpose: the paper's scheduling framework
    upgrades instance speed grades on the fly (slowest-first flow), adds
    instances during constraint relaxation, and downsizes grades during
    area recovery. *)

module Inst_id : Id.S

type inst = private {
  id : Inst_id.t;
  rk : Resource_kind.t;
  width : int;
  curve : Curve.t;
  mutable point : Curve.point;
}

type grading =
  | Continuous  (** any delay in the curve's range, interpolated area *)
  | Discrete    (** only the characterised curve points (Table 1 grid) *)

type t

val create : ?grading:grading -> Library.t -> t
(** [grading] defaults to [Continuous]. *)

val library : t -> Library.t
val grading : t -> grading

val add_instance : t -> rk:Resource_kind.t -> width:int -> delay:float -> inst
(** Creates an instance graded at the requested delay: the exact
    (interpolated) point under [Continuous] grading, or
    [Curve.snap_down curve delay] under [Discrete] (the slowest
    characterised point not slower than requested; the fastest point when
    [delay] is below the whole curve). *)

val instance : t -> Inst_id.t -> inst
val instances : t -> inst list
val count : t -> int

val compatible : inst -> op_kind:Dfg.op_kind -> width:int -> bool
(** The instance's kind can execute the op and its width suffices. *)

val set_grade : t -> Inst_id.t -> delay:float -> unit
(** Re-grade to the requested delay (snapped per the grading mode). *)

val upgrade_to_fit : t -> Inst_id.t -> max_delay:float -> bool
(** Speed the instance up just enough that its delay is [<= max_delay]
    (snap down on the curve).  Returns [false] when even the fastest point
    is too slow; the grade is then left unchanged. *)

val fu_area : t -> float
(** Sum of instance areas at their current grades. *)

val copy : t -> t
(** Deep copy (fresh instances with the same ids and grades); used by
    relaxation loops to roll back failed attempts. *)

val pp : Format.formatter -> t -> unit
