(** Declarative device/circuit fault models for crossbar stacks.

    PUMA's evaluation treats memristor write noise as the only
    non-ideality, but real in-memory inference chips also degrade from
    stuck cells, dead lines, conductance drift and ADC offset (the
    dominant accuracy risks reported for fabricated PCM inference chips).
    This module describes those faults declaratively and realizes them
    deterministically per crossbar stack from seeded {!Puma_util.Rng}
    child streams, so any campaign point is bit-reproducible from
    [(model, seed, tile, core, mvmu)].

    Orientation: a crossbar stack computes [out(i) = sum_j w(i,j) * x(j)].
    Input line [j] is a physical wordline (a "crossbar row"); output line
    [i] is a physical bitline (a "crossbar column"). A dead input line
    drops contribution [x(j)] everywhere; a dead output line zeroes
    [out(i)] entirely. *)

(** Declarative fault model: per-device / per-line Bernoulli rates plus
    the deterministic drift and ADC impairments. All rates are
    probabilities in [0, 1]; [ideal] has every impairment off. *)
type t = {
  stuck_rate : float;
      (** Per physical device (each bit-slice of each polarity): the
          device is stuck at one of its extreme conductances. *)
  stuck_on_fraction : float;
      (** Fraction of stuck devices pinned at max conductance (ON); the
          rest are stuck OFF. *)
  dead_in_rate : float;
      (** Per input line (wordline / "crossbar row") of the stack. *)
  dead_out_rate : float;
      (** Per output line (bitline / "crossbar column") of the stack. *)
  drift_tau_cycles : float;
      (** Conductance-drift time constant in cycles ([<= 0] disables). *)
  drift_age_cycles : float;
      (** Age at read time: every cell has decayed toward its mid-level
          by [exp (-. age /. tau)]. *)
  adc_offset_sigma : float;
      (** Sigma (in ADC LSBs) of the static per-column conversion offset
          added to each slice digitization. *)
}

val ideal : t
(** Every impairment off. *)

val is_ideal : t -> bool

val validate : t -> (t, string) result
(** Checks rates are in [0, 1] and sigmas/taus are non-negative; NaN
    fails both checks. *)

val pp : Format.formatter -> t -> unit

(** One realized stuck device inside a crossbar stack. *)
type stuck = {
  slice : int;  (** Bit-slice index within the polarity stack. *)
  negative : bool;  (** Polarity stack (differential pair). *)
  out_line : int;
  in_line : int;
  on : bool;  (** Stuck at max conductance (ON) or zero (OFF). *)
}

(** The realized fault set of one crossbar stack (one MVMU): which
    physical devices and lines are broken, plus the deterministic drift
    factor and static ADC offsets. *)
type instance = {
  dim : int;
  stuck : stuck list;
  dead_in : bool array;  (** Indexed by input line. *)
  dead_out : bool array;  (** Indexed by output line. *)
  drift_factor : float;  (** 1.0 = no drift. *)
  adc_offset : int array array;
      (** [adc_offset.(slice).(out_line)] in LSBs; [[||]] when off. *)
}

val is_null : instance -> bool
(** No stuck devices, no dead lines, no drift, no ADC offset. *)

val count : instance -> int
(** Faulty elements: stuck devices plus dead lines (each line counts
    once). *)

(** Fault-aware line remapping (computed by [Puma_fault.Remap]):
    logical line [k] of the programmed matrix is placed on physical line
    [perm.(k)]. Both arrays are permutations of [0 .. dim-1]; the MVM
    routes inputs/outputs through them, so in exact arithmetic a
    permuted stack is equivalent to an unpermuted one — the only effect
    is which physical devices hold which logical weights. *)
type perms = { out_perm : int array; in_perm : int array }

val identity_perms : dim:int -> perms
val is_identity : perms -> bool

(** Everything {!Bitslice} needs to materialize one faulty stack. *)
type spec = { instance : instance; perms : perms option }

(** A node-level fault plan: the declarative model, the campaign seed it
    is realized from, and the remap table filled in by the fault-aware
    remapping pass (keyed by [(tile, core, mvmu)]). *)
type plan = {
  model : t;
  seed : int;
  remap : (int * int * int, perms) Hashtbl.t;
}

val plan : ?seed:int -> t -> plan
(** A plan with an empty remap table (default [seed = 0]). *)

val realize_instance :
  t ->
  seed:int ->
  tile:int ->
  core:int ->
  mvmu:int ->
  dim:int ->
  slices:int ->
  instance
(** Deterministically realize the fault set of the stack at
    [(tile, core, mvmu)]: independent {!Puma_util.Rng} child streams are
    derived from the seed and the coordinates, so the result never
    depends on evaluation order or on any other stack. *)

val realize :
  plan -> config:Puma_hwmodel.Config.t -> tile:int -> core:int -> mvmu:int ->
  spec option
(** The spec for one MVMU under the plan, or [None] when there is
    nothing to inject or remap there (the caller keeps the exact
    fast path — a zero-fault plan is bit-identical to no plan). *)
