(** PUMAsim: cycle-approximate functional co-simulation of a node.

    Executes a compiled {!Puma_isa.Program.t} on the tile/core/NoC models:
    cores and tile control units advance independently, blocking on the
    shared-memory attribute protocol and on receive FIFOs; messages
    traverse the mesh with the {!Puma_noc.Network} latency model. The
    simulator detects deadlock (every live entity blocked with an idle
    network) and reports aggregate cycles and the shared energy ledger.

    There is one run loop, {!run_machine}, over an array of nodes sharing
    one network; {!run} passes a single node. Each node in a run is
    stepped in one of two modes: reference stepping through
    {!Puma_arch.Core.step} with probe dispatch, or the pre-decoded fast
    path when nothing observes the node (see {!set_fast}). *)

exception Deadlock of string

(** Low-level instrumentation callbacks fired by the run loop (the hook
    behind {!Puma_profile.Profile}). In every callback [core = -1]
    designates the tile control unit, and [now] is the simulated cycle.

    Semantics the consumer can rely on:
    - [on_run_start]/[on_run_end] bracket each {!run} (not fired when the
      run aborts on deadlock or the cycle cap);
    - [on_retire] fires once per retired instruction, which occupies the
      entity for [cycles] starting at [now];
    - [on_stall] fires on {e every} failed step attempt of a ready entity
      (typically many times per stall episode, all with the same reason
      until the dependency resolves);
    - [on_halt] fires when a halted entity is stepped — the first time at
      exactly the cycle the entity ran out of work, and again on every
      later scheduler pass (consumers deduplicate);
    - [on_deliver] fires when a message enters a receive FIFO, with the
      occupancy after the push.

    When no probe is attached the run loop pays one branch per event and
    allocates nothing. *)
type probe = {
  on_run_start : now:int -> unit;
  on_retire :
    now:int -> tile:int -> core:int -> cycles:int -> Puma_isa.Instr.t -> unit;
  on_stall : now:int -> tile:int -> core:int -> Puma_arch.Core.stall -> unit;
  on_halt : now:int -> tile:int -> core:int -> unit;
  on_deliver : now:int -> tile:int -> fifo:int -> occupancy:int -> unit;
  on_run_end : now:int -> unit;
}

type t

val create :
  ?noise_seed:int ->
  ?faults:Puma_xbar.Fault.plan ->
  ?fast:bool ->
  Puma_isa.Program.t ->
  t
(** Instantiate tiles, program crossbars (with write noise when the
    program's configuration has [write_noise_sigma > 0]; [noise_seed]
    makes it reproducible) and preload constant vectors.

    [fast] (default [true]) allows {!run} to step through the
    pre-decoded fast path when nothing can observe the difference — see
    {!set_fast} for the exact engagement rule. Results are bit-identical
    either way; pass [~fast:false] to force cycle-accurate reference
    stepping (e.g. as the golden side of a differential test).

    [faults] injects device/circuit faults at configuration time: each
    MVMU's fault set is realized deterministically from the plan's model
    and seed plus the stack's [(tile, core, mvmu)] coordinates, and its
    weights are routed through the plan's remap permutations when
    present. A plan with nothing to inject or remap leaves every stack
    on the exact fast path — bit-identical to passing no plan. *)

val config : t -> Puma_hwmodel.Config.t
val energy : t -> Puma_hwmodel.Energy.t
val num_tiles : t -> int

val tile : t -> int -> Puma_tile.Tile.t
(** The [i]-th tile model, for inspection (register files, shared
    memory); stepping it directly would corrupt the run loop. *)

val cycles : t -> int
(** Cycles elapsed in completed {!run} calls. *)

val run :
  t -> inputs:(string * float array) list -> (string * float array) list
(** Inject inputs, execute to completion, read outputs back. Raises
    {!Deadlock} or [Failure] on a runaway program (cycle cap). The
    instruction streams are reset between runs but register/memory
    contents persist (as in hardware), so each [run] is one inference. *)

val retired_instructions : t -> int
val tiles_used : t -> int
(** Tiles with at least one instruction (used for static-energy
    accounting). *)

val finish_energy : t -> unit
(** Charge static energy for the occupied tiles over the simulated cycles
    (call once after the last [run]). *)

val iter_mvmus : t -> (Puma_xbar.Mvmu.t -> unit) -> unit
(** Visit every MVMU that holds a programmed crossbar image (for fault
    injection and inspection). *)

val set_retire_hook :
  t -> (cycle:int -> tile:int -> core:int -> Puma_isa.Instr.t -> unit) option -> unit
(** Install (or clear) a callback invoked at every retired core
    instruction — the hook behind {!Trace}. Independent of {!set_probe}
    (a trace and a profiler can coexist). *)

val set_probe : t -> probe option -> unit
(** Install (or clear) the instrumentation probe. Attaching a probe never
    changes simulation results: instruction semantics, cycle counts and
    the energy ledger totals are bit-identical with and without one. *)

val probe_attached : t -> bool

val set_fast : t -> bool -> unit
(** Allow or forbid the fast execution path for subsequent {!run} calls.
    Even when allowed, fast mode engages only if the run is
    observationally equivalent to reference stepping: no probe attached,
    no retire hook installed, per-tile energy attribution off. A fault
    plan does not demote the node: faulted stacks are noisy and the fast
    MVM kernel runs them through the faulted reference kernel. Outputs,
    cycle counts, retired counts and the energy ledger (counts {e and}
    picojoules) are bit-identical in both modes — the contract
    test/test_fastpath.ml enforces. *)

val fast_enabled : t -> bool
(** Whether the fast path is currently allowed (not whether it ran). *)

val last_run_fast : t -> bool
(** Whether the most recent {!run} actually stepped this node in fast
    mode ([false] before the first run). *)

(** {2 Multi-node run}

    [Puma_cluster.Cluster] runs several nodes as shards of one machine
    through the same loop {!run} uses: one global clock, one shared
    network, shards stepped in ascending global tile order. {!run} is the
    one-shard case on the node's own network. *)

val network : t -> Puma_noc.Network.t
(** The node's own on-chip network (charging {!energy}); the one {!run}
    uses. *)

val run_machine :
  t array ->
  network:Puma_noc.Network.t ->
  stride:int ->
  outputs:Puma_isa.Program.io_binding list ->
  inputs:(string * float array) list ->
  (string * float array) list
(** One inference over [shards] sharing [network]. Shard [k] holds the
    global tiles [k * stride] onward (its program keeps their global
    [tile_index]es, with I/O bindings rebased to local positions);
    [network] routes by global tile index and [outputs] are global
    bindings. The shards' clocks must agree (they do when the shards only
    ever run together). Each shard picks its stepping mode once per run
    by the {!set_fast} rule, so a probe on one shard puts only that shard
    on reference stepping. Every shard's {!cycles},
    {!last_run_fast} and probe callbacks are updated as for {!run}. With a
    zero-cost fabric the event sequence is the one {!run} produces on the
    unsplit program. Raises like {!run}; deadlock dumps name global tile
    indices. *)
