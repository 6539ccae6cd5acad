(** Multi-node scale-out: several {!Puma_sim.Node}s as one machine.

    A cluster splits a compiled program into contiguous per-node tile
    blocks (shards), runs every shard under one global clock, and routes
    all inter-tile traffic through one shared {!Puma_noc.Network} whose
    cross-node costs come from a {!Puma_noc.Fabric} — the same
    {!Puma_noc.Offchip} constants the analytical estimator uses.

    {!run} is {!Puma_sim.Node.run_machine} — the single-node run loop —
    over the shards and the fabric-aware network, so a cluster with a
    zero-cost fabric is bit-identical (outputs, cycles, energy event
    counts) to {!Puma_sim.Node.run} on the unsplit program — the contract
    [test/test_cluster.ml] pins for the whole model zoo. Each shard takes
    the fast path unless something observes it (a probe, a retire hook,
    energy attribution); see {!Puma_sim.Node.set_fast}.

    A one-node cluster is a plain {!Puma_sim.Node}: the shard keeps its
    own network, so its ledger holds everything, NoC included.

    See [docs/SCALEOUT.md]. *)

type t

val split_program : Puma_isa.Program.t -> nodes:int -> Puma_isa.Program.t array
(** Contiguous block split at stride [ceil(tiles / nodes)]: shard [k]
    keeps the global [tile_index]es of its tiles but rebases its I/O and
    constant bindings to local positions. Programs compiled with
    {!Puma_compiler.Compile.options.cluster} are padded so these blocks
    coincide with the partitioner's node assignment. *)

val create :
  ?nodes:int ->
  ?topology:Puma_noc.Fabric.topology ->
  ?zero_cost:bool ->
  ?noise_seed:int ->
  ?node_faults:Puma_xbar.Fault.plan option array ->
  Puma_isa.Program.t ->
  t
(** Split the program across [nodes] (default 2) chips connected by the
    given fabric topology (default [Mesh2d]; unused by a single chip).
    Each node programs its crossbars from its own noise stream
    ([noise_seed + k]) and its own entry of [node_faults] (length must
    equal [nodes]), modelling independent physical chips. *)

val run :
  t -> inputs:(string * float array) list -> (string * float array) list
(** One inference across the cluster: inject inputs into the owning
    shards, run the global event loop to completion, assemble outputs
    from all shards. Raises {!Puma_sim.Node.Deadlock} (naming global tile
    indices) or [Failure] (cycle cap) like the single-node simulator. *)

val config : t -> Puma_hwmodel.Config.t
val nodes : t -> int

val tiles_per_node : t -> int
(** Global tile stride between consecutive nodes' blocks. *)

val fabric : t -> Puma_noc.Fabric.t

val cycles : t -> int
(** Global cycles elapsed in completed {!run} calls. *)

val shard : t -> int -> Puma_sim.Node.t

val interconnect_energy : t -> Puma_hwmodel.Energy.t
(** The ledger the shared network charges (NoC hops and off-chip link
    words); per-node compute energy lives in each shard's ledger. For a
    single chip this is the node's own ledger. *)

val energy_counts : t -> (Puma_hwmodel.Energy.category * int) list
(** Per-category event counts summed over every shard ledger and the
    interconnect ledger (each counted once) — integers, so they compare
    exactly against a monolithic run regardless of how the ledgers were
    split. *)

val offchip_words : t -> int
(** Words that crossed chip-to-chip links (fabric hop-multiplied). *)

val dynamic_energy_pj : t -> float
(** Non-static energy derived from {!energy_counts}. *)

val finish_energy : t -> unit
(** Charge each shard's static energy for its occupied tiles over the
    cluster cycles (call once after the last {!run}). *)

val total_energy_pj : t -> float

(** {2 Per-node static gates} *)

type shard_report = {
  node : int;
  cross_out : int;  (** Distinct cross-node channels leaving this shard. *)
  cross_in : int;  (** Distinct cross-node channels entering it. *)
  report : Puma_analysis.Analyze.report;
}

val analyze_shards : nodes:int -> Puma_isa.Program.t -> shard_report list
(** Run the static gates shard by shard. A channel-closed shard (no
    cross-node channels) goes through the full {!Puma_analysis.Analyze}
    pipeline — structure, dataflow, happens-before, ranges, resources —
    exactly like a single-node program. A shard with open cross-node
    channels cannot be analyzed in isolation (its sends target remote
    tiles, its receives pair with remote sends): it reports the
    documented [W-XNODE] warning, deferring those streams to the
    whole-program compile-time gates that already cover them. *)
