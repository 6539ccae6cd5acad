module Program = Puma_isa.Program
module Tile = Puma_tile.Tile
module Fastexec = Puma_tile.Fastexec
module Core = Puma_arch.Core
module Network = Puma_noc.Network
module Energy = Puma_hwmodel.Energy
module Fixed = Puma_util.Fixed

exception Deadlock of string

(* Low-level instrumentation callbacks fired by the run loop. [core = -1]
   designates the tile control unit. The probe is the hook behind
   [Puma_profile.Profile]; when it is [None] the run loop pays one branch
   per event and allocates nothing. *)
type probe = {
  on_run_start : now:int -> unit;
  on_retire :
    now:int -> tile:int -> core:int -> cycles:int -> Puma_isa.Instr.t -> unit;
  on_stall : now:int -> tile:int -> core:int -> Core.stall -> unit;
  on_halt : now:int -> tile:int -> core:int -> unit;
  on_deliver : now:int -> tile:int -> fifo:int -> occupancy:int -> unit;
  on_run_end : now:int -> unit;
}

type t = {
  program : Program.t;
  config : Puma_hwmodel.Config.t;
  energy : Energy.t;
  tiles : Tile.t array;
  network : Network.t;
  core_ready : int array array;
  tcu_ready : int array;
  mutable fast_enabled : bool;
  mutable last_run_fast : bool;
  mutable now : int;
  mutable total_cycles : int;
  mutable retire_hook :
    (cycle:int -> tile:int -> core:int -> Puma_isa.Instr.t -> unit) option;
  mutable probe : probe option;
}

(* Runaway-program guard: a single run may not span more cycles. *)
let cycle_cap = 200_000_000

let create ?(noise_seed = 42) ?faults ?(fast = true) (program : Program.t) =
  let config = program.config in
  let energy = Energy.create config in
  let ntiles = Array.length program.tiles in
  let tiles =
    Array.map
      (fun (tp : Program.tile_program) ->
        Tile.create config ~index:tp.tile_index ~energy ~core_code:tp.core_code
          ~tile_code:tp.tile_code)
      program.tiles
  in
  (* Program the crossbars (serial configuration-time writes). *)
  let rng =
    if config.write_noise_sigma > 0.0 then
      Some (Puma_util.Rng.create noise_seed)
    else None
  in
  Array.iteri
    (fun ti (tp : Program.tile_program) ->
      List.iter
        (fun (img : Program.mvmu_image) ->
          let core = Tile.core tiles.(ti) img.core_index in
          (* Realize the fault plan per stack: a stack with nothing to
             inject or remap gets [None] and keeps the exact fast path,
             so a zero-fault plan is bit-identical to no plan. *)
          let fault =
            Option.bind faults (fun plan ->
                Puma_xbar.Fault.realize plan ~config ~tile:ti
                  ~core:img.core_index ~mvmu:img.mvmu_index)
          in
          Core.program_mvmu core ~index:img.mvmu_index ?rng ?fault img.weights)
        tp.mvmu_images)
    program.tiles;
  (* Preload constants. *)
  List.iter
    (fun ((b : Program.io_binding), raw) ->
      Tile.host_write tiles.(b.tile) ~addr:b.mem_addr ~values:raw)
    program.constants;
  {
    program;
    config;
    energy;
    tiles;
    network = Network.create config ~energy ~num_tiles:(max 1 ntiles);
    core_ready = Array.init ntiles (fun _ -> Array.make config.cores_per_tile 0);
    tcu_ready = Array.make ntiles 0;
    fast_enabled = fast;
    last_run_fast = false;
    now = 0;
    total_cycles = 0;
    retire_hook = None;
    probe = None;
  }

let config t = t.config
let energy t = t.energy
let cycles t = t.total_cycles
let num_tiles t = Array.length t.tiles
let tile t i = t.tiles.(i)

let retired_instructions t =
  Array.fold_left
    (fun acc tile ->
      let per_core = ref 0 in
      for c = 0 to Tile.num_cores tile - 1 do
        per_core := !per_core + Core.retired (Tile.core tile c)
      done;
      acc + !per_core)
    0 t.tiles

let tiles_used t = Program.tiles_used t.program
let network t = t.network

let inject_inputs t inputs =
  List.iter
    (fun (b : Program.io_binding) ->
      match List.assoc_opt b.name inputs with
      | None -> invalid_arg (Printf.sprintf "Node.run: missing input %s" b.name)
      | Some data ->
          if b.offset + b.length > Array.length data then
            invalid_arg
              (Printf.sprintf "Node.run: input %s too short (%d < %d)" b.name
                 (Array.length data) (b.offset + b.length));
          let raw =
            Array.init b.length (fun k ->
                Fixed.to_raw (Fixed.of_float data.(b.offset + k)))
          in
          Tile.host_write t.tiles.(b.tile) ~addr:b.mem_addr ~values:raw)
    t.program.inputs

(* Outputs are global bindings: shard [k] holds global tiles
   [k * stride, k * stride + num_tiles). *)
let read_outputs shards ~stride outputs =
  (* Group fragments by output name. *)
  let by_name = Hashtbl.create 8 in
  List.iter
    (fun (b : Program.io_binding) ->
      let frags =
        match Hashtbl.find_opt by_name b.name with
        | Some l -> l
        | None ->
            let l = ref [] in
            Hashtbl.add by_name b.name l;
            l
      in
      frags := b :: !frags)
    outputs;
  Hashtbl.fold
    (fun name frags acc ->
      let total =
        List.fold_left (fun m (b : Program.io_binding) -> max m (b.offset + b.length)) 0 !frags
      in
      let out = Array.make total 0.0 in
      List.iter
        (fun (b : Program.io_binding) ->
          let k = b.tile / stride in
          let tile = shards.(k).tiles.(b.tile - (k * stride)) in
          match Tile.host_read tile ~addr:b.mem_addr ~width:b.length with
          | None ->
              raise
                (Deadlock
                   (Printf.sprintf "output %s fragment at tile %d never written"
                      name b.tile))
          | Some raw ->
              Array.iteri
                (fun i v -> out.(b.offset + i) <- Fixed.to_float (Fixed.of_raw v))
                raw)
        !frags;
      (name, out) :: acc)
    by_name []

let all_halted t = Array.for_all Tile.all_halted t.tiles

(* The next event time after [now], or [Deadlock] with the full entity
   dump (global tile indices). The [now] sequence and the diagnostic text
   are part of the bit-identity contract. *)
let advance_or_deadlock shards ~network ~stride ~now =
  let next = ref max_int in
  let consider time = if time > now && time < !next then next := time in
  Array.iter
    (fun t ->
      Array.iter consider t.tcu_ready;
      Array.iter (Array.iter consider) t.core_ready)
    shards;
  Option.iter consider (Network.next_arrival network);
  if !next = max_int then begin
    let buf = Buffer.create 256 in
    Buffer.add_string buf
      (Printf.sprintf
         "all live entities blocked at cycle %d (in flight %d, next arrival %s)\n"
         now
         (Network.in_flight network)
         (match Network.next_arrival network with
          | Some a -> string_of_int a
          | None -> "none"));
    Array.iteri
      (fun k t ->
        Array.iteri
          (fun ti tile ->
            let global = (k * stride) + ti in
            for c = 0 to Tile.num_cores tile - 1 do
              let core = Tile.core tile c in
              if not (Core.halted core) then
                Buffer.add_string buf
                  (Printf.sprintf "  tile %d core %d blocked at pc %d\n" global
                     c (Core.pc core))
            done;
            if not (Tile.all_halted tile) then begin
              let rb = Tile.recv_buffer tile in
              let occ =
                String.concat ","
                  (List.init (Puma_tile.Recv_buffer.num_fifos rb) (fun f ->
                       string_of_int (Puma_tile.Recv_buffer.occupancy rb ~fifo:f)))
              in
              Buffer.add_string buf
                (Printf.sprintf "  tile %d tcu pc %d, fifo occupancy [%s]\n"
                   global (Tile.tcu_pc tile) occ)
            end)
          t.tiles)
      shards;
    raise (Deadlock (Buffer.contents buf))
  end
  else !next

(* Reference stepping: every ready entity (TCU then cores, tiles
   ascending) goes through [Core.step] with full probe/hook dispatch and
   per-tile energy scoping ([base] is the shard's first global tile).
   Returns whether anything retired. *)
let step_reference t ~base ~now =
  let progress = ref false in
  for ti = 0 to Array.length t.tiles - 1 do
    let tile = t.tiles.(ti) in
    Energy.set_scope t.energy (base + ti);
    if t.tcu_ready.(ti) <= now then begin
      match Tile.step_tcu tile ~now with
      | Tile.Retired { cycles; instr } ->
          t.tcu_ready.(ti) <- now + cycles;
          progress := true;
          (match t.probe with
          | Some p -> p.on_retire ~now ~tile:ti ~core:(-1) ~cycles instr
          | None -> ())
      | Tile.Blocked reason -> (
          match t.probe with
          | Some p -> p.on_stall ~now ~tile:ti ~core:(-1) reason
          | None -> ())
      | Tile.Halted -> (
          match t.probe with
          | Some p -> p.on_halt ~now ~tile:ti ~core:(-1)
          | None -> ())
    end;
    for c = 0 to Tile.num_cores tile - 1 do
      if t.core_ready.(ti).(c) <= now then begin
        match Tile.step_core tile c with
        | Core.Retired { cycles; instr } ->
            (match t.retire_hook with
            | Some hook -> hook ~cycle:now ~tile:ti ~core:c instr
            | None -> ());
            (match t.probe with
            | Some p -> p.on_retire ~now ~tile:ti ~core:c ~cycles instr
            | None -> ());
            t.core_ready.(ti).(c) <- now + cycles;
            progress := true
        | Core.Blocked reason -> (
            match t.probe with
            | Some p -> p.on_stall ~now ~tile:ti ~core:c reason
            | None -> ())
        | Core.Halted -> (
            match t.probe with
            | Some p -> p.on_halt ~now ~tile:ti ~core:c
            | None -> ())
      end
    done
  done;
  Energy.set_scope t.energy (-1);
  !progress

(* Per-run state of a shard in fast mode. Blocked-entity parking: a
   blocked attempt is effect-free and its outcome is a deterministic
   function of the tile's shared-memory state (cores: load/store) plus
   the receive-buffer state (TCU), so a retry against an unchanged
   [Shared_mem.generation] (+ the per-tile count of successful network
   deliveries, for the TCU) is guaranteed to block again: skipping it is
   unobservable. Halted entities are parked permanently ([never]) — a
   core or TCU cannot un-halt within a run. *)
type fast_state = {
  codes : Fastexec.code array array;  (** Pre-decoded streams per tile. *)
  core_park : int array array;
  tcu_park : int array;
  delivered : int array;
}

let never = max_int

let fast_state t =
  {
    codes = Array.map Tile.fast_code t.tiles;
    core_park = Array.map (fun tile -> Array.make (Tile.num_cores tile) (-1)) t.tiles;
    tcu_park = Array.make (Array.length t.tiles) (-1);
    delivered = Array.make (Array.length t.tiles) 0;
  }

(* Fast stepping: the same pass as [step_reference] minus what nothing
   can observe when it is eligible — no probe/hook dispatch, no
   [Energy.set_scope] (dead with attribution off), cores step through the
   pre-decoded [Fastexec] streams, parked entities and fully halted tiles
   are skipped. *)
let step_fast t fs ~now =
  let { codes; core_park; tcu_park; delivered } = fs in
  let progress = ref false in
  for ti = 0 to Array.length t.tiles - 1 do
    let tile = t.tiles.(ti) in
    if not (Tile.all_halted tile) then begin
      (if t.tcu_ready.(ti) <= now then
         let park = tcu_park.(ti) in
         if park <> never && park <> Tile.smem_generation tile + delivered.(ti)
         then begin
           match Tile.step_tcu tile ~now with
           | Tile.Retired { cycles; _ } ->
               t.tcu_ready.(ti) <- now + cycles;
               progress := true
           | Tile.Blocked _ ->
               tcu_park.(ti) <- Tile.smem_generation tile + delivered.(ti)
           | Tile.Halted -> tcu_park.(ti) <- never
         end);
      let fc = codes.(ti) and parks = core_park.(ti) and ready = t.core_ready.(ti) in
      for c = 0 to Tile.num_cores tile - 1 do
        if ready.(c) <= now then begin
          let park = parks.(c) in
          if park <> never && park <> Tile.smem_generation tile then begin
            let r = Tile.step_core_fast tile fc c in
            if r >= 0 then begin
              ready.(c) <- now + r;
              progress := true
            end
            else if r = Fastexec.r_halted then parks.(c) <- never
            else parks.(c) <- Tile.smem_generation tile
          end
        end
      done
    end
  done;
  !progress

(* Fast mode engages only when the run is observationally equivalent:
   any instrumentation or attribution forces reference stepping. A fault
   plan does not: faulted stacks are noisy, and the fast MVM kernel
   already falls back to the faulted one for noisy stacks. *)
let fast_eligible t =
  t.fast_enabled
  && Option.is_none t.probe
  && Option.is_none t.retire_hook
  && not (Energy.attribution_enabled t.energy)

(* Move every retired send of [tile] into the network; whether any
   moved. *)
let rec drain network tile drained =
  match Tile.pop_outgoing tile with
  | None -> drained
  | Some (o : Tile.outgoing) ->
      Network.send network ~now:o.issue_cycle
        {
          Network.src_tile = Tile.index tile;
          dst_tile = o.target_tile;
          fifo_id = o.fifo_id;
          payload = o.payload;
          seq = 0 (* assigned by Network.send *);
        };
      drain network tile true

(* Deliver every message that has arrived by [now]; a full destination
   FIFO pushes the message back with a one-cycle retry so it stays
   visible to the time advance. FIFO push energy lands on the
   destination. Whether anything was delivered. *)
let rec deliver shards modes ~network ~stride ~now delivered =
  match Network.pop_arrived network ~now with
  | None -> delivered
  | Some msg ->
      let dst = msg.Network.dst_tile in
      let k = dst / stride in
      let t = shards.(k) and local = dst - (k * stride) in
      let mode = modes.(k) in
      if Option.is_none mode then Energy.set_scope t.energy dst;
      let accepted =
        Tile.deliver t.tiles.(local) ~fifo:msg.fifo_id ~src_tile:msg.src_tile
          ~payload:msg.payload
      in
      if accepted then begin
        Network.confirm_delivered network msg;
        match mode with
        | Some fs -> fs.delivered.(local) <- fs.delivered.(local) + 1
        | None -> (
            match t.probe with
            | Some p ->
                let rb = Tile.recv_buffer t.tiles.(local) in
                p.on_deliver ~now ~tile:local ~fifo:msg.fifo_id
                  ~occupancy:(Puma_tile.Recv_buffer.occupancy rb ~fifo:msg.fifo_id)
            | None -> ())
      end
      else Network.requeue network ~now msg;
      deliver shards modes ~network ~stride ~now (delivered || accepted)

(* The run loop. Each pass: drain retired sends into the network (NoC
   and off-chip energy attributed to the sending tile), deliver arrived
   messages, step every ready entity (TCU then cores, tiles in ascending
   global order), then finish, re-pass at the same cycle on progress (a
   TCU receive can unblock a core's load within the cycle), or advance
   time. Each shard picks its stepping mode once per run. *)
let run_machine shards ~network ~stride ~outputs ~inputs =
  Array.iter
    (fun t ->
      inject_inputs t inputs;
      Array.iter Tile.reset t.tiles)
    shards;
  let start = shards.(0).now in
  Array.iter
    (fun t ->
      match t.probe with Some p -> p.on_run_start ~now:start | None -> ())
    shards;
  let modes =
    Array.map
      (fun t ->
        let fast = fast_eligible t in
        t.last_run_fast <- fast;
        if fast then Some (fast_state t) else None)
      shards
  in
  let nshards = Array.length shards in
  let now = ref start in
  let finished = ref false in
  while not !finished do
    if !now - start > cycle_cap then failwith "Node.run: cycle cap exceeded";
    let progress = ref false in
    for k = 0 to nshards - 1 do
      let t = shards.(k) in
      let scoped = Option.is_none modes.(k) in
      for ti = 0 to Array.length t.tiles - 1 do
        let tile = t.tiles.(ti) in
        if scoped then Energy.set_scope t.energy (Tile.index tile);
        if drain network tile false then progress := true
      done
    done;
    if deliver shards modes ~network ~stride ~now:!now false then
      progress := true;
    for k = 0 to nshards - 1 do
      let t = shards.(k) in
      let stepped =
        match modes.(k) with
        | Some fs -> step_fast t fs ~now:!now
        | None -> step_reference t ~base:(k * stride) ~now:!now
      in
      if stepped then progress := true
    done;
    if Array.for_all all_halted shards && Network.in_flight network = 0 then
      finished := true
    else if not !progress then
      now := advance_or_deadlock shards ~network ~stride ~now:!now
  done;
  let elapsed = !now - start in
  Array.iter
    (fun t ->
      t.now <- !now;
      t.total_cycles <- t.total_cycles + elapsed;
      match t.probe with Some p -> p.on_run_end ~now:!now | None -> ())
    shards;
  read_outputs shards ~stride outputs

let run t ~inputs =
  run_machine [| t |] ~network:t.network
    ~stride:(max 1 (Array.length t.tiles))
    ~outputs:t.program.outputs ~inputs

let finish_energy t =
  Energy.add_static t.energy ~tiles:(tiles_used t)
    ~cycles:(Float.of_int t.total_cycles);
  (* Under per-tile attribution, spread the (already recorded) static
     charge over the occupied tiles so the attributed rows account for the
     whole ledger. *)
  if Energy.attribution_enabled t.energy then begin
    let share =
      Energy.static_tile_pj t.config ~cycles:(Float.of_int t.total_cycles)
    in
    Array.iteri
      (fun ti tp ->
        if Program.tile_busy tp then Energy.attribute_pj t.energy ~tile:ti Static share)
      t.program.tiles
  end

let set_retire_hook t hook = t.retire_hook <- hook
let set_probe t probe = t.probe <- probe
let probe_attached t = t.probe <> None
let set_fast t fast = t.fast_enabled <- fast
let fast_enabled t = t.fast_enabled
let last_run_fast t = t.last_run_fast

let iter_mvmus t f =
  Array.iteri
    (fun ti (tp : Program.tile_program) ->
      List.iter
        (fun (img : Program.mvmu_image) ->
          let core = Tile.core t.tiles.(ti) img.core_index in
          f (Core.mvmu core img.mvmu_index))
        tp.mvmu_images)
    t.program.tiles
