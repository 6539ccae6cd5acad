(* Shared pieces of the workloads: timing, output validation, warmed
   machines, per-inference ledger deltas, and the stage-by-stage compile
   the traced run uses. *)

module Json = Puma_util.Json
module Energy = Puma_hwmodel.Energy
module Config = Puma_hwmodel.Config
module Program = Puma_isa.Program
module Node = Puma_sim.Node
module Cluster = Puma_cluster.Cluster
module Batch = Puma_runtime.Batch
module Graph = Puma_graph.Graph
module Compile = Puma_compiler.Compile
module Analyze = Puma_analysis.Analyze
module Equiv = Puma_analysis.Equiv

exception Mismatch of string

let mismatch fmt = Printf.ksprintf (fun s -> raise (Mismatch s)) fmt

(* ---- Settings read from perfbench/spec.json ---- *)

let spec =
  lazy
    (let path = Filename.concat "perfbench" "spec.json" in
     let text = In_channel.with_open_bin path In_channel.input_all in
     match Json.parse text with
     | Ok j -> j
     | Error e -> failwith (path ^ ": " ^ e))

let spec_float key =
  match Option.bind (Json.member key (Lazy.force spec)) Json.to_float with
  | Some v -> v
  | None -> failwith ("perfbench/spec.json: missing number " ^ key)

(* Largest |simulated - float reference| an output element may show. *)
let error_budget () = spec_float "error_budget_abs"

(* ---- Timing ---- *)

let time f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

(* Host-speed calibration. The host this benchmark was tuned on (2 vCPUs
   shared with other tenants) runs the same code up to ~1.7x slower for
   seconds at a time, and runs of 20 s can spend all of their time in
   either state: raw host times of one workload moved by 15-30% between
   runs of identical code. A fixed, cache-resident compute loop timed
   right before and after every host sample sees the same slowdown, so
   each sample is reported in calibrated seconds:

     seconds * calibration_reference_s / calibration time

   i.e. the time the work would take when the loop takes its reference
   time (its uncontended time on the tuning host). A change that speeds
   up the program moves the sample and not the loop. *)
let calibration_data = Array.init 16384 Float.of_int

let calibrate () =
  let t0 = Unix.gettimeofday () in
  let s = ref 0.0 in
  for _ = 1 to 300 do
    for i = 0 to 16383 do
      s := !s +. Array.unsafe_get calibration_data ((i * 8) land 16383)
    done
  done;
  ignore (Sys.opaque_identity !s);
  Unix.gettimeofday () -. t0

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Linear-interpolation quantile, as [Puma_util.Stats.percentile]. *)
let lower_quartile xs = Puma_util.Stats.percentile (Array.of_list xs) 25.0

let geomean xs = Puma_util.Stats.geomean (Array.of_list xs)
let mean xs = List.fold_left ( +. ) 0.0 xs /. Float.of_int (List.length xs)

(* ---- Correctness ---- *)

(* Outcome tally of one pass: every compiled program and every inference
   is an operation. [failed] counts outputs over the error budget and
   refused requests; [gate_errors] counts programs the default analysis
   gate rejects (their programs still run, see [ok_frac]). An exception
   stops the whole run. *)
type tally = {
  mutable attempted : int;
  mutable failed : int;
  mutable gate_errors : int;
  mutable max_err : float;
}

let tally () = { attempted = 0; failed = 0; gate_errors = 0; max_err = 0.0 }

let merge ts =
  let m = tally () in
  List.iter
    (fun t ->
      m.attempted <- m.attempted + t.attempted;
      m.failed <- m.failed + t.failed;
      m.gate_errors <- m.gate_errors + t.gate_errors;
      m.max_err <- Float.max m.max_err t.max_err)
    ts;
  m

let ok_frac t =
  Float.of_int (t.attempted - t.failed - t.gate_errors) /. Float.of_int t.attempted

(* Compare one inference against the float reference. *)
let check_outputs t ~want got =
  t.attempted <- t.attempted + 1;
  let over = ref false in
  List.iter
    (fun (name, w) ->
      match List.assoc_opt name got with
      | None -> over := true
      | Some h ->
          let e = Puma_util.Tensor.vec_max_abs_diff w h in
          if e > t.max_err then t.max_err <- e;
          if not (e <= error_budget ()) then over := true)
    want;
  if !over then t.failed <- t.failed + 1

let check_compile t (r : Compile.result) =
  t.attempted <- t.attempted + 1;
  if Analyze.has_errors r.Compile.analysis then t.gate_errors <- t.gate_errors + 1

let code_instrs (p : Program.t) =
  Array.fold_left
    (fun acc (tp : Program.tile_program) ->
      Array.fold_left (fun a c -> a + Array.length c) acc tp.core_code
      + Array.length tp.tile_code)
    0 p.tiles

(* ---- Warmed machines and per-inference deltas ---- *)

let zeros program =
  List.map (fun (name, len) -> (name, Array.make len 0.0)) (Batch.input_lengths program)

(* Node.create plus one throwaway all-zero inference: the machine state
   Batch.warmed_node gives, with the two halves traced apart. *)
let warm_node ?faults program =
  let node = Span.with_ "sim.create" (fun () -> Node.create ?faults program) in
  Span.with_ "sim.warmup" (fun () -> ignore (Node.run node ~inputs:(zeros program)));
  node

let warm_cluster ~nodes ~topology program =
  let c = Span.with_ "cluster.create" (fun () -> Cluster.create ~nodes ~topology program) in
  Span.with_ "sim.warmup" (fun () -> ignore (Cluster.run c ~inputs:(zeros program)));
  c

let cat_index =
  let cats = Array.of_list Energy.all_categories in
  fun c ->
    let rec go i = if cats.(i) = c then i else go (i + 1) in
    go 0

(* Dynamic energy from integer event-count deltas summed in fixed category
   order: the computation Batch and Serve.Engine use, so the traced
   replica's costs match theirs bit for bit. *)
let energy_delta_pj config ~before ~after =
  List.fold_left
    (fun (i, acc) cat ->
      (i + 1, acc +. (Float.of_int (after.(i) - before.(i)) *. Energy.per_event_pj config cat)))
    (0, 0.0) Energy.all_categories
  |> snd

(* What one inference cost on the simulated machine. *)
type cost = {
  outputs : (string * float array) list;
  cycles : int;
  dynamic_pj : float;
  static_pj : float;
  retired : int;
  mvms : int;
  hops : int;
  offchip : int;
  fast : bool;
}

let node_counts node =
  Array.of_list (List.map (Energy.count (Node.energy node)) Energy.all_categories)

let infer_node node ~inputs =
  let config = Node.config node in
  let c0 = Node.cycles node and r0 = Node.retired_instructions node in
  let e0 = node_counts node in
  let outputs = Span.with_ "sim.run" (fun () -> Node.run node ~inputs) in
  let e1 = node_counts node in
  let cycles = Node.cycles node - c0 in
  {
    outputs;
    cycles;
    dynamic_pj = energy_delta_pj config ~before:e0 ~after:e1;
    static_pj =
      Energy.static_tile_pj config ~cycles:(Float.of_int cycles)
      *. Float.of_int (Node.tiles_used node);
    retired = Node.retired_instructions node - r0;
    mvms = e1.(cat_index Energy.Mvm) - e0.(cat_index Energy.Mvm);
    hops = e1.(cat_index Energy.Noc) - e0.(cat_index Energy.Noc);
    offchip = 0;
    fast = Node.last_run_fast node;
  }

let cluster_counts c = Array.of_list (List.map snd (Cluster.energy_counts c))

let cluster_retired c =
  let n = ref 0 in
  for k = 0 to Cluster.nodes c - 1 do
    n := !n + Node.retired_instructions (Cluster.shard c k)
  done;
  !n

let infer_cluster c ~inputs =
  let config = Cluster.config c in
  let c0 = Cluster.cycles c and r0 = cluster_retired c in
  let w0 = Cluster.offchip_words c in
  let e0 = cluster_counts c in
  let outputs = Span.with_ "cluster.run" (fun () -> Cluster.run c ~inputs) in
  let e1 = cluster_counts c in
  let cycles = Cluster.cycles c - c0 in
  let static_pj = ref 0.0 in
  for k = 0 to Cluster.nodes c - 1 do
    static_pj :=
      !static_pj
      +. Energy.static_tile_pj config ~cycles:(Float.of_int cycles)
         *. Float.of_int (Node.tiles_used (Cluster.shard c k))
  done;
  {
    outputs;
    cycles;
    dynamic_pj = energy_delta_pj config ~before:e0 ~after:e1;
    static_pj = !static_pj;
    retired = cluster_retired c - r0;
    mvms = e1.(cat_index Energy.Mvm) - e0.(cat_index Energy.Mvm);
    hops = e1.(cat_index Energy.Noc) - e0.(cat_index Energy.Noc);
    offchip = Cluster.offchip_words c - w0;
    fast = false;
  }

(* Per-layer counts summed over a list of inference costs. *)
let cost_layers costs =
  let n = Float.of_int (List.length costs) in
  let sum f = List.fold_left (fun a c -> a +. f c) 0.0 costs in
  let dyn = sum (fun c -> c.dynamic_pj) and stat = sum (fun c -> c.static_pj) in
  [
    ("sim.retired_per_inf", sum (fun c -> Float.of_int c.retired) /. n);
    ("sim.fast_run_frac", sum (fun c -> if c.fast then 1.0 else 0.0) /. n);
    ("xbar.mvms_per_inf", sum (fun c -> Float.of_int c.mvms) /. n);
    ("noc.hops_per_inf", sum (fun c -> Float.of_int c.hops) /. n);
    ("noc.offchip_words_per_inf", sum (fun c -> Float.of_int c.offchip) /. n);
    ("energy.static_frac", stat /. (dyn +. stat));
  ]

(* ---- Compile, whole or stage by stage ---- *)

(* The benchmark judges the default analysis gate itself (see
   [check_compile]), so a gated-out program still runs and is measured;
   the gate's analysis work is the same either way. *)
let options ?cluster () =
  { Compile.default_options with analysis_gate = false; cluster }

(* [Compile.compile], replayed stage by stage through the compiler's
   public modules so the traced run can time each stage. The traced run
   checks that the result equals [Compile.compile]'s. Also returns the
   lowered graph's node count, which the result does not carry. *)
let staged_compile (options : Compile.options) (config : Config.t) g =
  let open Puma_compiler in
  let g, optimize_stats =
    Span.with_ "compiler.optimize" (fun () ->
        (match Graph.validate g with Ok () -> () | Error e -> invalid_arg e);
        let g', s = Optimize.run g in
        (match Graph.validate g' with Ok () -> () | Error e -> failwith e);
        (g', Some s))
  in
  let lg = Span.with_ "compiler.tiling" (fun () -> Tiling.lower ~dim:config.mvmu_dim g) in
  let part =
    Span.with_ "compiler.partition" (fun () ->
        Partition.partition ?cluster:options.cluster config options.partition_strategy lg)
  in
  let sched =
    Span.with_ "compiler.schedule" (fun () ->
        Schedule.build ~coalesce:options.coalesce_mvms lg part)
  in
  let program, codegen_stats, provenance =
    Span.with_ "compiler.codegen" (fun () ->
        Codegen.generate config ~wrap_batch_loop:options.wrap_batch_loop g lg part sched)
  in
  let program, provenance, sequencing_stats =
    Span.with_ "compiler.sequencing" (fun () -> Sequencing.repair program ~provenance)
  in
  let program =
    match options.cluster with
    | None -> program
    | Some _ ->
        let have = Array.length program.tiles in
        let empty i =
          {
            Program.tile_index = i;
            core_code = Array.make config.cores_per_tile [||];
            tile_code = [||];
            mvmu_images = [];
          }
        in
        {
          program with
          tiles =
            Array.init
              (max have (part.nodes_used * part.tiles_per_node))
              (fun i -> if i < have then program.tiles.(i) else empty i);
        }
  in
  (* Source-graph layer label of every instruction, as Compile.compile
     derives it for the analysis' per-layer attributions. *)
  let labels =
    let ns = Graph.nodes g in
    let labels = Array.make (Array.length ns) None in
    Array.iter
      (fun (n : Graph.node) ->
        labels.(n.id) <-
          (match n.op with
          | Mvm { matrix } -> Some (Graph.matrix g matrix).mat_name
          | Input name | Output name -> Some name
          | Const_vec _ | Binop _ | Unop _ | Immop _ | Concat | Slice _ ->
              Array.fold_left (fun acc p -> if acc = None then labels.(p) else acc) None n.preds))
      ns;
    labels
  in
  let layer_of ~tile ~core ~pc =
    let get a i = if i >= 0 && i < Array.length a then Some a.(i) else None in
    let src =
      match core with
      | Some c ->
          Option.bind (get provenance.Codegen.core_src tile) (fun cs ->
              Option.bind (get cs c) (fun s -> get s pc))
      | None -> Option.bind (get provenance.tile_src tile) (fun s -> get s pc)
    in
    match src with Some s when s >= 0 && s < Array.length labels -> labels.(s) | _ -> None
  in
  let num_mvm_nodes =
    Array.fold_left
      (fun acc (n : Lgraph.lnode) -> match n.op with L_mvm _ -> acc + 1 | _ -> acc)
      0 (Lgraph.nodes lg)
  in
  let equiv_reference, equiv =
    Span.with_ "analysis.equiv" (fun () ->
        let reference = Lgraph.to_reference ~matrix_name:(fun m -> (Graph.matrix g m).mat_name) lg in
        (reference, Equiv.check ~reference program))
  in
  let analysis =
    Span.with_ "analysis.analyze" (fun () ->
        Analyze.program ~ranges:true ~resources:true ~order:true ~layer_of program)
  in
  let analysis =
    Analyze.make_report
      (List.sort Puma_analysis.Diag.compare (analysis.diags @ equiv.Equiv.diags))
  in
  ( {
      Compile.program;
      analysis;
      equiv = Some equiv;
      equiv_reference;
      layer_of;
      sequencing_stats;
      codegen_stats;
      optimize_stats;
      edge_stats = Partition.edge_stats part lg;
      num_mvm_nodes;
      num_mvm_instructions = Schedule.num_mvm_instructions sched;
      tiles_used = part.tiles_used;
      cores_used = part.cores_used;
      mvmus_used = Lgraph.num_slots lg;
      nodes_used = part.nodes_used;
      tiles_per_node = part.tiles_per_node;
    },
    Lgraph.num_nodes lg )

(* The staged replay must reproduce Compile.compile, or the per-stage
   times would describe some other compilation. *)
let same_compilation ~what (a : Compile.result) (b : Compile.result) =
  if a.program <> b.program || a.analysis.diags <> b.analysis.diags then
    mismatch "%s: stage-by-stage compile differs from Compile.compile" what

(* Per-layer counts of a set of compilations: (source graph, result,
   lowered node count). *)
let compile_layers results =
  let sum f = List.fold_left (fun a x -> a +. Float.of_int (f x)) 0.0 results in
  let proved (_, (r : Compile.result), _) =
    match r.equiv with Some { Equiv.verdict = Proved; _ } -> 1 | _ -> 0
  in
  [
    ("compiler.graph_nodes", sum (fun (g, _, _) -> Array.length (Graph.nodes g)));
    ("compiler.lgraph_nodes", sum (fun (_, _, n) -> n));
    ("compiler.mvm_instrs", sum (fun (_, (r : Compile.result), _) -> r.num_mvm_instructions));
    ("compiler.tiles_used", sum (fun (_, (r : Compile.result), _) -> r.tiles_used));
    ("compiler.cores_used", sum (fun (_, (r : Compile.result), _) -> r.cores_used));
    ( "compiler.spilled_frac",
      mean (List.map (fun (_, (r : Compile.result), _) -> r.codegen_stats.spilled_fraction) results)
    );
    ( "compiler.cross_node_edges",
      sum (fun (_, (r : Compile.result), _) -> r.edge_stats.cross_node) );
    ( "compiler.repaired_channels",
      sum (fun (_, (r : Compile.result), _) -> r.sequencing_stats.channels_repaired) );
    ("analysis.errors", sum (fun (_, (r : Compile.result), _) -> r.analysis.errors));
    ("analysis.warnings", sum (fun (_, (r : Compile.result), _) -> r.analysis.warnings));
    ("analysis.equiv_proved", sum proved);
  ]
