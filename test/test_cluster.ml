(* Differential suite for the multi-node cluster tier (docs/SCALEOUT.md).

   The load-bearing contract: a cluster with a zero-cost fabric must be
   bit-identical — outputs, cycles, energy event counts — to one
   monolithic node running the unsplit program, for every zoo model and
   any node count. On top of that, real-cost clusters (pipelined and
   sharded compiles, random graphs, random node counts) must still
   compute the exact single-node outputs: partitioning may move work
   between chips but never change the fixed-point dataflow. *)

module Config = Puma_hwmodel.Config
module Energy = Puma_hwmodel.Energy
module Fabric = Puma_noc.Fabric
module Offchip = Puma_noc.Offchip
module Compile = Puma_compiler.Compile
module Partition = Puma_compiler.Partition
module Node = Puma_sim.Node
module Cluster = Puma_cluster.Cluster
module Analyze = Puma_analysis.Analyze
module Models = Puma_nn.Models
module Nn = Puma_nn.Network
module Layer = Puma_nn.Layer
module Program = Puma_isa.Program
module Rng = Puma_util.Rng

let config_of_dim dim = { Config.sweetspot with Config.mvmu_dim = dim }

(* Gate off: lenet5 overflows instruction memory at every dim (documented
   E-IMEM); the validator is exercised by its own suite and slows the
   zoo sweep down. *)
let quick_options =
  { Compile.default_options with analysis_gate = false; check_equiv = false }

let compile ?cluster ?(dim = 64) g =
  let options = { quick_options with cluster } in
  (Compile.compile ~options (config_of_dim dim) g).Compile.program

(* Deterministic inputs covering every input binding of a program. *)
let inputs_for ?(seed = 17) (program : Program.t) =
  let rng = Rng.create seed in
  let lengths = Hashtbl.create 4 in
  List.iter
    (fun (b : Program.io_binding) ->
      let prev = Option.value ~default:0 (Hashtbl.find_opt lengths b.name) in
      Hashtbl.replace lengths b.name (max prev (b.offset + b.length)))
    program.Program.inputs;
  Hashtbl.fold
    (fun name len acc ->
      (name, Array.init len (fun _ -> Rng.uniform rng (-1.0) 1.0)) :: acc)
    lengths []

let sorted_outputs outs =
  List.sort (fun (a, _) (b, _) -> compare a b) outs

let check_same_outputs label expected actual =
  let expected = sorted_outputs expected and actual = sorted_outputs actual in
  Alcotest.(check (list string))
    (label ^ ": output names")
    (List.map fst expected) (List.map fst actual);
  List.iter2
    (fun (name, e) (_, a) ->
      Alcotest.(check bool)
        (Printf.sprintf "%s: output %s bit-identical" label name)
        true (e = a))
    expected actual

let energy_count_list energy =
  List.map (fun c -> Energy.count energy c) Energy.all_categories

let zoo =
  [
    ("mlp", `Net Models.mini_mlp);
    ("lstm", `Net Models.mini_lstm);
    ("rnn", `Net Models.mini_rnn);
    ("lenet5", `Net Models.lenet5);
    ("bm", `Graph Models.mini_bm);
    ("rbm", `Graph Models.mini_rbm);
  ]

let graph_of = function
  | `Net n -> Nn.build_graph n
  | `Graph g -> g

(* --- zero-cost differential: 1 vs 2 vs 4 nodes, whole zoo ------------ *)

let test_zero_cost_differential () =
  List.iter
    (fun (name, model) ->
      let program = compile (graph_of model) in
      let inputs = inputs_for program in
      let reference = Node.create ~fast:false program in
      let ref_out = Node.run reference ~inputs in
      let ref_cycles = Node.cycles reference in
      let ref_counts = energy_count_list (Node.energy reference) in
      List.iter
        (fun nodes ->
          let label = Printf.sprintf "%s @ %d nodes" name nodes in
          let cl = Cluster.create ~nodes ~zero_cost:true program in
          let out = Cluster.run cl ~inputs in
          check_same_outputs label ref_out out;
          Alcotest.(check int) (label ^ ": cycles") ref_cycles
            (Cluster.cycles cl);
          Alcotest.(check (list int))
            (label ^ ": energy event counts")
            ref_counts
            (List.map snd (Cluster.energy_counts cl)))
        [ 1; 2; 4 ])
    zoo

(* Back-to-back inferences share state exactly like a monolithic node
   (registers and memory persist, clocks accumulate). *)
let test_zero_cost_multiple_inferences () =
  let program = compile (graph_of (List.assoc "lstm" zoo)) in
  let i1 = inputs_for ~seed:3 program and i2 = inputs_for ~seed:4 program in
  let reference = Node.create ~fast:false program in
  let r1 = Node.run reference ~inputs:i1 in
  let r2 = Node.run reference ~inputs:i2 in
  let cl = Cluster.create ~nodes:2 ~zero_cost:true program in
  let c1 = Cluster.run cl ~inputs:i1 in
  let c2 = Cluster.run cl ~inputs:i2 in
  check_same_outputs "run 1" r1 c1;
  check_same_outputs "run 2" r2 c2;
  Alcotest.(check int) "accumulated cycles" (Node.cycles reference)
    (Cluster.cycles cl);
  Alcotest.(check (list int))
    "accumulated energy counts"
    (energy_count_list (Node.energy reference))
    (List.map snd (Cluster.energy_counts cl))

(* --- real-cost cluster compiles: outputs exact, traffic real --------- *)

let test_cluster_schemes_end_to_end () =
  let g = graph_of (`Net Models.mini_mlp) in
  let single = compile g in
  let single_node = Node.create ~fast:false single in
  let inputs = inputs_for single in
  let ref_out = Node.run single_node ~inputs in
  List.iter
    (fun scheme ->
      let program =
        compile ~cluster:{ Partition.nodes = 2; scheme } g
      in
      let cl = Cluster.create ~nodes:2 program in
      let out = Cluster.run cl ~inputs in
      check_same_outputs (Partition.scheme_name scheme) ref_out out;
      Alcotest.(check bool)
        (Partition.scheme_name scheme ^ ": cross-node words flowed")
        true
        (Cluster.offchip_words cl > 0))
    [ Partition.Pipelined; Partition.Sharded ]

let test_cluster_edge_stats () =
  let g = graph_of (`Net Models.mini_mlp) in
  let config = config_of_dim 64 in
  let options =
    {
      quick_options with
      Compile.cluster = Some { Partition.nodes = 2; scheme = Pipelined };
    }
  in
  let r = Compile.compile ~options config g in
  Alcotest.(check int) "nodes_used" 2 r.Compile.nodes_used;
  Alcotest.(check bool) "cross_node edges" true (r.Compile.edge_stats.cross_node > 0);
  Alcotest.(check bool)
    "cross_node <= cross_tile" true
    (r.Compile.edge_stats.cross_node <= r.Compile.edge_stats.cross_tile);
  Alcotest.(check int)
    "padded to nodes * stride"
    (r.Compile.nodes_used * r.Compile.tiles_per_node)
    (Array.length r.Compile.program.Program.tiles)

(* --- per-node static gates ------------------------------------------- *)

let test_analyze_shards () =
  let g = graph_of (`Net Models.mini_mlp) in
  let program = compile ~cluster:{ Partition.nodes = 2; scheme = Pipelined } g in
  let reports = Cluster.analyze_shards ~nodes:2 program in
  Alcotest.(check int) "one report per node" 2 (List.length reports);
  List.iter
    (fun (r : Cluster.shard_report) ->
      if r.cross_out = 0 && r.cross_in = 0 then
        Alcotest.(check bool)
          (Printf.sprintf "node %d: closed shard passes full gate" r.node)
          false
          (Analyze.has_errors r.report)
      else
        Alcotest.(check bool)
          (Printf.sprintf "node %d: open shard reports W-XNODE" r.node)
          true
          (List.exists
             (fun (d : Puma_analysis.Diag.t) -> d.code = "W-XNODE")
             r.report.Analyze.diags))
    reports;
  (* At least one shard of a 2-node pipelined MLP must have cross-node
     channels, or the split was degenerate. *)
  Alcotest.(check bool)
    "cut channels exist" true
    (List.exists
       (fun (r : Cluster.shard_report) -> r.cross_out + r.cross_in > 0)
       reports)

(* A single-node "cluster" is channel-closed and passes the full gates. *)
let test_analyze_shards_single_node () =
  let program = compile (graph_of (`Net Models.mini_mlp)) in
  match Cluster.analyze_shards ~nodes:1 program with
  | [ r ] ->
      Alcotest.(check int) "no cross channels" 0 (r.cross_out + r.cross_in);
      Alcotest.(check bool) "full gate clean" false
        (Analyze.has_errors r.report)
  | rs -> Alcotest.failf "expected 1 report, got %d" (List.length rs)

(* --- node faults stay node-local ------------------------------------- *)

let test_node_faults_are_per_node () =
  let g = graph_of (`Net Models.mini_mlp) in
  let program = compile ~cluster:{ Partition.nodes = 2; scheme = Pipelined } g in
  let inputs = inputs_for program in
  let clean = Cluster.create ~nodes:2 program in
  let clean_out = Cluster.run clean ~inputs in
  let plan =
    Puma_xbar.Fault.plan ~seed:5
      { Puma_xbar.Fault.ideal with stuck_rate = 0.3; stuck_on_fraction = 0.5 }
  in
  let faulty k =
    let plans = Array.make 2 None in
    plans.(k) <- Some plan;
    let cl = Cluster.create ~nodes:2 ~node_faults:plans program in
    Cluster.run cl ~inputs
  in
  let out0 = faulty 0 and out1 = faulty 1 in
  (* A heavy stuck-at plan on either node must perturb the output, and
     the two single-node injections must differ from each other (the
     faults landed on different chips). *)
  Alcotest.(check bool) "node 0 faults perturb" true (out0 <> clean_out);
  Alcotest.(check bool) "node 1 faults perturb" true (out1 <> clean_out);
  Alcotest.(check bool) "different nodes, different damage" true (out0 <> out1)

(* --- deadlock diagnostics name global tiles ---------------------------- *)

(* Drop the last node-0 -> node-1 send of a 2-node pipelined mlp (the
   last, so no later packet on its channel arrives misaligned): its
   receiver on node 1 waits forever, and the dump must say where, exactly
   as a single node would — global tile index, core, pc. *)
let test_cluster_deadlock_dump () =
  let g = graph_of (`Net Models.mini_mlp) in
  let program = compile ~cluster:{ Partition.nodes = 2; scheme = Pipelined } g in
  let stride = Cluster.tiles_per_node (Cluster.create ~nodes:2 program) in
  let node_of tile = tile / stride in
  let last = ref None in
  Array.iteri
    (fun pos (tp : Program.tile_program) ->
      Array.iteri
        (fun i instr ->
          match instr with
          | Puma_isa.Instr.Send { target; _ } when node_of target > node_of pos
            ->
              last := Some (pos, i, target)
          | _ -> ())
        tp.tile_code)
    program.Program.tiles;
  let pos, drop, target =
    match !last with
    | Some found -> found
    | None -> Alcotest.fail "no cross-node send"
  in
  let tiles = Array.copy program.Program.tiles in
  let tp = tiles.(pos) in
  tiles.(pos) <-
    {
      tp with
      Program.tile_code =
        Array.of_list
          (List.filteri (fun i _ -> i <> drop) (Array.to_list tp.tile_code));
    };
  let cl = Cluster.create ~nodes:2 { program with Program.tiles } in
  match Cluster.run cl ~inputs:(inputs_for program) with
  | _ -> Alcotest.fail "expected a deadlock"
  | exception Node.Deadlock msg ->
      let lines = String.split_on_char '\n' msg in
      Alcotest.(check bool) "single-node header" true
        (String.starts_with ~prefix:"all live entities blocked at cycle"
           (List.hd lines));
      let blocked_core_tiles =
        List.filter_map
          (fun l ->
            try
              Scanf.sscanf l "  tile %d core %_d blocked at pc %_d%!" Option.some
            with Scanf.Scan_failure _ | End_of_file | Failure _ -> None)
          lines
      in
      Alcotest.(check bool) "a blocked core on node 1 is named" true
        (List.exists (fun t -> node_of t = 1) blocked_core_tiles);
      Alcotest.(check bool) "the receiving tile's TCU is named" true
        (List.exists
           (String.starts_with
              ~prefix:(Printf.sprintf "  tile %d tcu pc " target))
           lines)

(* --- qcheck: random graphs, random node counts ----------------------- *)

let qcheck_count = 8

let random_net_gen =
  QCheck.Gen.(
    let* is_rnn = bool in
    if is_rnn then
      let* input = int_range 6 24 in
      let* hidden = int_range 6 24 in
      let* seq_len = int_range 2 3 in
      return
        (Nn.make ~name:"qrnn" ~kind:Nn.Rnn_net ~input:(Layer.Vec input)
           ~seq_len
           [ Layer.Rnn { hidden }; Layer.Dense { out = 8; act = Layer.Sigmoid } ])
    else
      let* input = int_range 6 32 in
      let* w1 = int_range 6 32 in
      let* w2 = int_range 4 16 in
      return
        (Nn.make ~name:"qmlp" ~kind:Nn.Mlp ~input:(Layer.Vec input)
           [
             Layer.Dense { out = w1; act = Layer.Relu };
             Layer.Dense { out = w2; act = Layer.Sigmoid };
           ]))

let random_cluster_gen =
  QCheck.Gen.(
    let* net = random_net_gen in
    let* nodes = int_range 1 4 in
    let* scheme = oneofl [ Partition.Pipelined; Partition.Sharded ] in
    let* topology =
      oneofl [ Fabric.Ring; Fabric.Mesh2d; Fabric.All_to_all ]
    in
    let* seed = int_range 0 1000 in
    return (net, nodes, scheme, topology, seed))

let qcheck_cluster_matches_single =
  QCheck.Test.make ~count:qcheck_count
    ~name:"random graph across random nodes matches single-node outputs"
    (QCheck.make random_cluster_gen)
    (fun (net, nodes, scheme, topology, seed) ->
      let g = Nn.build_graph ~seed:(2024 + seed) net in
      let single = compile ~dim:16 g in
      let inputs = inputs_for ~seed single in
      let reference = Node.create ~fast:false single in
      let ref_out = sorted_outputs (Node.run reference ~inputs) in
      let program = compile ~dim:16 ~cluster:{ Partition.nodes; scheme } g in
      let cl = Cluster.create ~nodes ~topology program in
      let out = sorted_outputs (Cluster.run cl ~inputs) in
      ref_out = out)

(* --- fabric pins the Offchip estimator ------------------------------- *)

let test_fabric_pins_offchip () =
  let config = config_of_dim 64 in
  let fabric =
    Fabric.create ~topology:Fabric.Ring ~nodes:4 ~tiles_per_node:8 ()
  in
  (* Tiles 0 and 8 sit on adjacent ring nodes: exactly one fabric hop,
     which must cost exactly what the analytical estimator charges. *)
  List.iter
    (fun words ->
      Alcotest.(check int)
        (Printf.sprintf "one hop = estimator cycles (%d words)" words)
        (Offchip.transfer_cycles config ~words)
        (Fabric.transfer_cycles fabric config ~src:0 ~dst:8 ~words);
      Alcotest.(check (float 1e-9))
        (Printf.sprintf "one hop = estimator energy (%d words)" words)
        (Offchip.transfer_energy_pj ~words)
        (Fabric.transfer_energy_pj fabric ~src:0 ~dst:8 ~words))
    [ 1; 2; 64; 1000 ]

let () =
  Alcotest.run "cluster"
    [
      ( "differential",
        [
          Alcotest.test_case "zoo 1-vs-2-vs-4 zero-cost bit-identity" `Quick
            test_zero_cost_differential;
          Alcotest.test_case "multiple inferences accumulate" `Quick
            test_zero_cost_multiple_inferences;
        ] );
      ( "schemes",
        [
          Alcotest.test_case "pipelined and sharded exact end-to-end" `Quick
            test_cluster_schemes_end_to_end;
          Alcotest.test_case "cluster compile stats" `Quick
            test_cluster_edge_stats;
        ] );
      ( "gates",
        [
          Alcotest.test_case "per-shard analysis" `Quick test_analyze_shards;
          Alcotest.test_case "single shard full gate" `Quick
            test_analyze_shards_single_node;
        ] );
      ( "faults",
        [
          Alcotest.test_case "per-node fault plans stay local" `Quick
            test_node_faults_are_per_node;
        ] );
      ( "deadlock",
        [
          Alcotest.test_case "dump names global tile, core, pc" `Quick
            test_cluster_deadlock_dump;
        ] );
      ( "qcheck",
        [ QCheck_alcotest.to_alcotest qcheck_cluster_matches_single ] );
      ( "fabric",
        [
          Alcotest.test_case "one hop pins the Offchip estimator" `Quick
            test_fabric_pins_offchip;
        ] );
    ]
