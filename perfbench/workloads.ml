(* The four workloads. Each prepares its inputs and float references from
   the seed, then offers two passes over identical work:

   - [untraced]: the library's own entry points (Compile.compile,
     Serve.Engine.run, Campaign.run), timed from outside; the end-to-end
     metrics come from these passes only;
   - [traced]: the same work replayed through those entry points' public
     building blocks under spans, so per-stage self time can be read off.
     Its deterministic results must equal the untraced pass's. *)

open Common
module Models = Puma_nn.Models
module Network = Puma_nn.Network
module Engine = Puma_serve.Engine
module Arrival = Puma_serve.Arrival
module Campaign = Puma_fault.Campaign
module Remap = Puma_fault.Remap
module Rng = Puma_util.Rng

(* A host-time sample: the unit of work it timed (a program, or a batch
   of inferences), how many inferences it covered, its seconds, and the
   calibration loop's time measured around it (see [Common.calibrate]). *)
type sample = { unit : string; inferences : int; seconds : float; cal : float }

type pass = {
  compile_s : sample list;  (** One per compiled program. *)
  setup_s : sample list;  (** One per machine brought from program to warmed. *)
  infer_s : sample list;  (** Timed inferences. *)
  tally : tally;
  e2e : (string * float) list;
      (** Deterministic end-to-end metrics; equal in every pass. *)
  layers : (string * float) list;
      (** Deterministic per-layer counts; equal in every pass of a mode. *)
  sim_cycles : int;  (** Simulated cycles of the spanned inferences. *)
}

(* [untraced ~reps] repeats the short phases when [reps] is set, to
   collect more samples; the traced run compares single passes. *)
type t = { untraced : reps:bool -> pass; traced : unit -> pass }

(* The calibration taken right after the previous sample, when nothing
   has run since; it doubles as the next sample's "before". *)
let last_cal = ref None

(* Time [f] between two calibrations; the sample keeps their geometric
   mean. *)
let sample ?(inferences = 1) unit f =
  let before = match !last_cal with Some c -> c | None -> calibrate () in
  let r, seconds = time f in
  let after = calibrate () in
  last_cal := Some after;
  (r, { unit; inferences; seconds; cal = sqrt (before *. after) })

(* Run [f] [reps] times, each after a full collection so that garbage left
   by the previous phase is not collected inside its timing. Keeps the last
   result and every sample. *)
let phase ?(reps = 1) f =
  let rec go n acc =
    Gc.compact ();
    last_cal := None;
    let r, samples = f () in
    if n <= 1 then (r, List.concat (List.rev (samples :: acc))) else go (n - 1) (samples :: acc)
  in
  go reps []

let times ~reps k = if reps then k else 1

let config_of_dim dim = { Config.sweetspot with mvmu_dim = dim }

let graph_inputs g ~seed ~index =
  let rng = Rng.create (Batch.request_seed ~seed ~index) in
  List.map
    (fun (n : Graph.node) ->
      match n.op with
      | Input name -> (name, Puma_util.Tensor.vec_rand rng n.len 0.8)
      | _ -> assert false)
    (Graph.inputs g)

type compiled = { key : string; graph : Graph.t; result : Compile.result; lgraph_nodes : int }

(* Compile every entry, through Compile.compile or stage by stage, one
   sample each. The staged replay is checked against the last
   Compile.compile results. [tallies] holds one tally per entry, for the
   gate verdict of each. *)
let compile_phase ?reps ~traced ~last ~tallies entries =
  let compiled, samples =
    phase ?reps (fun () ->
        List.split
          (List.map
             (fun (key, config, options, graph) ->
               let (result, lgraph_nodes), s =
                 sample key (fun () ->
                     if traced then staged_compile options config graph
                     else (Compile.compile ~options config graph, 0))
               in
               ({ key; graph; result; lgraph_nodes }, s))
             entries))
  in
  (if traced then
     Option.iter
       (List.iter2 (fun c prev -> same_compilation ~what:c.key prev c.result) compiled)
       !last
   else last := Some (List.map (fun c -> c.result) compiled));
  List.iter2 (fun t c -> check_compile t c.result) tallies compiled;
  let layers =
    if traced then compile_layers (List.map (fun c -> (c.graph, c.result, c.lgraph_nodes)) compiled)
    else []
  in
  (compiled, samples, layers)

let setup_phase ?reps compiled =
  phase ?reps (fun () ->
      List.split (List.map (fun c -> sample c.key (fun () -> warm_node c.result.program)) compiled))

let code_instrs_of compiled =
  Float.of_int (List.fold_left (fun a c -> a + code_instrs c.result.program) 0 compiled)

let inf_energy_uj (c : cost) = (c.dynamic_pj +. c.static_pj) /. 1e6
let sum_cycles costs = List.fold_left (fun a c -> a + c.cycles) 0 costs

(* ---- zoo_compile ---- *)

let zoo_models =
  [
    ("mlp", Network.build_graph Models.mini_mlp);
    ("lstm", Network.build_graph Models.mini_lstm);
    ("rnn", Network.build_graph Models.mini_rnn);
    ("lenet5", Network.build_graph Models.lenet5);
    ("bm", Models.mini_bm);
    ("rbm", Models.mini_rbm);
  ]

let zoo_inferences = 8

let zoo ~seed =
  let entries =
    List.concat_map
      (fun dim ->
        List.map
          (fun (name, g) -> (Printf.sprintf "%s-d%d" name dim, config_of_dim dim, options (), g))
          zoo_models)
      [ 128; 64 ]
  in
  let inputs =
    List.mapi
      (fun i (_, _, _, g) ->
        List.init zoo_inferences (fun k ->
            let x = graph_inputs g ~seed ~index:((i * zoo_inferences) + k) in
            (x, Puma.reference g x)))
      entries
  in
  let last = ref None in
  let pass ~traced ~reps =
    (* One operation per compiled model: it fails on a gate error or on
       any of its inferences failing. *)
    let tallies = List.map (fun _ -> tally ()) entries in
    let compiled, compile_s, compile_layers =
      compile_phase ~reps:(times ~reps 2) ~traced ~last ~tallies entries
    in
    let nodes, setup_s = setup_phase ~reps:(times ~reps 2) compiled in
    let costs, infer_s =
      phase ~reps:(times ~reps 2) (fun () ->
          let per_model =
            List.map2
              (fun (c, node) xs ->
                sample ~inferences:zoo_inferences c.key (fun () ->
                    List.map (fun (x, _) -> infer_node node ~inputs:x) xs))
              (List.combine compiled nodes) inputs
          in
          List.split per_model)
    in
    List.iter2
      (fun t (cs, xs) -> List.iter2 (fun c (_, want) -> check_outputs t ~want c.outputs) cs xs)
      tallies (List.combine costs inputs);
    let tally = merge tallies in
    let ok = List.filter (fun t -> t.failed = 0 && t.gate_errors = 0) tallies in
    let per_model f = List.map (fun cs -> mean (List.map f cs)) costs in
    let cycles = per_model (fun c -> Float.of_int c.cycles) in
    let all = List.concat costs in
    {
      compile_s;
      setup_s;
      infer_s;
      tally;
      e2e =
        [
          ("cycles_per_inf", geomean cycles);
          ("energy_uj_per_inf", geomean (per_model inf_energy_uj));
          ("code_instrs", code_instrs_of compiled);
          ("max_abs_err", tally.max_err);
          ("ok_frac", Float.of_int (List.length ok) /. Float.of_int (List.length tallies));
        ];
      layers =
        List.map2 (fun c cy -> ("cycles_per_inf." ^ c.key, cy)) compiled cycles
        @ if traced then compile_layers @ cost_layers all else [];
      sim_cycles = sum_cycles all;
    }
  in
  { untraced = pass ~traced:false; traced = (fun () -> pass ~traced:true ~reps:false) }

(* ---- serve_mix ---- *)

let serve_names = [ "mlp"; "lstm"; "rnn"; "bm"; "rbm" ]

let serve ~seed =
  let arrivals = int_of_float (spec_float "serve_arrivals") in
  let nominal = spec_float "serve_nominal_rps" in
  let slo_ms = spec_float "serve_slo_ms" in
  let queue_limit = int_of_float (spec_float "serve_queue_limit") in
  let config = config_of_dim 128 in
  let entries =
    List.map (fun name -> (name, config, options (), List.assoc name zoo_models)) serve_names
  in
  let graphs = Array.of_list (List.map (fun (_, _, _, g) -> g) entries) in
  let fleet = { Engine.nodes = 4; max_batch = 4; input_seed = seed } in
  (* The first [arrivals] arrivals of a Poisson stream at [rate], cycling
     through the models in turn so that every seed offers the same mix.
     Arrival k's model and inputs depend on k alone, so one set of
     per-arrival costs serves every rate. *)
  let workload_at rate =
    let rec go duration_s =
      let ts = Arrival.times (Arrival.Poisson { rate_rps = rate }) ~seed ~duration_s in
      if Array.length ts < arrivals then go (2.0 *. duration_s)
      else
        Array.init arrivals (fun k ->
            {
              Engine.cycle = int_of_float (Float.round (ts.(k) *. config.frequency_ghz *. 1e9));
              model = k mod Array.length graphs;
            })
    in
    go (1.5 *. Float.of_int arrivals /. rate)
  in
  let workload = workload_at nominal in
  let last_programs = ref None in
  let last_report : Engine.report option ref = ref None in
  let references = ref None in
  let pass ~traced ~reps =
    let tally = tally () in
    let compiled, compile_s, compile_layers =
      compile_phase ~reps:(times ~reps 2) ~traced ~last:last_programs
        ~tallies:(List.map (fun _ -> tally) entries) entries
    in
    let models =
      Array.of_list
        (List.map
           (fun c -> Engine.model ~queue_limit ~slo_ms ~name:c.key c.result.program)
           compiled)
    in
    (* Per-model request streams, in per-model arrival order. *)
    let reqs =
      Array.init (Array.length models) (fun m ->
          Array.of_list (Engine.requests_for fleet models workload m))
    in
    let want =
      match !references with
      | Some w -> w
      | None ->
          let w =
            Array.mapi
              (fun m rs ->
                Array.map (fun (r : Batch.request) -> Puma.reference graphs.(m) r.inputs) rs)
              reqs
          in
          references := Some w;
          w
    in
    (* Set-up is measured on machines of its own: Engine.run builds its
       fleet internally. *)
    let _, setup_s = setup_phase ~reps:(times ~reps 2) compiled in
    let (report, costs), infer_s =
      phase ~reps:(times ~reps 4) (fun () ->
          let r, s =
            sample ~inferences:arrivals "engine" (fun () ->
                if not traced then (Engine.run ~domains:1 fleet models workload, [])
                else begin
                  let next = Array.make (Array.length models) 0 in
                  let costs =
                    Span.with_ "serve.phase1" (fun () ->
                        (* A fresh warmed machine per model, as Engine.run builds. *)
                        let nodes =
                          Array.map (fun (m : Engine.model) -> lazy (warm_node m.program)) models
                        in
                        Array.map
                          (fun (a : Engine.arrival) ->
                            let r = reqs.(a.model).(next.(a.model)) in
                            next.(a.model) <- next.(a.model) + 1;
                            infer_node (Lazy.force nodes.(a.model)) ~inputs:r.Batch.inputs)
                          workload)
                  in
                  let engine_costs =
                    Array.map
                      (fun c ->
                        { Engine.cycles = c.cycles; energy_pj = c.dynamic_pj; outputs = c.outputs })
                      costs
                  in
                  ( Span.with_ "serve.schedule" (fun () ->
                        Engine.schedule fleet models workload engine_costs),
                    Array.to_list costs )
                end)
          in
          (r, [ s ]))
    in
    (match !last_report with
    | Some prev when traced && prev <> report ->
        mismatch "serve_mix: replayed phase 1 + schedule differs from Engine.run"
    | _ -> if not traced then last_report := Some report);
    Array.iter
      (fun (s : Engine.served) ->
        check_outputs tally ~want:want.(s.model).(s.model_request) s.outputs)
      report.served;
    (* A refused request is a failed operation. *)
    Array.iter
      (fun (_ : Engine.rejection) ->
        tally.attempted <- tally.attempted + 1;
        tally.failed <- tally.failed + 1)
      report.rejections;
    let p99 (r : Engine.report) =
      Puma_util.Stats.percentile (Array.map (Engine.latency_ms r) r.served) 99.0
    in
    (* Highest offered rate whose p99 meets the SLO with no rejection,
       replaying the event loop on the nominal run's per-arrival costs. *)
    let max_rps =
      let costs =
        Array.make (Array.length workload) { Engine.cycles = 1; energy_pj = 0.0; outputs = [] }
      in
      Array.iter
        (fun (s : Engine.served) ->
          costs.(s.arrival) <- { Engine.cycles = s.cycles; energy_pj = s.energy_pj; outputs = [] })
        report.served;
      let meets rate =
        let r =
          Span.with_ "serve.schedule" (fun () ->
              Engine.schedule fleet models (workload_at rate) costs)
        in
        Array.length r.rejections = 0 && p99 r <= slo_ms
      in
      let rec bisect lo hi k =
        if k = 0 then lo
        else
          let mid = sqrt (lo *. hi) in
          if meets mid then bisect mid hi (k - 1) else bisect lo mid (k - 1)
      in
      bisect (nominal /. 16.0) (nominal *. 16.0) 24
    in
    (* Per-model means, then the geometric mean over models (as in
       zoo_compile), so the seed's model mix does not move the figure. *)
    let per_model f =
      geomean
        (List.init (Array.length models) (fun m ->
             mean
               (List.filter_map
                  (fun (s : Engine.served) -> if s.model = m then Some (f s) else None)
                  (Array.to_list report.served))))
    in
    let static_pj =
      Array.map
        (fun (m : Engine.model) ->
          Energy.static_tile_pj config ~cycles:1.0 *. Float.of_int (Batch.tiles_used m.program))
        models
    in
    let lat = Array.map (Engine.latency_ms report) report.served in
    {
      compile_s;
      setup_s;
      infer_s;
      tally;
      e2e =
        [
          ("cycles_per_inf", per_model (fun s -> Float.of_int s.cycles));
          ( "energy_uj_per_inf",
            per_model (fun s ->
                (s.energy_pj +. (static_pj.(s.model) *. Float.of_int s.cycles)) /. 1e6) );
          ("code_instrs", code_instrs_of compiled);
          ("max_abs_err", tally.max_err);
          ("ok_frac", ok_frac tally);
        ];
      layers =
        [
          ("serve.p50_ms", Puma_util.Stats.percentile lat 50.0);
          ("serve.p99_ms", p99 report);
          ("serve.max_rps", max_rps);
          ("serve.utilization", report.utilization);
          ( "serve.mean_queue_depth",
            Array.fold_left
              (fun a (m : Engine.model_stats) -> a +. m.mean_queue_depth)
              0.0 report.models );
          ( "serve.rejected_frac",
            Float.of_int (Array.length report.rejections) /. Float.of_int (Array.length workload) );
        ]
        @ if traced then compile_layers @ cost_layers costs else [];
      sim_cycles = sum_cycles costs;
    }
  in
  { untraced = pass ~traced:false; traced = (fun () -> pass ~traced:true ~reps:false) }

(* ---- fullsize_2node ---- *)

let fullsize_inferences = 8

let fullsize ~seed =
  let g = Network.build_graph Models.mlp_l4 in
  let entries =
    [
      ( "mlpl4",
        config_of_dim 128,
        options ~cluster:{ Puma_compiler.Partition.nodes = 2; scheme = Pipelined } (),
        g );
    ]
  in
  let inputs =
    List.init fullsize_inferences (fun k ->
        let x = graph_inputs g ~seed ~index:k in
        (x, Puma.reference g x))
  in
  let last = ref None in
  let pass ~traced ~reps =
    let tally = tally () in
    let compiled, compile_s, compile_layers =
      compile_phase ~reps:(times ~reps 3) ~traced ~last ~tallies:[ tally ] entries
    in
    let r = (List.hd compiled).result in
    let cluster, setup_s =
      phase ~reps:(times ~reps 2) (fun () ->
          let c, s =
            sample "mlpl4" (fun () -> warm_cluster ~nodes:r.nodes_used ~topology:Mesh2d r.program)
          in
          (c, [ s ]))
    in
    (* One sample per inference: each is long enough to time alone. *)
    let costs, infer_s =
      phase (fun () ->
          List.split
            (List.map (fun (x, _) -> sample "mlpl4" (fun () -> infer_cluster cluster ~inputs:x)) inputs))
    in
    List.iter2 (fun c (_, want) -> check_outputs tally ~want c.outputs) costs inputs;
    {
      compile_s;
      setup_s;
      infer_s;
      tally;
      e2e =
        [
          ("cycles_per_inf", mean (List.map (fun c -> Float.of_int c.cycles) costs));
          ("energy_uj_per_inf", mean (List.map inf_energy_uj costs));
          ("code_instrs", code_instrs_of compiled);
          ("max_abs_err", tally.max_err);
          ("ok_frac", ok_frac tally);
        ];
      layers = (if traced then compile_layers @ cost_layers costs else []);
      sim_cycles = sum_cycles costs;
    }
  in
  { untraced = pass ~traced:false; traced = (fun () -> pass ~traced:true ~reps:false) }

(* ---- fault_campaign ---- *)

(* Fault-free inferences validated on the set-up machine, besides the
   campaign's golden batch, so max_abs_err rests on more than a handful of
   outputs. *)
let fault_extra_checks = 56

let fault ~seed =
  let g = Network.build_graph Models.mini_lstm in
  let config = config_of_dim 128 in
  let entries = [ ("lstm", config, options (), g) ] in
  let spec =
    {
      Campaign.default_spec with
      remap = true;
      input_seed = seed;
      fault_seeds = [ (2 * seed) + 1; (2 * seed) + 2 ];
    }
  in
  let extra =
    List.init fault_extra_checks (fun k ->
        let x = graph_inputs g ~seed ~index:(spec.samples + k) in
        (x, Puma.reference g x))
  in
  let last_programs = ref None in
  let last_report : Campaign.report option ref = ref None in
  let references = ref None in
  let pass ~traced ~reps =
    let tally = tally () in
    let compiled, compile_s, compile_layers =
      compile_phase ~reps:(times ~reps 8) ~traced ~last:last_programs ~tallies:[ tally ] entries
    in
    let program = (List.hd compiled).result.program in
    let requests = Batch.random_requests program ~batch:spec.samples ~seed:spec.input_seed in
    let want =
      match !references with
      | Some w -> w
      | None ->
          let w = List.map (fun (r : Batch.request) -> Puma.reference g r.inputs) requests in
          references := Some w;
          w
    in
    (* Set-up is measured on machines of its own: Campaign.run builds its
       golden and faulted machines internally. *)
    let nodes, setup_s = setup_phase ~reps:(times ~reps 8) compiled in
    List.iter
      (fun (x, want) -> check_outputs tally ~want (infer_node (List.hd nodes) ~inputs:x).outputs)
      extra;
    (* The traced replay of one rate's campaign must reproduce it,
       response by response. *)
    let replay rate =
      let prev = Option.get !last_report in
      let run node =
        List.map (fun (r : Batch.request) -> infer_node node ~inputs:r.inputs) requests
      in
      let same (resp : Batch.response array) cs =
        List.length cs = Array.length resp
        && List.for_all2
             (fun (r : Batch.response) c -> r.outputs = c.outputs && r.cycles = c.cycles)
             (Array.to_list resp) cs
      in
      let golden = Span.with_ "fault.golden" (fun () -> run (warm_node program)) in
      let points =
        List.map
          (fun fault_seed ->
            let plan =
              Span.with_ "fault.remap" (fun () ->
                  Remap.build ~remap:true ~model:(Campaign.at_rate spec.base rate) ~seed:fault_seed
                    program)
            in
            (plan, run (warm_node ~faults:plan.plan program)))
          spec.fault_seeds
      in
      if
        not
          (same prev.golden golden
          && List.for_all2
               (fun (p : Campaign.point) ((plan : Remap.t), cs) ->
                 p.total_faults = plan.total_faults && same p.responses cs)
               (List.filter (fun (p : Campaign.point) -> p.rate = rate) (Array.to_list prev.points))
               points)
      then mismatch "fault_campaign: replayed grid differs from Campaign.run";
      golden @ List.concat_map snd points
    in
    (* One Campaign.run per rate, so that each timed sample is short; the
       reports together are the full grid (a point depends only on the
       program, the spec's shape, its rate and its fault seed). *)
    let (reports, costs), infer_s =
      phase (fun () ->
          let per_rate, samples =
            List.split
              (List.map
                 (fun rate ->
                   sample
                     ~inferences:(spec.samples * (1 + List.length spec.fault_seeds))
                     (Printf.sprintf "campaign@%g" rate)
                     (fun () ->
                       if traced then ([], replay rate)
                       else
                         ( [ Campaign.run ~domains:1 ~key:"lstm" program { spec with rates = [ rate ] } ],
                           [] )))
                 spec.rates)
          in
          ((List.concat_map fst per_rate, List.concat_map snd per_rate), samples))
    in
    let report =
      match reports with
      | [] -> Option.get !last_report
      | first :: _ ->
          List.iter
            (fun (r : Campaign.report) ->
              if r.golden <> first.golden then mismatch "fault_campaign: golden batches differ")
            reports;
          {
            first with
            spec;
            points = Array.concat (List.map (fun (r : Campaign.report) -> r.points) reports);
          }
    in
    if not traced then last_report := Some report;
    List.iteri
      (fun i want -> check_outputs tally ~want report.golden.(i).outputs)
      want;
    (* Faulted outputs are judged by flip rate, not against the budget. *)
    Array.iter
      (fun (p : Campaign.point) -> tally.attempted <- tally.attempted + Array.length p.responses)
      report.points;
    let points = Array.to_list report.points in
    let responses = Array.to_list report.golden @ List.concat_map (fun (p : Campaign.point) -> Array.to_list p.responses) points in
    let tiles = Float.of_int (Batch.tiles_used program) in
    {
      compile_s;
      setup_s;
      infer_s;
      tally;
      e2e =
        [
          ( "cycles_per_inf",
            mean (List.map (fun (r : Batch.response) -> Float.of_int r.cycles) responses) );
          ( "energy_uj_per_inf",
            mean
              (List.map
                 (fun (r : Batch.response) ->
                   (r.dynamic_energy_pj
                   +. (Energy.static_tile_pj config ~cycles:(Float.of_int r.cycles) *. tiles))
                   /. 1e6)
                 responses) );
          ("code_instrs", code_instrs_of compiled);
          ("max_abs_err", tally.max_err);
          ("ok_frac", ok_frac tally);
        ];
      layers =
        [
          ("fault.flip_rate", mean (List.map (fun (p : Campaign.point) -> p.flip_rate) points));
          ( "fault.total_faults",
            Float.of_int (List.fold_left (fun a (p : Campaign.point) -> a + p.total_faults) 0 points)
          );
          ( "fault.mean_err_ulps",
            mean (List.map (fun (p : Campaign.point) -> p.mean_err_ulps) points) );
        ]
        @ if traced then compile_layers @ cost_layers costs else [];
      sim_cycles = sum_cycles costs;
    }
  in
  { untraced = pass ~traced:false; traced = (fun () -> pass ~traced:true ~reps:false) }

let all =
  [ ("zoo_compile", zoo); ("serve_mix", serve); ("fullsize_2node", fullsize); ("fault_campaign", fault) ]
