(* perfbench: one workload per process, metrics as one JSON line.

   bench.exe --workload NAME --seed N --seconds S --trace 0|1

   The metric names, units and directions come from BENCHMARK.json at the
   root of the checkout. With --trace 0 the last stdout line carries every
   end-to-end metric, with --trace 1 every per-layer metric; the traced
   run also writes its spans to .perfbench_out/. See perfbench/README.md. *)

open Common
module W = Workloads

let usage () =
  prerr_endline
    "usage: bench.exe --workload NAME --seed N --seconds S --trace 0|1";
  exit 2

let parse_args () =
  let workload = ref "" and seed = ref None and seconds = ref None and trace = ref None in
  let rec go = function
    | "--workload" :: v :: rest -> workload := v; go rest
    | "--seed" :: v :: rest -> seed := int_of_string_opt v; go rest
    | "--seconds" :: v :: rest -> seconds := float_of_string_opt v; go rest
    | "--trace" :: v :: rest -> trace := int_of_string_opt v; go rest
    | [] -> ()
    | _ -> usage ()
  in
  go (List.tl (Array.to_list Sys.argv));
  match (List.assoc_opt !workload W.all, !seed, !seconds, !trace) with
  | Some w, Some seed, Some seconds, Some ((0 | 1) as trace) when seconds > 0.0 ->
      (!workload, w, seed, seconds, trace = 1)
  | _ -> usage ()

(* Names and units of the metrics BENCHMARK.json declares. *)
let declared key =
  let text = In_channel.with_open_bin "BENCHMARK.json" In_channel.input_all in
  let j = match Json.parse text with Ok j -> j | Error e -> failwith ("BENCHMARK.json: " ^ e) in
  let field k m = Option.bind (Json.member k m) Json.to_str in
  match Option.bind (Json.member key j) Json.to_list with
  | None -> failwith ("BENCHMARK.json: no " ^ key)
  | Some ms ->
      List.map
        (fun m ->
          match (field "name" m, field "unit" m) with
          | Some n, Some u -> (n, u)
          | _ -> failwith ("BENCHMARK.json: malformed " ^ key))
        ms

let peak_rss_mb () =
  let lines = In_channel.with_open_text "/proc/self/status" In_channel.input_lines in
  match List.find_opt (String.starts_with ~prefix:"VmHWM:") lines with
  | Some l -> Scanf.sscanf l "VmHWM: %d kB" (fun kb -> Float.of_int kb /. 1024.0)
  | None -> failwith "no VmHWM in /proc/self/status"

(* Host time of a set of samples, in calibrated seconds (see
   [Common.calibrate]): per unit of work, the lower quartile of its
   calibrated samples, summed over units, with the inferences one sample
   of each unit covered. The lower quartile rather than the median: a
   slowdown that starts or ends inside a sample is missed by the
   calibrations around it, and such samples only ever read slow. *)
let host_seconds (samples : W.sample list) =
  let reference = spec_float "calibration_reference_s" in
  let by_unit = Hashtbl.create 16 in
  List.iter
    (fun (s : W.sample) ->
      let xs, _ = Option.value ~default:([], 0) (Hashtbl.find_opt by_unit s.unit) in
      Hashtbl.replace by_unit s.unit (s.seconds *. reference /. s.cal :: xs, s.inferences))
    samples;
  Hashtbl.fold
    (fun _ (xs, n) (t, total) -> (t +. lower_quartile xs, total + n))
    by_unit (0.0, 0)

(* A micro-measure of the crossbar kernel: one exact 128x128 MVM on a
   programmed MVMU through the kernel the fast loop calls; the fastest of
   repeated batches. *)
let mvm_us ~seed =
  let module Mvmu = Puma_xbar.Mvmu in
  let config = Puma_hwmodel.Config.sweetspot in
  let dim = config.mvmu_dim in
  let rng = Puma_util.Rng.create seed in
  let m = Mvmu.create config in
  Mvmu.program m
    {
      Puma_util.Tensor.rows = dim;
      cols = dim;
      data = Array.init (dim * dim) (fun _ -> Puma_util.Rng.uniform rng (-0.5) 0.5);
    };
  let x = Mvmu.xbar_in m in
  Array.iteri (fun i _ -> x.(i) <- Puma_util.Rng.int rng 4096) x;
  let batch = 200 in
  List.fold_left Float.min infinity
    (List.init 25 (fun _ ->
         snd (time (fun () -> for _ = 1 to batch do Mvmu.execute_fast m ~stride:0 done))
         /. Float.of_int batch *. 1e6))

(* Run each of [passes] in turn until [seconds] have gone by (at least
   [min] rounds). Every pass of a kind must reproduce the first one's
   deterministic results exactly. *)
let repeat ~seconds ~min passes =
  let t0 = Unix.gettimeofday () in
  let rec go acc n =
    if n >= min && Unix.gettimeofday () -. t0 >= seconds then List.rev acc
    else go (List.map (fun f -> f ()) passes :: acc) (n + 1)
  in
  let rounds = go [] 0 in
  List.mapi
    (fun i _ ->
      let column = List.map (fun r -> List.nth r i) rounds in
      let first : W.pass = List.hd column in
      List.iter
        (fun (p : W.pass) ->
          if p.e2e <> first.e2e then
            mismatch "end-to-end results differ between passes of one seed";
          if p.layers <> first.layers then
            mismatch "per-layer counts differ between passes of one seed")
        column;
      column)
    passes

let () =
  let name, make, seed, seconds, traced = parse_args () in
  let e2e_names = declared "end_to_end" and layer_names = declared "per_layer" in
  let emit ~attempted ~failed values names =
    List.iter
      (fun (n, _) ->
        if not (List.mem_assoc n names) then
          failwith ("metric not declared in BENCHMARK.json: " ^ n))
      values;
    let metrics =
      List.map
        (fun (n, u) ->
          let v =
            match List.assoc_opt n values with
            | Some v -> v
            | None when traced -> 0.0 (* a layer this workload bypasses *)
            | None -> failwith ("workload does not define " ^ n)
          in
          (n, Json.Obj [ ("value", Json.Float v); ("unit", Json.String u) ]))
        names
    in
    print_endline
      (Json.to_string
         (Json.Obj
            [
              ("correct", Json.Bool (failed = 0));
              ("attempted", Json.Int attempted);
              ("failed", Json.Int failed);
              ("metrics", Json.Obj metrics);
            ]))
  in
  let outcome (passes : W.pass list) =
    List.fold_left
      (fun (a, f) (p : W.pass) -> (a + p.tally.attempted, f + p.tally.failed))
      (0, 0) passes
  in
  try
    let (w : W.t) = make ~seed in
    let w0 = Unix.gettimeofday () and c0 = Sys.time () in
    (* Discarded warm-up: fills caches and lazy state outside the timing.
       The peak RSS is read after it, over a fixed amount of work. *)
    ignore (w.untraced ~reps:false);
    let rss = peak_rss_mb () in
    if not traced then begin
      let passes = List.hd (repeat ~seconds ~min:3 [ (fun () -> w.untraced ~reps:true) ]) in
      let all f = List.concat_map f passes in
      let compile_s, _ = host_seconds (all (fun p -> p.W.compile_s)) in
      let setup_s, _ = host_seconds (all (fun p -> p.W.setup_s)) in
      let infer_s, inferences = host_seconds (all (fun p -> p.W.infer_s)) in
      Printf.eprintf
        "%d passes; calibrated: compile %.4f s, setup %.4f s, %d inferences %.4f s\n"
        (List.length passes) compile_s setup_s inferences infer_s;
      let attempted, failed = outcome passes in
      emit ~attempted ~failed
        ([
           ("setup_s", setup_s);
           ("compile_s", compile_s);
           ("sim_inf_per_s", Float.of_int inferences /. infer_s);
           ("peak_rss_mb", rss);
         ]
        @ (List.hd passes).e2e)
        e2e_names
    end
    else begin
      (* Alternate untraced and traced passes of identical work; spans are
         recorded in the traced ones only. *)
      let t0 = Unix.gettimeofday () in
      (* Whole-pass times, calibrated like every host sample. *)
      let walls = Hashtbl.create 2 in
      let timed key f () =
        W.last_cal := None;
        let p, (s : W.sample) = W.sample "pass" f in
        let calibrated = s.seconds *. spec_float "calibration_reference_s" /. s.cal in
        Hashtbl.replace walls key (calibrated :: Option.value ~default:[] (Hashtbl.find_opt walls key));
        p
      in
      let traced_pass () =
        Span.enable ();
        Fun.protect ~finally:Span.disable w.traced
      in
      let untraced_passes, traced_passes =
        match
          repeat ~seconds ~min:2
            [ timed `Untraced (fun () -> w.untraced ~reps:false); timed `Traced traced_pass ]
        with
        | [ u; t ] -> (u, t)
        | _ -> assert false
      in
      let first = List.hd untraced_passes and first_traced = List.hd traced_passes in
      if first_traced.e2e <> first.e2e then
        mismatch "traced replay differs from the library entry points";
      let n = Float.of_int (List.length traced_passes) in
      let self = Span.self_times () in
      let self_s name = fst (Option.value ~default:(0.0, 0) (Hashtbl.find_opt self name)) in
      let per_pass name = self_s name /. n in
      let per_call_ms name =
        match Hashtbl.find_opt self name with
        | Some (t, k) when k > 0 -> t /. Float.of_int k *. 1e3
        | _ -> 0.0
      in
      let sim_cycles = List.fold_left (fun a (p : W.pass) -> a + p.sim_cycles) 0 traced_passes in
      let wall key = median (Hashtbl.find walls key) in
      let g = Gc.quick_stat () in
      let inferences =
        List.fold_left
          (fun a (p : W.pass) -> a + List.fold_left (fun a (s : W.sample) -> a + s.inferences) 0 p.infer_s)
          0 (untraced_passes @ traced_passes)
      in
      (* Per-program compile times, for the workloads whose programs the
         per-layer list names (zoo_compile's model-dim pairs). *)
      let per_program =
        List.filter_map
          (fun (s : W.sample) ->
            let key = "compile_s." ^ s.unit in
            if List.mem_assoc key layer_names then
              Some
                ( key,
                  fst
                    (host_seconds
                       (List.filter
                          (fun (x : W.sample) -> x.unit = s.unit)
                          (List.concat_map (fun (p : W.pass) -> p.compile_s) untraced_passes))) )
            else None)
          first.compile_s
      in
      let values =
        List.map
          (fun s -> ("compiler." ^ s ^ "_s", per_pass ("compiler." ^ s)))
          [ "optimize"; "tiling"; "partition"; "schedule"; "codegen"; "sequencing" ]
        @ [
            ("analysis.analyze_s", per_pass "analysis.analyze");
            ("analysis.equiv_s", per_pass "analysis.equiv");
            ("sim.create_s", per_pass "sim.create");
            ("sim.warmup_s", per_pass "sim.warmup");
            ("sim.run_ms_per_inf", per_call_ms "sim.run");
            ( "sim.host_ns_per_cycle",
              if sim_cycles = 0 then 0.0
              else (self_s "sim.run" +. self_s "cluster.run") /. Float.of_int sim_cycles *. 1e9 );
            ("xbar.mvm_us", mvm_us ~seed);
            ("cluster.create_s", per_pass "cluster.create");
            ("cluster.run_ms_per_inf", per_call_ms "cluster.run");
            ("serve.phase1_s", per_pass "serve.phase1");
            ("serve.schedule_s", per_pass "serve.schedule");
            ("fault.remap_s", per_pass "fault.remap");
            ("fault.golden_s", per_pass "fault.golden");
            ("gc.minor_mwords_per_inf", g.minor_words /. Float.of_int inferences /. 1e6);
            ("gc.major_collections", Float.of_int g.major_collections);
            ("gc.top_heap_mb", Float.of_int (g.top_heap_words * (Sys.word_size / 8)) /. 1048576.0);
            ("host.cpu_over_wall", (Sys.time () -. c0) /. (Unix.gettimeofday () -. w0));
            ("trace.overhead_frac", (wall `Traced /. wall `Untraced) -. 1.0);
          ]
        @ per_program @ first_traced.layers
      in
      let out = ".perfbench_out" in
      if not (Sys.file_exists out) then Sys.mkdir out 0o755;
      Out_channel.with_open_bin
        (Filename.concat out (Printf.sprintf "spans-%s-seed%d.json" name seed))
        (fun oc ->
          output_string oc
            (Json.to_string
               (Json.Obj
                  [
                    ("workload", Json.String name);
                    ("seed", Json.Int seed);
                    ("traced_passes", Json.Int (List.length traced_passes));
                    ("spans", Span.to_json ~t0);
                  ]));
          output_char oc '\n');
      let attempted, failed = outcome (untraced_passes @ traced_passes) in
      emit ~attempted ~failed values layer_names
    end
  with
  | Mismatch msg ->
      prerr_endline ("perfbench: " ^ msg);
      exit 1
  | e ->
      (* A raising operation stops the run: none raises at the time of
         writing, so one that does is a regression to see at once. *)
      prerr_endline ("perfbench: " ^ Printexc.to_string e);
      exit 1
