module Rng = Puma_util.Rng

type t = {
  stuck_rate : float;
  stuck_on_fraction : float;
  dead_in_rate : float;
  dead_out_rate : float;
  drift_tau_cycles : float;
  drift_age_cycles : float;
  adc_offset_sigma : float;
}

let ideal =
  {
    stuck_rate = 0.0;
    stuck_on_fraction = 0.5;
    dead_in_rate = 0.0;
    dead_out_rate = 0.0;
    drift_tau_cycles = 0.0;
    drift_age_cycles = 0.0;
    adc_offset_sigma = 0.0;
  }

let drift_active m = m.drift_tau_cycles > 0.0 && m.drift_age_cycles > 0.0

let is_ideal m =
  m.stuck_rate = 0.0 && m.dead_in_rate = 0.0 && m.dead_out_rate = 0.0
  && m.adc_offset_sigma = 0.0
  && not (drift_active m)

let validate m =
  let rate name v acc =
    match acc with
    | Error _ -> acc
    | Ok _ when not (v >= 0.0 && v <= 1.0) ->
        Error (Printf.sprintf "%s must be in [0, 1] (got %g)" name v)
    | Ok _ -> acc
  in
  let nonneg name v acc =
    match acc with
    | Error _ -> acc
    | Ok _ when not (v >= 0.0) -> Error (Printf.sprintf "%s must be >= 0 (got %g)" name v)
    | Ok _ -> acc
  in
  Ok m
  |> rate "stuck_rate" m.stuck_rate
  |> rate "stuck_on_fraction" m.stuck_on_fraction
  |> rate "dead_in_rate" m.dead_in_rate
  |> rate "dead_out_rate" m.dead_out_rate
  |> nonneg "drift_tau_cycles" m.drift_tau_cycles
  |> nonneg "drift_age_cycles" m.drift_age_cycles
  |> nonneg "adc_offset_sigma" m.adc_offset_sigma

let pp fmt m =
  Format.fprintf fmt
    "@[<h>faults: stuck=%g (on %g) dead_in=%g dead_out=%g drift=%g/%gcyc \
     adc_sigma=%g@]"
    m.stuck_rate m.stuck_on_fraction m.dead_in_rate m.dead_out_rate
    m.drift_age_cycles m.drift_tau_cycles m.adc_offset_sigma

type stuck = {
  slice : int;
  negative : bool;
  out_line : int;
  in_line : int;
  on : bool;
}

type instance = {
  dim : int;
  stuck : stuck list;
  dead_in : bool array;
  dead_out : bool array;
  drift_factor : float;
  adc_offset : int array array;
}

let is_null i =
  i.stuck = []
  && (not (Array.exists Fun.id i.dead_in))
  && (not (Array.exists Fun.id i.dead_out))
  && i.drift_factor = 1.0
  && Array.for_all (Array.for_all (fun v -> v = 0)) i.adc_offset

let count i =
  let lines a = Array.fold_left (fun acc d -> if d then acc + 1 else acc) 0 a in
  List.length i.stuck + lines i.dead_in + lines i.dead_out

type perms = { out_perm : int array; in_perm : int array }

let identity_perms ~dim =
  { out_perm = Array.init dim Fun.id; in_perm = Array.init dim Fun.id }

let is_identity p =
  let id a = Array.for_all Fun.id (Array.mapi (fun k v -> k = v) a) in
  id p.out_perm && id p.in_perm

type spec = { instance : instance; perms : perms option }

type plan = {
  model : t;
  seed : int;
  remap : (int * int * int, perms) Hashtbl.t;
}

let plan ?(seed = 0) model = { model; seed; remap = Hashtbl.create 16 }

(* Child stream for the stack at (tile, core, mvmu): every coordinate is
   folded in through its own [Rng.stream] hop (each hop finalizes the
   state with a full mix), so neighbouring stacks draw from decorrelated
   streams and the realization of one stack never depends on how many
   draws another stack consumed. *)
let stack_rng ~seed ~tile ~core ~mvmu k =
  let r = Rng.create seed in
  let r = Rng.stream r tile in
  let r = Rng.stream r core in
  let r = Rng.stream r mvmu in
  Rng.stream r k

let realize_instance m ~seed ~tile ~core ~mvmu ~dim ~slices =
  let stream k = stack_rng ~seed ~tile ~core ~mvmu k in
  let stuck =
    if m.stuck_rate <= 0.0 then []
    else begin
      let rng = stream 0 in
      let acc = ref [] in
      for slice = 0 to slices - 1 do
        List.iter
          (fun negative ->
            for out_line = 0 to dim - 1 do
              for in_line = 0 to dim - 1 do
                if Rng.float rng 1.0 < m.stuck_rate then begin
                  let on = Rng.float rng 1.0 < m.stuck_on_fraction in
                  acc := { slice; negative; out_line; in_line; on } :: !acc
                end
              done
            done)
          [ false; true ]
      done;
      List.rev !acc
    end
  in
  let dead_lines k rate =
    if rate <= 0.0 then Array.make dim false
    else begin
      let rng = stream k in
      Array.init dim (fun _ -> Rng.float rng 1.0 < rate)
    end
  in
  let dead_in = dead_lines 1 m.dead_in_rate in
  let dead_out = dead_lines 2 m.dead_out_rate in
  let adc_offset =
    if m.adc_offset_sigma <= 0.0 then [||]
    else begin
      let rng = stream 3 in
      Array.init slices (fun _ ->
          Array.init dim (fun _ ->
              Float.to_int
                (Float.round (Rng.gaussian rng *. m.adc_offset_sigma))))
    end
  in
  let drift_factor =
    if drift_active m then exp (-.m.drift_age_cycles /. m.drift_tau_cycles)
    else 1.0
  in
  { dim; stuck; dead_in; dead_out; drift_factor; adc_offset }

let realize plan ~config ~tile ~core ~mvmu =
  let dim = config.Puma_hwmodel.Config.mvmu_dim in
  let slices = Puma_hwmodel.Config.slices config in
  let instance =
    realize_instance plan.model ~seed:plan.seed ~tile ~core ~mvmu ~dim ~slices
  in
  let perms = Hashtbl.find_opt plan.remap (tile, core, mvmu) in
  match perms with
  | None when is_null instance -> None
  | _ -> Some { instance; perms }
