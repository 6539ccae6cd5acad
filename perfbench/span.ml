(* In-memory span recorder for the traced run.

   A span has a name, a start, an end and the span that was open when it
   started (its parent). Recording is off unless [enable] was called, so
   the untraced passes pay one branch per wrapped call. Spans are kept in
   memory and written out once, at exit. *)

module Json = Puma_util.Json

type span = {
  id : int;
  name : string;
  parent : int;  (** -1 for a root span. *)
  start_s : float;
  mutable end_s : float;
}

let enabled = ref false
let spans : span list ref = ref []
let next_id = ref 0
let stack : int list ref = ref []

let enable () = enabled := true
let disable () = enabled := false

let with_ name f =
  if not !enabled then f ()
  else begin
    let id = !next_id in
    incr next_id;
    let parent = match !stack with p :: _ -> p | [] -> -1 in
    let s = { id; name; parent; start_s = Unix.gettimeofday (); end_s = nan } in
    spans := s :: !spans;
    stack := id :: !stack;
    Fun.protect
      ~finally:(fun () ->
        s.end_s <- Unix.gettimeofday ();
        stack := List.tl !stack)
      f
  end

let recorded () = List.rev !spans

(* Self time of every span (its duration minus its children's), summed per
   span name, with the number of spans of that name. Children nest inside
   their parent, so their durations add up to the interval they cover. *)
let self_times () =
  let all = recorded () in
  let child_time = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace child_time s.parent
          (Option.value ~default:0.0 (Hashtbl.find_opt child_time s.parent)
          +. (s.end_s -. s.start_s)))
    all;
  let by_name = Hashtbl.create 32 in
  List.iter
    (fun s ->
      let self =
        s.end_s -. s.start_s
        -. Option.value ~default:0.0 (Hashtbl.find_opt child_time s.id)
      in
      let t, n = Option.value ~default:(0.0, 0) (Hashtbl.find_opt by_name s.name) in
      Hashtbl.replace by_name s.name (t +. self, n + 1))
    all;
  by_name

let to_json ~t0 =
  Json.List
    (List.map
       (fun s ->
         Json.Obj
           [
             ("id", Json.Int s.id);
             ("name", Json.String s.name);
             ("parent", Json.Int s.parent);
             ("start_s", Json.Float (s.start_s -. t0));
             ("end_s", Json.Float (s.end_s -. t0));
           ])
       (recorded ()))
