(* The benchmark's own span recorder.

   A span wraps one call the benchmark makes into a layer's public
   function: name, layer, start, end and its parent.  The outermost span
   of an operation is its root, and every span of that operation carries
   the root's id, so an operation can be followed across layers.  Spans
   stay in memory and are written out as Chrome trace JSON at the end of
   a run.  Recording is single-domain by construction: only the main
   domain calls [record], also around Domain-parallel RQL calls, whose
   worker domains never see this recorder.  When [enabled] is false,
   [record] is a plain call. *)

type span = {
  id : int;
  op : int; (* id of the operation's root span *)
  parent : int; (* -1 for a root *)
  layer : string;
  name : string;
  t0 : float;
  mutable t1 : float;
}

let enabled = ref false
let completed : span list ref = ref []
let stack : span list ref = ref []
let next_id = ref 0

let record ~layer ~name f =
  if not !enabled then f ()
  else begin
    let id = !next_id in
    incr next_id;
    let parent, op = match !stack with p :: _ -> (p.id, p.op) | [] -> (-1, id) in
    let sp = { id; op; parent; layer; name; t0 = Unix.gettimeofday (); t1 = Float.nan } in
    stack := sp :: !stack;
    Fun.protect
      ~finally:(fun () ->
        sp.t1 <- Unix.gettimeofday ();
        stack := List.tl !stack;
        completed := sp :: !completed)
      f
  end

let dur sp = sp.t1 -. sp.t0
let named name = List.filter (fun sp -> sp.name = name) !completed

(* Total and count of the spans named [name]. *)
let total name = List.fold_left (fun (s, n) sp -> (s +. dur sp, n + 1)) (0., 0) (named name)

(* Self time per layer: each span's duration minus the part its direct
   children cover (children never overlap: one domain records them).
   Returns (layer, self seconds) and the summed duration of root spans. *)
let self_times () =
  let child_time = Hashtbl.create 256 in
  List.iter
    (fun sp ->
      if sp.parent >= 0 then
        Hashtbl.replace child_time sp.parent
          (dur sp +. Option.value (Hashtbl.find_opt child_time sp.parent) ~default:0.))
    !completed;
  let by_layer = Hashtbl.create 8 in
  let roots = ref 0. in
  List.iter
    (fun sp ->
      let self = dur sp -. Option.value (Hashtbl.find_opt child_time sp.id) ~default:0. in
      Hashtbl.replace by_layer sp.layer
        (self +. Option.value (Hashtbl.find_opt by_layer sp.layer) ~default:0.);
      if sp.parent < 0 then roots := !roots +. dur sp)
    !completed;
  (by_layer, !roots)

let write_chrome ~path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      let origin = List.fold_left (fun m sp -> Float.min m sp.t0) Float.infinity !completed in
      output_string oc "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
      List.iteri
        (fun i sp ->
          if i > 0 then output_char oc ',';
          Printf.fprintf oc
            "\n{\"name\":%S,\"cat\":%S,\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\
             \"args\":{\"id\":%d,\"op\":%d,\"parent\":%d}}"
            sp.name sp.layer
            ((sp.t0 -. origin) *. 1e6)
            (dur sp *. 1e6) sp.id sp.op sp.parent)
        (List.rev !completed);
      output_string oc "\n]}\n")
