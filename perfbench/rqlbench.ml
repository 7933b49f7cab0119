(* The repository benchmark: named workloads driven through the public
   API of the RQL engine by one client in a closed loop (each operation
   starts when the previous one has returned), with every result checked
   outside the timed regions.  See README.md for the workloads, the
   metrics and which layer metric should move which end-to-end metric.

     rqlbench --workload retro_scan|cpu_join|history_mixed
              --seed N --seconds S --trace 0|1

   The last line of standard output is one JSON object: with --trace 0
   it carries the end-to-end metrics, with --trace 1 the per-layer ones.
   The line before it is a report that tags each metric (measured,
   modeled, count, reported, residual or probe) and gives sample counts
   and the percentile behind each tail. *)

module E = Sqldb.Engine
module R = Storage.Record

let now = Unix.gettimeofday

(* --- command line ------------------------------------------------------- *)

type workload = Retro_scan | Cpu_join | History_mixed

let workload_name = function
  | Retro_scan -> "retro_scan"
  | Cpu_join -> "cpu_join"
  | History_mixed -> "history_mixed"

let usage () =
  prerr_endline
    "usage: rqlbench --workload retro_scan|cpu_join|history_mixed --seed N --seconds S \
     --trace 0|1";
  exit 2

let workload, seed, seconds, trace =
  let wl = ref None and seed = ref None and secs = ref None and trace = ref None in
  let rec go = function
    | "--workload" :: v :: rest ->
      wl :=
        (match v with
        | "retro_scan" -> Some Retro_scan
        | "cpu_join" -> Some Cpu_join
        | "history_mixed" -> Some History_mixed
        | _ -> usage ());
      go rest
    | "--seed" :: v :: rest ->
      seed := int_of_string_opt v;
      go rest
    | "--seconds" :: v :: rest ->
      secs := float_of_string_opt v;
      go rest
    | "--trace" :: v :: rest ->
      trace := (match v with "0" -> Some false | "1" -> Some true | _ -> usage ());
      go rest
    | [] -> ()
    | _ -> usage ()
  in
  go (List.tl (Array.to_list Sys.argv));
  match (!wl, !seed, !secs, !trace) with
  | Some w, Some s, Some t, Some tr when t > 0. -> (w, s, t, tr)
  | _ -> usage ()

(* --- sizes ---------------------------------------------------------------- *)

(* TPC-H scale factor and update workload shared by all three workloads.
   UW30 replaces 2% of the SF1 order population per snapshot (150 orders
   here), so its overwrite cycle is ~50 snapshots at any scale. *)
let sf = 0.005
let uw = Tpch.Workload.uw30
let setups = 3 (* set-ups per --trace 0 run, each measured for a third *)

(* retro_scan: intervals inside the first [n_old] snapshots, each of
   which has a full overwrite cycle of history behind it. *)
let n_old = 25
let retro_history = n_old + Tpch.Workload.overwrite_cycle uw + 10
let retro_shapes = [ (1, 5); (1, 10); (1, 20); (10, 2); (10, 3) ] (* (step, length) *)
let retro_cache_pages = 128

(* cpu_join: calls over 2 consecutive snapshots among the first
   [cpu_starts] + 1 of a [cpu_history]-snapshot history; a cycle visits
   every start once, in a seeded order, so each cycle does the same work. *)
let cpu_history = 30
let cpu_len = 2
let cpu_starts = 10

(* history_mixed: warm-up rounds, then cycles of [hm_rounds] update rounds
   ending in a retention vacuum; an intervals call every 2nd round over
   the latest [hm_interval] snapshots. *)
let hm_warmup = 12
let hm_rounds = 8
let hm_interval = 4
let hm_keep = 16
let hm_checkpoint_bytes = 1 lsl 20

let qq_io = "SELECT COUNT(*) AS c FROM orders WHERE o_orderstatus = 'O'"

let qq_cpu =
  "SELECT SUM(l_extendedprice) AS revenue FROM part, lineitem WHERE p_partkey = l_partkey \
   AND p_type = 'STANDARD POLISHED TIN'"

let qq_int = "SELECT o_orderkey, o_totalprice FROM orders WHERE o_custkey < 150"

(* history_mixed's ad-hoc queries: on the latest snapshot, on a recent
   one, and on a random live one (the join builds a covering index). *)
let hm_latest = "SELECT COUNT(*) AS c FROM orders WHERE o_orderstatus = 'O'"
let hm_recent = "SELECT SUM(o_totalprice) AS s FROM orders"

let hm_old =
  "SELECT COUNT(*) AS c FROM customer, orders WHERE c_custkey = o_custkey AND \
   c_mktsegment = 'BUILDING'"

let hm_templates = [ hm_latest; hm_recent; hm_old ]

(* Bytes of one Maplog entry (page id, Pagelog offset). *)
let maplog_entry_bytes = 16
let out_dir = Filename.concat "perfbench" "out"

(* --- counters ------------------------------------------------------------- *)

(* Public Obs.Metrics counters (and the two build-time gauges) the
   per-layer metrics are deltas of. *)
let counter_names =
  [| "storage.pagelog_reads"; "storage.db_page_reads"; "retro.snap_cache_hits";
     "retro.snap_cache_misses"; "retro.maplog_scanned"; "sql.spt_builds"; "sql.index_builds";
     "retro.cow_archived"; "storage.wal_bytes"; "storage.wal_fsyncs"; "storage.checkpoints";
     "storage.wal_truncated_bytes"; "retro.blocks_reclaimed"; "retro.checksum_failures";
     "sql.plan_cache_hits"; "sql.plan_cache_misses"; "sql.rows_scanned"; "sql.rows_returned";
     "storage.lru_hits"; "storage.lru_misses" |]

let gauge_names = [| "sql.spt_build_s"; "sql.index_build_s" |]
let n_counters = Array.length counter_names + Array.length gauge_names

let slot name =
  let all = Array.append counter_names gauge_names in
  let rec go i = if all.(i) = name then i else go (i + 1) in
  go 0

(* A renamed metric must fail the run, not read as zero. *)
let () =
  let present = List.map fst (Obs.Metrics.sorted_items ()) in
  Array.iter
    (fun n ->
      if not (List.mem n present) then begin
        Printf.eprintf "rqlbench: metric %s is not registered\n" n;
        exit 3
      end)
    (Array.append counter_names gauge_names)

let counters_now () =
  Array.append
    (Array.map
       (fun n -> float_of_int (Obs.Metrics.Counter.get (Obs.Metrics.counter n)))
       counter_names)
    (Array.map (fun n -> Obs.Metrics.Gauge.get (Obs.Metrics.gauge n)) gauge_names)

let ctr name = Obs.Metrics.Counter.get (Obs.Metrics.counter name)

(* --- operations ------------------------------------------------------------ *)

(* Per-kind accounting of one pass. *)
type acc = {
  mutable lat : float list; (* latencies of operations that passed their check *)
  mutable attempted : int;
  mutable failed : int;
  mutable time : float; (* wall of every attempted operation *)
  deltas : float array; (* summed counter deltas (traced pass) *)
}

let new_acc () =
  { lat = []; attempted = 0; failed = 0; time = 0.; deltas = Array.make n_counters 0. }
let rql = ref (new_acc ())
let asof = ref (new_acc ())
let update = ref (new_acc ())
let vacuum = ref (new_acc ())
let setup_updates = new_acc ()
let probe_acc = new_acc ()
let totals = ref (0, 0) (* attempted, failed over the whole run *)

let reset_pass () =
  rql := new_acc ();
  asof := new_acc ();
  update := new_acc ();
  vacuum := new_acc ()

let pass_accs () = [ !rql; !asof; !update; !vacuum ]
let measured = ref 0. (* timed operation wall of the current pass *)
let count_deltas = ref false
let excluded = ref 0.

(* Untimed work inside an operation (reference bookkeeping). *)
let untimed f =
  let t = now () in
  Fun.protect
    ~finally:(fun () -> excluded := !excluded +. (now () -. t))
    (fun () -> Spans.record ~layer:"check" ~name:"check" f)

let fail_note name e = Printf.eprintf "rqlbench: %s failed: %s\n%!" name e

(* Run one operation: time [f], then (untimed) [check] its value.  An
   operation that raises or fails its check counts as failed and has no
   latency sample. *)
let run_op acc ~name f check =
  acc.attempted <- acc.attempted + 1;
  let c0 = if !count_deltas then counters_now () else [||] in
  excluded := 0.;
  let t0 = now () in
  let res = try Ok (Spans.record ~layer:"bench" ~name f) with e -> Error e in
  let dt = now () -. t0 -. !excluded in
  measured := !measured +. dt;
  acc.time <- acc.time +. dt;
  if !count_deltas then begin
    let c1 = counters_now () in
    Array.iteri (fun i v -> acc.deltas.(i) <- acc.deltas.(i) +. (c1.(i) -. v)) c0
  end;
  let ok =
    match res with
    | Error e ->
      fail_note name (Printexc.to_string e);
      None
    | Ok v -> (
      match Spans.record ~layer:"check" ~name:"check" (fun () -> check v) with
      | true -> Some v
      | false ->
        fail_note name "result check";
        None
      | exception e ->
        fail_note name ("check raised " ^ Printexc.to_string e);
        None)
  in
  (match ok with Some _ -> acc.lat <- dt :: acc.lat | None -> acc.failed <- acc.failed + 1);
  ok

(* --- values and references -------------------------------------------------- *)

let num = function R.Int i -> Some (float_of_int i) | R.Real f -> Some f | _ -> None

let same_value a b =
  match (a, b) with
  | R.Int x, R.Int y -> x = y
  | _ -> (
    match (num a, num b) with
    | Some x, Some y -> Float.abs (x -. y) <= 1e-9 *. Float.max 1. (Float.abs x)
    | _ -> a = b)

let scalar_of (res : E.result) =
  match res.E.rows with [ row ] when Array.length row = 1 -> row.(0) | _ -> failwith "not a scalar"

(* [qq] read AS OF [at] (a snapshot id or the placeholder ?); every
   query here starts with "SELECT ". *)
let as_of qq at = Printf.sprintf "SELECT AS OF %s %s" at (String.sub qq 7 (String.length qq - 7))

(* One ad-hoc AS OF query, issued as a client with prepared statements
   issues it: parse, prepare (plan-cache lookup), execute bound. *)
let asof_query db template sid =
  let stmt = Spans.record ~layer:"sql" ~name:"sql.parse" (fun () -> E.parse template) in
  let sel = match stmt with Sqldb.Ast.Select s -> s | _ -> failwith "not a SELECT" in
  let p =
    Spans.record ~layer:"sql" ~name:"sql.prepare" (fun () ->
        E.prepare_select db ~key:template sel)
  in
  Spans.record ~layer:"sql" ~name:"sql.exec_prepared" (fun () ->
      E.exec_prepared ~params:[| R.Int sid |] p)

(* Snapshot reducibility: AggregateDataInVariable(AVG) over a snapshot
   set equals the mean of Qq's value AS OF each snapshot. *)
let mean_of values =
  let xs = List.filter_map num values in
  if List.length xs <> List.length values || xs = [] then None
  else Some (List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs))

(* CollateDataIntoIntervals over [sids] from the per-snapshot row sets:
   one (row, start, end) per maximal run of consecutive set members. *)
let intervals_of sids rows_at =
  let open_ = Hashtbl.create 1024 and out = ref [] in
  let close row (start, last) = out := Array.append row [| R.Int start; R.Int last |] :: !out in
  List.iter
    (fun sid ->
      let rows = rows_at sid in
      let seen = Hashtbl.create 1024 in
      List.iter
        (fun row ->
          Hashtbl.replace seen row ();
          match Hashtbl.find_opt open_ row with
          | Some (start, _) -> Hashtbl.replace open_ row (start, sid)
          | None -> Hashtbl.replace open_ row (sid, sid))
        rows;
      Hashtbl.filter_map_inplace
        (fun row (start, last) ->
          if Hashtbl.mem seen row then Some (start, last)
          else begin
            close row (start, last);
            None
          end)
        open_)
    sids;
  Hashtbl.iter close open_;
  List.sort R.compare_row !out

(* --- workload state ---------------------------------------------------------- *)

type state = {
  ctx : Rql.ctx;
  gen : Tpch.Dbgen.state;
  wal : string option;
  recorded : (int * string, R.value) Hashtbl.t; (* (sid, query) -> answer at declaration *)
  memo : (string * int, R.row list) Hashtbl.t; (* (Qq, sid) -> rows AS OF sid *)
  mutable latest : int;
  mutable working_set_pages : int; (* retro_scan: distinct archive pages of the longest interval *)
}

let retro st = Sqldb.Db.retro_exn st.ctx.Rql.data
let remove_if_exists p = if Sys.file_exists p then Sys.remove p

let drop_wal = function
  | Some p ->
    remove_if_exists p;
    remove_if_exists (p ^ ".ckpt")
  | None -> ()

let close st =
  if st.wal <> None then Sqldb.Db.close_wal st.ctx.Rql.data;
  drop_wal st.wal

(* One update: RF2 and RF1 batches, then COMMIT WITH SNAPSHOT (with any
   auto-checkpoint it triggers).  history_mixed records its queries'
   answers from the current state just before the snapshot is declared;
   that bookkeeping is excluded from the latency. *)
let update_round st acc =
  let count = Tpch.Workload.orders_per_snapshot uw ~sf in
  let data = st.ctx.Rql.data in
  ignore
    (run_op acc ~name:"update"
       (fun () ->
         Spans.record ~layer:"tpch" ~name:"tpch.rf2" (fun () ->
             ignore (Tpch.Refresh.rf2 st.gen data ~count));
         Spans.record ~layer:"tpch" ~name:"tpch.rf1" (fun () ->
             ignore (Tpch.Refresh.rf1 st.gen data ~count));
         let answers =
           if workload <> History_mixed then []
           else untimed (fun () -> List.map (fun q -> (q, scalar_of (E.exec data q))) hm_templates)
         in
         let sid =
           Spans.record ~layer:"core" ~name:"core.declare_snapshot" (fun () ->
               Rql.declare_snapshot st.ctx)
         in
         untimed (fun () ->
             List.iter (fun (q, v) -> Hashtbl.replace st.recorded (sid, q) v) answers);
         st.latest <- sid)
       (fun () -> true))

let setup k =
  let t0 = now () in
  let data, wal =
    match workload with
    | History_mixed ->
      let path = Filename.concat out_dir (Printf.sprintf "hm-%d-%d.wal" (Unix.getpid ()) k) in
      drop_wal (Some path);
      let db, _ =
        Spans.record ~layer:"sql" ~name:"sql.open_wal" (fun () ->
            Sqldb.Db.open_wal ~group_commit:1 ~path ())
      in
      (db, Some path)
    | Retro_scan | Cpu_join -> (Sqldb.Db.create ~snapshots:true (), None)
  in
  let ctx = Rql.create ~data () in
  if wal <> None then
    ignore (E.exec data (Printf.sprintf "PRAGMA checkpoint_threshold = %d" hm_checkpoint_bytes));
  let gen =
    Spans.record ~layer:"tpch" ~name:"tpch.generate" (fun () ->
        Tpch.Dbgen.generate ~seed ctx.Rql.data ~sf)
  in
  let st =
    { ctx; gen; wal; recorded = Hashtbl.create 256; memo = Hashtbl.create 64; latest = 0;
      working_set_pages = 0 }
  in
  let rounds =
    match workload with
    | Retro_scan -> retro_history
    | Cpu_join -> cpu_history
    | History_mixed -> hm_warmup
  in
  for _ = 1 to rounds do
    update_round st setup_updates
  done;
  (st, now () -. t0)

(* --- RQL calls ---------------------------------------------------------------- *)

(* Sums of the Iter_stats fields of traced sequential calls. *)
type reported = {
  mutable calls : int;
  mutable iterations : int;
  mutable outside_s : float;
  mutable loop_body_s : float;
  mutable loop_rows : int;
  mutable writes : int;
  mutable query_eval_s : float;
  mutable evictions : int;
}

let rep =
  { calls = 0; iterations = 0; outside_s = 0.; loop_body_s = 0.; loop_rows = 0; writes = 0;
    query_eval_s = 0.; evictions = 0 }

let iterations_done = ref 0
let rql_pagelog_reads = ref 0.
let result_table = "bench_result"

(* Read the result table, then drop it so every call does the same work. *)
let take_result st =
  let meta = st.ctx.Rql.meta in
  let rows = E.query meta ("SELECT * FROM " ^ result_table) in
  ignore (E.drop_index meta ~name:(result_table ^ "__rql_key") ~if_exists:true);
  ignore (E.drop_table meta ~name:result_table ~if_exists:true);
  rows

let qs_of sids =
  match sids with
  | [] -> invalid_arg "qs_of"
  | first :: _ ->
    let last = List.nth sids (List.length sids - 1) in
    let step = match sids with a :: b :: _ -> b - a | _ -> 1 in
    Printf.sprintf "SELECT snap_id FROM SnapIds WHERE snap_id >= %d AND snap_id <= %d%s" first last
      (if step > 1 then Printf.sprintf " AND snap_id %% %d = %d" step (first mod step) else "")

type mech = Avg | Intervals

let mechanism_call ?(domains = 1) st mech ~qs ~qq =
  match mech with
  | Avg ->
    Spans.record ~layer:"core" ~name:"core.aggregate_data_in_variable" (fun () ->
        Rql.aggregate_data_in_variable ~domains st.ctx ~qs ~qq ~table:result_table ~fn:"avg")
  | Intervals ->
    Spans.record ~layer:"core" ~name:"core.collate_data_into_intervals" (fun () ->
        Rql.collate_data_into_intervals ~domains st.ctx ~qs ~qq ~table:result_table)

(* One RQL call over [sids], checked against [expected] rows. *)
let rql_call ?(domains = 1) ?(acc = !rql) st mech ~sids ~qq ~expected =
  let qs = qs_of sids in
  if !Spans.enabled && domains = 1 then
    ignore
      (Spans.record ~layer:"core" ~name:"core.snapshot_set" (fun () ->
           Rql.snapshot_set st.ctx qs));
  let ev0 = (Retro.cache_stats (retro st)).Storage.Lru.s_evictions in
  let p0 = ctr "storage.pagelog_reads" in
  let res = ref None in
  let ok =
    run_op acc ~name:"rql_call"
      (fun () -> mechanism_call ~domains st mech ~qs ~qq)
      (fun run ->
        let rows = take_result st in
        res := Some run;
        match (expected, mech) with
        | None, _ -> false
        | Some exp, Avg -> (
          match (rows, exp) with [ [| v |] ], [ [| e |] ] -> same_value v e | _ -> false)
        | Some exp, Intervals -> List.sort R.compare_row rows = exp)
  in
  if acc == !rql then
    rql_pagelog_reads := !rql_pagelog_reads +. float_of_int (ctr "storage.pagelog_reads" - p0);
  (match (ok, !res) with
  | Some _, Some run when acc == !rql ->
    let its = run.Rql.Iter_stats.iterations in
    iterations_done := !iterations_done + List.length its;
    if !count_deltas && domains = 1 then begin
      let sum f = List.fold_left (fun a it -> a +. f it) 0. its in
      let isum f = List.fold_left (fun a it -> a + f it) 0 its in
      let open Rql.Iter_stats in
      rep.calls <- rep.calls + 1;
      rep.iterations <- rep.iterations + List.length its;
      rep.outside_s <-
        rep.outside_s +. List.hd acc.lat
        -. sum (fun it -> it.spt_build_s +. it.index_build_s +. it.query_eval_s +. it.udf_s);
      rep.loop_body_s <- rep.loop_body_s +. sum (fun it -> it.udf_s);
      rep.loop_rows <- rep.loop_rows + isum (fun it -> it.udf_rows);
      rep.writes <- rep.writes + isum (fun it -> it.udf_inserts + it.udf_updates);
      rep.query_eval_s <- rep.query_eval_s +. sum (fun it -> it.query_eval_s);
      rep.evictions <-
        rep.evictions + (Retro.cache_stats (retro st)).Storage.Lru.s_evictions - ev0
    end
  | _ -> ());
  ok <> None

let pick rng lo hi = lo + Random.State.int rng (hi - lo + 1)

(* Untimed reference: Qq's rows AS OF [sid], memoised per state (the
   rows of a declared snapshot never change). *)
let rows_at st qq sid =
  match Hashtbl.find_opt st.memo (qq, sid) with
  | Some rows -> rows
  | None ->
    let rows = E.query st.ctx.Rql.data (as_of qq (string_of_int sid)) in
    Hashtbl.replace st.memo (qq, sid) rows;
    rows

(* Expected result of an RQL call, combined from the references. *)
let expected st mech ~qq sids =
  untimed (fun () ->
      match mech with
      | Avg ->
        let value sid = match rows_at st qq sid with [ [| v |] ] -> v | _ -> R.Null in
        Option.map (fun m -> [ [| R.Real m |] ]) (mean_of (List.map value sids))
      | Intervals -> Some (intervals_of sids (rows_at st qq)))

(* One ad-hoc AS OF query, checked against [answer]. *)
let asof_op st q sid answer =
  ignore
    (run_op !asof ~name:"asof"
       (fun () -> scalar_of (asof_query st.ctx.Rql.data (as_of q "?") sid))
       (fun v -> match answer with Some exp -> same_value v exp | None -> false))

(* retro_scan's and cpu_join's AS OF operation: Qq on a random snapshot
   of the range the workload's calls cover. *)
let asof_reference_op st rng ~qq ~hi =
  let sid = pick rng 1 hi in
  let answer = untimed (fun () -> match rows_at st qq sid with [ [| v |] ] -> Some v | _ -> None) in
  asof_op st qq sid answer

let rec range a b = if a > b then [] else a :: range (a + 1) b

(* --- cycles --------------------------------------------------------------------- *)

let retro_sids rng (step, len) =
  let span = ((len - 1) * step) + 1 in
  let start = pick rng 1 (n_old - span + 1) in
  List.init len (fun i -> start + (i * step))

let cycle st rng =
  match workload with
  | Retro_scan ->
    List.iter
      (fun shape ->
        let sids = retro_sids rng shape in
        ignore (rql_call st Avg ~sids ~qq:qq_io ~expected:(expected st Avg ~qq:qq_io sids));
        asof_reference_op st rng ~qq:qq_io ~hi:n_old)
      retro_shapes
  | Cpu_join ->
    let starts = Array.init cpu_starts (fun i -> i + 1) in
    for i = cpu_starts - 1 downto 1 do
      let j = Random.State.int rng (i + 1) in
      let t = starts.(i) in
      starts.(i) <- starts.(j);
      starts.(j) <- t
    done;
    Array.iter
      (fun start ->
        let sids = List.init cpu_len (fun i -> start + i) in
        ignore (rql_call st Avg ~sids ~qq:qq_cpu ~expected:(expected st Avg ~qq:qq_cpu sids));
        asof_reference_op st rng ~qq:qq_cpu ~hi:(cpu_starts + cpu_len - 1))
      starts
  | History_mixed ->
    let data = st.ctx.Rql.data in
    for r = 1 to hm_rounds do
      update_round st !update;
      let first_live = Retro.first_live (retro st) in
      List.iter
        (fun (q, sid) -> asof_op st q sid (Hashtbl.find_opt st.recorded (sid, q)))
        [ (hm_latest, st.latest);
          (hm_recent, max first_live (st.latest - 2));
          (hm_old, pick rng first_live st.latest) ];
      if r mod 2 = 0 then begin
        let sids = range (st.latest - hm_interval + 1) st.latest in
        let expected = expected st Intervals ~qq:qq_int sids in
        ignore (rql_call st Intervals ~sids ~qq:qq_int ~expected)
      end
    done;
    let keep_from = st.latest - hm_keep + 1 in
    ignore
      (run_op !vacuum ~name:"vacuum"
         (fun () ->
           Spans.record ~layer:"retro" ~name:"retro.vacuum" (fun () ->
               E.exec data (Printf.sprintf "VACUUM SNAPSHOTS KEEPING LAST %d" hm_keep)))
         (fun _ -> Retro.first_live (retro st) = keep_from));
    Hashtbl.filter_map_inplace
      (fun (_, sid) rows -> if sid >= keep_from then Some rows else None)
      st.memo;
    Hashtbl.filter_map_inplace
      (fun (sid, _) v -> if sid >= keep_from then Some v else None)
      st.recorded

(* --- passes and probes ------------------------------------------------------------ *)

(* Whole cycles until the timed operations have used [budget] seconds.
   The operation sequence depends only on the seed. *)
let pass st ~budget =
  let rng = Random.State.make [| seed; 17 |] in
  measured := 0.;
  while !measured < budget do
    cycle st rng
  done

let fold_totals accs =
  List.iter
    (fun a -> totals := (fst !totals + a.attempted, snd !totals + a.failed))
    accs

let pass_ops () = List.fold_left (fun n a -> n + a.attempted) 0 (pass_accs ())

(* The workload's own RQL call at 1 and at 2 domains, alternating; the
   ratio of median walls.  Spans stay in the benchmark's recorder (main
   domain only); worker domains record nothing. *)
let parallel_speedup st =
  let mech, qq, sids =
    match workload with
    | Retro_scan -> (Avg, qq_io, range 1 20)
    | Cpu_join -> (Avg, qq_cpu, range 1 cpu_len)
    | History_mixed -> (Intervals, qq_int, range (st.latest - hm_interval + 1) st.latest)
  in
  let expected = expected st mech ~qq sids in
  let walls = [| []; [] |] in
  for _ = 1 to 3 do
    List.iter
      (fun d ->
        let n = List.length probe_acc.lat in
        ignore (rql_call ~domains:d ~acc:probe_acc st mech ~sids ~qq ~expected);
        if List.length probe_acc.lat > n then
          walls.(d - 1) <- List.hd probe_acc.lat :: walls.(d - 1))
      [ 1; 2 ]
  done;
  (walls.(0), walls.(1))

(* One-call probes for a layer the workload's own operations do not
   exercise, so that each per-layer metric has a sample; their values
   are tagged "probe". *)
let vacuum_probe st acc =
  let n = max 1 (st.latest / 2) in
  ignore
    (run_op acc ~name:"vacuum"
       (fun () ->
         Spans.record ~layer:"retro" ~name:"retro.vacuum" (fun () ->
             E.exec st.ctx.Rql.data (Printf.sprintf "VACUUM SNAPSHOTS KEEPING LAST %d" n)))
       (fun _ -> Retro.first_live (retro st) = st.latest - n + 1))

let index_probe st acc =
  ignore
    (run_op acc ~name:"asof"
       (fun () -> scalar_of (asof_query st.ctx.Rql.data (as_of qq_cpu "?") st.latest))
       (fun _ -> true))

(* Distinct archive pages one cold call over the longest interval
   fetches, with a cache large enough to hold them all. *)
let measure_working_set st =
  let r = retro st in
  Retro.set_cache_pages r Retro.default_cache_pages;
  let p0 = ctr "storage.pagelog_reads" in
  Spans.record ~layer:"check" ~name:"check" (fun () ->
      ignore (mechanism_call st Avg ~qs:(qs_of (range 1 20)) ~qq:qq_io);
      ignore (take_result st));
  st.working_set_pages <- ctr "storage.pagelog_reads" - p0;
  Retro.set_cache_pages r retro_cache_pages

(* --- statistics ---------------------------------------------------------------------- *)

(* A failed operation misses every latency: it sorts as +infinity. *)
let samples acc = Array.of_list (acc.lat @ List.init acc.failed (fun _ -> Float.infinity))

let mean xs = Array.fold_left ( +. ) 0. xs /. float_of_int (Array.length xs)

let median xs =
  let a = Array.copy xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then Float.nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* The highest percentile with at least ten samples beyond it. *)
let tail xs =
  let a = Array.copy xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then (Float.nan, 0.)
  else if n <= 10 then (a.(n - 1), 100.)
  else (a.(n - 11), 100. *. float_of_int (n - 10) /. float_of_int n)

let per a b = if b = 0. then 0. else a /. b

let peak_rss_mb () =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> Float.nan
  | ic ->
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () ->
        let rec go () =
          match input_line ic with
          | exception End_of_file -> Float.nan
          | l when String.length l > 6 && String.sub l 0 6 = "VmHWM:" ->
            Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d" (fun kb ->
                float_of_int kb /. 1024.)
          | _ -> go ()
        in
        go ())

(* --- output ---------------------------------------------------------------------------- *)

type metric = {
  m_name : string;
  value : float;
  unit_ : string;
  tag : string; (* measured | modeled | count | reported | residual | probe *)
  extra : (string * float) list;
  gated : bool; (* false: in the report line only *)
}

let m ?(extra = []) ?(gated = true) m_name value unit_ tag =
  { m_name; value; unit_; tag; extra; gated }
let jfloat f = if Float.is_finite f then Printf.sprintf "%.17g" f else "1e308"

let jobj fields =
  "{" ^ String.concat "," (List.map (fun (k, v) -> Printf.sprintf "%S:%s" k v) fields) ^ "}"

let archive_bytes st =
  Retro.pagelog_size_bytes (retro st) + (Retro.maplog_length (retro st) * maplog_entry_bytes)

let end_to_end st setup_times =
  let rq = !rql in
  let rql_tail, rql_pct = tail (samples rq) in
  let as_tail, as_pct = tail (samples !asof) in
  let upd = if !update.attempted > 0 then !update else setup_updates in
  let up_tail, up_pct = tail (samples upd) in
  let ops = List.fold_left (fun n a -> n + List.length a.lat) 0 (pass_accs ()) in
  let n s = float_of_int (Array.length s) in
  let attempted, failed =
    List.fold_left (fun (a, f) x -> (a + x.attempted, f + x.failed)) (0, 0) (pass_accs ())
  in
  (* Medians are reported but not gated: on a machine whose speed changes
     in phases, single-operation latencies have two modes and the median
     jumps between them from run to run; the mean moves smoothly. *)
  [ m "setup_s" (median (Array.of_list setup_times)) "s" "measured"
      ~extra:[ ("setups", float_of_int (List.length setup_times)) ];
    m "rql_query_p50_s" (median (samples rq)) "s" "measured" ~gated:false
      ~extra:[ ("samples", n (samples rq)) ];
    m "rql_query_tail_s" rql_tail "s" "measured"
      ~extra:[ ("percentile", rql_pct); ("samples", n (samples rq)) ];
    m "rql_snapshots_per_s" (per (float_of_int !iterations_done) rq.time) "1/s" "measured";
    m "rql_modeled_io_s"
      (per !rql_pagelog_reads (float_of_int rq.attempted) *. !Storage.Stats.Cost_model.ssd_read_s)
      "s" "modeled"
      ~extra:[ ("ssd_read_s", !Storage.Stats.Cost_model.ssd_read_s) ];
    m "asof_mean_s" (mean (samples !asof)) "s" "measured" ~extra:[ ("samples", n (samples !asof)) ];
    m "asof_p50_s" (median (samples !asof)) "s" "measured" ~gated:false;
    m "asof_tail_s" as_tail "s" "measured"
      ~extra:[ ("percentile", as_pct); ("samples", n (samples !asof)) ];
    m "update_mean_s" (mean (samples upd)) "s" "measured" ~extra:[ ("samples", n (samples upd)) ];
    m "update_p50_s" (median (samples upd)) "s" "measured" ~gated:false;
    m "update_tail_s" up_tail "s" "measured"
      ~extra:[ ("percentile", up_pct); ("samples", n (samples upd)) ];
    m "ops_per_s"
      (per (float_of_int ops) (List.fold_left (fun t a -> t +. a.time) 0. (pass_accs ())))
      "1/s" "measured";
    m "archive_mb" (float_of_int (archive_bytes st) /. 1e6) "MB" "count";
    m "peak_rss_mb" (peak_rss_mb ()) "MB" "measured";
    m "failed_op_share" (per (float_of_int failed) (float_of_int attempted)) "ratio" "count"
      ~gated:false ]

(* [vac] and [idx] hold the operations the vacuum and index-build
   metrics come from: the workload's own, or a probe's (named in
   [probes]). *)
let per_layer ~untraced_per_op ~traced_per_op ~walls1 ~walls2 ~vac ~idx ~probes =
  let d acc name = acc.deltas.(slot name) in
  let reads = [ !rql; !asof ] in
  let dr name = List.fold_left (fun s a -> s +. d a name) 0. reads in
  let all name = List.fold_left (fun s a -> s +. d a name) 0. (pass_accs ()) in
  let n_reads = float_of_int (List.fold_left (fun s a -> s + a.attempted) 0 reads) in
  let calls = float_of_int rep.calls in
  let rq = !rql in
  let upd = if !update.attempted > 0 then !update else setup_updates in
  let n_upd = float_of_int upd.attempted in
  let mean_span name = let s, k = Spans.total name in per s (float_of_int k) in
  let rf2, rounds = Spans.total "tpch.rf2" and rf1, _ = Spans.total "tpch.rf1" in
  let self, roots = Spans.self_times () in
  let share layer = per (Option.value (Hashtbl.find_opt self layer) ~default:0.) roots in
  let ratio name hits misses tag =
    let h = hits and t = hits +. misses in
    [ m (name ^ "_hit_ratio") (per h t) "ratio" tag; m (name ^ "_lookups") t "count" tag ]
  in
  let tag_probe name base = if List.mem name probes then "probe" else base in
  let di name = List.fold_left (fun s a -> s +. d a name) 0. idx in
  let n_idx = float_of_int (List.fold_left (fun s a -> s + a.attempted) 0 idx) in
  [ m "tpch.dbgen_s" (mean_span "tpch.generate") "s" "measured";
    m "tpch.refresh_s" (per (rf2 +. rf1) (float_of_int rounds)) "s" "measured";
    m "core.declare_snapshot_s" (mean_span "core.declare_snapshot") "s" "measured";
    m "core.snapshot_set_s" (mean_span "core.snapshot_set") "s" "measured";
    m "core.outside_loop_s" (per rep.outside_s calls) "s" "residual";
    m "core.loop_body_s" (per rep.loop_body_s calls) "s" "reported";
    m "core.loop_body_rows" (per (float_of_int rep.loop_rows) calls) "count" "reported";
    m "core.result_writes" (per (float_of_int rep.writes) calls) "count" "reported";
    m "core.parallel_speedup"
      (per (median (Array.of_list walls1)) (median (Array.of_list walls2)))
      "x" "measured"
      ~extra:[ ("domains", 2.); ("calls_per_side", float_of_int (List.length walls1)) ];
    m "retro.spt_build_s" (per (d rq "sql.spt_build_s") calls) "s" "reported";
    m "retro.spt_builds" (per (d rq "sql.spt_builds") calls) "count" "count";
    m "retro.maplog_scanned_per_spt" (per (d rq "retro.maplog_scanned") (d rq "sql.spt_builds"))
      "count" "count";
    m "retro.pagelog_reads_per_snapshot"
      (per (d rq "storage.pagelog_reads") (float_of_int rep.iterations))
      "count" "count" ]
  @ ratio "retro.snap_cache" (d rq "retro.snap_cache_hits") (d rq "retro.snap_cache_misses") "count"
  @ [ m "retro.snap_cache_evictions" (per (float_of_int rep.evictions) calls) "count" "count";
      m "retro.cow_pages_per_update" (per (d upd "retro.cow_archived") n_upd) "count" "count";
      m "retro.vacuum_s" (per vac.time (float_of_int vac.attempted)) "s"
        (tag_probe "vacuum" "measured");
      m "retro.blocks_reclaimed"
        (per (d vac "retro.blocks_reclaimed") (float_of_int vac.attempted))
        "count" (tag_probe "vacuum" "count");
      m "sql.index_build_s" (per (di "sql.index_build_s") n_idx) "s" (tag_probe "index" "reported");
      m "sql.index_builds" (per (di "sql.index_builds") n_idx) "count" (tag_probe "index" "count");
      m "sql.query_eval_s" (per rep.query_eval_s calls) "s" "residual";
      m "sql.parse_s" (mean_span "sql.parse") "s" "measured";
      m "sql.prepare_s" (mean_span "sql.prepare") "s" "measured";
      m "sql.exec_prepared_s" (mean_span "sql.exec_prepared") "s" "measured" ]
  @ ratio "sql.plan_cache" (all "sql.plan_cache_hits") (all "sql.plan_cache_misses") "count"
  @ [ m "sql.rows_scanned_per_row_returned"
        (per (d !asof "sql.rows_scanned") (d !asof "sql.rows_returned"))
        "count" "count";
      m "sql.rows_returned" (d !asof "sql.rows_returned") "count" "count";
      m "storage.wal_bytes_per_update" (per (d upd "storage.wal_bytes") n_upd) "B" "count";
      m "storage.wal_fsyncs_per_update" (per (d upd "storage.wal_fsyncs") n_upd) "count" "count";
      m "storage.checkpoints" (all "storage.checkpoints") "count" "count";
      m "storage.wal_truncated_bytes" (all "storage.wal_truncated_bytes") "B" "count" ]
  @ ratio "storage.lru" (all "storage.lru_hits") (all "storage.lru_misses") "count"
  @ [ m "storage.db_page_reads_per_query" (per (dr "storage.db_page_reads") n_reads) "count"
        "count";
      m "obs.trace_overhead" (per traced_per_op untraced_per_op) "x" "measured" ]
  @ List.map
      (fun l -> m (l ^ ".self_share") (share l) "ratio" "measured")
      [ "tpch"; "core"; "sql"; "retro" ]

let print_result ~correct ~sizes metrics =
  let attempted, failed = !totals in
  let report =
    jobj
      [ ("workload", Printf.sprintf "%S" (workload_name workload));
        ("seed", string_of_int seed);
        ("seconds", jfloat seconds);
        ("trace", if trace then "1" else "0");
        ("sizes", jobj (List.map (fun (k, v) -> (k, string_of_int v)) sizes));
        ( "metrics",
          jobj
            (List.map
               (fun x ->
                 ( x.m_name,
                   jobj
                     ([ ("value", jfloat x.value); ("unit", Printf.sprintf "%S" x.unit_);
                        ("tag", Printf.sprintf "%S" x.tag) ]
                     @ List.map (fun (k, v) -> (k, jfloat v)) x.extra) ))
               metrics) ) ]
  in
  print_endline (jobj [ ("report", report) ]);
  print_endline
    (jobj
       [ ("correct", string_of_bool correct);
         ("attempted", string_of_int attempted);
         ("failed", string_of_int failed);
         ( "metrics",
           jobj
             (List.map
                (fun x ->
                  ( x.m_name,
                    jobj [ ("value", jfloat x.value); ("unit", Printf.sprintf "%S" x.unit_) ] ))
                (List.filter (fun x -> x.gated) metrics)) ) ])

(* --- main ---------------------------------------------------------------------------------- *)

let () =
  if not (Sys.file_exists out_dir) then Unix.mkdir out_dir 0o755;
  let checksum0 = ctr "retro.checksum_failures" in
  let st, metrics =
    if not trace then begin
      (* Set-ups alternate with thirds of the measurement, so that both
         sample the whole run: the machine's speed drifts over tens of
         seconds. *)
      let times = ref [] and cur = ref None in
      for k = 1 to setups do
        Option.iter close !cur;
        cur := None;
        Gc.compact ();
        let st, dt = setup k in
        times := dt :: !times;
        cur := Some st;
        if workload = Retro_scan then measure_working_set st;
        pass st ~budget:(seconds /. float_of_int setups)
      done;
      let st = Option.get !cur in
      fold_totals (pass_accs ());
      (st, end_to_end st (List.rev !times))
    end
    else begin
      Spans.enabled := true;
      count_deltas := true;
      let st, _ = setup 1 in
      if workload = Retro_scan then measure_working_set st;
      Spans.enabled := false;
      count_deltas := false;
      pass st ~budget:(seconds /. 2.);
      let untraced_per_op = per !measured (float_of_int (pass_ops ())) in
      fold_totals (pass_accs ());
      reset_pass ();
      Spans.enabled := true;
      count_deltas := true;
      pass st ~budget:(seconds /. 2.);
      let traced_per_op = per !measured (float_of_int (pass_ops ())) in
      let walls1, walls2 = parallel_speedup st in
      let probes = ref [] and vac = ref !vacuum and idx = ref [ !rql; !asof ] in
      if !vacuum.attempted = 0 then begin
        probes := "vacuum" :: !probes;
        vac := new_acc ();
        vacuum_probe st !vac
      end;
      if List.for_all (fun a -> a.deltas.(slot "sql.index_builds") = 0.) !idx then begin
        probes := "index" :: !probes;
        idx := [ new_acc () ];
        index_probe st (List.hd !idx)
      end;
      fold_totals (pass_accs ());
      if List.mem "vacuum" !probes then fold_totals [ !vac ];
      if List.mem "index" !probes then fold_totals !idx;
      let ms =
        per_layer ~untraced_per_op ~traced_per_op ~walls1 ~walls2 ~vac:!vac ~idx:!idx
          ~probes:!probes
      in
      Spans.write_chrome
        ~path:
          (Filename.concat out_dir
             (Printf.sprintf "trace-%s-seed%d.json" (workload_name workload) seed));
      (st, ms)
    end
  in
  fold_totals [ setup_updates; probe_acc ];
  let sizes =
    [ ("db_pages", Storage.Pager.n_pages st.ctx.Rql.data.Sqldb.Db.pager);
      ("snapshots", st.latest);
      ("snap_cache_pages", (Retro.cache_stats (retro st)).Storage.Lru.s_capacity);
      ("working_set_pages", st.working_set_pages) ]
  in
  let checksum_ok = ctr "retro.checksum_failures" = checksum0 in
  close st;
  print_result ~correct:(snd !totals = 0 && checksum_ok) ~sizes metrics
