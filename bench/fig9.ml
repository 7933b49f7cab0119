(* Figure 9: CPU-intensive Qq_cpu (Lineitem x Part join) with
   AggregateDataInVariable(Qs, Qq_cpu, AVG) under UW30, with and without
   a native index on lineitem(l_partkey).

   Without the native index the engine builds its automatic covering
   index over Lineitem on every iteration — the dominant cost.  With the
   native index that cost disappears, but the index pages enlarge the
   database and the Pagelog, so I/O and SPT-build costs grow.

   The "w/o index" variant runs with `PRAGMA optimize = off`, so every
   iteration rebuilds the automatic index from scratch, as the paper
   measures.  One extra hot row shows the same run with the optimizer
   on, where the RQL evaluator's inner-side memo reuses the index
   entries of lineitem pages unchanged since the previous snapshot. *)

let breakdown_with_rows label (b : Rql.Iter_stats.breakdown) =
  Util.print_breakdown label b

let run () =
  Util.section "Figure 9 — CPU-intensive query: AggVar(Qq_cpu, AVG), UW30, index effects";
  Util.expectation
    "without a native index, per-iteration (covering) index creation dominates and \
     cold/hot differ little; with a native index the index-creation bar disappears while \
     I/O and SPT build grow";
  let p = Params.p () in
  let n = p.Params.fig9_snapshots in
  let history = n + 10 in
  let cold_hot ?(optimize = true) ~native () =
    let fx =
      Fixtures.get
        { Fixtures.uw = Tpch.Workload.uw30; snapshots = history;
          native_lineitem_index = native }
    in
    let data = fx.Fixtures.ctx.Rql.data in
    let set on =
      ignore (Sqldb.Engine.exec data (if on then "PRAGMA optimize = on" else "PRAGMA optimize = off"))
    in
    set optimize;
    Fun.protect
      ~finally:(fun () -> set true)
      (fun () ->
        Util.cold_hot
          (Rql.aggregate_data_in_variable fx.Fixtures.ctx ~qs:(Queries.qs_n n)
             ~qq:Queries.qq_cpu ~table:"bench_f9" ~fn:"avg"))
  in
  let run_variant ?optimize ~native label =
    let cold, hot = cold_hot ?optimize ~native () in
    breakdown_with_rows (Printf.sprintf "cold iteration %s" label) cold;
    breakdown_with_rows (Printf.sprintf "hot iteration %s" label) hot
  in
  Util.print_breakdown_header ();
  run_variant ~optimize:false ~native:false "w/o index";
  breakdown_with_rows "hot iteration w/o index, memo" (snd (cold_hot ~native:false ()));
  run_variant ~native:true "w/ index";
  (* quantify the database/pagelog growth caused by the native index *)
  let pagelog native =
    let fx =
      Fixtures.get
        { Fixtures.uw = Tpch.Workload.uw30; snapshots = history;
          native_lineitem_index = native }
    in
    Retro.pagelog_size_bytes (Sqldb.Db.retro_exn fx.Fixtures.ctx.Rql.data)
  in
  Printf.printf "pagelog: %.1f MB without index, %.1f MB with native index\n"
    (Util.mb (pagelog false)) (Util.mb (pagelog true))
