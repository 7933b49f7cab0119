(* The join inner-side memo of an RQL evaluator session (Exec.build_inner):
   with the optimizer on, consecutive snapshots of one run reuse the
   decoded, filtered entries of unchanged inner-table pages.  Every
   result table must be byte-identical to the `PRAGMA optimize = off`
   run, which rebuilds the inner side from scratch in every iteration,
   across all four mechanisms, both loops, and an SQL-form run with a
   commit between its iterations.  The memo must miss when the inner
   filter's bound signature changes per snapshot (current_snapshot()),
   and must be bypassed for UDF calls and IN (SELECT ...). *)

module R = Storage.Record
module E = Sqldb.Engine

let c_reused = Obs.Metrics.counter "sql.inner_pages_reused"
let reused () = Obs.Metrics.Counter.get c_reused

(* TPC-H history without a native lineitem index (every lineitem join
   builds the automatic index), plus a data-side UDF. *)
let fixture =
  lazy
    (let ctx, _st, sids =
       Tpch.Workload.build_history ~sf:0.002 ~uw:Tpch.Workload.uw30 ~snapshots:5 ()
     in
     Sqldb.Engine.register_fn ctx.Rql.data "odd_line" (fun args ->
         match args with
         | [| R.Int n |] -> R.Int (n land 1)
         | _ -> R.Null);
     (ctx, sids))

let qs = "SELECT snap_id FROM SnapIds ORDER BY snap_id"

let set_opt (ctx : Rql.ctx) on =
  ignore (E.exec ctx.Rql.data (if on then "PRAGMA optimize = on" else "PRAGMA optimize = off"))

(* The result table, row by row, as exact record bytes. *)
let table_bytes (ctx : Rql.ctx) t =
  List.map R.encode_row (E.exec ctx.Rql.meta ("SELECT * FROM " ^ t)).E.rows

(* One join shape: its FROM ... WHERE fragment, the summed value and the
   grouping column; [join] is the EXPLAIN line the shape must plan to,
   [reuses] whether the memo may reuse pages. *)
type case = {
  name : string;
  from_where : string;
  value : string;
  group : string;
  join : string option;
  reuses : bool;
}

let qq_cpu_fw =
  "part, lineitem WHERE p_partkey = l_partkey AND p_type = 'STANDARD POLISHED TIN'"

let cases =
  [ { name = "Qq_cpu (hash join)";
      from_where = qq_cpu_fw;
      value = "l_extendedprice";
      group = "p_brand";
      join = Some "JOIN lineitem USING AUTOMATIC HASH INDEX";
      reuses = true };
    { name = "left join";
      from_where =
        "part LEFT JOIN lineitem ON p_partkey = l_partkey AND l_quantity < 25 WHERE p_size < 10";
      value = "l_extendedprice";
      group = "p_brand";
      join = Some "LEFT JOIN lineitem USING AUTOMATIC HASH INDEX";
      reuses = true };
    { name = "theta join";
      from_where = "region, orders WHERE o_custkey < r_regionkey * 20 AND o_orderstatus = 'F'";
      value = "o_totalprice";
      group = "r_name";
      join = Some "SCAN orders (nested loop)";
      reuses = true };
    { name = "current_snapshot() in the inner filter";
      from_where =
        "part, lineitem WHERE p_partkey = l_partkey AND l_linenumber <= current_snapshot() + 1";
      value = "l_extendedprice";
      group = "p_brand";
      join = None;
      reuses = false };
    { name = "UDF in the inner filter";
      from_where = "part, lineitem WHERE p_partkey = l_partkey AND odd_line(l_linenumber) = 1";
      value = "l_extendedprice";
      group = "p_brand";
      join = None;
      reuses = false };
    { name = "IN (SELECT ...) in the inner filter";
      from_where =
        "part, lineitem WHERE p_partkey = l_partkey AND l_suppkey IN (SELECT s_suppkey FROM \
         supplier WHERE s_nationkey < 12)";
      value = "l_extendedprice";
      group = "p_brand";
      join = None;
      reuses = false } ]

let grouped_body c =
  Printf.sprintf "%s AS k, SUM(%s) AS v FROM %s GROUP BY %s" c.group c.value c.from_where c.group

let grouped c = "SELECT " ^ grouped_body c

let single c = Printf.sprintf "SELECT SUM(%s) AS revenue FROM %s" c.value c.from_where

let mechanisms =
  [ ("collate", fun ctx ~domains c ~table -> Rql.collate_data ~domains ctx ~qs ~qq:(grouped c) ~table);
    ( "agg_var",
      fun ctx ~domains c ~table ->
        Rql.aggregate_data_in_variable ~domains ctx ~qs ~qq:(single c) ~table ~fn:"sum" );
    ( "agg_table",
      fun ctx ~domains c ~table ->
        Rql.aggregate_data_in_table ~domains ctx ~qs ~qq:(grouped c) ~table
          ~aggs:[ ("v", "sum") ] );
    ( "intervals",
      fun ctx ~domains c ~table ->
        Rql.collate_data_into_intervals ~domains ctx ~qs ~qq:(grouped c) ~table ) ]

(* Run [c] through every mechanism with the optimizer [on]; returns the
   result tables and the pages the memo reused. *)
let run_all ctx ~domains ~on c =
  set_opt ctx on;
  let r0 = reused () in
  let tables =
    List.map
      (fun (mname, run) ->
        let table = "memo_" ^ mname in
        ignore (run ctx ~domains c ~table);
        (mname, table_bytes ctx table))
      mechanisms
  in
  set_opt ctx true;
  (tables, reused () - r0)

let differential ~domains c () =
  let ctx, _ = Lazy.force fixture in
  let on, reused_on = run_all ctx ~domains ~on:true c in
  let off, reused_off = run_all ctx ~domains ~on:false c in
  List.iter2
    (fun (mname, t_on) (_, t_off) ->
      Alcotest.(check bool) (mname ^ ": result table not empty") true (t_on <> []);
      Alcotest.(check (list string)) (mname ^ ": memo on = optimize off") t_off t_on)
    on off;
  Alcotest.(check int) "no reuse with optimize off" 0 reused_off;
  if not c.reuses then Alcotest.(check int) "memo missed or bypassed" 0 reused_on
  else if domains = 1 then
    Alcotest.(check bool) "memo reused inner pages" true (reused_on > 0)

(* Each shape plans to the join operator it is meant to cover. *)
let plans_as_expected () =
  let ctx, _ = Lazy.force fixture in
  List.iter
    (fun c ->
      match c.join with
      | None -> ()
      | Some line ->
        let text =
          String.concat "\n"
            (List.map
               (fun row -> String.concat " " (Array.to_list (Array.map R.value_to_string row)))
               (E.exec ctx.Rql.data ("EXPLAIN SELECT AS OF 1 " ^ grouped_body c)).E.rows)
        in
        let has_sub s sub =
          let n = String.length s and m = String.length sub in
          let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
          go 0
        in
        if not (has_sub text line) then Alcotest.failf "%s: expected %S in\n%s" c.name line text)
    cases

(* The SQL form keeps its evaluator (and memo) across statements; a
   commit between two iterations moves the pages it touches into the
   archive for the later snapshots, which the content check must still
   recognise. *)
let sql_form_commit () =
  let ctx, _ = Lazy.force fixture in
  let qq = grouped (List.hd cases) in
  let quoted = String.concat "''" (String.split_on_char '\'' qq) in
  let call sid =
    ignore
      (E.exec ctx.Rql.meta
         (Printf.sprintf "SELECT CollateData(%d, '%s', 'memo_sql') FROM SnapIds WHERE snap_id = %d"
            sid quoted sid))
  in
  let run ~on ~commit =
    set_opt ctx on;
    let r0 = reused () in
    call 1;
    if commit then begin
      ignore (E.exec ctx.Rql.data "BEGIN");
      ignore (E.exec ctx.Rql.data "UPDATE lineitem SET l_quantity = l_quantity + 1 WHERE l_orderkey < 200");
      ignore (E.exec ctx.Rql.data "COMMIT")
    end;
    call 2;
    call 3;
    ignore (Rql.take_run ctx ~table:"memo_sql");
    set_opt ctx true;
    (table_bytes ctx "memo_sql", reused () - r0)
  in
  let on, reused_on = run ~on:true ~commit:true in
  let off, reused_off = run ~on:false ~commit:false in
  Alcotest.(check (list string)) "SQL-form memo on = optimize off" off on;
  Alcotest.(check bool) "memo reused pages across the commit" true (reused_on > 0);
  Alcotest.(check int) "no reuse with optimize off" 0 reused_off

let () =
  Alcotest.run "inner_memo"
    [ ("plans", [ Alcotest.test_case "each shape plans to its join" `Quick plans_as_expected ]);
      ( "domains-1",
        List.map (fun c -> Alcotest.test_case c.name `Quick (differential ~domains:1 c)) cases );
      ( "domains-4",
        List.map (fun c -> Alcotest.test_case c.name `Quick (differential ~domains:4 c)) cases );
      ("sql-form", [ Alcotest.test_case "commit between iterations" `Quick sql_form_commit ]) ]
