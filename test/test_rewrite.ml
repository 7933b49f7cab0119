(* Qq binding tests (paper §3).  The loop binds a Qq to snapshot s by
   parameterizing the parsed Qq once (AS OF ? plus current_snapshot() as
   parameter 0) and binding s per iteration.  The reference meaning of
   "Qq at snapshot s" is the hand-written AS OF text: every Qq the
   analyzer accepts must prepare, and must return at every snapshot the
   rows that text returns.  The table covers the quote/comment pitfalls
   a textual rewrite has to get right, the bench Qqs and the TPC-H
   queries. *)

module Rw = Rql.Rewrite
module E = Sqldb.Engine
module R = Storage.Record

(* A small history whose snapshots all differ from each other and from
   the current state, so a Qq bound to the wrong snapshot shows. *)
let small_ctx =
  lazy
    (let ctx = Rql.create () in
     let e sql = ignore (E.exec ctx.Rql.data sql) in
     e "CREATE TABLE t (x INTEGER, s TEXT, current_snapshot_count INTEGER)";
     e "CREATE TABLE u (y INTEGER)";
     e "CREATE TABLE w (current_snapshot INTEGER)";
     e "CREATE TABLE LoggedIn (l_userid TEXT)";
     e "INSERT INTO t VALUES (1, 'it''s select', 10), (2, 'b', 20), (3, 'c', 30)";
     e "INSERT INTO u VALUES (1), (2)";
     e "INSERT INTO w VALUES (7)";
     e "INSERT INTO LoggedIn VALUES ('UserA'), ('UserB')";
     ignore (Rql.declare_snapshot ctx);
     e "BEGIN";
     e "INSERT INTO t VALUES (4, 'it''s select', 40)";
     e "INSERT INTO u VALUES (3)";
     e "UPDATE w SET current_snapshot = 8";
     e "DELETE FROM LoggedIn WHERE l_userid = 'UserB'";
     ignore (Rql.declare_snapshot ctx);
     e "BEGIN";
     e "DELETE FROM t WHERE x = 1";
     e "INSERT INTO LoggedIn VALUES ('UserB')";
     ignore (Rql.declare_snapshot ctx);
     e "BEGIN";
     e "DELETE FROM t";
     e "COMMIT";
     (ctx, [ 1; 2; 3 ]))

let tpch_ctx =
  lazy
    (let ctx, _st, sids =
       Tpch.Workload.build_history ~sf:0.002 ~uw:Tpch.Workload.uw30 ~snapshots:3 ()
     in
     (ctx, sids))

(* Hand-written AS OF text for a Qq that starts with "SELECT " and has
   no current_snapshot(). *)
let as_of_text qq sid =
  let p = "SELECT " in
  let n = String.length p in
  if String.length qq < n || String.sub qq 0 n <> p then invalid_arg qq;
  Printf.sprintf "SELECT AS OF %d %s" sid (String.sub qq n (String.length qq - n))

let sorted rows = List.sort R.compare_row rows

(* The analyzer accepts [qq]; its prepared binding at every snapshot
   returns the rows of [text sid]. *)
let check_binds (ctx, sids) qq text =
  let data = ctx.Rql.data in
  E.analyze_qq data qq;
  let prep = Rql.prepare_qq data qq in
  List.iter
    (fun sid ->
      let _, run = E.prepared_stream ~params:[| R.Int sid |] prep in
      let got = ref [] in
      run (fun row -> got := row :: !got);
      let want = E.query data (text sid) in
      Alcotest.(check bool)
        (Printf.sprintf "%s @ %d: %d rows" qq sid (List.length want))
        true
        (sorted !got = sorted want))
    sids

let binds ?(ctx = small_ctx) name qq text =
  Alcotest.test_case name `Quick (fun () -> check_binds (Lazy.force ctx) qq text)

let tpch name qq = binds ~ctx:tpch_ctx name qq (as_of_text qq)

let edge_cases =
  [ binds "paper example" "SELECT DISTINCT current_snapshot() FROM LoggedIn WHERE l_userid = 'UserB'"
      (fun sid ->
        Printf.sprintf "SELECT AS OF %d DISTINCT %d FROM LoggedIn WHERE l_userid = 'UserB'" sid sid);
    binds "as of injected after first select" "SELECT * FROM t" (as_of_text "SELECT * FROM t");
    binds "case-insensitive select" "select x FROM t"
      (Printf.sprintf "select AS OF %d x FROM t");
    binds "select inside string literal untouched" "SELECT 'select x' FROM t"
      (Printf.sprintf "SELECT AS OF %d 'select x' FROM t");
    binds "current_snapshot inside string untouched" "SELECT 'current_snapshot()' FROM t"
      (Printf.sprintf "SELECT AS OF %d 'current_snapshot()' FROM t");
    binds "select inside comment untouched" "/* select */ SELECT x FROM t"
      (Printf.sprintf "/* select */ SELECT AS OF %d x FROM t");
    binds "multiple current_snapshot occurrences"
      "SELECT current_snapshot(), current_snapshot() FROM t" (fun sid ->
        Printf.sprintf "SELECT AS OF %d %d, %d FROM t" sid sid sid);
    binds "current_snapshot with inner whitespace" "SELECT current_snapshot ( ) FROM t"
      (fun sid -> Printf.sprintf "SELECT AS OF %d %d FROM t" sid sid);
    Alcotest.test_case "bare current_snapshot identifier" `Quick (fun () ->
        let (ctx, _) as fx = Lazy.force small_ctx in
        (* a bare use binds like the call, even over a column of that
           name; where no such column exists the analyzer rejects it *)
        check_binds fx "SELECT current_snapshot FROM w" (fun sid ->
            Printf.sprintf "SELECT AS OF %d %d FROM w" sid sid);
        Alcotest.(check bool) "unknown column rejected" true
          (try
             ignore
               (Rql.collate_data ctx ~qs:"SELECT snap_id FROM SnapIds"
                  ~qq:"SELECT y, current_snapshot AS sid FROM u" ~table:"T");
             false
           with Rql.Error _ -> true));
    binds "identifier containing the word is untouched" "SELECT current_snapshot_count FROM t"
      (Printf.sprintf "SELECT AS OF %d current_snapshot_count FROM t");
    binds "escaped quotes in strings" "SELECT x FROM t WHERE s = 'it''s select'"
      (Printf.sprintf "SELECT AS OF %d x FROM t WHERE s = 'it''s select'");
    binds "dot-qualified name is a different identifier" "SELECT w.current_snapshot FROM w"
      (Printf.sprintf "SELECT AS OF %d w.current_snapshot FROM w");
    binds "string literal straddling occurrences untouched"
      "SELECT current_snapshot(), 'current_snapshot() and select' FROM t" (fun sid ->
        Printf.sprintf "SELECT AS OF %d %d, 'current_snapshot() and select' FROM t" sid sid);
    binds "Qq's own AS OF is overridden by the loop (W106)" "SELECT AS OF 1 x FROM t"
      (Printf.sprintf "SELECT AS OF %d x FROM t");
    binds "current_snapshot() in WHERE" "SELECT x FROM t WHERE x <= current_snapshot()"
      (fun sid -> Printf.sprintf "SELECT AS OF %d x FROM t WHERE x <= %d" sid sid);
    binds "current_snapshot() in a subquery"
      "SELECT x FROM t WHERE x IN (SELECT y FROM u WHERE y < current_snapshot() + 1)" (fun sid ->
        Printf.sprintf
          "SELECT AS OF %d x FROM t WHERE x IN (SELECT y FROM u WHERE y < %d + 1)" sid sid);
    Alcotest.test_case "non-select rejected" `Quick (fun () ->
        let ctx, _ = Lazy.force small_ctx in
        let rejected f =
          try
            ignore (f ());
            false
          with Rql.Error _ -> true
        in
        Alcotest.(check bool) "prepare" true
          (rejected (fun () -> Rql.prepare_qq ctx.Rql.data "DELETE FROM t"));
        Alcotest.(check bool) "loop" true
          (rejected (fun () ->
               Rql.collate_data ctx ~qs:"SELECT snap_id FROM SnapIds" ~qq:"DELETE FROM t"
                 ~table:"T"))) ]

let workload_qqs =
  [ tpch "bench Qq_io" Queries.qq_io;
    tpch "bench Qq_cpu" Queries.qq_cpu;
    tpch "bench Qq_collate" (Queries.qq_collate "1995-01-01");
    tpch "bench Qq_agg" Queries.qq_agg;
    tpch "bench Qq_int" Queries.qq_int;
    tpch "TPC-H Q1" (Tpch.Tpch_queries.q1 ());
    tpch "TPC-H Q3" (Tpch.Tpch_queries.q3 ());
    tpch "TPC-H Q4" (Tpch.Tpch_queries.q4 ());
    tpch "TPC-H Q5" (Tpch.Tpch_queries.q5 ());
    tpch "TPC-H Q6" (Tpch.Tpch_queries.q6 ());
    tpch "TPC-H Q10" (Tpch.Tpch_queries.q10 ());
    tpch "TPC-H Q12" (Tpch.Tpch_queries.q12 ());
    binds ~ctx:tpch_ctx "TPC-H Q1 series with current_snapshot()"
      "SELECT current_snapshot() AS sid, l_returnflag, l_linestatus, COUNT(*) AS count_order \
       FROM lineitem WHERE l_shipdate <= '1998-09-02' GROUP BY l_returnflag, l_linestatus"
      (fun sid ->
        Printf.sprintf
          "SELECT AS OF %d %d AS sid, l_returnflag, l_linestatus, COUNT(*) AS count_order \
           FROM lineitem WHERE l_shipdate <= '1998-09-02' GROUP BY l_returnflag, l_linestatus"
          sid sid) ]

let parameterize_tests =
  [ Alcotest.test_case "parameterize binds AS OF and current_snapshot" `Quick (fun () ->
        let open Sqldb.Ast in
        match Sqldb.Parser.parse_one "SELECT current_snapshot(), x FROM t" with
        | Select sel ->
          let p = Rw.parameterize sel in
          Alcotest.(check bool) "as_of is param" true (p.as_of = Some (Param 0));
          (match p.items with
          | Sel_expr (Param 0, _) :: _ -> ()
          | _ -> Alcotest.fail "current_snapshot() not parameterized")
        | _ -> Alcotest.fail "parse");
    Alcotest.test_case "parameterized Qq runs via prepared statement" `Quick (fun () ->
        let db = E.create () in
        ignore (E.exec db "CREATE TABLE t (x INTEGER)");
        ignore (E.exec db "INSERT INTO t VALUES (1)");
        let sid = Option.get (E.exec db "COMMIT WITH SNAPSHOT").E.snapshot in
        match E.parse "SELECT current_snapshot() AS sid FROM t" with
        | Sqldb.Ast.Select sel ->
          let prep = E.prepare_select db ~key:"rw-test" (Rw.parameterize sel) in
          let res = E.exec_prepared ~params:[| R.Int sid |] prep in
          Alcotest.(check bool) "row is sid" true (res.E.rows = [ [| R.Int sid |] ])
        | _ -> Alcotest.fail "parse");
    Alcotest.test_case "rewritten query parses and runs" `Quick (fun () ->
        (* through the loop: every iteration's rows carry its own id *)
        let ctx, sids = Lazy.force small_ctx in
        ignore
          (Rql.collate_data ctx ~qs:"SELECT snap_id FROM SnapIds"
             ~qq:"SELECT current_snapshot() AS sid FROM u" ~table:"Sids");
        let expect =
          List.concat_map
            (fun sid -> List.map (fun _ -> [| R.Int sid |]) (E.query ctx.Rql.data (as_of_text "SELECT y FROM u" sid)))
            sids
        in
        Alcotest.(check bool) "one row per u row per snapshot" true
          (sorted (E.query ctx.Rql.meta "SELECT sid FROM Sids") = sorted expect)) ]

let () =
  Alcotest.run "rewrite"
    [ ("rewrite", edge_cases @ parameterize_tests); ("qq-bind", workload_qqs) ]
