(** Qq binding (paper §3): before each iteration the loop body binds the
    programmer's Qq to the iteration's snapshot id, both as the AS OF
    snapshot and as the value of every [current_snapshot()] call. *)

(** AST-level binding: replace every [current_snapshot()] call (or bare
    unqualified identifier use) with parameter 0 and attach [AS OF ?] to
    the outermost select, replacing any AS OF the Qq carries (analyzer
    warning W106).  The loop prepares the result once and binds the
    snapshot id per iteration. *)
val parameterize : Sqldb.Ast.select -> Sqldb.Ast.select
