(* Qq binding (paper §3).

   Before each iteration, the loop body binds the programmer's Qq to the
   iteration's snapshot identifier: the Qq runs AS OF that snapshot, and
   every occurrence of current_snapshot() evaluates to its id.  The
   paper performs this as a textual rewrite; here it is done once on the
   parsed Qq, which the loop prepares and then binds per iteration. *)

(* The parsed Qq becomes a parameterized statement — every
   current_snapshot() call (or bare identifier use) becomes parameter 0,
   and AS OF ? is attached to the outermost select — so the loop binds
   the snapshot id per iteration instead of re-rewriting and re-parsing
   text. *)
let parameterize (sel : Sqldb.Ast.select) : Sqldb.Ast.select =
  let open Sqldb.Ast in
  let is_cs name = String.lowercase_ascii name = "current_snapshot" in
  let subst = function
    | Call (name, []) when is_cs name -> Param 0
    | Col (None, name) when is_cs name -> Param 0
    | e -> e
  in
  let sel = Sqldb.Expr.map_select subst sel in
  { sel with as_of = Some (Param 0) }
