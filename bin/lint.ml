(* Repository lint gate.

   Scans OCaml sources for patterns this codebase bans outright:

     - catch-all exception handlers (a bare underscore after [with]),
       which swallow programming errors (Assert_failure, Stack_overflow,
       Out_of_memory) along with the failure they meant to handle;
     - unsafe casts through the Obj module, which defeat the type system;
     - asserting falsehood as a dispatch fallback — the engine has a
       typed Internal_error for impossible arms, so reaching one should
       name the statement kind that got there, not abort the process;
     - raw mutex acquisition in lib/ outside a [Fun.protect] guard —
       an exception between lock and unlock leaves the mutex held
       forever, so every section goes through a locked_* helper (the
       condition-variable sites that genuinely need the raw form carry
       waivers naming why);
     - archive reads inside a Retro [locked_rt] section — the simulated
       device sleeps in Pagelog reads, and holding rt_mu across one
       serializes every concurrent AS OF reader behind the sleep.

   A site may opt out with a waiver comment containing the marker
   spelled in [waiver] below plus a justification; the waiver covers
   its own line and the two lines after it, so a short comment directly
   above the flagged expression works.  The waiver is the audit trail.

     dune exec bin/lint.exe -- lib bin     (what `make lint` runs)

   Exit status 1 when any finding survives, 0 when clean — so the CI
   step is just the command itself.

   The banned substrings below are spliced from halves so this file
   does not flag itself. *)

type rule = {
  rid : string;
  needle : string;
  why : string;
  (* When non-empty, the rule applies only to files whose path ends
     with one of these suffixes; an entry ending in "/" is instead a
     directory prefix (path-scoped rules). *)
  paths : string list;
  (* When true, only lines that start (after whitespace-squeezing) with
     "let " are checked: module-level definitions, not local bindings. *)
  anchored : bool;
}

let rules =
  [ { rid = "catch-all";
      needle = "with _ " ^ "->";
      why = "catch-all handler swallows asserts and OOM; match specific exceptions";
      paths = [];
      anchored = false };
    { rid = "catch-all";
      needle = "with _" ^ "->";
      why = "catch-all handler swallows asserts and OOM; match specific exceptions";
      paths = [];
      anchored = false };
    { rid = "obj-magic";
      needle = "Obj." ^ "magic";
      why = "defeats the type system";
      paths = [];
      anchored = false };
    { rid = "assert-false";
      needle = "assert " ^ "false";
      why = "use a typed internal error that names the impossible state";
      paths = [];
      anchored = false };
    (* The stats modules only name metric-scope handles: a fresh ref or
       hash table there would be an independent mutable total the scope
       tree cannot see, silently breaking scoped attribution. *)
    { rid = "stats-shadow-state";
      needle = "= " ^ "ref";
      why = "stats modules hold no independent mutable totals; use an Obs.Scope handle";
      paths = [ "lib/storage/stats.ml"; "lib/sql/exec_stats.ml" ];
      anchored = false };
    { rid = "stats-shadow-state";
      needle = "Hashtbl." ^ "create";
      why = "stats modules hold no independent mutable totals; use an Obs.Scope handle";
      paths = [ "lib/storage/stats.ml"; "lib/sql/exec_stats.ml" ];
      anchored = false };
    (* The engine core is shared across session domains: module-level
       refs and hash tables in lib/ are cross-domain shared state and
       must sit behind a mutex (or be domain-local) — the waiver names
       the guard, and is the audit trail for it. *)
    { rid = "module-mutable-state";
      needle = "= " ^ "ref";
      why = "module-level mutable state in shared code; guard it and waive with the guard's name";
      paths = [ "lib/" ];
      anchored = true };
    { rid = "module-mutable-state";
      needle = "Hashtbl." ^ "create";
      why = "module-level mutable state in shared code; guard it and waive with the guard's name";
      paths = [ "lib/" ];
      anchored = true } ]

let waiver = "lint: " ^ "allow"

(* Squeeze runs of whitespace to single spaces so extra spacing between
   tokens cannot hide a match from the needles above. *)
let squeeze s =
  let buf = Buffer.create (String.length s) in
  let last_ws = ref false in
  String.iter
    (fun c ->
      if c = ' ' || c = '\t' then begin
        if not !last_ws then Buffer.add_char buf ' ';
        last_ws := true
      end
      else begin
        Buffer.add_char buf c;
        last_ws := false
      end)
    s;
  Buffer.contents buf

let contains ~needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec at i = i + nl <= hl && (String.sub hay i nl = needle || at (i + 1)) in
  nl > 0 && at 0

let is_ml_source name =
  Filename.check_suffix name ".ml" || Filename.check_suffix name ".mli"

(* Recursively collect sources, skipping build output and dot-dirs. *)
let rec collect path acc =
  if Sys.is_directory path then
    let base = Filename.basename path in
    if base = "_build" || (String.length base > 1 && base.[0] = '.') then acc
    else
      Array.fold_left
        (fun acc entry -> collect (Filename.concat path entry) acc)
        acc
        (let es = Sys.readdir path in
         Array.sort compare es;
         es)
  else if is_ml_source path then path :: acc
  else acc

let findings = ref 0

let has_prefix ~prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

let rule_applies path r =
  (* collect_files yields paths as given on the command line; strip a
     leading "./" so prefix entries match either spelling. *)
  let path = if has_prefix ~prefix:"./" path then String.sub path 2 (String.length path - 2) else path in
  r.paths = []
  || List.exists
       (fun pat ->
         if String.length pat > 0 && pat.[String.length pat - 1] = '/' then
           has_prefix ~prefix:pat path
         else Filename.check_suffix path pat)
       r.paths

(* --- lock discipline (stateful, so not expressible as a needle rule) --- *)

(* Both the plain mutex and the readers-writer lock count as raw
   acquisition; [with_read]/[with_write] are the guarded forms. *)
let lock_needles =
  [ "Mutex." ^ "lock"; "Rwlock." ^ "read_lock"; "Rwlock." ^ "write_lock" ]

let protect_needle = "Fun." ^ "protect"
let rt_guard = "locked" ^ "_rt"
let archive_needle = "Pagelog." ^ "read"

(* A waiver on line [i], [i-1] or [i-2] covers line [i] — the same
   window the needle rules use. *)
let waived_at lines i =
  let covers k = k >= 0 && contains ~needle:waiver (squeeze lines.(k)) in
  covers i || covers (i - 1) || covers (i - 2)

(* Raw mutex acquisition must be the first half of a guard: the very
   next line (or the same one) holds the [Fun.protect] that releases it
   on every exit path.  Anything else either goes through a locked_*
   helper or carries a waiver saying why it cannot (Condition.wait). *)
let check_lock_guards path lines =
  Array.iteri
    (fun i line ->
      let sq = squeeze line in
      if List.exists (fun needle -> contains ~needle sq) lock_needles
         && not (waived_at lines i) then
        let next = if i + 1 < Array.length lines then squeeze lines.(i + 1) else "" in
        if not (contains ~needle:protect_needle sq || contains ~needle:protect_needle next)
        then begin
          incr findings;
          Printf.printf
            "%s:%d: [lock-guard] raw mutex acquisition outside a Fun.protect guard; use a locked_* helper or waive with the reason\n"
            path (i + 1)
        end)
    lines

(* Track the extent of each [locked_rt t (fun () -> ...)] closure by
   parenthesis balance and flag archive reads inside it.  The balance
   starts at the guard call site, so nested parens within the guarded
   closure keep the span open across lines. *)
let find_sub hay needle =
  let nl = String.length needle and hl = String.length hay in
  let rec at i = if i + nl > hl then None else if String.sub hay i nl = needle then Some i else at (i + 1) in
  at 0

let check_archive_reads path lines =
  let depth = ref 0 in
  Array.iteri
    (fun i line ->
      let scan_from =
        if !depth > 0 then Some 0
        else
          match find_sub line rt_guard with
          | Some j -> Some (j + String.length rt_guard)
          | None -> None
      in
      match scan_from with
      | None -> ()
      | Some j ->
        let inside = ref (!depth > 0) in
        String.iteri
          (fun k c ->
            if k >= j then
              if c = '(' then begin incr depth; inside := true end
              else if c = ')' then decr depth)
          line;
        if (!inside || !depth > 0)
           && contains ~needle:archive_needle (squeeze line)
           && not (waived_at lines i)
        then begin
          incr findings;
          Printf.printf
            "%s:%d: [archive-read-under-lock] Pagelog read while holding rt_mu; the simulated device sleep would serialize concurrent AS OF readers\n"
            path (i + 1)
        end;
        if !depth < 0 then depth := 0)
    lines

(* Path-scoped like the needle rules: a leading "lib/" or any "/lib/"
   segment, so fixture trees (the CI bite test) scope the same way. *)
let under dir path =
  let path = if has_prefix ~prefix:"./" path then String.sub path 2 (String.length path - 2) else path in
  has_prefix ~prefix:dir path || contains ~needle:("/" ^ dir) path

let check_file path =
  let active = List.filter (rule_applies path) rules in
  let lines =
    In_channel.with_open_text path (fun ic ->
        Array.of_list (In_channel.input_lines ic))
  in
  (* > 0 while a waiver is in force (its line plus the two after) *)
  let waived = ref 0 in
  Array.iteri
    (fun i line ->
      let sq = squeeze line in
      if contains ~needle:waiver sq then waived := 3;
      if !waived = 0 then
        List.iter
          (fun r ->
            if (not r.anchored || has_prefix ~prefix:"let " sq)
               && contains ~needle:r.needle sq then begin
              incr findings;
              Printf.printf "%s:%d: [%s] %s\n" path (i + 1) r.rid r.why
            end)
          active
      else decr waived)
    lines;
  if under "lib/" path then check_lock_guards path lines;
  if under "lib/retro/" path then check_archive_reads path lines

let () =
  let dirs =
    match Array.to_list Sys.argv with [] | [ _ ] -> [ "lib"; "bin" ] | _ :: rest -> rest
  in
  let files =
    List.concat_map
      (fun d ->
        if Sys.file_exists d then List.rev (collect d [])
        else begin
          Printf.eprintf "lint: no such path %s\n" d;
          exit 2
        end)
      dirs
  in
  List.iter check_file files;
  if !findings > 0 then begin
    Printf.printf "lint: %d finding(s) in %d file(s) scanned\n" !findings (List.length files);
    exit 1
  end
  else Printf.printf "lint: clean (%d files scanned)\n" (List.length files)
