(* Repo-specific lint pass over OCaml sources, built on compiler-libs.

   The simulator's results are only trustworthy if every run is
   bit-reproducible (the Exec cache and the Domain-parallel executor both
   assume it) and every quantity carries the unit its consumer expects.
   This pass rejects the constructs that historically break those two
   properties. Rules:

   R1 determinism — [Stdlib.Random], hash/iteration-order-dependent
      [Hashtbl] operations ([hash], [iter], [fold], [to_seq], ...) and
      wall-clock reads ([Unix.gettimeofday], [Unix.time], [Sys.time])
      anywhere except [lib/engine/rng.ml], the one sanctioned randomness
      source.
   R2 serialization — [Marshal] outside [lib/engine/exec.ml]: marshalled
      bytes are the cache's content address, so ad-hoc marshalling
      elsewhere silently couples unrelated code to the cache format.
   R3 [Obj.magic] anywhere.
   R4 float [=] / [<>] against a float literal: exact comparison is almost
      always a tolerance bug; use the [Sim_engine.Stats] epsilon helpers.
   R5 raw [Experiment] config record literals: only the labelled builder
      [Tcpflow.Experiment.config] validates its inputs, so construction
      must go through it (record literals are fine in the defining module).
   R6 [=] / [<>] where an operand is [None] or [Some _]: structural
      comparison descends into the payload, and several of our options
      hold values containing closures ([Sim.handle], receiver callbacks) —
      [compare] raises on those at runtime. Pattern match or use
      [Option.is_none] / [Option.is_some].
   R7 [Sim.schedule] / [Sim.schedule_at] with a callback that captures a
      packet: each such event boxes a closure (and pins the packet) on the
      hot path. Packets belong on a calendar lane ([Sim.schedule_packet]),
      which passes the payload as an argument to a callback registered
      once. Syntactic heuristic: the function-literal callback reads a
      [Packet]-qualified record field, calls a [Packet]-qualified function
      (the handle accessors, [Packet.seq tbl p]) or mentions a free
      variable named [packet]/[pkt]; names bound inside the callback don't
      count.

   A violation is suppressed by [(* simlint: allow R<n> *)] on the same
   line or the line directly above it. *)

type violation = {
  rule : string;
  file : string;
  line : int;
  col : int;
  message : string;
}

let compare_violation a b =
  compare (a.file, a.line, a.col, a.rule) (b.file, b.line, b.col, b.rule)

let pp ppf v =
  Format.fprintf ppf "%s:%d:%d: [%s] %s" v.file v.line v.col v.rule v.message

(* ---------- path classification ---------- *)

let normalize path = String.split_on_char '/' path |> List.filter (( <> ) "")

let has_suffix ~suffix path =
  let p = normalize path and s = normalize suffix in
  let rec drop n l = if n <= 0 then l else drop (n - 1) (List.tl l) in
  let lp = List.length p and ls = List.length s in
  lp >= ls && drop (lp - ls) p = s

let is_rng_home path = has_suffix ~suffix:"lib/engine/rng.ml" path
let is_exec_home path = has_suffix ~suffix:"lib/engine/exec.ml" path
let is_experiment_home path = has_suffix ~suffix:"lib/tcpflow/experiment.ml" path

(* ---------- suppression comments ---------- *)

let contains_at ~sub s i =
  i + String.length sub <= String.length s
  && String.sub s i (String.length sub) = sub

let find_sub ~sub s =
  let n = String.length s in
  let rec go i = if i > n then None else if contains_at ~sub s i then Some i else go (i + 1) in
  go 0

(* Rule names ([R] followed by digits) mentioned after "simlint: allow" on
   the line, if any. *)
let allowed_rules_of_line line =
  match find_sub ~sub:"simlint" line with
  | None -> []
  | Some i -> (
    let rest = String.sub line i (String.length line - i) in
    match find_sub ~sub:"allow" rest with
    | None -> []
    | Some j ->
      let tail = String.sub rest j (String.length rest - j) in
      let rules = ref [] in
      let n = String.length tail in
      let k = ref 0 in
      while !k < n do
        if
          tail.[!k] = 'R'
          && !k + 1 < n
          && tail.[!k + 1] >= '0'
          && tail.[!k + 1] <= '9'
        then begin
          let stop = ref (!k + 1) in
          while !stop < n && tail.[!stop] >= '0' && tail.[!stop] <= '9' do
            incr stop
          done;
          rules := String.sub tail !k (!stop - !k) :: !rules;
          k := !stop
        end
        else incr k
      done;
      !rules)

(* Maps line number -> rules allowed there. *)
let allowances source =
  let tbl = Hashtbl.create 8 in
  List.iteri
    (fun i line ->
      match allowed_rules_of_line line with
      | [] -> ()
      | rules -> Hashtbl.replace tbl (i + 1) rules)
    (String.split_on_char '\n' source);
  tbl

let suppressed allow ~rule ~line =
  let at l =
    match Hashtbl.find_opt allow l with
    | Some rules -> List.mem rule rules
    | None -> false
  in
  at line || at (line - 1)

(* ---------- AST checks ---------- *)

let flatten_longident lid =
  let parts = Longident.flatten lid in
  match parts with "Stdlib" :: rest -> rest | parts -> parts

let dotted lid = String.concat "." (flatten_longident lid)

(* Hashtbl operations whose behaviour depends on the (unspecified) hash
   order; lookups and updates are fine. *)
let order_dependent_hashtbl =
  [ "hash"; "seeded_hash"; "hash_param"; "seeded_hash_param"; "iter"; "fold";
    "filter_map_inplace"; "to_seq"; "to_seq_keys"; "to_seq_values" ]

let r1_message lid =
  let path = flatten_longident lid in
  match path with
  | "Random" :: _ ->
    Some
      (Printf.sprintf
         "nondeterministic source %s; derive randomness from Sim_engine.Rng \
          (seeded, splittable)"
         (dotted lid))
  | [ "Hashtbl"; op ] when List.mem op order_dependent_hashtbl ->
    Some
      (Printf.sprintf
         "Hashtbl.%s depends on hash order; iterate over sorted keys (or a \
          list) instead"
         op)
  | [ "Unix"; ("gettimeofday" | "time") ] | [ "Sys"; "time" ] ->
    Some
      (Printf.sprintf
         "wall-clock read %s makes runs irreproducible; simulated time lives \
          in Sim_engine.Sim.now"
         (dotted lid))
  | _ -> None

let is_float_literal expr =
  let open Parsetree in
  let rec go e =
    match e.pexp_desc with
    | Pexp_constant (Pconst_float _) -> true
    | Pexp_apply
        ( { pexp_desc = Pexp_ident { txt = Longident.Lident ("~-." | "~+."); _ }; _ },
          [ (_, arg) ] ) ->
      go arg
    | _ -> false
  in
  go expr

let is_option_construct expr =
  let open Parsetree in
  match expr.pexp_desc with
  | Pexp_construct ({ txt = Longident.Lident ("None" | "Some"); _ }, _) -> true
  | _ -> false

(* Record literals that spell out an Experiment config by hand: any field
   qualified through an [Experiment] module, or the unqualified field set
   characteristic of [Tcpflow.Experiment.config]. Functional updates
   ([{ c with ... }]) start from an already-validated value and are fine. *)
let is_experiment_record fields =
  let field_lids = List.map (fun (lid, _) -> lid.Asttypes.txt) fields in
  let qualified =
    List.exists
      (fun lid -> List.mem "Experiment" (Longident.flatten lid))
      field_lids
  in
  let names =
    List.filter_map
      (fun lid ->
        match Longident.flatten lid with
        | [] -> None
        | parts -> Some (List.nth parts (List.length parts - 1)))
      field_lids
  in
  qualified || (List.mem "rate_bps" names && List.mem "flows" names)

(* R7 helpers: recognize timer-scheduling calls and packet-capturing
   callbacks. *)
let is_sim_schedule lid =
  match flatten_longident lid with
  | [ "Sim"; ("schedule" | "schedule_at") ]
  | [ "Sim_engine"; "Sim"; ("schedule" | "schedule_at") ] -> true
  | _ -> false

let packet_var_names = [ "packet"; "pkt" ]

(* Scans a callback expression for packet evidence: a [Packet]-qualified
   field read or function call (a packet handle's accessors), or an
   occurrence of a conventional packet variable name that no pattern inside
   the callback binds (so it must be captured). Binding
   anywhere inside the callback shadows the name — a deliberate
   over-approximation that keeps the heuristic free of scope tracking. *)
let callback_captures_packet callback =
  let open Parsetree in
  let bound = Hashtbl.create 8 in
  let field_hit = ref false in
  let free_candidates = ref [] in
  let iter =
    {
      Ast_iterator.default_iterator with
      pat =
        (fun self p ->
          (match p.ppat_desc with
          | Ppat_var { txt; _ } | Ppat_alias (_, { txt; _ }) ->
            Hashtbl.replace bound txt ()
          | _ -> ());
          Ast_iterator.default_iterator.pat self p);
      expr =
        (fun self e ->
          (match e.pexp_desc with
          | Pexp_ident { txt = Longident.Lident name; _ }
            when List.mem name packet_var_names ->
            free_candidates := name :: !free_candidates
          | Pexp_field (_, { txt; _ })
          | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, _)
            when List.mem "Packet" (Longident.flatten txt) ->
            field_hit := true
          | _ -> ());
          Ast_iterator.default_iterator.expr self e);
    }
  in
  iter.expr iter callback;
  !field_hit
  || List.exists (fun name -> not (Hashtbl.mem bound name)) !free_candidates

let check_file ~path source ast =
  let allow = allowances source in
  let violations = ref [] in
  let report ~loc ~rule message =
    let line = loc.Location.loc_start.Lexing.pos_lnum in
    let col =
      loc.Location.loc_start.Lexing.pos_cnum
      - loc.Location.loc_start.Lexing.pos_bol
    in
    if not (suppressed allow ~rule ~line) then
      violations := { rule; file = path; line; col; message } :: !violations
  in
  let in_rng = is_rng_home path
  and in_exec = is_exec_home path
  and in_experiment = is_experiment_home path in
  let check_ident ~loc lid =
    let name = dotted lid in
    (if not in_rng then
       match r1_message lid with
       | Some msg -> report ~loc ~rule:"R1" msg
       | None -> ());
    (if (not in_exec) && String.length name >= 8 && String.sub name 0 8 = "Marshal."
     then
       report ~loc ~rule:"R2"
         (name
        ^ " outside the Exec result cache; route serialization through \
           Sim_engine.Exec"));
    if name = "Obj.magic" then
      report ~loc ~rule:"R3" "Obj.magic defeats the type system"
  in
  let open Parsetree in
  let iter =
    {
      Ast_iterator.default_iterator with
      expr =
        (fun self e ->
          (match e.pexp_desc with
          | Pexp_ident { txt; loc } -> check_ident ~loc txt
          | Pexp_apply
              ( { pexp_desc = Pexp_ident { txt = Longident.Lident (("=" | "<>") as op); _ }; _ },
                [ (Asttypes.Nolabel, a); (Asttypes.Nolabel, b) ] )
            when is_float_literal a || is_float_literal b ->
            report ~loc:e.pexp_loc ~rule:"R4"
              (Printf.sprintf
                 "exact float comparison (%s) against a literal; use \
                  Sim_engine.Stats.approx_eq / is_zero"
                 op)
          | Pexp_apply
              ( { pexp_desc = Pexp_ident { txt = Longident.Lident (("=" | "<>") as op); _ }; _ },
                [ (Asttypes.Nolabel, a); (Asttypes.Nolabel, b) ] )
            when is_option_construct a || is_option_construct b ->
            report ~loc:e.pexp_loc ~rule:"R6"
              (Printf.sprintf
                 "structural %s against an option constructor; options can \
                  hold closures (e.g. Sim.handle) where compare raises — \
                  pattern match or use Option.is_none / Option.is_some"
                 op)
          | Pexp_apply
              ({ pexp_desc = Pexp_ident { txt = flid; _ }; _ }, args)
            when is_sim_schedule flid ->
            List.iter
              (fun (_, (arg : expression)) ->
                match arg.pexp_desc with
                | Pexp_fun _ | Pexp_function _ ->
                  if callback_captures_packet arg then
                    report ~loc:arg.pexp_loc ~rule:"R7"
                      "timer callback captures a packet; deliver it on a \
                       calendar lane (Sim.schedule_packet) so the payload \
                       rides as an argument instead of a per-event closure"
                | _ -> ())
              args
          | Pexp_record (fields, None)
            when (not in_experiment) && is_experiment_record fields ->
            report ~loc:e.pexp_loc ~rule:"R5"
              "raw Experiment config record literal; use the validating \
               builder Tcpflow.Experiment.config"
          | _ -> ());
          Ast_iterator.default_iterator.expr self e);
    }
  in
  iter.structure iter ast;
  List.sort compare_violation !violations

(* ---------- entry points ---------- *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* Parse failures surface as a single PARSE violation so a broken file can
   never pass the linter. *)
let parse_error ~path exn =
  let loc, msg =
    match Location.error_of_exn exn with
    | Some (`Ok err) ->
      (err.Location.main.Location.loc, "does not parse as OCaml")
    | _ -> (Location.in_file path, Printexc.to_string exn)
  in
  [
    {
      rule = "PARSE";
      file = path;
      line = loc.Location.loc_start.Lexing.pos_lnum;
      col = 0;
      message = msg;
    };
  ]

(* Lint [source] as if it lived at [path] (used by the fixture tests). *)
let lint_source ~path source =
  match
    let lexbuf = Lexing.from_string source in
    Location.init lexbuf path;
    Parse.implementation lexbuf
  with
  | ast -> check_file ~path source ast
  | exception exn -> parse_error ~path exn

let lint_file path =
  let source = read_file path in
  match Pparse.parse_implementation ~tool_name:"simlint" path with
  | ast -> check_file ~path source ast
  | exception exn -> parse_error ~path exn

(* Fixture snippets under [lint_fixtures/] intentionally violate the rules
   (they are the linter's own test data), so the tree walker skips them. *)
let skipped_dirs = [ "_build"; ".git"; "lint_fixtures" ]

let rec ml_files acc path =
  if Sys.is_directory path then
    if List.mem (Filename.basename path) skipped_dirs then acc
    else
      Sys.readdir path |> Array.to_list |> List.sort compare
      |> List.fold_left (fun acc f -> ml_files acc (Filename.concat path f)) acc
  else if Filename.check_suffix path ".ml" then path :: acc
  else acc

let lint_paths paths =
  let files = List.fold_left ml_files [] paths |> List.sort compare in
  (List.length files, List.concat_map lint_file files)
