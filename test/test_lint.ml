(* The linter's own tests: each fixture under [lint_fixtures/] must trigger
   exactly its rule at the expected lines, the clean and fully-suppressed
   fixtures must stay silent, and unparsable input must surface as a PARSE
   finding rather than a pass. *)

module Lint = Simlint_core.Lint

let read path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let rule_lines violations =
  List.map (fun v -> (v.Lint.rule, v.Lint.line)) violations

let fixture name = Filename.concat "lint_fixtures" name

let findings name =
  let path = fixture name in
  rule_lines (Lint.lint_source ~path (read path))

let check_fixture name expected () =
  Alcotest.(check (list (pair string int))) name expected (findings name)

let test_parse_failure () =
  match Lint.lint_source ~path:"broken.ml" "let = (" with
  | [ { Lint.rule = "PARSE"; file = "broken.ml"; _ } ] -> ()
  | vs ->
    Alcotest.failf "expected a single PARSE finding, got %d: %s"
      (List.length vs)
      (String.concat "; " (List.map (fun v -> v.Lint.rule) vs))

let test_lint_file_agrees () =
  (* The on-disk entry point must report exactly what lint_source does. *)
  let path = fixture "r2_marshal.ml" in
  Alcotest.(check (list (pair string int)))
    "lint_file = lint_source"
    (rule_lines (Lint.lint_source ~path (read path)))
    (rule_lines (Lint.lint_file path))

let test_violations_sorted () =
  let vs = Lint.lint_source ~path:(fixture "r4_float_eq.ml") (read (fixture "r4_float_eq.ml")) in
  let lines = List.map (fun v -> v.Lint.line) vs in
  Alcotest.(check (list int)) "ascending lines" (List.sort compare lines) lines

(* ---- typedtree passes (A0-A3) ----

   The fixtures under [lint_fixtures/tast/] compile at test run time with
   [ocamlc -bin-annot]; the resulting .cmt files feed the same
   Callgraph/check pipeline the CLI runs, against a synthetic manifest.
   Expected findings are asserted by line, so the fixtures and the lists
   below must move together. *)

module Manifest = Simlint_core.Manifest
module Cmt_load = Simlint_core.Cmt_load
module Callgraph = Simlint_core.Callgraph
module Alloc_check = Simlint_core.Alloc_check
module Domain_check = Simlint_core.Domain_check
module Taint = Simlint_core.Taint
module Report = Simlint_core.Report

let tast_manifest =
  Manifest.of_string
    {|((hot_paths (Event_queue.pop Event_queue.smaller Event_queue.scale
                   Event_queue.pop_opt Event_queue.head_unsafe
                   Event_queue.uniform Event_queue.save))
       (spawn_apis (Domain.spawn))
       (domain_safe ((Domain_roots.table
                      "fixture: populated before the spawn, read-only after")))
       (determinism_roots (Taint_chain.run Taint_chain.run_vouched)))|}

let tast_units = [ "event_queue"; "domain_roots"; "taint_chain" ]

let tast_graph =
  lazy
    (let dir = Filename.temp_file "simlint_tast" "" in
     Sys.remove dir;
     Sys.mkdir dir 0o700;
     List.iter
       (fun unit_name ->
         let src = fixture (Filename.concat "tast" (unit_name ^ ".ml")) in
         let oc = open_out_bin (Filename.concat dir (unit_name ^ ".ml")) in
         Fun.protect
           ~finally:(fun () -> close_out_noerr oc)
           (fun () -> output_string oc (read src)))
       tast_units;
     let cmd =
       Printf.sprintf "cd %s && ocamlc -bin-annot -c %s" (Filename.quote dir)
         (String.concat " " (List.map (fun u -> u ^ ".ml") tast_units))
     in
     (match Sys.command cmd with
     | 0 -> ()
     | n -> Alcotest.failf "tast fixture compilation failed (%d): %s" n cmd);
     let units =
       List.filter_map
         (fun u -> Cmt_load.load_file (Filename.concat dir (u ^ ".cmt")))
         tast_units
     in
     Alcotest.(check int)
       "all tast fixture cmts load" (List.length tast_units)
       (List.length units);
     Callgraph.build ~spawn_apis:tast_manifest.Manifest.spawn_apis units)

let tast_check name check expected ~message_has () =
  let vs = check (Lazy.force tast_graph) tast_manifest in
  Alcotest.(check (list (pair string int))) name expected (rule_lines vs);
  List.iter
    (fun needle ->
      if
        not
          (List.exists
             (fun v ->
               let m = v.Lint.message in
               let nl = String.length needle in
               let rec scan i =
                 i + nl <= String.length m
                 && (String.equal (String.sub m i nl) needle || scan (i + 1))
               in
               scan 0)
             vs)
      then
        Alcotest.failf "%s: no finding mentions %S in %s" name needle
          (String.concat "; " (List.map (fun v -> v.Lint.message) vs)))
    message_has

(* The deliberate allocation in the fixture's [pop] (the acceptance case),
   the boxed floats at the accidentally-polymorphic call in [smaller]
   (both arguments), the per-call closure in [scale] and the float array
   it hands to the generic [Array.iteri], and the float array [uniform]
   hands to a helper typed ['a array]. [pop_opt]'s reasoned alloc_ok, the
   allocation-free [head_unsafe] and [save], which hands the float array to
   [Array.blit], stay silent. *)
let test_a1 =
  tast_check "A1 zero-alloc hot paths"
    (fun g m -> Alloc_check.check g m)
    [ ("A1", 24); ("A1", 28); ("A1", 28); ("A1", 29); ("A1", 29); ("A1", 45) ]
    ~message_has:
      [ "Event_queue.pop"; "Some constructor application";
        "boxes a float"; "closure construction";
        "reads a float array generically" ]

(* The toplevel ref mutated from the Domain-spawned worker is the one
   finding; the allowlisted Hashtbl and the Atomic counter stay silent. *)
let test_a2 =
  tast_check "A2 domain safety"
    (fun g m -> Domain_check.check g m)
    [ ("A2", 10) ]
    ~message_has:[ "Domain_roots.hits" ]

(* Without the allowlist the Hashtbl is flagged too — the pass (not the
   fixture) is what lets [table] through. *)
let test_a2_no_allowlist =
  tast_check "A2 without allowlist"
    (fun g _ ->
      Domain_check.check g { tast_manifest with Manifest.domain_safe = [] })
    [ ("A2", 10); ("A2", 11) ]
    ~message_has:[ "Domain_roots.table" ]

(* Hashtbl.fold two calls below the determinism root is found at the fold;
   the identical chain through the taint_ok'd helper stays clean. *)
let test_a3 =
  tast_check "A3 interprocedural determinism"
    (fun g m -> Taint.check g m)
    [ ("A3", 8) ]
    ~message_has:[ "Hashtbl.fold"; "Taint_chain.run" ]

let test_a0 =
  tast_check "A0 reasonless suppression"
    (fun g _ -> Report.bad_suppressions g)
    [ ("A0", 39) ]
    ~message_has:[ "Event_queue.bad_suppression" ]

(* The passes are root-driven: an empty manifest reports nothing, i.e. the
   fixtures only "fail" when the pass actually runs over them. *)
let test_empty_manifest () =
  let graph = Lazy.force tast_graph in
  Alcotest.(check (list (pair string int)))
    "A1 silent without hot_paths" []
    (rule_lines (Alloc_check.check graph Manifest.empty));
  Alcotest.(check (list (pair string int)))
    "A3 silent without determinism_roots" []
    (rule_lines (Taint.check graph Manifest.empty))

let tests =
  [
    Alcotest.test_case "clean fixture is silent" `Quick
      (check_fixture "ok_clean.ml" []);
    Alcotest.test_case "R1 determinism" `Quick
      (check_fixture "r1_determinism.ml"
         [ ("R1", 3); ("R1", 5); ("R1", 7) ]);
    Alcotest.test_case "R2 marshal" `Quick
      (check_fixture "r2_marshal.ml" [ ("R2", 3) ]);
    Alcotest.test_case "R3 obj.magic" `Quick
      (check_fixture "r3_obj_magic.ml" [ ("R3", 3) ]);
    Alcotest.test_case "R4 float equality" `Quick
      (check_fixture "r4_float_eq.ml" [ ("R4", 3); ("R4", 5); ("R4", 7) ]);
    Alcotest.test_case "R5 raw experiment record" `Quick
      (check_fixture "r5_record.ml" [ ("R5", 6); ("R5", 8) ]);
    Alcotest.test_case "R6 option equality" `Quick
      (check_fixture "r6_option_eq.ml" [ ("R6", 3); ("R6", 5); ("R6", 7) ]);
    Alcotest.test_case "R7 packet capture" `Quick
      (check_fixture "r7_packet_capture.ml"
         [ ("R7", 3); ("R7", 5); ("R7", 7); ("R7", 10); ("R7", 12) ]);
    Alcotest.test_case "suppression comments" `Quick
      (check_fixture "suppressed.ml" []);
    Alcotest.test_case "parse failure reported" `Quick test_parse_failure;
    Alcotest.test_case "lint_file agrees with lint_source" `Quick
      test_lint_file_agrees;
    Alcotest.test_case "violations sorted by location" `Quick
      test_violations_sorted;
    Alcotest.test_case "A1 zero-alloc hot paths (tast)" `Quick test_a1;
    Alcotest.test_case "A2 domain safety (tast)" `Quick test_a2;
    Alcotest.test_case "A2 allowlist is load-bearing (tast)" `Quick
      test_a2_no_allowlist;
    Alcotest.test_case "A3 interprocedural determinism (tast)" `Quick test_a3;
    Alcotest.test_case "A0 reasonless suppression (tast)" `Quick test_a0;
    Alcotest.test_case "A passes are manifest-driven (tast)" `Quick
      test_empty_manifest;
  ]
