(* Tests for the unified backend API ({!Sim_backend}): registry lookup,
   typed validation errors, digest semantics (stable per backend+spec,
   distinct across backends and across every field of a spec, pinned for
   the analytic backends), and the outcome helpers shared by the
   differential tests and [repro compare]. *)

module U = Sim_engine.Units
module B = Sim_backend

let mk_spec ?(ccas = [ "cubic"; "bbr" ]) () =
  let rate_bps = U.mbps 50.0 in
  let rtt = U.ms 40.0 in
  B.spec ~warmup:(U.seconds 2.0) ~seed:7 ~rate_bps
    ~buffer_bytes:(U.bdp_bytes ~rate_bps ~rtt)
    ~duration:(U.seconds 8.0)
    (List.map (fun cca -> { B.cca; rtt }) ccas)

let test_registry () =
  Alcotest.(check (list string))
    "names" [ "packet"; "fluid"; "ode" ] (B.names ());
  List.iter
    (fun backend ->
      match B.find (B.name backend) with
      | Ok b -> Alcotest.(check string) "find roundtrip" (B.name backend) (B.name b)
      | Error _ -> Alcotest.failf "find %S failed" (B.name backend))
    B.all;
  (match B.find "heun" with
  | Error (B.Unknown_backend { name; known }) ->
      Alcotest.(check string) "unknown name echoed" "heun" name;
      Alcotest.(check (list string)) "known list" (B.names ()) known
  | Ok _ | Error _ -> Alcotest.fail "find \"heun\" should be Unknown_backend");
  match B.find_exn "heun" with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "find_exn \"heun\" should raise"

let test_supports () =
  (* The packet simulator covers the whole CCA registry; the analytic
     backends model only the paper's three. *)
  List.iter
    (fun cca ->
      Alcotest.(check bool) ("packet " ^ cca) true (B.supports B.packet cca);
      Alcotest.(check bool) ("fluid " ^ cca) true (B.supports B.fluid cca);
      Alcotest.(check bool) ("ode " ^ cca) true (B.supports B.ode cca))
    [ "cubic"; "bbr"; "bbr2" ];
  Alcotest.(check bool) "packet reno" true (B.supports B.packet "reno");
  Alcotest.(check bool) "fluid reno" false (B.supports B.fluid "reno");
  Alcotest.(check bool) "ode reno" false (B.supports B.ode "reno")

(* Specs every backend must reject as [Invalid_spec]: an empty flow list,
   and each of rate, buffer, duration, warm-up and RTT made NaN or
   infinite. *)
let invalid_specs =
  let s = mk_spec () in
  let rtt x = List.map (fun f -> { f with B.rtt = U.seconds x }) s.B.flows in
  ("no flows", { s with B.flows = [] })
  :: List.concat_map
       (fun (what, x) ->
         [
           ("rate " ^ what, { s with B.rate_bps = U.bps x });
           ("buffer " ^ what, { s with B.buffer_bytes = U.bytes x });
           ("duration " ^ what, { s with B.duration = U.seconds x });
           ("warmup " ^ what, { s with B.warmup = U.seconds x });
           ("rtt " ^ what, { s with B.flows = rtt x });
         ])
       [ ("nan", nan); ("inf", infinity) ]

let test_validate () =
  List.iter
    (fun backend ->
      (match B.validate backend (mk_spec ()) with
      | Ok () -> ()
      | Error e ->
          Alcotest.failf "%s rejects a valid spec: %s" (B.name backend)
            (Format.asprintf "%a" B.pp_error e));
      List.iter
        (fun (what, spec) ->
          match B.validate backend spec with
          | Error (B.Invalid_spec _) -> ()
          | Ok () | Error _ ->
              Alcotest.failf "%s: %s should be Invalid_spec" (B.name backend)
                what)
        invalid_specs)
    B.all;
  match B.validate B.fluid (mk_spec ~ccas:[ "cubic"; "reno" ] ()) with
  | Error (B.Unsupported_cca { backend; cca; supported }) ->
      Alcotest.(check string) "backend" "fluid" backend;
      Alcotest.(check string) "cca" "reno" cca;
      Alcotest.(check bool) "supported list names cubic" true
        (List.mem "cubic" supported)
  | Ok () | Error _ -> Alcotest.fail "fluid+reno should be Unsupported_cca"

let test_digests () =
  let spec = mk_spec () in
  List.iter
    (fun backend ->
      Alcotest.(check string)
        (B.name backend ^ " digest stable")
        (B.digest backend spec) (B.digest backend spec))
    B.all;
  let digests = List.map (fun b -> B.digest b spec) B.all in
  Alcotest.(check int)
    "digests distinct across backends"
    (List.length B.all)
    (List.length (List.sort_uniq compare digests));
  let flow cca rtt_ms = { B.cca; rtt = U.ms rtt_ms } in
  let flows fs = { spec with B.flows = fs } in
  let variants =
    [
      ("rate", { spec with B.rate_bps = U.mbps 60.0 });
      ( "buffer",
        { spec with B.buffer_bytes = U.scale 2.0 spec.B.buffer_bytes } );
      ("duration", { spec with B.duration = U.seconds 9.0 });
      ("warm-up", { spec with B.warmup = U.seconds 3.0 });
      ("a flow's CCA", flows [ flow "cubic" 40.0; flow "bbr2" 40.0 ]);
      ("a flow's RTT", flows [ flow "cubic" 40.0; flow "bbr" 50.0 ]);
      ( "the flow count",
        flows [ flow "cubic" 40.0; flow "bbr" 40.0; flow "bbr" 40.0 ] );
      ("the flow order", flows [ flow "bbr" 40.0; flow "cubic" 40.0 ]);
    ]
  in
  List.iter
    (fun backend ->
      let keys = List.map (fun (_, s) -> B.digest backend s) variants in
      List.iter2
        (fun (field, _) key ->
          if String.equal (B.digest backend spec) key then
            Alcotest.failf "%s digest ignores %s" (B.name backend) field)
        variants keys;
      Alcotest.(check int)
        (B.name backend ^ " variants pairwise distinct")
        (List.length variants)
        (List.length (List.sort_uniq compare keys)))
    B.all;
  let reseeded = { spec with B.seed = 8 } in
  Alcotest.(check bool) "fluid digest covers the seed" false
    (String.equal (B.digest B.fluid spec) (B.digest B.fluid reseeded));
  Alcotest.(check string) "ode digest ignores the seed"
    (B.digest B.ode spec) (B.digest B.ode reseeded);
  (* Pinned, so a change of encoding or version token is a visible,
     deliberate diff: every cached analytic outcome misses once. *)
  Alcotest.(check string) "fluid key pinned"
    "fb2f8e46e3d314fa1afdbf69329961d5" (B.digest B.fluid spec);
  Alcotest.(check string) "ode key pinned" "eb58105deba4715be3508e3b927325ad"
    (B.digest B.ode spec)

let test_run_and_helpers () =
  let spec = mk_spec () in
  let o = B.run_exn B.fluid spec in
  Alcotest.(check (array string))
    "cca order preserved" [| "cubic"; "bbr" |] o.B.per_flow_cca;
  let total = Array.fold_left ( +. ) 0.0 o.B.per_flow_bps in
  Alcotest.(check bool)
    "utilization consistent with per-flow sum" true
    (Float.abs ((total /. 50e6) -. o.B.utilization) < 1e-9);
  Alcotest.(check bool)
    "aggregate = sum over kind" true
    (Float.abs
       (B.aggregate_bps_of_cca o "cubic"
       +. B.aggregate_bps_of_cca o "bbr"
       -. total)
    < 1e-6);
  Alcotest.(check bool)
    "mean of absent cca is nan" true
    (Float.is_nan (B.mean_bps_of_cca o "bbr2"));
  (match B.run B.ode (mk_spec ~ccas:[ "vegas" ] ()) with
  | Error (B.Unsupported_cca _) -> ()
  | Ok _ | Error _ -> Alcotest.fail "ode+vegas should be Unsupported_cca");
  match B.run_exn B.ode (mk_spec ~ccas:[ "vegas" ] ()) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "run_exn on unsupported CCA should raise"

let test_determinism () =
  let spec = mk_spec () in
  List.iter
    (fun backend ->
      let a = B.run_exn backend spec and b = B.run_exn backend spec in
      Alcotest.(check bool)
        (B.name backend ^ " reproducible")
        true
        (a.B.per_flow_bps = b.B.per_flow_bps
        && a.B.loss_events = b.B.loss_events))
    B.all

let tests =
  [
    Alcotest.test_case "registry lookup" `Quick test_registry;
    Alcotest.test_case "per-backend CCA support" `Quick test_supports;
    Alcotest.test_case "typed validation errors" `Quick test_validate;
    Alcotest.test_case "digest semantics" `Quick test_digests;
    Alcotest.test_case "run and outcome helpers" `Quick test_run_and_helpers;
    Alcotest.test_case "outcomes reproducible" `Quick test_determinism;
  ]
