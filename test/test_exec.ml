(* The parallel executor and on-disk result cache (Sim_engine.Exec).

   The contract under test is the one the experiment drivers rely on:
   results are bit-identical whatever the jobs count, cache hits skip the
   simulator entirely, any config change (however small) misses, and a
   damaged cache degrades to a live run rather than an error. *)

module Exec = Sim_engine.Exec
module E = Tcpflow.Experiment
module Common = Experiments.Common
module Runs = Experiments.Runs

let fresh_dir () =
  let path = Filename.temp_file "exec_cache" "" in
  Sys.remove path;
  path

let small_config ?(seed = 1) ?(rate_mbps = 10.0) ?aqm
    ?(duration = Sim_engine.Units.seconds 2.0)
    ?(warmup = Sim_engine.Units.seconds 0.5) ?sample_period ?(bdp = 3.0)
    ?(ccas = [ "cubic"; "bbr" ]) () =
  let rate_bps = Sim_engine.Units.mbps rate_mbps in
  E.config ?aqm ~warmup ?sample_period ~seed ~rate_bps
    ~buffer_bytes:
      (E.buffer_bytes_of_bdp ~rate_bps ~rtt:(Sim_engine.Units.ms 20.0) ~bdp)
    ~duration
    (List.map
       (fun cca -> E.flow_config ~base_rtt:(Sim_engine.Units.ms 20.0) cca)
       ccas)

(* --- Exec.map --- *)

let test_map_order () =
  let xs = Array.init 100 (fun i -> i) in
  let expected = Array.map (fun i -> i * i) xs in
  List.iter
    (fun jobs ->
      Alcotest.(check (array int))
        (Printf.sprintf "jobs=%d" jobs)
        expected
        (Exec.map ~jobs (fun i -> i * i) xs))
    [ 1; 2; 4; 7 ]

let test_map_empty () =
  Alcotest.(check (array int)) "empty" [||] (Exec.map ~jobs:4 (fun i -> i) [||])

let test_map_exception () =
  Alcotest.check_raises "job failure propagates" (Failure "boom") (fun () ->
      ignore
        (Exec.map ~jobs:4
           (fun i -> if i = 13 then failwith "boom" else i)
           (Array.init 40 (fun i -> i))))

let test_invalid_jobs () =
  (* Exec.map clamps oversized/undersized jobs counts; the user-facing
     validation lives in Common.ctx. *)
  Alcotest.(check (array int)) "map clamps jobs" [| 1 |]
    (Exec.map ~jobs:0 (fun i -> i) [| 1 |]);
  match Common.ctx ~jobs:0 Common.Quick with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "ctx ~jobs:0 should raise"

(* --- Determinism: jobs must not change results --- *)

(* Results are plain data; marshalling them gives a cheap structural
   fingerprint for whole-value equality checks. The one sanctioned use of
   Marshal outside the Exec cache lives here. *)
let fingerprint (r : E.result) = Marshal.to_string r [] (* simlint: allow R2 *)
let marshal_of_results results = List.map fingerprint results

let test_jobs_determinism () =
  let configs =
    List.concat_map
      (fun seed ->
        [ small_config ~seed (); small_config ~seed ~rate_mbps:16.0 () ])
      [ 1; 2; 3 ]
  in
  let run jobs = Runs.eval (Common.ctx ~jobs Common.Quick) configs in
  let sequential = marshal_of_results (run 1) in
  let parallel = marshal_of_results (run 4) in
  List.iteri
    (fun i (a, b) ->
      Alcotest.(check bool)
        (Printf.sprintf "config %d identical under jobs=1 and jobs=4" i)
        true (String.equal a b))
    (List.combine sequential parallel)

(* --- Cache semantics --- *)

let test_cache_hit_skips_simulation () =
  let dir = fresh_dir () in
  let ctx = Common.ctx ~cache_dir:dir Common.Quick in
  let configs = [ small_config ~seed:1 (); small_config ~seed:2 () ] in
  let first = Runs.eval ctx configs in
  let before = Exec.counters () in
  let second = Runs.eval ctx configs in
  let after = Exec.counters () in
  Alcotest.(check int) "no new simulations" 0
    (after.jobs_executed - before.jobs_executed);
  Alcotest.(check int) "every config hit" (List.length configs)
    (after.cache_hits - before.cache_hits);
  List.iteri
    (fun i (a, b) ->
      Alcotest.(check bool)
        (Printf.sprintf "result %d identical to first run" i)
        true
        (String.equal a b))
    (List.combine (marshal_of_results first) (marshal_of_results second))

let test_cache_dedups_within_batch () =
  let dir = fresh_dir () in
  let ctx = Common.ctx ~cache_dir:dir Common.Quick in
  let config = small_config ~seed:9 () in
  let before = Exec.counters () in
  (match Runs.eval ctx [ config; config; config ] with
  | [ a; b; c ] ->
      Alcotest.(check bool) "duplicates agree" true
        (String.equal (fingerprint a) (fingerprint b)
        && String.equal (fingerprint b) (fingerprint c))
  | _ -> Alcotest.fail "expected 3 results");
  let after = Exec.counters () in
  Alcotest.(check int) "simulated once" 1
    (after.jobs_executed - before.jobs_executed)

let test_digest_sensitive_to_every_field () =
  let digests =
    List.map
      (fun c -> E.digest c)
      [
        small_config ();
        small_config ~seed:2 ();
        small_config ~aqm:E.Red_default ();
        small_config ~rate_mbps:11.0 ();
        small_config ~bdp:4.0 ();
        small_config ~duration:(Sim_engine.Units.seconds 2.5) ();
        small_config ~warmup:(Sim_engine.Units.seconds 0.75) ();
        small_config ~sample_period:(Sim_engine.Units.ms 10.0) ();
        small_config ~ccas:[ "cubic"; "bbr2" ] ();
        small_config ~ccas:[ "cubic"; "bbr"; "bbr" ] ();
      ]
  in
  Alcotest.(check int)
    "every variant digests differently"
    (List.length digests)
    (List.length (List.sort_uniq compare digests))

(* Two [=]-equal configs must get one key however their floats are boxed:
   both flows of [shared] point at one [base_rtt] box, each flow of
   [separate] has its own. *)
let test_digest_ignores_sharing () =
  (* Each call boxes a fresh 40 ms. The inner [opaque_identity] stops the
     compiler from folding it into one static constant, the outer one from
     unboxing the binding and boxing it afresh at every use. *)
  let rtt () =
    Sys.opaque_identity (Sim_engine.Units.ms (Sys.opaque_identity 40.0))
  in
  let flow cca base_rtt =
    { E.cca; base_rtt; start_time = Sim_engine.Units.seconds 0.0 }
  in
  let config flows =
    E.config ~rate_bps:(Sim_engine.Units.mbps 10.0) ~buffer_bytes:50_000
      ~duration:(Sim_engine.Units.seconds 2.0) flows
  in
  let one = rtt () in
  let shared = config [ flow "cubic" one; flow "bbr" one ] in
  let separate = config [ flow "cubic" (rtt ()); flow "bbr" (rtt ()) ] in
  let rtts c = List.map (fun f -> (f.E.base_rtt :> float)) c.E.flows in
  (match (rtts shared, rtts separate) with
  | [ a; b ], [ c; d ] ->
    Alcotest.(check bool) "shared flows share one box" true (a == b);
    Alcotest.(check bool) "separate flows have two boxes" false (c == d)
  | _ -> Alcotest.fail "expected two flows each");
  Alcotest.(check bool) "configs are equal" true (shared = separate);
  Alcotest.(check string) "same digest" (E.digest shared) (E.digest separate)

let test_corrupted_cache_falls_back () =
  let dir = fresh_dir () in
  let ctx = Common.ctx ~cache_dir:dir Common.Quick in
  let configs = [ small_config ~seed:4 (); small_config ~seed:5 () ] in
  let first = Runs.eval ctx configs in
  (* Truncate / garble every cache entry in place. *)
  Array.iter
    (fun name ->
      let path = Filename.concat dir name in
      let oc = open_out path in
      output_string oc "not a marshalled value";
      close_out oc)
    (Sys.readdir dir);
  let before = Exec.counters () in
  let second = Runs.eval ctx configs in
  let after = Exec.counters () in
  Alcotest.(check int) "corrupted entries re-simulated"
    (List.length configs)
    (after.jobs_executed - before.jobs_executed);
  List.iteri
    (fun i (a, b) ->
      Alcotest.(check bool)
        (Printf.sprintf "re-simulated result %d matches" i)
        true (String.equal a b))
    (List.combine (marshal_of_results first) (marshal_of_results second));
  (* The rewritten entries must be readable again. *)
  let before = Exec.counters () in
  ignore (Runs.eval ctx configs);
  let after = Exec.counters () in
  Alcotest.(check int) "cache healed" 0
    (after.jobs_executed - before.jobs_executed)

let test_cache_raw_roundtrip () =
  let cache = Exec.Cache.create (fresh_dir ()) in
  Alcotest.(check (option (list int))) "absent" None
    (Exec.Cache.find cache ~key:"missing");
  Exec.Cache.store cache ~key:"xs" [ 1; 2; 3 ];
  Alcotest.(check (option (list int))) "roundtrip" (Some [ 1; 2; 3 ])
    (Exec.Cache.find cache ~key:"xs");
  Exec.Cache.store cache ~key:"xs" [ 9 ];
  Alcotest.(check (option (list int))) "overwrite" (Some [ 9 ])
    (Exec.Cache.find cache ~key:"xs")

let tests =
  [
    Alcotest.test_case "map preserves order" `Quick test_map_order;
    Alcotest.test_case "map on empty input" `Quick test_map_empty;
    Alcotest.test_case "map re-raises job failure" `Quick test_map_exception;
    Alcotest.test_case "invalid jobs counts" `Quick test_invalid_jobs;
    Alcotest.test_case "jobs=1 and jobs=4 bit-identical" `Slow
      test_jobs_determinism;
    Alcotest.test_case "cache hit skips simulation" `Quick
      test_cache_hit_skips_simulation;
    Alcotest.test_case "duplicate configs simulate once" `Quick
      test_cache_dedups_within_batch;
    Alcotest.test_case "digest changes with any field" `Quick
      test_digest_sensitive_to_every_field;
    Alcotest.test_case "digest ignores heap sharing" `Quick
      test_digest_ignores_sharing;
    Alcotest.test_case "corrupted cache falls back to live run" `Quick
      test_corrupted_cache_falls_back;
    Alcotest.test_case "raw cache roundtrip" `Quick test_cache_raw_roundtrip;
  ]
