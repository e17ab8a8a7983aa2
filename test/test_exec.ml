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

(* --- Pack format --- *)

let packs dir =
  List.sort compare
    (List.filter
       (fun name -> Filename.check_suffix name ".pack")
       (Array.to_list (Sys.readdir dir)))

let only_pack dir =
  match packs dir with
  | [ name ] -> Filename.concat dir name
  | names -> Alcotest.failf "expected one pack, found %d" (List.length names)

let read_file path = In_channel.with_open_bin path In_channel.input_all

let write_file path contents =
  Out_channel.with_open_bin path (fun oc -> output_string oc contents)

(* What [f] returned, with the hits and misses of the finds it made. *)
let counted f =
  let before = Exec.counters () in
  let v = f () in
  let after = Exec.counters () in
  ( v,
    (after.cache_hits - before.cache_hits,
     after.cache_misses - before.cache_misses) )

(* Each value carries a marker that occurs once in the pack, so a test can
   find its payload's bytes. *)
let value_of key = "payload of " ^ key ^ String.make 64 '.'
let keys = [ "first"; "second"; "third" ]

let store_all cache =
  List.iter (fun k -> Exec.Cache.store cache ~key:k (value_of k)) keys

let find_all cache =
  List.map (fun k -> (Exec.Cache.find cache ~key:k : string option)) keys

let test_pack_torn_tail () =
  let dir = fresh_dir () in
  store_all (Exec.Cache.create dir);
  let pack = only_pack dir in
  let bytes = read_file pack in
  (* Cut the last record short by a few bytes of its payload. *)
  write_file pack (String.sub bytes 0 (String.length bytes - 5));
  let found, counts =
    counted (fun () -> find_all (Exec.Cache.create dir))
  in
  Alcotest.(check (list (option string)))
    "earlier records survive a torn tail"
    [ Some (value_of "first"); Some (value_of "second"); None ]
    found;
  Alcotest.(check (pair int int)) "two hits, one counted miss" (2, 1) counts

let index_of ~sub s =
  let n = String.length sub in
  let rec go i =
    if i + n > String.length s then Alcotest.failf "%S not in the pack" sub
    else if String.equal (String.sub s i n) sub then i
    else go (i + 1)
  in
  go 0

let test_pack_corrupt_record () =
  let dir = fresh_dir () in
  store_all (Exec.Cache.create dir);
  let pack = only_pack dir in
  let bytes = Bytes.of_string (read_file pack) in
  let i = index_of ~sub:"payload of second" (Bytes.to_string bytes) in
  Bytes.set bytes (i + 3) 'X';
  write_file pack (Bytes.to_string bytes);
  let found, counts =
    counted (fun () -> find_all (Exec.Cache.create dir))
  in
  Alcotest.(check (list (option string)))
    "only the damaged record misses"
    [ Some (value_of "first"); None; Some (value_of "third") ]
    found;
  Alcotest.(check (pair int int)) "two hits, one counted miss" (2, 1) counts

(* Also the documented semantics: a writer's last store of a key wins, and
   what another handle appends after a reader built its index stays
   invisible to that reader. *)
let test_pack_two_writers () =
  let dir = fresh_dir () in
  let a = Exec.Cache.create dir and b = Exec.Cache.create dir in
  Exec.Cache.store a ~key:"a" 1;
  Exec.Cache.store b ~key:"b" 2;
  Exec.Cache.store a ~key:"a2" 3;
  Exec.Cache.store a ~key:"a2" 4;
  Alcotest.(check int) "one pack per writer" 2 (List.length (packs dir));
  let c = Exec.Cache.create dir in
  Alcotest.(check (list (option int)))
    "a third handle reads both packs"
    [ Some 1; Some 2; Some 4 ]
    (List.map (fun key -> Exec.Cache.find c ~key) [ "a"; "b"; "a2" ]);
  Exec.Cache.store b ~key:"late" 5;
  Alcotest.(check (option int)) "a record appended later is not seen" None
    (Exec.Cache.find c ~key:"late")

let test_pack_shared_by_domains () =
  let dir = fresh_dir () in
  let cache = Exec.Cache.create dir in
  let n = 200 in
  ignore
    (Exec.map ~jobs:4
       (fun i -> Exec.Cache.store cache ~key:(string_of_int i) (i * i))
       (Array.init n Fun.id));
  Alcotest.(check int) "one pack for the shared handle" 1
    (List.length (packs dir));
  let expected = List.init n (fun i -> Some (i * i)) in
  let read cache =
    List.init n (fun i ->
        (Exec.Cache.find cache ~key:(string_of_int i) : int option))
  in
  Alcotest.(check (list (option int)))
    "the writer reads every record" expected (read cache);
  Alcotest.(check (list (option int)))
    "a new handle reads every record" expected
    (read (Exec.Cache.create dir))

let test_pack_one_per_ctx () =
  let dir = fresh_dir () in
  let ctx = Common.ctx ~cache_dir:dir Common.Quick in
  let before = Exec.counters () in
  for seed = 1 to 20 do
    ignore
      (Runs.eval ctx
         [ small_config ~seed ~duration:(Sim_engine.Units.seconds 1.0)
             ~warmup:(Sim_engine.Units.seconds 0.25) () ])
  done;
  let after = Exec.counters () in
  Alcotest.(check int) "every call missed" 20
    (after.cache_misses - before.cache_misses);
  Alcotest.(check int) "one pack for the ctx" 1 (List.length (packs dir))

(* A result file in the layout that predates packs: the value marshalled
   with a magic and its key, named by the key's MD5. *)
let test_pack_ignores_old_files () =
  let dir = fresh_dir () in
  Exec.mkdir_p dir;
  let key = "old" in
  let old = Filename.concat dir (Digest.to_hex (Digest.string key)) in
  (* simlint: allow R2 *)
  write_file old (Marshal.to_string ("bbr-equilibrium-cache-v1", key, 42) []);
  let cache = Exec.Cache.create dir in
  let found, counts =
    counted (fun () -> (Exec.Cache.find cache ~key : int option))
  in
  Alcotest.(check (option int)) "old file is not read" None found;
  Alcotest.(check (pair int int)) "a counted miss" (0, 1) counts;
  Exec.Cache.store cache ~key 43;
  Alcotest.(check (option int)) "the new record answers" (Some 43)
    (Exec.Cache.find (Exec.Cache.create dir) ~key);
  Alcotest.(check bool) "old file left in place" true (Sys.file_exists old)

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
    Alcotest.test_case "pack: torn tail is a counted miss" `Quick
      test_pack_torn_tail;
    Alcotest.test_case "pack: corrupt record misses alone" `Quick
      test_pack_corrupt_record;
    Alcotest.test_case "pack: two writers, one reader" `Quick
      test_pack_two_writers;
    Alcotest.test_case "pack: handle shared by domains" `Quick
      test_pack_shared_by_domains;
    Alcotest.test_case "pack: one per ctx" `Quick test_pack_one_per_ctx;
    Alcotest.test_case "pack: old per-result files ignored" `Quick
      test_pack_ignores_old_files;
  ]
