(* The parallel executor and result store (Sim_engine.Exec).

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

(* Every ctx has one store: on disk with [cache_dir], in memory without. *)
let test_cache_hit_skips_simulation () =
  let configs = [ small_config ~seed:1 (); small_config ~seed:2 () ] in
  List.iter
    (fun (store, ctx) ->
      let first = Runs.eval ctx configs in
      let before = Exec.counters () in
      let second = Runs.eval ctx configs in
      let after = Exec.counters () in
      Alcotest.(check int) (store ^ ": no new simulations") 0
        (after.simulations - before.simulations);
      Alcotest.(check int) (store ^ ": every config hit")
        (List.length configs)
        (after.cache_hits - before.cache_hits);
      List.iteri
        (fun i (a, b) ->
          Alcotest.(check bool)
            (Printf.sprintf "%s: result %d identical to first run" store i)
            true (String.equal a b))
        (List.combine (marshal_of_results first) (marshal_of_results second)))
    [
      ("disk", Common.ctx ~cache_dir:(fresh_dir ()) Common.Quick);
      ("memory", Common.ctx Common.Quick);
    ]

(* A cache path that names a regular file fails when the ctx is made, not
   at the first store, after the batch has been simulated. *)
let test_cache_dir_is_a_file () =
  let file = Filename.temp_file "exec_cache" "" in
  Fun.protect
    ~finally:(fun () -> Sys.remove file)
    (fun () ->
      match Common.ctx ~cache_dir:file Common.Quick with
      | exception Sys_error _ -> ()
      | _ -> Alcotest.fail "a ctx over a regular file should raise")

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
    (after.simulations - before.simulations)

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
    (after.simulations - before.simulations);
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
    (after.simulations - before.simulations)

let test_cache_raw_roundtrip () =
  List.iter
    (fun (store, cache) ->
      Alcotest.(check (option (list int))) (store ^ ": absent") None
        (Exec.Cache.find cache ~key:"missing");
      Exec.Cache.store cache ~key:"xs" [ 1; 2; 3 ];
      Alcotest.(check (option (list int))) (store ^ ": roundtrip")
        (Some [ 1; 2; 3 ])
        (Exec.Cache.find cache ~key:"xs");
      Exec.Cache.store cache ~key:"xs" [ 9 ];
      Alcotest.(check (option (list int))) (store ^ ": overwrite") (Some [ 9 ])
        (Exec.Cache.find cache ~key:"xs"))
    [
      ("disk", Exec.Cache.create (fresh_dir ()));
      ("memory", Exec.Cache.in_memory ());
    ]

(* A find returns a copy, as a read from disk does: neither the value
   handed to [store] nor one a find returned is the stored value. *)
let test_memory_find_copies () =
  let cache = Exec.Cache.in_memory () in
  let stored = [| 1.0; 2.0 |] in
  Exec.Cache.store cache ~key:"xs" stored;
  stored.(0) <- -1.0;
  let find () = (Exec.Cache.find cache ~key:"xs" : float array option) in
  (match find () with
  | Some found -> found.(1) <- -2.0
  | None -> Alcotest.fail "stored value not found");
  Alcotest.(check (option (array (float 0.0))))
    "mutations leave the stored value" (Some [| 1.0; 2.0 |]) (find ())

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
  let n = 200 in
  let fill cache =
    ignore
      (Exec.map ~jobs:4
         (fun i -> Exec.Cache.store cache ~key:(string_of_int i) (i * i))
         (Array.init n Fun.id))
  in
  let expected = List.init n (fun i -> Some (i * i)) in
  let read cache =
    List.init n (fun i ->
        (Exec.Cache.find cache ~key:(string_of_int i) : int option))
  in
  let dir = fresh_dir () in
  let cache = Exec.Cache.create dir in
  fill cache;
  Alcotest.(check int) "one pack for the shared handle" 1
    (List.length (packs dir));
  Alcotest.(check (list (option int)))
    "the writer reads every record" expected (read cache);
  Alcotest.(check (list (option int)))
    "a new handle reads every record" expected
    (read (Exec.Cache.create dir));
  let memory = Exec.Cache.in_memory () in
  fill memory;
  Alcotest.(check (list (option int)))
    "an in-memory handle reads every record" expected (read memory)

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

(* A traced ctx keeps its results in memory: over a warm cache it still
   simulates and traces, and it appends nothing to the cache. *)
let test_trace_ignores_cache () =
  let dir = fresh_dir () and trace = fresh_dir () in
  let config = small_config ~seed:6 () in
  ignore (Runs.eval (Common.ctx ~cache_dir:dir Common.Quick) [ config ]);
  let warm = packs dir in
  let before = Exec.counters () in
  ignore
    (Runs.eval
       (Common.ctx ~cache_dir:dir ~trace_dir:trace Common.Quick)
       [ config ]);
  let after = Exec.counters () in
  let files = List.sort compare (Array.to_list (Sys.readdir trace)) in
  List.iter (fun f -> Sys.remove (Filename.concat trace f)) files;
  Sys.rmdir trace;
  Alcotest.(check int) "simulated despite a warm cache" 1
    (after.simulations - before.simulations);
  let key = E.digest config in
  Alcotest.(check (list string)) "a trace and its metrics"
    [ key ^ ".jsonl"; key ^ ".metrics" ]
    files;
  Alcotest.(check (list string)) "no pack added" warm (packs dir)

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

(* A pack in the [bbrpack1] layout: the same header fields, checksummed
   by a one-lane multiply-xorshift fold. *)
let bbrpack1_record ~key payload =
  let mix h w =
    let x = Int64.mul (Int64.logxor h w) 0x9E3779B97F4A7C15L in
    Int64.logxor x (Int64.shift_right_logical x 29)
  in
  let len = String.length payload in
  let h = ref (Int64.of_int len) and i = ref 0 in
  while !i + 8 <= len do
    h := mix !h (String.get_int64_le payload !i);
    i := !i + 8
  done;
  while !i < len do
    h := mix !h (Int64.of_int (Char.code payload.[!i]));
    incr i
  done;
  let b = Bytes.create 32 in
  Bytes.blit_string "bbrpack1" 0 b 0 8;
  Bytes.set_int64_le b 8 (Int64.of_int (String.length key));
  Bytes.set_int64_le b 16 (Int64.of_int len);
  Bytes.set_int64_le b 24 !h;
  Bytes.to_string b ^ key ^ payload

let test_pack_old_magic () =
  let dir = fresh_dir () in
  Exec.mkdir_p dir;
  let key = "old" in
  (* simlint: allow R2 *)
  let payload = Marshal.to_string 42 [] in
  write_file
    (Filename.concat dir "writer-old.pack")
    (bbrpack1_record ~key payload);
  let found, counts =
    counted (fun () ->
        (Exec.Cache.find (Exec.Cache.create dir) ~key : int option))
  in
  Alcotest.(check (option int)) "a bbrpack1 record is not read" None found;
  Alcotest.(check (pair int int)) "a counted miss" (0, 1) counts;
  Exec.Cache.store (Exec.Cache.create dir) ~key 43;
  Alcotest.(check (option int)) "the next store reads back" (Some 43)
    (Exec.Cache.find (Exec.Cache.create dir) ~key)

(* A batch asks for keys out of storage order, with a repeat and an absent
   key, across two packs; one record in the middle of a run is damaged. *)
let test_pack_batch_find () =
  let dir = fresh_dir () in
  store_all (Exec.Cache.create dir);
  let first_pack = only_pack dir in
  Exec.Cache.store (Exec.Cache.create dir) ~key:"other" (value_of "other");
  let asked = [| "third"; "absent"; "other"; "first"; "second"; "third" |] in
  let expected =
    [ Some "third"; None; Some "other"; Some "first"; Some "second";
      Some "third" ]
  in
  let batch () =
    Array.to_list
      (Exec.Cache.find_many (Exec.Cache.create dir) ~keys:asked
        : string option array)
  in
  let found, counts = counted batch in
  Alcotest.(check (list (option string)))
    "values in the order asked"
    (List.map (Option.map value_of) expected)
    found;
  Alcotest.(check (pair int int)) "counted per key" (5, 1) counts;
  let bytes = Bytes.of_string (read_file first_pack) in
  let i = index_of ~sub:"payload of second" (Bytes.to_string bytes) in
  Bytes.set bytes (i + 3) 'X';
  write_file first_pack (Bytes.to_string bytes);
  let found, counts = counted batch in
  Alcotest.(check (list (option string)))
    "only the damaged record misses"
    (List.map (Option.map value_of)
       [ Some "third"; None; Some "other"; Some "first"; None; Some "third" ])
    found;
  Alcotest.(check (pair int int)) "two counted misses" (4, 2) counts;
  Alcotest.(check (array (option string)))
    "an empty batch" [||]
    (Exec.Cache.find_many (Exec.Cache.create dir) ~keys:[||])

let test_pack_batch_torn_tail () =
  let dir = fresh_dir () in
  store_all (Exec.Cache.create dir);
  let cache = Exec.Cache.create dir in
  (* Index first, then cut the run's last record short under the handle:
     the run's read comes back short. *)
  ignore (Exec.Cache.find cache ~key:"first" : string option);
  let pack = only_pack dir in
  let bytes = read_file pack in
  write_file pack (String.sub bytes 0 (String.length bytes - 5));
  let found, counts =
    counted (fun () ->
        Array.to_list
          (Exec.Cache.find_many cache ~keys:(Array.of_list keys)
            : string option array))
  in
  Alcotest.(check (list (option string)))
    "records before the cut survive"
    [ Some (value_of "first"); Some (value_of "second"); None ]
    found;
  Alcotest.(check (pair int int)) "two hits, one counted miss" (2, 1) counts

(* [map] only schedules: a job that finds its result in the cache counts
   no simulation, as when fig09, fig10 or evolve fan their units out. *)
let test_map_counts_no_simulation () =
  let dir = fresh_dir () in
  let ctx = Common.ctx ~cache_dir:dir Common.Quick in
  let configs = [ small_config ~seed:3 (); small_config ~seed:4 () ] in
  let before = Exec.counters () in
  ignore (Runs.eval ctx configs);
  let cold = Exec.counters () in
  ignore
    (Exec.map ~jobs:2
       (fun c -> Runs.eval (Common.sequential ctx) [ c ])
       (Array.of_list configs));
  let warm = Exec.counters () in
  Alcotest.(check int) "cold: one per config" 2
    (cold.simulations - before.simulations);
  Alcotest.(check int) "warm outer jobs: none" 0
    (warm.simulations - cold.simulations)

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
    Alcotest.test_case "cache dir that is a file" `Quick
      test_cache_dir_is_a_file;
    Alcotest.test_case "raw cache roundtrip" `Quick test_cache_raw_roundtrip;
    Alcotest.test_case "memory: finds return copies" `Quick
      test_memory_find_copies;
    Alcotest.test_case "pack: torn tail is a counted miss" `Quick
      test_pack_torn_tail;
    Alcotest.test_case "pack: corrupt record misses alone" `Quick
      test_pack_corrupt_record;
    Alcotest.test_case "pack: two writers, one reader" `Quick
      test_pack_two_writers;
    Alcotest.test_case "pack: handle shared by domains" `Quick
      test_pack_shared_by_domains;
    Alcotest.test_case "pack: one per ctx" `Quick test_pack_one_per_ctx;
    Alcotest.test_case "traced ctx ignores the cache" `Quick
      test_trace_ignores_cache;
    Alcotest.test_case "pack: old per-result files ignored" `Quick
      test_pack_ignores_old_files;
    Alcotest.test_case "pack: bbrpack1 record is a counted miss" `Quick
      test_pack_old_magic;
    Alcotest.test_case "pack: batch find by pack and offset" `Quick
      test_pack_batch_find;
    Alcotest.test_case "pack: batch find with a short read" `Quick
      test_pack_batch_torn_tail;
    Alcotest.test_case "map counts no simulation" `Quick
      test_map_counts_no_simulation;
  ]
