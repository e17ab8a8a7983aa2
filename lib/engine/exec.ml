(* Domain-based parallel executor and content-addressed result cache.

   Simulation runs are pure functions of their config (every run builds its
   own [Sim.t] and derives all randomness from the config's seed), so a
   batch of runs can be farmed out to domains in any order and the results
   keyed on disk by a digest of the config. *)

type counters = {
  jobs_executed : int;
  cache_hits : int;
  cache_misses : int;
  memo_evictions : int;
}

let jobs_executed = Atomic.make 0
let hits = Atomic.make 0
let misses = Atomic.make 0
let memo_evictions = Atomic.make 0

let counters () =
  {
    jobs_executed = Atomic.get jobs_executed;
    cache_hits = Atomic.get hits;
    cache_misses = Atomic.get misses;
    memo_evictions = Atomic.get memo_evictions;
  }

let note_memo_eviction () = Atomic.incr memo_evictions

let domain_count () = Domain.recommended_domain_count ()

(* Each worker claims indices off a shared atomic counter, so an expensive
   job does not stall the jobs behind it the way static chunking would.
   Per-index writes into [results] are disjoint, hence race-free. *)
let map ?(jobs = 1) f xs =
  let n = Array.length xs in
  let jobs = max 1 (min jobs n) in
  if jobs <= 1 then
    Array.map
      (fun x ->
        Atomic.incr jobs_executed;
        f x)
      xs
  else begin
    let results = Array.make n None in
    let next = Atomic.make 0 in
    let worker () =
      let rec loop () =
        let i = Atomic.fetch_and_add next 1 in
        if i < n then begin
          Atomic.incr jobs_executed;
          (results.(i) <-
             (try Some (Ok (f xs.(i)))
              with e -> Some (Error (e, Printexc.get_raw_backtrace ()))));
          loop ()
        end
      in
      loop ()
    in
    let domains = List.init (jobs - 1) (fun _ -> Domain.spawn worker) in
    worker ();
    List.iter Domain.join domains;
    Array.map
      (function
        | Some (Ok v) -> v
        | Some (Error (e, bt)) -> Printexc.raise_with_backtrace e bt
        | None -> assert false)
      results
  end

let map_list ?jobs f xs = Array.to_list (map ?jobs f (Array.of_list xs))

(* A concurrent creator may win the race for any component; losing it is
   the one failure tolerated, and only if a directory is what it left. *)
let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Sys.mkdir dir 0o755
    with Sys_error _ when Sys.file_exists dir && Sys.is_directory dir -> ()
  end

module Cache = struct
  type t = { dir : string }

  let magic = "bbr-equilibrium-cache-v1"

  let create dir =
    mkdir_p dir;
    { dir }

  let dir t = t.dir
  let path t ~key = Filename.concat t.dir (Digest.to_hex (Digest.string key))

  (* The payload is [(magic, key, value)]: the magic rejects files from
     incompatible cache layouts, the stored key guards against the
     (astronomically unlikely) digest collision, and any exception while
     reading — truncation, garbage, a stale partial write — degrades to a
     miss so the caller just re-simulates. *)
  let find (type a) t ~key : a option =
    let path = path t ~key in
    if not (Sys.file_exists path) then begin
      Atomic.incr misses;
      None
    end
    else
      let loaded =
        try
          let ic = open_in_bin path in
          Fun.protect
            ~finally:(fun () -> close_in_noerr ic)
            (fun () ->
              match (Marshal.from_channel ic : string * string * a) with
              | m, k, v when m = magic && k = key -> Some v
              | _ -> None)
        with _ -> None
      in
      (match loaded with
      | Some _ -> Atomic.incr hits
      | None -> Atomic.incr misses);
      loaded

  (* Write-to-temp + rename keeps concurrent writers of the same key from
     ever exposing a half-written file. *)
  let store t ~key value =
    let path = path t ~key in
    let tmp = Filename.temp_file ~temp_dir:t.dir "partial" ".tmp" in
    let oc = open_out_bin tmp in
    (try
       Marshal.to_channel oc (magic, key, value) [];
       close_out oc;
       Sys.rename tmp path
     with e ->
       close_out_noerr oc;
       (try Sys.remove tmp with Sys_error _ -> ());
       raise e)
end
