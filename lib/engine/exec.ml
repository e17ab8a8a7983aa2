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

(* Results are records appended to packs: one append-only [*.pack] file per
   writing handle, never one file per result. Creating a file costs far
   more than appending to one (about 0.8 ms against a few microseconds on
   the virtual disk of a 2-vCPU host), and a cold analytic pass stores
   hundreds of results.

   Record layout, little-endian:

     magic (8 bytes) | key length (8) | payload length (8)
     | checksum of the payload (8) | key | payload

   The payload is the marshalled value. A record counts only when it is
   complete and its checksum matches: a torn tail or a damaged record
   reads as a miss. A new magic makes every record of the old format a
   miss. *)
module Cache = struct
  (* Where a record sits: its pack, and its offset and length in bytes. *)
  type loc = { pack : string; off : int; len : int }

  type t = {
    dir : string;
    lock : Mutex.t;
        (* Guards the fields below: one handle may serve every domain of
           a [map]. *)
    index : (string, loc) Hashtbl.t;
    mutable indexed : bool;  (* The directory's packs have been read. *)
    mutable own : string option;  (* This handle's pack, once created. *)
  }

  let magic = "bbrpack1"
  let checksum_at = 24
  let header_len = checksum_at + 8

  let[@inline] mix h w =
    let x = Int64.mul (Int64.logxor h w) 0x9E3779B97F4A7C15L in
    Int64.logxor x (Int64.shift_right_logical x 29)

  (* A multiply-xorshift fold over the payload's 8-byte words, then its
     trailing bytes. Each step is a bijection of the state for a given
     word, so a change confined to one word, such as a flipped byte,
     always changes the result. Every find checks it, so it has to be
     cheap: MD5 takes 18 us on an 8 kB churn result where this takes
     3.6 us, and with MD5 a warm churn replay ran 23 % slower. *)
  let checksum s off len =
    let h = ref (Int64.of_int len) and i = ref off in
    let stop = off + len in
    while !i + 8 <= stop do
      h := mix !h (String.get_int64_le s !i);
      i := !i + 8
    done;
    while !i < stop do
      h := mix !h (Int64.of_int (Char.code s.[!i]));
      incr i
    done;
    !h

  let create dir =
    mkdir_p dir;
    {
      dir;
      lock = Mutex.create ();
      index = Hashtbl.create 64;
      indexed = false;
      own = None;
    }

  let dir t = t.dir

  let record ~key payload =
    let b = Bytes.create header_len in
    Bytes.blit_string magic 0 b 0 8;
    Bytes.set_int64_le b 8 (Int64.of_int (String.length key));
    Bytes.set_int64_le b 16 (Int64.of_int (String.length payload));
    Bytes.set_int64_le b checksum_at
      (checksum payload 0 (String.length payload));
    String.concat "" [ Bytes.unsafe_to_string b; key; payload ]

  (* Key and payload lengths, if [s] starts with a record header. *)
  let parse_header s =
    if String.length s < header_len || not (String.starts_with ~prefix:magic s)
    then None
    else
      let klen = Int64.to_int (String.get_int64_le s 8) in
      let plen = Int64.to_int (String.get_int64_le s 16) in
      if klen < 0 || plen < 0 then None else Some (klen, plen)

  (* The value of record [r], if it holds [key] and its payload matches its
     checksum. *)
  let decode (type a) ~key r : a option =
    match parse_header r with
    | Some (klen, plen)
      when header_len + klen + plen = String.length r
           && String.equal (String.sub r header_len klen) key
           && Int64.equal
                (String.get_int64_le r checksum_at)
                (checksum r (header_len + klen) plen) -> (
      try Some (Marshal.from_string r (header_len + klen) : a)
      with Failure _ -> None)
    | _ -> None

  (* Index the complete records of one pack, in file order, up to the first
     torn or unreadable header. A record replaces an earlier record of its
     key in the same pack (the writer's last store wins), never one from
     another pack or from this handle's own stores. *)
  let index_pack t pack =
    let add key loc =
      match Hashtbl.find_opt t.index key with
      | Some prev when not (String.equal prev.pack pack && prev.off < loc.off)
        ->
        ()
      | _ -> Hashtbl.replace t.index key loc
    in
    try
      In_channel.with_open_bin pack (fun ic ->
          let size = in_channel_length ic in
          let rec scan off =
            if off + header_len <= size then begin
              seek_in ic off;
              match parse_header (really_input_string ic header_len) with
              | Some (klen, plen)
                when klen <= size && plen <= size
                     && off + header_len + klen + plen <= size ->
                let len = header_len + klen + plen in
                add (really_input_string ic klen) { pack; off; len };
                scan (off + len)
              | _ -> ()
            end
          in
          scan 0)
    with End_of_file | Sys_error _ -> ()

  (* Old per-result files and anything else without the suffix are
     ignored. *)
  let[@simlint.taint_ok "the listing is sorted before use"] packs dir =
    match Sys.readdir dir with
    | exception Sys_error _ -> []
    | names ->
      List.sort String.compare
        (List.filter_map
           (fun name ->
             if Filename.check_suffix name ".pack" then
               Some (Filename.concat dir name)
             else None)
           (Array.to_list names))

  (* The bytes at [loc], or [None] if the pack is gone or ends first. One
     [read] of exactly the record: a buffered channel would copy a whole
     buffer's worth of the pack per find. *)
  let read_at { pack; off; len } =
    match Unix.openfile pack [ O_RDONLY; O_CLOEXEC ] 0 with
    | exception Unix.Unix_error _ -> None
    | fd ->
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () ->
          let b = Bytes.create len in
          let rec fill got =
            if got = len then Some (Bytes.unsafe_to_string b)
            else
              match Unix.read fd b got (len - got) with
              | 0 -> None
              | n -> fill (got + n)
          in
          try
            ignore (Unix.lseek fd off SEEK_SET);
            fill 0
          with Unix.Unix_error _ -> None)

  (* The index is built on the first find, from every pack in the
     directory at that moment; records appended later by other handles
     stay invisible to this one. *)
  let find t ~key =
    let loc =
      Mutex.protect t.lock (fun () ->
          if not t.indexed then begin
            t.indexed <- true;
            List.iter (index_pack t) (packs t.dir)
          end;
          Hashtbl.find_opt t.index key)
    in
    let value =
      Option.bind loc (fun loc -> Option.bind (read_at loc) (decode ~key))
    in
    Atomic.incr (if Option.is_some value then hits else misses);
    value

  (* Each store opens the pack for append, writes one record and closes
     it, so no descriptor outlives a call. A failed write may leave a torn
     record, past which a scan reads nothing: the next store starts a new
     pack. *)
  let store t ~key value =
    let record = record ~key (Marshal.to_string value []) in
    let len = String.length record in
    Mutex.protect t.lock (fun () ->
        match
          let pack =
            match t.own with
            | Some pack -> pack
            | None ->
              (* An exclusive create under a fresh name. *)
              let pack =
                Filename.temp_file ~temp_dir:t.dir "writer-" ".pack"
              in
              t.own <- Some pack;
              pack
          in
          let fd =
            Unix.openfile pack [ O_WRONLY; O_APPEND; O_CREAT; O_CLOEXEC ] 0o644
          in
          Fun.protect
            ~finally:(fun () -> Unix.close fd)
            (fun () ->
              let off = Unix.lseek fd 0 SEEK_END in
              ignore (Unix.write_substring fd record 0 len);
              { pack; off; len })
        with
        | loc -> Hashtbl.replace t.index key loc
        | exception e ->
          t.own <- None;
          raise e)
end
