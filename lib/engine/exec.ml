(* Domain-based parallel executor and content-addressed result store.

   Simulation runs are pure functions of their config (every run builds its
   own [Sim.t] and derives all randomness from the config's seed), so a
   batch of runs can be farmed out to domains in any order and the results
   keyed, on disk or in memory, by a digest of the config. *)

type counters = { simulations : int; cache_hits : int; cache_misses : int }

let simulations = Atomic.make 0
let hits = Atomic.make 0
let misses = Atomic.make 0

let counters () =
  {
    simulations = Atomic.get simulations;
    cache_hits = Atomic.get hits;
    cache_misses = Atomic.get misses;
  }

let note_simulation () = Atomic.incr simulations

let domain_count () = Domain.recommended_domain_count ()

(* Each worker claims indices off a shared atomic counter, so an expensive
   job does not stall the jobs behind it the way static chunking would.
   Per-index writes into [results] are disjoint, hence race-free. *)
let map ?(jobs = 1) f xs =
  let n = Array.length xs in
  let jobs = max 1 (min jobs n) in
  if jobs <= 1 then Array.map f xs
  else begin
    let results = Array.make n None in
    let next = Atomic.make 0 in
    let worker () =
      let rec loop () =
        let i = Atomic.fetch_and_add next 1 in
        if i < n then begin
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
   the one failure tolerated, and only if a directory is what it left. A
   path that exists is done only if it is a directory: otherwise the first
   file written under it would fail, after the work that produced it. *)
let rec mkdir_p dir =
  if Sys.file_exists dir then begin
    if not (Sys.is_directory dir) then
      raise (Sys_error (dir ^ ": Not a directory"))
  end
  else begin
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

  (* The packs of one directory, as one handle sees them. *)
  type packs = {
    dir : string;
    index : (string, loc) Hashtbl.t;
    mutable indexed : bool;  (* The directory's packs have been read. *)
    mutable own : string option;  (* This handle's pack, once created. *)
  }

  (* Where a handle keeps its records: in the packs of a directory, or
     each key's marshalled payload in process memory. *)
  type records = Packs of packs | Memory of (string, string) Hashtbl.t

  type t = {
    lock : Mutex.t;
        (* Guards the records: one handle may serve every domain of a
           [map]. *)
    records : records;
  }

  let magic = "bbrpack2"
  let checksum_at = 24
  let header_len = checksum_at + 8

  let[@inline] mix h w =
    let x = Int64.mul (Int64.logxor h w) 0x9E3779B97F4A7C15L in
    Int64.logxor x (Int64.shift_right_logical x 29)

  (* A multiply-xorshift fold over the payload's 8-byte words in two
     lanes: even words into one state, odd words into the other, trailing
     bytes into the first, and the second mixed into the first at the
     end. Each step is a bijection of its lane's state for a given word,
     and the final mix is a bijection of either state, so a change
     confined to one word, such as a flipped byte, always changes the
     result. Two independent multiply chains overlap their latency: 2.2
     us per 8 kB against 3.4 us for one chain ([bbrpack1]). Every find
     checks it, so it has to be cheap: MD5 takes 18 us on an 8 kB churn
     result, and with MD5 a warm churn replay ran 23 % slower. *)
  let checksum s off len =
    let a = ref (Int64.of_int len) and b = ref 0x6A09E667F3BCC908L in
    let i = ref off and stop = off + len in
    while !i + 16 <= stop do
      a := mix !a (String.get_int64_le s !i);
      b := mix !b (String.get_int64_le s (!i + 8));
      i := !i + 16
    done;
    if !i + 8 <= stop then begin
      a := mix !a (String.get_int64_le s !i);
      i := !i + 8
    end;
    while !i < stop do
      a := mix !a (Int64.of_int (Char.code s.[!i]));
      incr i
    done;
    mix !a !b

  let create dir =
    mkdir_p dir;
    {
      lock = Mutex.create ();
      records =
        Packs { dir; index = Hashtbl.create 64; indexed = false; own = None };
    }

  let in_memory () =
    { lock = Mutex.create (); records = Memory (Hashtbl.create 64) }

  let record ~key payload =
    let b = Bytes.create header_len in
    Bytes.blit_string magic 0 b 0 8;
    Bytes.set_int64_le b 8 (Int64.of_int (String.length key));
    Bytes.set_int64_le b 16 (Int64.of_int (String.length payload));
    Bytes.set_int64_le b checksum_at
      (checksum payload 0 (String.length payload));
    String.concat "" [ Bytes.unsafe_to_string b; key; payload ]

  let rec same_from s pos sub i =
    i = String.length sub
    || (s.[pos + i] = sub.[i] && same_from s pos sub (i + 1))

  (* Does [sub] occur in [s] at [pos]? *)
  let occurs_at s pos sub =
    pos + String.length sub <= String.length s && same_from s pos sub 0

  (* Key and payload lengths, if a record header starts at [pos] in
     [s]. *)
  let parse_header s pos =
    if pos + header_len > String.length s || not (occurs_at s pos magic)
    then None
    else
      let klen = Int64.to_int (String.get_int64_le s (pos + 8)) in
      let plen = Int64.to_int (String.get_int64_le s (pos + 16)) in
      if klen < 0 || plen < 0 then None else Some (klen, plen)

  (* The value of the [len]-byte record at [pos] in [b], if it holds [key],
     its payload matches its checksum and unmarshals to exactly its
     length. *)
  let decode (type a) ~key b pos len : a option =
    let s = Bytes.unsafe_to_string b in
    match parse_header s pos with
    | Some (klen, plen)
      when header_len + klen + plen = len
           && klen = String.length key
           && occurs_at s (pos + header_len) key
           && Int64.equal
                (String.get_int64_le s (pos + checksum_at))
                (checksum s (pos + header_len + klen) plen) -> (
      let at = pos + header_len + klen in
      try
        if Marshal.total_size b at = plen then
          Some (Marshal.from_bytes b at : a)
        else None
      with Failure _ | Invalid_argument _ -> None)
    | _ -> None

  (* Index the complete records of one pack, in file order, up to the first
     torn or unreadable header. A record replaces an earlier record of its
     key in the same pack (the writer's last store wins), never one from
     another pack or from this handle's own stores. *)
  let index_pack index pack =
    let add key loc =
      match Hashtbl.find_opt index key with
      | Some prev when not (String.equal prev.pack pack && prev.off < loc.off)
        ->
        ()
      | _ -> Hashtbl.replace index key loc
    in
    try
      In_channel.with_open_bin pack (fun ic ->
          let size = in_channel_length ic in
          let rec scan off =
            if off + header_len <= size then begin
              seek_in ic off;
              match parse_header (really_input_string ic header_len) 0 with
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

  (* Read up to [len] bytes at [off] of [fd] into [b]; the count read,
     short at the end of the file or on an error. *)
  let read_into fd b ~off ~len =
    let rec fill got =
      if got = len then got
      else
        match Unix.read fd b got (len - got) with
        | 0 -> got
        | n -> fill (got + n)
        | exception Unix.Unix_error _ -> got
    in
    match Unix.lseek fd off SEEK_SET with
    | _ -> fill 0
    | exception Unix.Unix_error _ -> 0

  let same_pack a b = a.pack == b.pack || String.equal a.pack b.pack
  let adjacent a b = same_pack a b && b.off = a.off + a.len

  let by_place ((a : loc), i) ((b : loc), j) =
    let c = if same_pack a b then 0 else String.compare a.pack b.pack in
    if c <> 0 then c
    else if a.off <> b.off then Int.compare a.off b.off
    else Int.compare i j

  (* The last index of the stretch of [located] from [r] on whose
     neighbours are all [joined]. *)
  let rec stretch joined located r =
    if
      r + 1 < Array.length located
      && joined (fst located.(r)) (fst located.(r + 1))
    then stretch joined located (r + 1)
    else r

  (* Decode [located.(first .. last)], records that sit back to back in
     the pack [fd] reads, from one read. *)
  let read_run fd located ~first ~last ~keys values =
    let start = (fst located.(first)).off in
    let stop = (fst located.(last)).off + (fst located.(last)).len in
    let b = Bytes.create (stop - start) in
    let got = read_into fd b ~off:start ~len:(stop - start) in
    for r = first to last do
      let loc, i = located.(r) in
      let pos = loc.off - start in
      if pos + loc.len <= got then
        values.(i) <- decode ~key:keys.(i) b pos loc.len
    done

  (* Decode [located.(first .. last)], records of one pack: one open, then
     one read per run of exactly adjacent records. *)
  let read_pack located ~first ~last ~keys values =
    match
      Unix.openfile (fst located.(first)).pack [ O_RDONLY; O_CLOEXEC ] 0
    with
    | exception Unix.Unix_error _ -> ()
    | fd ->
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () ->
          let rec runs first =
            if first <= last then begin
              let stop = stretch adjacent located first in
              read_run fd located ~first ~last:stop ~keys values;
              runs (stop + 1)
            end
          in
          runs first)

  (* The index is built on the first find, from every pack in the
     directory at that moment; records appended later by other handles
     stay invisible to this one. Every location is resolved under the
     lock; the reads happen outside it, by pack and in offset order, so
     a batch stored in request order reads back in one [read]. *)
  let find_packs (type a) lock p ~keys : a option array =
    let located =
      Mutex.protect lock (fun () ->
          if not p.indexed then begin
            p.indexed <- true;
            List.iter (index_pack p.index) (packs p.dir)
          end;
          let acc = ref [] in
          for i = Array.length keys - 1 downto 0 do
            match Hashtbl.find_opt p.index keys.(i) with
            | Some loc -> acc := (loc, i) :: !acc
            | None -> ()
          done;
          Array.of_list !acc)
    in
    let m = Array.length located in
    if m > 1 then Array.sort by_place located;
    let values : a option array = Array.make (Array.length keys) None in
    let rec packs first =
      if first < m then begin
        let last = stretch same_pack located first in
        read_pack located ~first ~last ~keys values;
        packs (last + 1)
      end
    in
    packs 0;
    values

  (* Payloads are unmarshalled outside the lock, each into a fresh value
     as a read from a pack is, so a caller that mutates what it found
     cannot change what the next find returns. *)
  let find_memory (type a) lock table ~keys : a option array =
    let payloads =
      Mutex.protect lock (fun () -> Array.map (Hashtbl.find_opt table) keys)
    in
    Array.map
      (Option.map (fun payload -> (Marshal.from_string payload 0 : a)))
      payloads

  let find_many (type a) t ~keys : a option array =
    let values : a option array =
      match t.records with
      | Packs p -> find_packs t.lock p ~keys
      | Memory table -> find_memory t.lock table ~keys
    in
    let found =
      Array.fold_left
        (fun c v -> if Option.is_some v then c + 1 else c)
        0 values
    in
    ignore (Atomic.fetch_and_add hits found);
    ignore (Atomic.fetch_and_add misses (Array.length keys - found));
    values

  let find t ~key = (find_many t ~keys:[| key |]).(0)

  (* Each append opens the pack, writes one record and closes it, so no
     descriptor outlives a call. A failed write may leave a torn record,
     past which a scan reads nothing: the next append starts a new pack. *)
  let append lock p ~key payload =
    let record = record ~key payload in
    let len = String.length record in
    Mutex.protect lock (fun () ->
        match
          let pack =
            match p.own with
            | Some pack -> pack
            | None ->
              (* An exclusive create under a fresh name. *)
              let pack =
                Filename.temp_file ~temp_dir:p.dir "writer-" ".pack"
              in
              p.own <- Some pack;
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
        | loc -> Hashtbl.replace p.index key loc
        | exception e ->
          p.own <- None;
          raise e)

  let store t ~key value =
    let payload = Marshal.to_string value [] in
    match t.records with
    | Packs p -> append t.lock p ~key payload
    | Memory table ->
      Mutex.protect t.lock (fun () -> Hashtbl.replace table key payload)
end
