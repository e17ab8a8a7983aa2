module Rng = Sim_engine.Rng

type item = { arrival_s : float; size_bytes : int }
type t = item array

let generate ~arrival ~sizes ~horizon_s ~rng () =
  (* Two independent sub-streams: changing the size distribution must not
     move a single arrival instant, and vice versa. *)
  let arrival_rng = Rng.split rng in
  let size_rng = Rng.split rng in
  Arrival.validate arrival;
  Dist.validate sizes;
  if horizon_s <= 0.0 then invalid_arg "Schedule.generate: horizon must be > 0";
  (* Gaps are non-negative, so transfers are generated in arrival order. *)
  let acc = ref [] in
  let t = ref 0.0 in
  let continue = ref true in
  while !continue do
    t := !t +. Arrival.next_gap arrival arrival_rng;
    if !t >= horizon_s then continue := false
    else
      acc := { arrival_s = !t; size_bytes = Dist.sample sizes size_rng } :: !acc
  done;
  Array.of_list (List.rev !acc)

let generate_seeded ~arrival ~sizes ~horizon_s ~seed () =
  generate ~arrival ~sizes ~horizon_s ~rng:(Rng.create seed) ()

let count = Array.length
let total_bytes t = Array.fold_left (fun s it -> s + it.size_bytes) 0 t

let offered_load t ~rate_bps ~horizon_s =
  if rate_bps <= 0.0 || horizon_s <= 0.0 then 0.0
  else 8.0 *. float_of_int (total_bytes t) /. horizon_s /. rate_bps

let to_string t =
  let buf = Buffer.create (64 + (32 * Array.length t)) in
  Buffer.add_string buf "workload schedule v1\n";
  Array.iter
    (fun it ->
      Buffer.add_string buf (Printf.sprintf "%.9f %d\n" it.arrival_s it.size_bytes))
    t;
  Buffer.contents buf
