module Rng = Sim_engine.Rng

type item = { arrival_s : float; size_bytes : int }
type t = item array

type pattern =
  | Single
  | Request_response of { request_bytes : int; think_s : float }
  | Dash of { segments : int; gap_s : float }

let validate_pattern = function
  | Single -> ()
  | Request_response { request_bytes; think_s } ->
    if request_bytes <= 0 || think_s < 0.0 then
      invalid_arg "Schedule.Request_response: need request > 0 and think >= 0"
  | Dash { segments; gap_s } ->
    if segments <= 0 || gap_s < 0.0 then
      invalid_arg "Schedule.Dash: need segments > 0 and gap >= 0"

(* One arrival-process event expands into the transfers of a session. Sizes
   are drawn in session order, and only for transfers that start inside the
   horizon, so the size-stream position never depends on anything but the
   kept transfers. *)
let expand_session ~pattern ~sizes ~horizon_s ~size_rng ~at acc =
  match pattern with
  | Single ->
    if at < horizon_s then
      { arrival_s = at; size_bytes = Dist.sample sizes size_rng } :: acc
    else acc
  | Request_response { request_bytes; think_s } ->
    let acc =
      if at < horizon_s then { arrival_s = at; size_bytes = request_bytes } :: acc
      else acc
    in
    let rt = at +. think_s in
    if rt < horizon_s then
      { arrival_s = rt; size_bytes = Dist.sample sizes size_rng } :: acc
    else acc
  | Dash { segments; gap_s } ->
    let acc = ref acc in
    for i = 0 to segments - 1 do
      let st = at +. (float_of_int i *. gap_s) in
      if st < horizon_s then
        acc :=
          { arrival_s = st; size_bytes = Dist.sample sizes size_rng } :: !acc
    done;
    !acc

let finalize items =
  let a = Array.of_list (List.rev items) in
  (* Sessions can overlap (a DASH session outlives the next arrival), so
     impose global arrival order. The sort is stable: simultaneous transfers
     keep their generation order, which keeps schedules byte-identical for a
     fixed seed. *)
  let idx = Array.mapi (fun i it -> (i, it)) a in
  Array.sort
    (fun (i, x) (j, y) ->
      let c = compare x.arrival_s y.arrival_s in
      if c <> 0 then c else compare i j)
    idx;
  Array.map snd idx

let generate ?(pattern = Single) ~arrival ~sizes ~horizon_s ~rng () =
  (* Two independent sub-streams: changing the size distribution must not
     move a single arrival instant, and vice versa. *)
  let arrival_rng = Rng.split rng in
  let size_rng = Rng.split rng in
  Arrival.validate arrival;
  Dist.validate sizes;
  validate_pattern pattern;
  if horizon_s <= 0.0 then invalid_arg "Schedule.generate: horizon must be > 0";
  let acc = ref [] in
  let t = ref 0.0 in
  let continue = ref true in
  while !continue do
    t := !t +. Arrival.next_gap arrival arrival_rng;
    if !t >= horizon_s then continue := false
    else
      acc := expand_session ~pattern ~sizes ~horizon_s ~size_rng ~at:!t !acc
  done;
  finalize !acc

let generate_seeded ?pattern ~arrival ~sizes ~horizon_s ~seed () =
  generate ?pattern ~arrival ~sizes ~horizon_s ~rng:(Rng.create seed) ()

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
