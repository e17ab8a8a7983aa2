type flow = { cca : string; rtt : Sim_engine.Units.seconds }

type spec = {
  rate_bps : Sim_engine.Units.rate_bps;
  buffer_bytes : Sim_engine.Units.byte_count;
  flows : flow list;
  duration : Sim_engine.Units.seconds;
  warmup : Sim_engine.Units.seconds;
  seed : int;
}

let spec ?(warmup = Sim_engine.Units.seconds 0.0) ?(seed = 1) ~rate_bps
    ~buffer_bytes ~duration flows =
  (* simlint: allow R5 — this IS the labelled builder for [spec]. *)
  { rate_bps; buffer_bytes; flows; duration; warmup; seed }

type outcome = {
  per_flow_bps : float array;
  per_flow_cca : string array;
  mean_queue_bytes : float;
  mean_queuing_delay : float;
  loss_events : int;
  utilization : float;
}

type error =
  | Unknown_backend of { name : string; known : string list }
  | Unsupported_cca of {
      backend : string;
      cca : string;
      supported : string list;
    }
  | Invalid_spec of string

let pp_error ppf = function
  | Unknown_backend { name; known } ->
    Format.fprintf ppf "unknown backend %S (known: %s)" name
      (String.concat ", " known)
  | Unsupported_cca { backend; cca; supported } ->
    Format.fprintf ppf "backend %s does not model CCA %S (supported: %s)"
      backend cca
      (String.concat ", " supported)
  | Invalid_spec msg -> Format.fprintf ppf "invalid spec: %s" msg

module type S = sig
  val name : string
  val supports : string -> bool
  val validate : spec -> (unit, error) result
  val digest : spec -> string
  val run : spec -> (outcome, error) result
  val run_batch : spec array -> (outcome, error) result array
end

type t = (module S)

let ( let* ) = Result.bind

(* Backend-independent sanity of a spec. Each test is written so that NaN
   fails it: [nan <= 0.0] is false, so a bare [x <= 0.0] would let NaN
   through. *)
let validate_shape s =
  let module Raw = Sim_engine.Units.Raw in
  let positive x = Float.is_finite x && x > 0.0 in
  let duration = Raw.to_float s.duration and warmup = Raw.to_float s.warmup in
  if s.flows = [] then Error (Invalid_spec "no flows")
  else if not (positive duration) then
    Error (Invalid_spec "duration must be finite and > 0")
  else if not (warmup >= 0.0 && warmup < duration) then
    Error (Invalid_spec "need 0 <= warmup < duration")
  else if not (positive (Raw.to_float s.rate_bps)) then
    Error (Invalid_spec "rate must be finite and > 0")
  else if not (positive (Raw.to_float s.buffer_bytes)) then
    Error (Invalid_spec "buffer must be finite and > 0")
  else if not (List.for_all (fun f -> positive (Raw.to_float f.rtt)) s.flows)
  then Error (Invalid_spec "flow rtt must be finite and > 0")
  else Ok ()

let validate_ccas ~backend ~supports ~supported s =
  List.fold_left
    (fun acc f ->
      let* () = acc in
      if supports f.cca then Ok ()
      else Error (Unsupported_cca { backend; cca = f.cca; supported }))
    (Ok ()) s.flows

let[@inline] put_float b pos x =
  Bytes.set_int64_le b pos (Int64.bits_of_float x)

let rec put_flows b pos = function
  | [] -> ()
  | f :: rest ->
    let n = String.length f.cca in
    Bytes.set_int64_le b pos (Int64.of_int n);
    Bytes.blit_string f.cca 0 b (pos + 8) n;
    put_float b (pos + 8 + n) (Sim_engine.Units.Raw.to_float f.rtt);
    put_flows b (pos + 16 + n) rest

(* The analytic backends' digest: MD5 over a binary encoding of the spec.
   The version token goes first so bumping a backend's internals
   invalidates every cached outcome of that backend and nothing else.
   Then rate, buffer, duration and warm-up as their IEEE-754 bits, the
   seed, and per flow its CCA name behind an 8-byte length and its RTT's
   bits, all little-endian. The length prefixes make the encoding
   injective. Bytes, not text: formatting the floats with [Printf
   "%.17g"] cost 6-24 us and up to 1,611 words per key, most of a warm
   analytic pass. *)
let canonical ~version s =
  let module Raw = Sim_engine.Units.Raw in
  let v = String.length version in
  let len =
    List.fold_left (fun n f -> n + 16 + String.length f.cca) (v + 40) s.flows
  in
  let b = Bytes.create len in
  Bytes.blit_string version 0 b 0 v;
  put_float b v (Raw.to_float s.rate_bps);
  put_float b (v + 8) (Raw.to_float s.buffer_bytes);
  put_float b (v + 16) (Raw.to_float s.duration);
  put_float b (v + 24) (Raw.to_float s.warmup);
  Bytes.set_int64_le b (v + 32) (Int64.of_int s.seed);
  put_flows b (v + 40) s.flows;
  Digest.to_hex (Digest.bytes b)

(* --- Packet backend ------------------------------------------------- *)

module Packet = struct
  module E = Tcpflow.Experiment

  let name = "packet"
  let supports cca = Option.is_some (Cca.Registry.find cca)

  let to_config s =
    E.config ~warmup:s.warmup ~seed:s.seed ~rate_bps:s.rate_bps
      ~buffer_bytes:(Sim_engine.Units.bytes_to_int s.buffer_bytes)
      ~duration:s.duration
      (List.map (fun f -> E.flow_config ~base_rtt:f.rtt f.cca) s.flows)

  let validate s =
    let* () = validate_shape s in
    validate_ccas ~backend:name ~supports
      ~supported:(Cca.Registry.names ()) s

  let digest s = "packet-1:" ^ E.digest (to_config s)

  let run s =
    let* () = validate s in
    let r = E.run (to_config s) in
    let per_flow =
      List.sort
        (fun (a : E.flow_result) b -> compare a.flow_id b.flow_id)
        r.E.per_flow
    in
    Ok
      {
        per_flow_bps =
          Array.of_list
            (List.map (fun (fr : E.flow_result) -> fr.throughput_bps) per_flow);
        per_flow_cca =
          Array.of_list
            (List.map (fun (fr : E.flow_result) -> fr.flow_cca) per_flow);
        mean_queue_bytes = r.E.queue_mean_bytes;
        mean_queuing_delay = r.E.queuing_delay;
        loss_events = r.E.drops;
        utilization = r.E.utilization;
      }

  let run_batch specs = Array.map run specs
end

(* --- Fluid backend -------------------------------------------------- *)

module Fluid = struct
  module F = Fluidsim.Fluid_sim

  let name = "fluid"
  let supports cca = Result.is_ok (F.kind_of_cca cca)

  let to_config s =
    {
      F.default_config with
      F.capacity_bps = s.rate_bps;
      buffer_bytes = s.buffer_bytes;
      flows =
        List.map
          (fun f -> { F.kind = F.kind_of_cca_exn f.cca; rtt = f.rtt })
          s.flows;
      duration = s.duration;
      warmup = s.warmup;
      seed = s.seed;
    }

  let validate s =
    let* () = validate_shape s in
    validate_ccas ~backend:name ~supports ~supported:F.supported_ccas s

  (* "-soa-2": the fused SoA step loop (DESIGN.md §15) moved queue-time
     and estimator sampling by at most one step, shifting outcomes in the
     last ulp. *)
  let digest s = canonical ~version:"fluid-soa-2" s

  let outcome_of s (r : F.result) =
    let total = Array.fold_left ( +. ) 0.0 r.F.per_flow_bps in
    {
      per_flow_bps = r.F.per_flow_bps;
      per_flow_cca = Array.map F.cca_of_kind r.F.flow_kinds;
      mean_queue_bytes = r.F.mean_queue_bytes;
      mean_queuing_delay = r.F.mean_queuing_delay;
      loss_events = r.F.loss_events;
      utilization = total /. Sim_engine.Units.Raw.to_float s.rate_bps;
    }

  let run s =
    let* () = validate s in
    Ok (outcome_of s (F.run (to_config s)))

  let run_batch specs = Array.map run specs
end

(* --- ODE backend ---------------------------------------------------- *)

module Ode = struct
  module F = Fluidsim.Fluid_sim
  module O = Fluidsim.Ode_model

  let name = "ode"
  let supports cca = Result.is_ok (F.kind_of_cca cca)

  let to_config s =
    {
      O.default_config with
      O.capacity_bps = s.rate_bps;
      buffer_bytes = s.buffer_bytes;
      flows =
        List.map
          (fun f -> { F.kind = F.kind_of_cca_exn f.cca; rtt = f.rtt })
          s.flows;
      duration = s.duration;
      warmup = s.warmup;
    }

  let validate s =
    let* () = validate_shape s in
    validate_ccas ~backend:name ~supports ~supported:F.supported_ccas s

  (* The ODE model is deterministic: the seed deliberately does not
     participate, so runs differing only by seed share a cache entry.
     "-rk4-2": the stepper caches the shared stage-1 derivative and
     evaluates CUBIC's x^(2/3) as a squared cube root (DESIGN.md §15),
     shifting trajectories in the last ulp. *)
  let digest s = canonical ~version:"ode-rk4-2" { s with seed = 0 }

  let outcome_of s (r : O.result) =
    let total = Array.fold_left ( +. ) 0.0 r.O.per_flow_bps in
    {
      per_flow_bps = r.O.per_flow_bps;
      per_flow_cca = Array.map F.cca_of_kind r.O.flow_kinds;
      mean_queue_bytes = r.O.mean_queue_bytes;
      mean_queuing_delay = r.O.mean_queuing_delay;
      loss_events = int_of_float (Float.round r.O.expected_backoffs);
      utilization = total /. Sim_engine.Units.Raw.to_float s.rate_bps;
    }

  let run s =
    let* () = validate s in
    Ok (outcome_of s (O.run (to_config s)))

  let run_batch specs = Array.map run specs
end

let packet : t = (module Packet)
let fluid : t = (module Fluid)
let ode : t = (module Ode)
let all = [ packet; fluid; ode ]

let name (b : t) =
  let module B = (val b) in
  B.name

let supports (b : t) cca =
  let module B = (val b) in
  B.supports cca

let names () = List.map name all

let find n =
  match List.find_opt (fun b -> name b = n) all with
  | Some b -> Ok b
  | None -> Error (Unknown_backend { name = n; known = names () })

let find_exn n =
  match find n with
  | Ok b -> b
  | Error e -> invalid_arg (Format.asprintf "Sim_backend: %a" pp_error e)

let run (b : t) s =
  let module B = (val b) in
  B.run s

let digest (b : t) s =
  let module B = (val b) in
  B.digest s

let validate (b : t) s =
  let module B = (val b) in
  B.validate s

let run_exn b s =
  match run b s with
  | Ok o -> o
  | Error e ->
    invalid_arg (Format.asprintf "Sim_backend %s: %a" (name b) pp_error e)

let mean_bps_of_cca o cca =
  let sum = ref 0.0 and count = ref 0 in
  Array.iteri
    (fun i c ->
      if String.equal c cca then begin
        sum := !sum +. o.per_flow_bps.(i);
        incr count
      end)
    o.per_flow_cca;
  if !count = 0 then nan else !sum /. float_of_int !count

let aggregate_bps_of_cca o cca =
  let sum = ref 0.0 in
  Array.iteri
    (fun i c -> if String.equal c cca then sum := !sum +. o.per_flow_bps.(i))
    o.per_flow_cca;
  !sum
