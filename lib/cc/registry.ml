type constructor = mss:int -> rng:Sim_engine.Rng.t -> Cc_types.t

let table : (string, constructor) Hashtbl.t = Hashtbl.create 16

let register name ctor = Hashtbl.replace table name ctor
let find name = Hashtbl.find_opt table name

let[@simlint.taint_ok "fold output is sorted before use: order-free"] names ()
    =
  (* Hash order is harmless: the accumulated names are sorted before use. *)
  Hashtbl.fold (fun name _ acc -> name :: acc) table [] (* simlint: allow R1 *)
  |> List.sort compare

let create name ~mss ~rng =
  match find name with
  | Some ctor -> ctor ~mss ~rng
  | None ->
    invalid_arg
      (Printf.sprintf "Registry.create: unknown CCA %S (known: %s)" name
         (String.concat ", " (names ())))

let () =
  register "reno" (fun ~mss ~rng:_ -> Reno.make ~mss ());
  register "cubic" (fun ~mss ~rng:_ -> Cubic.make ~mss ());
  register "bbr" (fun ~mss ~rng -> Bbr.make ~variant:Bbr.V1 ~mss ~rng ());
  register "bbr2" (fun ~mss ~rng -> Bbr.make ~variant:Bbr.V2 ~mss ~rng ());
  register "copa" (fun ~mss ~rng:_ -> Copa.make ~mss ());
  register "vegas" (fun ~mss ~rng:_ -> Vegas.make ~mss ());
  register "vivace" (fun ~mss ~rng -> Vivace.make ~mss ~rng ())
