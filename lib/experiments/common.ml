type mode = Quick | Full

type ctx = {
  mode : mode;
  jobs : int;
  cache : Sim_engine.Exec.Cache.t option;
  trace_dir : string option;
}

let ctx ?(jobs = 1) ?cache_dir ?trace_dir mode =
  if jobs < 1 then invalid_arg "Common.ctx: jobs must be >= 1";
  {
    mode;
    jobs;
    cache = Option.map Sim_engine.Exec.Cache.create cache_dir;
    trace_dir;
  }

let quick = ctx Quick

let sequential ctx = { ctx with jobs = 1 }

type table = {
  id : string;
  title : string;
  header : string list;
  rows : string list list;
  notes : string list;
}

let print_table ppf table =
  let widths =
    List.fold_left
      (fun acc row ->
        List.mapi
          (fun i cell ->
            let current = try List.nth acc i with _ -> 0 in
            max current (String.length cell))
          row)
      (List.map String.length table.header)
      table.rows
  in
  let print_row row =
    List.iteri
      (fun i cell ->
        let width = try List.nth widths i with _ -> String.length cell in
        Format.fprintf ppf "%*s  " width cell)
      row;
    Format.fprintf ppf "@."
  in
  Format.fprintf ppf "== %s: %s ==@." table.id table.title;
  print_row table.header;
  print_row (List.map (fun w -> String.make w '-') widths);
  List.iter print_row table.rows;
  List.iter (fun note -> Format.fprintf ppf "note: %s@." note) table.notes;
  Format.fprintf ppf "@."

let csv_escape s =
  if String.exists (fun c -> c = ',' || c = '"' || c = '\n') s then
    "\"" ^ String.concat "\"\"" (String.split_on_char '"' s) ^ "\""
  else s

let csv_of_table table =
  let line cells = String.concat "," (List.map csv_escape cells) in
  String.concat "\n" (line table.header :: List.map line table.rows) ^ "\n"

let write_csv ~dir table =
  Sim_engine.Exec.mkdir_p dir;
  let path = Filename.concat dir (table.id ^ ".csv") in
  let oc = open_out path in
  output_string oc (csv_of_table table);
  close_out oc;
  path

let cell v = if Float.is_nan v then "-" else Printf.sprintf "%.2f" v
let cell_int = string_of_int
let mbps bits_per_sec =
  Sim_engine.Units.bps_to_mbps (Sim_engine.Units.bps bits_per_sec)

let mean = function
  | [] -> nan
  | xs -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

let duration = function
  | Quick -> Sim_engine.Units.seconds 90.0
  | Full -> Sim_engine.Units.seconds 120.0

let warmup = function
  | Quick -> Sim_engine.Units.seconds 30.0
  | Full -> Sim_engine.Units.seconds 40.0
let trials = function Quick -> 1 | Full -> 3

let buffer_grid mode ~max:max_bdp =
  let grid =
    match mode with
    | Quick -> [ 1.0; 2.0; 3.0; 5.0; 10.0; 20.0; 30.0; 50.0 ]
    | Full ->
      [ 1.0; 1.5; 2.0; 2.5; 3.0; 4.0; 5.0; 6.0; 8.0; 10.0; 12.0; 15.0; 18.0;
        21.0; 24.0; 27.0; 30.0; 35.0; 40.0; 45.0; 50.0 ]
  in
  List.filter (fun b -> b <= max_bdp) grid

let count_grid mode ~n =
  match mode with
  | Full -> List.init (n + 1) Fun.id
  | Quick ->
    let step = max 1 (n / 5) in
    let rec build k acc = if k > n then acc else build (k + step) (k :: acc) in
    let ks = build 0 [] in
    let ks = if List.mem n ks then ks else n :: ks in
    List.sort compare ks
