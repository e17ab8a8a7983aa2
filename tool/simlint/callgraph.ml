(* Cross-module call graph over the typedtrees loaded by {!Cmt_load}.

   The graph's nodes are *named code regions*, not modules: every toplevel
   value binding (at any submodule depth), every local [let]-bound
   function, every function literal bound to a record field (the CCA
   closure-record idiom: [on_ack = ...]), and every function literal
   passed to a spawn API. A node's id is canonical —
   [Unit.Submodule.name] with [Unit] the defining compilation unit's short
   name — which is also the naming scheme of the manifest
   ([tool/simlint/hotpaths.sexp]).

   One walk per unit collects everything the three analysis passes
   consume:

   - [callees]: ids of repo values the node's body references. References,
     not just calls — a function stored in a record or passed as a
     callback can run wherever the record goes, so reachability must
     follow it.
   - [ext_refs]: canonical names of external (non-repo) values referenced,
     with one witness location each — the taint pass matches its
     nondeterminism sources against these.
   - [allocs]: every potentially-allocating construct with a location and
     a description. Collected unconditionally; the A1 pass filters by
     reachability from the manifest's hot entry points.
   - spawn roots: functions handed to [Domain.spawn] (or the [Exec] APIs
     that wrap it), the A2 pass's starting set.
   - suppression attributes: [@simlint.alloc_ok "reason"] spans an
     expression subtree or a whole binding; [@simlint.taint_ok] /
     [@simlint.domain_ok] apply to bindings. A suppression without a
     reason is itself a finding.

   Path canonicalization: typedtree paths arrive as
   [Sim_engine.Event_queue.pop], [Sim_engine__Event_queue.pop] or — via a
   local [module E = Tcpflow.Experiment] alias — [E.run]. All collapse to
   [Event_queue.pop]/[Experiment.run] by (1) resolving local module
   aliases recorded during the walk and (2) anchoring on the right-most
   path segment whose dune-unwrapped name ([Lib__Mod] -> [Mod]) is a known
   compilation unit. Heads that are persistent idents but match no repo
   unit are externals ([Stdlib.ref] -> [ref], [Stdlib__Hashtbl.fold] ->
   [Hashtbl.fold]). *)

module SS = Set.Make (String)

type alloc = { aloc : Location.t; what : string }

type node = {
  id : string;
  unit_short : string;
  file : string;
  line : int;
  is_fun : bool;  (* body runs per call (vs once at module init) *)
  toplevel : bool;  (* a module-level binding (A2 mutable-root candidate) *)
  def_loc : Location.t;
  binding_type : Types.type_expr option;
  mutable callees : SS.t;
  mutable ext_refs : SS.t;
  mutable ext_locs : (string * Location.t) list;
  mutable allocs : alloc list;
  mutable bad_suppressions : Location.t list;
  mutable alloc_ok : string option;
  mutable taint_ok : string option;
  mutable domain_ok : string option;
  mutable spawn_root : bool;
}

type t = {
  nodes : (string, node) Hashtbl.t;
  units : SS.t;  (* short names of loaded compilation units *)
  arities : (string, int) Hashtbl.t;  (* canonical id -> syntactic arity *)
  mutable mutable_types : SS.t;  (* canonical names of records w/ mutable fields *)
  mutable spawn_roots : SS.t;  (* ids of functions handed to spawn APIs *)
}

let find_node t id = Hashtbl.find_opt t.nodes id

let node_ids t =
  Hashtbl.fold (fun id _ acc -> id :: acc) t.nodes [] (* simlint: allow R1 *)
  |> List.sort compare

(* ---------- small location helpers ---------- *)

let loc_file (loc : Location.t) = loc.loc_start.pos_fname
let loc_line (loc : Location.t) = loc.loc_start.pos_lnum

(* ---------- attributes ---------- *)

let attr_reason (attr : Parsetree.attribute) =
  match attr.attr_payload with
  | Parsetree.PStr
      [
        {
          pstr_desc =
            Pstr_eval
              ( { pexp_desc = Pexp_constant (Pconst_string (reason, _, _)); _ },
                _ );
          _;
        };
      ]
    when String.length reason > 0 ->
    Some reason
  | _ -> None

(* [Some (Some reason)] when present with a reason, [Some None] when
   present but reasonless (a finding), [None] when absent. *)
let find_simlint_attr name (attrs : Parsetree.attributes) =
  List.fold_left
    (fun acc (attr : Parsetree.attribute) ->
      if String.equal attr.attr_name.txt ("simlint." ^ name) then
        Some (attr_reason attr)
      else acc)
    None attrs

(* ---------- path canonicalization ---------- *)

let rec path_parts = function
  | Path.Pident id -> Some ([ Ident.name id ], id)
  | Path.Pdot (p, s) -> (
    match path_parts p with
    | Some (parts, head) -> Some (parts @ [ s ], head)
    | None -> None)
  | Path.Papply _ | Path.Pextra_ty _ -> None

let short_seg = Cmt_load.short_of_modname

let normalize_external parts =
  let parts = List.map short_seg parts in
  match parts with
  | "Stdlib" :: (_ :: _ as rest) -> rest
  | parts -> parts

type resolved =
  | Internal of string list  (* canonical id parts, unit first *)
  | External of string list
  | LocalValue of Ident.t  (* an unqualified local/toplevel value *)
  | LocalModulePath of string list  (* submodule path within this unit *)

let drop_to parts anchor =
  let arr = Array.of_list parts in
  let n = Array.length arr in
  short_seg arr.(anchor)
  :: Array.to_list (Array.sub arr (anchor + 1) (n - anchor - 1))

(* Classifies a value path whose head is a global (cross-unit) ident: the
   right-most non-final segment naming a repo unit anchors the canonical
   id (the final segment is the value name, never the anchor). *)
let classify_global units parts =
  let arr = Array.of_list parts in
  let n = Array.length arr in
  let anchor = ref (-1) in
  for i = 0 to n - 2 do
    if SS.mem (short_seg arr.(i)) units then anchor := i
  done;
  if !anchor >= 0 then Internal (drop_to parts !anchor)
  else External (normalize_external parts)

(* Module paths differ: the final segment may itself be the unit
   ([Sim_engine.Event_queue] canonicalizes to [Event_queue]). *)
let classify_global_module units parts =
  let arr = Array.of_list parts in
  let n = Array.length arr in
  let anchor = ref (-1) in
  for i = 0 to n - 1 do
    if SS.mem (short_seg arr.(i)) units then anchor := i
  done;
  if !anchor >= 0 then Internal (drop_to parts !anchor)
  else External (normalize_external parts)

type unit_ctx = {
  unit : string;
  graph : t;
  spawn_apis : string list;
  (* Ident.unique_name -> canonical id, for every named binding seen. *)
  ident_nodes : (string, string) Hashtbl.t;
  (* Ident.unique_name of a local module alias -> its resolution. *)
  aliases : (string, resolved) Hashtbl.t;
}

let resolve_with ctx classify local path =
  match path_parts path with
  | None -> None
  | Some (parts, head) ->
    if Ident.global head then Some (classify ctx.graph.units parts)
    else begin
      match (Hashtbl.find_opt ctx.aliases (Ident.unique_name head), parts) with
      | Some (Internal base), _ :: rest -> Some (Internal (base @ rest))
      | Some (External base), _ :: rest -> Some (External (base @ rest))
      | Some (LocalModulePath base), _ :: rest ->
        Some (Internal ((ctx.unit :: base) @ rest))
      | Some (LocalValue _), _ | Some _, [] | None, [] -> None
      | None, parts -> local parts head
    end

(* Value paths: an unqualified local head is a value ident; a qualified
   one goes through an unaliased local submodule, anchored on this unit. *)
let resolve_path ctx path =
  resolve_with ctx classify_global
    (fun parts head ->
      match parts with
      | [ _ ] -> Some (LocalValue head)
      | _ :: rest -> Some (Internal (ctx.unit :: Ident.name head :: rest))
      | [] -> None)
    path

(* Module paths: an unaliased local head names a submodule of this unit. *)
let resolve_module_path ctx path =
  resolve_with ctx classify_global_module
    (fun parts _head -> Some (LocalModulePath parts))
    path

let id_of_parts parts = String.concat "." parts

(* ---------- node management ---------- *)

let get_node graph ~id ~unit_short ~loc ~is_fun ~toplevel ~binding_type =
  match Hashtbl.find_opt graph.nodes id with
  | Some n -> n
  | None ->
    let n =
      {
        id;
        unit_short;
        file = loc_file loc;
        line = loc_line loc;
        is_fun;
        toplevel;
        def_loc = loc;
        binding_type;
        callees = SS.empty;
        ext_refs = SS.empty;
        ext_locs = [];
        allocs = [];
        bad_suppressions = [];
        alloc_ok = None;
        taint_ok = None;
        domain_ok = None;
        spawn_root = false;
      }
    in
    Hashtbl.replace graph.nodes id n;
    n

let add_edge (n : node) id = n.callees <- SS.add id n.callees

let add_ext (n : node) name loc =
  if not (SS.mem name n.ext_refs) then begin
    n.ext_refs <- SS.add name n.ext_refs;
    n.ext_locs <- (name, loc) :: n.ext_locs
  end

let ext_loc (n : node) name = List.assoc_opt name n.ext_locs

(* ---------- allocation classification ---------- *)

(* External functions that allocate on every (successful) call. Curated
   for constructs that plausibly appear on simulator hot paths; failure
   helpers ([invalid_arg], [failwith], [raise]) are deliberately absent —
   allocating on the error path is fine. *)
let allocating_modules =
  [ "Printf"; "Format"; "Scanf"; "Marshal"; "Digest"; "Seq"; "Str";
    "Filename" ]

let allocating_values =
  [
    "ref"; "^"; "@"; "string_of_int"; "string_of_float"; "float_of_string";
    "Float.to_string"; "Int.to_string";
    "List.map"; "List.mapi"; "List.init"; "List.append"; "List.rev";
    "List.rev_append"; "List.rev_map"; "List.concat"; "List.concat_map";
    "List.flatten"; "List.filter"; "List.filter_map"; "List.partition";
    "List.split"; "List.combine"; "List.sort"; "List.stable_sort";
    "List.fast_sort"; "List.sort_uniq"; "List.merge"; "List.of_seq";
    "List.to_seq"; "List.cons";
    "Array.make"; "Array.create_float"; "Array.init"; "Array.make_matrix";
    "Array.append"; "Array.concat"; "Array.sub"; "Array.copy"; "Array.map";
    "Array.mapi"; "Array.to_list"; "Array.of_list"; "Array.to_seq";
    "Array.of_seq"; "Array.split"; "Array.combine";
    "String.make"; "String.init"; "String.sub"; "String.concat";
    "String.cat"; "String.map"; "String.mapi"; "String.split_on_char";
    "String.trim"; "String.escaped"; "String.uppercase_ascii";
    "String.lowercase_ascii"; "String.capitalize_ascii";
    "String.uncapitalize_ascii";
    "Bytes.create"; "Bytes.make"; "Bytes.init"; "Bytes.sub"; "Bytes.copy";
    "Bytes.extend"; "Bytes.concat"; "Bytes.cat"; "Bytes.of_string";
    "Bytes.to_string"; "Bytes.sub_string";
    "Buffer.create"; "Buffer.contents"; "Buffer.to_bytes"; "Buffer.sub";
    "Buffer.add_string"; "Buffer.add_char";
    "Hashtbl.create"; "Hashtbl.copy"; "Hashtbl.add"; "Hashtbl.replace";
    "Hashtbl.of_seq";
    "Queue.create"; "Queue.add"; "Queue.push"; "Queue.copy";
    "Stack.create"; "Stack.push"; "Stack.copy";
    "Option.some"; "Option.map"; "Option.bind"; "Option.join";
    "Option.to_list"; "Option.to_seq";
    "Result.ok"; "Result.error"; "Result.map"; "Result.bind"; "Result.join";
  ]

let is_allocating_external name =
  List.mem name allocating_values
  ||
  match String.index_opt name '.' with
  | Some i -> List.mem (String.sub name 0 i) allocating_modules
  | None -> false

(* Statically-constant expressions are lifted to static data by the
   compiler and cost nothing at run time. *)
let rec is_static_const (e : Typedtree.expression) =
  match e.exp_desc with
  | Texp_constant _ -> true
  | Texp_construct (_, { cstr_arity = 0; _ }, []) -> true
  | Texp_construct (_, { cstr_tag = Cstr_block _; _ }, args) ->
    List.for_all is_static_const args
  | Texp_tuple es -> List.for_all is_static_const es
  | _ -> false

let rec is_arrow ty =
  match Types.get_desc ty with
  | Tarrow _ -> true
  | Tpoly (ty, _) -> is_arrow ty
  | _ -> false

(* Length of a type scheme's declared arrow spine — the best arity guess
   for values we did not see defined (externals, stored closures). *)
let rec spine_len ty =
  match Types.get_desc ty with
  | Tarrow (_, _, rest, _) -> 1 + spine_len rest
  | Tpoly (ty, _) -> spine_len ty
  | _ -> 0

(* The elaborated default of an optional parameter:
   [let eps = match *opt* with Some v -> v | None -> default]. *)
let is_optional_default (vb : Typedtree.value_binding) =
  match vb.vb_expr.exp_desc with
  | Texp_match ({ exp_desc = Texp_ident (Path.Pident i, _, _); _ }, _, _) ->
    String.equal (Ident.name i) "*opt*"
  | _ -> false

(* Number of parameters a function literal binds before its body — the
   same outer chain [walk_function_body] strips, looking through the
   [let]s that optional-argument defaults insert between parameters.
   Distinguishes [let f t () = ...] (arity 2; [f t] builds a closure)
   from [let f t = ... stored_closure] (arity 1; [f t] allocates
   nothing). *)
let rec syntactic_arity (e : Typedtree.expression) =
  match e.exp_desc with
  | Texp_function { cases = [ { c_guard = None; c_rhs; _ } ]; _ } ->
    1 + syntactic_arity c_rhs
  | Texp_function _ -> 1
  | Texp_let (Nonrecursive, [ vb ], body) when is_optional_default vb ->
    syntactic_arity body
  | _ -> 0

let is_exn_type ty =
  match Types.get_desc ty with
  | Tconstr (p, _, _) -> String.equal (Path.name p) "exn"
  | _ -> false

let is_float_type ty =
  match Types.get_desc ty with
  | Tconstr (p, [], _) -> String.equal (Path.name p) "float"
  | _ -> false

let is_bare_var ty =
  match Types.get_desc ty with Tvar _ | Tunivar _ -> true | _ -> false

let array_element ty =
  match Types.get_desc ty with
  | Tconstr (p, [ elt ], _) when String.equal (Path.name p) "array" -> Some elt
  | _ -> None

let is_var_array ty =
  Option.fold ~none:false ~some:is_bare_var (array_element ty)

let is_float_array ty =
  Option.fold ~none:false ~some:is_float_type (array_element ty)

(* Stdlib wrappers over C primitives that test the array's tag and copy a
   float array's elements flat: handing them a float array boxes nothing. *)
let float_array_aware =
  [ "Array.blit"; "Array.fill"; "Array.sub"; "Array.copy"; "Array.append" ]

(* Compiler [%]-primitives ([=], [<], [Array.get], ...) are specialized
   at a call site whose types are known — a float comparison or flat
   float-array read compiles to the unboxed instruction, so the
   polymorphic-instantiation boxing check must not fire on them. (The
   genuinely allocating primitive, [ref]/[%makemutable], is caught by the
   allocating-externals list instead.) *)
let is_compiler_primitive (vd : Types.value_description) =
  match vd.val_kind with
  | Val_prim p ->
    String.length p.Primitive.prim_name > 0 && p.Primitive.prim_name.[0] = '%'
  | _ -> false

(* Walks a polymorphic value's declared arrow spine alongside its use-site
   instantiation: an argument (or result) position that the scheme leaves
   generic but the call instantiates at [float] passes that float boxed —
   the classic way a "zero-alloc" path silently regains a box per call
   ([Stdlib.max], [compare], [Hashtbl.replace] with float data, ...). An
   ['a array] argument instantiated at [float array] is the same leak one
   level down: the callee reads the flat array generically, boxing every
   element it touches (an RTT array handed to an untyped helper). *)
let float_boxing_positions ~scheme ~concrete ~n_args =
  let scheme =
    match Types.get_desc scheme with Tpoly (ty, _) -> ty | _ -> scheme
  in
  let rec go scheme concrete i acc =
    if i >= n_args then
      if is_bare_var scheme && is_float_type concrete then `Ret :: acc else acc
    else
      match (Types.get_desc scheme, Types.get_desc concrete) with
      | Tarrow (_, s_arg, s_rest, _), Tarrow (_, c_arg, c_rest, _) ->
        let acc =
          if is_bare_var s_arg && is_float_type c_arg then `Arg i :: acc
          else if is_var_array s_arg && is_float_array c_arg then
            `Array_arg i :: acc
          else acc
        in
        go s_rest c_rest (i + 1) acc
      | _ -> acc
  in
  List.rev (go scheme concrete 0 [])

(* ---------- mutability of a binding's type (A2) ---------- *)

let mutable_builtins =
  [ "ref"; "array"; "bytes"; "Bytes.t"; "Hashtbl.t"; "Queue.t"; "Stack.t";
    "Buffer.t" ]

(* Domain-safe by construction; sharing them across Domains is the point. *)
let sanctioned_builtins =
  [ "Atomic.t"; "Mutex.t"; "Condition.t"; "Semaphore.Counting.t";
    "Semaphore.Binary.t"; "Domain.t" ]

let rec type_is_mutable graph ~unit ?(depth = 0) ty =
  if depth > 6 then false
  else
    let deeper t = type_is_mutable graph ~unit ~depth:(depth + 1) t in
    match Types.get_desc ty with
    | Tconstr (p, args, _) -> (
      match path_parts p with
      | None -> false
      | Some (parts, head) ->
        let canon =
          if Ident.global head then
            match classify_global graph.units parts with
            | Internal ps -> `In (id_of_parts ps)
            | External ps -> `Ex (id_of_parts ps)
            | LocalValue _ | LocalModulePath _ -> `Ex (id_of_parts parts)
          else `In (id_of_parts (unit :: parts))
        in
        match canon with
        | `Ex name ->
          if List.mem name mutable_builtins then true
          else if List.mem name sanctioned_builtins then false
          else List.exists deeper args
        | `In name -> SS.mem name graph.mutable_types || List.exists deeper args)
    | Ttuple ts -> List.exists deeper ts
    | Tpoly (ty, _) -> deeper ty
    | Tarrow _ -> false
    | _ -> false

(* ---------- the walk ---------- *)

(* Mutable walk state: the node owning the code being visited, and whether
   an enclosing [@simlint.alloc_ok] suppresses allocation recording. *)
type walk_state = { mutable cur : node; mutable suppress : int }

let record_alloc st loc what =
  if st.suppress = 0 then
    st.cur.allocs <- { aloc = loc; what } :: st.cur.allocs

let record_ref ctx st path loc =
  match resolve_path ctx path with
  | Some (Internal parts) -> add_edge st.cur (id_of_parts parts)
  | Some (External parts) -> add_ext st.cur (id_of_parts parts) loc
  | Some (LocalValue id) -> (
    match Hashtbl.find_opt ctx.ident_nodes (Ident.unique_name id) with
    | Some node_id -> add_edge st.cur node_id
    | None -> () (* parameter or plain local binding: intra-node data flow *))
  | Some (LocalModulePath _) | None -> ()

let canonical_of_path ctx path =
  match resolve_path ctx path with
  | Some (Internal parts) | Some (External parts) -> Some (id_of_parts parts)
  | _ -> None

(* ---------- compiler-eliminated local refs ---------- *)

let is_prim_named names (vd : Types.value_description) =
  match vd.val_kind with
  | Val_prim p -> List.mem p.Primitive.prim_name names
  | _ -> false

let is_makemutable = is_prim_named [ "%makemutable" ]
let is_ref_op = is_prim_named [ "%field0"; "%setfield0"; "%incr"; "%decr" ]

(* [let i = ref e in ...] where [i] is only ever dereferenced or assigned
   ([!], [:=], [incr], [decr]) in the same function: [Simplif.eliminate_ref]
   compiles the cell away into a mutable variable — no allocation. Any
   other use (passed along, returned, captured by a closure) keeps the
   heap cell and the finding. *)
let ref_binding (vb : Typedtree.value_binding) =
  match (vb.vb_pat.pat_desc, vb.vb_expr.exp_desc) with
  | ( Tpat_var (id, _),
      Texp_apply
        ( { exp_desc = Texp_ident (_, _, vd); _ },
          [ (_, Some payload) ] ) )
    when is_makemutable vd ->
    Some (id, payload)
  | _ -> None

exception Ref_escapes

let ref_is_eliminated id body =
  let fun_depth = ref 0 in
  let expr (self : Tast_iterator.iterator) (e : Typedtree.expression) =
    match e.exp_desc with
    | Texp_ident (Path.Pident i, _, _) when Ident.same i id -> raise Ref_escapes
    | Texp_apply
        ( { exp_desc = Texp_ident (_, _, vd); _ },
          (_, Some { exp_desc = Texp_ident (Path.Pident i, _, _); _ }) :: rest )
      when Ident.same i id ->
      if !fun_depth > 0 || not (is_ref_op vd) then raise Ref_escapes;
      List.iter (fun (_, a) -> Option.iter (self.expr self) a) rest
    | Texp_function _ ->
      incr fun_depth;
      Tast_iterator.default_iterator.expr self e;
      decr fun_depth
    | _ -> Tast_iterator.default_iterator.expr self e
  in
  let iter = { Tast_iterator.default_iterator with expr } in
  match iter.expr iter body with
  | () -> true
  | exception Ref_escapes -> false

let rec walk_expr ctx st (e : Typedtree.expression) =
  match find_simlint_attr "alloc_ok" e.exp_attributes with
  | Some None ->
    st.cur.bad_suppressions <- e.exp_loc :: st.cur.bad_suppressions;
    walk_expr_inner ctx st e
  | Some (Some _) ->
    st.suppress <- st.suppress + 1;
    walk_expr_inner ctx st e;
    st.suppress <- st.suppress - 1
  | None -> walk_expr_inner ctx st e

and walk_expr_inner ctx st (e : Typedtree.expression) =
  let loc = e.exp_loc in
  match e.exp_desc with
  | Texp_ident (path, lid, _) -> record_ref ctx st path lid.loc
  | Texp_let (_, vbs, body) ->
    let vbs =
      List.filter
        (fun vb ->
          match ref_binding vb with
          | Some (id, payload) when ref_is_eliminated id body ->
            walk_expr ctx st payload;
            false
          | _ -> true)
        vbs
    in
    walk_local_bindings ctx st vbs;
    walk_expr ctx st body
  | Texp_function _ ->
    (* One record for the whole curried chain: [fun i x -> ...] is a
       single runtime closure, not one per parameter. *)
    record_alloc st loc "closure construction";
    walk_function_body ctx st e
  | Texp_apply (f, args) ->
    walk_apply ctx st e f args;
    walk_expr ctx st f;
    (* Arguments of a raising call ([invalid_arg (sprintf ...)]) only
       evaluate on the error path; allocating there is fine. *)
    let raising =
      match f.Typedtree.exp_desc with
      | Texp_ident (path, _, _) -> (
        match canonical_of_path ctx path with
        | Some ("raise" | "raise_notrace" | "invalid_arg" | "failwith") ->
          is_external ctx path
        | _ -> false)
      | _ -> false
    in
    if raising then st.suppress <- st.suppress + 1;
    List.iter (fun (_, a) -> Option.iter (walk_expr ctx st) a) args;
    if raising then st.suppress <- st.suppress - 1
  | Texp_tuple es ->
    if not (List.for_all is_static_const es) then
      record_alloc st loc "tuple construction";
    List.iter (walk_expr ctx st) es
  | Texp_construct (_, cstr, args) ->
    (match cstr.cstr_tag with
    | Cstr_block _ when not (List.for_all is_static_const args) ->
      if not (is_exn_type e.exp_type) then
        record_alloc st loc
          (Printf.sprintf "%s constructor application" cstr.cstr_name)
    | Cstr_extension _ when not (is_exn_type e.exp_type) ->
      record_alloc st loc
        (Printf.sprintf "%s extension-constructor application" cstr.cstr_name)
    | _ -> ());
    List.iter (walk_expr ctx st) args
  | Texp_variant (_, arg) ->
    (match arg with
    | Some a when not (is_static_const a) ->
      record_alloc st loc "polymorphic-variant construction"
    | _ -> ());
    Option.iter (walk_expr ctx st) arg
  | Texp_record { fields; extended_expression; _ } ->
    record_alloc st loc "record construction";
    Option.iter (walk_expr ctx st) extended_expression;
    Array.iter
      (fun ((label : Types.label_description), def) ->
        match def with
        | Typedtree.Kept _ -> ()
        | Typedtree.Overridden (_, fe) -> (
          match fe.Typedtree.exp_desc with
          | Texp_function _ ->
            (* The CCA closure-record idiom: the field's function literal
               becomes its own node, so manifest entries like [Bbr.on_ack]
               can name it. The closure allocation itself was recorded
               above (the record build). *)
            walk_field_closure ctx st label.lbl_name fe
          | _ -> walk_expr ctx st fe))
      fields
  | Texp_array es ->
    if es <> [] then record_alloc st loc "array literal";
    List.iter (walk_expr ctx st) es
  | Texp_lazy body ->
    record_alloc st loc "lazy suspension";
    walk_expr ctx st body
  | Texp_letop { let_; ands; body; _ } ->
    record_alloc st loc "binding-operator (let*) application";
    walk_expr ctx st let_.bop_exp;
    List.iter
      (fun (a : Typedtree.binding_op) -> walk_expr ctx st a.bop_exp)
      ands;
    Option.iter (walk_expr ctx st) body.c_guard;
    walk_expr ctx st body.c_rhs
  | Texp_pack _ -> record_alloc st loc "first-class module packing"
  | Texp_object _ -> record_alloc st loc "object construction"
  | Texp_match (scrut, cases, _) ->
    (* [match (a, b) with ...] never builds the tuple: the pattern-match
       compiler reads the components directly. *)
    (match scrut.exp_desc with
    | Texp_tuple es -> List.iter (walk_expr ctx st) es
    | _ -> walk_expr ctx st scrut);
    List.iter
      (fun (c : Typedtree.computation Typedtree.case) ->
        Option.iter (walk_expr ctx st) c.c_guard;
        walk_expr ctx st c.c_rhs)
      cases
  | Texp_try (body, cases) ->
    walk_expr ctx st body;
    walk_cases ctx st cases
  | Texp_field (r, _, _) -> walk_expr ctx st r
  | Texp_setfield (r, _, _, v) ->
    walk_expr ctx st r;
    walk_expr ctx st v
  | Texp_ifthenelse (c, t, f) ->
    walk_expr ctx st c;
    walk_expr ctx st t;
    Option.iter (walk_expr ctx st) f
  | Texp_sequence (a, b) ->
    walk_expr ctx st a;
    walk_expr ctx st b
  | Texp_while (c, b) ->
    walk_expr ctx st c;
    walk_expr ctx st b
  | Texp_for (_, _, lo, hi, _, b) ->
    walk_expr ctx st lo;
    walk_expr ctx st hi;
    walk_expr ctx st b
  | Texp_assert (cond, _) -> walk_expr ctx st cond
  | Texp_open (_, body) -> walk_expr ctx st body
  | Texp_letmodule (_, _, _, _, body) -> walk_expr ctx st body
  | Texp_letexception (_, body) -> walk_expr ctx st body
  | Texp_send (o, _) -> walk_expr ctx st o
  | Texp_setinstvar (_, _, _, v) -> walk_expr ctx st v
  | Texp_constant _ | Texp_unreachable | Texp_extension_constructor _
  | Texp_new _ | Texp_instvar _ | Texp_override _ ->
    ()

and walk_cases ctx st cases =
  List.iter
    (fun (c : Typedtree.value Typedtree.case) ->
      Option.iter (walk_expr ctx st) c.c_guard;
      walk_expr ctx st c.c_rhs)
    cases

(* Local [let] bindings: a binding whose RHS is a function literal becomes
   its own node (named helpers show up in the manifest and in witness
   chains), and its construction is an allocation in the enclosing
   function — a closure is built each time control passes the [let]. *)
and walk_local_bindings ctx st vbs =
  let function_binding (vb : Typedtree.value_binding) =
    match (vb.vb_pat.pat_desc, vb.vb_expr.exp_desc) with
    | Tpat_var (id, _), Texp_function _ -> Some id
    | _ -> None
  in
  (* Register the names first so [let rec] bodies resolve their siblings. *)
  List.iter
    (fun vb ->
      match function_binding vb with
      | Some id ->
        let node_id = ctx.unit ^ "." ^ Ident.name id in
        Hashtbl.replace ctx.ident_nodes (Ident.unique_name id) node_id;
        Hashtbl.replace ctx.graph.arities node_id
          (syntactic_arity vb.vb_expr)
      | None -> ())
    vbs;
  List.iter
    (fun (vb : Typedtree.value_binding) ->
      match function_binding vb with
      | Some id ->
        let node_id = ctx.unit ^ "." ^ Ident.name id in
        record_alloc st vb.vb_loc
          (Printf.sprintf "local function %s (closure per call)"
             (Ident.name id));
        add_edge st.cur node_id;
        walk_named_function ctx ~id:node_id ~loc:vb.vb_loc
          ~attrs:vb.vb_attributes vb.vb_expr
      | None -> walk_expr ctx st vb.vb_expr)
    vbs

(* Walks a function literal as its own node, stripping the outer parameter
   chain (the literal itself is the function being defined; only what its
   body does per call counts). *)
and walk_named_function ctx ~id ~loc ~attrs (fe : Typedtree.expression) =
  let n =
    get_node ctx.graph ~id ~unit_short:ctx.unit ~loc ~is_fun:true
      ~toplevel:false ~binding_type:(Some fe.exp_type)
  in
  apply_binding_attrs n (attrs @ fe.exp_attributes);
  let st' = { cur = n; suppress = (if Option.is_some n.alloc_ok then 1 else 0) } in
  walk_function_body ctx st' fe

and walk_function_body ctx st (e : Typedtree.expression) =
  match e.exp_desc with
  | Texp_function { cases = [ { c_guard = None; c_rhs; _ } ]; _ } ->
    walk_function_body ctx st c_rhs
  | Texp_function { cases; _ } -> walk_cases ctx st cases
  (* Optional-argument elaboration inserts [let x = match *opt* with ...]
     between parameters. [Simplif.split_default_wrapper] compiles the
     whole chain as one multi-parameter function for full applications,
     so the parameter chain continues below the default binding. *)
  | Texp_let (Nonrecursive, [ vb ], body) when is_optional_default vb ->
    walk_expr ctx st vb.vb_expr;
    walk_function_body ctx st body
  | _ -> walk_expr ctx st e

and walk_field_closure ctx st label fe =
  let id = ctx.unit ^ "." ^ label in
  add_edge st.cur id;
  walk_named_function ctx ~id ~loc:fe.Typedtree.exp_loc ~attrs:[] fe

and apply_binding_attrs n attrs =
  let set get set_f name =
    match find_simlint_attr name attrs with
    | Some (Some reason) -> if Option.is_none (get n) then set_f n reason
    | Some None -> n.bad_suppressions <- n.def_loc :: n.bad_suppressions
    | None -> ()
  in
  set (fun n -> n.alloc_ok) (fun n r -> n.alloc_ok <- Some r) "alloc_ok";
  set (fun n -> n.taint_ok) (fun n r -> n.taint_ok <- Some r) "taint_ok";
  set (fun n -> n.domain_ok) (fun n r -> n.domain_ok <- Some r) "domain_ok"

(* Application sites: partial application, allocating externals, float
   boxing through polymorphic instantiation, and spawn-API arguments. *)
and walk_apply ctx st (e : Typedtree.expression) f args =
  let loc = e.exp_loc in
  (* An arrow-typed application result only means a wrapper closure when
     fewer arguments were passed than the callee binds: a fully-applied
     call returning a *stored* closure ([take_head], [Array.get] on a
     closure array) allocates nothing. Prefer the definition's syntactic
     arity; fall back to the declared type's spine for externals. *)
  let declared_arity =
    match f.Typedtree.exp_desc with
    | Texp_ident (path, _, vd) -> (
      match vd.Types.val_kind with
      | Types.Val_prim p -> Some p.Primitive.prim_arity
      | _ -> (
        let of_canon name =
          match Hashtbl.find_opt ctx.graph.arities name with
          | Some a -> Some a
          | None -> Some (spine_len vd.Types.val_type)
        in
        match resolve_path ctx path with
        | Some (Internal parts) -> of_canon (id_of_parts parts)
        | Some (External _) -> Some (spine_len vd.Types.val_type)
        | Some (LocalValue id) -> (
          match Hashtbl.find_opt ctx.ident_nodes (Ident.unique_name id) with
          | Some node_id -> of_canon node_id
          | None -> Some (spine_len vd.Types.val_type))
        | Some (LocalModulePath _) | None -> None))
    | _ -> None
  in
  if List.exists (fun (_, a) -> Option.is_none a) args then
    record_alloc st loc "partial application (labelled argument omitted)"
  else if
    is_arrow e.exp_type
    && (match declared_arity with
       | Some a -> List.length args < a
       | None -> true)
  then record_alloc st loc "partial application (result is a closure)";
  match f.Typedtree.exp_desc with
  | Texp_ident (path, _, vd) -> (
    let canon = canonical_of_path ctx path in
    (match canon with
    | Some name when is_allocating_external name && is_external ctx path ->
      record_alloc st loc (Printf.sprintf "call to allocating %s" name)
    | _ -> ());
    (match
       if is_compiler_primitive vd then []
       else
         float_boxing_positions ~scheme:vd.Types.val_type
           ~concrete:f.Typedtree.exp_type ~n_args:(List.length args)
     with
    | [] -> ()
    | hits ->
      let name = match canon with Some n -> n | None -> Path.name path in
      List.iter
        (fun hit ->
          match hit with
          | `Arg i ->
            record_alloc st loc
              (Printf.sprintf
                 "polymorphic call to %s boxes a float (argument %d)" name
                 (i + 1))
          | `Array_arg _ when List.mem name float_array_aware -> ()
          | `Array_arg i ->
            record_alloc st loc
              (Printf.sprintf
                 "polymorphic call to %s reads a float array generically, \
                  boxing each element (argument %d)"
                 name (i + 1))
          | `Ret ->
            record_alloc st loc
              (Printf.sprintf "polymorphic call to %s returns a boxed float"
                 name))
        hits);
    match canon with
    | Some name when List.mem name ctx.spawn_apis ->
      List.iter (fun (_, a) -> Option.iter (spawn_argument ctx st) a) args
    | _ -> ())
  | _ -> ()

(* A function-typed argument handed to a spawn API runs on another Domain:
   resolve it to a node (or wrap a literal in a synthetic node) and mark
   it as a root for the A2 reachability pass. *)
and spawn_argument ctx st (arg : Typedtree.expression) =
  if is_arrow arg.exp_type then begin
    let graph = ctx.graph in
    let mark id = graph.spawn_roots <- SS.add id graph.spawn_roots in
    let mark_path path =
      match resolve_path ctx path with
      | Some (Internal parts) -> mark (id_of_parts parts)
      | Some (LocalValue id) -> (
        match Hashtbl.find_opt ctx.ident_nodes (Ident.unique_name id) with
        | Some node_id -> mark node_id
        | None -> mark st.cur.id)
      | _ -> mark st.cur.id
    in
    match arg.exp_desc with
    | Texp_ident (path, _, _) -> mark_path path
    | Texp_function _ ->
      let id = Printf.sprintf "%s.<fun:%d>" ctx.unit (loc_line arg.exp_loc) in
      add_edge st.cur id;
      mark id;
      walk_named_function ctx ~id ~loc:arg.exp_loc ~attrs:[] arg
    | Texp_apply ({ exp_desc = Texp_ident (path, _, _); _ }, _) ->
      mark_path path
    | _ -> mark st.cur.id
  end

and is_external ctx path =
  match resolve_path ctx path with Some (External _) -> true | _ -> false

(* ---------- structure walk ---------- *)

let pattern_idents pat =
  let acc = ref [] in
  let rec go : type k. k Typedtree.general_pattern -> unit =
   fun p ->
    match p.pat_desc with
    | Tpat_var (id, _) -> acc := id :: !acc
    | Tpat_alias (p, id, _) ->
      acc := id :: !acc;
      go p
    | Tpat_tuple ps -> List.iter go ps
    | Tpat_construct (_, _, ps, _) -> List.iter go ps
    | Tpat_record (fields, _) -> List.iter (fun (_, _, p) -> go p) fields
    | Tpat_array ps -> List.iter go ps
    | Tpat_or (a, b, _) ->
      go a;
      go b
    | Tpat_lazy p -> go p
    | Tpat_variant (_, p, _) -> Option.iter go p
    | Tpat_value p -> go (p :> Typedtree.value Typedtree.general_pattern)
    | Tpat_exception p -> go p
    | Tpat_any | Tpat_constant _ -> ()
  in
  go pat;
  List.rev !acc

let node_id_of ctx subpath name =
  String.concat "." ((ctx.unit :: List.rev subpath) @ [ name ])

let rec unwrap_module (m : Typedtree.module_expr) =
  match m.mod_desc with
  | Tmod_constraint (m, _, _, _) -> unwrap_module m
  | _ -> m

(* Pre-pass: registers every toplevel binder (so in-unit forward and
   submodule references resolve to precise node ids) and collects the
   canonical names of record types with mutable fields (A2 consults them
   across units). *)
let rec register_structure ctx subpath (str : Typedtree.structure) =
  List.iter (register_item ctx subpath) str.str_items

and register_item ctx subpath (item : Typedtree.structure_item) =
  match item.str_desc with
  | Tstr_value (_, vbs) ->
    List.iter
      (fun (vb : Typedtree.value_binding) ->
        List.iter
          (fun id ->
            Hashtbl.replace ctx.ident_nodes (Ident.unique_name id)
              (node_id_of ctx subpath (Ident.name id)))
          (pattern_idents vb.vb_pat);
        match (vb.vb_pat.pat_desc, syntactic_arity vb.vb_expr) with
        | Tpat_var (id, _), arity when arity > 0 ->
          Hashtbl.replace ctx.graph.arities
            (node_id_of ctx subpath (Ident.name id))
            arity
        | _ -> ())
      vbs
  | Tstr_type (_, decls) ->
    List.iter
      (fun (d : Typedtree.type_declaration) ->
        match d.typ_kind with
        | Ttype_record lds
          when List.exists
                 (fun (ld : Typedtree.label_declaration) ->
                   ld.ld_mutable = Asttypes.Mutable)
                 lds ->
          ctx.graph.mutable_types <-
            SS.add
              (node_id_of ctx subpath d.typ_name.txt)
              ctx.graph.mutable_types
        | _ -> ())
      decls
  | Tstr_module mb -> register_module ctx subpath mb
  | Tstr_recmodule mbs -> List.iter (register_module ctx subpath) mbs
  | Tstr_include incl -> (
    match (unwrap_module incl.incl_mod).mod_desc with
    | Tmod_structure s -> register_structure ctx subpath s
    | _ -> ())
  | _ -> ()

and register_module ctx subpath (mb : Typedtree.module_binding) =
  match (unwrap_module mb.mb_expr).mod_desc with
  | Tmod_structure s -> (
    match mb.mb_name.txt with
    | Some name -> register_structure ctx (name :: subpath) s
    | None -> ())
  | Tmod_ident (p, _) -> (
    match (mb.mb_id, resolve_module_path ctx p) with
    | Some id, Some resolved ->
      Hashtbl.replace ctx.aliases (Ident.unique_name id) resolved
    | _ -> ())
  | _ -> ()

(* Body pass. *)
let init_node ctx loc =
  get_node ctx.graph
    ~id:(ctx.unit ^ ".<init>")
    ~unit_short:ctx.unit ~loc ~is_fun:false ~toplevel:true ~binding_type:None

let rec walk_structure ctx subpath (str : Typedtree.structure) =
  List.iter (walk_item ctx subpath) str.str_items

and walk_item ctx subpath (item : Typedtree.structure_item) =
  match item.str_desc with
  | Tstr_value (_, vbs) -> List.iter (walk_toplevel_binding ctx subpath) vbs
  | Tstr_eval (e, _) ->
    let st = { cur = init_node ctx item.str_loc; suppress = 0 } in
    walk_expr ctx st e
  | Tstr_module mb -> walk_module ctx subpath mb
  | Tstr_recmodule mbs -> List.iter (walk_module ctx subpath) mbs
  | Tstr_include incl -> (
    match (unwrap_module incl.incl_mod).mod_desc with
    | Tmod_structure s -> walk_structure ctx subpath s
    | _ -> ())
  | _ -> ()

and walk_module ctx subpath (mb : Typedtree.module_binding) =
  match (unwrap_module mb.mb_expr).mod_desc with
  | Tmod_structure s -> (
    match mb.mb_name.txt with
    | Some name -> walk_structure ctx (name :: subpath) s
    | None -> ())
  | _ -> () (* aliases were registered in the pre-pass *)

and walk_toplevel_binding ctx subpath (vb : Typedtree.value_binding) =
  match pattern_idents vb.vb_pat with
  | [] ->
    (* [let () = ...]: module-init code. *)
    let st = { cur = init_node ctx vb.vb_loc; suppress = 0 } in
    walk_expr ctx st vb.vb_expr
  | first :: rest ->
    let is_fun =
      match vb.vb_expr.exp_desc with Texp_function _ -> true | _ -> false
    in
    let node_id = node_id_of ctx subpath (Ident.name first) in
    let n =
      get_node ctx.graph ~id:node_id ~unit_short:ctx.unit ~loc:vb.vb_loc
        ~is_fun ~toplevel:true ~binding_type:(Some vb.vb_pat.pat_type)
    in
    apply_binding_attrs n (vb.vb_attributes @ vb.vb_expr.exp_attributes);
    let st = { cur = n; suppress = (if Option.is_some n.alloc_ok then 1 else 0) } in
    if is_fun then walk_function_body ctx st vb.vb_expr
    else walk_expr ctx st vb.vb_expr;
    (* Destructuring bindings ([let a, b = ...]): the extra names become
       thin nodes pointing at the walked one so references to any of them
       reach its callees. *)
    List.iter
      (fun id ->
        let extra =
          get_node ctx.graph
            ~id:(node_id_of ctx subpath (Ident.name id))
            ~unit_short:ctx.unit ~loc:vb.vb_loc ~is_fun:false ~toplevel:true
            ~binding_type:(Some vb.vb_pat.pat_type)
        in
        add_edge extra node_id)
      rest

(* ---------- build & queries ---------- *)

let build ~spawn_apis (units : Cmt_load.unit_info list) =
  let unit_set =
    List.fold_left
      (fun s (u : Cmt_load.unit_info) -> SS.add u.short s)
      SS.empty units
  in
  let graph =
    {
      nodes = Hashtbl.create 512;
      units = unit_set;
      arities = Hashtbl.create 512;
      mutable_types = SS.empty;
      spawn_roots = SS.empty;
    }
  in
  (* Register every unit before walking any: the body pass consults
     cross-unit facts (arities, mutable record types) in both
     directions. *)
  let ctxs =
    List.map
      (fun (u : Cmt_load.unit_info) ->
        ( u,
          {
            unit = u.short;
            graph;
            spawn_apis;
            ident_nodes = Hashtbl.create 64;
            aliases = Hashtbl.create 16;
          } ))
      units
  in
  List.iter (fun (u, ctx) -> register_structure ctx [] u.Cmt_load.structure) ctxs;
  List.iter (fun (u, ctx) -> walk_structure ctx [] u.Cmt_load.structure) ctxs;
  SS.iter
    (fun id ->
      match find_node graph id with
      | Some n -> n.spawn_root <- true
      | None -> ())
    graph.spawn_roots;
  graph

(* BFS over [callees] from [roots]. Returns id -> parent id (roots map to
   themselves); [stop] prunes expansion below vetted nodes. *)
let reachable_with_parents ?(stop = fun _ -> false) t roots =
  let parent = Hashtbl.create 64 in
  let queue = Queue.create () in
  List.iter
    (fun r ->
      if (not (Hashtbl.mem parent r)) && Hashtbl.mem t.nodes r then begin
        Hashtbl.replace parent r r;
        Queue.add r queue
      end)
    roots;
  while not (Queue.is_empty queue) do
    let id = Queue.pop queue in
    match find_node t id with
    | None -> ()
    | Some n ->
      if not (stop n) then
        SS.iter
          (fun c ->
            if not (Hashtbl.mem parent c) then begin
              Hashtbl.replace parent c id;
              if Hashtbl.mem t.nodes c then Queue.add c queue
            end)
          n.callees
  done;
  parent

(* Root-to-node witness chain from a parent map. *)
let chain parents id =
  let rec go id acc =
    if List.mem id acc then id :: acc
    else
      match Hashtbl.find_opt parents id with
      | Some p when not (String.equal p id) -> go p (id :: acc)
      | _ -> id :: acc
  in
  go id []
