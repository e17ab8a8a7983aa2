(* A1 fixture: a miniature event queue whose hot entry points deliberately
   allocate. Compiled at test run time with [ocamlc -bin-annot] and
   analysed against a synthetic manifest (see test_lint.ml, which asserts
   findings by line — keep the two in sync when editing).

   Cases:
   - [pop] builds an option cell per call (the acceptance case);
   - [smaller] passes floats to an accidentally-polymorphic helper, so the
     call boxes both arguments;
   - [scale] builds a closure per call;
   - [pop_opt] is [pop] with a reasoned [@simlint.alloc_ok] and must be
     silent;
   - [bad_suppression] carries a reasonless attribute and must be A0;
   - [head_unsafe] allocates nothing and must never be reported. *)

type t = { mutable len : int; xs : float array }

let create n = { len = 0; xs = Array.make n 0.0 }

let pop t =
  if t.len = 0 then None
  else begin
    t.len <- t.len - 1;
    Some t.xs.(t.len)
  end

let lt a b = a < b
let smaller t v = if lt t.xs.(0) v then t.xs.(0) else v
let scale t k = Array.iteri (fun i x -> t.xs.(i) <- k *. x) t.xs

let[@simlint.alloc_ok "fixture: the option box is this API's product"] pop_opt
    t =
  if t.len = 0 then None
  else begin
    t.len <- t.len - 1;
    Some t.xs.(t.len)
  end

let[@simlint.alloc_ok] bad_suppression t = Some t.len
let head_unsafe t = t.xs.(t.len - 1)

(* [same_ends] is inferred ['a array -> bool], so [uniform] hands it the
   flat float array generically and every element it reads is boxed. *)
let same_ends xs = xs.(0) = xs.(Array.length xs - 1)
let uniform t = same_ends t.xs

(* [Array.blit]'s C primitive copies a float array flat, so handing it
   [t.xs] boxes nothing and [save] must stay silent. *)
let save t dst = Array.blit t.xs 0 dst 0 t.len
