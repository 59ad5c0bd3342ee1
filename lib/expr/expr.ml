type var = { name : string; width : int }

type unop = Not | Neg | Red_and | Red_or | Red_xor

type binop =
  | Add
  | Sub
  | Mul
  | Udiv
  | Urem
  | And
  | Or
  | Xor
  | Shl
  | Lshr
  | Ashr
  | Eq
  | Ne
  | Ult
  | Ule
  | Slt
  | Sle

type t =
  | Const of Bitvec.t
  | Var of var
  | Unop of unop * t
  | Binop of binop * t * t
  | Ite of t * t * t
  | Extract of int * int * t
  | Zero_extend of int * t
  | Sign_extend of int * t
  | Concat of t * t

let is_comparison = function
  | Eq | Ne | Ult | Ule | Slt | Sle -> true
  | Add | Sub | Mul | Udiv | Urem | And | Or | Xor | Shl | Lshr | Ashr -> false

let rec width = function
  | Const bv -> Bitvec.width bv
  | Var v -> v.width
  | Unop ((Red_and | Red_or | Red_xor), _) -> 1
  | Unop ((Not | Neg), e) -> width e
  | Binop (op, a, _) -> if is_comparison op then 1 else width a
  | Ite (_, a, _) -> width a
  | Extract (hi, lo, _) -> hi - lo + 1
  | Zero_extend (w, _) | Sign_extend (w, _) -> w
  | Concat (a, b) -> width a + width b

(* ------------------------------------------------------------------ *)
(* Smart constructors.                                                 *)

let const bv = Const bv
let const_int ~width v = Const (Bitvec.make ~width v)
let bool_ b = Const (Bitvec.of_bool b)

let var name w =
  if w < 1 || w > Bitvec.max_width then
    invalid_arg (Printf.sprintf "Expr.var: bad width %d for %s" w name);
  Var { name; width = w }

let of_var v = Var v

let unop op e = Unop (op, e)
let not_ e = unop Not e
let neg e = unop Neg e
let red_and e = unop Red_and e
let red_or e = unop Red_or e
let red_xor e = unop Red_xor e

let binop_name = function
  | Add -> "add"
  | Sub -> "sub"
  | Mul -> "mul"
  | Udiv -> "udiv"
  | Urem -> "urem"
  | And -> "and"
  | Or -> "or"
  | Xor -> "xor"
  | Shl -> "shl"
  | Lshr -> "lshr"
  | Ashr -> "ashr"
  | Eq -> "eq"
  | Ne -> "ne"
  | Ult -> "ult"
  | Ule -> "ule"
  | Slt -> "slt"
  | Sle -> "sle"

let binop op a b =
  if width a <> width b then
    invalid_arg
      (Printf.sprintf "Expr.%s: width mismatch (%d vs %d)" (binop_name op) (width a)
         (width b));
  Binop (op, a, b)

let add = binop Add
let sub = binop Sub
let mul = binop Mul
let udiv = binop Udiv
let urem = binop Urem
let and_ = binop And
let or_ = binop Or
let xor = binop Xor
let shl = binop Shl
let lshr = binop Lshr
let ashr = binop Ashr
let eq = binop Eq
let ne = binop Ne
let ult = binop Ult
let ule = binop Ule
let slt = binop Slt
let sle = binop Sle

let ite c a b =
  if width c <> 1 then invalid_arg "Expr.ite: condition must be 1 bit wide";
  if width a <> width b then
    invalid_arg
      (Printf.sprintf "Expr.ite: branch width mismatch (%d vs %d)" (width a) (width b));
  Ite (c, a, b)

let extract ~hi ~lo e =
  if lo < 0 || hi < lo || hi >= width e then
    invalid_arg
      (Printf.sprintf "Expr.extract: [%d:%d] out of range for width %d" hi lo (width e));
  Extract (hi, lo, e)

let zero_extend e w =
  if w < width e then invalid_arg "Expr.zero_extend: target narrower than source";
  if w = width e then e else Zero_extend (w, e)

let sign_extend e w =
  if w < width e then invalid_arg "Expr.sign_extend: target narrower than source";
  if w = width e then e else Sign_extend (w, e)

let concat a b =
  if width a + width b > Bitvec.max_width then
    invalid_arg "Expr.concat: result exceeds max width";
  Concat (a, b)

let bit e i = extract ~hi:i ~lo:i e

let implies a b = or_ (not_ a) b

let conj = function
  | [] -> bool_ true
  | e :: rest -> List.fold_left and_ e rest

let disj = function
  | [] -> bool_ false
  | e :: rest -> List.fold_left or_ e rest

(* ------------------------------------------------------------------ *)
(* Analysis.                                                           *)

let vars e =
  let seen = Hashtbl.create 16 in
  let acc = ref [] in
  let rec go = function
    | Const _ -> ()
    | Var v ->
        if not (Hashtbl.mem seen v) then begin
          Hashtbl.add seen v ();
          acc := v :: !acc
        end
    | Unop (_, a) | Extract (_, _, a) | Zero_extend (_, a) | Sign_extend (_, a) -> go a
    | Binop (_, a, b) | Concat (a, b) ->
        go a;
        go b
    | Ite (c, a, b) ->
        go c;
        go a;
        go b
  in
  go e;
  List.rev !acc

let rec subst f e =
  match e with
  | Const _ -> e
  | Var v -> begin
      match f v with
      | None -> e
      | Some e' ->
          if width e' <> v.width then
            invalid_arg
              (Printf.sprintf "Expr.subst: %s has width %d, replacement has width %d"
                 v.name v.width (width e'));
          e'
    end
  | Unop (op, a) -> Unop (op, subst f a)
  | Binop (op, a, b) -> Binop (op, subst f a, subst f b)
  | Ite (c, a, b) -> Ite (subst f c, subst f a, subst f b)
  | Extract (hi, lo, a) -> Extract (hi, lo, subst f a)
  | Zero_extend (w, a) -> Zero_extend (w, subst f a)
  | Sign_extend (w, a) -> Sign_extend (w, subst f a)
  | Concat (a, b) -> Concat (subst f a, subst f b)

let map_vars f e =
  subst
    (fun v ->
      let v' = f v in
      if v'.width <> v.width then
        invalid_arg "Expr.map_vars: renaming changed a width";
      if v' = v then None else Some (Var v'))
    e

let rec size = function
  | Const _ | Var _ -> 1
  | Unop (_, a) | Extract (_, _, a) | Zero_extend (_, a) | Sign_extend (_, a) ->
      1 + size a
  | Binop (_, a, b) | Concat (a, b) -> 1 + size a + size b
  | Ite (c, a, b) -> 1 + size c + size a + size b

let equal = ( = )
let compare = Stdlib.compare

(* ------------------------------------------------------------------ *)
(* Simplification.                                                      *)

let is_const = function Const _ -> true | _ -> false

let const_value = function Const bv -> bv | _ -> invalid_arg "const_value"

let rec simplify e =
  match e with
  | Const _ | Var _ -> e
  | Unop (op, a) -> simplify_unop op (simplify a)
  | Binop (op, a, b) -> simplify_binop op (simplify a) (simplify b)
  | Ite (c, a, b) -> begin
      let c = simplify c and a = simplify a and b = simplify b in
      match c with
      | Const bv -> if Bitvec.to_bool bv then a else b
      | _ -> if a = b then a else Ite (c, a, b)
    end
  | Extract (hi, lo, a) -> begin
      let a = simplify a in
      if lo = 0 && hi = width a - 1 then a
      else
        match a with
        | Const bv -> Const (Bitvec.extract ~hi ~lo bv)
        | _ -> Extract (hi, lo, a)
    end
  | Zero_extend (w, a) -> begin
      let a = simplify a in
      match a with
      | Const bv -> Const (Bitvec.zero_extend bv w)
      | _ -> if width a = w then a else Zero_extend (w, a)
    end
  | Sign_extend (w, a) -> begin
      let a = simplify a in
      match a with
      | Const bv -> Const (Bitvec.sign_extend bv w)
      | _ -> if width a = w then a else Sign_extend (w, a)
    end
  | Concat (a, b) -> begin
      let a = simplify a and b = simplify b in
      match (a, b) with
      | Const x, Const y -> Const (Bitvec.concat x y)
      | _ -> Concat (a, b)
    end

and simplify_unop op a =
  match (op, a) with
  | Not, Const bv -> Const (Bitvec.lognot bv)
  | Neg, Const bv -> Const (Bitvec.neg bv)
  | Red_and, Const bv -> Const (Bitvec.reduce_and bv)
  | Red_or, Const bv -> Const (Bitvec.reduce_or bv)
  | Red_xor, Const bv -> Const (Bitvec.reduce_xor bv)
  | Not, Unop (Not, inner) -> inner
  | Neg, Unop (Neg, inner) -> inner
  | (Red_and | Red_or | Red_xor), _ when width a = 1 -> a
  | _ -> Unop (op, a)

and simplify_binop op a b =
  let w = width a in
  if is_const a && is_const b then begin
    let va = const_value a and vb = const_value b in
    let f =
      match op with
      | Add -> Bitvec.add
      | Sub -> Bitvec.sub
      | Mul -> Bitvec.mul
      | Udiv -> Bitvec.udiv
      | Urem -> Bitvec.urem
      | And -> Bitvec.logand
      | Or -> Bitvec.logor
      | Xor -> Bitvec.logxor
      | Shl -> Bitvec.shl
      | Lshr -> Bitvec.lshr
      | Ashr -> Bitvec.ashr
      | Eq -> Bitvec.eq
      | Ne -> Bitvec.ne
      | Ult -> Bitvec.ult
      | Ule -> Bitvec.ule
      | Slt -> Bitvec.slt
      | Sle -> Bitvec.sle
    in
    Const (f va vb)
  end
  else begin
    let zero bv = Bitvec.is_zero bv in
    let ones bv = Bitvec.equal bv (Bitvec.ones (Bitvec.width bv)) in
    match (op, a, b) with
    | Add, e, Const c when zero c -> e
    | Add, Const c, e when zero c -> e
    | Sub, e, Const c when zero c -> e
    | Mul, _, Const c when zero c -> Const (Bitvec.zero w)
    | Mul, Const c, _ when zero c -> Const (Bitvec.zero w)
    | Mul, e, Const c when Bitvec.to_int c = 1 -> e
    | Mul, Const c, e when Bitvec.to_int c = 1 -> e
    | And, _, Const c when zero c -> Const (Bitvec.zero w)
    | And, Const c, _ when zero c -> Const (Bitvec.zero w)
    | And, e, Const c when ones c -> e
    | And, Const c, e when ones c -> e
    | Or, e, Const c when zero c -> e
    | Or, Const c, e when zero c -> e
    | Or, _, Const c when ones c -> Const (Bitvec.ones w)
    | Or, Const c, _ when ones c -> Const (Bitvec.ones w)
    | Xor, e, Const c when zero c -> e
    | Xor, Const c, e when zero c -> e
    | (Shl | Lshr | Ashr), e, Const c when zero c -> e
    | (And | Or), e1, e2 when e1 = e2 -> e1
    | Xor, e1, e2 when e1 = e2 -> Const (Bitvec.zero w)
    | Sub, e1, e2 when e1 = e2 -> Const (Bitvec.zero w)
    | Eq, e1, e2 when e1 = e2 -> Const (Bitvec.of_bool true)
    | (Ne | Ult | Slt), e1, e2 when e1 = e2 -> Const (Bitvec.of_bool false)
    | (Ule | Sle), e1, e2 when e1 = e2 -> Const (Bitvec.of_bool true)
    | _ -> Binop (op, a, b)
  end

(* ------------------------------------------------------------------ *)
(* Concrete evaluation.                                                *)

let eval env e =
  let lookup v =
    let bv = env v in
    if Bitvec.width bv <> v.width then
      invalid_arg
        (Printf.sprintf "Expr.eval: environment returned width %d for %s:%d"
           (Bitvec.width bv) v.name v.width);
    bv
  in
  let rec go = function
    | Const bv -> bv
    | Var v -> lookup v
    | Unop (Not, a) -> Bitvec.lognot (go a)
    | Unop (Neg, a) -> Bitvec.neg (go a)
    | Unop (Red_and, a) -> Bitvec.reduce_and (go a)
    | Unop (Red_or, a) -> Bitvec.reduce_or (go a)
    | Unop (Red_xor, a) -> Bitvec.reduce_xor (go a)
    | Binop (op, a, b) ->
        let va = go a and vb = go b in
        let f =
          match op with
          | Add -> Bitvec.add
          | Sub -> Bitvec.sub
          | Mul -> Bitvec.mul
          | Udiv -> Bitvec.udiv
          | Urem -> Bitvec.urem
          | And -> Bitvec.logand
          | Or -> Bitvec.logor
          | Xor -> Bitvec.logxor
          | Shl -> Bitvec.shl
          | Lshr -> Bitvec.lshr
          | Ashr -> Bitvec.ashr
          | Eq -> Bitvec.eq
          | Ne -> Bitvec.ne
          | Ult -> Bitvec.ult
          | Ule -> Bitvec.ule
          | Slt -> Bitvec.slt
          | Sle -> Bitvec.sle
        in
        f va vb
    | Ite (c, a, b) -> if Bitvec.to_bool (go c) then go a else go b
    | Extract (hi, lo, a) -> Bitvec.extract ~hi ~lo (go a)
    | Zero_extend (w, a) -> Bitvec.zero_extend (go a) w
    | Sign_extend (w, a) -> Bitvec.sign_extend (go a) w
    | Concat (a, b) -> Bitvec.concat (go a) (go b)
  in
  go e

(* ------------------------------------------------------------------ *)
(* Bit-blasting. Bit arrays are LSB-first.                             *)

module Blast = struct
  let full_adder g a b cin =
    let s = Aig.xor_ g (Aig.xor_ g a b) cin in
    let cout = Aig.or_ g (Aig.and_ g a b) (Aig.and_ g cin (Aig.xor_ g a b)) in
    (s, cout)

  let adder g a b cin =
    let w = Array.length a in
    let out = Array.make w Aig.false_ in
    let carry = ref cin in
    for i = 0 to w - 1 do
      let s, c = full_adder g a.(i) b.(i) !carry in
      out.(i) <- s;
      carry := c
    done;
    (out, !carry)

  let sub g a b =
    (* a - b = a + ~b + 1 *)
    fst (adder g a (Array.map Aig.not_ b) Aig.true_)

  let mul g a b =
    let w = Array.length a in
    let acc = ref (Array.make w Aig.false_) in
    for i = 0 to w - 1 do
      (* Partial product: (a << i) & b_i, added into the accumulator. *)
      let pp =
        Array.init w (fun j -> if j < i then Aig.false_ else Aig.and_ g a.(j - i) b.(i))
      in
      acc := fst (adder g !acc pp Aig.false_)
    done;
    !acc

  let mux g c a b = Array.map2 (fun x y -> Aig.ite g c x y) a b

  (* Decode-based shifter: select among the w constant shifts by comparing
     the amount against each constant; any amount >= w yields the fill.
     O(w^2) gates, which is fine at the widths used here and makes the
     out-of-range semantics obviously right. *)
  let shifter g ~fill ~dir a b =
    let w = Array.length a in
    let shift_by k =
      match dir with
      | `Left -> Array.init w (fun j -> if j < k then fill else a.(j - k))
      | `Right -> Array.init w (fun j -> if j + k >= w then fill else a.(j + k))
    in
    let eq_const k =
      Aig.and_list g
        (List.init (Array.length b) (fun i ->
             if k land (1 lsl i) <> 0 then b.(i) else Aig.not_ b.(i)))
    in
    let result = ref (Array.make w fill) in
    for k = 0 to w - 1 do
      result := mux g (eq_const k) (shift_by k) !result
    done;
    !result

  let eq_bits g a b =
    Aig.and_list g (Array.to_list (Array.map2 (fun x y -> Aig.xnor_ g x y) a b))

  (* Unsigned less-than, LSB-up recurrence. *)
  let ult_bits g a b =
    let lt = ref Aig.false_ in
    Array.iteri
      (fun i ai ->
        let bi = b.(i) in
        let this_lt = Aig.and_ g (Aig.not_ ai) bi in
        let equal_here = Aig.xnor_ g ai bi in
        lt := Aig.or_ g this_lt (Aig.and_ g equal_here !lt))
      a;
    !lt

  let slt_bits g a b =
    let w = Array.length a in
    let sa = a.(w - 1) and sb = b.(w - 1) in
    (* Signed comparison: flip the MSBs and compare unsigned. *)
    let a' = Array.copy a and b' = Array.copy b in
    a'.(w - 1) <- Aig.not_ sa;
    b'.(w - 1) <- Aig.not_ sb;
    ult_bits g a' b'

  (* Restoring division: w iterations of shift-subtract-select. Returns
     (quotient, remainder); division by zero yields (all-ones, dividend) to
     match the SMT-LIB convention used by Bitvec. *)
  let divrem g a b =
    let w = Array.length a in
    let rem = ref (Array.make w Aig.false_) in
    let quo = Array.make w Aig.false_ in
    for i = w - 1 downto 0 do
      (* rem = (rem << 1) | a_i *)
      let shifted = Array.init w (fun j -> if j = 0 then a.(i) else !rem.(j - 1)) in
      let ge = Aig.not_ (ult_bits g shifted b) in
      let diff = sub g shifted b in
      quo.(i) <- ge;
      rem := mux g ge diff shifted
    done;
    let b_is_zero = eq_bits g b (Array.make w Aig.false_) in
    let quotient = mux g b_is_zero (Array.make w Aig.true_) quo in
    let remainder = mux g b_is_zero a !rem in
    (quotient, remainder)
end

let blast g env e =
  let lookup v =
    let bits = env v in
    if Array.length bits <> v.width then
      invalid_arg
        (Printf.sprintf "Expr.blast: environment returned %d bits for %s:%d"
           (Array.length bits) v.name v.width);
    bits
  in
  let rec go = function
    | Const bv ->
        Array.init (Bitvec.width bv) (fun i -> Aig.of_bool (Bitvec.bit bv i))
    | Var v -> lookup v
    | Unop (Not, a) -> Array.map Aig.not_ (go a)
    | Unop (Neg, a) ->
        let bits = go a in
        let zero = Array.make (Array.length bits) Aig.false_ in
        Blast.sub g zero bits
    | Unop (Red_and, a) -> [| Aig.and_list g (Array.to_list (go a)) |]
    | Unop (Red_or, a) -> [| Aig.or_list g (Array.to_list (go a)) |]
    | Unop (Red_xor, a) ->
        [| Array.fold_left (Aig.xor_ g) Aig.false_ (go a) |]
    | Binop (Add, a, b) -> fst (Blast.adder g (go a) (go b) Aig.false_)
    | Binop (Sub, a, b) -> Blast.sub g (go a) (go b)
    | Binop (Mul, a, b) -> Blast.mul g (go a) (go b)
    | Binop (Udiv, a, b) -> fst (Blast.divrem g (go a) (go b))
    | Binop (Urem, a, b) -> snd (Blast.divrem g (go a) (go b))
    | Binop (And, a, b) -> Array.map2 (Aig.and_ g) (go a) (go b)
    | Binop (Or, a, b) -> Array.map2 (Aig.or_ g) (go a) (go b)
    | Binop (Xor, a, b) -> Array.map2 (Aig.xor_ g) (go a) (go b)
    | Binop (Shl, a, b) -> Blast.shifter g ~fill:Aig.false_ ~dir:`Left (go a) (go b)
    | Binop (Lshr, a, b) -> Blast.shifter g ~fill:Aig.false_ ~dir:`Right (go a) (go b)
    | Binop (Ashr, a, b) ->
        let bits = go a in
        let sign = bits.(Array.length bits - 1) in
        (* Fill with the sign bit. The shifter's fill must be a fixed
           literal, which the sign bit is. *)
        Blast.shifter g ~fill:sign ~dir:`Right bits (go b)
    | Binop (Eq, a, b) -> [| Blast.eq_bits g (go a) (go b) |]
    | Binop (Ne, a, b) -> [| Aig.not_ (Blast.eq_bits g (go a) (go b)) |]
    | Binop (Ult, a, b) -> [| Blast.ult_bits g (go a) (go b) |]
    | Binop (Ule, a, b) -> [| Aig.not_ (Blast.ult_bits g (go b) (go a)) |]
    | Binop (Slt, a, b) -> [| Blast.slt_bits g (go a) (go b) |]
    | Binop (Sle, a, b) -> [| Aig.not_ (Blast.slt_bits g (go b) (go a)) |]
    | Ite (c, a, b) ->
        let cond = (go c).(0) in
        Blast.mux g cond (go a) (go b)
    | Extract (hi, lo, a) ->
        let bits = go a in
        Array.sub bits lo (hi - lo + 1)
    | Zero_extend (w, a) ->
        let bits = go a in
        Array.init w (fun i -> if i < Array.length bits then bits.(i) else Aig.false_)
    | Sign_extend (w, a) ->
        let bits = go a in
        let n = Array.length bits in
        Array.init w (fun i -> if i < n then bits.(i) else bits.(n - 1))
    | Concat (a, b) ->
        let hi = go a and lo = go b in
        Array.append lo hi
  in
  go e

(* ------------------------------------------------------------------ *)
(* Printing.                                                           *)

let unop_name = function
  | Not -> "~"
  | Neg -> "-"
  | Red_and -> "&"
  | Red_or -> "|"
  | Red_xor -> "^"

let rec pp ppf = function
  | Const bv -> Bitvec.pp ppf bv
  | Var v -> Format.pp_print_string ppf v.name
  | Unop (op, a) -> Format.fprintf ppf "%s%a" (unop_name op) pp_atom a
  | Binop (op, a, b) ->
      Format.fprintf ppf "%a %s %a" pp_atom a (binop_name op) pp_atom b
  | Ite (c, a, b) -> Format.fprintf ppf "(%a ? %a : %a)" pp_atom c pp_atom a pp_atom b
  | Extract (hi, lo, a) -> Format.fprintf ppf "%a[%d:%d]" pp_atom a hi lo
  | Zero_extend (w, a) -> Format.fprintf ppf "zext%d(%a)" w pp a
  | Sign_extend (w, a) -> Format.fprintf ppf "sext%d(%a)" w pp a
  | Concat (a, b) -> Format.fprintf ppf "{%a, %a}" pp a pp b

and pp_atom ppf e =
  match e with
  | Const _ | Var _ | Extract _ | Ite _ -> pp ppf e
  | _ -> Format.fprintf ppf "(%a)" pp e

let to_string e = Format.asprintf "%a" pp e
