(* Expression-language tests: width checking, evaluation, analysis, and
   the central cross-validation property — concrete evaluation and
   bit-blasting compute the same function. *)

module Bv = Bitvec

let bv = Alcotest.testable Bv.pp Bv.equal

let env_of_list bindings v =
  match List.assoc_opt v.Expr.name bindings with
  | Some value -> value
  | None -> Alcotest.fail ("unbound variable " ^ v.Expr.name)

let test_width_checks () =
  let a = Expr.var "a" 8 and b = Expr.var "b" 4 in
  Alcotest.check_raises "add mismatch"
    (Invalid_argument "Expr.add: width mismatch (8 vs 4)") (fun () ->
      ignore (Expr.add a b));
  Alcotest.check_raises "ite cond" (Invalid_argument "Expr.ite: condition must be 1 bit wide")
    (fun () -> ignore (Expr.ite a a a));
  Alcotest.check_raises "extract range"
    (Invalid_argument "Expr.extract: [9:0] out of range for width 8") (fun () ->
      ignore (Expr.extract ~hi:9 ~lo:0 a))

let test_widths () =
  let a = Expr.var "a" 8 and b = Expr.var "b" 8 in
  Alcotest.(check int) "add" 8 (Expr.width (Expr.add a b));
  Alcotest.(check int) "eq" 1 (Expr.width (Expr.eq a b));
  Alcotest.(check int) "red" 1 (Expr.width (Expr.red_xor a));
  Alcotest.(check int) "concat" 16 (Expr.width (Expr.concat a b));
  Alcotest.(check int) "extract" 3 (Expr.width (Expr.extract ~hi:4 ~lo:2 a));
  Alcotest.(check int) "zext" 12 (Expr.width (Expr.zero_extend a 12));
  Alcotest.(check int) "zext identity" 8 (Expr.width (Expr.zero_extend a 8))

let test_eval_basic () =
  let a = Expr.var "a" 8 and b = Expr.var "b" 8 in
  let env = env_of_list [ ("a", Bv.make ~width:8 200); ("b", Bv.make ~width:8 100) ] in
  Alcotest.check bv "add" (Bv.make ~width:8 44) (Expr.eval env (Expr.add a b));
  Alcotest.check bv "ult" (Bv.of_bool false) (Expr.eval env (Expr.ult a b));
  Alcotest.check bv "ite"
    (Bv.make ~width:8 100)
    (Expr.eval env (Expr.ite (Expr.ult a b) a b));
  Alcotest.check bv "mux other side"
    (Bv.make ~width:8 200)
    (Expr.eval env (Expr.ite (Expr.ult b a) a b))

let test_eval_env_width_check () =
  let a = Expr.var "a" 8 in
  Alcotest.(check_raises) "bad env width"
    (Invalid_argument "Expr.eval: environment returned width 4 for a:8") (fun () ->
      ignore (Expr.eval (fun _ -> Bv.make ~width:4 1) a))

let test_vars () =
  let a = Expr.var "a" 8 and b = Expr.var "b" 8 in
  let e = Expr.add (Expr.mul a b) (Expr.ite (Expr.eq a b) a b) in
  let names = List.map (fun v -> v.Expr.name) (Expr.vars e) in
  Alcotest.(check (list string)) "each var once, in order" [ "a"; "b" ] names;
  Alcotest.(check (list string)) "const has no vars" []
    (List.map (fun v -> v.Expr.name) (Expr.vars (Expr.const_int ~width:4 7)))

let test_subst () =
  let a = Expr.var "a" 8 in
  let e = Expr.add a (Expr.const_int ~width:8 1) in
  let e' =
    Expr.subst
      (fun v -> if v.Expr.name = "a" then Some (Expr.const_int ~width:8 41) else None)
      e
  in
  Alcotest.check bv "substituted eval" (Bv.make ~width:8 42)
    (Expr.eval (fun _ -> Alcotest.fail "no vars expected") e')

let test_subst_width_check () =
  let a = Expr.var "a" 8 in
  Alcotest.check_raises "subst wrong width"
    (Invalid_argument "Expr.subst: a has width 8, replacement has width 4") (fun () ->
      ignore (Expr.subst (fun _ -> Some (Expr.const_int ~width:4 0)) a))

let test_map_vars () =
  let a = Expr.var "a" 8 in
  let e = Expr.map_vars (fun v -> { v with Expr.name = "copy1__" ^ v.Expr.name }) a in
  Alcotest.(check (list string)) "renamed" [ "copy1__a" ]
    (List.map (fun v -> v.Expr.name) (Expr.vars e))

let test_conj_disj () =
  let t = Expr.bool_ true and f = Expr.bool_ false in
  let ev e = Bv.to_bool (Expr.eval (fun _ -> assert false) e) in
  Alcotest.(check bool) "conj []" true (ev (Expr.conj []));
  Alcotest.(check bool) "disj []" false (ev (Expr.disj []));
  Alcotest.(check bool) "conj [t;f]" false (ev (Expr.conj [ t; f ]));
  Alcotest.(check bool) "disj [f;t]" true (ev (Expr.disj [ f; t ]));
  Alcotest.(check bool) "implies f x" true (ev (Expr.implies f f))

let test_pp () =
  let a = Expr.var "a" 8 and b = Expr.var "b" 8 in
  Alcotest.(check string) "pp" "a add b" (Expr.to_string (Expr.add a b))

(* --- eval / blast agreement ------------------------------------------ *)

(* Generate a random well-formed expression of the given width over
   variables a, b (same width) and c (1 bit). *)
let gen_expr ~width:w =
  let open QCheck.Gen in
  let rec expr w depth =
    if depth = 0 then leaf w
    else
      frequency
        [
          (1, leaf w);
          (6, binop w depth);
          (2, unop_gen w depth);
          (2, ite_gen w depth);
          (1, structural w depth);
        ]
  and leaf w =
    QCheck.Gen.oneof
      [
        (int_bound ((1 lsl w) - 1) >>= fun v -> return (Expr.const_int ~width:w v));
        (if w = 1 then return (Expr.var "c" 1)
         else oneof [ return (Expr.var "a" w); return (Expr.var "b" w) ]);
      ]
  and binop w depth =
    let sub = expr w (depth - 1) in
    oneof
      [
        (pair sub sub >>= fun (a, b) -> return (Expr.add a b));
        (pair sub sub >>= fun (a, b) -> return (Expr.sub a b));
        (pair sub sub >>= fun (a, b) -> return (Expr.mul a b));
        (pair sub sub >>= fun (a, b) -> return (Expr.udiv a b));
        (pair sub sub >>= fun (a, b) -> return (Expr.urem a b));
        (pair sub sub >>= fun (a, b) -> return (Expr.and_ a b));
        (pair sub sub >>= fun (a, b) -> return (Expr.or_ a b));
        (pair sub sub >>= fun (a, b) -> return (Expr.xor a b));
        (pair sub sub >>= fun (a, b) -> return (Expr.shl a b));
        (pair sub sub >>= fun (a, b) -> return (Expr.lshr a b));
        (pair sub sub >>= fun (a, b) -> return (Expr.ashr a b));
      ]
  and unop_gen w depth =
    let sub = expr w (depth - 1) in
    oneof
      [ (sub >>= fun a -> return (Expr.not_ a)); (sub >>= fun a -> return (Expr.neg a)) ]
  and ite_gen w depth =
    expr 1 (depth - 1) >>= fun c ->
    (* Comparisons give more interesting 1-bit conditions. *)
    let cond =
      if w = 1 then return c
      else
        oneof
          [
            return c;
            (pair (expr w (depth - 1)) (expr w (depth - 1)) >>= fun (a, b) ->
             oneofl
               [ Expr.eq a b; Expr.ne a b; Expr.ult a b; Expr.ule a b; Expr.slt a b; Expr.sle a b ]);
          ]
    in
    cond >>= fun c ->
    pair (expr w (depth - 1)) (expr w (depth - 1)) >>= fun (a, b) ->
    return (Expr.ite c a b)
  and structural w depth =
    if w < 2 then
      (* Reductions produce 1-bit results from wider operands. *)
      expr 4 (depth - 1) >>= fun a ->
      oneofl [ Expr.red_and a; Expr.red_or a; Expr.red_xor a ]
    else
      oneof
        [
          (* concat of a split *)
          (int_range 1 (w - 1) >>= fun lo_w ->
           pair (expr (w - lo_w) (depth - 1)) (expr lo_w (depth - 1)) >>= fun (hi, lo) ->
           return (Expr.concat hi lo));
          (* extract from a wider expression *)
          (expr (w + 2) (depth - 1) >>= fun a ->
           int_range 0 1 >>= fun lo -> return (Expr.extract ~hi:(lo + w - 1) ~lo a));
          (* extension of a narrower expression *)
          (expr (w - 1) (depth - 1) >>= fun a ->
           oneofl [ Expr.zero_extend a w; Expr.sign_extend a w ]);
        ]
  in
  let open QCheck.Gen in
  int_range 0 3 >>= fun depth -> expr w depth

let gen_case =
  QCheck.Gen.(
    oneofl [ 1; 3; 4; 7; 8 ] >>= fun w ->
    gen_expr ~width:w >>= fun e ->
    int_bound ((1 lsl w) - 1) >>= fun va ->
    int_bound ((1 lsl w) - 1) >>= fun vb ->
    bool >>= fun vc -> return (w, e, va, vb, vc))

let arb_case =
  QCheck.make
    ~print:(fun (w, e, va, vb, vc) ->
      Printf.sprintf "w=%d a=%d b=%d c=%b e=%s" w va vb vc (Expr.to_string e))
    gen_case

(* The generator may mention the same variable name at several widths (e.g.
   inside an [extract] of a wider subexpression), so base values are
   truncated to each occurrence's width — consistently in both
   interpretations. *)
let base_value ~va ~vb ~vc name =
  match name with
  | "a" -> va
  | "b" -> vb
  | "c" -> if vc then 1 else 0
  | other -> Alcotest.fail ("unexpected var " ^ other)

let eval_case (_w, e, va, vb, vc) =
  let env v = Bv.make ~width:v.Expr.width (base_value ~va ~vb ~vc v.Expr.name) in
  Expr.eval env e

let prop_blast_matches_eval =
  QCheck.Test.make ~count:800 ~name:"blast agrees with eval" arb_case
    (fun ((_w, e, va, vb, vc) as case) ->
      let g = Aig.create () in
      let table : (string * int, Aig.lit array) Hashtbl.t = Hashtbl.create 8 in
      let env v =
        let key = (v.Expr.name, v.Expr.width) in
        match Hashtbl.find_opt table key with
        | Some bits -> bits
        | None ->
            let bits = Array.init v.Expr.width (fun _ -> Aig.fresh_input g) in
            Hashtbl.add table key bits;
            bits
      in
      let out_bits = Expr.blast g env e in
      (* Assemble the concrete input vector for AIG evaluation. *)
      let inputs = Array.make (max 1 (Aig.num_inputs g)) false in
      Hashtbl.iter
        (fun (name, _width) bits ->
          let v = base_value ~va ~vb ~vc name in
          Array.iteri
            (fun i l ->
              match Aig.input_index g l with
              | Some idx -> inputs.(idx) <- v land (1 lsl i) <> 0
              | None -> ())
            bits)
        table;
      let expected = eval_case case in
      let got =
        Array.to_list out_bits
        |> List.mapi (fun i l -> (i, Aig.eval g inputs l))
        |> List.fold_left (fun acc (i, b) -> if b then acc lor (1 lsl i) else acc) 0
      in
      Array.length out_bits = Bv.width expected && got = Bv.to_int expected)

let prop_simplify_preserves_eval =
  QCheck.Test.make ~count:800 ~name:"simplify preserves evaluation" arb_case
    (fun ((_w, e, _va, _vb, _vc) as case) ->
      let simplified_case =
        let (w, _, va, vb, vc) = case in
        (w, Expr.simplify e, va, vb, vc)
      in
      Bv.equal (eval_case case) (eval_case simplified_case))

let prop_simplify_never_grows =
  QCheck.Test.make ~count:500 ~name:"simplify never grows the term" arb_case
    (fun (_w, e, _va, _vb, _vc) -> Expr.size (Expr.simplify e) <= Expr.size e)

let prop_simplify_idempotent =
  QCheck.Test.make ~count:500 ~name:"simplify is idempotent" arb_case
    (fun (_w, e, _va, _vb, _vc) ->
      let once = Expr.simplify e in
      Expr.equal (Expr.simplify once) once)

let test_simplify_rules () =
  let a = Expr.var "a" 8 in
  let z = Expr.const_int ~width:8 0 in
  let check name expected e =
    Alcotest.(check bool) name true (Expr.equal (Expr.simplify e) expected)
  in
  check "e+0" a (Expr.add a z);
  check "0+e" a (Expr.add z a);
  check "e*0" z (Expr.mul a z);
  check "e&ones" a (Expr.and_ a (Expr.const_int ~width:8 255));
  check "e|0" a (Expr.or_ a z);
  check "e^e" z (Expr.xor a a);
  check "e-e" z (Expr.sub a a);
  check "~~e" a (Expr.not_ (Expr.not_ a));
  check "ite true" a (Expr.ite (Expr.bool_ true) a z);
  check "ite same" a (Expr.ite (Expr.var "c" 1) a a);
  check "full extract" a (Expr.extract ~hi:7 ~lo:0 a);
  check "const fold"
    (Expr.const_int ~width:8 12)
    (Expr.add (Expr.const_int ~width:8 5) (Expr.const_int ~width:8 7));
  check "eq self" (Expr.bool_ true) (Expr.eq a a);
  check "ult self" (Expr.bool_ false) (Expr.ult a a)

let prop_vars_subset =
  QCheck.Test.make ~count:300 ~name:"vars come from the generator alphabet" arb_case
    (fun (_, e, _, _, _) ->
      List.for_all (fun v -> List.mem v.Expr.name [ "a"; "b"; "c" ]) (Expr.vars e))

let suite =
  [
    ("expr.width_checks", `Quick, test_width_checks);
    ("expr.widths", `Quick, test_widths);
    ("expr.eval_basic", `Quick, test_eval_basic);
    ("expr.env_width_check", `Quick, test_eval_env_width_check);
    ("expr.vars", `Quick, test_vars);
    ("expr.subst", `Quick, test_subst);
    ("expr.subst_width", `Quick, test_subst_width_check);
    ("expr.map_vars", `Quick, test_map_vars);
    ("expr.conj_disj", `Quick, test_conj_disj);
    ("expr.pp", `Quick, test_pp);
    ("expr.simplify_rules", `Quick, test_simplify_rules);
    Qc.to_alcotest prop_blast_matches_eval;
    Qc.to_alcotest prop_simplify_preserves_eval;
    Qc.to_alcotest prop_simplify_never_grows;
    Qc.to_alcotest prop_simplify_idempotent;
    Qc.to_alcotest prop_vars_subset;
  ]
