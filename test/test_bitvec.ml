(* Bit-vector tests: unit cases for each operation plus qcheck properties
   checking algebraic laws and agreement with native integer arithmetic. *)

module Bv = Bitvec

let bv = Alcotest.testable Bv.pp Bv.equal

let test_make_truncates () =
  Alcotest.(check int) "truncate" 0 (Bv.to_int (Bv.make ~width:4 16));
  Alcotest.(check int) "wrap" 5 (Bv.to_int (Bv.make ~width:4 21));
  Alcotest.(check int) "negative two's complement" 15 (Bv.to_int (Bv.make ~width:4 (-1)))

let test_make_bad_width () =
  Alcotest.check_raises "width 0" (Invalid_argument "Bitvec: width 0 out of range [1,62]")
    (fun () -> ignore (Bv.make ~width:0 1));
  Alcotest.check_raises "width 63" (Invalid_argument "Bitvec: width 63 out of range [1,62]")
    (fun () -> ignore (Bv.make ~width:63 1))

let test_signed () =
  Alcotest.(check int) "positive" 3 (Bv.to_signed_int (Bv.make ~width:4 3));
  Alcotest.(check int) "negative" (-1) (Bv.to_signed_int (Bv.make ~width:4 15));
  Alcotest.(check int) "min" (-8) (Bv.to_signed_int (Bv.make ~width:4 8))

let test_bits_roundtrip () =
  let v = Bv.make ~width:6 0b101101 in
  Alcotest.(check (list bool)) "to_bits" [ true; false; true; true; false; true ] (Bv.to_bits v);
  Alcotest.check bv "roundtrip" v (Bv.of_bits (Bv.to_bits v));
  Alcotest.(check bool) "bit 0" true (Bv.bit v 0);
  Alcotest.(check bool) "bit 1" false (Bv.bit v 1);
  Alcotest.(check bool) "bit 5" true (Bv.bit v 5)

let test_arith () =
  let m w i = Bv.make ~width:w i in
  Alcotest.check bv "add wrap" (m 8 4) (Bv.add (m 8 250) (m 8 10));
  Alcotest.check bv "sub wrap" (m 8 246) (Bv.sub (m 8 0) (m 8 10));
  Alcotest.check bv "neg" (m 8 246) (Bv.neg (m 8 10));
  Alcotest.check bv "mul" (m 8 44) (Bv.mul (m 8 100) (m 8 3));
  Alcotest.check bv "udiv" (m 8 33) (Bv.udiv (m 8 100) (m 8 3));
  Alcotest.check bv "urem" (m 8 1) (Bv.urem (m 8 100) (m 8 3));
  Alcotest.check bv "udiv by zero" (Bv.ones 8) (Bv.udiv (m 8 5) (m 8 0));
  Alcotest.check bv "urem by zero" (m 8 5) (Bv.urem (m 8 5) (m 8 0))

let test_mul_wide () =
  (* Exercise the split-multiply path for widths > 31. *)
  let w = 40 in
  let a = Bv.make ~width:w 123456789 and b = Bv.make ~width:w 987654321 in
  let expected = 123456789 * 987654321 land ((1 lsl w) - 1) in
  Alcotest.(check int) "wide mul" expected (Bv.to_int (Bv.mul a b))

let test_logic () =
  let m i = Bv.make ~width:4 i in
  Alcotest.check bv "and" (m 0b1000) (Bv.logand (m 0b1100) (m 0b1010));
  Alcotest.check bv "or" (m 0b1110) (Bv.logor (m 0b1100) (m 0b1010));
  Alcotest.check bv "xor" (m 0b0110) (Bv.logxor (m 0b1100) (m 0b1010));
  Alcotest.check bv "not" (m 0b0011) (Bv.lognot (m 0b1100))

let test_shifts () =
  let m i = Bv.make ~width:8 i in
  Alcotest.check bv "shl" (m 0b10100) (Bv.shl (m 0b101) (m 2));
  Alcotest.check bv "shl overflow" (m 0) (Bv.shl (m 0xff) (m 8));
  Alcotest.check bv "lshr" (m 0b1) (Bv.lshr (m 0b101) (m 2));
  Alcotest.check bv "ashr positive" (m 0b1) (Bv.ashr (m 0b101) (m 2));
  Alcotest.check bv "ashr negative" (m 0b11100000) (Bv.ashr (m 0b10000000) (m 2));
  Alcotest.check bv "ashr all the way" (m 0xff) (Bv.ashr (m 0x80) (m 8));
  Alcotest.check bv "huge shift amount" (m 0) (Bv.shl (m 1) (m 200))

let test_comparisons () =
  let m i = Bv.make ~width:4 i in
  let t = Bv.of_bool true and f = Bv.of_bool false in
  Alcotest.check bv "eq" t (Bv.eq (m 3) (m 3));
  Alcotest.check bv "ne" t (Bv.ne (m 3) (m 4));
  Alcotest.check bv "ult" t (Bv.ult (m 3) (m 4));
  Alcotest.check bv "ult false" f (Bv.ult (m 4) (m 3));
  Alcotest.check bv "slt negative" t (Bv.slt (m 15) (m 0));
  Alcotest.check bv "sle equal" t (Bv.sle (m 7) (m 7));
  Alcotest.check bv "ule" t (Bv.ule (m 3) (m 3))

let test_structure () =
  let hi = Bv.make ~width:4 0xA and lo = Bv.make ~width:4 0x5 in
  let c = Bv.concat hi lo in
  Alcotest.(check int) "concat value" 0xA5 (Bv.to_int c);
  Alcotest.(check int) "concat width" 8 (Bv.width c);
  Alcotest.check bv "extract hi" hi (Bv.extract ~hi:7 ~lo:4 c);
  Alcotest.check bv "extract lo" lo (Bv.extract ~hi:3 ~lo:0 c);
  Alcotest.(check int) "extract single bit" 1 (Bv.to_int (Bv.extract ~hi:0 ~lo:0 c));
  Alcotest.(check int) "zero extend" 0xA5 (Bv.to_int (Bv.zero_extend c 16));
  Alcotest.(check int) "sign extend" 0xFFA5 (Bv.to_int (Bv.sign_extend c 16));
  Alcotest.(check int) "sign extend positive" 0x25
    (Bv.to_int (Bv.sign_extend (Bv.make ~width:8 0x25) 16))

let test_reductions () =
  let m w i = Bv.make ~width:w i in
  Alcotest.(check bool) "reduce_and ones" true (Bv.to_bool (Bv.reduce_and (Bv.ones 5)));
  Alcotest.(check bool) "reduce_and not" false (Bv.to_bool (Bv.reduce_and (m 5 30)));
  Alcotest.(check bool) "reduce_or zero" false (Bv.to_bool (Bv.reduce_or (Bv.zero 5)));
  Alcotest.(check bool) "reduce_or" true (Bv.to_bool (Bv.reduce_or (m 5 4)));
  Alcotest.(check bool) "reduce_xor odd" true (Bv.to_bool (Bv.reduce_xor (m 5 0b10110)));
  Alcotest.(check bool) "reduce_xor even" false (Bv.to_bool (Bv.reduce_xor (m 5 0b10010)));
  Alcotest.(check int) "popcount" 3 (Bv.to_int (Bv.popcount (m 8 0b10110000)))

let test_ite () =
  let a = Bv.make ~width:8 1 and b = Bv.make ~width:8 2 in
  Alcotest.check bv "then" a (Bv.ite (Bv.of_bool true) a b);
  Alcotest.check bv "else" b (Bv.ite (Bv.of_bool false) a b)

let test_printing () =
  Alcotest.(check string) "decimal" "8'd42" (Bv.to_string (Bv.make ~width:8 42));
  Alcotest.(check string) "hex" "8'h2a" (Format.asprintf "%a" Bv.pp_hex (Bv.make ~width:8 42))

let test_width_mismatch_raises () =
  let a = Bv.make ~width:4 1 and b = Bv.make ~width:5 1 in
  Alcotest.check_raises "add" (Invalid_argument "Bitvec.add: width mismatch (4 vs 5)")
    (fun () -> ignore (Bv.add a b))

(* Properties *)
let gen_pair =
  QCheck.Gen.(
    int_range 1 32 >>= fun w ->
    int_bound ((1 lsl w) - 1) >>= fun a ->
    int_bound ((1 lsl w) - 1) >>= fun b -> return (w, a, b))

let arb_pair =
  QCheck.make ~print:(fun (w, a, b) -> Printf.sprintf "w=%d a=%d b=%d" w a b) gen_pair

let prop name f = QCheck.Test.make ~count:1000 ~name arb_pair f

let props =
  [
    prop "add agrees with int" (fun (w, a, b) ->
        Bv.to_int (Bv.add (Bv.make ~width:w a) (Bv.make ~width:w b))
        = (a + b) land ((1 lsl w) - 1));
    prop "mul agrees with int" (fun (w, a, b) ->
        Bv.to_int (Bv.mul (Bv.make ~width:w a) (Bv.make ~width:w b))
        = a * b land ((1 lsl w) - 1));
    prop "sub then add is identity" (fun (w, a, b) ->
        let bb = Bv.make ~width:w b in
        Bv.equal (Bv.add (Bv.sub (Bv.make ~width:w a) bb) bb) (Bv.make ~width:w a));
    prop "neg is additive inverse" (fun (w, a, _) ->
        let va = Bv.make ~width:w a in
        Bv.is_zero (Bv.add va (Bv.neg va)));
    prop "lognot involutive" (fun (w, a, _) ->
        let va = Bv.make ~width:w a in
        Bv.equal (Bv.lognot (Bv.lognot va)) va);
    prop "xor self is zero" (fun (w, a, _) ->
        let va = Bv.make ~width:w a in
        Bv.is_zero (Bv.logxor va va));
    prop "de morgan" (fun (w, a, b) ->
        let va = Bv.make ~width:w a and vb = Bv.make ~width:w b in
        Bv.equal (Bv.lognot (Bv.logand va vb)) (Bv.logor (Bv.lognot va) (Bv.lognot vb)));
    prop "udiv/urem reconstruction" (fun (w, a, b) ->
        let va = Bv.make ~width:w a and vb = Bv.make ~width:w b in
        b = 0 || Bv.equal va (Bv.add (Bv.mul (Bv.udiv va vb) vb) (Bv.urem va vb)));
    prop "concat then extract" (fun (w, a, b) ->
        QCheck.assume (2 * w <= Bv.max_width);
        let va = Bv.make ~width:w a and vb = Bv.make ~width:w b in
        let c = Bv.concat va vb in
        Bv.equal va (Bv.extract ~hi:((2 * w) - 1) ~lo:w c)
        && Bv.equal vb (Bv.extract ~hi:(w - 1) ~lo:0 c));
    prop "bits roundtrip" (fun (w, a, _) ->
        let va = Bv.make ~width:w a in
        Bv.equal va (Bv.of_bits (Bv.to_bits va)));
    prop "ult is strict total order vs eq" (fun (w, a, b) ->
        let va = Bv.make ~width:w a and vb = Bv.make ~width:w b in
        let lt = Bv.to_bool (Bv.ult va vb)
        and gt = Bv.to_bool (Bv.ult vb va)
        and eq = Bv.to_bool (Bv.eq va vb) in
        List.length (List.filter (fun x -> x) [ lt; gt; eq ]) = 1);
    prop "slt agrees with signed ints" (fun (w, a, b) ->
        let va = Bv.make ~width:w a and vb = Bv.make ~width:w b in
        Bv.to_bool (Bv.slt va vb) = (Bv.to_signed_int va < Bv.to_signed_int vb));
    prop "shift equivalence with mul/div by powers of two" (fun (w, a, b) ->
        let n = b mod w in
        let va = Bv.make ~width:w a in
        Bv.to_int (Bv.shl_int va n) = a lsl n land ((1 lsl w) - 1)
        && Bv.to_int (Bv.lshr_int va n) = a lsr n);
    prop "sign_extend preserves signed value" (fun (w, a, _) ->
        QCheck.assume (w + 8 <= Bv.max_width);
        let va = Bv.make ~width:w a in
        Bv.to_signed_int (Bv.sign_extend va (w + 8)) = Bv.to_signed_int va);
    prop "popcount matches to_bits" (fun (w, a, _) ->
        let va = Bv.make ~width:w a in
        Bv.to_int (Bv.popcount va)
        = List.length (List.filter (fun x -> x) (Bv.to_bits va)));
  ]

(* A naive reference model over LSB-first bit lists: ripple-carry adder,
   shift-and-add multiplier, MSB-down comparison, bit-list shifts. Shares
   nothing with the packed-int implementation, and covers the full width
   range 1..max_width (the native-int props above stop at 32 because they
   compare against untruncated [int] arithmetic). *)
module Ref = struct
  let of_bv v = List.init (Bv.width v) (Bv.bit v)

  let to_bv bits = Bv.of_bits (List.rev bits)

  let add a b =
    let rec go carry = function
      | [], [] -> []
      | x :: xs, y :: ys ->
          let s = (if x then 1 else 0) + (if y then 1 else 0) + if carry then 1 else 0 in
          (s land 1 = 1) :: go (s >= 2) (xs, ys)
      | _ -> invalid_arg "Ref.add"
    in
    go false (a, b)

  let lognot = List.map not

  let one_like a = List.mapi (fun i _ -> i = 0) a

  let neg a = add (lognot a) (one_like a)

  let sub a b = add a (neg b)

  let mul a b =
    (* Shift-and-add, truncating to the operand width. *)
    let w = List.length a in
    let shift1 bits = List.filteri (fun i _ -> i < w) (false :: bits) in
    let rec go acc a = function
      | [] -> acc
      | y :: ys -> go (if y then add acc a else acc) (shift1 a) ys
    in
    go (List.map (fun _ -> false) a) a b

  (* Unsigned less-than by scanning from the most significant bit. *)
  let ult a b =
    let rec go = function
      | [], [] -> false
      | x :: xs, y :: ys -> if x <> y then y else go (xs, ys)
      | _ -> invalid_arg "Ref.ult"
    in
    go (List.rev a, List.rev b)

  let ule a b = a = b || ult a b

  let sign a = match List.rev a with s :: _ -> s | [] -> false

  let slt a b =
    (* Negative < non-negative; same sign defers to the unsigned order. *)
    match (sign a, sign b) with
    | true, false -> true
    | false, true -> false
    | _ -> ult a b

  let sle a b = a = b || slt a b

  let shift_amount b =
    List.fold_right (fun bit acc -> (2 * acc) + if bit then 1 else 0) b 0

  let shl a b =
    let w = List.length a and n = shift_amount b in
    if n >= w then List.map (fun _ -> false) a
    else List.filteri (fun i _ -> i < w) (List.init n (fun _ -> false) @ a)

  let lshr a b =
    let w = List.length a and n = shift_amount b in
    if n >= w then List.map (fun _ -> false) a
    else List.filteri (fun i _ -> i >= n) a @ List.init n (fun _ -> false)

  let ashr a b =
    let w = List.length a and n = shift_amount b in
    let fill = sign a in
    if n >= w then List.map (fun _ -> fill) a
    else List.filteri (fun i _ -> i >= n) a @ List.init n (fun _ -> fill)
end

(* Width-biased generator: all widths 1..max_width (the issue of record says
   up to 128 bits; the packed-int representation caps at [Bv.max_width] = 62,
   and the width-0 / over-limit cases are covered by the raising tests
   below), with the all-zeros / all-ones / one corners drawn often. *)
let gen_wide_pair =
  QCheck.Gen.(
    int_range 1 Bv.max_width >>= fun w ->
    let value =
      frequency
        [
          (1, return (Bv.zero w));
          (1, return (Bv.ones w));
          (1, return (Bv.one w));
          ( 5,
            (* Uniform over a random-magnitude low chunk so small and large
               values both appear at every width. *)
            int_bound (min w 60) >>= fun hi ->
            int_bound ((1 lsl (hi + 1)) - 1) >>= fun v ->
            return (Bv.make ~width:w v) );
        ]
    in
    value >>= fun a ->
    value >>= fun b -> return (w, a, b))

let arb_wide_pair =
  QCheck.make
    ~print:(fun (w, a, b) ->
      Printf.sprintf "w=%d a=%s b=%s" w (Bv.to_string a) (Bv.to_string b))
    gen_wide_pair

let wprop name f = QCheck.Test.make ~count:1000 ~name arb_wide_pair f

let ref_props =
  let bveq impl reference = Bv.equal impl (Ref.to_bv reference) in
  [
    wprop "add matches bit-list reference" (fun (_, a, b) ->
        bveq (Bv.add a b) (Ref.add (Ref.of_bv a) (Ref.of_bv b)));
    wprop "sub matches bit-list reference" (fun (_, a, b) ->
        bveq (Bv.sub a b) (Ref.sub (Ref.of_bv a) (Ref.of_bv b)));
    wprop "neg matches bit-list reference" (fun (_, a, _) ->
        bveq (Bv.neg a) (Ref.neg (Ref.of_bv a)));
    wprop "mul matches bit-list reference" (fun (_, a, b) ->
        bveq (Bv.mul a b) (Ref.mul (Ref.of_bv a) (Ref.of_bv b)));
    wprop "ult matches bit-list reference" (fun (_, a, b) ->
        Bv.to_bool (Bv.ult a b) = Ref.ult (Ref.of_bv a) (Ref.of_bv b));
    wprop "ule matches bit-list reference" (fun (_, a, b) ->
        Bv.to_bool (Bv.ule a b) = Ref.ule (Ref.of_bv a) (Ref.of_bv b));
    wprop "slt matches bit-list reference" (fun (_, a, b) ->
        Bv.to_bool (Bv.slt a b) = Ref.slt (Ref.of_bv a) (Ref.of_bv b));
    wprop "sle matches bit-list reference" (fun (_, a, b) ->
        Bv.to_bool (Bv.sle a b) = Ref.sle (Ref.of_bv a) (Ref.of_bv b));
    wprop "shl matches bit-list reference" (fun (_, a, b) ->
        bveq (Bv.shl a b) (Ref.shl (Ref.of_bv a) (Ref.of_bv b)));
    wprop "lshr matches bit-list reference" (fun (_, a, b) ->
        bveq (Bv.lshr a b) (Ref.lshr (Ref.of_bv a) (Ref.of_bv b)));
    wprop "ashr matches bit-list reference" (fun (_, a, b) ->
        bveq (Bv.ashr a b) (Ref.ashr (Ref.of_bv a) (Ref.of_bv b)));
  ]

let test_out_of_range_widths_raise () =
  (* Widths beyond the representation (including the issue's nominal 128)
     must fail loudly at construction, never truncate silently. *)
  List.iter
    (fun w ->
      match Bv.make ~width:w 0 with
      | _ -> Alcotest.failf "width %d accepted" w
      | exception Invalid_argument _ -> ())
    [ 0; -1; 63; 64; 128 ]

let test_all_ones_corners () =
  let w = Bv.max_width in
  let v = Bv.ones w in
  Alcotest.check bv "ones + 1 wraps to zero" (Bv.zero w) (Bv.add v (Bv.one w));
  Alcotest.check bv "ones is -1" v (Bv.make ~width:w (-1));
  Alcotest.(check int) "signed value" (-1) (Bv.to_signed_int v);
  Alcotest.(check bool) "slt min" true
    (Bv.to_bool (Bv.slt v (Bv.zero w)));
  Alcotest.check bv "mul by ones negates" (Bv.neg (Bv.make ~width:w 12345))
    (Bv.mul (Bv.make ~width:w 12345) v)

let suite =
  [
    ("bitvec.make", `Quick, test_make_truncates);
    ("bitvec.bad_width", `Quick, test_make_bad_width);
    ("bitvec.signed", `Quick, test_signed);
    ("bitvec.bits", `Quick, test_bits_roundtrip);
    ("bitvec.arith", `Quick, test_arith);
    ("bitvec.mul_wide", `Quick, test_mul_wide);
    ("bitvec.logic", `Quick, test_logic);
    ("bitvec.shifts", `Quick, test_shifts);
    ("bitvec.comparisons", `Quick, test_comparisons);
    ("bitvec.structure", `Quick, test_structure);
    ("bitvec.reductions", `Quick, test_reductions);
    ("bitvec.ite", `Quick, test_ite);
    ("bitvec.printing", `Quick, test_printing);
    ("bitvec.width_mismatch", `Quick, test_width_mismatch_raises);
    ("bitvec.out_of_range_widths", `Quick, test_out_of_range_widths_raise);
    ("bitvec.all_ones_corners", `Quick, test_all_ones_corners);
  ]
  @ List.map Qc.to_alcotest props
  @ List.map Qc.to_alcotest ref_props
