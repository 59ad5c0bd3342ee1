(* RTL layer tests: validation, simulation semantics, transformations and
   the memory helpers. *)

module Bv = Bitvec

let bv = Alcotest.testable Bv.pp Bv.equal

(* A 4-bit counter with an enable input. *)
let counter () =
  let count = Expr.var "count" 4 and enable = Expr.var "enable" 1 in
  Rtl.make ~name:"counter"
    ~inputs:[ { Expr.name = "enable"; width = 1 } ]
    ~registers:
      [
        {
          Rtl.reg = { Expr.name = "count"; width = 4 };
          init = Bv.zero 4;
          next = Expr.ite enable (Expr.add count (Expr.const_int ~width:4 1)) count;
        };
      ]
    ~outputs:[ ("value", count) ]

let val1 pairs =
  List.fold_left (fun m (k, v) -> Rtl.Smap.add k v m) Rtl.Smap.empty pairs

let test_validation_errors () =
  let bad_width () =
    Rtl.make ~name:"bad" ~inputs:[]
      ~registers:
        [
          {
            Rtl.reg = { Expr.name = "r"; width = 4 };
            init = Bv.zero 8;
            next = Expr.var "r" 4;
          };
        ]
      ~outputs:[]
  in
  (match bad_width () with
  | exception Invalid_argument msg ->
      Alcotest.(check bool) "mentions init width" true
        (String.length msg > 0
        && Option.is_some (String.index_opt msg 'i'))
  | _ -> Alcotest.fail "expected Invalid_argument");
  let dup () =
    Rtl.make ~name:"dup"
      ~inputs:[ { Expr.name = "x"; width = 1 }; { Expr.name = "x"; width = 1 } ]
      ~registers:[] ~outputs:[]
  in
  (match dup () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected duplicate-name error");
  let undeclared () =
    Rtl.make ~name:"scope" ~inputs:[] ~registers:[]
      ~outputs:[ ("y", Expr.var "phantom" 4) ]
  in
  match undeclared () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected undeclared-variable error"

let test_validate_result () =
  match
    Rtl.validate ~name:"v" ~inputs:[]
      ~registers:
        [
          {
            Rtl.reg = { Expr.name = "r"; width = 4 };
            init = Bv.zero 4;
            next = Expr.var "missing" 4;
          };
        ]
      ~outputs:[]
  with
  | Ok () -> Alcotest.fail "expected validation failure"
  | Error errs -> Alcotest.(check bool) "one error" true (List.length errs = 1)

let test_counter_simulation () =
  let d = counter () in
  let on = val1 [ ("enable", Bv.one 1) ] and off = val1 [ ("enable", Bv.zero 1) ] in
  let trace = Rtl.simulate d [ on; on; off; on ] in
  let values =
    List.map (fun step -> Bv.to_int (Rtl.Smap.find "value" step.Rtl.t_outputs)) trace
  in
  Alcotest.(check (list int)) "counter values" [ 0; 1; 2; 2 ] values

let test_counter_wraps () =
  let d = counter () in
  let on = val1 [ ("enable", Bv.one 1) ] in
  let trace = Rtl.simulate d (List.init 17 (fun _ -> on)) in
  let last = List.nth trace 16 in
  Alcotest.check bv "wrapped to 0" (Bv.zero 4) (Rtl.Smap.find "value" last.Rtl.t_outputs)

let test_missing_input_raises () =
  let d = counter () in
  Alcotest.(check bool) "raises" true
    (match Rtl.simulate d [ Rtl.Smap.empty ] with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_wrong_width_input_raises () =
  let d = counter () in
  Alcotest.(check bool) "raises" true
    (match Rtl.simulate d [ val1 [ ("enable", Bv.zero 4) ] ] with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_rename () =
  let d = Rtl.rename ~prefix:"c1__" (counter ()) in
  Alcotest.(check string) "design name" "c1__counter" d.Rtl.name;
  let on = val1 [ ("c1__enable", Bv.one 1) ] in
  let trace = Rtl.simulate d [ on; on ] in
  let last = List.nth trace 1 in
  Alcotest.check bv "renamed output" (Bv.one 4) (Rtl.Smap.find "c1__value" last.Rtl.t_outputs)

let test_product () =
  let a = Rtl.rename ~prefix:"a__" (counter ()) in
  let b = Rtl.rename ~prefix:"b__" (counter ()) in
  let p = Rtl.product a b in
  let inputs = val1 [ ("a__enable", Bv.one 1); ("b__enable", Bv.zero 1) ] in
  let trace = Rtl.simulate p [ inputs; inputs; inputs ] in
  let last = List.nth trace 2 in
  Alcotest.check bv "a counts" (Bv.make ~width:4 2) (Rtl.Smap.find "a__value" last.Rtl.t_outputs);
  Alcotest.check bv "b frozen" (Bv.zero 4) (Rtl.Smap.find "b__value" last.Rtl.t_outputs)

let test_product_name_clash () =
  let d = counter () in
  match Rtl.product d d with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected name clash"

let test_stats () =
  let state_bits, input_bits, nodes = Rtl.stats (counter ()) in
  Alcotest.(check int) "state bits" 4 state_bits;
  Alcotest.(check int) "input bits" 1 input_bits;
  Alcotest.(check bool) "nodes positive" true (nodes > 0)

let test_simulate_from () =
  let d = counter () in
  let start = val1 [ ("count", Bv.make ~width:4 9) ] in
  let on = val1 [ ("enable", Bv.one 1) ] in
  let trace = Rtl.simulate_from d start [ on ] in
  Alcotest.check bv "starts at 9" (Bv.make ~width:4 9)
    (Rtl.Smap.find "value" (List.hd trace).Rtl.t_outputs)

(* A 4-word x 8-bit register file exercising the memory helpers. *)
let regfile () =
  let word i = Expr.var (Printf.sprintf "w%d" i) 8 in
  let words = Array.init 4 word in
  let waddr = Expr.var "waddr" 2
  and wdata = Expr.var "wdata" 8
  and wen = Expr.var "wen" 1
  and raddr = Expr.var "raddr" 2 in
  let written = Rtl.Mem.write (Array.map (fun w -> w) words) ~addr:waddr ~data:wdata in
  Rtl.make ~name:"regfile"
    ~inputs:
      [
        { Expr.name = "waddr"; width = 2 };
        { Expr.name = "wdata"; width = 8 };
        { Expr.name = "wen"; width = 1 };
        { Expr.name = "raddr"; width = 2 };
      ]
    ~registers:
      (List.init 4 (fun i ->
           {
             Rtl.reg = { Expr.name = Printf.sprintf "w%d" i; width = 8 };
             init = Bv.zero 8;
             next = Expr.ite wen written.(i) words.(i);
           }))
    ~outputs:[ ("rdata", Rtl.Mem.read (Array.map (fun w -> w) words) ~addr:raddr) ]

let test_regfile () =
  let d = regfile () in
  let wr addr data =
    val1
      [
        ("waddr", Bv.make ~width:2 addr);
        ("wdata", Bv.make ~width:8 data);
        ("wen", Bv.one 1);
        ("raddr", Bv.zero 2);
      ]
  in
  let rd addr =
    val1
      [
        ("waddr", Bv.zero 2);
        ("wdata", Bv.zero 8);
        ("wen", Bv.zero 1);
        ("raddr", Bv.make ~width:2 addr);
      ]
  in
  let trace = Rtl.simulate d [ wr 2 0xAB; wr 1 0xCD; rd 2; rd 1; rd 0 ] in
  let out k = Bv.to_int (Rtl.Smap.find "rdata" (List.nth trace k).Rtl.t_outputs) in
  Alcotest.(check int) "read w2" 0xAB (out 2);
  Alcotest.(check int) "read w1" 0xCD (out 3);
  Alcotest.(check int) "read w0 untouched" 0 (out 4)

let test_mem_read_width_mismatch () =
  match Rtl.Mem.read [||] ~addr:(Expr.var "a" 2) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected empty-memory error"

let test_compose () =
  (* counter -> comparator: flag = (count >= 3), built by composition. *)
  let a = counter () in
  let thresh = Expr.var "t_in" 4 in
  let b =
    Rtl.make ~name:"cmp"
      ~inputs:[ { Expr.name = "t_in"; width = 4 } ]
      ~registers:[]
      ~outputs:[ ("flag", Expr.ule (Expr.const_int ~width:4 3) thresh) ]
  in
  let composed =
    Rtl.compose ~name:"counter_cmp" ~a ~b
      ~connections:[ ("t_in", Expr.var "value" 4) ]
  in
  let on = val1 [ ("enable", Bv.one 1) ] in
  let trace = Rtl.simulate composed (List.init 5 (fun _ -> on)) in
  let flags =
    List.map (fun s -> Bv.to_bool (Rtl.Smap.find "flag" s.Rtl.t_outputs)) trace
  in
  Alcotest.(check (list bool)) "flag rises at count 3"
    [ false; false; false; true; true ]
    flags

let test_compose_width_mismatch () =
  let a = counter () in
  let b =
    Rtl.make ~name:"cmp"
      ~inputs:[ { Expr.name = "t_in"; width = 8 } ]
      ~registers:[]
      ~outputs:[ ("o", Expr.var "t_in" 8) ]
  in
  match
    Rtl.compose ~name:"bad" ~a ~b ~connections:[ ("t_in", Expr.var "value" 4) ]
  with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected width mismatch"

let test_compose_unknown_port () =
  let a = counter () in
  let b =
    Rtl.make ~name:"cmp"
      ~inputs:[ { Expr.name = "t_in"; width = 4 } ]
      ~registers:[]
      ~outputs:[ ("o", Expr.var "t_in" 4) ]
  in
  match
    Rtl.compose ~name:"bad" ~a ~b ~connections:[ ("phantom", Expr.var "value" 4) ]
  with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected unknown-port error"

let test_compose_shared_input_unified () =
  (* Both halves read the same "enable" input; composition unifies it. *)
  let a = counter () in
  let b =
    Rtl.make ~name:"echo"
      ~inputs:[ { Expr.name = "enable"; width = 1 } ]
      ~registers:[]
      ~outputs:[ ("en_out", Expr.var "enable" 1) ]
  in
  let composed = Rtl.compose ~name:"shared" ~a ~b ~connections:[] in
  Alcotest.(check int) "one shared input" 1 (List.length composed.Rtl.inputs)

let suite =
  [
    ("rtl.validation_errors", `Quick, test_validation_errors);
    ("rtl.validate_result", `Quick, test_validate_result);
    ("rtl.counter_simulation", `Quick, test_counter_simulation);
    ("rtl.counter_wraps", `Quick, test_counter_wraps);
    ("rtl.missing_input", `Quick, test_missing_input_raises);
    ("rtl.wrong_width_input", `Quick, test_wrong_width_input_raises);
    ("rtl.rename", `Quick, test_rename);
    ("rtl.product", `Quick, test_product);
    ("rtl.product_clash", `Quick, test_product_name_clash);
    ("rtl.stats", `Quick, test_stats);
    ("rtl.simulate_from", `Quick, test_simulate_from);
    ("rtl.regfile", `Quick, test_regfile);
    ("rtl.mem_empty", `Quick, test_mem_read_width_mismatch);
    ("rtl.compose", `Quick, test_compose);
    ("rtl.compose_width", `Quick, test_compose_width_mismatch);
    ("rtl.compose_unknown", `Quick, test_compose_unknown_port);
    ("rtl.compose_shared", `Quick, test_compose_shared_input_unified);
  ]
