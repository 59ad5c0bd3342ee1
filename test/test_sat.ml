(* SAT solver tests: hand-written cases plus random-CNF cross-validation
   against a brute-force enumerator. *)

module Lit = Sat.Lit
module Solver = Sat.Solver
module Dimacs = Sat.Dimacs

let fresh_vars solver n = List.init n (fun _ -> Solver.new_var solver)

(* Brute-force satisfiability of a clause list over [n] variables. *)
let brute_force n clauses =
  let lit_true assignment l =
    let v = assignment land (1 lsl Lit.var l) <> 0 in
    if Lit.is_neg l then not v else v
  in
  let rec try_assignment a =
    if a >= 1 lsl n then false
    else if List.for_all (List.exists (lit_true a)) clauses then true
    else try_assignment (a + 1)
  in
  try_assignment 0

let check_model solver clauses =
  List.for_all (List.exists (Solver.value solver)) clauses

let test_trivial_sat () =
  let s = Solver.create () in
  let v = Solver.new_var s in
  Solver.add_clause s [ Lit.pos v ];
  Alcotest.(check bool) "sat" true (Solver.solve s = Solver.Sat);
  Alcotest.(check bool) "v true" true (Solver.value s (Lit.pos v))

let test_trivial_unsat () =
  let s = Solver.create () in
  let v = Solver.new_var s in
  Solver.add_clause s [ Lit.pos v ];
  Solver.add_clause s [ Lit.neg v ];
  Alcotest.(check bool) "unsat" true (Solver.solve s = Solver.Unsat);
  Alcotest.(check bool) "not ok" false (Solver.ok s)

let test_empty_clause () =
  let s = Solver.create () in
  ignore (Solver.new_var s);
  Solver.add_clause s [];
  Alcotest.(check bool) "unsat" true (Solver.solve s = Solver.Unsat)

let test_no_clauses () =
  let s = Solver.create () in
  ignore (fresh_vars s 3);
  Alcotest.(check bool) "sat" true (Solver.solve s = Solver.Sat)

let test_unit_propagation_chain () =
  (* x1 and (x_i -> x_{i+1}) forces all true. *)
  let s = Solver.create () in
  let n = 50 in
  let vs = Array.of_list (fresh_vars s n) in
  Solver.add_clause s [ Lit.pos vs.(0) ];
  for i = 0 to n - 2 do
    Solver.add_clause s [ Lit.neg vs.(i); Lit.pos vs.(i + 1) ]
  done;
  Alcotest.(check bool) "sat" true (Solver.solve s = Solver.Sat);
  Array.iter (fun v -> Alcotest.(check bool) "true" true (Solver.value s (Lit.pos v))) vs

let test_pigeonhole_3_2 () =
  (* 3 pigeons, 2 holes: classic small UNSAT with real conflict analysis. *)
  let s = Solver.create () in
  let p = Array.init 3 (fun _ -> Array.init 2 (fun _ -> Solver.new_var s)) in
  for i = 0 to 2 do
    Solver.add_clause s [ Lit.pos p.(i).(0); Lit.pos p.(i).(1) ]
  done;
  for h = 0 to 1 do
    for i = 0 to 2 do
      for j = i + 1 to 2 do
        Solver.add_clause s [ Lit.neg p.(i).(h); Lit.neg p.(j).(h) ]
      done
    done
  done;
  Alcotest.(check bool) "unsat" true (Solver.solve s = Solver.Unsat)

let test_pigeonhole_5_4 () =
  let s = Solver.create () in
  let np = 5 and nh = 4 in
  let p = Array.init np (fun _ -> Array.init nh (fun _ -> Solver.new_var s)) in
  for i = 0 to np - 1 do
    Solver.add_clause s (List.init nh (fun h -> Lit.pos p.(i).(h)))
  done;
  for h = 0 to nh - 1 do
    for i = 0 to np - 1 do
      for j = i + 1 to np - 1 do
        Solver.add_clause s [ Lit.neg p.(i).(h); Lit.neg p.(j).(h) ]
      done
    done
  done;
  Alcotest.(check bool) "unsat" true (Solver.solve s = Solver.Unsat)

let test_assumptions_flip () =
  let s = Solver.create () in
  let a = Solver.new_var s and b = Solver.new_var s in
  Solver.add_clause s [ Lit.pos a; Lit.pos b ];
  Alcotest.(check bool) "sat under a=false" true
    (Solver.solve ~assumptions:[ Lit.neg a ] s = Solver.Sat);
  Alcotest.(check bool) "b forced" true (Solver.value s (Lit.pos b));
  Alcotest.(check bool) "sat under b=false" true
    (Solver.solve ~assumptions:[ Lit.neg b ] s = Solver.Sat);
  Alcotest.(check bool) "a forced" true (Solver.value s (Lit.pos a));
  Alcotest.(check bool) "unsat under both false" true
    (Solver.solve ~assumptions:[ Lit.neg a; Lit.neg b ] s = Solver.Unsat);
  (* Solver must remain usable and satisfiable afterwards. *)
  Alcotest.(check bool) "still sat" true (Solver.solve s = Solver.Sat)

let test_incremental_strengthening () =
  let s = Solver.create () in
  let vs = Array.of_list (fresh_vars s 4) in
  Solver.add_clause s (Array.to_list vs |> List.map Lit.pos);
  Alcotest.(check bool) "sat 1" true (Solver.solve s = Solver.Sat);
  (* Force variables one at a time to false; stays SAT until all are. *)
  for i = 0 to 2 do
    Solver.add_clause s [ Lit.neg vs.(i) ];
    Alcotest.(check bool) "still sat" true (Solver.solve s = Solver.Sat)
  done;
  Solver.add_clause s [ Lit.neg vs.(3) ];
  Alcotest.(check bool) "finally unsat" true (Solver.solve s = Solver.Unsat)

let test_tautology_dropped () =
  let s = Solver.create () in
  let a = Solver.new_var s in
  Solver.add_clause s [ Lit.pos a; Lit.neg a ];
  Alcotest.(check bool) "sat" true (Solver.solve s = Solver.Sat);
  let st = Solver.stats s in
  Alcotest.(check int) "no clause stored" 0 st.Solver.clauses

let test_duplicate_literals () =
  let s = Solver.create () in
  let a = Solver.new_var s and b = Solver.new_var s in
  Solver.add_clause s [ Lit.pos a; Lit.pos a; Lit.pos b; Lit.pos b ];
  Solver.add_clause s [ Lit.neg a ];
  Alcotest.(check bool) "sat" true (Solver.solve s = Solver.Sat);
  Alcotest.(check bool) "b true" true (Solver.value s (Lit.pos b))

(* Random CNF cross-validation. *)
let random_cnf_gen =
  let open QCheck.Gen in
  int_range 1 10 >>= fun n ->
  int_range 0 45 >>= fun m ->
  let clause =
    int_range 1 3 >>= fun len ->
    list_size (return len)
      (int_range 0 (n - 1) >>= fun v ->
       bool >>= fun neg -> return (Lit.make v ~neg))
  in
  list_size (return m) clause >>= fun clauses -> return (n, clauses)

let print_cnf (n, clauses) =
  Printf.sprintf "vars=%d clauses=[%s]" n
    (String.concat "; "
       (List.map
          (fun c -> String.concat "," (List.map (fun l -> string_of_int (Lit.to_dimacs l)) c))
          clauses))

let prop_matches_brute_force =
  QCheck.Test.make ~count:500 ~name:"solver agrees with brute force"
    (QCheck.make ~print:print_cnf random_cnf_gen)
    (fun (n, clauses) ->
      let s = Solver.create () in
      ignore (fresh_vars s n);
      List.iter (Solver.add_clause s) clauses;
      let expected = brute_force n clauses in
      match Solver.solve s with
      | Solver.Sat -> expected && check_model s clauses
      | Solver.Unsat -> not expected
      | Solver.Unknown _ -> false)

let prop_assumptions_match_brute_force =
  QCheck.Test.make ~count:300 ~name:"solve-under-assumptions agrees with brute force"
    (QCheck.make
       ~print:(fun (c, asms) -> print_cnf c ^ " asms=" ^ print_cnf (0, [ asms ]))
       QCheck.Gen.(
         random_cnf_gen >>= fun (n, clauses) ->
         let lit = int_range 0 (n - 1) >>= fun v -> bool >>= fun neg -> return (Lit.make v ~neg) in
         list_size (int_range 0 3) lit >>= fun asms -> return ((n, clauses), asms)))
    (fun ((n, clauses), assumptions) ->
      let s = Solver.create () in
      ignore (fresh_vars s n);
      List.iter (Solver.add_clause s) clauses;
      let expected = brute_force n (clauses @ List.map (fun l -> [ l ]) assumptions) in
      match Solver.solve ~assumptions s with
      | Solver.Sat ->
          expected && check_model s clauses
          && List.for_all (Solver.value s) assumptions
      | Solver.Unsat -> not expected
      | Solver.Unknown _ -> false)

let prop_incremental_consistency =
  (* Solving twice in a row gives the same answer; adding a model-blocking
     clause to a SAT instance keeps the solver usable. *)
  QCheck.Test.make ~count:200 ~name:"repeat solve is stable"
    (QCheck.make ~print:print_cnf random_cnf_gen)
    (fun (n, clauses) ->
      let s = Solver.create () in
      ignore (fresh_vars s n);
      List.iter (Solver.add_clause s) clauses;
      let r1 = Solver.solve s in
      let r2 = Solver.solve s in
      r1 = r2)

(* DIMACS *)
let test_dimacs_roundtrip () =
  let text = "c comment\np cnf 3 2\n1 -2 0\n2 3 0\n" in
  match Dimacs.parse_string text with
  | Error e -> Alcotest.fail e
  | Ok cnf ->
      Alcotest.(check int) "vars" 3 cnf.Dimacs.num_vars;
      Alcotest.(check int) "clauses" 2 (List.length cnf.Dimacs.clauses);
      let text' = Dimacs.to_string cnf in
      (match Dimacs.parse_string text' with
      | Error e -> Alcotest.fail e
      | Ok cnf' -> Alcotest.(check bool) "roundtrip" true (cnf = cnf'))

let test_dimacs_errors () =
  let is_error t = match Dimacs.parse_string t with Error _ -> true | Ok _ -> false in
  Alcotest.(check bool) "no header" true (is_error "1 2 0\n");
  Alcotest.(check bool) "unterminated" true (is_error "p cnf 2 1\n1 2\n");
  Alcotest.(check bool) "out of range" true (is_error "p cnf 1 1\n2 0\n");
  Alcotest.(check bool) "wrong count" true (is_error "p cnf 2 2\n1 0\n")

let test_dimacs_solve () =
  match Dimacs.solve_string "p cnf 2 2\n1 0\n-1 2 0\n" with
  | Error e -> Alcotest.fail e
  | Ok (result, model) ->
      Alcotest.(check bool) "sat" true (result = Solver.Sat);
      (match model with
      | None -> Alcotest.fail "expected model"
      | Some m ->
          Alcotest.(check bool) "x1" true m.(0);
          Alcotest.(check bool) "x2" true m.(1))

let test_dimacs_multiline_clause () =
  match Dimacs.parse_string "p cnf 3 1\n1\n2\n3 0\n" with
  | Error e -> Alcotest.fail e
  | Ok cnf -> Alcotest.(check int) "one clause" 1 (List.length cnf.Dimacs.clauses)

(* Seeded DIMACS fuzz, now shared with the `gqed fuzz` harness: ≥500 random
   instances with up to 20 variables, fed through the DIMACS text pipeline,
   cross-checked against an exhaustive enumerator — and with a DRAT
   certificate demanded (and independently checked) for every UNSAT verdict.
   The clause-length distribution is biased toward binary clauses so the
   specialised binary implication lists, watcher blockers and LBD-based
   learnt reduction all see real traffic. *)

let test_dimacs_fuzz_20vars () =
  Alcotest.(check (list (pair int string)))
    "all instances agree and certify" []
    (Fuzz.dimacs ~max_vars:20 ~seed:0xD1CA5 ~count:500 ~cert:true ())

let prop_exhaustive_matches_brute_force =
  (* Keep the fuzz harness's reference enumerator honest: the pruned
     backtracking search must agree with naive full enumeration. *)
  QCheck.Test.make ~count:300 ~name:"fuzz enumerator agrees with brute force"
    (QCheck.make ~print:print_cnf random_cnf_gen)
    (fun (n, clauses) -> Fuzz.exhaustive_sat n clauses = brute_force n clauses)

let test_contradictory_assumptions () =
  let s = Solver.create () in
  let a = Solver.new_var s in
  (* No clauses at all: the contradiction lives in the assumptions. *)
  let r = Solver.solve ~assumptions:[ Lit.pos a; Lit.neg a ] s in
  Alcotest.(check bool) "unsat" true (r = Solver.Unsat);
  Alcotest.(check bool) "still ok" true (Solver.ok s);
  Alcotest.(check bool) "sat afterwards" true (Solver.solve s = Solver.Sat)

let test_duplicate_assumptions () =
  let s = Solver.create () in
  let a = Solver.new_var s and b = Solver.new_var s in
  Solver.add_clause s [ Lit.neg a; Lit.pos b ];
  let r = Solver.solve ~assumptions:[ Lit.pos a; Lit.pos a; Lit.pos a ] s in
  Alcotest.(check bool) "sat" true (r = Solver.Sat);
  Alcotest.(check bool) "b implied" true (Solver.value s (Lit.pos b))

let test_many_vars_no_clauses () =
  let s = Solver.create () in
  ignore (fresh_vars s 2000);
  Alcotest.(check bool) "sat" true (Solver.solve s = Solver.Sat);
  Alcotest.(check int) "model covers all" 2000 (Array.length (Solver.model s))

let test_value_before_solve_raises () =
  let s = Solver.create () in
  let a = Solver.new_var s in
  Alcotest.(check bool) "raises" true
    (match Solver.value s (Lit.pos a) with exception Failure _ -> true | _ -> false)

let test_stats_monotone () =
  let s = Solver.create () in
  let vs = Array.of_list (fresh_vars s 6) in
  (* A small unsatisfiable XOR-ish cluster to force real conflicts. *)
  for i = 0 to 4 do
    Solver.add_clause s [ Lit.pos vs.(i); Lit.pos vs.(i + 1) ];
    Solver.add_clause s [ Lit.neg vs.(i); Lit.neg vs.(i + 1) ]
  done;
  ignore (Solver.solve s);
  let st1 = Solver.stats s in
  ignore (Solver.solve s);
  let st2 = Solver.stats s in
  Alcotest.(check bool) "propagations monotone" true
    (st2.Solver.propagations >= st1.Solver.propagations);
  Alcotest.(check int) "vars stable" st1.Solver.vars st2.Solver.vars

let test_lit_encoding () =
  Alcotest.(check int) "pos var" 3 (Lit.var (Lit.pos 3));
  Alcotest.(check bool) "pos sign" false (Lit.is_neg (Lit.pos 3));
  Alcotest.(check bool) "neg sign" true (Lit.is_neg (Lit.neg 3));
  Alcotest.(check int) "negate involutive" (Lit.pos 7) (Lit.negate (Lit.negate (Lit.pos 7)));
  Alcotest.(check int) "dimacs pos" 4 (Lit.to_dimacs (Lit.pos 3));
  Alcotest.(check int) "dimacs neg" (-4) (Lit.to_dimacs (Lit.neg 3));
  Alcotest.(check int) "dimacs roundtrip" (Lit.neg 9) (Lit.of_dimacs (Lit.to_dimacs (Lit.neg 9)))

(* ---- CNF preprocessing (Simplify + Solver.preprocess) ---- *)

module Simplify = Sat.Simplify
module Drat = Sat.Drat

let no_flags n = Array.make n false

let test_simplify_subsumption () =
  let x = Lit.pos 0 and y = Lit.pos 1 and z = Lit.pos 2 in
  let clauses = [| [| x; y |]; [| x; y; z |] |] in
  (* Every variable frozen, so nothing is eliminated afterwards. *)
  let r = Simplify.run ~nvars:3 ~frozen:(Array.make 3 true) ~protected:(no_flags 2) clauses in
  Alcotest.(check int) "one clause subsumed" 1 r.stats.s_subsumed;
  Alcotest.(check (array bool)) "the superset clause was removed" [| false; true |] r.removed;
  Alcotest.(check bool) "and deleted in the proof" true
    (r.proof = [ Drat.Delete clauses.(1) ])

let test_simplify_self_subsume () =
  let a = Lit.pos 0 and b = Lit.pos 1 and c = Lit.pos 2 in
  (* Resolving on c: (a|b|c) x (a|b|~c) -> (a|b), which strengthens both. *)
  let clauses = [| [| a; b; c |]; [| a; b; Lit.negate c |] |] in
  let r = Simplify.run ~nvars:3 ~frozen:(no_flags 3) ~protected:(no_flags 2) clauses in
  Alcotest.(check bool) "strengthening happened" true (r.stats.s_strengthened >= 1)

(* An empty input clause makes the set UNSAT as given: the result derives
   the empty clause and does nothing else, whatever else the set holds. *)
let test_simplify_empty_input_clause () =
  let r =
    Simplify.run ~nvars:1 ~frozen:(no_flags 1) ~protected:(no_flags 2) [| [| 0 |]; [||] |]
  in
  Alcotest.(check bool) "unsat" true r.unsat;
  Alcotest.(check bool) "proof is [Add [||]]" true (r.proof = [ Drat.Add [||] ]);
  Alcotest.(check (array bool)) "nothing removed" [| false; false |] r.removed;
  Alcotest.(check int) "nothing added" 0 (Array.length r.added);
  Alcotest.(check int) "nothing eliminated" 0 (List.length r.eliminated)

let test_simplify_bve_extend_model () =
  (* x <-> y & z, Tseitin-style. All three variables are eliminable (in
     some order); whatever the eliminator picked, model extension must
     repair an arbitrary assignment into one satisfying the original
     clauses. *)
  let x = Lit.pos 0 and y = Lit.pos 1 and z = Lit.pos 2 in
  let clauses =
    [|
      [| Lit.negate x; y |];
      [| Lit.negate x; z |];
      [| x; Lit.negate y; Lit.negate z |];
    |]
  in
  let r = Simplify.run ~nvars:3 ~frozen:(no_flags 3) ~protected:(no_flags 3) clauses in
  Alcotest.(check bool) "something eliminated" true (r.stats.s_eliminated >= 1);
  (* Reverse elimination order, as the solver's elim stack accumulates. *)
  let stack = List.rev r.eliminated in
  let lit_true model l =
    let v = model.(Lit.var l) in
    if Lit.is_neg l then not v else v
  in
  for init = 0 to 7 do
    let model = Array.init 3 (fun i -> init land (1 lsl i) <> 0) in
    List.iter (fun (v, cls) -> Simplify.extend_model model v cls) stack;
    Array.iter
      (fun cl ->
        if not (Array.exists (lit_true model) cl) then
          Alcotest.failf "extended model violates a clause (init %d)" init)
      clauses
  done

(* The result decides the solver's clause database after preprocessing,
   hence the whole search and the DRAT stream: it must not change unless
   the preprocessing itself is meant to. Fixed-seed CNFs: a random one and
   a Tseitin encoding of a random AND graph, each simplified as a whole
   with every seventh variable frozen. *)
let pinned_cnfs () =
  let rand = Random.State.make [| 31 |] in
  let lit v = Lit.make v ~neg:(Random.State.bool rand) in
  let random_cnf =
    Array.init 100 (fun _ ->
        let vs = ref [] in
        while List.length !vs < 3 do
          let v = Random.State.int rand 60 in
          if not (List.mem v !vs) then vs := v :: !vs
        done;
        Array.of_list (List.map lit !vs))
  in
  (* Inputs 0..11, gate g = a & b over earlier nodes, and one clause
     asserting that one of three gate outputs holds. *)
  let ninputs = 12 and ngates = 40 in
  let gates =
    List.init ngates (fun i ->
        let g = ninputs + i in
        let a = lit (Random.State.int rand g) and b = lit (Random.State.int rand g) in
        [ [| Lit.neg g; a |]; [| Lit.neg g; b |]; [| Lit.pos g; Lit.negate a; Lit.negate b |] ])
  in
  let output = Array.init 3 (fun i -> lit (ninputs + ngates - 1 - (5 * i))) in
  let tseitin = Array.of_list (List.concat gates @ [ output ]) in
  [ ("random", 60, random_cnf); ("tseitin", ninputs + ngates, tseitin) ]

let render (r : Simplify.result) =
  let b = Buffer.create 4096 in
  let lits a = String.concat " " (Array.to_list (Array.map string_of_int a)) in
  List.iter
    (function
      | Drat.Add a -> Printf.bprintf b "a %s\n" (lits a)
      | Drat.Delete a -> Printf.bprintf b "d %s\n" (lits a)
      | Drat.Input a -> Printf.bprintf b "i %s\n" (lits a))
    r.proof;
  Array.iteri (fun i gone -> if gone then Printf.bprintf b "r %d\n" i) r.removed;
  Array.iter (fun a -> Printf.bprintf b "+ %s\n" (lits a)) r.added;
  Printf.bprintf b "unsat %b\n" r.unsat;
  List.iter
    (fun (v, saved) ->
      Printf.bprintf b "x %d %s\n" v (String.concat " | " (Array.to_list (Array.map lits saved))))
    r.eliminated;
  let st = r.stats in
  Printf.bprintf b "stats %d %d %d %d %d\n" st.s_subsumed st.s_strengthened st.s_eliminated
    st.s_resolvents st.s_units;
  Digest.to_hex (Digest.string (Buffer.contents b))

(* (case, number of proof steps, digest of the rendered result). The
   constants were computed from the six-constructor action log of commit
   fa887f1, which this result replaced, by installing the log the way that
   commit's [Solver.preprocess] did: a strengthening adds the new clause,
   then deletes the old one; a removal deletes; each surviving clause
   comes in at its last strengthening or addition; a clause the log later
   removes never comes in. The log itself was pinned from the list-based
   Simplify of commit 2d8d456. *)
let pinned_results =
  [
    ("random bve unseeded", 208, "b552ca12cc7886d03738f70945eff378");
    ("tseitin bve unseeded", 111, "0becf584a7696d10893a86129b9bc4cc");
  ]

let test_simplify_result_pinned () =
  let got =
    List.map
      (fun (name, nvars, cnf) ->
        let frozen = Array.init nvars (fun v -> v mod 7 = 0) in
        let protected = no_flags (Array.length cnf) in
        let r = Simplify.run ~nvars ~frozen ~protected cnf in
        (name ^ " bve unseeded", List.length r.proof, render r))
      (pinned_cnfs ())
  in
  List.iter2
    (fun (name, n, digest) (name', n', digest') ->
      Alcotest.(check string) "case" name name';
      Alcotest.(check int) (name ^ ": proof steps") n n';
      Alcotest.(check string) (name ^ ": result digest") digest digest')
    pinned_results got

(* Applying the proof to the input clauses, [Add] inserting a clause and
   [Delete] removing one copy, leaves exactly the inputs not [removed],
   plus [added], plus the empty clause if [unsat]; no protected clause is
   removed. Random CNFs (repeated literals and empty clauses included, no
   tautologies, as [Simplify.run] requires) with random frozen variables
   and protected units. *)
let prop_simplify_result_is_proof =
  let gen =
    let open QCheck.Gen in
    int_range 1 8 >>= fun n ->
    let clause_lits =
      array_size (return n) bool >>= fun neg ->
      array_size (int_range 1 4) (map (fun v -> Lit.make v ~neg:neg.(v)) (int_range 0 (n - 1)))
    in
    let clause = frequency [ (1, return [||]); (30, clause_lits) ] in
    list_size (int_range 0 30) (pair clause (int_range 0 4)) >>= fun cls ->
    array_size (return n) (int_range 0 3) >>= fun fr ->
    (* A unit clause drawn with 0 is protected. *)
    return
      ( n,
        Array.of_list (List.map fst cls),
        Array.of_list (List.map (fun (c, k) -> Array.length c = 1 && k = 0) cls),
        Array.map (fun k -> k = 0) fr )
  in
  let print (n, cnf, prot, fr) =
    Printf.sprintf "vars=%d frozen=[%s] clauses=[%s]" n
      (String.concat "," (List.filteri (fun v _ -> fr.(v)) (List.init n string_of_int)))
      (String.concat "; "
         (Array.to_list
            (Array.mapi
               (fun i c ->
                 (if prot.(i) then "!" else "")
                 ^ String.concat "," (Array.to_list (Array.map (fun l -> string_of_int (Lit.to_dimacs l)) c)))
               cnf)))
  in
  QCheck.Test.make ~count:1000 ~name:"simplify result is what its proof leaves"
    (QCheck.make ~print gen)
    (fun (nvars, cnf, protected, frozen) ->
      let r = Simplify.run ~nvars ~frozen ~protected cnf in
      let key c = List.sort compare (Array.to_list c) in
      let bag = Hashtbl.create 64 in
      let count c = Option.value ~default:0 (Hashtbl.find_opt bag (key c)) in
      let put c d = Hashtbl.replace bag (key c) (count c + d) in
      Array.iter (fun c -> put c 1) cnf;
      let deletes_present =
        List.for_all
          (function
            | Drat.Add c ->
                put c 1;
                true
            | Drat.Delete c ->
                let ok = count c > 0 in
                put c (-1);
                ok
            | Drat.Input _ -> false)
          r.proof
      in
      let expected = Hashtbl.create 64 in
      let expect c =
        let k = key c in
        Hashtbl.replace expected k (1 + Option.value ~default:0 (Hashtbl.find_opt expected k))
      in
      Array.iteri (fun i c -> if not r.removed.(i) then expect c) cnf;
      Array.iter expect r.added;
      if r.unsat then expect [||];
      let same =
        Hashtbl.fold (fun k n ok -> ok && n = Option.value ~default:0 (Hashtbl.find_opt expected k)) bag true
        && Hashtbl.fold (fun k n ok -> ok && n = Option.value ~default:0 (Hashtbl.find_opt bag k)) expected true
      in
      deletes_present && same
      && Array.for_all2 (fun p gone -> not (p && gone)) protected r.removed)

(* Elimination bounds at their edges. Every variable but [x] is frozen,
   and no clause subsumes or strengthens another, so an elimination of
   [x] is the only possible action. *)
let test_simplify_bve_boundaries () =
  let x = 0 in
  let run ?(freeze_x = false) clauses =
    let nvars =
      1 + Array.fold_left (Array.fold_left (fun m l -> max m (Lit.var l))) 0 clauses
    in
    let frozen = Array.init nvars (fun v -> v <> x || freeze_x) in
    Simplify.run ~nvars ~frozen ~protected:(no_flags (Array.length clauses)) clauses
  in
  let untouched name ?freeze_x clauses =
    let r = run ?freeze_x clauses in
    Alcotest.(check int) (name ^ ": no proof step") 0 (List.length r.proof);
    Alcotest.(check int) (name ^ ": not eliminated") 0 (List.length r.eliminated);
    Alcotest.(check int) (name ^ ": no elimination counted") 0 r.stats.s_eliminated
  in
  let eliminated name ~resolvents clauses =
    let r = run clauses in
    Alcotest.(check int) (name ^ ": eliminated") 1 r.stats.s_eliminated;
    Alcotest.(check int) (name ^ ": resolvents") resolvents r.stats.s_resolvents;
    Alcotest.(check int) (name ^ ": resolvents added") resolvents (Array.length r.added);
    Alcotest.(check bool) (name ^ ": every clause removed") true (Array.for_all Fun.id r.removed);
    match r.eliminated with
    | [ (v, saved) ] ->
        Alcotest.(check int) (name ^ ": variable") x v;
        Alcotest.(check int) (name ^ ": saved clauses") (Array.length clauses) (Array.length saved)
    | _ -> Alcotest.failf "%s: not exactly one elimination" name
  in
  let px = Lit.pos x and nx = Lit.neg x in
  let p = Lit.pos and n = Lit.neg in
  (* 2 positive x 3 negative clauses: 6 resolvents for 5 clauses. *)
  untouched "resolvents = clauses + 1"
    [| [| px; p 1 |]; [| px; p 2 |]; [| nx; p 3 |]; [| nx; p 4 |]; [| nx; p 5 |] |];
  (* The same shape with one pair tautological: 5 resolvents, 5 clauses. *)
  eliminated "extra resolvent is a tautology" ~resolvents:5
    [| [| px; p 1 |]; [| px; n 3 |]; [| nx; p 3 |]; [| nx; p 4 |]; [| nx; p 5 |] |];
  (* One resolvent of [k] literals. *)
  let long k =
    let half = k / 2 in
    [|
      Array.init (half + 1) (fun i -> if i = 0 then px else p i);
      Array.init (k - half + 1) (fun i -> if i = 0 then nx else p (half + i));
    |]
  in
  untouched "resolvent of bve_max_resolvent + 1 literals"
    (long (Simplify.bve_max_resolvent + 1));
  eliminated "resolvent of bve_max_resolvent literals" ~resolvents:1
    (long Simplify.bve_max_resolvent);
  (* One positive clause and [k - 1] negative ones: [k] occurrences and
     [k - 1] resolvents. *)
  let occurrences k =
    Array.init k (fun i -> if i = 0 then [| px; p 1 |] else [| nx; p (i + 1) |])
  in
  untouched "bve_max_occ + 1 occurrences" (occurrences (Simplify.bve_max_occ + 1));
  eliminated "bve_max_occ occurrences" ~resolvents:(Simplify.bve_max_occ - 1)
    (occurrences Simplify.bve_max_occ);
  untouched "frozen" ~freeze_x:true [| [| px; p 1 |]; [| nx; p 2 |] |];
  eliminated "not frozen" ~resolvents:1 [| [| px; p 1 |]; [| nx; p 2 |] |]

let random_instance rand nvars nclauses =
  List.init nclauses (fun _ ->
      let len = 1 + Random.State.int rand 3 in
      List.init len (fun _ ->
          Lit.make (Random.State.int rand nvars) ~neg:(Random.State.bool rand)))

(* Preprocessing (with elimination) never changes the verdict, and SAT
   models — after reconstruction of eliminated variables — still satisfy
   every original clause. *)
let test_preprocess_matches_plain () =
  let rand = Random.State.make [| 2025 |] in
  for _trial = 1 to 200 do
    let nvars = 3 + Random.State.int rand 6 in
    let clauses = random_instance rand nvars (2 + Random.State.int rand 20) in
    let expected = brute_force nvars clauses in
    let s = Solver.create () in
    let _ = fresh_vars s nvars in
    List.iter (Solver.add_clause s) clauses;
    let _ = Solver.preprocess s in
    match Solver.solve s with
    | Solver.Sat ->
        if not expected then Alcotest.fail "preprocessed solver said SAT, brute force UNSAT";
        if not (check_model s clauses) then
          Alcotest.fail "model does not satisfy the original clauses"
    | Solver.Unsat ->
        if expected then Alcotest.fail "preprocessed solver said UNSAT, brute force SAT"
    | Solver.Unknown _ -> Alcotest.fail "unexpected unknown without a budget"
  done

(* Assumption variables passed as [frozen] survive bounded variable
   elimination, and the extended model of a SAT answer under those
   assumptions honours both the assumptions and every original clause —
   including clauses whose other variables were resolved away. *)
let test_preprocess_elim_frozen_assumptions () =
  let rand = Random.State.make [| 2027 |] in
  for _trial = 1 to 200 do
    let nvars = 3 + Random.State.int rand 6 in
    let clauses = random_instance rand nvars (2 + Random.State.int rand 15) in
    let a = Lit.make (Random.State.int rand nvars) ~neg:(Random.State.bool rand) in
    let expected = brute_force nvars ([ a ] :: clauses) in
    let s = Solver.create () in
    let _ = fresh_vars s nvars in
    List.iter (Solver.add_clause s) clauses;
    let _ = Solver.preprocess ~frozen:[ a ] s in
    match Solver.solve ~assumptions:[ a ] s with
    | Solver.Sat ->
        if not expected then
          Alcotest.fail "elim+frozen solver said SAT, brute force UNSAT";
        if not (Solver.value s a) then
          Alcotest.fail "model does not honour the frozen assumption";
        if not (check_model s clauses) then
          Alcotest.fail "extended model violates an original clause"
    | Solver.Unsat ->
        if expected then Alcotest.fail "elim+frozen solver said UNSAT, brute force SAT"
    | Solver.Unknown _ -> Alcotest.fail "unexpected unknown without a budget"
  done

(* Targeted shape: x <-> y & z with only x frozen, so the eliminator is
   free to resolve y and z away. Assuming x afterwards must reconstruct
   y = z = true in the extended model. *)
let test_preprocess_elim_assumption_pulls_definition () =
  let s = Solver.create () in
  let x = Lit.pos (Solver.new_var s) in
  let y = Lit.pos (Solver.new_var s) in
  let z = Lit.pos (Solver.new_var s) in
  Solver.add_clause s [ Lit.negate x; y ];
  Solver.add_clause s [ Lit.negate x; z ];
  Solver.add_clause s [ x; Lit.negate y; Lit.negate z ];
  let _ = Solver.preprocess ~frozen:[ x ] s in
  match Solver.solve ~assumptions:[ x ] s with
  | Solver.Sat ->
      Alcotest.(check bool) "x true" true (Solver.value s x);
      Alcotest.(check bool) "y reconstructed true" true (Solver.value s y);
      Alcotest.(check bool) "z reconstructed true" true (Solver.value s z)
  | Solver.Unsat | Solver.Unknown _ -> Alcotest.fail "satisfiable instance rejected"

(* Every preprocessing step is DRAT-logged: UNSAT verdicts after
   elimination still carry a certificate the independent checker accepts. *)
let test_preprocess_drat_certified () =
  let rand = Random.State.make [| 2027 |] in
  let certified = ref 0 in
  for _trial = 1 to 100 do
    let nvars = 3 + Random.State.int rand 4 in
    (* Dense instances so a good fraction are UNSAT. *)
    let clauses = random_instance rand nvars (8 + Random.State.int rand 25) in
    let s = Solver.create () in
    Solver.start_proof s;
    let _ = fresh_vars s nvars in
    List.iter (Solver.add_clause s) clauses;
    let _ = Solver.preprocess s in
    match Solver.solve s with
    | Solver.Sat ->
        if not (check_model s clauses) then Alcotest.fail "SAT model broken under proof"
    | Solver.Unsat -> begin
        match Sat.Drat.check (Solver.proof s) with
        | Ok () -> incr certified
        | Error msg -> Alcotest.failf "DRAT certificate rejected: %s" msg
      end
    | Solver.Unknown _ -> Alcotest.fail "unexpected unknown without a budget"
  done;
  Alcotest.(check bool) "some UNSAT instances were certified" true (!certified > 0)

(* Restore on touch. x <-> y and y <-> a & b with a, b frozen: elimination
   takes x first, whose saved clauses mention y, then y, and leaves no
   clause. A later clause or assumption over x must bring back x and,
   through its saved clauses, y. Each answer and extended model must equal
   those of a solver that never preprocessed, and each UNSAT answer's DRAT
   stream must check. *)
let test_preprocess_restore_transitive () =
  let a = Lit.pos 0 and b = Lit.pos 1 and x = Lit.pos 2 and y = Lit.pos 3 in
  let base =
    [
      [ Lit.negate x; y ];
      [ x; Lit.negate y ];
      [ Lit.negate y; a ];
      [ Lit.negate y; b ];
      [ y; Lit.negate a; Lit.negate b ];
    ]
  in
  let run ~pre (extra, assumptions) =
    let s = Solver.create () in
    Solver.start_proof s;
    let _ = fresh_vars s 4 in
    List.iter (Solver.add_clause s) base;
    if pre then begin
      let r = Solver.preprocess ~frozen:[ a; b ] s in
      Alcotest.(check int) "x and y eliminated" 2 r.Solver.pre_eliminated;
      Alcotest.(check int) "no clause left" 0 r.Solver.pre_clauses_after
    end;
    List.iter (Solver.add_clause s) extra;
    (s, Solver.solve ~assumptions s)
  in
  List.iteri
    (fun i ((extra, assumptions) as case) ->
      let what = Printf.sprintf "case %d" i in
      let s, got = run ~pre:true case and p, want = run ~pre:false case in
      Alcotest.(check bool) (what ^ ": same answer") true (got = want);
      match got with
      | Solver.Sat ->
          Alcotest.(check (array bool)) (what ^ ": same model") (Solver.model p) (Solver.model s);
          Alcotest.(check bool) (what ^ ": model satisfies every clause") true
            (check_model s (base @ extra @ List.map (fun l -> [ l ]) assumptions));
          Alcotest.(check int) (what ^ ": both restored") 2
            (Solver.preprocess ~frozen:[ a; b; x; y ] s).Solver.pre_restored
      | Solver.Unsat -> (
          match Sat.Drat.check ~assumptions (Solver.proof s) with
          | Ok () -> ()
          | Error msg -> Alcotest.failf "%s: DRAT certificate rejected: %s" what msg)
      | Solver.Unknown _ -> Alcotest.fail "unexpected unknown without a budget")
    [
      ([ [ x ] ], []);
      ([ [ x ]; [ Lit.negate a ] ], []);
      ([], [ x ]);
      ([ [ Lit.negate b ] ], [ x ]);
    ]

(* Preprocessing between incremental rounds: each round adds clauses,
   preprocesses with its assumption frozen and solves under it. Every
   answer must match brute force over all clauses so far, every model must
   satisfy them, and every UNSAT answer's DRAT stream must check. *)
let test_preprocess_incremental_rounds () =
  let rand = Random.State.make [| 2031 |] in
  let certified = ref 0 and restored = ref 0 in
  for _trial = 1 to 150 do
    let nvars = 4 + Random.State.int rand 5 in
    let s = Solver.create () in
    Solver.start_proof s;
    let _ = fresh_vars s nvars in
    let clauses = ref [] in
    for _round = 1 to 4 do
      let added = random_instance rand nvars (1 + Random.State.int rand 6) in
      List.iter (Solver.add_clause s) added;
      clauses := added @ !clauses;
      let a = Lit.make (Random.State.int rand nvars) ~neg:(Random.State.bool rand) in
      restored := !restored + (Solver.preprocess ~frozen:[ a ] s).Solver.pre_restored;
      let expected = brute_force nvars ([ a ] :: !clauses) in
      match Solver.solve ~assumptions:[ a ] s with
      | Solver.Sat ->
          if not expected then Alcotest.fail "SAT, brute force UNSAT";
          if not (check_model s ([ a ] :: !clauses)) then
            Alcotest.fail "extended model violates a clause"
      | Solver.Unsat -> (
          if expected then Alcotest.fail "UNSAT, brute force SAT";
          match Sat.Drat.check ~assumptions:[ a ] (Solver.proof s) with
          | Ok () -> incr certified
          | Error msg -> Alcotest.failf "DRAT certificate rejected: %s" msg)
      | Solver.Unknown _ -> Alcotest.fail "unexpected unknown without a budget"
    done
  done;
  Alcotest.(check bool) "some UNSAT answers certified" true (!certified > 0);
  Alcotest.(check bool) "some variables restored" true (!restored > 0)

(* ------------------------------------------------------------------ *)
(* Resource governance: conflict and wall-clock budgets, reuse.         *)

(* Pigeonhole np/nh: UNSAT for np > nh, with enough real search that every
   budget kind gets a chance to fire before the verdict. *)
let pigeonhole ?(proof = false) np nh =
  let s = Solver.create () in
  if proof then Solver.start_proof s;
  let p = Array.init np (fun _ -> Array.init nh (fun _ -> Solver.new_var s)) in
  for i = 0 to np - 1 do
    Solver.add_clause s (List.init nh (fun h -> Lit.pos p.(i).(h)))
  done;
  for h = 0 to nh - 1 do
    for i = 0 to np - 1 do
      for j = i + 1 to np - 1 do
        Solver.add_clause s [ Lit.neg p.(i).(h); Lit.neg p.(j).(h) ]
      done
    done
  done;
  s

let expect_unknown name expected = function
  | Solver.Unknown r ->
      Alcotest.(check string) name
        (Solver.reason_to_string expected)
        (Solver.reason_to_string r)
  | Solver.Sat | Solver.Unsat -> Alcotest.failf "%s: budget did not fire" name

let test_budget_conflicts_fires () =
  expect_unknown "conflicts" Solver.Out_of_conflicts
    (Solver.solve ~budget:(Solver.budget ~conflicts:1 ()) (pigeonhole 6 5))

let test_budget_seconds_fires () =
  expect_unknown "seconds" Solver.Out_of_time
    (Solver.solve ~budget:(Solver.budget ~seconds:1e-9 ()) (pigeonhole 6 5))

let test_reusable_after_unknown () =
  (* An Unknown answer must leave the solver resumable: a follow-up call
     with a bigger (or absent) budget reaches the real verdict. *)
  let s = pigeonhole 6 5 in
  expect_unknown "starved call" Solver.Out_of_conflicts
    (Solver.solve ~budget:(Solver.budget ~conflicts:1 ()) s);
  Alcotest.(check bool) "unsat on resume" true (Solver.solve s = Solver.Unsat);
  (* And a SAT instance still produces a usable model after an Unknown.
     A cap of 0 conflicts fires at the first poll of the search loop,
     before any propagation. *)
  let s = Solver.create () in
  let vs = Array.init 30 (fun _ -> Solver.new_var s) in
  for i = 0 to 28 do
    Solver.add_clause s [ Lit.neg vs.(i); Lit.pos vs.(i + 1) ]
  done;
  expect_unknown "zero-conflict call" Solver.Out_of_conflicts
    (Solver.solve ~budget:(Solver.budget ~conflicts:0 ()) s);
  Alcotest.(check bool) "sat on resume" true (Solver.solve s = Solver.Sat);
  for i = 0 to 28 do
    Alcotest.(check bool) "model respects implication" true
      ((not (Solver.value s (Lit.pos vs.(i)))) || Solver.value s (Lit.pos vs.(i + 1)))
  done

(* Run [f] with tracing on and fresh buffers; [spans name] then counts the
   spans of that name opened so far. *)
let traced f =
  let was_on = Obs.on () in
  Obs.Trace.reset ();
  Obs.enable ();
  Fun.protect
    ~finally:(fun () ->
      Obs.Trace.reset ();
      if not was_on then Obs.disable ())
    f

let spans name =
  List.length
    (List.filter
       (fun e -> e.Obs.Trace.ev_kind = Obs.Trace.Begin && e.Obs.Trace.ev_name = name)
       (Obs.Trace.events ()))

(* PHP(8,7) takes thousands of conflicts, enough to reduce the learnt
   database and compact the clause arena: the DRAT stream must still
   replay. Then an incremental solver runs a guarded PHP(8,7) past a
   compaction and must stay sound on the relocated clauses: UNSAT under
   the guard (certified), SAT without it after more clauses arrive. *)
let test_reduce_compact_drat () =
  traced (fun () ->
      let s = pigeonhole ~proof:true 8 7 in
      Alcotest.(check bool) "PHP(8,7) unsat" true (Solver.solve s = Solver.Unsat);
      Alcotest.(check bool) "DRAT accepted" true (Sat.Drat.check (Solver.proof s) = Ok ());
      Alcotest.(check bool) "sat.reduce fired" true (spans "sat.reduce" > 0);
      Alcotest.(check bool) "arena compacted" true (spans "sat.compact" > 0);
      let s = Solver.create () in
      Solver.start_proof s;
      let g = Solver.new_var s in
      let p = Array.init 8 (fun _ -> Array.init 7 (fun _ -> Solver.new_var s)) in
      let clauses = ref [] in
      let add c =
        clauses := c :: !clauses;
        Solver.add_clause s c
      in
      for i = 0 to 7 do
        let some_hole = List.init 7 (fun h -> Lit.pos p.(i).(h)) in
        add (if i = 7 then Lit.neg g :: some_hole else some_hole)
      done;
      for h = 0 to 6 do
        for i = 0 to 7 do
          for j = i + 1 to 7 do
            add [ Lit.neg p.(i).(h); Lit.neg p.(j).(h) ]
          done
        done
      done;
      let compactions = spans "sat.compact" in
      Alcotest.(check bool) "unsat under the guard" true
        (Solver.solve ~assumptions:[ Lit.pos g ] s = Solver.Unsat);
      Alcotest.(check bool) "compacted during the guarded solve" true
        (spans "sat.compact" > compactions);
      Alcotest.(check bool) "guarded DRAT accepted" true
        (Sat.Drat.check ~assumptions:[ Lit.pos g ] (Solver.proof s) = Ok ());
      add [ Lit.neg p.(0).(0) ];
      add [ Lit.neg p.(1).(1) ];
      add [ Lit.pos p.(0).(1); Lit.pos p.(0).(2) ];
      let assumptions = [ Lit.neg g; Lit.pos p.(2).(3) ] in
      Alcotest.(check bool) "sat without the guard" true
        (Solver.solve ~assumptions s = Solver.Sat);
      Alcotest.(check bool) "model satisfies every clause" true (check_model s !clauses);
      Alcotest.(check bool) "model satisfies the assumptions" true
        (List.for_all (Solver.value s) assumptions))

let suite =
  let q = Qc.to_alcotest in
  [
    ("sat.trivial_sat", `Quick, test_trivial_sat);
    ("sat.trivial_unsat", `Quick, test_trivial_unsat);
    ("sat.empty_clause", `Quick, test_empty_clause);
    ("sat.no_clauses", `Quick, test_no_clauses);
    ("sat.unit_chain", `Quick, test_unit_propagation_chain);
    ("sat.pigeonhole_3_2", `Quick, test_pigeonhole_3_2);
    ("sat.pigeonhole_5_4", `Quick, test_pigeonhole_5_4);
    ("sat.assumptions", `Quick, test_assumptions_flip);
    ("sat.incremental", `Quick, test_incremental_strengthening);
    ("sat.tautology", `Quick, test_tautology_dropped);
    ("sat.duplicates", `Quick, test_duplicate_literals);
    ("sat.contradictory_assumptions", `Quick, test_contradictory_assumptions);
    ("sat.duplicate_assumptions", `Quick, test_duplicate_assumptions);
    ("sat.many_vars", `Quick, test_many_vars_no_clauses);
    ("sat.value_before_solve", `Quick, test_value_before_solve_raises);
    ("sat.stats_monotone", `Quick, test_stats_monotone);
    ("sat.lit_encoding", `Quick, test_lit_encoding);
    ("sat.reduce_compact_drat", `Quick, test_reduce_compact_drat);
    ("dimacs.roundtrip", `Quick, test_dimacs_roundtrip);
    ("dimacs.errors", `Quick, test_dimacs_errors);
    ("dimacs.solve", `Quick, test_dimacs_solve);
    ("dimacs.multiline", `Quick, test_dimacs_multiline_clause);
    ("dimacs.fuzz_20vars", `Quick, test_dimacs_fuzz_20vars);
    ("simplify.subsumption", `Quick, test_simplify_subsumption);
    ("simplify.self_subsume", `Quick, test_simplify_self_subsume);
    ("simplify.empty_input_clause", `Quick, test_simplify_empty_input_clause);
    ("simplify.bve_extend_model", `Quick, test_simplify_bve_extend_model);
    ("simplify.result_pinned", `Quick, test_simplify_result_pinned);
    ("simplify.bve_boundaries", `Quick, test_simplify_bve_boundaries);
    ("simplify.preprocess_matches_plain", `Quick, test_preprocess_matches_plain);
    ("simplify.preprocess_drat", `Quick, test_preprocess_drat_certified);
    ( "simplify.elim_frozen_assumptions",
      `Quick,
      test_preprocess_elim_frozen_assumptions );
    ( "simplify.elim_assumption_definition",
      `Quick,
      test_preprocess_elim_assumption_pulls_definition );
    ("simplify.restore_transitive", `Quick, test_preprocess_restore_transitive);
    ("simplify.incremental_rounds", `Quick, test_preprocess_incremental_rounds);
    ("govern.conflicts", `Quick, test_budget_conflicts_fires);
    ("govern.seconds", `Quick, test_budget_seconds_fires);
    ("govern.reuse_after_unknown", `Quick, test_reusable_after_unknown);
    q prop_matches_brute_force;
    q prop_assumptions_match_brute_force;
    q prop_incremental_consistency;
    q prop_exhaustive_matches_brute_force;
    q prop_simplify_result_is_proof;
  ]
