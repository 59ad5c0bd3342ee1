(* Regression pin of the 25-design x mutant G-QED verdict matrix.

   [matrix_golden.txt] holds one line per (design, mutant):

     <design> <mutant_id> <verdict>

   where <verdict> is [proved@N] (G-QED passed up to the design's
   recommended bound) or [detected@N:<kind>] (failed with a witness of
   length N and the given failure kind). The file was produced by running
   [Qed.Checks.gqed] over [Mutation.mutants e.design] at
   [e.Entry.rec_bound] for every registry entry.

   On every run the golden file's *structure* is validated against the
   live registry (exactly one line per current (design, mutant) pair,
   well-formed verdicts) and a fixed subset of fast designs — chosen to
   still exercise proved plus all three G-FC failure kinds — is
   re-solved and compared verdict-for-verdict. Set GQED_FULL_MATRIX=1 to
   re-solve all entries (the nightly CI job does; budget ~25 minutes on
   one core). Any diff means either a behavior change in the checker
   stack or a mutant-enumeration change; both deserve a deliberate
   golden-file regeneration, not a silent drift. *)

type entry = { g_design : string; g_mutant : string; g_verdict : string }

(* The build embeds the golden file in the test binary (the
   [matrix_golden_data.ml] rule in test/dune), so `dune exec
   test/test_main.exe` works from any cwd, with or without `dune runtest`
   having run first. *)
let golden =
  lazy
    (let lines = String.split_on_char '\n' Matrix_golden_data.contents in
     (* The file ends with a newline, which leaves one empty piece. *)
     let lines = match List.rev lines with "" :: rest -> List.rev rest | _ -> lines in
     lines
     |> List.map (fun line ->
           match String.split_on_char ' ' (String.trim line) with
           | [ g_design; g_mutant; g_verdict ] -> { g_design; g_mutant; g_verdict }
           | _ -> Alcotest.failf "malformed golden line: %S" line))

let golden_tbl =
  lazy
    (let tbl = Hashtbl.create 2048 in
     List.iter
       (fun e ->
         if Hashtbl.mem tbl (e.g_design, e.g_mutant) then
           Alcotest.failf "duplicate golden entry %s %s" e.g_design e.g_mutant;
         Hashtbl.replace tbl (e.g_design, e.g_mutant) e.g_verdict)
       (Lazy.force golden);
     tbl)

let verdict_to_string r =
  match r.Qed.Checks.verdict with
  | Qed.Checks.Pass n -> Printf.sprintf "proved@%d" n
  | Qed.Checks.Fail f ->
      Printf.sprintf "detected@%d:%s" f.Qed.Checks.witness.Bmc.w_length
        (Qed.Checks.failure_kind_to_string f.Qed.Checks.kind)
  | Qed.Checks.Unknown u ->
      Printf.sprintf "unknown@%d:%s" u.Qed.Checks.u_bound
        (Sat.Solver.reason_to_string u.Qed.Checks.u_reason)

let well_formed v =
  let is_int s = s <> "" && String.for_all (fun c -> c >= '0' && c <= '9') s in
  match String.index_opt v '@' with
  | None -> false
  | Some i -> (
      let head = String.sub v 0 i in
      let rest = String.sub v (i + 1) (String.length v - i - 1) in
      match head with
      | "proved" -> is_int rest
      | "detected" -> (
          match String.index_opt rest ':' with
          | None -> false
          | Some j ->
              is_int (String.sub rest 0 j)
              && String.length rest > j + 1)
      | _ -> false)

(* Structural validation: the golden file must cover exactly the current
   registry's (design, mutant) pairs, once each, with parseable verdicts.
   This runs on every test invocation — no solving involved. *)
let test_golden_structure () =
  let tbl = Lazy.force golden_tbl in
  let expected = ref 0 in
  List.iter
    (fun e ->
      let name = e.Designs.Entry.name in
      List.iter
        (fun (m, _) ->
          incr expected;
          match Hashtbl.find_opt tbl (name, m.Mutation.id) with
          | None -> Alcotest.failf "golden file misses %s %s" name m.Mutation.id
          | Some v ->
              if not (well_formed v) then
                Alcotest.failf "bad verdict %S for %s %s" v name m.Mutation.id)
        (Mutation.mutants e.Designs.Entry.design))
    Designs.Registry.all;
  Alcotest.(check int)
    "golden entry count matches registry mutant count" !expected
    (Hashtbl.length tbl)

let check_design name =
  let e =
    match
      List.find_opt (fun e -> e.Designs.Entry.name = name) Designs.Registry.all
    with
    | Some e -> e
    | None -> Alcotest.failf "no registry entry %s" name
  in
  let tbl = Lazy.force golden_tbl in
  List.iter
    (fun (m, d) ->
      let expect =
        match Hashtbl.find_opt tbl (name, m.Mutation.id) with
        | Some v -> v
        | None -> Alcotest.failf "golden file misses %s %s" name m.Mutation.id
      in
      let r =
        Qed.Checks.gqed d e.Designs.Entry.iface ~bound:e.Designs.Entry.rec_bound
      in
      Alcotest.(check string)
        (Printf.sprintf "%s %s" name m.Mutation.id)
        expect (verdict_to_string r))
    (Mutation.mutants e.Designs.Entry.design)

(* Fast designs whose combined matrix re-solves in seconds yet covers
   proved verdicts and all three failure kinds (output/response/state). *)
let fast_subset = [ "hamming74"; "graycodec"; "seqdet"; "rle"; "maxtrack" ]

let test_subset () = List.iter check_design fast_subset

let test_full_matrix () =
  match Sys.getenv_opt "GQED_FULL_MATRIX" with
  | Some ("1" | "true") ->
      List.iter
        (fun e -> check_design e.Designs.Entry.name)
        Designs.Registry.all
  | _ -> () (* gated: ~25 min single-core; the nightly CI job sets the var *)

let suite =
  [
    Alcotest.test_case "golden file structure" `Quick test_golden_structure;
    Alcotest.test_case "verdicts: fast subset" `Slow test_subset;
    Alcotest.test_case "verdicts: full matrix (GQED_FULL_MATRIX=1)" `Slow
      test_full_matrix;
  ]
