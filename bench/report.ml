(* Pure helpers for the bench harness, split out of [main] so the run's
   exit decision and its summary figures are unit-testable (the
   executable itself only runs whole experiments). *)

(* One disagreement found by an experiment: in [cell], the reference lane
   decided [expected] but the variant lane decided [got]. *)
type flip = { experiment : string; cell : string; expected : string; got : string }

let flip_to_string f =
  Printf.sprintf "%s %s: expected %s, got %s" f.experiment f.cell f.expected f.got

(* The bench exit status is its one gate: any disagreement fails the run
   (1); otherwise verdicts left undecided by the configured budget give
   the distinct code 3; otherwise 0. *)
let exit_code ~flips ~unknowns =
  if flips <> [] then 1 else if unknowns > 0 then 3 else 0

(* Geometric mean of base/variant over per-design timing pairs, ignoring
   pairs where either side is nonpositive (a design whose whole lane ran
   in under a clock tick carries no signal). [None] when nothing usable
   remains. *)
let geo_mean_ratio pairs =
  let logs =
    List.filter_map
      (fun (base, variant) ->
        if base > 0.0 && variant > 0.0 then Some (log (base /. variant)) else None)
      pairs
  in
  match logs with
  | [] -> None
  | _ ->
      Some (exp (List.fold_left ( +. ) 0.0 logs /. float_of_int (List.length logs)))
