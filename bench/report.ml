(* Pure helpers for the bench harness, split out of [main] so the run's
   exit decision is unit-testable (the executable itself only runs whole
   experiments). *)

(* One disagreement found by an experiment: in [cell], the reference lane
   decided [expected] but the variant lane decided [got]. *)
type flip = { experiment : string; cell : string; expected : string; got : string }

let flip_to_string f =
  Printf.sprintf "%s %s: expected %s, got %s" f.experiment f.cell f.expected f.got

(* The bench exit status is its one gate: any disagreement fails the run
   (1), otherwise 0. *)
let exit_code ~flips = if flips <> [] then 1 else 0
