(* DRAT proof events and an independent forward DRUP checker.

   The checker deliberately shares nothing with the CDCL solver: it keeps
   its own clause database, watch lists and trail, and verifies each added
   clause by reverse unit propagation (assume the clause's negation,
   propagate, demand a conflict). Assignments made while checking one
   addition are undone before the next; assignments implied by unit clauses
   of the database are kept persistently. *)

type event =
  | Input of Lit.t array
  | Add of Lit.t array
  | Delete of Lit.t array

type proof = event list

(* ------------------------------------------------------------------ *)
(* Checker.                                                            *)

type clause = { lits : int array; mutable dead : bool }

let dummy_clause = { lits = [||]; dead = true }

type checker = {
  mutable assign : int array; (* var -> 0 unassigned / 1 true / -1 false *)
  mutable watches : int Vec.t array; (* literal -> indices into [clauses] *)
  clauses : clause Vec.t;
  by_key : (string, int list ref) Hashtbl.t; (* normalized lits -> live ids *)
  trail : int Vec.t;
  mutable qhead : int;
  mutable conflict : bool; (* the database is refuted by unit propagation *)
}

let create_checker () =
  {
    assign = Array.make 64 0;
    watches = Array.init 128 (fun _ -> Vec.create 0);
    clauses = Vec.create dummy_clause;
    by_key = Hashtbl.create 256;
    trail = Vec.create 0;
    qhead = 0;
    conflict = false;
  }

let ensure_var ck v =
  if v >= Array.length ck.assign then begin
    let n = max (v + 1) (2 * Array.length ck.assign) in
    let assign = Array.make n 0 in
    Array.blit ck.assign 0 assign 0 (Array.length ck.assign);
    ck.assign <- assign;
    let watches = Array.init (2 * n) (fun _ -> Vec.create 0) in
    Array.blit ck.watches 0 watches 0 (Array.length ck.watches);
    ck.watches <- watches
  end

let value ck l =
  let a = ck.assign.(Lit.var l) in
  if Lit.is_neg l then -a else a

(* Normalized clause key: sorted distinct literals. Used to resolve
   [Delete] events, which may present the literals in any order (the solver
   permutes clause arrays during watch maintenance). *)
let key_of lits =
  let sorted = List.sort_uniq Int.compare (Array.to_list lits) in
  String.concat "," (List.map string_of_int sorted)

exception Found_conflict

(* Enqueue a literal; raises [Found_conflict] if it is already false. *)
let enqueue ck l =
  match value ck l with
  | 1 -> ()
  | -1 -> raise Found_conflict
  | _ ->
      ck.assign.(Lit.var l) <- (if Lit.is_neg l then -1 else 1);
      Vec.push ck.trail l

(* Two-watched-literal propagation from the current queue head. Raises
   [Found_conflict] on a falsified clause. Watch moves are backtrack-safe:
   undoing assignments never re-falsifies a watched literal that was
   non-false when the watch was placed. *)
let propagate ck =
  while ck.qhead < Vec.size ck.trail do
    let p = Vec.get ck.trail ck.qhead in
    ck.qhead <- ck.qhead + 1;
    let ws = ck.watches.(p) in
    let i = ref 0 and j = ref 0 in
    let n = Vec.size ws in
    while !i < n do
      let ci = Vec.unsafe_get ws !i in
      incr i;
      let c = Vec.get ck.clauses ci in
      if not c.dead then begin
        let lits = c.lits in
        let false_lit = Lit.negate p in
        if lits.(0) = false_lit then begin
          lits.(0) <- lits.(1);
          lits.(1) <- false_lit
        end;
        if value ck lits.(0) = 1 then begin
          Vec.unsafe_set ws !j ci;
          incr j
        end
        else begin
          let len = Array.length lits in
          let k = ref 2 in
          while !k < len && value ck lits.(!k) = -1 do
            incr k
          done;
          if !k < len then begin
            lits.(1) <- lits.(!k);
            lits.(!k) <- false_lit;
            Vec.push ck.watches.(Lit.negate lits.(1)) ci
          end
          else begin
            Vec.unsafe_set ws !j ci;
            incr j;
            if value ck lits.(0) = -1 then begin
              (* Conflict: keep the remaining watchers before raising. *)
              while !i < n do
                Vec.unsafe_set ws !j (Vec.unsafe_get ws !i);
                incr i;
                incr j
              done;
              Vec.shrink ws !j;
              ck.qhead <- Vec.size ck.trail;
              raise Found_conflict
            end
            else enqueue ck lits.(0)
          end
        end
      end
    done;
    Vec.shrink ws !j
  done

(* Undo all assignments above [mark] (used after a RUP probe). *)
let backtrack ck mark =
  for i = Vec.size ck.trail - 1 downto mark do
    ck.assign.(Lit.var (Vec.get ck.trail i)) <- 0
  done;
  Vec.shrink ck.trail mark;
  ck.qhead <- mark

(* Persistent propagation: units implied by the database stay assigned.
   Sets [conflict] when the database is refuted outright. *)
let propagate_persistent ck =
  if not ck.conflict then
    try propagate ck with Found_conflict -> ck.conflict <- true

(* Attach a clause to the database; enqueue persistently when unit.

   Literals are normalized first: the solver dedups clauses and drops
   tautologies before storing them, but [Input] events carry the original
   literals, so without normalization a clause like [x x x] would put both
   watches on the same literal and never propagate the unit it really is. *)
let attach ck lits =
  Array.iter (fun l -> ensure_var ck (Lit.var l)) lits;
  let lits = Array.of_list (List.sort_uniq Int.compare (Array.to_list lits)) in
  let tautology =
    (* After sorting by encoding, a literal and its negation are adjacent. *)
    let t = ref false in
    for k = 0 to Array.length lits - 2 do
      if Lit.var lits.(k) = Lit.var lits.(k + 1) then t := true
    done;
    !t
  in
  if tautology || ck.conflict then ()
  else
    match Array.length lits with
    | 0 -> ck.conflict <- true
    | 1 -> (
        try
          enqueue ck lits.(0);
          propagate ck
        with Found_conflict -> ck.conflict <- true)
    | _ ->
        (* Prefer non-false literals in the watched positions so the watch
           invariant holds w.r.t. the persistent assignment. *)
        let move_nonfalse pos =
          let k = ref pos in
          let len = Array.length lits in
          while !k < len && value ck lits.(!k) = -1 do
            incr k
          done;
          if !k < len then begin
            let tmp = lits.(pos) in
            lits.(pos) <- lits.(!k);
            lits.(!k) <- tmp;
            true
          end
          else false
        in
        let w0 = move_nonfalse 0 in
        let w1 = w0 && move_nonfalse 1 in
        let ci = Vec.size ck.clauses in
        let c = { lits; dead = false } in
        Vec.push ck.clauses c;
        Vec.push ck.watches.(Lit.negate lits.(0)) ci;
        Vec.push ck.watches.(Lit.negate lits.(1)) ci;
        let k = key_of lits in
        (match Hashtbl.find_opt ck.by_key k with
        | Some ids -> ids := ci :: !ids
        | None -> Hashtbl.add ck.by_key k (ref [ ci ]));
        if not w0 then ck.conflict <- true
        else if not w1 && value ck lits.(0) <> 1 then (
          (* Exactly one non-false literal and it is unassigned: unit. *)
          try
            enqueue ck lits.(0);
            propagate ck
          with Found_conflict -> ck.conflict <- true)

(* Reverse-unit-propagation test: is [lits] implied by the database?
   Assume the negation of every literal, propagate, expect a conflict. *)
let rup_holds ck lits =
  if ck.conflict then true
  else begin
    Array.iter (fun l -> ensure_var ck (Lit.var l)) lits;
    let mark = Vec.size ck.trail in
    let result =
      try
        Array.iter (fun l -> enqueue ck (Lit.negate l)) lits;
        propagate ck;
        false
      with Found_conflict -> true
    in
    backtrack ck mark;
    result
  end

let delete ck lits =
  let k = key_of lits in
  match Hashtbl.find_opt ck.by_key k with
  | Some ids -> (
      match !ids with
      | ci :: rest ->
          (Vec.get ck.clauses ci).dead <- true;
          if rest = [] then Hashtbl.remove ck.by_key k else ids := rest;
          Ok ()
      | [] -> Error "deletion of absent clause")
  | None -> Error "deletion of absent clause"

let pp_lits lits =
  String.concat " " (Array.to_list (Array.map (fun l -> string_of_int (Lit.to_dimacs l)) lits))

let check ?(assumptions = []) proof =
  let ck = create_checker () in
  let rec go i = function
    | [] -> Ok ()
    | Input lits :: rest ->
        attach ck lits;
        go (i + 1) rest
    | Add lits :: rest ->
        if not (rup_holds ck lits) then
          Error
            (Printf.sprintf "event %d: clause [%s] is not RUP at this point" i
               (pp_lits lits))
        else begin
          attach ck lits;
          go (i + 1) rest
        end
    | Delete lits :: rest -> (
        if ck.conflict then go (i + 1) rest
        else
          match delete ck lits with
          | Ok () -> go (i + 1) rest
          | Error msg -> Error (Printf.sprintf "event %d: %s [%s]" i msg (pp_lits lits)))
  in
  match go 0 proof with
  | Error _ as e -> e
  | Ok () ->
      (* The refutation must follow from the final database plus the
         assumptions under plain unit propagation. *)
      List.iter (fun l -> attach ck [| l |]) assumptions;
      propagate_persistent ck;
      if ck.conflict then Ok ()
      else if assumptions = [] then
        Error "proof does not derive the empty clause"
      else Error "proof does not refute the formula under the given assumptions"

(* ------------------------------------------------------------------ *)
(* Serialization.                                                      *)

let clause_line buf lits =
  Array.iter (fun l -> Buffer.add_string buf (string_of_int (Lit.to_dimacs l) ^ " ")) lits;
  Buffer.add_string buf "0\n"

let to_string proof =
  let buf = Buffer.create 1024 in
  List.iter
    (function
      | Input _ -> ()
      | Add lits -> clause_line buf lits
      | Delete lits ->
          Buffer.add_string buf "d ";
          clause_line buf lits)
    proof;
  Buffer.contents buf

let formula_to_string proof =
  let inputs = List.filter_map (function Input lits -> Some lits | _ -> None) proof in
  let max_var =
    List.fold_left
      (fun acc lits -> Array.fold_left (fun acc l -> max acc (Lit.var l + 1)) acc lits)
      0 inputs
  in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf (Printf.sprintf "p cnf %d %d\n" max_var (List.length inputs));
  List.iter (clause_line buf) inputs;
  Buffer.contents buf
