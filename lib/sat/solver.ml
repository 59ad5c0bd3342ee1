(* CDCL solver. The architecture follows MiniSat 2.2 closely; comments
   below mark the places where invariants are subtle (watch maintenance,
   first-UIP analysis, reason locking). *)

type clause = {
  mutable lits : int array;
  (* lits.(0) and lits.(1) are the watched literals of a clause with >= 2
     literals. For a reason clause, lits.(0) is the implied literal. *)
  learnt : bool;
  mutable act : float;
  mutable lbd : int; (* glue (distinct decision levels) at learn time; 0 for problem clauses *)
  mutable removed : bool;
}

let dummy_clause = { lits = [||]; learnt = false; act = 0.; lbd = 0; removed = true }

(* Watch-list entry. [blocker] is some literal of the clause other than the
   watched one; if it is already true the clause is satisfied and the visit
   never touches the clause itself (better locality on the hot path). For
   binary clauses the blocker is the only other literal, so binary watchers
   carry the full semantics of the clause and propagation needs no search. *)
type watcher = { w_clause : clause; w_blocker : int }

let dummy_watcher = { w_clause = dummy_clause; w_blocker = 0 }

type budget = {
  max_conflicts : int option;
  max_propagations : int option;
  max_decisions : int option;
  max_seconds : float option;
  max_learnt_mb : float option;
}

let no_budget =
  {
    max_conflicts = None;
    max_propagations = None;
    max_decisions = None;
    max_seconds = None;
    max_learnt_mb = None;
  }

let budget ?conflicts ?propagations ?decisions ?seconds ?learnt_mb () =
  {
    max_conflicts = conflicts;
    max_propagations = propagations;
    max_decisions = decisions;
    max_seconds = seconds;
    max_learnt_mb = learnt_mb;
  }

let budget_scale b factor =
  let scale_int = Option.map (fun n -> int_of_float (ceil (float_of_int n *. factor))) in
  let scale_float = Option.map (fun x -> x *. factor) in
  {
    max_conflicts = scale_int b.max_conflicts;
    max_propagations = scale_int b.max_propagations;
    max_decisions = scale_int b.max_decisions;
    max_seconds = scale_float b.max_seconds;
    max_learnt_mb = scale_float b.max_learnt_mb;
  }

type unknown_reason =
  | Out_of_conflicts
  | Out_of_propagations
  | Out_of_decisions
  | Out_of_time
  | Out_of_memory_budget
  | Cancelled

let reason_to_string = function
  | Out_of_conflicts -> "conflict budget exhausted"
  | Out_of_propagations -> "propagation budget exhausted"
  | Out_of_decisions -> "decision budget exhausted"
  | Out_of_time -> "wall-clock budget exhausted"
  | Out_of_memory_budget -> "learnt-clause memory budget exhausted"
  | Cancelled -> "cancelled"

type fault =
  | Fault_exhaust of unknown_reason
  | Fault_cancel
  | Fault_alloc of int

type result = Sat | Unsat | Unknown of unknown_reason

type stats = {
  conflicts : int;
  decisions : int;
  propagations : int;
  restarts : int;
  learnt_clauses : int;
  clauses : int;
  vars : int;
}

(* Counters from one (or, accumulated, all) [preprocess] call(s). *)
type presult = {
  pre_clauses_before : int;
  pre_clauses_after : int;
  pre_subsumed : int;
  pre_strengthened : int;
  pre_eliminated : int;
  pre_resolvents : int;
  pre_units : int;
}

let empty_presult =
  {
    pre_clauses_before = 0;
    pre_clauses_after = 0;
    pre_subsumed = 0;
    pre_strengthened = 0;
    pre_eliminated = 0;
    pre_resolvents = 0;
    pre_units = 0;
  }

let presult_add a b =
  {
    pre_clauses_before = a.pre_clauses_before + b.pre_clauses_before;
    pre_clauses_after = a.pre_clauses_after + b.pre_clauses_after;
    pre_subsumed = a.pre_subsumed + b.pre_subsumed;
    pre_strengthened = a.pre_strengthened + b.pre_strengthened;
    pre_eliminated = a.pre_eliminated + b.pre_eliminated;
    pre_resolvents = a.pre_resolvents + b.pre_resolvents;
    pre_units = a.pre_units + b.pre_units;
  }

type answer = A_none | A_sat | A_unsat | A_unknown

type t = {
  mutable nvars : int;
  (* Per-variable state, arrays of capacity >= nvars. *)
  mutable assigns : int array; (* 0 = unassigned, 1 = true, -1 = false *)
  mutable level : int array;
  mutable reason : clause array; (* dummy_clause = none *)
  mutable activity : float array;
  mutable polarity : bool array; (* saved phase: true = assign negative *)
  mutable seen : bool array;
  (* Per-literal watch lists, capacity >= 2 * nvars. [watches] holds clauses
     of length >= 3; binary clauses live in [bin_watches], where each entry's
     blocker is the implied literal. *)
  mutable watches : watcher Vec.t array;
  mutable bin_watches : watcher Vec.t array;
  (* Clause databases. *)
  clauses : clause Vec.t;
  learnts : clause Vec.t;
  (* Assignment trail. *)
  trail : int Vec.t;
  trail_lim : int Vec.t;
  mutable qhead : int;
  (* VSIDS. *)
  mutable var_inc : float;
  mutable cla_inc : float;
  heap : int Vec.t; (* binary max-heap of variables by activity *)
  mutable heap_index : int array; (* position in heap, -1 if absent *)
  (* Assumptions for the current solve. *)
  mutable assumptions : int array;
  conflict : int Vec.t; (* failed assumptions, negated *)
  analyze_toclear : int Vec.t;
  (* LBD computation scratch: level -> stamp of the last clause that
     contained a literal at that level. *)
  mutable lbd_seen : int array;
  mutable lbd_stamp : int;
  (* DRAT proof logging (off unless [start_proof] was called). The stream
     is kept reversed; [proof] re-chronologizes it. *)
  mutable proof_logging : bool;
  mutable proof_rev : Drat.event list;
  (* Preprocessing (Simplify) state: variables resolved away by bounded
     variable elimination, their saved clauses for model reconstruction
     (most recent first), and watermarks so an incremental [preprocess]
     call only reconsiders clauses and trail literals added since the
     last one. *)
  mutable eliminated : bool array;
  mutable elim_stack : (int * int array array) list;
  mutable pre_watermark : int;
  mutable pre_trail_mark : int;
  mutable pre_acc : presult;
  (* Status. *)
  mutable ok : bool;
  mutable answer : answer;
  mutable model : bool array;
  mutable max_learnts : float;
  (* Statistics. *)
  mutable n_conflicts : int;
  mutable n_decisions : int;
  mutable n_propagations : int;
  mutable n_restarts : int;
  (* Resource governance: absolute limits for the active [solve] call
     (max_int / infinity when uncapped), set at entry from the budget plus
     the counters so far. [learnt_bytes] is an incremental estimate of the
     learnt database footprint, maintained on learn/remove. *)
  mutable lim_conflicts : int;
  mutable lim_propagations : int;
  mutable lim_decisions : int;
  mutable lim_learnt_bytes : int;
  mutable deadline : float;
  mutable fault_hook : (stats -> fault option) option;
  mutable learnt_bytes : int;
  mutable poll_count : int;
}

let clause_decay = 1. /. 0.999
let var_decay = 1. /. 0.95
let restart_base = 100

let create () =
  {
    nvars = 0;
    assigns = Array.make 16 0;
    level = Array.make 16 (-1);
    reason = Array.make 16 dummy_clause;
    activity = Array.make 16 0.;
    polarity = Array.make 16 true;
    seen = Array.make 16 false;
    watches = Array.init 32 (fun _ -> Vec.create dummy_watcher);
    bin_watches = Array.init 32 (fun _ -> Vec.create dummy_watcher);
    clauses = Vec.create dummy_clause;
    learnts = Vec.create dummy_clause;
    trail = Vec.create 0;
    trail_lim = Vec.create 0;
    qhead = 0;
    var_inc = 1.;
    cla_inc = 1.;
    heap = Vec.create 0;
    heap_index = Array.make 16 (-1);
    assumptions = [||];
    conflict = Vec.create 0;
    analyze_toclear = Vec.create 0;
    lbd_seen = Array.make 16 0;
    lbd_stamp = 0;
    proof_logging = false;
    proof_rev = [];
    eliminated = Array.make 16 false;
    elim_stack = [];
    pre_watermark = 0;
    pre_trail_mark = 0;
    pre_acc = empty_presult;
    ok = true;
    answer = A_none;
    model = [||];
    max_learnts = 0.;
    n_conflicts = 0;
    n_decisions = 0;
    n_propagations = 0;
    n_restarts = 0;
    lim_conflicts = max_int;
    lim_propagations = max_int;
    lim_decisions = max_int;
    lim_learnt_bytes = max_int;
    deadline = infinity;
    fault_hook = None;
    learnt_bytes = 0;
    poll_count = 0;
  }

let nvars s = s.nvars
let ok s = s.ok

(* ------------------------------------------------------------------ *)
(* DRAT proof logging.                                                 *)

let start_proof s =
  if Vec.size s.clauses > 0 || Vec.size s.learnts > 0 || Vec.size s.trail > 0 || not s.ok
  then invalid_arg "Solver.start_proof: must be enabled before any clause is added";
  s.proof_logging <- true;
  s.proof_rev <- []

let proof_logging s = s.proof_logging
let proof s = List.rev s.proof_rev

(* The solver permutes clause arrays in place (watch maintenance), so every
   logged clause is copied at logging time. *)
let log_input s lits =
  if s.proof_logging then
    s.proof_rev <- Drat.Input (Array.of_list lits) :: s.proof_rev

let log_add_list s lits =
  if s.proof_logging then
    s.proof_rev <- Drat.Add (Array.of_list lits) :: s.proof_rev

let log_add_arr s lits =
  if s.proof_logging then
    s.proof_rev <- Drat.Add (Array.copy lits) :: s.proof_rev

let log_empty s =
  if s.proof_logging then s.proof_rev <- Drat.Add [||] :: s.proof_rev

let log_delete s lits =
  if s.proof_logging then
    s.proof_rev <- Drat.Delete (Array.copy lits) :: s.proof_rev

(* ------------------------------------------------------------------ *)
(* Variable order heap (max-heap on activity).                         *)

let heap_lt s v1 v2 = s.activity.(v1) > s.activity.(v2)

let heap_swap s i j =
  let h = s.heap in
  let vi = Vec.get h i and vj = Vec.get h j in
  Vec.set h i vj;
  Vec.set h j vi;
  s.heap_index.(vi) <- j;
  s.heap_index.(vj) <- i

let rec heap_up s i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if heap_lt s (Vec.get s.heap i) (Vec.get s.heap parent) then begin
      heap_swap s i parent;
      heap_up s parent
    end
  end

let rec heap_down s i =
  let n = Vec.size s.heap in
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let best = if l < n && heap_lt s (Vec.get s.heap l) (Vec.get s.heap i) then l else i in
  let best = if r < n && heap_lt s (Vec.get s.heap r) (Vec.get s.heap best) then r else best in
  if best <> i then begin
    heap_swap s i best;
    heap_down s best
  end

let heap_insert s v =
  if s.heap_index.(v) < 0 then begin
    Vec.push s.heap v;
    s.heap_index.(v) <- Vec.size s.heap - 1;
    heap_up s (Vec.size s.heap - 1)
  end

let heap_decrease s v =
  (* Activity of [v] increased: move it toward the root. *)
  let i = s.heap_index.(v) in
  if i >= 0 then heap_up s i

let heap_pop s =
  let v = Vec.get s.heap 0 in
  let last = Vec.pop s.heap in
  s.heap_index.(v) <- -1;
  if Vec.size s.heap > 0 then begin
    Vec.set s.heap 0 last;
    s.heap_index.(last) <- 0;
    heap_down s 0
  end;
  v

(* ------------------------------------------------------------------ *)
(* Variables.                                                          *)

let grow_array a n dflt =
  let cap = Array.length a in
  if n <= cap then a
  else begin
    let a' = Array.make (max n (2 * cap)) dflt in
    Array.blit a 0 a' 0 cap;
    a'
  end

let new_var s =
  let v = s.nvars in
  s.nvars <- v + 1;
  s.assigns <- grow_array s.assigns s.nvars 0;
  s.level <- grow_array s.level s.nvars (-1);
  s.reason <- grow_array s.reason s.nvars dummy_clause;
  s.activity <- grow_array s.activity s.nvars 0.;
  s.polarity <- grow_array s.polarity s.nvars true;
  s.seen <- grow_array s.seen s.nvars false;
  s.heap_index <- grow_array s.heap_index s.nvars (-1);
  s.lbd_seen <- grow_array s.lbd_seen (s.nvars + 1) 0;
  s.eliminated <- grow_array s.eliminated s.nvars false;
  s.eliminated.(v) <- false;
  if 2 * s.nvars > Array.length s.watches then begin
    let grow_watchlists old =
      let a =
        Array.init (max (2 * s.nvars) (2 * Array.length old)) (fun _ ->
            Vec.create dummy_watcher)
      in
      Array.blit old 0 a 0 (Array.length old);
      a
    in
    s.watches <- grow_watchlists s.watches;
    s.bin_watches <- grow_watchlists s.bin_watches
  end;
  s.assigns.(v) <- 0;
  s.level.(v) <- -1;
  s.reason.(v) <- dummy_clause;
  s.activity.(v) <- 0.;
  s.polarity.(v) <- true;
  heap_insert s v;
  v

(* Literal value: 0 unassigned, 1 true, -1 false. *)
let value_lit s l =
  let a = s.assigns.(Lit.var l) in
  if Lit.is_neg l then -a else a

let decision_level s = Vec.size s.trail_lim

(* ------------------------------------------------------------------ *)
(* Activity.                                                           *)

let rescale_var_activity s =
  for v = 0 to s.nvars - 1 do
    s.activity.(v) <- s.activity.(v) *. 1e-100
  done;
  s.var_inc <- s.var_inc *. 1e-100

let bump_var s v =
  s.activity.(v) <- s.activity.(v) +. s.var_inc;
  if s.activity.(v) > 1e100 then rescale_var_activity s;
  heap_decrease s v

let decay_var_activity s = s.var_inc <- s.var_inc *. var_decay

let bump_clause s c =
  c.act <- c.act +. s.cla_inc;
  if c.act > 1e20 then begin
    Vec.iter (fun c -> c.act <- c.act *. 1e-20) s.learnts;
    s.cla_inc <- s.cla_inc *. 1e-20
  end

let decay_clause_activity s = s.cla_inc <- s.cla_inc *. clause_decay

(* ------------------------------------------------------------------ *)
(* Trail.                                                              *)

let unchecked_enqueue s l reason =
  let v = Lit.var l in
  s.assigns.(v) <- (if Lit.is_neg l then -1 else 1);
  s.level.(v) <- decision_level s;
  s.reason.(v) <- reason;
  Vec.push s.trail l

let new_decision_level s = Vec.push s.trail_lim (Vec.size s.trail)

let cancel_until s lvl =
  if decision_level s > lvl then begin
    let bound = Vec.get s.trail_lim lvl in
    for i = Vec.size s.trail - 1 downto bound do
      let l = Vec.get s.trail i in
      let v = Lit.var l in
      s.assigns.(v) <- 0;
      s.polarity.(v) <- Lit.is_neg l;
      s.reason.(v) <- dummy_clause;
      heap_insert s v
    done;
    Vec.shrink s.trail bound;
    Vec.shrink s.trail_lim lvl;
    s.qhead <- bound
  end

(* ------------------------------------------------------------------ *)
(* Clause attachment.                                                  *)

(* watches.(l) holds the clauses that must be inspected when [l] becomes
   true, i.e. the clauses watching the literal [negate l]. Binary clauses go
   to the dedicated implication lists instead. *)
let attach_clause s c =
  if Array.length c.lits = 2 then begin
    Vec.push s.bin_watches.(Lit.negate c.lits.(0)) { w_clause = c; w_blocker = c.lits.(1) };
    Vec.push s.bin_watches.(Lit.negate c.lits.(1)) { w_clause = c; w_blocker = c.lits.(0) }
  end
  else begin
    Vec.push s.watches.(Lit.negate c.lits.(0)) { w_clause = c; w_blocker = c.lits.(1) };
    Vec.push s.watches.(Lit.negate c.lits.(1)) { w_clause = c; w_blocker = c.lits.(0) }
  end

(* Detaching is lazy: [removed] clauses are dropped when the watch lists are
   next traversed, which avoids O(watchlist) scans here. *)
let remove_clause s c =
  c.removed <- true;
  if c.learnt then
    s.learnt_bytes <- s.learnt_bytes - (40 + (8 * Array.length c.lits));
  (* A removed clause must never remain a reason. Callers guarantee this via
     the [locked] check. *)
  log_delete s c.lits

let locked s c =
  Array.length c.lits > 0
  &&
  let v = Lit.var c.lits.(0) in
  s.reason.(v) == c && s.assigns.(v) <> 0

(* ------------------------------------------------------------------ *)
(* Propagation.                                                        *)

exception Conflict of clause

(* Binary implications for the newly-true literal [p]: each watcher's blocker
   is the only other literal of its clause, so the visit is assign-or-detect
   with no clause scan. Reason clauses keep the MiniSat invariant that
   lits.(0) is the implied literal, so the two binary literals are swapped
   into place on implication. *)
let propagate_bin s p =
  let ws = s.bin_watches.(p) in
  let i = ref 0 and j = ref 0 in
  let n = Vec.size ws in
  while !i < n do
    let w = Vec.unsafe_get ws !i in
    incr i;
    let c = w.w_clause in
    if not c.removed then begin
      Vec.unsafe_set ws !j w;
      incr j;
      let other = w.w_blocker in
      match value_lit s other with
      | 1 -> ()
      | 0 ->
          if c.lits.(0) <> other then begin
            c.lits.(0) <- other;
            c.lits.(1) <- Lit.negate p
          end;
          unchecked_enqueue s other c
      | _ ->
          (* Both literals false: conflict. Copy the tail back first. *)
          while !i < n do
            Vec.unsafe_set ws !j (Vec.unsafe_get ws !i);
            incr i;
            incr j
          done;
          Vec.shrink ws !j;
          s.qhead <- Vec.size s.trail;
          raise (Conflict c)
    end
  done;
  Vec.shrink ws !j

let propagate s =
  try
    while s.qhead < Vec.size s.trail do
      let p = Vec.get s.trail s.qhead in
      s.qhead <- s.qhead + 1;
      s.n_propagations <- s.n_propagations + 1;
      propagate_bin s p;
      let ws = s.watches.(p) in
      let i = ref 0 and j = ref 0 in
      let n = Vec.size ws in
      while !i < n do
        let w = Vec.unsafe_get ws !i in
        incr i;
        if value_lit s w.w_blocker = 1 then begin
          (* Blocker already true: the clause is satisfied, keep the watcher
             without touching the clause. *)
          Vec.unsafe_set ws !j w;
          incr j
        end
        else begin
          let c = w.w_clause in
          if not c.removed then begin
            let lits = c.lits in
            let false_lit = Lit.negate p in
            (* Make sure the false watch is at position 1. *)
            if lits.(0) = false_lit then begin
              lits.(0) <- lits.(1);
              lits.(1) <- false_lit
            end;
            if value_lit s lits.(0) = 1 then begin
              (* Clause already satisfied by the other watch: keep it, with
                 that watch as the new blocker. *)
              Vec.unsafe_set ws !j { w_clause = c; w_blocker = lits.(0) };
              incr j
            end
            else begin
              (* Look for a new literal to watch. *)
              let len = Array.length lits in
              let k = ref 2 in
              while !k < len && value_lit s lits.(!k) = -1 do incr k done;
              if !k < len then begin
                lits.(1) <- lits.(!k);
                lits.(!k) <- false_lit;
                Vec.push s.watches.(Lit.negate lits.(1)) { w_clause = c; w_blocker = lits.(0) }
                (* not kept in ws: do not copy *)
              end
              else begin
                (* Unit or conflicting. *)
                Vec.unsafe_set ws !j { w_clause = c; w_blocker = lits.(0) };
                incr j;
                if value_lit s lits.(0) = -1 then begin
                  (* Conflict: copy the remaining watchers back first. *)
                  while !i < n do
                    Vec.unsafe_set ws !j (Vec.unsafe_get ws !i);
                    incr i;
                    incr j
                  done;
                  Vec.shrink ws !j;
                  s.qhead <- Vec.size s.trail;
                  raise (Conflict c)
                end
                else unchecked_enqueue s lits.(0) c
              end
            end
          end
        end
      done;
      Vec.shrink ws !j
    done;
    None
  with Conflict c -> Some c

(* ------------------------------------------------------------------ *)
(* Conflict analysis (first UIP).                                      *)

(* Literal-blocks-distance ("glue", Audemard & Simon 2009): the number of
   distinct decision levels among the literals. Must be called while the
   literals are still assigned (i.e. before backtracking). *)
let compute_lbd s lits =
  s.lbd_stamp <- s.lbd_stamp + 1;
  let stamp = s.lbd_stamp in
  let count = ref 0 in
  Array.iter
    (fun l ->
      let lv = s.level.(Lit.var l) in
      if lv > 0 && s.lbd_seen.(lv) <> stamp then begin
        s.lbd_seen.(lv) <- stamp;
        incr count
      end)
    lits;
  !count

(* Is [l] implied by the current learnt set? Basic (non-recursive)
   minimization: every literal of its reason (other than the implied one)
   is already in the learnt clause or at level 0. *)
let lit_redundant s l =
  let r = s.reason.(Lit.var l) in
  (not (r == dummy_clause))
  &&
  let ok = ref true in
  for k = 1 to Array.length r.lits - 1 do
    let q = r.lits.(k) in
    if (not s.seen.(Lit.var q)) && s.level.(Lit.var q) > 0 then ok := false
  done;
  !ok

(* Returns (learnt clause literals, backtrack level). The asserting literal
   is at index 0 of the returned array. *)
let analyze s confl =
  let out = Vec.create 0 in
  Vec.push out 0 (* placeholder for the asserting literal *);
  let path_c = ref 0 in
  let p = ref (-1) in
  let index = ref (Vec.size s.trail - 1) in
  let c = ref confl in
  let continue = ref true in
  while !continue do
    if !c.learnt then begin
      bump_clause s !c;
      (* Dynamic glue update: a learnt clause involved in a new conflict may
         now span fewer levels than when it was learnt. Keep the minimum. *)
      let d = compute_lbd s !c.lits in
      if d < !c.lbd then !c.lbd <- d
    end;
    let start = if !p = -1 then 0 else 1 in
    for jj = start to Array.length !c.lits - 1 do
      let q = !c.lits.(jj) in
      let v = Lit.var q in
      if (not s.seen.(v)) && s.level.(v) > 0 then begin
        bump_var s v;
        s.seen.(v) <- true;
        Vec.push s.analyze_toclear v;
        if s.level.(v) >= decision_level s then incr path_c
        else Vec.push out q
      end
    done;
    (* Select next literal to expand: latest seen literal on the trail. *)
    while not s.seen.(Lit.var (Vec.get s.trail !index)) do decr index done;
    p := Vec.get s.trail !index;
    decr index;
    c := s.reason.(Lit.var !p);
    s.seen.(Lit.var !p) <- false;
    decr path_c;
    if !path_c <= 0 then continue := false
  done;
  Vec.set out 0 (Lit.negate !p);
  (* Minimize: drop redundant literals from the tail. *)
  let kept = Vec.create 0 in
  Vec.push kept (Vec.get out 0);
  for i = 1 to Vec.size out - 1 do
    let q = Vec.get out i in
    if not (lit_redundant s q) then Vec.push kept q
  done;
  (* Find the backtrack level: highest level among tail literals; put that
     literal at index 1 so it is watched after backtracking. *)
  let blevel =
    if Vec.size kept = 1 then 0
    else begin
      let max_i = ref 1 in
      for i = 2 to Vec.size kept - 1 do
        if s.level.(Lit.var (Vec.get kept i)) > s.level.(Lit.var (Vec.get kept !max_i))
        then max_i := i
      done;
      let tmp = Vec.get kept 1 in
      Vec.set kept 1 (Vec.get kept !max_i);
      Vec.set kept !max_i tmp;
      s.level.(Lit.var (Vec.get kept 1))
    end
  in
  (* Clear the seen flags. *)
  Vec.iter (fun v -> s.seen.(v) <- false) s.analyze_toclear;
  Vec.clear s.analyze_toclear;
  (Array.init (Vec.size kept) (Vec.get kept), blevel)

(* Produce the subset of assumptions responsible for falsifying literal [p]
   (which is a currently-false assumption, passed negated). *)
let analyze_final s p =
  Vec.clear s.conflict;
  Vec.push s.conflict p;
  if decision_level s > 0 then begin
    s.seen.(Lit.var p) <- true;
    let bottom = Vec.get s.trail_lim 0 in
    for i = Vec.size s.trail - 1 downto bottom do
      let l = Vec.get s.trail i in
      let v = Lit.var l in
      if s.seen.(v) then begin
        let r = s.reason.(v) in
        if r == dummy_clause then Vec.push s.conflict (Lit.negate l)
        else
          for k = 1 to Array.length r.lits - 1 do
            let q = r.lits.(k) in
            if s.level.(Lit.var q) > 0 then s.seen.(Lit.var q) <- true
          done;
        s.seen.(v) <- false
      end
    done;
    s.seen.(Lit.var p) <- false
  end

(* ------------------------------------------------------------------ *)
(* Clause addition.                                                    *)

let add_clause s lits =
  if decision_level s <> 0 then
    invalid_arg "Solver.add_clause: only allowed at decision level 0";
  List.iter
    (fun l ->
      if s.eliminated.(Lit.var l) then
        invalid_arg "Solver.add_clause: literal over an eliminated variable")
    lits;
  log_input s lits;
  if s.ok then begin
    (* Sort + dedup; detect tautologies and level-0 entailment. *)
    let lits = List.sort_uniq Int.compare lits in
    let tautology =
      let rec loop = function
        | a :: (b :: _ as rest) -> (Lit.var a = Lit.var b) || loop rest
        | _ -> false
      in
      loop lits
    in
    let satisfied = List.exists (fun l -> value_lit s l = 1) lits in
    if not (tautology || satisfied) then begin
      let filtered = List.filter (fun l -> value_lit s l <> -1) lits in
      (* Literals false at level 0 are dropped before storing; the stronger
         clause is a unit-propagation consequence of the original plus the
         level-0 facts, so it goes into the proof as a derived clause (and
         is the identity any later [Delete] of this clause refers to). *)
      if List.compare_lengths filtered lits <> 0 then log_add_list s filtered;
      match filtered with
      | [] -> s.ok <- false
      | [ l ] ->
          unchecked_enqueue s l dummy_clause;
          if propagate s <> None then begin
            s.ok <- false;
            log_empty s
          end
      | _ :: _ :: _ ->
          let c =
            { lits = Array.of_list filtered; learnt = false; act = 0.; lbd = 0; removed = false }
          in
          Vec.push s.clauses c;
          attach_clause s c
    end
  end

(* ------------------------------------------------------------------ *)
(* Learnt DB reduction and level-0 simplification.                     *)

let reduce_db s =
  if Obs.on () then
    Obs.Trace.span_begin "sat.reduce"
      ~args:[ ("learnts", string_of_int (Vec.size s.learnts)) ];
  (* Glue-based reduction (Glucose-style): sort so the clauses to drop come
     first — highest LBD first, coldest activity as tiebreak — then drop the
     first half. Binary clauses, "glue" clauses (LBD <= 2) and clauses
     currently acting as a reason are always kept. *)
  Vec.sort_sub
    (fun a b ->
      if a.lbd <> b.lbd then Int.compare b.lbd a.lbd else Float.compare a.act b.act)
    s.learnts;
  let n = Vec.size s.learnts in
  let keep = Vec.create dummy_clause in
  for i = 0 to n - 1 do
    let c = Vec.get s.learnts i in
    if locked s c || Array.length c.lits = 2 || c.lbd <= 2 || i >= n / 2 then
      Vec.push keep c
    else remove_clause s c
  done;
  Vec.clear s.learnts;
  Vec.iter (fun c -> Vec.push s.learnts c) keep;
  if Obs.on () then
    Obs.Trace.span_end "sat.reduce"
      ~args:[ ("kept", string_of_int (Vec.size s.learnts)) ]

let clause_satisfied s c =
  let rec loop i = i < Array.length c.lits && (value_lit s c.lits.(i) = 1 || loop (i + 1)) in
  loop 0

let simplify s =
  assert (decision_level s = 0);
  if Obs.on () then Obs.Trace.span_begin "sat.simplify";
  if s.ok && propagate s = None then begin
    let compact ?(track_watermark = false) vec =
      let keep = Vec.create dummy_clause in
      let removed_below = ref 0 in
      for i = 0 to Vec.size vec - 1 do
        let c = Vec.get vec i in
        if c.removed || (clause_satisfied s c && not (locked s c)) then begin
          if not c.removed then remove_clause s c;
          if track_watermark && i < s.pre_watermark then incr removed_below
        end
        else Vec.push keep c
      done;
      Vec.clear vec;
      Vec.iter (fun c -> Vec.push vec c) keep;
      (* Keep the preprocessing watermark pointing at the first clause not
         yet seen by [preprocess], across the index shifts of compaction. *)
      if track_watermark then s.pre_watermark <- max 0 (s.pre_watermark - !removed_below)
    in
    compact s.learnts;
    compact ~track_watermark:true s.clauses;
    if Obs.on () then Obs.Trace.span_end "sat.simplify"
  end
  else begin
    if s.ok && decision_level s = 0 then begin
      s.ok <- false;
      log_empty s
    end;
    if Obs.on () then Obs.Trace.span_end "sat.simplify"
  end

(* ------------------------------------------------------------------ *)
(* Search.                                                             *)

let pick_branch_var s =
  let rec loop () =
    if Vec.is_empty s.heap then None
    else begin
      let v = heap_pop s in
      if s.assigns.(v) = 0 then Some v else loop ()
    end
  in
  loop ()

exception Found_sat
exception Found_unsat
exception Restart
exception Stop of unknown_reason

let current_stats s =
  {
    conflicts = s.n_conflicts;
    decisions = s.n_decisions;
    propagations = s.n_propagations;
    restarts = s.n_restarts;
    learnt_clauses = Vec.size s.learnts;
    clauses = Vec.size s.clauses;
    vars = s.nvars;
  }

(* Budget and fault-hook poll, called on the cheap boundaries of the
   search loop (once per propagate-or-conflict iteration, never inside a
   propagation wave). Counter checks are plain compares against the
   absolute limits; the wall clock is only consulted when a deadline is
   set. *)
let poll_limits s =
  if s.n_conflicts >= s.lim_conflicts then raise (Stop Out_of_conflicts);
  if s.n_propagations >= s.lim_propagations then raise (Stop Out_of_propagations);
  if s.n_decisions >= s.lim_decisions then raise (Stop Out_of_decisions);
  if s.learnt_bytes >= s.lim_learnt_bytes then raise (Stop Out_of_memory_budget);
  (match s.fault_hook with
  | None -> ()
  | Some hook -> (
      match hook (current_stats s) with
      | None -> ()
      | Some (Fault_exhaust r) -> raise (Stop r)
      | Some Fault_cancel -> raise (Stop Cancelled)
      | Some (Fault_alloc words) ->
          (* Allocation pressure: a dead array the GC must sweep. *)
          ignore (Sys.opaque_identity (Array.make (max 1 words) 0))));
  s.poll_count <- s.poll_count + 1;
  (* gettimeofday costs far less than the decision + propagation wave each
     poll corresponds to, so no further amortization is needed. *)
  if s.deadline < infinity && Unix.gettimeofday () > s.deadline then
    raise (Stop Out_of_time)

(* Handle assumptions and pick the next decision. *)
let decide s =
  let rec assume () =
    if decision_level s < Array.length s.assumptions then begin
      let p = s.assumptions.(decision_level s) in
      match value_lit s p with
      | 1 ->
          (* Dummy level so the level <-> assumption indexing stays aligned. *)
          new_decision_level s;
          assume ()
      | -1 ->
          analyze_final s (Lit.negate p);
          raise Found_unsat
      | _ ->
          new_decision_level s;
          unchecked_enqueue s p dummy_clause
    end
    else begin
      s.n_decisions <- s.n_decisions + 1;
      match pick_branch_var s with
      | None -> raise Found_sat
      | Some v ->
          let l = Lit.make v ~neg:s.polarity.(v) in
          new_decision_level s;
          unchecked_enqueue s l dummy_clause
    end
  in
  assume ()

let record_learnt s learnt blevel ~lbd =
  (* First-UIP learnt clauses are derived by resolution over reason clauses,
     hence RUP with respect to the clauses alive right now. *)
  log_add_arr s learnt;
  cancel_until s blevel;
  match Array.length learnt with
  | 1 ->
      (* Asserting unit: goes to level 0 semantically, but we may be above
         level 0 because of assumptions; enqueue at the current (backtracked)
         level with no reason. Correct because blevel = 0 for units. *)
      unchecked_enqueue s learnt.(0) dummy_clause
  | _ ->
      let c = { lits = learnt; learnt = true; act = 0.; lbd; removed = false } in
      s.learnt_bytes <- s.learnt_bytes + 40 + (8 * Array.length learnt);
      Vec.push s.learnts c;
      attach_clause s c;
      bump_clause s c;
      unchecked_enqueue s learnt.(0) c

let search s ~max_conflicts =
  let conflict_c = ref 0 in
  let continue = ref true in
  while !continue do
    poll_limits s;
    match propagate s with
    | Some confl ->
        s.n_conflicts <- s.n_conflicts + 1;
        incr conflict_c;
        if decision_level s = 0 then begin
          s.ok <- false;
          log_empty s;
          raise Found_unsat
        end;
        let learnt, blevel = analyze s confl in
        (* LBD must be computed before [record_learnt] backtracks. *)
        let lbd = compute_lbd s learnt in
        record_learnt s learnt blevel ~lbd;
        decay_var_activity s;
        decay_clause_activity s
    | None ->
        if !conflict_c >= max_conflicts then begin
          cancel_until s 0;
          raise Restart
        end;
        if decision_level s = 0 then simplify s;
        if not s.ok then raise Found_unsat;
        if float_of_int (Vec.size s.learnts) -. float_of_int (Vec.size s.trail)
           >= s.max_learnts
        then reduce_db s;
        decide s
  done

(* Luby restart sequence (1-based): 1 1 2 1 1 2 4 1 1 2 1 1 2 4 8 ... *)
let rec luby i =
  (* Smallest k with 2^k - 1 >= i. *)
  let rec find_k k = if (1 lsl k) - 1 >= i then k else find_k (k + 1) in
  let k = find_k 1 in
  if (1 lsl k) - 1 = i then 1 lsl (k - 1) else luby (i - (1 lsl (k - 1)) + 1)

(* Arm the per-call limits. Counter caps are relative to this call (the
   counters accumulate across incremental solves); the learnt-memory cap is
   absolute, since it bounds the footprint of the shared database. *)
let set_limits s budget =
  let rel base = function None -> max_int | Some n -> base + max 0 n in
  s.lim_conflicts <- rel s.n_conflicts budget.max_conflicts;
  s.lim_propagations <- rel s.n_propagations budget.max_propagations;
  s.lim_decisions <- rel s.n_decisions budget.max_decisions;
  s.lim_learnt_bytes <-
    (match budget.max_learnt_mb with
    | None -> max_int
    | Some mb -> int_of_float (mb *. 1024. *. 1024.));
  s.deadline <-
    (match budget.max_seconds with
    | None -> infinity
    | Some sec -> Unix.gettimeofday () +. sec)

let clear_limits s =
  s.lim_conflicts <- max_int;
  s.lim_propagations <- max_int;
  s.lim_decisions <- max_int;
  s.lim_learnt_bytes <- max_int;
  s.deadline <- infinity

(* Deterministic polarity perturbation (xorshift keyed on the seed): flips
   the saved phases so a retry explores a different trajectory. Verdict-
   preserving — phases only steer the search. *)
let perturb_phases s seed =
  let st = ref (if seed = 0 then 0x9e3779b9 else seed) in
  for v = 0 to s.nvars - 1 do
    st := !st lxor (!st lsl 13);
    st := !st lxor (!st lsr 7);
    st := !st lxor (!st lsl 17);
    s.polarity.(v) <- !st land 1 = 1
  done

let set_fault_hook s hook = s.fault_hook <- hook
let solve ?(assumptions = []) ?(budget = no_budget) ?seed s =
  s.answer <- A_none;
  Vec.clear s.conflict;
  if not s.ok then begin
    s.answer <- A_unsat;
    Unsat
  end
  else begin
    set_limits s budget;
    (* Per-solve metric deltas: stats are cumulative on the solver, so
       sample them at entry and publish the difference at exit. *)
    let obs0 =
      if Obs.on () then Some (s.n_conflicts, s.n_propagations, Unix.gettimeofday ())
      else None
    in
    (match seed with None -> () | Some seed -> perturb_phases s seed);
    s.assumptions <- Array.of_list assumptions;
    if s.max_learnts = 0. then
      s.max_learnts <- max 1000. (float_of_int (Vec.size s.clauses) *. 0.3);
    let result = ref None in
    let restart = ref 1 in
    (try
       while !result = None do
         let bound = restart_base * luby !restart in
         (try
            search s ~max_conflicts:bound;
            assert false
          with
         | Found_sat ->
             s.model <- Array.init s.nvars (fun v -> s.assigns.(v) = 1);
             (* Extend the model over variables resolved away by elimination
                so callers can read any variable they ever allocated. *)
             if s.elim_stack <> [] then Simplify.extend_model s.elim_stack s.model;
             s.answer <- A_sat;
             result := Some Sat
         | Found_unsat ->
             s.answer <- A_unsat;
             result := Some Unsat
         | Restart ->
             s.n_restarts <- s.n_restarts + 1;
             s.max_learnts <- s.max_learnts *. 1.05;
             if Obs.on () then begin
               (* Restart boundaries are the natural sampling points for
                  conflict/propagation rates: frequent enough to plot, far
                  enough apart to stay off the propagation fast path. *)
               Obs.Trace.instant "sat.restart"
                 ~args:[ ("restarts", string_of_int s.n_restarts) ];
               Obs.Trace.counter "sat.conflicts" (float_of_int s.n_conflicts);
               Obs.Trace.counter "sat.propagations" (float_of_int s.n_propagations)
             end);
         incr restart
       done
     with Stop reason ->
       (* Budget exhausted or an injected fault: back out to a
          clean level-0 state. Learnt clauses (and their DRAT events) are
          kept, so a follow-up [solve] resumes from the accumulated work. *)
       s.answer <- A_unknown;
       result := Some (Unknown reason));
    clear_limits s;
    cancel_until s 0;
    s.assumptions <- [||];
    (match obs0 with
    | Some (c0, p0, t0) when Obs.on () ->
        Obs.Metrics.add (Obs.Metrics.counter "sat.solves") 1;
        Obs.Metrics.add (Obs.Metrics.counter "sat.conflicts") (s.n_conflicts - c0);
        Obs.Metrics.add (Obs.Metrics.counter "sat.propagations") (s.n_propagations - p0);
        Obs.Metrics.observe
          (Obs.Metrics.histogram "sat.solve.seconds")
          (Unix.gettimeofday () -. t0)
    | _ -> ());
    match !result with Some r -> r | None -> assert false
  end

let value s l =
  if s.answer <> A_sat then failwith "Solver.value: last answer was not Sat";
  let v = Lit.var l in
  if v >= Array.length s.model then failwith "Solver.value: unknown variable";
  if Lit.is_neg l then not s.model.(v) else s.model.(v)

let model s =
  if s.answer <> A_sat then failwith "Solver.model: last answer was not Sat";
  Array.copy s.model

let unsat_assumptions s =
  if s.answer <> A_unsat then
    failwith "Solver.unsat_assumptions: last answer was not Unsat";
  List.map Lit.negate (Vec.to_list s.conflict)

(* ------------------------------------------------------------------ *)
(* CNF preprocessing (see Simplify).                                   *)

(* Install a preprocessed clause (length >= 2). Watches must sit on
   non-false literals w.r.t. the level-0 assignment, or propagation would
   miss the clause entirely: preprocessing enqueues derived units without
   propagating between actions, so a clause may arrive with literals that
   are already false. *)
let install_clause s lits =
  let c = { lits = Array.copy lits; learnt = false; act = 0.; lbd = 0; removed = false } in
  let l = c.lits in
  let len = Array.length l in
  let k = ref 0 in
  (try
     for i = 0 to len - 1 do
       if value_lit s l.(i) <> -1 then begin
         let tmp = l.(!k) in
         l.(!k) <- l.(i);
         l.(i) <- tmp;
         incr k;
         if !k >= 2 then raise Exit
       end
     done
   with Exit -> ());
  Vec.push s.clauses c;
  attach_clause s c;
  if !k = 0 then begin
    s.ok <- false;
    log_empty s
  end
  else if !k = 1 && value_lit s l.(0) = 0 then unchecked_enqueue s l.(0) dummy_clause;
  c

let preprocess ?(elim = false) ?(frozen = []) s =
  if decision_level s <> 0 then
    invalid_arg "Solver.preprocess: only allowed at decision level 0";
  let before = Vec.size s.clauses in
  if Obs.on () then
    Obs.Trace.span_begin "sat.preprocess"
      ~args:[ ("clauses", string_of_int before); ("elim", string_of_bool elim) ];
  let finish st =
    let r =
      {
        pre_clauses_before = before;
        pre_clauses_after = Vec.size s.clauses;
        pre_subsumed = st.Simplify.s_subsumed;
        pre_strengthened = st.Simplify.s_strengthened;
        pre_eliminated = st.Simplify.s_eliminated;
        pre_resolvents = st.Simplify.s_resolvents;
        pre_units = st.Simplify.s_units;
      }
    in
    s.pre_acc <- presult_add s.pre_acc r;
    if Obs.on () then
      Obs.Trace.span_end "sat.preprocess"
        ~args:[ ("clauses", string_of_int r.pre_clauses_after) ];
    r
  in
  let nothing =
    {
      Simplify.s_subsumed = 0;
      s_strengthened = 0;
      s_eliminated = 0;
      s_resolvents = 0;
      s_units = 0;
    }
  in
  simplify s;
  if not s.ok then finish nothing
  else begin
    (* Level-0 implied literals never need their reason clause again
       (conflict analysis stops above level 0), so clear the pointers and
       let preprocessing strengthen or delete former reasons freely. *)
    Vec.iter (fun l -> s.reason.(Lit.var l) <- dummy_clause) s.trail;
    let n = Vec.size s.clauses in
    let ntrail = Vec.size s.trail in
    let db = Array.make (n + ntrail) [||] in
    let protected = Array.make (n + ntrail) false in
    let tbl : (int, clause) Hashtbl.t = Hashtbl.create (2 * (n + ntrail) + 16) in
    for i = 0 to n - 1 do
      let c = Vec.get s.clauses i in
      (* Snapshot: the solver permutes clause arrays in place. *)
      db.(i) <- Array.copy c.lits;
      Hashtbl.replace tbl i c
    done;
    (* The level-0 trail enters the database as protected unit clauses: it
       subsumes and strengthens but is itself immutable (those literals are
       assignments, not clause objects, and their DRAT events must stay). *)
    for i = 0 to ntrail - 1 do
      db.(n + i) <- [| Vec.get s.trail i |];
      protected.(n + i) <- true
    done;
    let fr = Array.make (max 1 s.nvars) false in
    List.iter (fun l -> fr.(Lit.var l) <- true) frozen;
    for v = 0 to s.nvars - 1 do
      if s.eliminated.(v) then fr.(v) <- true
    done;
    let config = { Simplify.default_config with bve = elim } in
    let seeds =
      if s.pre_watermark <= 0 && s.pre_trail_mark <= 0 then None
      else begin
        let ids = ref [] in
        for i = n - 1 downto min s.pre_watermark n do
          ids := i :: !ids
        done;
        for i = ntrail - 1 downto min s.pre_trail_mark ntrail do
          ids := (n + i) :: !ids
        done;
        Some !ids
      end
    in
    let actions, st = Simplify.run ~config ?seeds ~nvars:s.nvars ~frozen:fr ~protected db in
    let stopped = ref false in
    let apply = function
      | Simplify.Remove id -> (
          match Hashtbl.find_opt tbl id with
          | Some c -> if not c.removed then remove_clause s c
          | None -> ())
      | Simplify.Strengthen (id, lits) -> (
          match Hashtbl.find_opt tbl id with
          | Some old ->
              log_add_arr s lits;
              let c = install_clause s lits in
              Hashtbl.replace tbl id c;
              if not old.removed then remove_clause s old
          | None -> ())
      | Simplify.Add (id, lits) ->
          log_add_arr s lits;
          let c = install_clause s lits in
          Hashtbl.replace tbl id c
      | Simplify.Unit l ->
          log_add_list s [ l ];
          (match value_lit s l with
          | 0 -> unchecked_enqueue s l dummy_clause
          | 1 -> ()
          | _ ->
              s.ok <- false;
              log_empty s;
              stopped := true)
      | Simplify.Empty ->
          if s.ok then begin
            s.ok <- false;
            log_empty s
          end;
          stopped := true
      | Simplify.Eliminate (v, saved) ->
          s.eliminated.(v) <- true;
          s.elim_stack <- (v, saved) :: s.elim_stack
    in
    List.iter (fun a -> if not !stopped then apply a) actions;
    if s.ok && propagate s <> None then begin
      s.ok <- false;
      log_empty s
    end;
    (* Compact the problem database and advance the watermarks. *)
    let keep = Vec.create dummy_clause in
    Vec.iter (fun c -> if not c.removed then Vec.push keep c) s.clauses;
    Vec.clear s.clauses;
    Vec.iter (fun c -> Vec.push s.clauses c) keep;
    s.pre_watermark <- Vec.size s.clauses;
    s.pre_trail_mark <- Vec.size s.trail;
    finish st
  end

let preprocess_totals s = s.pre_acc

let stats = current_stats

let pp_stats ppf st =
  Format.fprintf ppf
    "vars=%d clauses=%d learnt=%d conflicts=%d decisions=%d propagations=%d \
     restarts=%d"
    st.vars st.clauses st.learnt_clauses st.conflicts st.decisions
    st.propagations st.restarts
