(* CDCL solver. The architecture follows MiniSat 2.2 closely; comments
   below mark the places where invariants are subtle (watch maintenance,
   first-UIP analysis, reason locking, arena relocation).

   Data layout. Every clause of length >= 2 lives in one flat [int array],
   the arena, and is named by a clause reference ("cref"): the offset of
   its header word. A clause occupies [hdr + size] consecutive words:

     arena.(c)          header: bit 0 removed, bit 1 learnt,
                        bits 2..31 size, bits 32.. LBD
     arena.(c + 1)      activity (learnt clauses), as the bits of a
                        non-negative float; the forwarding cref while
                        [compact_arena] runs
     arena.(c + hdr + i)  literal i

   Invariants:
   - lits[0] and lits[1] are the watched literals; for a clause that is the
     reason of an assignment, lits[0] is the implied literal.
   - Detach is lazy: [remove_clause] only sets the removed bit and counts
     the clause's words as wasted. Watchers of removed clauses are dropped
     when propagation next visits them or when the arena is compacted.
   - Every clause that is not removed is in exactly one of [clauses] and
     [learnts] whenever the arena may be compacted (after [reduce_db],
     [simplify] and [preprocess]), and no reason points at a removed
     clause.
   - Compaction relocates: once the wasted words pass a fixed fraction of
     the arena, live clauses are copied to a fresh arena in database order
     and every cref held by the watch lists, [reason] and both databases is
     rewritten. Watch lists and [learnts] keep their order, so compaction
     never changes the search.

   Watch lists, the trail, the databases and the VSIDS heap are [ivec]s,
   monomorphic int vectors; a watch entry is the pair (cref, blocker)
   stored in two consecutive slots. The blocker is some literal of the
   clause other than the watched one; if it is already true the clause is
   satisfied and the visit never touches the arena (better locality on the
   hot path). For binary clauses the blocker is the only other literal, so
   binary watchers carry the full semantics of the clause and propagation
   needs no search. The hot paths inline their literal arithmetic ([var],
   [neg]) rather than calling [Lit]: across modules every call is a real
   call.

   Values are kept per literal: [vals.(l)] is 1, -1 or 0 (true, false,
   unassigned), and assigning or unassigning a variable writes both of
   its literals, so every watcher visit reads a value with one load. *)

(* ------------------------------------------------------------------ *)
(* Int vectors.                                                        *)

type ivec = { mutable a : int array; mutable n : int }

let ivec_create () = { a = [||]; n = 0 }

let ivec_grow v need =
  let a' = Array.make (max need (max 8 (2 * Array.length v.a))) 0 in
  Array.blit v.a 0 a' 0 v.n;
  v.a <- a'

let ivec_push v x =
  if v.n = Array.length v.a then ivec_grow v (v.n + 1);
  Array.unsafe_set v.a v.n x;
  v.n <- v.n + 1

(* Push a watch entry (cref, blocker). *)
let ivec_push2 v x y =
  if v.n + 2 > Array.length v.a then ivec_grow v (v.n + 2);
  Array.unsafe_set v.a v.n x;
  Array.unsafe_set v.a (v.n + 1) y;
  v.n <- v.n + 2

let[@inline] var l = l lsr 1
let[@inline] neg l = l lxor 1

(* ------------------------------------------------------------------ *)
(* Clause arena encoding.                                              *)

let hdr = 2
let no_cref = -1
let size_mask = (1 lsl 30) - 1
let[@inline] h_removed h = h land 1 <> 0
let[@inline] h_learnt h = h land 2 <> 0
let[@inline] h_size h = (h lsr 2) land size_mask
let[@inline] h_lbd h = h lsr 32

(* Activities are non-negative, so bit 63 of their IEEE encoding is 0 and
   the other 63 bits fit an OCaml int exactly. *)
let[@inline] act_get ar c =
  Int64.float_of_bits (Int64.logand (Int64.of_int (Array.unsafe_get ar (c + 1))) Int64.max_int)

let[@inline] act_set ar c x = Array.unsafe_set ar (c + 1) (Int64.to_int (Int64.bits_of_float x))

(* Wasted words above this share of the used arena trigger compaction. *)
let garbage_frac = 0.2

type budget = { max_conflicts : int option; max_seconds : float option }

let no_budget = { max_conflicts = None; max_seconds = None }
let budget ?conflicts ?seconds () = { max_conflicts = conflicts; max_seconds = seconds }

type unknown_reason = Out_of_conflicts | Out_of_time

let reason_to_string = function
  | Out_of_conflicts -> "conflict budget exhausted"
  | Out_of_time -> "wall-clock budget exhausted"

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

(* Counters from one [preprocess] call. *)
type presult = {
  pre_clauses_before : int;
  pre_clauses_after : int;
  pre_subsumed : int;
  pre_strengthened : int;
  pre_eliminated : int;
  pre_resolvents : int;
  pre_units : int;
}

type answer = A_none | A_sat | A_unsat | A_unknown

type t = {
  mutable nvars : int;
  mutable vals : int array; (* per literal (see the header), capacity >= 2 * nvars *)
  (* Per-variable state, arrays of capacity >= nvars. *)
  mutable level : int array;
  mutable reason : int array; (* cref, or no_cref *)
  mutable activity : float array;
  mutable polarity : bool array; (* saved phase: true = assign negative *)
  mutable seen : bool array;
  (* Per-literal watch lists of (cref, blocker) pairs, capacity >= 2 * nvars.
     [watches] holds clauses of length >= 3; binary clauses live in
     [bin_watches], where each entry's blocker is the implied literal. *)
  mutable watches : ivec array;
  mutable bin_watches : ivec array;
  (* Clause arena (see the header comment) and the two databases. *)
  mutable arena : int array;
  mutable arena_top : int; (* first free word *)
  mutable arena_wasted : int; (* words held by removed clauses *)
  clauses : ivec;
  learnts : ivec;
  (* Assignment trail. *)
  trail : ivec;
  trail_lim : ivec;
  mutable qhead : int;
  (* VSIDS. *)
  mutable var_inc : float;
  mutable cla_inc : float;
  heap : ivec; (* binary max-heap of variables by activity *)
  mutable heap_index : int array; (* position in heap, -1 if absent *)
  (* Assumptions for the current solve. *)
  mutable assumptions : int array;
  conflict : ivec; (* failed assumptions, negated *)
  analyze_toclear : ivec;
  learnt_buf : ivec; (* conflict analysis output, reused across conflicts *)
  (* LBD computation scratch: level -> stamp of the last clause that
     contained a literal at that level. *)
  mutable lbd_seen : int array;
  mutable lbd_stamp : int;
  (* Trail size at the last level-0 [simplify] (MiniSat's simpDB_assigns),
     or -1 once a problem clause was added since. While the level-0 trail
     has not grown, another pass would remove nothing. *)
  mutable simp_assigns : int;
  (* DRAT proof logging (off unless [start_proof] was called). The stream
     is kept reversed; [proof] re-chronologizes it. *)
  mutable proof_logging : bool;
  mutable proof_rev : Drat.event list;
  (* Preprocessing (Simplify) state: variables resolved away by bounded
     variable elimination and their saved clauses for model
     reconstruction (most recent first). *)
  mutable eliminated : bool array;
  mutable elim_stack : (int * int array array) list;
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
     the counters so far. *)
  mutable lim_conflicts : int;
  mutable deadline : float;
}

let clause_decay = 1. /. 0.999
let var_decay = 1. /. 0.95
let restart_base = 100

let create () =
  {
    nvars = 0;
    vals = Array.make 32 0;
    level = Array.make 16 (-1);
    reason = Array.make 16 no_cref;
    activity = Array.make 16 0.;
    polarity = Array.make 16 true;
    seen = Array.make 16 false;
    watches = Array.init 32 (fun _ -> ivec_create ());
    bin_watches = Array.init 32 (fun _ -> ivec_create ());
    arena = Array.make 256 0;
    arena_top = 0;
    arena_wasted = 0;
    clauses = ivec_create ();
    learnts = ivec_create ();
    trail = ivec_create ();
    trail_lim = ivec_create ();
    qhead = 0;
    var_inc = 1.;
    cla_inc = 1.;
    heap = ivec_create ();
    heap_index = Array.make 16 (-1);
    assumptions = [||];
    conflict = ivec_create ();
    analyze_toclear = ivec_create ();
    learnt_buf = ivec_create ();
    lbd_seen = Array.make 16 0;
    lbd_stamp = 0;
    simp_assigns = -1;
    proof_logging = false;
    proof_rev = [];
    eliminated = Array.make 16 false;
    elim_stack = [];
    ok = true;
    answer = A_none;
    model = [||];
    max_learnts = 0.;
    n_conflicts = 0;
    n_decisions = 0;
    n_propagations = 0;
    n_restarts = 0;
    lim_conflicts = max_int;
    deadline = infinity;
  }

let nvars s = s.nvars
let ok s = s.ok

(* ------------------------------------------------------------------ *)
(* Clause access.                                                      *)

let[@inline] c_size s c = h_size (Array.unsafe_get s.arena c)
let[@inline] c_lit s c i = s.arena.(c + hdr + i)
let c_lits s c = Array.sub s.arena (c + hdr) (c_size s c)

(* Reserve a clause of [size] literals; the caller fills them in. The arena
   may move, so re-read [s.arena] afterwards. *)
let alloc_clause s ~learnt ~lbd size =
  let need = s.arena_top + hdr + size in
  if need > Array.length s.arena then begin
    let a = Array.make (max need (2 * Array.length s.arena)) 0 in
    Array.blit s.arena 0 a 0 s.arena_top;
    s.arena <- a
  end;
  let c = s.arena_top in
  s.arena.(c) <- (lbd lsl 32) lor (size lsl 2) lor if learnt then 2 else 0;
  s.arena.(c + 1) <- 0;
  s.arena_top <- need;
  c

(* ------------------------------------------------------------------ *)
(* DRAT proof logging.                                                 *)

let start_proof s =
  if s.clauses.n > 0 || s.learnts.n > 0 || s.trail.n > 0 || not s.ok then
    invalid_arg "Solver.start_proof: must be enabled before any clause is added";
  s.proof_logging <- true;
  s.proof_rev <- []

let proof s = List.rev s.proof_rev

(* The solver permutes clause literals in place (watch maintenance), so
   every logged clause is copied at logging time. *)
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

let log_delete s c =
  if s.proof_logging then s.proof_rev <- Drat.Delete (c_lits s c) :: s.proof_rev

(* ------------------------------------------------------------------ *)
(* Variable order heap (max-heap on activity).                         *)

let[@inline] heap_lt s v1 v2 = s.activity.(v1) > s.activity.(v2)

let heap_swap s i j =
  let h = s.heap.a in
  let vi = h.(i) and vj = h.(j) in
  h.(i) <- vj;
  h.(j) <- vi;
  s.heap_index.(vi) <- j;
  s.heap_index.(vj) <- i

let rec heap_up s i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if heap_lt s s.heap.a.(i) s.heap.a.(parent) then begin
      heap_swap s i parent;
      heap_up s parent
    end
  end

let rec heap_down s i =
  let n = s.heap.n and h = s.heap.a in
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let best = if l < n && heap_lt s h.(l) h.(i) then l else i in
  let best = if r < n && heap_lt s h.(r) h.(best) then r else best in
  if best <> i then begin
    heap_swap s i best;
    heap_down s best
  end

let heap_insert s v =
  if s.heap_index.(v) < 0 then begin
    ivec_push s.heap v;
    s.heap_index.(v) <- s.heap.n - 1;
    heap_up s (s.heap.n - 1)
  end

let heap_decrease s v =
  (* Activity of [v] increased: move it toward the root. *)
  let i = s.heap_index.(v) in
  if i >= 0 then heap_up s i

let heap_pop s =
  let h = s.heap.a in
  let v = h.(0) in
  s.heap.n <- s.heap.n - 1;
  let last = h.(s.heap.n) in
  s.heap_index.(v) <- -1;
  if s.heap.n > 0 then begin
    h.(0) <- last;
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
  s.vals <- grow_array s.vals (2 * s.nvars) 0;
  s.level <- grow_array s.level s.nvars (-1);
  s.reason <- grow_array s.reason s.nvars no_cref;
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
        Array.init (max (2 * s.nvars) (2 * Array.length old)) (fun _ -> ivec_create ())
      in
      Array.blit old 0 a 0 (Array.length old);
      a
    in
    s.watches <- grow_watchlists s.watches;
    s.bin_watches <- grow_watchlists s.bin_watches
  end;
  s.vals.(2 * v) <- 0;
  s.vals.((2 * v) + 1) <- 0;
  s.level.(v) <- -1;
  s.reason.(v) <- no_cref;
  s.activity.(v) <- 0.;
  s.polarity.(v) <- true;
  heap_insert s v;
  v

(* Literal value: 0 unassigned, 1 true, -1 false. *)
let[@inline] value_lit s l = Array.unsafe_get s.vals l

let[@inline] decision_level s = s.trail_lim.n

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
  let ar = s.arena in
  let act = act_get ar c +. s.cla_inc in
  act_set ar c act;
  if act > 1e20 then begin
    for i = 0 to s.learnts.n - 1 do
      let l = s.learnts.a.(i) in
      act_set ar l (act_get ar l *. 1e-20)
    done;
    s.cla_inc <- s.cla_inc *. 1e-20
  end

let decay_clause_activity s = s.cla_inc <- s.cla_inc *. clause_decay

(* ------------------------------------------------------------------ *)
(* Trail.                                                              *)

let[@inline] unchecked_enqueue s l reason =
  let v = var l in
  Array.unsafe_set s.vals l 1;
  Array.unsafe_set s.vals (neg l) (-1);
  Array.unsafe_set s.level v s.trail_lim.n;
  Array.unsafe_set s.reason v reason;
  ivec_push s.trail l

let new_decision_level s = ivec_push s.trail_lim s.trail.n

let cancel_until s lvl =
  if decision_level s > lvl then begin
    let bound = s.trail_lim.a.(lvl) in
    for i = s.trail.n - 1 downto bound do
      let l = s.trail.a.(i) in
      let v = var l in
      s.vals.(l) <- 0;
      s.vals.(neg l) <- 0;
      s.polarity.(v) <- l land 1 = 1;
      s.reason.(v) <- no_cref;
      heap_insert s v
    done;
    s.trail.n <- bound;
    s.trail_lim.n <- lvl;
    s.qhead <- bound
  end

(* ------------------------------------------------------------------ *)
(* Clause attachment.                                                  *)

(* watches.(l) holds the clauses that must be inspected when [l] becomes
   true, i.e. the clauses watching the literal [neg l]. Binary clauses go
   to the dedicated implication lists instead. *)
let attach_clause s c =
  let l0 = c_lit s c 0 and l1 = c_lit s c 1 in
  let ws = if c_size s c = 2 then s.bin_watches else s.watches in
  ivec_push2 ws.(neg l0) c l1;
  ivec_push2 ws.(neg l1) c l0

(* Detaching is lazy: removed clauses are dropped when the watch lists are
   next traversed or the arena is compacted, which avoids O(watchlist)
   scans here. *)
let remove_clause s c =
  let h = s.arena.(c) in
  s.arena.(c) <- h lor 1;
  let size = h_size h in
  s.arena_wasted <- s.arena_wasted + hdr + size;
  (* A removed clause must never remain a reason. Callers guarantee this via
     the [locked] check. *)
  log_delete s c

let locked s c =
  let v = var (c_lit s c 0) in
  s.reason.(v) = c && s.vals.(2 * v) <> 0

(* Copy the live clauses into a fresh arena, in database order, and rewrite
   every cref: the databases, the reasons and the watch lists (dropping the
   watchers of removed clauses, keeping the order of the rest). *)
let compact_arena s =
  let old = s.arena in
  let live = s.arena_top - s.arena_wasted in
  if Obs.on () then
    Obs.Trace.span_begin "sat.compact"
      ~args:[ ("words", string_of_int s.arena_top); ("live", string_of_int live) ];
  let fresh = Array.make (max 256 (live + (live / 2))) 0 in
  let top = ref 0 in
  let relocate db =
    for i = 0 to db.n - 1 do
      let c = db.a.(i) in
      let len = hdr + h_size old.(c) in
      Array.blit old c fresh !top len;
      old.(c + 1) <- !top;
      db.a.(i) <- !top;
      top := !top + len
    done
  in
  relocate s.clauses;
  relocate s.learnts;
  for v = 0 to s.nvars - 1 do
    let r = s.reason.(v) in
    if r <> no_cref then
      s.reason.(v) <- (if h_removed old.(r) then no_cref else old.(r + 1))
  done;
  let relocate_watches ws =
    let j = ref 0 in
    let i = ref 0 in
    while !i < ws.n do
      let c = ws.a.(!i) in
      if not (h_removed old.(c)) then begin
        ws.a.(!j) <- old.(c + 1);
        ws.a.(!j + 1) <- ws.a.(!i + 1);
        j := !j + 2
      end;
      i := !i + 2
    done;
    ws.n <- !j
  in
  for l = 0 to (2 * s.nvars) - 1 do
    relocate_watches s.watches.(l);
    relocate_watches s.bin_watches.(l)
  done;
  s.arena <- fresh;
  s.arena_top <- !top;
  s.arena_wasted <- 0;
  if Obs.on () then Obs.Trace.span_end "sat.compact"

let maybe_compact s =
  if float_of_int s.arena_wasted > float_of_int s.arena_top *. garbage_frac then
    compact_arena s

(* ------------------------------------------------------------------ *)
(* Propagation.                                                        *)

(* Binary implications for the newly-true literal [p]: each watcher's blocker
   is the only other literal of its clause, so the visit is assign-or-detect
   with no clause scan. Reason clauses keep the MiniSat invariant that
   lits[0] is the implied literal, so the two binary literals are swapped
   into place on implication. Returns the conflicting cref or [no_cref]. *)
let propagate_bin s p =
  let ws = s.bin_watches.(p) in
  let wa = ws.a and n = ws.n and ar = s.arena in
  let i = ref 0 and j = ref 0 in
  let confl = ref no_cref in
  while !i < n do
    let c = Array.unsafe_get wa !i and other = Array.unsafe_get wa (!i + 1) in
    i := !i + 2;
    if not (h_removed (Array.unsafe_get ar c)) then begin
      Array.unsafe_set wa !j c;
      Array.unsafe_set wa (!j + 1) other;
      j := !j + 2;
      match value_lit s other with
      | 1 -> ()
      | 0 ->
          if Array.unsafe_get ar (c + hdr) <> other then begin
            Array.unsafe_set ar (c + hdr) other;
            Array.unsafe_set ar (c + hdr + 1) (neg p)
          end;
          unchecked_enqueue s other c
      | _ ->
          (* Both literals false: conflict. Copy the tail back first. *)
          confl := c;
          while !i < n do
            Array.unsafe_set wa !j (Array.unsafe_get wa !i);
            incr i;
            incr j
          done
    end
  done;
  ws.n <- !j;
  !confl

(* Long clauses watched by [neg p], now false. *)
let propagate_long s p =
  let ws = s.watches.(p) in
  let wa = ws.a and n = ws.n and ar = s.arena in
  let false_lit = neg p in
  let i = ref 0 and j = ref 0 in
  let confl = ref no_cref in
  while !i < n do
    let c = Array.unsafe_get wa !i and blocker = Array.unsafe_get wa (!i + 1) in
    i := !i + 2;
    if value_lit s blocker = 1 then begin
      (* Blocker already true: the clause is satisfied, keep the watcher
         without touching the clause. *)
      Array.unsafe_set wa !j c;
      Array.unsafe_set wa (!j + 1) blocker;
      j := !j + 2
    end
    else begin
      let h = Array.unsafe_get ar c in
      if not (h_removed h) then begin
        let b = c + hdr in
        (* Make sure the false watch is at position 1. *)
        if Array.unsafe_get ar b = false_lit then begin
          Array.unsafe_set ar b (Array.unsafe_get ar (b + 1));
          Array.unsafe_set ar (b + 1) false_lit
        end;
        let first = Array.unsafe_get ar b in
        if value_lit s first = 1 then begin
          (* Clause already satisfied by the other watch: keep it, with
             that watch as the new blocker. *)
          Array.unsafe_set wa !j c;
          Array.unsafe_set wa (!j + 1) first;
          j := !j + 2
        end
        else begin
          (* Look for a new literal to watch. *)
          let stop = b + h_size h in
          let k = ref (b + 2) in
          while !k < stop && value_lit s (Array.unsafe_get ar !k) = -1 do incr k done;
          if !k < stop then begin
            let l = Array.unsafe_get ar !k in
            Array.unsafe_set ar (b + 1) l;
            Array.unsafe_set ar !k false_lit;
            ivec_push2 s.watches.(neg l) c first
            (* not kept in ws: do not copy *)
          end
          else begin
            (* Unit or conflicting. *)
            Array.unsafe_set wa !j c;
            Array.unsafe_set wa (!j + 1) first;
            j := !j + 2;
            if value_lit s first = -1 then begin
              (* Conflict: copy the remaining watchers back first. *)
              confl := c;
              while !i < n do
                Array.unsafe_set wa !j (Array.unsafe_get wa !i);
                incr i;
                incr j
              done
            end
            else unchecked_enqueue s first c
          end
        end
      end
    end
  done;
  ws.n <- !j;
  !confl

(* Returns the conflicting cref, or [no_cref] once the queue is empty. *)
let propagate s =
  let confl = ref no_cref in
  while !confl = no_cref && s.qhead < s.trail.n do
    let p = Array.unsafe_get s.trail.a s.qhead in
    s.qhead <- s.qhead + 1;
    s.n_propagations <- s.n_propagations + 1;
    confl := propagate_bin s p;
    if !confl = no_cref then confl := propagate_long s p
  done;
  if !confl <> no_cref then s.qhead <- s.trail.n;
  !confl

(* ------------------------------------------------------------------ *)
(* Conflict analysis (first UIP).                                      *)

(* Literal-blocks-distance ("glue", Audemard & Simon 2009): the number of
   distinct decision levels among the [len] literals at [a.(off)]. Must be
   called while the literals are still assigned (i.e. before backtracking). *)
let compute_lbd s a off len =
  s.lbd_stamp <- s.lbd_stamp + 1;
  let stamp = s.lbd_stamp in
  let count = ref 0 in
  for i = off to off + len - 1 do
    let lv = s.level.(var a.(i)) in
    if lv > 0 && s.lbd_seen.(lv) <> stamp then begin
      s.lbd_seen.(lv) <- stamp;
      incr count
    end
  done;
  !count

(* Is [l] implied by the current learnt set? Basic (non-recursive)
   minimization: every literal of its reason (other than the implied one)
   is already in the learnt clause or at level 0. *)
let lit_redundant s l =
  let r = s.reason.(var l) in
  r <> no_cref
  &&
  let ok = ref true in
  for k = 1 to c_size s r - 1 do
    let q = c_lit s r k in
    if (not s.seen.(var q)) && s.level.(var q) > 0 then ok := false
  done;
  !ok

(* Leaves the learnt clause in [s.learnt_buf], asserting literal first,
   and returns the backtrack level. *)
let analyze s confl =
  let out = s.learnt_buf in
  out.n <- 0;
  ivec_push out 0 (* placeholder for the asserting literal *);
  let path_c = ref 0 in
  let p = ref (-1) in
  let index = ref (s.trail.n - 1) in
  let c = ref confl in
  let continue = ref true in
  while !continue do
    let h = s.arena.(!c) in
    if h_learnt h then begin
      bump_clause s !c;
      (* Dynamic glue update: a learnt clause involved in a new conflict may
         now span fewer levels than when it was learnt. Keep the minimum. *)
      let d = compute_lbd s s.arena (!c + hdr) (h_size h) in
      if d < h_lbd h then s.arena.(!c) <- (h land 0xFFFF_FFFF) lor (d lsl 32)
    end;
    let start = if !p = -1 then 0 else 1 in
    for jj = start to h_size h - 1 do
      let q = c_lit s !c jj in
      let v = var q in
      if (not s.seen.(v)) && s.level.(v) > 0 then begin
        bump_var s v;
        s.seen.(v) <- true;
        ivec_push s.analyze_toclear v;
        if s.level.(v) >= decision_level s then incr path_c else ivec_push out q
      end
    done;
    (* Select next literal to expand: latest seen literal on the trail. *)
    while not s.seen.(var s.trail.a.(!index)) do decr index done;
    p := s.trail.a.(!index);
    decr index;
    c := s.reason.(var !p);
    s.seen.(var !p) <- false;
    decr path_c;
    if !path_c <= 0 then continue := false
  done;
  out.a.(0) <- neg !p;
  (* Minimize in place: drop redundant literals from the tail. *)
  let kept = ref 1 in
  for i = 1 to out.n - 1 do
    let q = out.a.(i) in
    if not (lit_redundant s q) then begin
      out.a.(!kept) <- q;
      incr kept
    end
  done;
  out.n <- !kept;
  (* Find the backtrack level: highest level among tail literals; put that
     literal at index 1 so it is watched after backtracking. *)
  let blevel =
    if out.n = 1 then 0
    else begin
      let a = out.a in
      let max_i = ref 1 in
      for i = 2 to out.n - 1 do
        if s.level.(var a.(i)) > s.level.(var a.(!max_i)) then max_i := i
      done;
      let tmp = a.(1) in
      a.(1) <- a.(!max_i);
      a.(!max_i) <- tmp;
      s.level.(var a.(1))
    end
  in
  (* Clear the seen flags. *)
  for i = 0 to s.analyze_toclear.n - 1 do
    s.seen.(s.analyze_toclear.a.(i)) <- false
  done;
  s.analyze_toclear.n <- 0;
  blevel

(* Produce the subset of assumptions responsible for falsifying literal [p]
   (which is a currently-false assumption, passed negated). *)
let analyze_final s p =
  s.conflict.n <- 0;
  ivec_push s.conflict p;
  if decision_level s > 0 then begin
    s.seen.(var p) <- true;
    let bottom = s.trail_lim.a.(0) in
    for i = s.trail.n - 1 downto bottom do
      let l = s.trail.a.(i) in
      let v = var l in
      if s.seen.(v) then begin
        let r = s.reason.(v) in
        if r = no_cref then ivec_push s.conflict (neg l)
        else
          for k = 1 to c_size s r - 1 do
            let q = c_lit s r k in
            if s.level.(var q) > 0 then s.seen.(var q) <- true
          done;
        s.seen.(v) <- false
      end
    done;
    s.seen.(var p) <- false
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
          unchecked_enqueue s l no_cref;
          if propagate s <> no_cref then begin
            s.ok <- false;
            log_empty s
          end
      | _ :: _ :: _ ->
          let c = alloc_clause s ~learnt:false ~lbd:0 (List.length filtered) in
          List.iteri (fun i l -> s.arena.(c + hdr + i) <- l) filtered;
          ivec_push s.clauses c;
          attach_clause s c;
          s.simp_assigns <- -1
    end
  end

(* ------------------------------------------------------------------ *)
(* Learnt DB reduction and level-0 simplification.                     *)

let reduce_db s =
  if Obs.on () then
    Obs.Trace.span_begin "sat.reduce" ~args:[ ("learnts", string_of_int s.learnts.n) ];
  (* Glue-based reduction (Glucose-style): sort so the clauses to drop come
     first — highest LBD first, coldest activity as tiebreak — then drop the
     first half. Binary clauses, "glue" clauses (LBD <= 2) and clauses
     currently acting as a reason are always kept. *)
  let n = s.learnts.n in
  let sorted = Array.sub s.learnts.a 0 n in
  let ar = s.arena in
  Array.sort
    (fun a b ->
      let la = h_lbd ar.(a) and lb = h_lbd ar.(b) in
      if la <> lb then Int.compare lb la else Float.compare (act_get ar a) (act_get ar b))
    sorted;
  let kept = ref 0 in
  for i = 0 to n - 1 do
    let c = sorted.(i) in
    let h = ar.(c) in
    if locked s c || h_size h = 2 || h_lbd h <= 2 || i >= n / 2 then begin
      s.learnts.a.(!kept) <- c;
      incr kept
    end
    else remove_clause s c
  done;
  s.learnts.n <- !kept;
  maybe_compact s;
  if Obs.on () then
    Obs.Trace.span_end "sat.reduce" ~args:[ ("kept", string_of_int s.learnts.n) ]

let clause_satisfied s c =
  let b = c + hdr in
  let stop = b + c_size s c in
  let rec loop i = i < stop && (value_lit s s.arena.(i) = 1 || loop (i + 1)) in
  loop b

let simplify s =
  assert (decision_level s = 0);
  if Obs.on () then Obs.Trace.span_begin "sat.simplify";
  if s.ok && propagate s = no_cref then begin
    let compact db =
      let kept = ref 0 in
      for i = 0 to db.n - 1 do
        let c = db.a.(i) in
        if h_removed s.arena.(c) || (clause_satisfied s c && not (locked s c)) then begin
          if not (h_removed s.arena.(c)) then remove_clause s c
        end
        else begin
          db.a.(!kept) <- c;
          incr kept
        end
      done;
      db.n <- !kept
    in
    compact s.learnts;
    compact s.clauses;
    s.simp_assigns <- s.trail.n;
    maybe_compact s;
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
    if s.heap.n = 0 then None
    else begin
      let v = heap_pop s in
      if s.vals.(2 * v) = 0 then Some v else loop ()
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
    learnt_clauses = s.learnts.n;
    clauses = s.clauses.n;
    vars = s.nvars;
  }

(* Budget poll, called on the cheap boundaries of the search loop (once
   per propagate-or-conflict iteration, never inside a propagation wave).
   The conflict check is a plain compare against the absolute limit; the
   wall clock is only consulted when a deadline is set. *)
let poll_limits s =
  if s.n_conflicts >= s.lim_conflicts then raise (Stop Out_of_conflicts);
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
          analyze_final s (neg p);
          raise Found_unsat
      | _ ->
          new_decision_level s;
          unchecked_enqueue s p no_cref
    end
    else begin
      s.n_decisions <- s.n_decisions + 1;
      match pick_branch_var s with
      | None -> raise Found_sat
      | Some v ->
          let l = Lit.make v ~neg:s.polarity.(v) in
          new_decision_level s;
          unchecked_enqueue s l no_cref
    end
  in
  assume ()

(* Store the clause in [s.learnt_buf] (asserting literal first) and assert
   it after backtracking to [blevel]. *)
let record_learnt s blevel ~lbd =
  let buf = s.learnt_buf in
  (* First-UIP learnt clauses are derived by resolution over reason clauses,
     hence RUP with respect to the clauses alive right now. *)
  if s.proof_logging then log_add_arr s (Array.sub buf.a 0 buf.n);
  cancel_until s blevel;
  if buf.n = 1 then
    (* Asserting unit: goes to level 0 semantically, but we may be above
       level 0 because of assumptions; enqueue at the current (backtracked)
       level with no reason. Correct because blevel = 0 for units. *)
    unchecked_enqueue s buf.a.(0) no_cref
  else begin
    let c = alloc_clause s ~learnt:true ~lbd buf.n in
    Array.blit buf.a 0 s.arena (c + hdr) buf.n;
    ivec_push s.learnts c;
    attach_clause s c;
    bump_clause s c;
    unchecked_enqueue s buf.a.(0) c
  end

let search s ~max_conflicts =
  let conflict_c = ref 0 in
  let continue = ref true in
  while !continue do
    poll_limits s;
    let confl = propagate s in
    if confl <> no_cref then begin
      s.n_conflicts <- s.n_conflicts + 1;
      incr conflict_c;
      if decision_level s = 0 then begin
        s.ok <- false;
        log_empty s;
        raise Found_unsat
      end;
      let blevel = analyze s confl in
      (* LBD must be computed before [record_learnt] backtracks. *)
      let lbd = compute_lbd s s.learnt_buf.a 0 s.learnt_buf.n in
      record_learnt s blevel ~lbd;
      decay_var_activity s;
      decay_clause_activity s
    end
    else begin
      if !conflict_c >= max_conflicts then begin
        cancel_until s 0;
        raise Restart
      end;
      if decision_level s = 0 && s.trail.n <> s.simp_assigns then simplify s;
      if not s.ok then raise Found_unsat;
      if float_of_int s.learnts.n -. float_of_int s.trail.n >= s.max_learnts then
        reduce_db s;
      decide s
    end
  done

(* Luby restart sequence (1-based): 1 1 2 1 1 2 4 1 1 2 1 1 2 4 8 ... *)
let rec luby i =
  (* Smallest k with 2^k - 1 >= i. *)
  let rec find_k k = if (1 lsl k) - 1 >= i then k else find_k (k + 1) in
  let k = find_k 1 in
  if (1 lsl k) - 1 = i then 1 lsl (k - 1) else luby (i - (1 lsl (k - 1)) + 1)

(* Arm the per-call limits. The conflict cap is relative to this call
   (the counter accumulates across incremental solves). *)
let set_limits s budget =
  s.lim_conflicts <-
    (match budget.max_conflicts with None -> max_int | Some n -> s.n_conflicts + max 0 n);
  s.deadline <-
    (match budget.max_seconds with
    | None -> infinity
    | Some sec -> Unix.gettimeofday () +. sec)

let clear_limits s =
  s.lim_conflicts <- max_int;
  s.deadline <- infinity

let solve ?(assumptions = []) ?(budget = no_budget) s =
  s.answer <- A_none;
  s.conflict.n <- 0;
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
    s.assumptions <- Array.of_list assumptions;
    if s.max_learnts = 0. then
      s.max_learnts <- max 1000. (float_of_int s.clauses.n *. 0.3);
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
             s.model <- Array.init s.nvars (fun v -> s.vals.(2 * v) = 1);
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
       (* Budget exhausted: back out to a clean level-0 state. Learnt clauses (and their DRAT events) are
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
  List.init s.conflict.n (fun i -> Lit.negate s.conflict.a.(i))

(* ------------------------------------------------------------------ *)
(* CNF preprocessing (see Simplify).                                   *)

(* Install a preprocessed clause (length >= 2). Watches must sit on
   non-false literals w.r.t. the level-0 assignment, or propagation would
   miss the clause entirely: preprocessing enqueues derived units without
   propagating between actions, so a clause may arrive with literals that
   are already false. *)
let install_clause s lits =
  let len = Array.length lits in
  let c = alloc_clause s ~learnt:false ~lbd:0 len in
  let a = s.arena and o = c + hdr in
  Array.blit lits 0 a o len;
  let k = ref 0 in
  (try
     for i = 0 to len - 1 do
       if value_lit s a.(o + i) <> -1 then begin
         let tmp = a.(o + !k) in
         a.(o + !k) <- a.(o + i);
         a.(o + i) <- tmp;
         incr k;
         if !k >= 2 then raise Exit
       end
     done
   with Exit -> ());
  ivec_push s.clauses c;
  attach_clause s c;
  if !k = 0 then begin
    s.ok <- false;
    log_empty s
  end
  else if !k = 1 && value_lit s a.(o) = 0 then unchecked_enqueue s a.(o) no_cref;
  c

let preprocess ?(frozen = []) s =
  if decision_level s <> 0 then
    invalid_arg "Solver.preprocess: only allowed at decision level 0";
  let before = s.clauses.n in
  if Obs.on () then
    Obs.Trace.span_begin "sat.preprocess"
      ~args:[ ("clauses", string_of_int before) ];
  let finish st =
    let r =
      {
        pre_clauses_before = before;
        pre_clauses_after = s.clauses.n;
        pre_subsumed = st.Simplify.s_subsumed;
        pre_strengthened = st.Simplify.s_strengthened;
        pre_eliminated = st.Simplify.s_eliminated;
        pre_resolvents = st.Simplify.s_resolvents;
        pre_units = st.Simplify.s_units;
      }
    in
    if Obs.on () then
      Obs.Trace.span_end "sat.preprocess"
        ~args:
          [
            ("clauses", string_of_int r.pre_clauses_after);
            ("eliminated", string_of_int r.pre_eliminated);
            ("subsumed", string_of_int r.pre_subsumed);
          ];
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
    for i = 0 to s.trail.n - 1 do
      s.reason.(var s.trail.a.(i)) <- no_cref
    done;
    let n = s.clauses.n in
    let ntrail = s.trail.n in
    (* Snapshot (the solver permutes clause literals in place): clause id
       [i < n] is problem clause [i], and the level-0 trail enters as
       protected unit clauses [n + i]: they subsume and strengthen but are
       themselves immutable (those literals are assignments, not clause
       objects, and their DRAT events must stay). Simplify never mutates
       these arrays, so its actions may share them. *)
    let db = Array.make (n + ntrail) [||] in
    let protected = Array.make (n + ntrail) false in
    for i = 0 to n - 1 do
      db.(i) <- c_lits s s.clauses.a.(i)
    done;
    for i = 0 to ntrail - 1 do
      db.(n + i) <- [| s.trail.a.(i) |];
      protected.(n + i) <- true
    done;
    let fr = Array.make (max 1 s.nvars) false in
    List.iter (fun l -> fr.(Lit.var l) <- true) frozen;
    let actions, st = Simplify.run ~nvars:s.nvars ~frozen:fr ~protected db in
    (* The id map: [cref.(id)] is the clause currently standing for
       Simplify's clause [id], or [no_cref] for the trail units. Ids are
       dense: the snapshot's, then one per [Add] (there are [s_resolvents]
       of them). [Strengthen] moves an id to its new clause. *)
    let cref = Array.make (n + ntrail + st.Simplify.s_resolvents) no_cref in
    Array.blit s.clauses.a 0 cref 0 n;
    let stopped = ref false in
    let apply = function
      | Simplify.Remove id ->
          let c = cref.(id) in
          if c <> no_cref && not (h_removed s.arena.(c)) then remove_clause s c
      | Simplify.Strengthen (id, lits) ->
          let old = cref.(id) in
          if old <> no_cref then begin
            log_add_arr s lits;
            cref.(id) <- install_clause s lits;
            if not (h_removed s.arena.(old)) then remove_clause s old
          end
      | Simplify.Add (id, lits) ->
          log_add_arr s lits;
          cref.(id) <- install_clause s lits
      | Simplify.Unit l ->
          log_add_list s [ l ];
          (match value_lit s l with
          | 0 -> unchecked_enqueue s l no_cref
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
    if s.ok && propagate s <> no_cref then begin
      s.ok <- false;
      log_empty s
    end;
    (* Compact the problem database. *)
    let kept = ref 0 in
    for i = 0 to s.clauses.n - 1 do
      let c = s.clauses.a.(i) in
      if not (h_removed s.arena.(c)) then begin
        s.clauses.a.(!kept) <- c;
        incr kept
      end
    done;
    s.clauses.n <- !kept;
    (* Cleared reasons may have unlocked satisfied clauses, and installed
       clauses may already be satisfied: the next restart at level 0
       simplifies again. *)
    s.simp_assigns <- -1;
    maybe_compact s;
    finish st
  end

let stats = current_stats

let pp_stats ppf st =
  Format.fprintf ppf
    "vars=%d clauses=%d learnt=%d conflicts=%d decisions=%d propagations=%d \
     restarts=%d"
    st.vars st.clauses st.learnt_clauses st.conflicts st.decisions
    st.propagations st.restarts
