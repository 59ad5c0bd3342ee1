(* SatELite-style preprocessing on flat arrays.

   Clauses are numbered: the input clauses keep their ids 0..n-1 and the
   clauses created during the run (derived units, resolvents) continue
   from n. Per-clause state lives in side arrays indexed by that number,
   plus a 62-bit signature per clause for cheap non-subsumption rejection.

   Occurrence lists are per variable with both polarities mixed (as in
   MiniSat's SimpSolver, so a backward check from clause C finds both the
   clauses C subsumes and the clauses C strengthens — including
   strengthenings that flip C's probe literal itself). Each one has two
   parts: a CSR segment over the input clauses, built once, and a linked
   list (in flat arrays) of the clauses created during the run. Both
   invalidate lazily: entries for dead or since-strengthened clauses are
   filtered out by the membership test of the subsumption check itself,
   and collecting a variable's clauses for elimination drops its dead
   entries. A clause has one entry per literal, so the entries of a
   clause with a repeated variable are adjacent.

   The result depends on the order in which occurrences are visited. It
   is newest first: created clauses from the latest back, then input
   clauses by descending id. Dropping dead entries keeps that order. *)

let bve_max_occ = 20
let bve_max_resolvent = 30

type stats = {
  s_subsumed : int;
  s_strengthened : int;
  s_eliminated : int;
  s_resolvents : int;
  s_units : int;
}

type result = {
  proof : Drat.event list;
  removed : bool array;
  added : Lit.t array array;
  unsat : bool;
  eliminated : (int * Lit.t array array) list;
  stats : stats;
}

(* Per-clause flag bits. *)
let f_dead = 1
let f_queued = 2
let f_prot = 4
let f_unit = 8 (* a derived unit *)

type t = {
  (* Per variable. [frozen] is a private copy. *)
  frozen : bool array;
  occ_n : int array; (* live literal occurrences *)
  (* Whether an input clause repeats a literal. Without one, no clause
     ever does (resolvents are deduplicated), so [occ_n.(v)] is exactly
     the number of live clauses with [v] counted per polarity. *)
  repeats : bool;
  (* Input clauses of [v]: [occ_db.(occ_lo.(v)) .. occ_db.(occ_hi.(v) - 1)],
     ascending. *)
  occ_lo : int array;
  occ_hi : int array;
  occ_db : int array;
  (* Created clauses of [v]: entry [dyn_head.(v)] (newest, -1 if none),
     then along the links: entry [e] is the pair [ent.(e)] (the clause),
     [ent.(e + 1)] (the next entry, or -1). *)
  dyn_head : int array;
  mutable ent : int array;
  mutable n_ent : int; (* slots used in [ent] *)
  (* Per clause. [born.(k)] orders the clauses the result adds: the
     number of the latest [Add] of clause [k]'s literals, or -1 if there
     is none (an input clause never strengthened). *)
  mutable lits : Lit.t array array; (* never mutated, only replaced *)
  mutable csig : int array;
  mutable born : int array;
  mutable flags : Bytes.t;
  mutable nc : int;
  (* FIFO worklist of clause numbers; a clause is in it at most once. *)
  mutable queue : int array;
  mutable qhead : int;
  mutable qtail : int;
  mutable proof : Drat.event list; (* reversed *)
  mutable n_born : int; (* [Add] steps so far *)
  removed : bool array; (* per input clause *)
  mutable elims : (int * Lit.t array array) list; (* reversed *)
  mutable contradiction : bool;
  mutable n_sub : int;
  mutable n_str : int;
  mutable n_elim : int;
  mutable n_res : int;
  mutable n_unit : int;
}

let[@inline] has st k f = Char.code (Bytes.get st.flags k) land f <> 0

let[@inline] set st k f =
  Bytes.set st.flags k (Char.unsafe_chr (Char.code (Bytes.get st.flags k) lor f))

let[@inline] clear st k f =
  Bytes.set st.flags k (Char.unsafe_chr (Char.code (Bytes.get st.flags k) land lnot f))

(* Proof steps. A derived clause is added before the clauses it came from
   are deleted, so every addition is RUP against the live set. *)
let add st k =
  st.proof <- Drat.Add st.lits.(k) :: st.proof;
  st.born.(k) <- st.n_born;
  st.n_born <- st.n_born + 1

(* [lits] were clause [k]'s literals until now. *)
let delete st k lits =
  st.proof <- Drat.Delete lits :: st.proof;
  if k < Array.length st.removed then st.removed.(k) <- true

(* The empty clause is derived once: nothing after it is read. *)
let derive_empty st =
  if not st.contradiction then begin
    st.proof <- Drat.Add [||] :: st.proof;
    st.contradiction <- true
  end

let sig_of lits =
  let s = ref 0 in
  for i = 0 to Array.length lits - 1 do
    s := !s lor (1 lsl (Lit.var lits.(i) mod 62))
  done;
  !s

let mem l lits =
  let n = Array.length lits in
  let i = ref 0 in
  while !i < n && lits.(!i) <> l do
    incr i
  done;
  !i < n

let grow a n fill =
  let b = Array.make n fill in
  Array.blit a 0 b 0 (Array.length a);
  b

(* Append clause [lits] (never mutated afterwards) and index it. *)
let new_clause st lits =
  let k = st.nc in
  if k = Array.length st.lits then begin
    let cap = 2 * k + 16 in
    st.lits <- grow st.lits cap [||];
    st.csig <- grow st.csig cap 0;
    st.born <- grow st.born cap (-1);
    st.flags <- Bytes.extend st.flags 0 (cap - k)
  end;
  st.nc <- k + 1;
  st.lits.(k) <- lits;
  st.csig.(k) <- sig_of lits;
  st.born.(k) <- -1;
  Bytes.set st.flags k '\000';
  for i = 0 to Array.length lits - 1 do
    let v = Lit.var lits.(i) in
    let e = st.n_ent in
    if e = Array.length st.ent then st.ent <- grow st.ent ((2 * e) + 64) 0;
    st.n_ent <- e + 2;
    st.ent.(e) <- k;
    st.ent.(e + 1) <- st.dyn_head.(v);
    st.dyn_head.(v) <- e;
    st.occ_n.(v) <- st.occ_n.(v) + 1
  done;
  k

let dec_occ st lits =
  for i = 0 to Array.length lits - 1 do
    let v = Lit.var lits.(i) in
    st.occ_n.(v) <- st.occ_n.(v) - 1
  done

let enqueue st k =
  if Char.code (Bytes.get st.flags k) land (f_queued lor f_dead) = 0 then begin
    set st k f_queued;
    if st.qtail = Array.length st.queue then begin
      let live = st.qtail - st.qhead in
      let q =
        if 2 * st.qhead >= st.qtail then st.queue
        else Array.make ((2 * st.qtail) + 16) 0
      in
      Array.blit st.queue st.qhead q 0 live;
      st.queue <- q;
      st.qhead <- 0;
      st.qtail <- live
    end;
    st.queue.(st.qtail) <- k;
    st.qtail <- st.qtail + 1
  end

(* A derived unit is never deleted: its solver counterpart is a level-0
   assignment, not a clause object. *)
let new_unit st l =
  st.n_unit <- st.n_unit + 1;
  st.frozen.(Lit.var l) <- true;
  let k = new_clause st [| l |] in
  set st k f_unit;
  add st k;
  enqueue st k

let kill st k =
  if not (has st k f_dead) then begin
    set st k f_dead;
    dec_occ st st.lits.(k);
    if not (has st k f_unit) then delete st k st.lits.(k)
  end

(* Remove literal [p] from clause [d]. *)
let strengthen st d p =
  let old = st.lits.(d) in
  let n = ref 0 and keep = ref p in
  for i = 0 to Array.length old - 1 do
    if old.(i) <> p then begin
      incr n;
      keep := old.(i)
    end
  done;
  st.n_str <- st.n_str + 1;
  match !n with
  | 0 ->
      (* Every literal of [d] is [p], which is contradicted: the set is
         UNSAT. [d] stays live, as it is in the proof's set; nothing reads
         the clauses after a contradiction. *)
      derive_empty st
  | 1 ->
      new_unit st !keep;
      set st d f_dead;
      dec_occ st old;
      delete st d old
  | n ->
      let lits = Array.make n 0 in
      let j = ref 0 in
      for i = 0 to Array.length old - 1 do
        if old.(i) <> p then begin
          lits.(!j) <- old.(i);
          incr j
        end
      done;
      st.occ_n.(Lit.var p) <- st.occ_n.(Lit.var p) - 1;
      st.lits.(d) <- lits;
      st.csig.(d) <- sig_of lits;
      add st d;
      delete st d old;
      enqueue st d

(* Does [c] subsume [d] ([sub_sub]), or strengthen it by removing one
   literal (that literal, >= 0)? The caller has checked the signatures. It strengthens when every literal of [c]
   except one is in [d], and that one appears negated in [d] as [p]: the
   resolvent of [c] and [d] on [p] subsumes [d], so [p] can go. *)
let sub_no = -1
let sub_sub = -2

let subsume_check st c d =
  let lc = st.lits.(c) and ld = st.lits.(d) in
  if Array.length lc > Array.length ld then sub_no
  else begin
    let flip = ref (-1) and bad = ref false and i = ref 0 in
    let n = Array.length lc in
    while (not !bad) && !i < n do
      let l = lc.(!i) in
      if mem l ld then ()
      else if !flip < 0 && mem (Lit.negate l) ld then flip := l
      else bad := true;
      incr i
    done;
    if !bad then sub_no else if !flip < 0 then sub_sub else Lit.negate !flip
  end

(* The signature test comes first: it rejects most candidates without
   touching anything else of theirs. *)
let visit st c csig d =
  if (not st.contradiction) && d <> c
     && csig land lnot st.csig.(d) = 0
     && Char.code (Bytes.get st.flags d) land (f_dead lor f_prot) = 0
     && not (has st c f_dead)
  then begin
    let r = subsume_check st c d in
    if r = sub_sub then begin
      st.n_sub <- st.n_sub + 1;
      kill st d
    end
    else if r >= 0 then strengthen st d r
  end

(* Backward subsumption + strengthening from [c]: probe the occurrence
   list of c's least-occurring variable; every clause c subsumes or
   strengthens must contain (a polarity of) each of c's variables. Only
   the entries present when the probe starts are visited. *)
let process st c =
  if not (has st c f_dead) then begin
    let lits = st.lits.(c) in
    let best = ref (Lit.var lits.(0)) in
    for i = 0 to Array.length lits - 1 do
      let v = Lit.var lits.(i) in
      if st.occ_n.(v) < st.occ_n.(!best) then best := v
    done;
    let v = !best and csig = st.csig.(c) in
    let e = ref st.dyn_head.(v) in
    while !e >= 0 do
      visit st c csig st.ent.(!e);
      e := st.ent.(!e + 1)
    done;
    for j = st.occ_hi.(v) - 1 downto st.occ_lo.(v) do
      visit st c csig st.occ_db.(j)
    done
  end

let drain st =
  while (not st.contradiction) && st.qhead < st.qtail do
    let c = st.queue.(st.qhead) in
    st.qhead <- st.qhead + 1;
    if st.qhead = st.qtail then begin
      st.qhead <- 0;
      st.qtail <- 0
    end;
    clear st c f_queued;
    process st c
  done

(* ---- Bounded variable elimination ---- *)

(* Buffers shared by every attempt of one run: the live clauses of the
   variable by polarity; a per-literal stamp that deduplicates resolvent
   literals and finds tautologies without sorting; and the attempt's
   resolvents, packed unsorted in [res] with [res_end.(i)] the end of
   resolvent [i] (a committed elimination sorts them). *)
type bve = {
  pos : int array;
  neg : int array;
  mutable np : int;
  mutable nn : int;
  mutable prev : int; (* last occurrence entry seen *)
  mark : int array;
  mutable stamp : int;
  mutable plits : int array; (* the stamped clause's distinct literals *)
  mutable res : int array;
  res_end : int array;
}

(* Stamp the distinct literals of clause [p] other than [v]'s and copy
   them to [b.plits]. Returns how many there are, or -1 if two are
   complementary (then every resolvent on [v] with [p] is a tautology). *)
let mark_clause st b p v =
  b.stamp <- b.stamp + 1;
  let s = b.stamp and lp = st.lits.(p) in
  if Array.length lp > Array.length b.plits then b.plits <- Array.make (2 * Array.length lp) 0;
  let m = ref 0 and taut = ref false in
  for i = 0 to Array.length lp - 1 do
    let l = lp.(i) in
    if Lit.var l <> v then
      if b.mark.(Lit.negate l) = s then taut := true
      else if b.mark.(l) <> s then begin
        b.mark.(l) <- s;
        b.plits.(!m) <- l;
        incr m
      end
  done;
  if !taut then -1 else !m

(* Append the resolvent on [v] of the clause stamped [ps] (its [psize]
   literals in [b.plits]) and clause [n] to [b.res] at [top], unsorted.
   Returns its end, or -1 if it is a tautology. *)
let add_resolvent st b top ps psize n v =
  b.stamp <- b.stamp + 1;
  let s = b.stamp and ln = st.lits.(n) in
  let need = top + psize + Array.length ln in
  if need > Array.length b.res then b.res <- grow b.res (2 * need) 0;
  let r = b.res in
  Array.blit b.plits 0 r top psize;
  let m = ref (top + psize) and taut = ref false and i = ref 0 in
  while (not !taut) && !i < Array.length ln do
    let l = ln.(!i) in
    if Lit.var l <> v then begin
      let c = b.mark.(Lit.negate l) in
      if c = ps || c = s then taut := true
      else begin
        let c = b.mark.(l) in
        if c <> ps && c <> s then begin
          b.mark.(l) <- s;
          r.(!m) <- l;
          incr m
        end
      end
    end;
    incr i
  done;
  if !taut then -1 else !m

(* Sort [r.(lo) .. r.(hi - 1)] in place (resolvents are short). *)
let sort_range r lo hi =
  for i = lo + 1 to hi - 1 do
    let l = r.(i) in
    let j = ref i in
    while !j > lo && r.(!j - 1) > l do
      r.(!j) <- r.(!j - 1);
      decr j
    done;
    r.(!j) <- l
  done

(* [k] is a live clause in [v]'s occurrence list. A clause's duplicate
   entries are adjacent, so comparing with the previous entry
   deduplicates. [np]/[nn] go past the buffers' length when there are
   more live clauses than they hold. *)
let see st b v k =
  if k <> b.prev then begin
    b.prev <- k;
    let lits = st.lits.(k) and p = Lit.pos v in
    let has_p = ref false and has_n = ref false in
    for i = 0 to Array.length lits - 1 do
      let l = lits.(i) in
      if l = p then has_p := true else if l = Lit.negate p then has_n := true
    done;
    let cap = Array.length b.pos in
    if !has_p then begin
      if b.np < cap then b.pos.(b.np) <- k;
      b.np <- b.np + 1
    end;
    if !has_n then begin
      if b.nn < cap then b.neg.(b.nn) <- k;
      b.nn <- b.nn + 1
    end
  end

let rev a n =
  for i = 0 to (n / 2) - 1 do
    let t = a.(i) in
    a.(i) <- a.(n - 1 - i);
    a.(n - 1 - i) <- t
  done

(* Live clauses of [v] by polarity into [b.pos]/[b.neg], oldest first
   (the reverse of the occurrence order), unlinking dead entries on the
   way: the list keeps its order. *)
let collect st b v =
  b.np <- 0;
  b.nn <- 0;
  b.prev <- -1;
  let prev = ref (-1) and e = ref st.dyn_head.(v) in
  while !e >= 0 do
    let k = st.ent.(!e) and next = st.ent.(!e + 1) in
    if has st k f_dead then begin
      if !prev < 0 then st.dyn_head.(v) <- next else st.ent.(!prev + 1) <- next
    end
    else begin
      see st b v k;
      prev := !e
    end;
    e := next
  done;
  (* Survivors are packed toward the segment's end. *)
  let w = ref st.occ_hi.(v) in
  for j = st.occ_hi.(v) - 1 downto st.occ_lo.(v) do
    let k = st.occ_db.(j) in
    if not (has st k f_dead) then begin
      see st b v k;
      decr w;
      st.occ_db.(!w) <- k
    end
  done;
  st.occ_lo.(v) <- !w;
  if b.np <= Array.length b.pos && b.nn <= Array.length b.neg then begin
    rev b.pos b.np;
    rev b.neg b.nn
  end

let try_eliminate st b v =
  if (not st.frozen.(v)) && st.occ_n.(v) > 0
     && (st.occ_n.(v) <= bve_max_occ || st.repeats)
  then begin
    collect st b v;
    let np = b.np and nn = b.nn in
    let total = np + nn in
    if total > 0 && total <= bve_max_occ then begin
      (* Size every resolvent; give up at the first one that is too long
         or once the non-tautological ones outnumber the clauses. *)
      let count = ref 0 and ok = ref true and top = ref 0 and i = ref 0 in
      while !ok && !i < np do
        let psize = mark_clause st b b.pos.(!i) v in
        let ps = b.stamp and j = ref 0 in
        while !ok && psize >= 0 && !j < nn do
          let e = add_resolvent st b !top ps psize b.neg.(!j) v in
          if e >= 0 then
            if e - !top > bve_max_resolvent || !count = total then ok := false
            else begin
              b.res_end.(!count) <- e;
              incr count;
              top := e
            end;
          incr j
        done;
        incr i
      done;
      if !ok then begin
        (* Commit: add resolvents first (each is RUP from its two live
           parents), then delete the parents, then record the variable
           for model reconstruction. *)
        let start = ref 0 in
        for r = 0 to !count - 1 do
          let e = b.res_end.(r) in
          sort_range b.res !start e;
          (match e - !start with
          | 0 -> derive_empty st
          | 1 -> if not st.contradiction then new_unit st b.res.(!start)
          | len ->
              if not st.contradiction then begin
                let k = new_clause st (Array.sub b.res !start len) in
                add st k;
                st.n_res <- st.n_res + 1;
                enqueue st k
              end);
          start := e
        done;
        if not st.contradiction then begin
          let parent i = if i < np then b.pos.(i) else b.neg.(i - np) in
          let saved = Array.init total (fun i -> st.lits.(parent i)) in
          for i = 0 to total - 1 do
            kill st (parent i)
          done;
          st.elims <- (v, saved) :: st.elims;
          st.n_elim <- st.n_elim + 1;
          st.frozen.(v) <- true;
          drain st
        end
      end
    end
  end

let run ~nvars ~frozen ~protected clauses =
  let nvars = max nvars 1 in
  let n = Array.length clauses in
  (* Occurrence counts, then the CSR index over the input clauses: fill
     each variable's segment from its end while walking the clauses by
     descending id, so each segment ends up in ascending id order. *)
  let occ_n = Array.make nvars 0 in
  let csig = Array.make (n + 16) 0 in
  let total = ref 0 and repeats = ref false and empty = ref false in
  for i = 0 to n - 1 do
    let lits = clauses.(i) in
    if Array.length lits = 0 then empty := true;
    csig.(i) <- sig_of lits;
    total := !total + Array.length lits;
    for j = 0 to Array.length lits - 1 do
      let v = Lit.var lits.(j) in
      occ_n.(v) <- occ_n.(v) + 1;
      for k = 0 to j - 1 do
        if lits.(k) = lits.(j) then repeats := true
      done
    done
  done;
  let occ_hi = Array.make nvars 0 in
  let sum = ref 0 in
  for v = 0 to nvars - 1 do
    sum := !sum + occ_n.(v);
    occ_hi.(v) <- !sum
  done;
  let occ_db = Array.make !total 0 in
  let occ_lo = Array.copy occ_hi in
  for i = n - 1 downto 0 do
    let lits = clauses.(i) in
    for j = Array.length lits - 1 downto 0 do
      let v = Lit.var lits.(j) in
      occ_lo.(v) <- occ_lo.(v) - 1;
      occ_db.(occ_lo.(v)) <- i
    done
  done;
  let flags = Bytes.make (n + 16) '\000' in
  for i = 0 to min n (Array.length protected) - 1 do
    if protected.(i) then Bytes.set flags i (Char.chr f_prot)
  done;
  let st =
    {
      frozen =
        (let a = Array.make nvars false in
         Array.blit frozen 0 a 0 (min (Array.length frozen) nvars);
         a);
      occ_n;
      repeats = !repeats;
      occ_lo;
      occ_hi;
      occ_db;
      dyn_head = Array.make nvars (-1);
      ent = [||];
      n_ent = 0;
      lits = Array.append clauses (Array.make 16 [||]);
      csig;
      born = Array.make (n + 16) (-1);
      flags;
      nc = n;
      queue = Array.make (n + 16) 0;
      qhead = 0;
      qtail = 0;
      proof = [];
      n_born = 0;
      removed = Array.make n false;
      elims = [];
      contradiction = false;
      n_sub = 0;
      n_str = 0;
      n_elim = 0;
      n_res = 0;
      n_unit = 0;
    }
  in
  (* An empty input clause makes the set UNSAT as given: derive it and do
     nothing else (subsumption would read the clause's first literal). *)
  if !empty then derive_empty st;
  (* Variables constrained by a protected clause (the trail) must never be
     eliminated; derived units freeze theirs as they appear. *)
  for i = 0 to n - 1 do
    if has st i f_prot then Array.iter (fun l -> st.frozen.(Lit.var l) <- true) clauses.(i)
  done;
  for i = 0 to n - 1 do
    enqueue st i
  done;
  drain st;
  (* Bounded variable elimination, cheapest variables first. *)
  if not st.contradiction then begin
    let cap = bve_max_occ in
    let b =
      {
        pos = Array.make cap 0;
        neg = Array.make cap 0;
        np = 0;
        nn = 0;
        prev = -1;
        mark = Array.make (2 * nvars) 0;
        stamp = 0;
        plits = Array.make 64 0;
        res = Array.make 256 0;
        res_end = Array.make cap 0;
      }
    in
    let order = Array.init nvars (fun v -> v) in
    Array.sort (fun a b -> Int.compare occ_n.(a) occ_n.(b)) order;
    Array.iter (fun v -> if not st.contradiction then try_eliminate st b v) order
  end;
  (* The additions still in the proof's set, by their latest [Add]: the
     live clauses, and the derived units, which are never deleted. *)
  let at = Array.make st.n_born [||] in
  for k = 0 to st.nc - 1 do
    if st.born.(k) >= 0 && (has st k f_unit || not (has st k f_dead)) then
      at.(st.born.(k)) <- st.lits.(k)
  done;
  {
    proof = List.rev st.proof;
    removed = st.removed;
    added = Array.of_list (List.filter (fun c -> c <> [||]) (Array.to_list at));
    unsat = st.contradiction;
    eliminated = List.rev st.elims;
    stats =
      {
        s_subsumed = st.n_sub;
        s_strengthened = st.n_str;
        s_eliminated = st.n_elim;
        s_resolvents = st.n_res;
        s_units = st.n_unit;
      };
  }

(* Model extension for one eliminated variable: it is forced true exactly
   when leaving it false would falsify one of its saved clauses — such a
   clause necessarily contains the positive literal, since all resolvents
   are satisfied by the model. *)
let extend_model model v saved =
  model.(v) <- false;
  let sat_clause c =
    Array.exists
      (fun l ->
        let value = model.(Lit.var l) in
        if Lit.is_neg l then not value else value)
      c
  in
  if not (Array.for_all sat_clause saved) then model.(v) <- true
