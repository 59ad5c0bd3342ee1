type lit = int

(* Node 0 is the constant-false node; its positive edge (lit 0) is false and
   its complemented edge (lit 1) is true. Other nodes are inputs or ANDs. *)
let false_ = 0
let true_ = 1

let node_of l = l lsr 1
let is_complemented l = l land 1 = 1
let not_ l = l lxor 1
let mk_lit node ~compl = (node * 2) + if compl then 1 else 0
let of_bool b = if b then true_ else false_

type t = {
  (* fanin0.(n) = -1 for inputs and the constant; >= 0 (a lit) for ANDs. *)
  mutable fanin0 : int array;
  mutable fanin1 : int array;
  mutable input_of : int array; (* input index, -1 for non-inputs *)
  mutable num_nodes : int;
  mutable num_inputs : int;
  mutable num_ands : int;
  (* Structural hashing: an open-addressing table of AND node ids, probed
     with the packed [(fanin0 << 31) | fanin1] key. The key is never stored —
     it is recomputed from the fanin arrays on comparison — so a hit
     allocates nothing (the tuple-keyed Hashtbl it replaces boxed a fresh
     [(int * int)] per lookup, the hottest allocation of unrolling). *)
  mutable strash_tab : int array; (* node id, or -1 for an empty slot *)
  mutable strash_mask : int; (* Array.length strash_tab - 1, power of two *)
  mutable strash_count : int;
  strash_enabled : bool;
  rewrite_enabled : bool;
  mutable num_rewrites : int;
}

let create ?(strash = true) ?(rewrite = false) () =
  {
    fanin0 = Array.make 64 (-1);
    fanin1 = Array.make 64 (-1);
    input_of = Array.make 64 (-1);
    num_nodes = 1 (* the constant node *);
    num_inputs = 0;
    num_ands = 0;
    strash_tab = Array.make 256 (-1);
    strash_mask = 255;
    strash_count = 0;
    strash_enabled = strash;
    rewrite_enabled = rewrite;
    num_rewrites = 0;
  }

(* Fibonacci hashing of the packed key; AIG literals stay well below 2^31
   (that would be a two-billion-node graph), so the pack is injective. *)
let strash_hash a b mask =
  let key = (a lsl 31) lor b in
  let h = key * 0x2545F4914F6CDD1D in
  (h lxor (h lsr 29)) land mask

let grow g =
  let cap = Array.length g.fanin0 in
  if g.num_nodes >= cap then begin
    let grow_arr a = Array.append a (Array.make cap (-1)) in
    g.fanin0 <- grow_arr g.fanin0;
    g.fanin1 <- grow_arr g.fanin1;
    g.input_of <- grow_arr g.input_of
  end

let new_node g =
  grow g;
  let n = g.num_nodes in
  g.num_nodes <- n + 1;
  n

let fresh_input g =
  let n = new_node g in
  g.input_of.(n) <- g.num_inputs;
  g.num_inputs <- g.num_inputs + 1;
  mk_lit n ~compl:false

let num_inputs g = g.num_inputs
let num_ands g = g.num_ands
let num_rewrites g = g.num_rewrites

let input_index g l =
  let n = node_of l in
  if n < g.num_nodes && g.input_of.(n) >= 0 then Some g.input_of.(n) else None

let strash_grow g =
  let size = 2 * (g.strash_mask + 1) in
  let mask = size - 1 in
  let tab = Array.make size (-1) in
  (* Reinsert every AND node; keys are recomputed from the fanin arrays. *)
  for n = 1 to g.num_nodes - 1 do
    if g.fanin0.(n) >= 0 then begin
      let i = ref (strash_hash g.fanin0.(n) g.fanin1.(n) mask) in
      while Array.unsafe_get tab !i >= 0 do
        i := (!i + 1) land mask
      done;
      tab.(!i) <- n
    end
  done;
  g.strash_tab <- tab;
  g.strash_mask <- mask

let is_and_node g n = n > 0 && n < g.num_nodes && g.fanin0.(n) >= 0

(* Structural rewriting at construction time: beyond the constant/trivial
   rules every AIG has, look one and two levels into AND-shaped operands
   (idempotence, absorption, complement-annihilation, substitution and the
   resolution rule), recursing on any strictly smaller replacement. Each
   recursive [and_] call replaces an operand by one of its fanins, so the
   sum of operand node ids strictly decreases and rewriting terminates. *)
let rec and_ g a b =
  (* Local simplification before hash-consing. *)
  if a = false_ || b = false_ then false_
  else if a = true_ then b
  else if b = true_ then a
  else if a = b then a
  else if a = not_ b then false_
  else begin
    match if g.rewrite_enabled then try_rewrite g a b else None with
    | Some l ->
        g.num_rewrites <- g.num_rewrites + 1;
        l
    | None -> and_raw g a b
  end

and try_rewrite g a b =
  let a_and = is_and_node g (node_of a) and b_and = is_and_node g (node_of b) in
  if a_and && b_and then
    match two_level g a b with
    | Some _ as r -> r
    | None -> (
        match one_level g a b with Some _ as r -> r | None -> one_level g b a)
  else if b_and then one_level g a b
  else if a_and then one_level g b a
  else None

(* [b] is an AND-shaped edge; [a] is any edge (not equal to [b] or its
   complement — the trivial rules ran first). *)
and one_level g a b =
  let nb = node_of b in
  let b0 = g.fanin0.(nb) and b1 = g.fanin1.(nb) in
  if not (is_complemented b) then
    if a = b0 || a = b1 then Some b (* absorption: a & (a & x) = a & x *)
    else if a = not_ b0 || a = not_ b1 then Some false_ (* annihilation *)
    else None
  else if a = b0 then Some (and_ g a (not_ b1)) (* a & ~(a & x) = a & ~x *)
  else if a = b1 then Some (and_ g a (not_ b0))
  else if a = not_ b0 || a = not_ b1 then Some a (* a & ~(~a & x) = a *)
  else None

(* Both operands AND-shaped. *)
and two_level g a b =
  let na = node_of a and nb = node_of b in
  let a0 = g.fanin0.(na) and a1 = g.fanin1.(na) in
  let b0 = g.fanin0.(nb) and b1 = g.fanin1.(nb) in
  match (is_complemented a, is_complemented b) with
  | false, false ->
      if a0 = not_ b0 || a0 = not_ b1 || a1 = not_ b0 || a1 = not_ b1 then
        Some false_ (* contradiction across the two conjunctions *)
      else if a0 = b0 || a0 = b1 then
        (* shared fanin: (a0 & a1) & (a0 & x) = a & x *)
        Some (and_ g a (if a0 = b0 then b1 else b0))
      else if a1 = b0 || a1 = b1 then Some (and_ g a (if a1 = b0 then b1 else b0))
      else None
  | false, true -> two_one g a b
  | true, false -> two_one g b a
  | true, true ->
      (* Resolution: ~(x & y) & ~(x & ~y) = ~x. *)
      if a0 = b0 && a1 = not_ b1 then Some (not_ a0)
      else if a0 = b1 && a1 = not_ b0 then Some (not_ a0)
      else if a1 = b1 && a0 = not_ b0 then Some (not_ a1)
      else if a1 = b0 && a0 = not_ b1 then Some (not_ a1)
      else None

(* [a] uncomplemented AND, [b] complemented AND: a & ~(b0 & b1). *)
and two_one g a b =
  let na = node_of a and nb = node_of b in
  let a0 = g.fanin0.(na) and a1 = g.fanin1.(na) in
  let b0 = g.fanin0.(nb) and b1 = g.fanin1.(nb) in
  if b0 = not_ a0 || b0 = not_ a1 || b1 = not_ a0 || b1 = not_ a1 then
    Some a (* the inner conjunction is false whenever a holds *)
  else if b0 = a0 || b0 = a1 then Some (and_ g a (not_ b1)) (* subsumption *)
  else if b1 = a0 || b1 = a1 then Some (and_ g a (not_ b0))
  else None

and and_raw g a b =
  if not g.strash_enabled then begin
    (* Structural hashing disabled (differential-testing mode): every AND
       becomes a fresh node. Semantics must be identical to the hashed
       construction; the fuzz harness checks exactly that. *)
    let a, b = if a < b then (a, b) else (b, a) in
    let n = new_node g in
    g.fanin0.(n) <- a;
    g.fanin1.(n) <- b;
    g.num_ands <- g.num_ands + 1;
    mk_lit n ~compl:false
  end
  else begin
    let a, b = if a < b then (a, b) else (b, a) in
    (* Linear probing; the load factor is kept below 3/4. *)
    let tab = g.strash_tab and mask = g.strash_mask in
    let i = ref (strash_hash a b mask) in
    while
      let n = Array.unsafe_get tab !i in
      n >= 0 && not (g.fanin0.(n) = a && g.fanin1.(n) = b)
    do
      i := (!i + 1) land mask
    done;
    let n = Array.unsafe_get tab !i in
    if n >= 0 then mk_lit n ~compl:false
    else begin
      let n = new_node g in
      g.fanin0.(n) <- a;
      g.fanin1.(n) <- b;
      g.num_ands <- g.num_ands + 1;
      tab.(!i) <- n;
      g.strash_count <- g.strash_count + 1;
      if 4 * g.strash_count >= 3 * (mask + 1) then strash_grow g;
      mk_lit n ~compl:false
    end
  end

let or_ g a b = not_ (and_ g (not_ a) (not_ b))
let xor_ g a b = or_ g (and_ g a (not_ b)) (and_ g (not_ a) b)
let xnor_ g a b = not_ (xor_ g a b)
let implies g a b = or_ g (not_ a) b
let ite g c a b = or_ g (and_ g c a) (and_ g (not_ c) b)
let and_list g = List.fold_left (and_ g) true_
let or_list g = List.fold_left (or_ g) false_

(* Evaluation with an explicit stack: unrolled designs can have long
   combinational chains, and recursion depth equals the longest path. *)
let eval_node g inputs memo =
  let rec value n =
    match memo.(n) with
    | 0 ->
        (* Not yet computed: compute iteratively via the recursion below;
           chains are bounded by graph depth which is fine in practice, but
           we still keep an explicit worklist for very deep unrollings. *)
        compute n
    | 1 -> false
    | _ -> true
  and compute n =
    if g.input_of.(n) >= 0 then begin
      let v = inputs.(g.input_of.(n)) in
      memo.(n) <- (if v then 2 else 1);
      v
    end
    else if n = 0 then begin
      memo.(n) <- 1;
      false
    end
    else begin
      let f0 = g.fanin0.(n) and f1 = g.fanin1.(n) in
      let v0 = value (node_of f0) in
      let v0 = if is_complemented f0 then not v0 else v0 in
      let v1 = value (node_of f1) in
      let v1 = if is_complemented f1 then not v1 else v1 in
      let v = v0 && v1 in
      memo.(n) <- (if v then 2 else 1);
      v
    end
  in
  value

let eval_lit g inputs memo l =
  let v = eval_node g inputs memo (node_of l) in
  if is_complemented l then not v else v

let eval g inputs l =
  if Array.length inputs < g.num_inputs then
    invalid_arg "Aig.eval: input array too short";
  let memo = Array.make g.num_nodes 0 in
  eval_lit g inputs memo l

let eval_many g inputs ls =
  if Array.length inputs < g.num_inputs then
    invalid_arg "Aig.eval_many: input array too short";
  let memo = Array.make g.num_nodes 0 in
  List.map (eval_lit g inputs memo) ls

module Cnf = struct
  type stats = {
    cnf_vars : int;  (** SAT variables allocated by this emitter *)
    cnf_clauses : int;  (** defining clauses actually emitted *)
    cnf_clauses_plain : int;  (** three per AND node of the emitted cones *)
    cnf_single_pol : int;  (** encoded nodes emitted in one polarity only (so far) *)
    cnf_gates : int;  (** nodes encoded as one if-then-else gate *)
  }

  (* Per-node state in [pols]: bit 0 set once the positive direction
     (v -> function) has been emitted, bit 1 once the negative one
     (function -> v) has, and bit 2 once the node is counted in the plain
     figure. Plain Tseitin emits both directions at once; Plaisted-Greenbaum
     emits only what each use site needs, upgrading a node on demand when a
     later query uses the other polarity (incremental queries negate
     previously-assumed literals, so upgrades do happen). *)
  type emitter = {
    graph : t;
    solver : Sat.Solver.t;
    pg : bool;
    mutable vars : int array; (* node -> SAT var, -1 if not yet emitted *)
    mutable pols : int array;
    mutable n_clauses : int;
    mutable n_clauses_plain : int;
    mutable n_gates : int;
  }

  let counted = 4

  let make ?(pg = false) graph solver =
    {
      graph;
      solver;
      pg;
      vars = Array.make 64 (-1);
      pols = Array.make 64 0;
      n_clauses = 0;
      n_clauses_plain = 0;
      n_gates = 0;
    }

  let ensure_capacity e n =
    if n >= Array.length e.vars then begin
      let len = max (n + 1) (2 * Array.length e.vars) in
      let a = Array.make len (-1) in
      Array.blit e.vars 0 a 0 (Array.length e.vars);
      e.vars <- a;
      let p = Array.make len 0 in
      Array.blit e.pols 0 p 0 (Array.length e.pols);
      e.pols <- p
    end

  (* Plain Tseitin gives every AND node of the emitted cones three clauses,
     including the inner nodes of a gate that never get a variable. *)
  let count_plain e n =
    if e.pols.(n) land counted = 0 then begin
      e.pols.(n) <- e.pols.(n) lor counted;
      e.n_clauses_plain <- e.n_clauses_plain + 3
    end

  (* An AND node whose fanins are both complemented AND nodes [x = c & t]
     and [y = ~c & f] computes [~ITE(c, t, f)]; XOR and XNOR are the case
     [f = ~t]. Returns the edges [(c, t, f)]. *)
  let ite_fanins g n =
    let f0 = g.fanin0.(n) and f1 = g.fanin1.(n) in
    let x = node_of f0 and y = node_of f1 in
    if is_complemented f0 && is_complemented f1 && is_and_node g x && is_and_node g y
    then begin
      let x0 = g.fanin0.(x) and x1 = g.fanin1.(x) in
      let y0 = g.fanin0.(y) and y1 = g.fanin1.(y) in
      if x0 = not_ y0 then Some (x0, x1, y1)
      else if x0 = not_ y1 then Some (x0, x1, y0)
      else if x1 = not_ y0 then Some (x1, x0, y1)
      else if x1 = not_ y1 then Some (x1, x0, y0)
      else None
    end
    else None

  (* Emit the variable for node [n] and any not-yet-emitted defining
     clauses among the directions in [need] (a polarity mask). With PG on,
     an if-then-else node gets two clauses per direction over [c], [t] and
     [f]; its inner AND nodes get no variable of their own. *)
  let rec ensure e n ~need =
    ensure_capacity e n;
    if e.vars.(n) < 0 then e.vars.(n) <- Sat.Solver.new_var e.solver;
    let v = e.vars.(n) in
    let missing = need land lnot e.pols.(n) in
    if missing <> 0 then begin
      let g = e.graph in
      if n = 0 then begin
        (* Constant node: one unit pins both directions. *)
        e.pols.(n) <- 3;
        Sat.Solver.add_clause e.solver [ Sat.Lit.neg v ];
        e.n_clauses <- e.n_clauses + 1;
        e.n_clauses_plain <- e.n_clauses_plain + 1
      end
      else if g.input_of.(n) >= 0 then e.pols.(n) <- 3 (* free variable *)
      else begin
        let gate = if e.pg then ite_fanins g n else None in
        if Option.is_some gate && e.pols.(n) land 3 = 0 then
          e.n_gates <- e.n_gates + 1;
        count_plain e n;
        (* Mark before recursing: the DAG is acyclic, but shared fanins
           must not re-enter the same direction of this node. *)
        e.pols.(n) <- e.pols.(n) lor missing;
        match gate with
        | None ->
            if missing land 1 <> 0 then begin
              let la = edge_lit e g.fanin0.(n) ~need_pos:true in
              let lb = edge_lit e g.fanin1.(n) ~need_pos:true in
              Sat.Solver.add_clause e.solver [ Sat.Lit.neg v; la ];
              Sat.Solver.add_clause e.solver [ Sat.Lit.neg v; lb ];
              e.n_clauses <- e.n_clauses + 2
            end;
            if missing land 2 <> 0 then begin
              let la = edge_lit e g.fanin0.(n) ~need_pos:false in
              let lb = edge_lit e g.fanin1.(n) ~need_pos:false in
              Sat.Solver.add_clause e.solver
                [ Sat.Lit.pos v; Sat.Lit.negate la; Sat.Lit.negate lb ];
              e.n_clauses <- e.n_clauses + 1
            end
        | Some (c, t, f) ->
            count_plain e (node_of g.fanin0.(n));
            count_plain e (node_of g.fanin1.(n));
            (* Both clauses of each direction branch on [c]. *)
            let lc =
              Sat.Lit.make (ensure e (node_of c) ~need:3) ~neg:(is_complemented c)
            in
            if missing land 1 <> 0 then begin
              let lt = edge_lit e t ~need_pos:false in
              let lf = edge_lit e f ~need_pos:false in
              Sat.Solver.add_clause e.solver
                [ Sat.Lit.neg v; Sat.Lit.negate lc; Sat.Lit.negate lt ];
              Sat.Solver.add_clause e.solver [ Sat.Lit.neg v; lc; Sat.Lit.negate lf ];
              e.n_clauses <- e.n_clauses + 2
            end;
            if missing land 2 <> 0 then begin
              let lt = edge_lit e t ~need_pos:true in
              let lf = edge_lit e f ~need_pos:true in
              Sat.Solver.add_clause e.solver [ Sat.Lit.pos v; Sat.Lit.negate lc; lt ];
              Sat.Solver.add_clause e.solver [ Sat.Lit.pos v; lc; lf ];
              e.n_clauses <- e.n_clauses + 2
            end
      end
    end;
    v

  (* SAT literal for an edge used in the given direction: [need_pos] means
     the clauses being emitted entail the edge function when the literal is
     true. A complemented edge flips the polarity required of its node;
     plain mode always requires both. *)
  and edge_lit e f ~need_pos =
    let n = node_of f in
    let c = is_complemented f in
    let need =
      if not e.pg then 3
      else if (if c then not need_pos else need_pos) then 1
      else 2
    in
    let v = ensure e n ~need in
    Sat.Lit.make v ~neg:c

  (* Public entry points take the edge in positive use: an assumption or
     asserted literal must entail its function when true. *)
  let sat_lit e l = edge_lit e l ~need_pos:true
  let assume_lit = sat_lit

  let assert_lit e l = Sat.Solver.add_clause e.solver [ sat_lit e l ]

  (* Model-read path: no emission. A node with a variable reads it; an AND
     node without one (a gate's inner node, or a node outside every
     emitted cone) is evaluated from its fanins, memoised in this reader;
     an input or constant without one reads false (don't-care). *)
  let model_reader e =
    let g = e.graph in
    let memo = Hashtbl.create 16 in
    let rec node_value n =
      if n < Array.length e.vars && e.vars.(n) >= 0 then (
        try Sat.Solver.value e.solver (Sat.Lit.pos e.vars.(n)) with Failure _ -> false)
      else if not (is_and_node g n) then false
      else
        match Hashtbl.find_opt memo n with
        | Some b -> b
        | None ->
            let b = edge_value g.fanin0.(n) && edge_value g.fanin1.(n) in
            Hashtbl.add memo n b;
            b
    and edge_value l = node_value (node_of l) <> is_complemented l in
    edge_value

  let stats e =
    let vars = ref 0 and single = ref 0 in
    for n = 0 to Array.length e.vars - 1 do
      if e.vars.(n) >= 0 then begin
        incr vars;
        let p = e.pols.(n) land 3 in
        if e.graph.input_of.(n) < 0 && n > 0 && (p = 1 || p = 2) then incr single
      end
    done;
    {
      cnf_vars = !vars;
      cnf_clauses = e.n_clauses;
      cnf_clauses_plain = e.n_clauses_plain;
      cnf_single_pol = !single;
      cnf_gates = e.n_gates;
    }
end

let pp_stats ppf g =
  Format.fprintf ppf "inputs=%d ands=%d nodes=%d rewrites=%d" g.num_inputs g.num_ands
    g.num_nodes g.num_rewrites
