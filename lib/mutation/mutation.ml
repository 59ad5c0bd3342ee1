type operator =
  | Op_swap
  | Const_corrupt
  | Ite_flip
  | Off_by_one
  | Stuck_reg
  | Init_corrupt
  | Hidden_output
  | Hidden_state
  | Rare_output
  | Rare_state

let operator_to_string = function
  | Op_swap -> "op_swap"
  | Const_corrupt -> "const_corrupt"
  | Ite_flip -> "ite_flip"
  | Off_by_one -> "off_by_one"
  | Stuck_reg -> "stuck_reg"
  | Init_corrupt -> "init_corrupt"
  | Hidden_output -> "hidden_output"
  | Hidden_state -> "hidden_state"
  | Rare_output -> "rare_output"
  | Rare_state -> "rare_state"

type bug_class = Datapath | Control | State | Interference

let class_of = function
  | Op_swap | Const_corrupt | Off_by_one -> Datapath
  | Ite_flip -> Control
  | Stuck_reg | Init_corrupt -> State
  | Hidden_output | Hidden_state | Rare_output | Rare_state -> Interference

let class_to_string = function
  | Datapath -> "datapath"
  | Control -> "control"
  | State -> "state"
  | Interference -> "interference"

type t = {
  id : string;
  operator : operator;
  target : string;
  site : int;
  description : string;
}

let hidden_reg_name = "mut_hidden"

(* ------------------------------------------------------------------ *)
(* Expression-site machinery: pre-order numbering.                      *)

let swap_op (op : Expr.binop) =
  match op with
  | Expr.Add -> Some (Expr.sub, "add->sub")
  | Expr.Sub -> Some (Expr.add, "sub->add")
  | Expr.And -> Some (Expr.or_, "and->or")
  | Expr.Or -> Some (Expr.and_, "or->and")
  | Expr.Xor -> Some (Expr.or_, "xor->or")
  | Expr.Eq -> Some (Expr.ne, "eq->ne")
  | Expr.Ne -> Some (Expr.eq, "ne->eq")
  | Expr.Ult -> Some (Expr.ule, "ult->ule")
  | Expr.Ule -> Some (Expr.ult, "ule->ult")
  | Expr.Slt -> Some (Expr.sle, "slt->sle")
  | Expr.Sle -> Some (Expr.slt, "sle->slt")
  | Expr.Shl -> Some (Expr.lshr, "shl->lshr")
  | Expr.Lshr -> Some (Expr.shl, "lshr->shl")
  | Expr.Ashr -> Some (Expr.lshr, "ashr->lshr")
  | Expr.Mul | Expr.Udiv | Expr.Urem -> None

(* Walk an expression in pre-order; [visit] sees (site_index, node) and may
   return a replacement for that node, which prunes descent there. *)
let rewrite_sites visit e =
  let counter = ref (-1) in
  let rec go e =
    incr counter;
    match visit !counter e with
    | Some e' -> e'
    | None -> descend e
  and descend e =
    match (e : Expr.t) with
    | Expr.Const _ | Expr.Var _ -> e
    | Expr.Unop (op, a) -> begin
        let a' = go a in
        match op with
        | Expr.Not -> Expr.not_ a'
        | Expr.Neg -> Expr.neg a'
        | Expr.Red_and -> Expr.red_and a'
        | Expr.Red_or -> Expr.red_or a'
        | Expr.Red_xor -> Expr.red_xor a'
      end
    | Expr.Binop (op, a, b) -> begin
        let a' = go a in
        let b' = go b in
        let f =
          match op with
          | Expr.Add -> Expr.add
          | Expr.Sub -> Expr.sub
          | Expr.Mul -> Expr.mul
          | Expr.Udiv -> Expr.udiv
          | Expr.Urem -> Expr.urem
          | Expr.And -> Expr.and_
          | Expr.Or -> Expr.or_
          | Expr.Xor -> Expr.xor
          | Expr.Shl -> Expr.shl
          | Expr.Lshr -> Expr.lshr
          | Expr.Ashr -> Expr.ashr
          | Expr.Eq -> Expr.eq
          | Expr.Ne -> Expr.ne
          | Expr.Ult -> Expr.ult
          | Expr.Ule -> Expr.ule
          | Expr.Slt -> Expr.slt
          | Expr.Sle -> Expr.sle
        in
        f a' b'
      end
    | Expr.Ite (c, a, b) -> Expr.ite (go c) (go a) (go b)
    | Expr.Extract (hi, lo, a) -> Expr.extract ~hi ~lo (go a)
    | Expr.Zero_extend (w, a) -> Expr.zero_extend (go a) w
    | Expr.Sign_extend (w, a) -> Expr.sign_extend (go a) w
    | Expr.Concat (a, b) ->
        let a' = go a in
        let b' = go b in
        Expr.concat a' b'
  in
  go e

(* Enumerate the applicable node-level operators of an expression. *)
let expr_sites e =
  let sites = ref [] in
  let record site op descr = sites := (site, op, descr) :: !sites in
  ignore
    (rewrite_sites
       (fun site node ->
         (match (node : Expr.t) with
         | Expr.Binop (op, _, _) -> begin
             match swap_op op with
             | Some (_, descr) -> record site Op_swap descr
             | None -> ()
           end
         | Expr.Const bv ->
             if Bitvec.width bv > 1 then record site Const_corrupt "const+1"
         | Expr.Ite (_, _, _) -> record site Ite_flip "mux branches swapped"
         | Expr.Var _ | Expr.Unop _ | Expr.Extract _ | Expr.Zero_extend _
         | Expr.Sign_extend _ | Expr.Concat _ ->
             ());
         None)
       e);
  List.rev !sites

(* Apply a node-level operator at a site. *)
let rewrite_at e ~site ~operator =
  let changed = ref false in
  let e' =
    rewrite_sites
      (fun idx node ->
        if idx <> site then None
        else
          match (operator, (node : Expr.t)) with
          | Op_swap, Expr.Binop (op, a, b) -> begin
              match swap_op op with
              | Some (f, _) ->
                  changed := true;
                  Some (f a b)
              | None -> None
            end
          | Const_corrupt, Expr.Const bv ->
              changed := true;
              Some (Expr.const (Bitvec.add bv (Bitvec.one (Bitvec.width bv))))
          | Ite_flip, Expr.Ite (c, a, b) ->
              changed := true;
              Some (Expr.ite c b a)
          | _ -> None)
      e
  in
  if !changed then Some e' else None

(* ------------------------------------------------------------------ *)
(* Design-level application.                                            *)

let targets (d : Rtl.design) =
  List.map (fun (r : Rtl.reg) -> (Printf.sprintf "next(%s)" r.Rtl.reg.Expr.name, `Reg r))
    d.Rtl.registers
  @ List.map (fun (n, e) -> (Printf.sprintf "out(%s)" n, `Out (n, e))) d.Rtl.outputs

let target_expr = function `Reg (r : Rtl.reg) -> r.Rtl.next | `Out (_, e) -> e

(* The design with new registers and outputs, or [None] if that is not a
   valid design. [Rtl.make] validates, so nothing else does. *)
let rebuild (d : Rtl.design) ~registers ~outputs =
  match Rtl.make ~name:d.Rtl.name ~inputs:d.Rtl.inputs ~registers ~outputs with
  | d' -> Some d'
  | exception Invalid_argument _ -> None

(* Rebuild the design with one target's expression replaced. *)
let with_target_expr (d : Rtl.design) target e' =
  let registers =
    List.map
      (fun (r : Rtl.reg) ->
        if Printf.sprintf "next(%s)" r.Rtl.reg.Expr.name = target then
          { r with Rtl.next = e' }
        else r)
      d.Rtl.registers
  in
  let outputs =
    List.map
      (fun (n, e) -> if Printf.sprintf "out(%s)" n = target then (n, e') else (n, e))
      d.Rtl.outputs
  in
  rebuild d ~registers ~outputs

(* Add the hidden toggle register (flips every cycle, starts at 0). *)
let with_hidden_reg (d : Rtl.design) registers outputs =
  let hidden =
    {
      Rtl.reg = { Expr.name = hidden_reg_name; width = 1 };
      init = Bitvec.zero 1;
      next = Expr.not_ (Expr.var hidden_reg_name 1);
    }
  in
  let registers = registers @ [ hidden ] in
  rebuild d ~registers ~outputs

let corrupt_conditionally e =
  (* When the hidden toggle is high, the value is off by one. *)
  let w = Expr.width e in
  if w = 1 then Expr.xor e (Expr.var hidden_reg_name 1)
  else Expr.ite (Expr.var hidden_reg_name 1) (Expr.add e (Expr.const_int ~width:w 1)) e

(* Rare-trigger condition: the hidden toggle must be hot AND the widest
   input ports (and, if fewer than two exist, a multi-bit register) must
   hold design-specific magic values. Symbolic search satisfies the
   coincidence instantly; random stimulus rarely does. *)
let rare_trigger (d : Rtl.design) =
  let magic name range = Hashtbl.hash (d.Rtl.name, name) mod range in
  let multibit =
    List.filter (fun (v : Expr.var) -> v.Expr.width > 1) d.Rtl.inputs
    |> List.sort (fun (a : Expr.var) b ->
           match Int.compare b.Expr.width a.Expr.width with
           | 0 -> String.compare a.Expr.name b.Expr.name
           | c -> c)
  in
  let input_conds =
    List.filteri (fun i _ -> i < 2) multibit
    |> List.map (fun (v : Expr.var) ->
           Expr.eq (Expr.of_var v)
             (Expr.const_int ~width:v.Expr.width (magic v.Expr.name (1 lsl v.Expr.width))))
  in
  let conds =
    if List.length input_conds >= 2 then input_conds
    else
      match
        List.find_opt
          (fun (r : Rtl.reg) ->
            r.Rtl.reg.Expr.width > 1 && r.Rtl.reg.Expr.name <> hidden_reg_name)
          d.Rtl.registers
      with
      | Some r ->
          input_conds
          @ [
              Expr.eq (Expr.of_var r.Rtl.reg)
                (Expr.const_int ~width:r.Rtl.reg.Expr.width
                   (1 + magic r.Rtl.reg.Expr.name 3));
            ]
      | None -> input_conds
  in
  Expr.conj (Expr.var hidden_reg_name 1 :: conds)

let corrupt_rarely d e =
  let trigger = rare_trigger d in
  let w = Expr.width e in
  if w = 1 then Expr.xor e trigger
  else Expr.ite trigger (Expr.add e (Expr.const_int ~width:w 1)) e

(* ------------------------------------------------------------------ *)

let enumerate ?(off_by_one_roots_only = true) (d : Rtl.design) =
  ignore off_by_one_roots_only;
  let muts = ref [] in
  let add operator target site description =
    let id =
      Printf.sprintf "%s:%s:%d" (operator_to_string operator) target site
    in
    muts := { id; operator; target; site; description } :: !muts
  in
  (* Node-level mutations inside every target expression. *)
  List.iter
    (fun (target, payload) ->
      List.iter
        (fun (site, op, descr) -> add op target site descr)
        (expr_sites (target_expr payload));
      (* Root off-by-one on every multi-bit target. *)
      if Expr.width (target_expr payload) > 1 then
        add Off_by_one target 0 "result off by one")
    (targets d);
  (* Register-level mutations. *)
  List.iter
    (fun (r : Rtl.reg) ->
      let name = r.Rtl.reg.Expr.name in
      add Stuck_reg (Printf.sprintf "next(%s)" name) 0 "register never updates";
      add Init_corrupt (Printf.sprintf "init(%s)" name) 0 "reset value LSB flipped")
    d.Rtl.registers;
  (* Interference mutations: one per output, one per register. *)
  List.iter
    (fun (n, _) ->
      add Hidden_output (Printf.sprintf "out(%s)" n) 0 "hidden toggle corrupts response")
    d.Rtl.outputs;
  List.iter
    (fun (r : Rtl.reg) ->
      add Hidden_state
        (Printf.sprintf "next(%s)" r.Rtl.reg.Expr.name)
        0 "hidden toggle corrupts stored state")
    d.Rtl.registers;
  List.iter
    (fun (n, _) ->
      add Rare_output (Printf.sprintf "out(%s)" n) 0
        "rare coincidence corrupts response")
    d.Rtl.outputs;
  List.iter
    (fun (r : Rtl.reg) ->
      add Rare_state
        (Printf.sprintf "next(%s)" r.Rtl.reg.Expr.name)
        0 "rare coincidence corrupts stored state")
    d.Rtl.registers;
  List.rev !muts

let apply (d : Rtl.design) m =
  let find_target () =
    List.find_opt (fun (name, _) -> name = m.target) (targets d)
  in
  match m.operator with
  | Op_swap | Const_corrupt | Ite_flip -> begin
      match find_target () with
      | None -> None
      | Some (target, payload) -> begin
          match rewrite_at (target_expr payload) ~site:m.site ~operator:m.operator with
          | None -> None
          | Some e' -> with_target_expr d target e'
        end
    end
  | Off_by_one -> begin
      match find_target () with
      | None -> None
      | Some (target, payload) ->
          let e = target_expr payload in
          let w = Expr.width e in
          if w < 2 then None
          else with_target_expr d target (Expr.add e (Expr.const_int ~width:w 1))
    end
  | Stuck_reg -> begin
      match find_target () with
      | None -> None
      | Some (target, `Reg r) ->
          with_target_expr d target (Expr.of_var r.Rtl.reg)
      | Some (_, `Out _) -> None
    end
  | Init_corrupt ->
      let changed = ref false in
      let registers =
        List.map
          (fun (r : Rtl.reg) ->
            if Printf.sprintf "init(%s)" r.Rtl.reg.Expr.name = m.target then begin
              changed := true;
              {
                r with
                Rtl.init =
                  Bitvec.logxor r.Rtl.init (Bitvec.one (Bitvec.width r.Rtl.init));
              }
            end
            else r)
          d.Rtl.registers
      in
      if not !changed then None
      else
        Some
          (Rtl.make ~name:d.Rtl.name ~inputs:d.Rtl.inputs ~registers
             ~outputs:d.Rtl.outputs)
  | Hidden_output -> begin
      match find_target () with
      | Some (_, `Out (n, e)) ->
          let outputs =
            List.map
              (fun (n', e') -> if n' = n then (n', corrupt_conditionally e) else (n', e'))
              d.Rtl.outputs
          in
          with_hidden_reg d d.Rtl.registers outputs
      | _ -> None
    end
  | Hidden_state -> begin
      match find_target () with
      | Some (_, `Reg r) ->
          let registers =
            List.map
              (fun (r' : Rtl.reg) ->
                if r'.Rtl.reg.Expr.name = r.Rtl.reg.Expr.name then
                  { r' with Rtl.next = corrupt_conditionally r'.Rtl.next }
                else r')
              d.Rtl.registers
          in
          with_hidden_reg d registers d.Rtl.outputs
      | _ -> None
    end
  | Rare_output -> begin
      match find_target () with
      | Some (_, `Out (n, e)) ->
          let outputs =
            List.map
              (fun (n', e') -> if n' = n then (n', corrupt_rarely d e) else (n', e'))
              d.Rtl.outputs
          in
          ignore e;
          with_hidden_reg d d.Rtl.registers outputs
      | _ -> None
    end
  | Rare_state -> begin
      match find_target () with
      | Some (_, `Reg r) ->
          let registers =
            List.map
              (fun (r' : Rtl.reg) ->
                if r'.Rtl.reg.Expr.name = r.Rtl.reg.Expr.name then
                  { r' with Rtl.next = corrupt_rarely d r'.Rtl.next }
                else r')
              d.Rtl.registers
          in
          with_hidden_reg d registers d.Rtl.outputs
      | _ -> None
    end

let mutants ?per_operator_limit (d : Rtl.design) =
  let counts = Hashtbl.create 8 in
  let keep m =
    match per_operator_limit with
    | None -> true
    | Some limit ->
        let n = Option.value (Hashtbl.find_opt counts m.operator) ~default:0 in
        if n >= limit then false
        else begin
          Hashtbl.replace counts m.operator (n + 1);
          true
        end
  in
  List.filter_map
    (fun m ->
      match apply d m with
      | Some mutant when keep m -> Some (m, mutant)
      | _ -> None)
    (enumerate d)
