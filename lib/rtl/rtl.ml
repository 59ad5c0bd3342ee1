type reg = { reg : Expr.var; init : Bitvec.t; next : Expr.t }

type design = {
  name : string;
  inputs : Expr.var list;
  registers : reg list;
  outputs : (string * Expr.t) list;
}

module Smap = Map.Make (String)

type valuation = Bitvec.t Smap.t

(* ------------------------------------------------------------------ *)
(* Validation.                                                         *)

let validate ~name ~inputs ~registers ~outputs =
  let errors = ref [] in
  let error fmt = Format.kasprintf (fun msg -> errors := msg :: !errors) fmt in
  (* Name uniqueness across all declared entities. *)
  let names =
    List.map (fun (v : Expr.var) -> v.Expr.name) inputs
    @ List.map (fun r -> r.reg.Expr.name) registers
    @ List.map fst outputs
  in
  let seen = Hashtbl.create 16 in
  List.iter
    (fun n ->
      if Hashtbl.mem seen n then error "%s: duplicate name %s" name n
      else Hashtbl.add seen n ())
    names;
  (* Scope: expressions may reference inputs and registers only. *)
  let scope = Hashtbl.create 16 in
  List.iter (fun (v : Expr.var) -> Hashtbl.replace scope v.Expr.name v.Expr.width) inputs;
  List.iter (fun r -> Hashtbl.replace scope r.reg.Expr.name r.reg.Expr.width) registers;
  let check_expr context e =
    List.iter
      (fun (v : Expr.var) ->
        match Hashtbl.find_opt scope v.Expr.name with
        | None -> error "%s: %s references undeclared variable %s" name context v.Expr.name
        | Some w ->
            if w <> v.Expr.width then
              error "%s: %s uses %s at width %d, declared %d" name context v.Expr.name
                v.Expr.width w)
      (Expr.vars e)
  in
  List.iter
    (fun r ->
      let rn = r.reg.Expr.name in
      if Bitvec.width r.init <> r.reg.Expr.width then
        error "%s: register %s has init width %d, declared %d" name rn
          (Bitvec.width r.init) r.reg.Expr.width;
      if Expr.width r.next <> r.reg.Expr.width then
        error "%s: register %s has next-state width %d, declared %d" name rn
          (Expr.width r.next) r.reg.Expr.width;
      check_expr (Printf.sprintf "next(%s)" rn) r.next)
    registers;
  List.iter (fun (n, e) -> check_expr (Printf.sprintf "output %s" n) e) outputs;
  match !errors with [] -> Ok () | errs -> Error (List.rev errs)

let make ~name ~inputs ~registers ~outputs =
  match validate ~name ~inputs ~registers ~outputs with
  | Ok () -> { name; inputs; registers; outputs }
  | Error errs -> invalid_arg ("Rtl.make: " ^ String.concat "; " errs)

(* ------------------------------------------------------------------ *)
(* Lookups.                                                            *)

let reg_var d name =
  match List.find_opt (fun r -> r.reg.Expr.name = name) d.registers with
  | Some r -> r.reg
  | None -> raise Not_found

let input_var d name =
  match List.find_opt (fun (v : Expr.var) -> v.Expr.name = name) d.inputs with
  | Some v -> v
  | None -> raise Not_found

let output_expr d name =
  match List.assoc_opt name d.outputs with
  | Some e -> e
  | None -> raise Not_found

let reg_expr d name = Expr.of_var (reg_var d name)

(* ------------------------------------------------------------------ *)
(* Transformation.                                                     *)

let rename ~prefix d =
  let rn (v : Expr.var) = { v with Expr.name = prefix ^ v.Expr.name } in
  let rne = Expr.map_vars rn in
  make ~name:(prefix ^ d.name)
    ~inputs:(List.map rn d.inputs)
    ~registers:
      (List.map (fun r -> { reg = rn r.reg; init = r.init; next = rne r.next }) d.registers)
    ~outputs:(List.map (fun (n, e) -> (prefix ^ n, rne e)) d.outputs)

let product a b =
  make
    ~name:(a.name ^ "*" ^ b.name)
    ~inputs:(a.inputs @ b.inputs)
    ~registers:(a.registers @ b.registers)
    ~outputs:(a.outputs @ b.outputs)

let compose ~name ~a ~b ~connections =
  (* Resolve [a]'s output names inside connection expressions. *)
  let resolve_a_outputs e =
    Expr.subst
      (fun (v : Expr.var) ->
        match List.assoc_opt v.Expr.name a.outputs with
        | Some oe when Expr.width oe = v.Expr.width -> Some oe
        | Some oe ->
            invalid_arg
              (Printf.sprintf "Rtl.compose: output %s used at width %d, defined at %d"
                 v.Expr.name v.Expr.width (Expr.width oe))
        | None -> None)
      e
  in
  let connections =
    List.map (fun (port, e) -> (port, resolve_a_outputs e)) connections
  in
  List.iter
    (fun (port, e) ->
      match List.find_opt (fun (v : Expr.var) -> v.Expr.name = port) b.inputs with
      | None -> invalid_arg (Printf.sprintf "Rtl.compose: %s is not an input of %s" port b.name)
      | Some v ->
          if Expr.width e <> v.Expr.width then
            invalid_arg
              (Printf.sprintf "Rtl.compose: connection to %s has width %d, expected %d"
                 port (Expr.width e) v.Expr.width))
    connections;
  (* Substitute the connections into b's expressions. *)
  let subst_b e =
    Expr.subst
      (fun (v : Expr.var) -> List.assoc_opt v.Expr.name connections)
      e
  in
  let b_registers =
    List.map (fun r -> { r with next = subst_b r.next }) b.registers
  in
  let b_outputs = List.map (fun (n, e) -> (n, subst_b e)) b.outputs in
  let b_remaining_inputs =
    List.filter
      (fun (v : Expr.var) -> not (List.mem_assoc v.Expr.name connections))
      b.inputs
  in
  (* Unify inputs shared by name (widths must agree; [make] re-validates). *)
  let inputs =
    a.inputs
    @ List.filter
        (fun (v : Expr.var) ->
          not
            (List.exists
               (fun (u : Expr.var) -> u.Expr.name = v.Expr.name && u.Expr.width = v.Expr.width)
               a.inputs))
        b_remaining_inputs
  in
  make ~name ~inputs
    ~registers:(a.registers @ b_registers)
    ~outputs:(a.outputs @ b_outputs)

let stats d =
  let state_bits = List.fold_left (fun acc r -> acc + r.reg.Expr.width) 0 d.registers in
  let input_bits =
    List.fold_left (fun acc (v : Expr.var) -> acc + v.Expr.width) 0 d.inputs
  in
  let nodes =
    List.fold_left (fun acc r -> acc + Expr.size r.next) 0 d.registers
    + List.fold_left (fun acc (_, e) -> acc + Expr.size e) 0 d.outputs
  in
  (state_bits, input_bits, nodes)

(* ------------------------------------------------------------------ *)
(* Simulation.                                                         *)

let initial_state d =
  List.fold_left (fun m r -> Smap.add r.reg.Expr.name r.init m) Smap.empty d.registers

let env_of d ~state ~inputs (v : Expr.var) =
  let fail_missing kind =
    invalid_arg
      (Printf.sprintf "Rtl.simulate(%s): missing %s %s" d.name kind v.Expr.name)
  in
  match Smap.find_opt v.Expr.name inputs with
  | Some bv -> bv
  | None -> (
      match Smap.find_opt v.Expr.name state with
      | Some bv -> bv
      | None -> fail_missing "input or register")

let check_inputs d inputs =
  List.iter
    (fun (v : Expr.var) ->
      match Smap.find_opt v.Expr.name inputs with
      | None ->
          invalid_arg
            (Printf.sprintf "Rtl.simulate(%s): missing input %s" d.name v.Expr.name)
      | Some bv ->
          if Bitvec.width bv <> v.Expr.width then
            invalid_arg
              (Printf.sprintf "Rtl.simulate(%s): input %s has width %d, expected %d"
                 d.name v.Expr.name (Bitvec.width bv) v.Expr.width))
    d.inputs

let eval_outputs d ~state ~inputs =
  check_inputs d inputs;
  let env = env_of d ~state ~inputs in
  List.fold_left (fun m (n, e) -> Smap.add n (Expr.eval env e) m) Smap.empty d.outputs

let step d ~state ~inputs =
  check_inputs d inputs;
  let env = env_of d ~state ~inputs in
  List.fold_left
    (fun m r -> Smap.add r.reg.Expr.name (Expr.eval env r.next) m)
    Smap.empty d.registers

type trace_step = { t_inputs : valuation; t_state : valuation; t_outputs : valuation }

let simulate_from d start input_seq =
  let rec run state = function
    | [] -> []
    | inputs :: rest ->
        let outputs = eval_outputs d ~state ~inputs in
        let state' = step d ~state ~inputs in
        { t_inputs = inputs; t_state = state; t_outputs = outputs } :: run state' rest
  in
  run start input_seq

let simulate d input_seq = simulate_from d (initial_state d) input_seq

(* ------------------------------------------------------------------ *)
(* Printing.                                                           *)

let pp_valuation ppf v =
  Format.fprintf ppf "@[<h>";
  let first = ref true in
  Smap.iter
    (fun name bv ->
      if not !first then Format.fprintf ppf " ";
      first := false;
      Format.fprintf ppf "%s=%a" name Bitvec.pp bv)
    v;
  Format.fprintf ppf "@]"

let pp_trace ppf trace =
  List.iteri
    (fun k { t_inputs; t_state; t_outputs } ->
      Format.fprintf ppf "@[<h>cycle %2d | in: %a | state: %a | out: %a@]@." k
        pp_valuation t_inputs pp_valuation t_state pp_valuation t_outputs)
    trace

(* ------------------------------------------------------------------ *)
(* Memories.                                                           *)

module Mem = struct
  let read words ~addr =
    if Array.length words = 0 then invalid_arg "Rtl.Mem.read: empty memory";
    let aw = Expr.width addr in
    let select i word acc =
      Expr.ite (Expr.eq addr (Expr.const_int ~width:aw i)) word acc
    in
    let acc = ref words.(0) in
    for i = Array.length words - 1 downto 0 do
      acc := select i words.(i) !acc
    done;
    !acc

  let write words ~addr ~data =
    let aw = Expr.width addr in
    Array.mapi
      (fun i word ->
        Expr.ite (Expr.eq addr (Expr.const_int ~width:aw i)) data word)
      words
end
