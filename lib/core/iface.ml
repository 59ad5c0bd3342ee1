type t = {
  in_valid : string option;
  in_data : string list;
  out_valid : string option;
  out_data : string list;
  in_ready : string option;
  latency : int;
  max_latency : int option;
  state_latency : int;
  arch_regs : string list;
  arch_reset : (string * Bitvec.t) list;
}

let make ?in_valid ?out_valid ?in_ready ?max_latency ?(state_latency = 1)
    ?(arch_reset = []) ~in_data ~out_data ~latency ~arch_regs () =
  {
    in_valid;
    in_data;
    out_valid;
    out_data;
    in_ready;
    latency;
    max_latency;
    state_latency;
    arch_regs;
    arch_reset;
  }

let validate (d : Rtl.design) t =
  let errors = ref [] in
  let error fmt = Format.kasprintf (fun msg -> errors := msg :: !errors) fmt in
  let is_input name =
    List.exists (fun (v : Expr.var) -> v.Expr.name = name) d.Rtl.inputs
  in
  let is_output name = List.mem_assoc name d.Rtl.outputs in
  let is_register name =
    List.exists (fun (r : Rtl.reg) -> r.Rtl.reg.Expr.name = name) d.Rtl.registers
  in
  let input_width name = (Rtl.input_var d name).Expr.width in
  (match t.in_valid with
  | None -> ()
  | Some name ->
      if not (is_input name) then error "in_valid %s is not an input" name
      else if input_width name <> 1 then error "in_valid %s is not 1 bit wide" name);
  (match t.out_valid with
  | None -> ()
  | Some name ->
      if not (is_output name) then error "out_valid %s is not an output" name
      else if Expr.width (Rtl.output_expr d name) <> 1 then
        error "out_valid %s is not 1 bit wide" name);
  if t.in_data = [] then error "in_data is empty";
  if t.out_data = [] then error "out_data is empty";
  List.iter
    (fun name -> if not (is_input name) then error "in_data %s is not an input" name)
    t.in_data;
  List.iter
    (fun name -> if not (is_output name) then error "out_data %s is not an output" name)
    t.out_data;
  if t.latency < 0 then error "latency %d is negative" t.latency;
  (match t.in_ready with
  | None -> ()
  | Some name ->
      if not (is_output name) then error "in_ready %s is not an output" name
      else if Expr.width (Rtl.output_expr d name) <> 1 then
        error "in_ready %s is not 1 bit wide" name);
  (match t.max_latency with
  | None -> ()
  | Some l ->
      if l < 1 then error "max_latency %d must be >= 1" l;
      if t.out_valid = None then
        error "variable-latency interfaces require an out_valid port");
  if t.state_latency < 1 then error "state_latency %d must be >= 1" t.state_latency;
  List.iter
    (fun name ->
      if not (is_register name) then error "arch_reg %s is not a register" name)
    t.arch_regs;
  List.iter
    (fun (name, bv) ->
      if not (List.mem name t.arch_regs) then
        error "arch_reset %s is not an architectural register" name
      else if is_register name && Bitvec.width bv <> (Rtl.reg_var d name).Expr.width
      then error "arch_reset %s has width %d" name (Bitvec.width bv))
    t.arch_reset;
  match !errors with [] -> Ok () | errs -> Error (List.rev errs)

let check d t =
  match validate d t with
  | Ok () -> ()
  | Error errs -> invalid_arg ("Iface.check: " ^ String.concat "; " errs)

let is_interfering t = t.arch_regs <> []
let is_variable_latency t = t.max_latency <> None

let arch_width d t =
  List.fold_left (fun acc name -> acc + (Rtl.reg_var d name).Expr.width) 0 t.arch_regs

let pp ppf t =
  Format.fprintf ppf
    "@[<h>iface{in=[%s]%s%s out=[%s]%s %s state_latency=%d arch=[%s]}@]"
    (String.concat "," t.in_data)
    (match t.in_valid with Some v -> " valid=" ^ v | None -> "")
    (match t.in_ready with Some r -> " ready=" ^ r | None -> "")
    (String.concat "," t.out_data)
    (match t.out_valid with Some v -> " valid=" ^ v | None -> "")
    (match t.max_latency with
    | Some l -> Printf.sprintf "latency<=%d" l
    | None -> Printf.sprintf "latency=%d" t.latency)
    t.state_latency
    (String.concat "," t.arch_regs)
