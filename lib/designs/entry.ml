type golden = {
  init_state : Bitvec.t list;
  step : Bitvec.t list -> Bitvec.t list -> Bitvec.t list * Bitvec.t list;
}

type t = {
  name : string;
  description : string;
  design : Rtl.design;
  iface : Qed.Iface.t;
  interfering : bool;
  golden : golden;
  sample_operand : Random.State.t -> Bitvec.t list;
  rec_bound : int;
}

let make ~name ~description ~design ~iface ~golden ~sample_operand ~rec_bound =
  Qed.Iface.check design iface;
  {
    name;
    description;
    design;
    iface;
    interfering = Qed.Iface.is_interfering iface;
    golden;
    sample_operand;
    rec_bound;
  }

let zero_inputs design =
  List.fold_left
    (fun m (v : Expr.var) -> Rtl.Smap.add v.Expr.name (Bitvec.zero v.Expr.width) m)
    Rtl.Smap.empty design.Rtl.inputs

let operand_valuation e ~valid operand =
  let base = zero_inputs e.design in
  let with_operand =
    List.fold_left2
      (fun m port bv -> Rtl.Smap.add port bv m)
      base e.iface.Qed.Iface.in_data operand
  in
  match e.iface.Qed.Iface.in_valid with
  | None -> with_operand
  | Some port -> Rtl.Smap.add port (Bitvec.of_bool valid) with_operand

let idle_valuation e =
  let base = zero_inputs e.design in
  match e.iface.Qed.Iface.in_valid with
  | None -> base
  | Some port -> Rtl.Smap.add port (Bitvec.zero 1) base
