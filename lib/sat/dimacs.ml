type cnf = { num_vars : int; clauses : Lit.t list list }

let parse_tokens tokens =
  (* [tokens] is the whitespace-split document with comment lines already
     stripped. *)
  match tokens with
  | "p" :: "cnf" :: nv :: nc :: rest -> begin
      match (int_of_string_opt nv, int_of_string_opt nc) with
      | Some num_vars, Some num_clauses when num_vars >= 0 && num_clauses >= 0 ->
          let rec clauses acc current = function
            | [] ->
                if current = [] then Ok (List.rev acc)
                else Error "unterminated clause (missing trailing 0)"
            | tok :: rest -> begin
                match int_of_string_opt tok with
                | None -> Error (Printf.sprintf "bad literal token %S" tok)
                | Some 0 -> clauses (List.rev current :: acc) [] rest
                | Some i ->
                    if abs i > num_vars then
                      Error
                        (Printf.sprintf "literal %d out of declared range 1..%d" i num_vars)
                    else clauses acc (Lit.of_dimacs i :: current) rest
              end
          in
          begin
            match clauses [] [] rest with
            | Error _ as e -> e
            | Ok cs ->
                if List.length cs <> num_clauses then
                  Error
                    (Printf.sprintf "header declares %d clauses, found %d" num_clauses
                       (List.length cs))
                else Ok { num_vars; clauses = cs }
          end
      | _ -> Error "malformed p-line"
    end
  | _ -> Error "missing or malformed 'p cnf' header"

let strip_comments text =
  String.split_on_char '\n' text
  |> List.filter (fun line ->
         let line = String.trim line in
         not (String.length line > 0 && line.[0] = 'c'))
  |> String.concat "\n"

let tokenize text =
  String.split_on_char '\n' text
  |> List.concat_map (String.split_on_char ' ')
  |> List.concat_map (String.split_on_char '\t')
  |> List.concat_map (String.split_on_char '\r')
  |> List.filter (fun tok -> tok <> "")

let parse_string text = parse_tokens (tokenize (strip_comments text))

let to_string { num_vars; clauses } =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf (Printf.sprintf "p cnf %d %d\n" num_vars (List.length clauses));
  List.iter
    (fun clause ->
      List.iter (fun l -> Buffer.add_string buf (Printf.sprintf "%d " (Lit.to_dimacs l))) clause;
      Buffer.add_string buf "0\n")
    clauses;
  Buffer.contents buf

let load solver { num_vars; clauses } =
  while Solver.nvars solver < num_vars do
    ignore (Solver.new_var solver)
  done;
  List.iter (Solver.add_clause solver) clauses

let solve_string text =
  match parse_string text with
  | Error _ as e -> e
  | Ok cnf ->
      let solver = Solver.create () in
      load solver cnf;
      let result = Solver.solve solver in
      let model =
        match result with
        | Solver.Sat -> Some (Solver.model solver)
        | Solver.Unsat | Solver.Unknown _ -> None
      in
      Ok (result, model)
