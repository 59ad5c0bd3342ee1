(* Tracing + metrics. Each process is one domain (parallelism is worker
   processes), so the trace is one buffer and metrics are plain cells; see
   DESIGN.md. *)

let enabled = ref false
let on () = !enabled
let enable () = enabled := true
let disable () = enabled := false

(* ------------------------------------------------------------------ *)
(* Minimal JSON.                                                       *)

module Json = struct
  type t =
    | Null
    | Bool of bool
    | Num of float
    | Str of string
    | Arr of t list
    | Obj of (string * t) list

  let escape_to buf s =
    Buffer.add_char buf '"';
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string buf "\\\""
        | '\\' -> Buffer.add_string buf "\\\\"
        | '\n' -> Buffer.add_string buf "\\n"
        | '\r' -> Buffer.add_string buf "\\r"
        | '\t' -> Buffer.add_string buf "\\t"
        | c when Char.code c < 0x20 ->
            Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char buf c)
      s;
    Buffer.add_char buf '"'

  let num_to buf f =
    if Float.is_integer f && Float.abs f < 1e15 then
      Buffer.add_string buf (Printf.sprintf "%.0f" f)
    else Buffer.add_string buf (Printf.sprintf "%.17g" f)

  let rec to_buf buf = function
    | Null -> Buffer.add_string buf "null"
    | Bool b -> Buffer.add_string buf (if b then "true" else "false")
    | Num f -> num_to buf f
    | Str s -> escape_to buf s
    | Arr xs ->
        Buffer.add_char buf '[';
        List.iteri
          (fun i x ->
            if i > 0 then Buffer.add_char buf ',';
            to_buf buf x)
          xs;
        Buffer.add_char buf ']'
    | Obj kvs ->
        Buffer.add_char buf '{';
        List.iteri
          (fun i (k, v) ->
            if i > 0 then Buffer.add_char buf ',';
            escape_to buf k;
            Buffer.add_char buf ':';
            to_buf buf v)
          kvs;
        Buffer.add_char buf '}'

  let to_string t =
    let buf = Buffer.create 256 in
    to_buf buf t;
    Buffer.contents buf

  exception Parse_error of string

  (* Recursive-descent parser over a string; positions are plain ints. *)
  let parse s =
    let n = String.length s in
    let pos = ref 0 in
    let fail msg = raise (Parse_error (Printf.sprintf "%s at offset %d" msg !pos)) in
    let peek () = if !pos < n then Some s.[!pos] else None in
    let advance () = incr pos in
    let rec skip_ws () =
      match peek () with
      | Some (' ' | '\t' | '\n' | '\r') ->
          advance ();
          skip_ws ()
      | _ -> ()
    in
    let expect c =
      match peek () with
      | Some c' when c' = c -> advance ()
      | _ -> fail (Printf.sprintf "expected '%c'" c)
    in
    let literal word v =
      if !pos + String.length word <= n && String.sub s !pos (String.length word) = word
      then begin
        pos := !pos + String.length word;
        v
      end
      else fail ("expected " ^ word)
    in
    let parse_string () =
      expect '"';
      let buf = Buffer.create 16 in
      let rec go () =
        if !pos >= n then fail "unterminated string"
        else
          match s.[!pos] with
          | '"' -> advance ()
          | '\\' ->
              advance ();
              (if !pos >= n then fail "unterminated escape"
               else
                 match s.[!pos] with
                 | '"' -> Buffer.add_char buf '"'
                 | '\\' -> Buffer.add_char buf '\\'
                 | '/' -> Buffer.add_char buf '/'
                 | 'n' -> Buffer.add_char buf '\n'
                 | 'r' -> Buffer.add_char buf '\r'
                 | 't' -> Buffer.add_char buf '\t'
                 | 'b' -> Buffer.add_char buf '\b'
                 | 'f' -> Buffer.add_char buf '\012'
                 | 'u' ->
                     if !pos + 4 >= n then fail "truncated \\u escape";
                     let hex = String.sub s (!pos + 1) 4 in
                     let code =
                       try int_of_string ("0x" ^ hex)
                       with _ -> fail "bad \\u escape"
                     in
                     (* Only BMP codepoints we emit ourselves (control chars):
                        encode as UTF-8. *)
                     if code < 0x80 then Buffer.add_char buf (Char.chr code)
                     else if code < 0x800 then begin
                       Buffer.add_char buf (Char.chr (0xc0 lor (code lsr 6)));
                       Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3f)))
                     end
                     else begin
                       Buffer.add_char buf (Char.chr (0xe0 lor (code lsr 12)));
                       Buffer.add_char buf
                         (Char.chr (0x80 lor ((code lsr 6) land 0x3f)));
                       Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3f)))
                     end;
                     pos := !pos + 4
                 | c -> fail (Printf.sprintf "bad escape '\\%c'" c));
              advance ();
              go ()
          | c ->
              Buffer.add_char buf c;
              advance ();
              go ()
      in
      go ();
      Buffer.contents buf
    in
    let parse_number () =
      let start = !pos in
      let is_num_char c =
        match c with
        | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
        | _ -> false
      in
      while !pos < n && is_num_char s.[!pos] do
        advance ()
      done;
      if !pos = start then fail "expected number";
      match float_of_string_opt (String.sub s start (!pos - start)) with
      | Some f -> f
      | None -> fail "malformed number"
    in
    let rec parse_value () =
      skip_ws ();
      match peek () with
      | None -> fail "unexpected end of input"
      | Some '{' ->
          advance ();
          skip_ws ();
          if peek () = Some '}' then begin
            advance ();
            Obj []
          end
          else begin
            let rec members acc =
              skip_ws ();
              let k = parse_string () in
              skip_ws ();
              expect ':';
              let v = parse_value () in
              skip_ws ();
              match peek () with
              | Some ',' ->
                  advance ();
                  members ((k, v) :: acc)
              | Some '}' ->
                  advance ();
                  List.rev ((k, v) :: acc)
              | _ -> fail "expected ',' or '}'"
            in
            Obj (members [])
          end
      | Some '[' ->
          advance ();
          skip_ws ();
          if peek () = Some ']' then begin
            advance ();
            Arr []
          end
          else begin
            let rec elements acc =
              let v = parse_value () in
              skip_ws ();
              match peek () with
              | Some ',' ->
                  advance ();
                  elements (v :: acc)
              | Some ']' ->
                  advance ();
                  List.rev (v :: acc)
              | _ -> fail "expected ',' or ']'"
            in
            Arr (elements [])
          end
      | Some '"' -> Str (parse_string ())
      | Some 't' -> literal "true" (Bool true)
      | Some 'f' -> literal "false" (Bool false)
      | Some 'n' -> literal "null" Null
      | Some _ -> Num (parse_number ())
    in
    match
      let v = parse_value () in
      skip_ws ();
      if !pos <> n then fail "trailing garbage";
      v
    with
    | v -> Ok v
    | exception Parse_error msg -> Error msg

  let member k = function Obj kvs -> List.assoc_opt k kvs | _ -> None
end

(* ------------------------------------------------------------------ *)
(* Tracing.                                                            *)

module Trace = struct
  type kind = Begin | End | Instant | Counter of float

  type event = {
    ev_seq : int;
    ev_domain : int;
    ev_ts : float;
    ev_kind : kind;
    ev_name : string;
    ev_args : (string * string) list;
  }

  (* The one trace buffer: newest event first. *)
  let buffer : event list ref = ref []
  let seq = ref 0
  let last_ts = ref 0.

  let emit kind name args =
    (* Clamp against the last timestamp emitted: gettimeofday is not
       guaranteed monotone, and the well-formedness checker demands
       per-track monotonicity. *)
    let now = Unix.gettimeofday () in
    let ts = if now > !last_ts then now else !last_ts in
    last_ts := ts;
    buffer :=
      { ev_seq = !seq; ev_domain = 0; ev_ts = ts; ev_kind = kind;
        ev_name = name; ev_args = args }
      :: !buffer;
    incr seq

  let span_begin ?(args = []) name = if on () then emit Begin name args
  let span_end ?(args = []) name = if on () then emit End name args
  let instant ?(args = []) name = if on () then emit Instant name args
  let counter name v = if on () then emit (Counter v) name []

  let with_span ?(args = []) name f =
    (* Sample the guard once: a toggle while [f] runs must not produce an
       unmatched Begin or End. *)
    if not (on ()) then f ()
    else begin
      emit Begin name args;
      Fun.protect ~finally:(fun () -> emit End name []) f
    end

  let reset () =
    buffer := [];
    seq := 0;
    last_ts := 0.

  let events () = List.rev !buffer

  (* ---------------- well-formedness ---------------- *)

  let check evs =
    let stacks : (int, string list ref) Hashtbl.t = Hashtbl.create 8 in
    let last_ts : (int, float) Hashtbl.t = Hashtbl.create 8 in
    let stack dom =
      match Hashtbl.find_opt stacks dom with
      | Some r -> r
      | None ->
          let r = ref [] in
          Hashtbl.add stacks dom r;
          r
    in
    let err fmt = Printf.ksprintf (fun m -> Error m) fmt in
    let rec go prev_seq = function
      | [] ->
          let open_spans =
            Hashtbl.fold
              (fun dom r acc ->
                List.fold_left
                  (fun acc name -> Printf.sprintf "%s (domain %d)" name dom :: acc)
                  acc !r)
              stacks []
          in
          if open_spans = [] then Ok ()
          else err "unclosed span(s): %s" (String.concat ", " open_spans)
      | e :: rest -> (
          if e.ev_seq <= prev_seq then
            err "seq not strictly increasing: %d after %d" e.ev_seq prev_seq
          else begin
            match Hashtbl.find_opt last_ts e.ev_domain with
            | Some t when e.ev_ts < t ->
                err "timestamp regressed on domain %d at seq %d (%.9f < %.9f)"
                  e.ev_domain e.ev_seq e.ev_ts t
            | _ -> (
                Hashtbl.replace last_ts e.ev_domain e.ev_ts;
                let st = stack e.ev_domain in
                match e.ev_kind with
                | Begin ->
                    st := e.ev_name :: !st;
                    go e.ev_seq rest
                | End -> (
                    match !st with
                    | top :: tl when top = e.ev_name ->
                        st := tl;
                        go e.ev_seq rest
                    | top :: _ ->
                        err "end '%s' does not match open span '%s' (domain %d, seq %d)"
                          e.ev_name top e.ev_domain e.ev_seq
                    | [] ->
                        err "end '%s' with no open span (domain %d, seq %d)" e.ev_name
                          e.ev_domain e.ev_seq)
                | Instant | Counter _ -> go e.ev_seq rest)
          end)
    in
    go (-1) evs

  (* ---------------- exporter and reader ---------------- *)

  let ph_of = function
    | Begin -> "B"
    | End -> "E"
    | Instant -> "i"
    | Counter _ -> "C"

  (* Chrome [trace_event] JSON. Besides the keys Perfetto reads, each entry
     carries its [seq], and its args on every kind, so that [parse_chrome]
     gives [check] the same events the buffer held. *)
  let to_chrome buf evs =
    let t0 = match evs with [] -> 0. | e :: _ -> e.ev_ts in
    let entry e =
      let args = List.map (fun (k, v) -> (k, Json.Str v)) e.ev_args in
      let args =
        match e.ev_kind with Counter v -> ("value", Json.Num v) :: args | _ -> args
      in
      Json.Obj
        ([
           ("name", Json.Str e.ev_name);
           ("ph", Json.Str (ph_of e.ev_kind));
           ("seq", Json.Num (float_of_int e.ev_seq));
           ("ts", Json.Num ((e.ev_ts -. t0) *. 1e6));
           ("pid", Json.Num 0.);
           ("tid", Json.Num (float_of_int e.ev_domain));
         ]
        @ (if e.ev_kind = Instant then [ ("s", Json.Str "t") ] else [])
        @ if args = [] then [] else [ ("args", Json.Obj args) ])
    in
    Json.to_buf buf
      (Json.Obj
         [
           ("traceEvents", Json.Arr (List.map entry evs));
           ("displayTimeUnit", Json.Str "ms");
         ])

  (* The inverse of [to_chrome], as strict as [check] needs: an entry
     missing a field, or with an unknown phase, is an error rather than a
     skipped line. Timestamps come back in seconds since the first event. *)
  let parse_chrome text =
    let ( let* ) = Result.bind in
    let event_of i e =
      let num k =
        match Json.member k e with
        | Some (Json.Num f) -> Ok f
        | _ -> Error (Printf.sprintf "entry %d: missing numeric field %S" i k)
      in
      let* name =
        match Json.member "name" e with
        | Some (Json.Str s) -> Ok s
        | _ -> Error (Printf.sprintf "entry %d: missing string field \"name\"" i)
      in
      let* sq = num "seq" in
      let* ts = num "ts" in
      let* tid = num "tid" in
      let args = match Json.member "args" e with Some (Json.Obj kvs) -> kvs | _ -> [] in
      let* kind =
        match Json.member "ph" e with
        | Some (Json.Str "B") -> Ok Begin
        | Some (Json.Str "E") -> Ok End
        | Some (Json.Str "i") -> Ok Instant
        | Some (Json.Str "C") -> (
            match List.assoc_opt "value" args with
            | Some (Json.Num v) -> Ok (Counter v)
            | _ -> Error (Printf.sprintf "entry %d: counter without value" i))
        | _ -> Error (Printf.sprintf "entry %d: missing or unknown ph" i)
      in
      Ok
        {
          ev_seq = int_of_float sq;
          ev_domain = int_of_float tid;
          ev_ts = ts /. 1e6;
          ev_kind = kind;
          ev_name = name;
          ev_args =
            List.filter_map
              (fun (k, v) -> match v with Json.Str s -> Some (k, s) | _ -> None)
              args;
        }
    in
    let* j = Json.parse text in
    match Json.member "traceEvents" j with
    | Some (Json.Arr entries) ->
        let rec go i acc = function
          | [] -> Ok (List.rev acc)
          | e :: rest ->
              let* ev = event_of i e in
              go (i + 1) (ev :: acc) rest
        in
        go 0 [] entries
    | _ -> Error "not a Chrome trace: no traceEvents array"

  let write path evs =
    let buf = Buffer.create 4096 in
    to_chrome buf evs;
    let oc = open_out path in
    Buffer.output_buffer oc buf;
    close_out oc

  let validate_file path =
    let ic = open_in_bin path in
    let text = really_input_string ic (in_channel_length ic) in
    close_in ic;
    let ( let* ) = Result.bind in
    let* evs = parse_chrome text in
    let* () = check evs in
    Ok (List.length evs)
end

(* ------------------------------------------------------------------ *)
(* Metrics.                                                            *)

module Metrics = struct
  let bucket_bounds =
    [| 1e-6; 1e-5; 1e-4; 1e-3; 1e-2; 0.1; 1.; 10.; 100.; 1e3; infinity |]

  type hist = {
    h_counts : int array; (* per-bound, non-cumulative *)
    mutable h_n : int;
    mutable h_s : float;
  }

  type counter = int ref
  type gauge = float ref
  type histogram = hist

  type cell = Ccell of counter | Gcell of gauge | Hcell of hist

  let registry : (string, cell) Hashtbl.t = Hashtbl.create 32

  let clash name =
    invalid_arg (Printf.sprintf "Obs.Metrics: %S already registered with another kind" name)

  let intern name make wrap unwrap =
    match Hashtbl.find_opt registry name with
    | Some cell -> ( match unwrap cell with Some x -> x | None -> clash name)
    | None ->
        let x = make () in
        Hashtbl.add registry name (wrap x);
        x

  let counter name =
    intern name (fun () -> ref 0) (fun c -> Ccell c) (function Ccell c -> Some c | _ -> None)

  let gauge name =
    intern name (fun () -> ref 0.) (fun g -> Gcell g) (function Gcell g -> Some g | _ -> None)

  let histogram name =
    intern name
      (fun () -> { h_counts = Array.make (Array.length bucket_bounds) 0; h_n = 0; h_s = 0. })
      (fun h -> Hcell h)
      (function Hcell h -> Some h | _ -> None)

  let add c n = c := !c + n
  let incr c = add c 1
  let set g v = g := v

  let observe h v =
    let rec bucket i =
      if i >= Array.length bucket_bounds - 1 || v <= bucket_bounds.(i) then i
      else bucket (i + 1)
    in
    let b = bucket 0 in
    h.h_counts.(b) <- h.h_counts.(b) + 1;
    h.h_n <- h.h_n + 1;
    h.h_s <- h.h_s +. v

  type value =
    | Counter of int
    | Gauge of float
    | Histogram of { h_count : int; h_sum : float; h_buckets : (float * int) list }

  type snapshot = (string * value) list

  let snapshot () =
    let value = function
      | Ccell c -> Counter !c
      | Gcell g -> Gauge !g
      | Hcell h ->
          (* Cumulative buckets for the snapshot view. *)
          let acc = ref 0 in
          let buckets =
            Array.to_list
              (Array.mapi
                 (fun i c ->
                   acc := !acc + c;
                   (bucket_bounds.(i), !acc))
                 h.h_counts)
          in
          Histogram { h_count = h.h_n; h_sum = h.h_s; h_buckets = buckets }
    in
    List.sort (fun (a, _) (b, _) -> String.compare a b)
      (Hashtbl.fold (fun name cell acc -> (name, value cell) :: acc) registry [])

  let diff ~before ~after =
    List.map
      (fun (name, v) ->
        let prev = List.assoc_opt name before in
        let v' =
          match (v, prev) with
          | Counter a, Some (Counter b) -> Counter (a - b)
          | Counter a, _ -> Counter a
          | Gauge a, _ -> Gauge a
          | Histogram h, Some (Histogram p) ->
              Histogram
                {
                  h_count = h.h_count - p.h_count;
                  h_sum = h.h_sum -. p.h_sum;
                  h_buckets =
                    List.map2
                      (fun (b, c) (_, pc) -> (b, c - pc))
                      h.h_buckets p.h_buckets;
                }
          | Histogram _, _ -> v
        in
        (name, v'))
      after

  let reset () = Hashtbl.reset registry

  let value_json = function
    | Counter n -> Json.Obj [ ("type", Json.Str "counter"); ("value", Json.Num (float_of_int n)) ]
    | Gauge v -> Json.Obj [ ("type", Json.Str "gauge"); ("value", Json.Num v) ]
    | Histogram h ->
        Json.Obj
          [
            ("type", Json.Str "histogram");
            ("count", Json.Num (float_of_int h.h_count));
            ("sum", Json.Num h.h_sum);
            ( "buckets",
              Json.Arr
                (List.map
                   (fun (bound, c) ->
                     Json.Obj
                       [
                         ( "le",
                           if Float.is_integer bound || bound = infinity then
                             Json.Str
                               (if bound = infinity then "inf"
                                else Printf.sprintf "%.0f" bound)
                           else Json.Str (Printf.sprintf "%g" bound) );
                         ("count", Json.Num (float_of_int c));
                       ])
                   h.h_buckets) );
          ]

  let to_json snap = Json.Obj (List.map (fun (name, v) -> (name, value_json v)) snap)

  let write path snap =
    let oc = open_out path in
    output_string oc (Json.to_string (to_json snap));
    output_char oc '\n';
    close_out oc
end

(* ------------------------------------------------------------------ *)

module Export = struct
  let guard ~force path =
    if (not force) && Sys.file_exists path then
      Error
        (Printf.sprintf
           "refusing to overwrite existing file %s (pass --force to replace it)" path)
    else Ok ()
end
