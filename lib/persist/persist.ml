(* Crash-safe campaign persistence. See persist.mli and DESIGN.md. *)

exception Injected_fault of string

type io_fault = Short_write of int | Enospc | Torn of int
type fault_hook = int -> io_fault option

(* ------------------------------------------------------------------ *)
(* CRC-32 (IEEE 802.3, reflected, the zlib polynomial)                 *)
(* ------------------------------------------------------------------ *)

let crc_table =
  lazy
    (let t = Array.make 256 0l in
     for n = 0 to 255 do
       let c = ref (Int32.of_int n) in
       for _ = 0 to 7 do
         c :=
           if Int32.logand !c 1l <> 0l then
             Int32.logxor 0xEDB88320l (Int32.shift_right_logical !c 1)
           else Int32.shift_right_logical !c 1
       done;
       t.(n) <- !c
     done;
     t)

let crc32_update crc s pos len =
  let t = Lazy.force crc_table in
  let c = ref (Int32.logxor crc 0xFFFFFFFFl) in
  for i = pos to pos + len - 1 do
    let idx = Int32.to_int (Int32.logand (Int32.logxor !c (Int32.of_int (Char.code s.[i]))) 0xFFl) in
    c := Int32.logxor t.(idx) (Int32.shift_right_logical !c 8)
  done;
  Int32.logxor !c 0xFFFFFFFFl

let crc32 s = crc32_update 0l s 0 (String.length s)

(* ------------------------------------------------------------------ *)
(* Record format                                                       *)
(* ------------------------------------------------------------------ *)

let magic = "GQEDJRNL"

(* A journal of any other version is refused, not replayed. *)
let version = '\002'
let header = magic ^ String.make 1 version
let header_len = String.length header
let record_tag = 'R'

(* Refuse to believe length fields that would make a record larger than
   this: a corrupt length then parses as a torn tail instead of a huge
   allocation. Journal payloads are marshalled check reports — small. *)
let max_field = 64 * 1024 * 1024

let be32 buf n =
  Buffer.add_char buf (Char.chr ((n lsr 24) land 0xff));
  Buffer.add_char buf (Char.chr ((n lsr 16) land 0xff));
  Buffer.add_char buf (Char.chr ((n lsr 8) land 0xff));
  Buffer.add_char buf (Char.chr (n land 0xff))

let read_be32 s pos =
  (Char.code s.[pos] lsl 24)
  lor (Char.code s.[pos + 1] lsl 16)
  lor (Char.code s.[pos + 2] lsl 8)
  lor Char.code s.[pos + 3]

let be64f buf f =
  let bits = Int64.bits_of_float f in
  for i = 7 downto 0 do
    Buffer.add_char buf
      (Char.chr (Int64.to_int (Int64.logand (Int64.shift_right_logical bits (i * 8)) 0xFFL)))
  done

let read_be64f s pos =
  let bits = ref 0L in
  for i = 0 to 7 do
    bits := Int64.logor (Int64.shift_left !bits 8) (Int64.of_int (Char.code s.[pos + i]))
  done;
  Int64.float_of_bits !bits

(* tag(1) key_len(4) payload_len(4) flags(1) seconds(8) key payload crc(4) *)
let encode_record ?(seconds = 0.) ~decided ~key ~payload () =
  let buf = Buffer.create (22 + String.length key + String.length payload) in
  Buffer.add_char buf record_tag;
  be32 buf (String.length key);
  be32 buf (String.length payload);
  Buffer.add_char buf (if decided then '\001' else '\000');
  be64f buf seconds;
  Buffer.add_string buf key;
  Buffer.add_string buf payload;
  let body = Buffer.contents buf in
  let crc = crc32 body in
  be32 buf (Int32.to_int (Int32.logand crc 0xFFFFFFFFl) land 0xFFFFFFFF);
  Buffer.contents buf

module Journal = struct
  type entry = { e_key : string; e_decided : bool; e_payload : string; e_seconds : float }

  type recovery = {
    rec_entries : int;
    rec_dropped_bytes : int;
    rec_truncated : bool;
  }

  type t = {
    j_path : string;
    j_sync : bool;
    j_fault : fault_hook option;
    j_fd : Unix.file_descr;
    mutable j_appended : int;
    mutable j_seq : int;  (* append index fed to the fault hook *)
    mutable j_good : int;
        (* end offset of the last whole record this handle knows about; a
           failed or torn append leaves partial bytes past it, which the
           next append rolls back so later records stay replayable *)
    mutable j_closed : bool;
  }

  let m_appends = lazy (Obs.Metrics.counter "persist.appends")
  let m_replayed = lazy (Obs.Metrics.counter "persist.replayed")
  let m_recoveries = lazy (Obs.Metrics.counter "persist.recoveries")

  let read_file path =
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))

  (* Parse [data]; returns entries, the offset just past the last whole
     valid record, and the recovery summary. Everything after that
     offset is a torn or corrupt tail. *)
  let parse data =
    let len = String.length data in
    if len = 0 then
      Ok ([], header_len, { rec_entries = 0; rec_dropped_bytes = 0; rec_truncated = false })
    else if len < header_len || String.sub data 0 (String.length magic) <> magic then
      Error "not a gqed journal (bad magic)"
    else begin
      let vsn = data.[String.length magic] in
      if vsn <> version then
        Error
          (Printf.sprintf "unsupported journal version %d (expected %d)"
             (Char.code vsn) (Char.code version))
      else begin
        let fixed = 22 (* an empty record: 18 header bytes + crc *) in
        let entries = ref [] in
        let pos = ref header_len in
        let good = ref header_len in
        (try
           while !pos < len do
             let p = !pos in
             if len - p < fixed then raise Exit;
             if data.[p] <> record_tag then raise Exit;
             let key_len = read_be32 data (p + 1) in
             let payload_len = read_be32 data (p + 5) in
             if key_len < 0 || payload_len < 0 || key_len > max_field || payload_len > max_field then raise Exit;
             let body_len = 18 + key_len + payload_len in
             if len - p < body_len + 4 then raise Exit;
             let stored = Int32.of_int (read_be32 data (p + body_len)) in
             let computed = crc32_update 0l data p body_len in
             if Int32.logand stored 0xFFFFFFFFl <> Int32.logand computed 0xFFFFFFFFl then raise Exit;
             let e_decided = data.[p + 9] <> '\000' in
             let e_seconds = read_be64f data (p + 10) in
             let e_seconds = if Float.is_nan e_seconds then 0. else e_seconds in
             let e_key = String.sub data (p + 18) key_len in
             let e_payload = String.sub data (p + 18 + key_len) payload_len in
             entries := { e_key; e_decided; e_payload; e_seconds } :: !entries;
             pos := p + body_len + 4;
             good := !pos
           done
         with Exit -> ());
        let es = List.rev !entries in
        let dropped = len - !good in
        Ok
          ( es,
            !good,
            {
              rec_entries = List.length es;
              rec_dropped_bytes = dropped;
              rec_truncated = dropped > 0;
            } )
      end
    end

  let load path =
    Obs.Trace.with_span "persist.load" (fun () ->
        match read_file path with
        | exception Sys_error msg -> Error msg
        | data -> (
            match parse data with
            | Error msg -> Error msg
            | Ok (entries, _good, recovery) ->
                if Obs.on () then begin
                  Obs.Metrics.add (Lazy.force m_replayed) recovery.rec_entries;
                  if recovery.rec_truncated then begin
                    Obs.Metrics.incr (Lazy.force m_recoveries);
                    Obs.Trace.instant "persist.recovered"
                      ~args:
                        [ ("path", path); ("dropped_bytes", string_of_int recovery.rec_dropped_bytes) ]
                  end
                end;
                Ok (entries, recovery)))

  let fsync_fd fd = try Unix.fsync fd with Unix.Unix_error _ -> ()

  let encode_entries entries =
    let buf = Buffer.create 4096 in
    Buffer.add_string buf header;
    List.iter
      (fun e ->
        Buffer.add_string buf
          (encode_record ~seconds:e.e_seconds ~decided:e.e_decided ~key:e.e_key
             ~payload:e.e_payload ()))
      entries;
    Buffer.contents buf

  let open_append ?(sync = true) ?fault path =
    let fresh () =
      let fd = Unix.openfile path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
      let n = Unix.write_substring fd header 0 header_len in
      if n <> header_len then failwith "short header write";
      if sync then fsync_fd fd;
      fd
    in
    try
      if not (Sys.file_exists path) then
        let fd = fresh () in
        Ok
          ( { j_path = path; j_sync = sync; j_fault = fault; j_fd = fd;
              j_appended = 0; j_seq = 0; j_good = header_len; j_closed = false },
            [],
            { rec_entries = 0; rec_dropped_bytes = 0; rec_truncated = false } )
      else
        match read_file path with
        | exception Sys_error msg -> Error msg
        | data -> (
            match parse data with
            | Error msg -> Error msg
            | Ok (entries, good, recovery) ->
                let fd = Unix.openfile path [ Unix.O_WRONLY ] 0o644 in
                (* A 0-byte file is a valid empty journal but has no
                   header yet; write one so appends are parseable. *)
                if String.length data = 0 then begin
                  let n = Unix.write_substring fd header 0 header_len in
                  if n <> header_len then failwith "short header write"
                end
                else if recovery.rec_truncated then begin
                  (* Cut the torn/corrupt tail on disk so it is not
                     carried forward under new records. *)
                  Unix.ftruncate fd good;
                  if Obs.on () then
                    Obs.Trace.instant "persist.truncated"
                      ~args:[ ("path", path); ("at", string_of_int good) ]
                end;
                ignore (Unix.lseek fd 0 Unix.SEEK_END);
                if sync then fsync_fd fd;
                Ok
                  ( { j_path = path; j_sync = sync; j_fault = fault; j_fd = fd;
                      j_appended = 0; j_seq = 0; j_good = good; j_closed = false },
                    entries,
                    recovery ))
    with
    | Unix.Unix_error (e, _, _) -> Error (Printf.sprintf "%s: %s" path (Unix.error_message e))
    | Failure msg | Sys_error msg -> Error msg

  let write_all fd s n =
    let pos = ref 0 in
    while !pos < n do
      pos := !pos + Unix.write_substring fd s !pos (n - !pos)
    done

  let append ?(seconds = 0.) t ~decided ~key ~payload () =
    if t.j_closed then invalid_arg "Persist.Journal.append: closed";
    let rec_bytes = encode_record ~seconds ~decided ~key ~payload () in
    let n = String.length rec_bytes in
    let seq = t.j_seq in
    t.j_seq <- seq + 1;
    (* Roll back partial bytes a previous failed or torn append left
       behind, so this record lands at the end of the valid prefix
       and stays replayable. (A real SIGKILL gets no such repair —
       load/open_append recover the file then.) *)
    let file_end = Unix.lseek t.j_fd 0 Unix.SEEK_END in
    if file_end > t.j_good then begin
      Unix.ftruncate t.j_fd t.j_good;
      ignore (Unix.lseek t.j_fd 0 Unix.SEEK_END)
    end;
    (match t.j_fault with
    | Some hook -> (
        match hook seq with
        | None -> ()
        | Some (Short_write k) ->
            write_all t.j_fd rec_bytes (min k n);
            if t.j_sync then fsync_fd t.j_fd;
            raise (Injected_fault (Printf.sprintf "short write (%d of %d bytes)" (min k n) n))
        | Some Enospc -> raise (Injected_fault "ENOSPC")
        | Some (Torn k) ->
            (* Kill-mid-append: partial bytes land, nobody sees an
               error. The record is lost but the journal stays
               recoverable. *)
            write_all t.j_fd rec_bytes (min k n);
            if t.j_sync then fsync_fd t.j_fd;
            raise Exit)
    | None -> ());
    write_all t.j_fd rec_bytes n;
    if t.j_sync then fsync_fd t.j_fd;
    t.j_good <- t.j_good + n;
    t.j_appended <- t.j_appended + 1;
    if Obs.on () then Obs.Metrics.incr (Lazy.force m_appends)

  let append ?seconds t ~decided ~key ~payload =
    try append ?seconds t ~decided ~key ~payload () with Exit -> (* Torn: silent *) ()

  let appended t = t.j_appended

  let close t =
    if not t.j_closed then begin
      t.j_closed <- true;
      if t.j_sync then fsync_fd t.j_fd;
      (try Unix.close t.j_fd with Unix.Unix_error _ -> ())
    end

  let chop ?(torn_bytes = 0) ~keep path =
    match read_file path with
    | exception Sys_error msg -> failwith msg
    | data ->
        (match parse data with
        | Error msg -> failwith msg
        | Ok (entries, _good, _rec) ->
            let kept = List.filteri (fun i _ -> i < keep) entries in
            let buf = Buffer.create 4096 in
            Buffer.add_string buf (encode_entries kept);
            if torn_bytes > 0 then begin
              (* A partial record prefix: plausible tag and lengths, body
                 cut off — exactly what a kill mid-[write] leaves. *)
              let fake = encode_record ~decided:true ~key:"torn" ~payload:(String.make 64 'x') () in
              Buffer.add_string buf (String.sub fake 0 (min torn_bytes (String.length fake)))
            end;
            let oc = open_out_bin path in
            Fun.protect
              ~finally:(fun () -> close_out_noerr oc)
              (fun () -> output_string oc (Buffer.contents buf)))
end

module Campaign = struct
  type stats = {
    c_loaded : int;
    c_undecided_loaded : int;
    c_hits : int;
    c_appended : int;
    c_write_errors : int;
    c_recovered_bytes : int;
  }

  type t = {
    ca_journal : Journal.t;
    ca_path : string;
    (* last-write-wins; only decided payloads are stored *)
    ca_index : (string, string) Hashtbl.t;
    (* last positive wall-clock seconds per key, decided or not: the
       hardness signal the distributed scheduler sorts its queue by *)
    ca_seconds : (string, float) Hashtbl.t;
    mutable ca_stats : stats;
  }

  let m_hits = lazy (Obs.Metrics.counter "persist.skips")
  let m_write_errors = lazy (Obs.Metrics.counter "persist.write_errors")

  let start ?sync ?fault ~resume ~force path =
    if resume && not (Sys.file_exists path) then
      Error
        (Printf.sprintf
           "--resume: no journal at %s (start a fresh campaign without --resume first)" path)
    else if (not resume) && Sys.file_exists path && not force then
      Error
        (Printf.sprintf
           "refusing to overwrite existing journal %s (use --resume to continue it, or --force to start over)"
           path)
    else begin
      if (not resume) && Sys.file_exists path then Sys.remove path;
      match Journal.open_append ?sync ?fault path with
      | Error _ as e -> e
      | Ok (j, entries, recovery) ->
          let index = Hashtbl.create 256 in
          let seconds = Hashtbl.create 256 in
          let undecided = ref 0 in
          List.iter
            (fun e ->
              if e.Journal.e_seconds > 0. then
                Hashtbl.replace seconds e.Journal.e_key e.Journal.e_seconds;
              if e.Journal.e_decided then Hashtbl.replace index e.Journal.e_key e.Journal.e_payload
              else begin
                incr undecided;
                (* Strict last-write-wins: a later Unknown unindexes the
                   key. An undecided record after a decided one means
                   something downgraded the answer (e.g. payload drift
                   forced a budgeted re-run); re-running is never wrong,
                   trusting a superseded record could be surprising. *)
                Hashtbl.remove index e.Journal.e_key
              end)
            entries;
          Ok
            {
              ca_journal = j;
              ca_path = path;
              ca_index = index;
              ca_seconds = seconds;
              ca_stats =
                {
                  c_loaded = recovery.Journal.rec_entries;
                  c_undecided_loaded = !undecided;
                  c_hits = 0;
                  c_appended = 0;
                  c_write_errors = 0;
                  c_recovered_bytes = recovery.Journal.rec_dropped_bytes;
                };
            }
    end

  let find_decided t key =
    match Hashtbl.find_opt t.ca_index key with
    | Some payload ->
        t.ca_stats <- { t.ca_stats with c_hits = t.ca_stats.c_hits + 1 };
        if Obs.on () then Obs.Metrics.incr (Lazy.force m_hits);
        Some payload
    | None -> None

  let last_seconds t key = Hashtbl.find_opt t.ca_seconds key

  let record ?(seconds = 0.) t ~decided ~key ~payload =
    let ok =
      try
        Journal.append ~seconds t.ca_journal ~decided ~key ~payload;
        true
      with Injected_fault _ | Sys_error _ | Unix.Unix_error _ ->
        (* Degraded durability: the verdict stands, the key re-runs on
           resume. Never let journal I/O poison a verdict path. *)
        false
    in
    if seconds > 0. then Hashtbl.replace t.ca_seconds key seconds;
    if decided then Hashtbl.replace t.ca_index key payload
    else Hashtbl.remove t.ca_index key;
    if ok then t.ca_stats <- { t.ca_stats with c_appended = t.ca_stats.c_appended + 1 }
    else begin
      t.ca_stats <- { t.ca_stats with c_write_errors = t.ca_stats.c_write_errors + 1 };
      if Obs.on () then Obs.Metrics.incr (Lazy.force m_write_errors)
    end

  let stats t = t.ca_stats

  let path t = t.ca_path
  let close t = Journal.close t.ca_journal
end
