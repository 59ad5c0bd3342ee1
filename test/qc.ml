(* [QCheck_alcotest.to_alcotest] with the same seed rule (QCHECK_SEED, or
   a fresh random seed shared by every property) but reporting the seed
   on stderr. The default prints it on stdout when the suites are built,
   at module initialisation; this binary doubles as a dist worker, whose
   stdout is the frame channel, so a stray line there is a worker crash. *)
let seed =
  lazy
    (let s =
       match Option.bind (Sys.getenv_opt "QCHECK_SEED") int_of_string_opt with
       | Some s -> s
       | None ->
           Random.self_init ();
           Random.int 1_000_000_000
     in
     Printf.eprintf "qcheck random seed: %d\n%!" s;
     s)

let to_alcotest t =
  QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| Lazy.force seed |]) t
