(* One `rsj serve` child per set-up. The daemon starts with every
   inherited RSJ_* variable removed, so a stray RSJ_DRAW, RSJ_DATAPLANE,
   RSJ_CHUNK_SIZE, RSJ_CACHE_BYTES, RSJ_TRACE or RSJ_LOG cannot change
   what is measured; OCAMLRUNPARAM goes too, so the GC runs with its
   defaults.

   The one variable set is the quality monitor's lifetime false-alert
   budget. Its default (0.01) holds per stream, and a run serves dozens
   of streams (one per relation version, strategy and semantics), so
   unbiased runs would latch quality_alert=true in a sizeable share of
   runs. 1e-6 per stream matches the significance of the benchmark's own
   law tests; a biased sampler still trips it within a few windows. *)

module Client = Rsj_server.Client
module Clock = Rsj_obs.Clock

type t = { pid : int; client : Client.t }

(* Every daemon not yet reaped, so an exit through an exception or a
   signal still stops them. *)
let live : int list ref = ref []

let clean_env () =
  Unix.environment () |> Array.to_list
  |> List.filter (fun kv ->
         not (String.starts_with ~prefix:"RSJ_" kv || String.starts_with ~prefix:"OCAMLRUNPARAM=" kv))
  |> List.cons "RSJ_QUALITY_ALPHA=1e-6"
  |> Array.of_list

let reap ?(grace = 10.) pid =
  let deadline = Clock.now_s () +. grace in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ when Clock.now_s () < deadline ->
        Unix.sleepf 0.01;
        wait ()
    | 0, _ ->
        (try Unix.kill pid Sys.sigkill with Unix.Unix_error (_, _, _) -> ());
        ignore (Unix.waitpid [] pid)
    | _ -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
    | exception Unix.Unix_error (_, _, _) -> ()
  in
  wait ();
  live := List.filter (( <> ) pid) !live

let kill pid =
  (try Unix.kill pid Sys.sigterm with Unix.Unix_error (_, _, _) -> ());
  reap ~grace:5. pid

let () = at_exit (fun () -> List.iter kill !live)

(* Exec the daemon on [sock] (a path relative to the working directory)
   and connect once it listens. *)
let start ~rsj ~sock ~log =
  (try Sys.remove sock with Sys_error _ -> ());
  let fd = Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ] 0o644 in
  let pid =
    Fun.protect
      ~finally:(fun () -> Unix.close fd)
      (fun () ->
        Unix.create_process_env rsj [| rsj; "serve"; "--socket"; sock |] (clean_env ()) Unix.stdin fd
          fd)
  in
  live := pid :: !live;
  let deadline = Clock.now_s () +. 30. in
  let rec connect () =
    match Client.connect (Rsj_server.Server.Unix_path sock) with
    | c -> c
    | exception Failure msg ->
        (match Unix.waitpid [ Unix.WNOHANG ] pid with
        | 0, _ -> ()
        | _ ->
            live := List.filter (( <> ) pid) !live;
            failwith ("rsj serve exited before listening; see " ^ log));
        if Clock.now_s () > deadline then begin
          kill pid;
          failwith ("rsj serve did not start listening: " ^ msg)
        end;
        Unix.sleepf 0.002;
        connect ()
  in
  { pid; client = connect () }

(* Peak resident set (VmHWM) of the daemon, in MB. *)
let peak_rss_mb t =
  let ic = open_in (Printf.sprintf "/proc/%d/status" t.pid) in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec find () =
        match input_line ic with
        | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
            Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB" (fun kb ->
                float_of_int kb /. 1024.)
        | _ -> find ()
        | exception End_of_file -> failwith "no VmHWM line in /proc status"
      in
      find ())

let stop t =
  (try ignore (Client.shutdown t.client) with Failure _ | Unix.Unix_error (_, _, _) -> ());
  Client.close t.client;
  reap t.pid
