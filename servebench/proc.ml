(* The server under test: spawn, evidence read from outside it, stop. *)

module Json = Estima_service.Json

type t = { pid : int; port : int; store : string; log : string }

let listening_prefix = "estima_serve: listening on "

let read_file path =
  match open_in_bin path with
  | exception Sys_error _ -> ""
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () -> In_channel.input_all ic)

let listening_port log =
  String.split_on_char '\n' (read_file log)
  |> List.find_map (fun line ->
         if String.starts_with ~prefix:listening_prefix line then
           match String.rindex_opt line ':' with
           | Some i -> int_of_string_opt (String.sub line (i + 1) (String.length line - i - 1))
           | None -> None
         else None)

let rec remove_tree path =
  match Sys.is_directory path with
  | true ->
      Array.iter (fun f -> remove_tree (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

(* The server's environment is ours without ESTIMA_STORE, so its
   measurement store is only the fresh directory given here. *)
let environment () =
  Unix.environment () |> Array.to_list
  |> List.filter (fun kv -> not (String.starts_with ~prefix:"ESTIMA_STORE=" kv))
  |> Array.of_list

(* Pool domains: the benchmark host has two cores. *)
let jobs = 2

(* Start [exe --tcp 127.0.0.1:0 --jobs 2 --store DIR] with a fresh empty
   store directory under [dir]; returns once the listening line names
   the kernel-assigned port. *)
let spawn ~exe ~dir ~id =
  let store = Filename.concat dir (Printf.sprintf "store-%d" id) in
  let log = Filename.concat dir (Printf.sprintf "server-%d.log" id) in
  remove_tree store;
  Sys.mkdir store 0o755;
  let log_fd = Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let argv =
    [| exe; "--tcp"; "127.0.0.1:0"; "--jobs"; string_of_int jobs; "--store"; store |]
  in
  let pid = Unix.create_process_env exe argv (environment ()) null null log_fd in
  Unix.close null;
  Unix.close log_fd;
  let deadline = Unix.gettimeofday () +. 30.0 in
  let rec wait () =
    match listening_port log with
    | Some port -> { pid; port; store; log }
    | None ->
        let exited, _ = Unix.waitpid [ Unix.WNOHANG ] pid in
        if exited <> 0 || Unix.gettimeofday () > deadline then begin
          if exited = 0 then begin
            Unix.kill pid Sys.sigkill;
            ignore (Unix.waitpid [] pid)
          end;
          failwith ("servebench: estima_serve did not start: " ^ read_file log)
        end;
        Unix.sleepf 0.001;
        wait ()
  in
  wait ()

(* One request on a fresh connection; returns its response line. *)
let call port line =
  let fd = Client.connect port in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () -> Client.roundtrip fd (Buffer.create 4096) line)

(* The server's counters, from a [metrics] op on a fresh connection. *)
let counters t =
  let response = call t.port {|{"id":"servebench","op":"metrics"}|} in
  match Result.map (Json.member "metrics") (Json.parse response) with
  | Ok (Some (Json.String dump)) ->
      String.split_on_char '\n' dump
      |> List.filter_map (fun line ->
             match String.split_on_char ' ' line with
             | [ "counter"; name; value ] -> Some (name, int_of_string value)
             | _ -> None)
  | _ -> failwith ("servebench: unexpected metrics response: " ^ response)

let counter counters name = Option.value ~default:0 (List.assoc_opt name counters)

(* Server user+system CPU seconds, from /proc/PID/stat (fields 14 and 15,
   in clock ticks of 1/100 s, the Linux USER_HZ). *)
let cpu_s t =
  let stat = read_file (Printf.sprintf "/proc/%d/stat" t.pid) in
  let after = String.sub stat (String.rindex stat ')' + 2) (String.length stat - String.rindex stat ')' - 2) in
  let fields = Array.of_list (String.split_on_char ' ' after) in
  (* [fields.(0)] is field 3, the process state. *)
  float_of_string (fields.(11)) /. 100.0 +. (float_of_string fields.(12) /. 100.0)

(* Peak resident set (VmHWM) in MiB. *)
let peak_rss_mib t =
  read_file (Printf.sprintf "/proc/%d/status" t.pid)
  |> String.split_on_char '\n'
  |> List.find_map (fun line ->
         if String.starts_with ~prefix:"VmHWM:" line then
           Scanf.sscanf line "VmHWM: %d kB" (fun kb -> Some (float_of_int kb /. 1024.0))
         else None)
  |> Option.get

(* Ask the server to shut down and wait for it; kill it if it will not. *)
let stop t =
  (try ignore (call t.port {|{"id":0,"op":"shutdown"}|}) with Unix.Unix_error _ | Failure _ -> ());
  let deadline = Unix.gettimeofday () +. 10.0 in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] t.pid with
    | 0, _ when Unix.gettimeofday () < deadline ->
        Unix.sleepf 0.01;
        wait ()
    | 0, _ ->
        Unix.kill t.pid Sys.sigkill;
        ignore (Unix.waitpid [] t.pid)
    | _ -> ()
  in
  wait ();
  remove_tree t.store
