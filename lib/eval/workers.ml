(* {1 Frames} *)

(* One envelope for every fleet: both ends of a pipe are the same binary,
   so the magic and version only guard against a stale reader. Version 2
   is the sync-frame version that first carried a metrics snapshot. *)
let magic = "pfsync"
let version = 2

(* Frames cross a pipe, not a filesystem: anything claiming to be larger
   than this is a corrupted length prefix, not a real frame. *)
let max_body = 1 lsl 28

let encode_body v =
  let payload = Marshal.to_string v [] in
  let b = Buffer.create (String.length payload + 32) in
  Buffer.add_string b magic;
  Buffer.add_char b (Char.chr version);
  Buffer.add_string b (Digest.string payload);
  Buffer.add_string b payload;
  Buffer.contents b

let u32 n =
  let b = Bytes.create 4 in
  Bytes.set_int32_be b 0 (Int32.of_int n);
  b

let encode v =
  let body = encode_body v in
  Bytes.unsafe_to_string (u32 (String.length body)) ^ body

let decode_body s =
  let mlen = String.length magic in
  let hlen = mlen + 1 + 16 in
  if String.length s < hlen then Error "frame too short to be valid"
  else if String.sub s 0 mlen <> magic then Error "not a pfuzzer frame (bad magic)"
  else
    let digest = String.sub s (mlen + 1) 16 in
    let payload = String.sub s hlen (String.length s - hlen) in
    if not (String.equal (Digest.string payload) digest) then
      Error "frame corrupted (payload digest mismatch)"
    else
      let v = Char.code s.[mlen] in
      if v <> version then
        Error
          (Printf.sprintf "frame version mismatch (frame has v%d, this build reads v%d)" v
             version)
      else
        match Marshal.from_string payload 0 with
        | f -> Ok f
        | exception _ -> Error "frame payload unreadable (truncated or incompatible)"

module Decoder = struct
  (* Unread bytes are [buf.[off .. len - 1]]. A feed compacts them to the
     front only when the chunk does not fit, and grows [buf] by doubling,
     so a frame of any size costs amortised constant work per byte. *)
  type 'a t = {
    mutable buf : bytes;
    mutable off : int;
    mutable len : int;
    mutable dead : bool;
  }

  let create () = { buf = Bytes.create 65536; off = 0; len = 0; dead = false }

  let feed d chunk n =
    if not d.dead then begin
      if d.len + n > Bytes.length d.buf then begin
        let keep = d.len - d.off in
        let dst =
          if keep + n <= Bytes.length d.buf then d.buf
          else Bytes.create (max (keep + n) (2 * Bytes.length d.buf))
        in
        Bytes.blit d.buf d.off dst 0 keep;
        d.buf <- dst;
        d.off <- 0;
        d.len <- keep
      end;
      Bytes.blit chunk 0 d.buf d.len n;
      d.len <- d.len + n
    end

  let next d =
    let avail = d.len - d.off in
    if d.dead || avail < 4 then `Await
    else
      let n = Int32.to_int (Bytes.get_int32_be d.buf d.off) land 0xffff_ffff in
      if n > max_body then begin
        (* A garbage length prefix leaves nothing to resynchronise on. *)
        d.dead <- true;
        `Reject (Printf.sprintf "frame length implausible (%d bytes)" n)
      end
      else if avail < 4 + n then `Await
      else begin
        let body = Bytes.sub_string d.buf (d.off + 4) n in
        d.off <- d.off + 4 + n;
        match decode_body body with
        | Ok f -> `Frame f
        | Error e -> `Reject e
      end

  let finish d =
    let avail = d.len - d.off in
    if d.dead || avail = 0 then None
    else
      Some
        (Printf.sprintf "truncated frame (%s)"
           (if avail < 4 then "incomplete length prefix"
            else "body shorter than declared length"))
end

(* {1 Fleets} *)

type verdict = [ `Progress | `Done | `Failed of string ]

let status_string = function
  | Unix.WEXITED c -> Printf.sprintf "exit:%d" c
  | Unix.WSIGNALED s ->
    (* OCaml numbers signals internally; report the conventional POSIX
       number for the ones a fleet can realistically meet. *)
    let posix = [ (Sys.sigkill, 9); (Sys.sigterm, 15); (Sys.sigint, 2); (Sys.sigsegv, 11); (Sys.sigpipe, 13) ] in
    Printf.sprintf "signal:%d" (Option.value (List.assoc_opt s posix) ~default:(abs s))
  | Unix.WSTOPPED s -> Printf.sprintf "stopped:%d" s

let rec eintr f x =
  try f x with Unix.Unix_error (Unix.EINTR, _, _) -> eintr f x

let rec write_all fd b off len =
  if len > 0 then
    let n = eintr (Unix.write fd b off) len in
    write_all fd b (off + n) (len - n)

(* [None] at EOF. An index is written by one 4-byte [write], far below
   PIPE_BUF, so it arrives whole. *)
let read_index fd =
  let b = Bytes.create 4 in
  match eintr (Unix.read fd b 0) 4 with
  | 4 -> Some (Int32.to_int (Bytes.get_int32_be b 0))
  | _ -> None

type 'm worker = {
  id : int;
  pid : int;
  results : Unix.file_descr;  (** child → coordinator frames *)
  mutable tasks : Unix.file_descr option;
      (** coordinator → child indices; [None] once closed *)
  dec : 'm Decoder.t;
  mutable current : int option;
}

let close_quietly fd = try Unix.close fd with Unix.Unix_error _ -> ()

(* One round: fork the fleet, deal [tasks], supervise until every
   worker has been reaped. Returns the failed and lost tasks. *)
let round ~next_id ~on_spawn ~on_reject ~on_exit ~workers ~work ~on_message tasks =
  let queue = Queue.of_seq (List.to_seq tasks) in
  let failed = ref [] in
  let stop w =
    Option.iter close_quietly w.tasks;
    w.tasks <- None
  in
  (* The free worker gets the next task, or EOF on its task pipe when
     none is left (or it may take no more), and then exits. *)
  let deal w =
    w.current <- None;
    match w.tasks with
    | None -> ()
    | Some fd -> (
      match Queue.take_opt queue with
      | None -> stop w
      | Some t -> (
        w.current <- Some t;
        (* EPIPE: the worker is already dead; its EOF will report the
           task lost. *)
        try write_all fd (u32 t) 0 4 with Unix.Unix_error (Unix.EPIPE, _, _) -> stop w))
  in
  let spawn fleet =
    let id = !next_id in
    incr next_id;
    let rr, rw = Unix.pipe () in
    let tr, tw = Unix.pipe () in
    flush_all ();
    match Unix.fork () with
    | 0 ->
      (try
         Unix.close rr;
         Unix.close tw;
         (* Other workers' coordinator-side ends: holding a copy of a
            sibling's task pipe would keep it from ever seeing EOF. *)
         List.iter
           (fun w ->
             close_quietly w.results;
             Option.iter close_quietly w.tasks)
           fleet;
         let send m =
           let s = encode m in
           write_all rw (Bytes.unsafe_of_string s) 0 (String.length s)
         in
         let rec loop () =
           match read_index tr with
           | None -> ()
           | Some t ->
             work t send;
             loop ()
         in
         loop ();
         Unix._exit 0
       with _ -> Unix._exit 3)
    | pid ->
      Unix.close rw;
      Unix.close tr;
      let w =
        { id; pid; results = rr; tasks = Some tw; dec = Decoder.create (); current = None }
      in
      on_spawn ~worker:id ~pid;
      deal w;
      w :: fleet
  in
  let rec drain w =
    match Decoder.next w.dec with
    | `Await -> ()
    | `Reject reason ->
      on_reject ~worker:w.id reason;
      stop w;
      drain w
    | `Frame m ->
      (match w.current with
       | None -> on_reject ~worker:w.id "frame outside any task"
       | Some task -> (
         match on_message ~worker:w.id ~task m with
         | `Progress -> ()
         | `Done -> deal w
         | `Failed reason ->
           failed := (task, reason) :: !failed;
           deal w));
      drain w
  in
  let reap w =
    Option.iter (fun reason -> on_reject ~worker:w.id reason) (Decoder.finish w.dec);
    Unix.close w.results;
    stop w;
    let status = status_string (snd (eintr (Unix.waitpid []) w.pid)) in
    Option.iter
      (fun t ->
        failed :=
          (t, Printf.sprintf "worker %d ended (%s) without finishing it" w.id status)
          :: !failed)
      w.current;
    on_exit ~worker:w.id ~status ~lost:w.current
  in
  let buf = Bytes.create 65536 in
  (* Read every live pipe until all workers reach EOF; frames arrive in
     whatever order the kernel delivers them. *)
  let rec supervise = function
    | [] -> ()
    | live -> (
      match Unix.select (List.map (fun w -> w.results) live) [] [] (-1.0) with
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> supervise live
      | ready, _, _ ->
        supervise
          (List.filter
             (fun w ->
               (not (List.mem w.results ready))
               ||
               match eintr (Unix.read w.results buf 0) (Bytes.length buf) with
               | 0 ->
                 reap w;
                 false
               | k ->
                 Decoder.feed w.dec buf k;
                 drain w;
                 true)
             live))
  in
  (* A worker that dies before its next deal must not take the
     coordinator with it: its task pipe then fails with EPIPE. *)
  let sigpipe = Sys.signal Sys.sigpipe Sys.Signal_ignore in
  Fun.protect
    ~finally:(fun () -> Sys.set_signal Sys.sigpipe sigpipe)
    (fun () ->
      let rec spawn_all k fleet = if k = 0 then fleet else spawn_all (k - 1) (spawn fleet) in
      supervise (List.rev (spawn_all (min (max 1 workers) (List.length tasks)) [])));
  (* Tasks never dealt: every worker stopped taking work early. *)
  Queue.iter (fun t -> failed := (t, "no worker left to run it") :: !failed) queue;
  List.sort compare !failed

let rounds ~retries ~on_retry round tasks =
  let rec go attempt tasks =
    match round tasks with
    | failed when failed = [] || attempt >= retries -> failed
    | failed ->
      List.iter (fun (task, reason) -> on_retry ~task ~attempt:(attempt + 1) reason) failed;
      go (attempt + 1) (List.map fst failed)
  in
  go 0 tasks

let ignore_retry ~task:_ ~attempt:_ _ = ()

let run ?(retries = 2) ?(on_spawn = fun ~worker:_ ~pid:_ -> ())
    ?(on_reject = fun ~worker:_ _ -> ()) ?(on_exit = fun ~worker:_ ~status:_ ~lost:_ -> ())
    ?(on_retry = ignore_retry) ~workers ~work ~on_message tasks =
  let next_id = ref 0 in
  rounds ~retries ~on_retry
    (round ~next_id ~on_spawn ~on_reject ~on_exit ~workers ~work ~on_message)
    tasks

let map ?(workers = 1) ?(retries = 2) ?(on_retry = ignore_retry) f items =
  let input = Array.of_list items in
  let results = Array.make (Array.length input) (Error "not run") in
  let attempt i = match f input.(i) with v -> Ok v | exception e -> Error (Printexc.to_string e) in
  let settle i = function
    | Ok _ as r ->
      results.(i) <- r;
      `Done
    | Error reason -> `Failed reason
  in
  let tasks = List.init (Array.length input) Fun.id in
  let unfinished =
    if workers <= 1 then
      rounds ~retries ~on_retry
        (List.filter_map (fun i ->
             match settle i (attempt i) with
             | `Failed reason -> Some (i, reason)
             | `Done -> None))
        tasks
    else
      run ~retries ~on_retry ~workers
        ~work:(fun i send -> send (attempt i))
        ~on_message:(fun ~worker:_ ~task r -> settle task r)
        tasks
  in
  List.iter (fun (i, reason) -> results.(i) <- Error reason) unfinished;
  Array.to_list results
