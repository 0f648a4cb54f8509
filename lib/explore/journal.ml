let c_records = Obs.counter "explore.journal.records"
let c_quarantined = Obs.counter "explore.journal.quarantined"

(* Short alias kept in lockstep with the legacy counter: the serve daemon's
   --stats reads [journal.quarantined]; the bench baseline gate pins the
   long name, so both are bumped. *)
let c_quarantined_short = Obs.counter "journal.quarantined"

let quarantine_line () =
  Obs.incr c_quarantined;
  Obs.incr c_quarantined_short

(* A torn *final* record — the process died mid-append, between the write
   and the newline/fsync — is the expected crash signature, not corruption:
   it is salvaged (valid prefix kept, tail dropped) rather than
   quarantined, so resume re-evaluates only the lost tail point. *)
let c_salvaged = Obs.counter "journal.salvaged"

let magic = "slackhls-explore-journal v1"

let read_all path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let salvage ~path =
  if not (Sys.file_exists path) then 0
  else
    match read_all path with
    | exception Sys_error _ -> 0
    | s ->
      let n = String.length s in
      if n = 0 || s.[n - 1] = '\n' then 0
      else begin
        (* Unterminated tail: truncate back to the last record boundary so
           a subsequent append cannot splice two records together. *)
        let keep =
          match String.rindex_opt s '\n' with Some i -> i + 1 | None -> 0
        in
        Unix.truncate path keep;
        Obs.incr c_salvaged;
        n - keep
      end

type writer = {
  oc : out_channel;
  fd : Unix.file_descr;
  lock : Mutex.t;  (* pool workers append concurrently *)
  mutable closed : bool;
}

let start ~path ~fresh =
  (* Appending after a crash: drop any torn final record first, or the
     next append would splice onto it and corrupt two records. *)
  if not fresh then ignore (salvage ~path);
  let fd =
    Unix.openfile path
      (Unix.O_WRONLY :: Unix.O_CREAT :: Unix.O_APPEND
      :: (if fresh then [ Unix.O_TRUNC ] else []))
      0o644
  in
  let oc = Unix.out_channel_of_descr fd in
  if (Unix.fstat fd).Unix.st_size = 0 then begin
    output_string oc magic;
    output_char oc '\n';
    flush oc;
    Unix.fsync fd
  end;
  { oc; fd; lock = Mutex.create (); closed = false }

let record_all w records =
  Mutex.lock w.lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock w.lock)
    (fun () ->
      if not w.closed then begin
        List.iter
          (fun (key, summary) ->
            output_string w.oc (Eval_cache.entry_line key summary);
            output_char w.oc '\n')
          records;
        flush w.oc;
        (* The fsync is the crash-containment contract: once this returns,
           a kill -9 cannot lose these points. *)
        Unix.fsync w.fd;
        Obs.add c_records (List.length records)
      end)

let record w ~key summary = record_all w [ (key, summary) ]

let close w =
  Mutex.lock w.lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock w.lock)
    (fun () ->
      if not w.closed then begin
        w.closed <- true;
        (* close_out flushes and closes the underlying fd. *)
        close_out_noerr w.oc
      end)

let load ~path =
  if not (Sys.file_exists path) then Ok ([], 0)
  else
    (* [open_in] on e.g. a directory succeeds on Linux; the Sys_error only
       surfaces at the first read.  Reading the whole file (rather than
       line-by-line) lets us see whether the final record has its
       terminating newline — [input_line] cannot. *)
    match read_all path with
    | exception Sys_error m -> Error (Printf.sprintf "%s: %s" path m)
    | "" ->
      (* A zero-byte journal is what a kill leaves when it lands between
         openfile and the header fsync: nothing was recorded, so there is
         nothing to resume — not an error. *)
      Ok ([], 0)
    | contents -> (
      let terminated = contents.[String.length contents - 1] = '\n' in
      let lines =
        let ls = String.split_on_char '\n' contents in
        (* split_on_char leaves one empty element after a trailing '\n'. *)
        if terminated then
          let n = List.length ls - 1 in
          List.filteri (fun i _ -> i < n) ls
        else ls
      in
      match lines with
      | [] -> Ok ([], 0)
      | first :: rest when first <> magic ->
        (* Same crash race, one write later: a torn header (a strict prefix
           of the magic) means the journal never recorded a point.
           Anything else is a foreign file — refuse to resume from it. *)
        if rest = []
           && String.length first < String.length magic
           && String.starts_with ~prefix:first magic
        then begin
          quarantine_line ();
          Ok ([], 1)
        end
        else Error (Printf.sprintf "%s: not a %S file" path magic)
      | _ :: rest ->
        let quarantined = ref 0 in
        let rec go acc = function
          | [] -> List.rev acc
          | [ tail ] when not terminated ->
            (* Torn final record from a crash mid-append: salvage the valid
               prefix; only this one point is re-evaluated on resume.  The
               tail is dropped even if it happens to parse — without its
               newline the flush may have stopped mid-field. *)
            if tail <> "" then Obs.incr c_salvaged;
            List.rev acc
          | "" :: tl -> go acc tl
          | ln :: tl -> (
            match Eval_cache.parse_line ln with
            | Some entry -> go (entry :: acc) tl
            | None ->
              (* Mid-file garbage cannot come from a clean crash: this is
                 real corruption, quarantined. *)
              incr quarantined;
              quarantine_line ();
              go acc tl)
        in
        Ok (go [] rest, !quarantined))
