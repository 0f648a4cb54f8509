let c_planned = Obs.counter "shard.planned"
let c_merged = Obs.counter "shard.merged"
let c_duplicates = Obs.counter "shard.duplicates"

let owner ~shards ~total i =
  if total = 0 then 0 else i * shards / total

let plan ~shards keys =
  if shards < 1 then invalid_arg "Shard.plan: shards < 1";
  let sorted = List.sort String.compare keys in
  let total = List.length sorted in
  let buckets = Array.make shards [] in
  List.iteri
    (fun i key ->
      Obs.incr c_planned;
      let s = owner ~shards ~total i in
      buckets.(s) <- key :: buckets.(s))
    sorted;
  Array.map List.rev buckets

type merge_stats = {
  journals : int;
  entries : int;
  duplicates : int;
  quarantined : int;
}

let fingerprint_of_key key =
  match String.split_on_char '|' key with
  | [ _digest; lib; config; _point ] -> Ok (lib ^ "|" ^ config)
  | _ -> Error (Printf.sprintf "malformed cache key %S" key)

(* Fold one journal's records last-write-wins by key, preserving first-
   appearance order so error messages are stable. *)
let fold_journal records =
  let tbl = Hashtbl.create 64 in
  let order = ref [] in
  let dups = ref 0 in
  List.iter
    (fun (key, summary) ->
      if Hashtbl.mem tbl key then incr dups else order := key :: !order;
      Hashtbl.replace tbl key summary)
    records;
  (List.rev_map (fun k -> (k, Hashtbl.find tbl k)) !order, !dups)

let merge_journals ~inputs ~output =
  match inputs with
  | [] -> Error "merge-journals: no input journals"
  | inputs -> (
    let exception Bad of string in
    try
      let merged = Hashtbl.create 256 in
      let fingerprint = ref None in
      let quarantined = ref 0 in
      let duplicates = ref 0 in
      List.iter
        (fun path ->
          match Journal.load ~path with
          | Error e -> raise (Bad e)
          | Ok (records, q) ->
            quarantined := !quarantined + q;
            let folded, dups = fold_journal records in
            duplicates := !duplicates + dups;
            List.iter
              (fun (key, summary) ->
                (match fingerprint_of_key key with
                | Error e -> raise (Bad (Printf.sprintf "%s: %s" path e))
                | Ok fp -> (
                  match !fingerprint with
                  | None -> fingerprint := Some fp
                  | Some fp0 when fp0 = fp -> ()
                  | Some fp0 ->
                    raise
                      (Bad
                         (Printf.sprintf
                            "%s: config fingerprint %S disagrees with %S — journals \
                             come from different sweep configurations"
                            path fp fp0))));
                match Hashtbl.find_opt merged key with
                | Some (prev_path, _) ->
                  raise
                    (Bad
                       (Printf.sprintf
                          "%s: key %S already recorded by %s — shard journals must be \
                           disjoint"
                          path key prev_path))
                | None -> Hashtbl.replace merged key (path, summary))
              folded)
        inputs;
      let keys = Hashtbl.fold (fun k _ acc -> k :: acc) merged [] in
      let keys = List.sort String.compare keys in
      let w = Journal.start ~path:output ~fresh:true in
      Fun.protect
        ~finally:(fun () -> Journal.close w)
        (fun () ->
          Journal.record_all w
            (List.map (fun key -> (key, snd (Hashtbl.find merged key))) keys);
          Obs.add c_merged (List.length keys));
      Obs.add c_duplicates !duplicates;
      Ok
        {
          journals = List.length inputs;
          entries = List.length keys;
          duplicates = !duplicates;
          quarantined = !quarantined;
        }
    with
    | Bad e -> Error e
    | Unix.Unix_error (err, fn, arg) ->
      Error (Printf.sprintf "%s: %s(%s): %s" output fn arg (Unix.error_message err)))
