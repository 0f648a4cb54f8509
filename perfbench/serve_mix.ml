(* serve-mix: a closed loop of 2 client connections to one
   `hlsc serve --jobs 2 --journal ...` daemon, sending `run` requests for
   seeded corpus designs of at most 100 ops x a clock x {conv, slack}.
   One request in three repeats a key the same client already got
   answered (cache hits: framing, admission, design resolution and digest,
   cache lookup); the rest are fresh (conv, slack) pairs at a new clock
   (misses: pipeline, fsync'd journal append, cache insert). *)

open Common

let clients = 2

type req = { design : string; clock : float; flow : string; hit : bool }

type sample = {
  req : req;
  latency : float;  (** seconds, send to full response *)
  reply : (string * Obs.Json.t * string, string) Result.t;  (** status, object, bytes *)
}

let flow_of q = if q.flow = "conv" then Flows.Conventional else Flows.Slack_based

let id_of q = Printf.sprintf "%s@%.3f/%s" q.design q.clock q.flow

let payload q =
  Obs.Json.to_string
    (Protocol.request_to_json
       {
         Protocol.id = id_of q;
         deadline_s = None;
         trace = None;
         req = Protocol.Run { design = q.design; clock = Some q.clock; flow = q.flow };
       })

(* Client [c]'s request stream.  Each step is, with probability 1/2, a
   repeat of one of this client's earlier keys, else a fresh (design,
   clock) sent under both flows, so one request in three is a hit.  The
   mix is deliberately not 50/50: the median then sits inside the miss
   distribution instead of in the gap between hits and misses, and miss
   latency is compute, which tracks the machine's speed far more evenly
   than the sub-millisecond hit path does.  Fresh
   designs come in rounds (each design once per round, seeded order) and
   a design's k-th fresh clock lies in the k-th of eight strata of
   0.8x..1.5x its clock (seeded within the stratum), so a run's miss cost
   does not hinge on which expensive designs or tight clocks chance drew:
   the mix of cheap and costly designs, tight and loose clocks, is the
   same in every run of the same length.  Clocks carry a per-client
   fraction (.25 / .75 ps), so the two clients never share a key and
   every hit repeats a request that already completed. *)
let stream ~seed ~(designs : Corpus.entry array) c =
  let g = rng seed (100 + c) in
  let draw = rounds g designs in
  let visits = Hashtbl.create 128 in
  let earlier = ref [||] and n_earlier = ref 0 in
  let seen = Hashtbl.create 256 in
  let pending = Queue.create () in
  let remember q =
    if !n_earlier = Array.length !earlier then
      earlier := Array.append !earlier (Array.make (max 16 !n_earlier) q);
    !earlier.(!n_earlier) <- q;
    incr n_earlier
  in
  let rec fresh () =
    let e = draw () in
    let k = Option.value ~default:0 (Hashtbl.find_opt visits e.Corpus.name) in
    Hashtbl.replace visits e.Corpus.name (k + 1);
    let u = (float_of_int (k mod 8) +. Splitmix.float g 1.0) /. 8.0 in
    let clock =
      Float.round (e.Corpus.clock_ps *. (0.8 +. (0.7 *. u))) +. 0.25 +. (0.5 *. float_of_int c)
    in
    if Hashtbl.mem seen (e.Corpus.name, clock) then fresh ()
    else begin
      Hashtbl.replace seen (e.Corpus.name, clock) ();
      let flows = if Splitmix.bool g then [ "conv"; "slack" ] else [ "slack"; "conv" ] in
      List.iter
        (fun flow ->
          let q = { design = e.Corpus.name; clock; flow; hit = false } in
          remember q;
          Queue.push q pending)
        flows
    end
  in
  fun () ->
    if Queue.is_empty pending then begin
      if !n_earlier > 0 && Splitmix.bool g then
        Queue.push { (!earlier.(Splitmix.int g !n_earlier)) with hit = true } pending
      else fresh ()
    end;
    Queue.pop pending

(* Run both clients until [stop_at] or [limit] requests each; returns the
   per-client samples in send order and the loop's wall time. *)
let closed_loop d ~streams ~stop_at ~limit =
  let results = Array.make clients [] in
  let client c () =
    let next = streams.(c) in
    let conn = ref None in
    let acc = ref [] and count = ref 0 in
    while now () < stop_at && !count < limit do
      let q = next () in
      let body = payload q in
      let t0 = now () in
      let reply =
        let c =
          match !conn with Some c -> Ok c | None -> Client.connect d.addr
        in
        match c with
        | Error m -> Error m
        | Ok c -> (
          conn := Some c;
          match Client.request ~deadline_s:120.0 c body with
          | Ok bytes -> (
            match Protocol.response_status bytes with
            | Ok (status, json) -> Ok (status, json, bytes)
            | Error m -> Error m)
          | Error m ->
            Client.close c;
            conn := None;
            Error m)
      in
      acc := { req = q; latency = now () -. t0; reply } :: !acc;
      incr count
    done;
    Option.iter Client.close !conn;
    results.(c) <- List.rev !acc
  in
  let wall, () =
    time (fun () ->
        let threads = List.init clients (fun c -> Thread.create (client c) ()) in
        List.iter Thread.join threads)
  in
  (results, wall)

let failed_status = function "ok" | "failed" -> false | _ -> true

let account r samples =
  List.iter
    (fun s ->
      r.attempted <- r.attempted + 1;
      match s.reply with
      | Error _ -> r.failed <- r.failed + 1
      | Ok (status, _, _) -> if failed_status status then r.failed <- r.failed + 1)
    samples

let field json k = Option.value ~default:Obs.Json.Null (List.assoc_opt k (fields json))

(* Output check: every answered request against an in-process evaluation
   of the same point (each distinct key once, on a pool of 2, after the
   daemon has stopped), and every hit byte-for-byte against its miss. *)
let check r ~(by_name : (string, Corpus.entry) Hashtbl.t) samples =
  let first = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      match s.reply with
      | Ok (status, json, bytes) when not (failed_status status) -> (
        let k = id_of s.req in
        match Hashtbl.find_opt first k with
        | None -> Hashtbl.replace first k (s.req, status, json, bytes)
        | Some (_, _, _, b0) ->
          if b0 <> bytes then mismatch r "%s: hit reply differs from its miss" k)
      | _ -> ())
    samples;
  let keys = Array.of_seq (Hashtbl.to_seq_values first) in
  let outcomes =
    explore_each
      (fun (q, _, _, _) ->
        match Explore_grid.make ~clocks:[ q.clock ] ~flows:[ flow_of q ] () with
        | Ok g -> (q.design, build_of (Hashtbl.find by_name q.design), g)
        | Error m -> failwith m)
      keys
  in
  Array.iteri
    (fun i (q, status, json, _) ->
      match outcomes.(i) with
      | Domain_pool.Done { Explore.results = [ pr ]; _ } ->
        let s = pr.Explore.summary in
        let expect = if Eval_cache.ok s then "ok" else "failed" in
        let render v = Obs.Json.to_string v in
        let same k v = render (field json k) = render v in
        if
          status <> expect
          || render (field json "key") <> render (Obs.Json.String pr.Explore.pkey)
          || not
               (same "area" (Obs.Json.Float s.Eval_cache.area)
               && same "steps" (Obs.Json.Int s.Eval_cache.steps)
               && same "delay_ps" (Obs.Json.Float s.Eval_cache.delay_ps))
        then
          mismatch r "%s: daemon replied %s area %s steps %s, in-process %s area %.6g steps %d"
            (id_of q) status (render (field json "area")) (render (field json "steps")) expect
            s.Eval_cache.area s.Eval_cache.steps
      | _ -> mismatch r "%s: in-process evaluation did not complete" (id_of q))
    keys;
  Array.length keys

(* A_slack / A_conv over fresh (design, clock) pairs where both succeeded. *)
let area_ratios samples =
  area_ratios
    (List.filter_map
       (fun s ->
         match s.reply with
         | Ok ("ok", json, _) when not s.req.hit ->
           let point =
             { Explore_grid.flow = flow_of s.req; clock = s.req.clock; ii = None; recover = true }
           in
           let summary =
             {
               Eval_cache.status = Eval_cache.Success;
               area = num (field json "area");
               steps = 0;
               delay_ps = 0.0;
               relaxations = 0;
               regrades = 0;
               recoveries = 0;
               error = "";
             }
           in
           Some (s.req.design, point, summary)
         | _ -> None)
       samples)

let ms_of sel samples =
  List.filter_map (fun s -> if sel s then Some (s.latency *. 1000.0) else None) samples

(* The serve layer's own numbers from one closed loop's [samples] and the
   daemon's [stats] reply: client-side hit and miss medians, the daemon's
   run p50, transport (client p50 - server p50) and the shed share. *)
let put_serve_layer r samples ~stats =
  let server_p50 = path_num stats [ "latency_ms"; "run"; "p50_ms" ] in
  put r "serve.hit_p50_ms" "ms" (median (ms_of (fun s -> s.req.hit) samples));
  put r "serve.miss_p50_ms" "ms" (median (ms_of (fun s -> not s.req.hit) samples));
  put r "serve.server_p50_ms" "ms" server_p50;
  put r "serve.transport_ms" "ms" (median (ms_of (fun _ -> true) samples) -. server_p50);
  put r "serve.shed_frac" "ratio" (ratio (path_num stats [ "shed" ]) (path_num stats [ "requests" ]))

(* A short serve-mix loop, [limit] requests per client, against a daemon
   another workload started — how fleet-sweep's traced run measures the
   serve layer. *)
let serve_probe r d ~seed ~(entries : Corpus.entry list) ~limit =
  let designs = Array.of_list (List.filter (fun (e : Corpus.entry) -> e.Corpus.ops <= 100) entries) in
  let per_client, _ =
    closed_loop d ~streams:(Array.init clients (stream ~seed ~designs)) ~stop_at:infinity ~limit
  in
  let samples = List.concat (Array.to_list per_client) in
  account r samples;
  put_serve_layer r samples ~stats:(stats d)

let counter = ref 0

let start ~traced =
  incr counter;
  start_daemon ~name:(Printf.sprintf "serve%d" !counter)
    ([ "--jobs"; "2"; "--journal"; work (Printf.sprintf "serve%d.jnl" !counter) ]
    @ [ "--corpus"; manifest ]
    @ if traced then [ "--stats" ] else [])

let run r ~seed ~seconds ~trace =
  let setup_s, entries, ds = setup_daemons r (fun _ -> [ start ~traced:false ]) in
  let d = List.hd ds in
  let small = List.filter (fun (e : Corpus.entry) -> e.Corpus.ops <= 100) entries in
  let designs = Array.of_list small in
  let by_name = Hashtbl.create 128 in
  List.iter (fun (e : Corpus.entry) -> Hashtbl.replace by_name e.Corpus.name e) small;
  let streams () = Array.init clients (stream ~seed ~designs) in
  if not trace then begin
    let per_client, wall =
      closed_loop d ~streams:(streams ()) ~stop_at:(now () +. seconds) ~limit:max_int
    in
    let samples = List.concat (Array.to_list per_client) in
    let st = stats d in
    let rss = peak_rss_mb d.pid in
    stop_daemon d;
    account r samples;
    let lat = ms_of (fun _ -> true) samples in
    let status s = match s.reply with Ok (st, _, _) -> st | Error _ -> "transport" in
    let answered = List.filter (fun s -> not (failed_status (status s))) samples in
    let n_ok = List.length (List.filter (fun s -> status s = "ok") answered) in
    let ratios = area_ratios samples in
    let checked = check r ~by_name samples in
    put_end_to_end r ~setup_s
      ~points_per_s:(float_of_int (List.length answered) /. wall)
      ~latencies_ms:lat ~feasible:n_ok ~completed:(List.length answered) ~ratios ~rss_mb:rss;
    let hits = ms_of (fun s -> s.req.hit) samples in
    let misses = ms_of (fun s -> not s.req.hit) samples in
    Printf.printf
      "serve-mix: %d requests (%d hits, %d misses) in %.2f s over %d designs; tail = p%.0f; \
       hits p50 %.2f ms p99 %.2f ms, misses p50 %.2f ms p99 %.2f ms; daemon run p50 %.2f ms; \
       %d distinct keys re-evaluated in-process\n"
      (List.length samples) (List.length hits) (List.length misses) wall (Array.length designs)
      (100.0 *. tail_q (List.length lat))
      (median hits) (quantile 0.99 hits) (median misses) (quantile 0.99 misses)
      (path_num st [ "latency_ms"; "run"; "p50_ms" ]) checked
  end
  else begin
    (* Traced run: a fixed 150 requests per client, against a fresh
       daemon per pass, alternating a plain daemon and one with --stats
       (span aggregation on); requests pair up by (client, index). *)
    stop_daemon d;
    let limit = 150 in
    let pass _ traced =
      let d = start ~traced in
      let per_client, wall = closed_loop d ~streams:(streams ()) ~stop_at:infinity ~limit in
      let st = stats d in
      let tele = if traced then Some (telemetry d) else None in
      let health = if traced then health_rtt_ms d else 0.0 in
      stop_daemon d;
      (per_client, wall, st, tele, health)
    in
    let runs = pass_pairs ~seconds pass in
    let flat (pc, _, _, _, _) = List.concat (Array.to_list pc) in
    List.iter (fun (u, t) -> account r (flat u); account r (flat t)) runs;
    let (u0, _, st0, _, _), (_, wall1, _, tele1, health1) = List.hd runs in
    (match tele1 with
    | Some (counters, spans) ->
      Layers.from_counters r ~counters ~spans ~busy_domains:2 ~wall:wall1
    | None -> ());
    let s0 = List.concat (Array.to_list u0) in
    put_serve_layer r s0 ~stats:st0;
    put r "dispatch.health_rtt_ms" "ms" health1;
    let lat sel =
      List.concat_map (fun run -> List.map (fun s -> s.latency) (flat (sel run))) runs
    in
    Layers.trace_overhead r ~untraced:(lat fst) ~traced:(lat snd);
    let used = Hashtbl.create 64 in
    List.iter (fun s -> Hashtbl.replace used s.req.design ()) s0;
    let sample =
      List.filteri (fun i _ -> i < 8)
        (List.filter (fun (e : Corpus.entry) -> Hashtbl.mem used e.Corpus.name) small)
    in
    Layers.probes r ~sample
      ~keys:
        (List.map
           (fun s ->
             let e = Hashtbl.find by_name s.req.design in
             full_key ~digest:(Dfg.digest (build_of e ()))
               (Explore_grid.point_key
                  {
                    Explore_grid.flow = flow_of s.req;
                    clock = s.req.clock;
                    ii = None;
                    recover = true;
                  }))
           s0);
    Printf.printf "serve-mix traced: %d pass pairs of %d requests\n" (List.length runs)
      (limit * clients)
  end
