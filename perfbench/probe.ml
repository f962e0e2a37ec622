(* The traced run's in-process probe: calls each layer's public
   functions on the benchmark's own inputs, every call wrapped in an
   Rsj_obs.Trace span opened here (category "perfbench"). The per-layer
   timings are read back from those spans; the Chrome trace and a
   per-layer summary of self times are written next to the run
   directory. No span is added inside the library. *)

open Rsj_relation
open Inputs
module Trace = Rsj_obs.Trace
module P = Rsj_server.Protocol
module Cache = Rsj_cache.Structure_cache
module Strategy = Rsj_core.Strategy
module Online = Rsj_verify.Online

let cat = "perfbench"
let span name f = Trace.with_span ~cat name f

(* [reps] spans named [name] around [f]. *)
let repeat reps name f =
  for _ = 1 to reps do
    ignore (Sys.opaque_identity (span name f))
  done

let strategy s = Option.get (Strategy.of_name s)
let short = function "fps" -> "fp" | "hybrid-count" -> "hybrid" | s -> s
let col = Z.col2

(* One served sample replayed in exec_sample's order: cache lookup, the
   picker (when no strategy is named), the strategy run, the quality
   monitor, the response encoding; then the client's decode. [tag]
   names the kernel span core.<strategy>.<tag>. *)
let replay ~cache ~monitor ~law ~left ~right ~tag ?strategy:s ~wor () =
  let kind = Option.value s ~default:"picker" ^ "." ^ tag in
  span ("request." ^ kind) (fun () ->
      let env = span "cache.env" (fun () -> Cache.env cache ~seed:17 ~left ~right ~left_key:col ~right_key:col ()) in
      let strat, kernel =
        match s with
        | Some s -> (strategy s, Printf.sprintf "core.%s.%s" (short s) tag)
        | None ->
            let chosen =
              span "optimizer.choose" (fun () ->
                  let catalog = Rsj_optimizer.Catalog.of_env ~availability:Strategy.all_available env in
                  fst (Rsj_optimizer.Picker.choose catalog (Rsj_optimizer.Cost_model.shape ~r:serve_r)))
            in
            (chosen, "core.picked." ^ tag)
      in
      let result =
        span kernel (fun () ->
            if wor then Rsj_parallel.run_wor env strat ~r:serve_r ~domains:1
            else Rsj_parallel.run env strat ~r:serve_r ~domains:1)
      in
      let sample = result.Strategy.sample in
      span "verify.observe" (fun () ->
          Online.observe monitor ~key:kind ~law (Array.map (fun t -> t.(col)) sample));
      let rows = Array.to_list (Array.map Array.to_list sample) in
      let enc = if tag = "int" then "server.encode" else "server.encode." ^ tag in
      let line = span enc (fun () -> P.encode_response (P.Rows { id = 1; rows })) in
      let dec = if tag = "int" then "server.decode" else "server.decode." ^ tag in
      ignore (span dec (fun () -> P.decode_response line));
      String.length line)

(* Self time of every benchmark span (its duration minus its direct
   children's), summed per layer (the name's first component). *)
let layer_summary events =
  let evs =
    List.filter (fun e -> e.Trace.cat = cat) events
    |> List.sort (fun a b -> compare (a.Trace.tid, a.Trace.ts, -.a.Trace.dur) (b.Trace.tid, b.Trace.ts, -.b.Trace.dur))
  in
  let child = Hashtbl.create 256 in
  let stack = ref [] in
  List.iteri
    (fun i e ->
      let inside (j, p) = p.Trace.tid = e.Trace.tid && e.Trace.ts +. e.Trace.dur <= p.Trace.ts +. p.Trace.dur +. 1e-3 && j <> i in
      while (match !stack with top :: _ -> not (inside top) | [] -> false) do
        stack := List.tl !stack
      done;
      (match !stack with
      | (j, _) :: _ -> Hashtbl.replace child j (e.Trace.dur +. Option.value (Hashtbl.find_opt child j) ~default:0.)
      | [] -> ());
      stack := (i, e) :: !stack)
    evs;
  let layers = Hashtbl.create 16 in
  List.iteri
    (fun i e ->
      let layer = List.hd (String.split_on_char '.' e.Trace.name) in
      let self = e.Trace.dur -. Option.value (Hashtbl.find_opt child i) ~default:0. in
      let s, n = Option.value (Hashtbl.find_opt layers layer) ~default:(0., 0) in
      Hashtbl.replace layers layer (s +. self, n + 1))
    evs;
  Hashtbl.fold (fun l (s, n) acc -> (l, s, n) :: acc) layers [] |> List.sort compare

let median l =
  let a = Array.of_list l in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan else if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Runs the probe and returns the per-layer metrics it owns as
   (name, value, unit). *)
let run ~seed ~workload =
  Rsj_obs.set_enabled true;
  Trace.clear ();
  let t1 = serve_table seed 1 and t2 = serve_table seed 2 and t3 = serve_table seed 3 in
  (* Relation, index and statistics builds on the serve pair's t2. *)
  Csv_io.save ~path:"probe_t2.csv" t2;
  repeat 3 "relation.csv_load" (fun () -> Csv_io.load ~path:"probe_t2.csv" Z.schema);
  let sschema = Schema.of_list string_schema in
  let rows1 = string_keyed t1 and rows2 = string_keyed t2 in
  repeat 3 "relation.of_rows" (fun () -> Relation.of_rows ~name:"t2s" sschema rows2);
  repeat 5 "relation.int_view" (fun () -> Column.int_view t2 ~col);
  repeat 3 "index.hash_build" (fun () -> Rsj_index.Hash_index.build t2 ~key:col);
  let freq = Rsj_stats.Frequency.of_relation t2 ~key:col in
  repeat 3 "stats.frequency_build" (fun () -> Rsj_stats.Frequency.of_relation t2 ~key:col);
  repeat 5 "stats.histogram_build" (fun () -> Rsj_stats.Histogram.End_biased.build_fraction freq ~fraction:0.05);
  (* Served-request replays against warm structures. *)
  let t1s = Relation.of_rows ~name:"t1s" sschema rows1 and t2s = Relation.of_rows ~name:"t2s" sschema rows2 in
  let cache = Cache.create () and monitor = Online.create () in
  let law l r =
    Option.get
      (Online.law_of_frequencies ~left:(Cache.frequency cache l ~key:col) ~right:(Cache.frequency cache r ~key:col))
  in
  let int_law = law t1 t2 and str_law = law t1s t2s in
  let replays () =
    let on_int = replay ~cache ~monitor ~law:int_law ~left:t1 ~right:t2 in
    let on_str = replay ~cache ~monitor ~law:str_law ~left:t1s ~right:t2s ~tag:"str" ~wor:false in
    let sizes = List.map (fun s -> on_int ~tag:"int" ~strategy:s ~wor:false ()) scan_strategies in
    ignore (on_int ~tag:"int" ~wor:false ());
    ignore (on_int ~tag:"int_wor" ~strategy:"stream" ~wor:true ());
    List.iter (fun s -> ignore (on_str ~strategy:s ())) scan_strategies;
    sizes
  in
  Rsj_obs.set_enabled false;
  ignore (replays ());
  Rsj_obs.set_enabled true;
  let bytes = List.concat (List.init 10 (fun _ -> replays ())) in
  (* The chain walker and the SQL engine on t1 ⋈ t2 ⋈ t3. *)
  let spec = { Rsj_core.Chain_sample.relations = [| t1; t2; t3 |]; join_keys = [| (col, col); (col, col) |] } in
  let walker = Rsj_core.Chain_sample.prepare spec in
  repeat 3 "util.chain_prepare" (fun () -> Rsj_core.Chain_sample.prepare spec);
  let rng = Rsj_util.Prng.create ~seed () in
  repeat 50 "util.chain_draw" (fun () -> Rsj_core.Chain_sample.sample walker rng ~r:serve_r ());
  let sql = chain_sql ~names:("t1", "t2", "t3") serve_r in
  (* Calls shorter than the clock's resolution are timed 100 to a span. *)
  repeat 20 "sql.parse.x100" (fun () ->
      for _ = 1 to 100 do
        ignore (Sys.opaque_identity (Rsj_sql.Parser.parse sql))
      done);
  repeat 20 "cache.env.x100" (fun () ->
      for _ = 1 to 100 do
        ignore (Sys.opaque_identity (Cache.env cache ~seed:17 ~left:t1 ~right:t2 ~left_key:col ~right_key:col ()))
      done);
  let catalog = [ ("t1", t1); ("t2", t2); ("t3", t3) ] in
  let chain_run () =
    match Rsj_sql.Engine.run ~seed catalog sql with
    | Ok r when List.length r.Rsj_sql.Engine.rows = serve_r -> ()
    | Ok _ -> failwith "probe: chain query returned the wrong number of rows"
    | Error msg -> failwith ("probe: chain query failed: " ^ msg)
  in
  chain_run ();
  repeat 10 "sql.chain_run" chain_run;
  (* Every strategy on the batch_scan pair: WR and WoR at d=1, WR at
     d=2, with the work counters and the allocation of the d=1 WR run. *)
  let b1 = batch_table seed 1 and b2 = batch_table seed 2 in
  let env = Strategy.make_env ~seed ~left:b1 ~right:b2 ~left_key:col ~right_key:col () in
  List.iter (fun s -> Strategy.prepare env (strategy s)) strategies;
  ignore (Strategy.env_left_key_view env, Strategy.env_right_key_view env);
  let counters =
    List.concat_map
      (fun s ->
        let st = strategy s and n = short s in
        let w0 = Gc.minor_words () in
        let res = span (Printf.sprintf "core.%s.wr" n) (fun () -> Rsj_parallel.run env st ~r:batch_r ~domains:1) in
        let words = Gc.minor_words () -. w0 in
        ignore (span (Printf.sprintf "core.%s.wor" n) (fun () -> Rsj_parallel.run_wor env st ~r:batch_r ~domains:1));
        ignore (span (Printf.sprintf "parallel.%s.wr_d2" n) (fun () -> Rsj_parallel.run env st ~r:batch_r ~domains:2));
        [
          (Printf.sprintf "core.%s.work" n, float_of_int (Rsj_exec.Metrics.total_work res.Strategy.metrics), "count");
          (Printf.sprintf "core.%s.minor_words" n, words /. float_of_int batch_n1, "words/tuple");
        ])
      strategies
  in
  Rsj_obs.set_enabled false;
  (* Read the timings back from the spans. *)
  let events = Trace.events () in
  let durs = Hashtbl.create 64 in
  List.iter
    (fun e ->
      if e.Trace.cat = cat then
        Hashtbl.replace durs e.Trace.name (e.Trace.dur :: Option.value (Hashtbl.find_opt durs e.Trace.name) ~default:[]))
    events;
  let us name = median (Option.value (Hashtbl.find_opt durs name) ~default:[]) in
  let ms name = us name /. 1000. in
  let timed =
    [
      ("server.encode_us", us "server.encode", "us");
      ("server.decode_us", us "server.decode", "us");
      ("server.response_bytes", median (List.map float_of_int bytes), "bytes");
      ("optimizer.choose_us", us "optimizer.choose", "us");
      ("cache.env_us", us "cache.env.x100" /. 100., "us");
      ("relation.csv_load_ms", ms "relation.csv_load", "ms");
      ("relation.of_rows_ms", ms "relation.of_rows", "ms");
      ("relation.int_view_ms", ms "relation.int_view", "ms");
      ("index.hash_build_ms", ms "index.hash_build", "ms");
      ("stats.frequency_build_ms", ms "stats.frequency_build", "ms");
      ("stats.histogram_build_ms", ms "stats.histogram_build", "ms");
    ]
    @ List.concat_map
        (fun s ->
          let n = short s in
          [
            (Printf.sprintf "core.%s.wr_ms" n, ms (Printf.sprintf "core.%s.wr" n), "ms");
            (Printf.sprintf "core.%s.wor_ms" n, ms (Printf.sprintf "core.%s.wor" n), "ms");
            (Printf.sprintf "parallel.%s.wr_d2_ms" n, ms (Printf.sprintf "parallel.%s.wr_d2" n), "ms");
          ])
        strategies
    @ counters
    @ List.concat_map
        (fun s ->
          [
            (Printf.sprintf "core.%s.int_ms" s, ms (Printf.sprintf "core.%s.int" s), "ms");
            (Printf.sprintf "core.%s.str_ms" s, ms (Printf.sprintf "core.%s.str" s), "ms");
          ])
        scan_strategies
    @ [
        ("util.chain_prepare_ms", ms "util.chain_prepare", "ms");
        ("util.chain_draw_us", us "util.chain_draw", "us");
        ("sql.parse_us", us "sql.parse.x100" /. 100., "us");
        ("sql.chain_run_ms", ms "sql.chain_run", "ms");
        ("verify.observe_us", us "verify.observe", "us");
      ]
  in
  (* The trace and the self-time summary, kept after the run. *)
  Trace.write_file (Filename.concat ".." ("trace-" ^ workload ^ ".json"));
  let summary = layer_summary events in
  let oc = open_out (Filename.concat ".." ("layers-" ^ workload ^ ".json")) in
  output_string oc
    (Rsj_obs.Json.to_string
       (Rsj_obs.Json.Obj
          (List.map
             (fun (l, s, n) -> (l, Rsj_obs.Json.Obj [ ("self_ms", Rsj_obs.Json.Float (s /. 1000.)); ("spans", Rsj_obs.Json.Int n) ]))
             summary)));
  close_out oc;
  prerr_endline "perfbench: self time per layer (ms, spans):";
  List.iter (fun (l, s, n) -> Printf.eprintf "  %-12s %10.2f %6d\n" l (s /. 1000.) n) summary;
  timed
