(* The sampler's benchmark: one `rsj serve` daemon per set-up and one
   closed-loop client connection (the next request goes out only after
   the last one completed). Every output is checked against references
   the benchmark computes from the rows it generated.

     bench.exe --workload serve_warm|serve_churn|batch_scan --seed N
               --seconds S --trace 0|1 --rsj PATH

   The last line of stdout is one JSON object: correct, attempted,
   failed and the metrics (end-to-end with --trace 0, per-layer with
   --trace 1). README.md defines the workloads and the metrics. *)

open Rsj_relation
open Inputs
module Json = Rsj_obs.Json
module Clock = Rsj_obs.Clock
module P = Rsj_server.Protocol
module Client = Rsj_server.Client

let setups = 3
let churn_mixes_per_write = 10
let batch_side_ops = 5
let warm_write_cycles = 4
let rss_rounds = 3

(* ------------------------------------------------------------------ *)
(* Arguments                                                           *)

type args = { workload : string; seed : int; seconds : float; trace : bool; rsj : string }

let parse_args () =
  let workload = ref "" and seed = ref None and seconds = ref None and trace = ref "" and rsj = ref "" in
  let spec =
    [
      ("--workload", Arg.Set_string workload, "serve_warm | serve_churn | batch_scan");
      ("--seed", Arg.Int (fun s -> seed := Some s), "input seed");
      ("--seconds", Arg.Float (fun s -> seconds := Some s), "length of the timed phase");
      ("--trace", Arg.Set_string trace, "0 = end-to-end metrics, 1 = per-layer metrics");
      ("--rsj", Arg.Set_string rsj, "path of the rsj executable");
    ]
  in
  let usage = "bench.exe --workload W --seed N --seconds S --trace 0|1 --rsj PATH" in
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  match (!seed, !seconds, !trace) with
  | Some seed, Some seconds, ("0" | "1") when !rsj <> "" && seconds > 0. ->
      { workload = !workload; seed; seconds; trace = !trace = "1"; rsj = !rsj }
  | _ ->
      prerr_endline usage;
      exit 2

(* ------------------------------------------------------------------ *)
(* Run state                                                           *)

(* What a request's rows are checked against: catalog names, the
   reference tables (serve_churn swaps t2's), and the version suffix of
   the law-accumulator names. *)
type target = {
  left : string;
  right : string;
  str : bool;
  mutable tables : Check.table list;
  mutable weights : float array;
  mutable version : string;
}

let target ?(str = false) ~left ~right tables =
  { left; right; str; tables; weights = Check.chain_weights tables; version = "" }

let retarget tgt tables version =
  tgt.tables <- tables;
  tgt.weights <- Check.chain_weights tables;
  tgt.version <- version

type st = {
  seed : int;
  mutable serial : int;
  mutable timed : bool;
  mutable attempted : int;
  mutable failed : int;
  mutable ok : int;
  mutable sample_ms : float list;
  by_kind : (string, float list ref) Hashtbl.t;
      (** the sample population split by request kind *)
  mutable outside_ms : float list;
  mutable query_ms : float list;
  mutable write_ms : float list;
  mutable first_read_ms : float list;
  mutable pass_d1 : float list;
  mutable pass_d2 : float list;
  accs : (string, Check.acc) Hashtbl.t;
  mutable errors : string list;
  mutable kept_wr : (Client.reply * target * int) option;
  mutable kept_wor : (Client.reply * target * int) option;
      (** a checked int-keyed WR and WoR reply, for the negative controls *)
}

let new_st seed =
  {
    seed;
    serial = 0;
    timed = false;
    attempted = 0;
    failed = 0;
    ok = 0;
    sample_ms = [];
    by_kind = Hashtbl.create 32;
    outside_ms = [];
    query_ms = [];
    write_ms = [];
    first_read_ms = [];
    pass_d1 = [];
    pass_d2 = [];
    accs = Hashtbl.create 64;
    errors = [];
    kept_wr = None;
    kept_wor = None;
  }

let next_seed st =
  st.serial <- st.serial + 1;
  sub_seed st.seed (1_000 + st.serial)

let note_error st msg =
  prerr_endline ("perfbench: check failed: " ^ msg);
  if List.length st.errors < 20 then st.errors <- msg :: st.errors

let guard st what f = try f () with Check.Bad msg -> note_error st (Printf.sprintf "%s: %s" what msg)

let acc_for st name weights =
  match Hashtbl.find_opt st.accs name with
  | Some a -> a
  | None ->
      let a = Check.acc_create weights in
      Hashtbl.replace st.accs name a;
      a

let add_if st l x = if st.timed then x :: l else l

(* Send one request and read its terminal frame; the latency runs from
   the send to the done (or ok/error) frame. *)
let call st c req =
  let t0 = Clock.now_s () in
  Client.send c req;
  let res = Client.collect c ~id:(P.request_id req) in
  let ms = (Clock.now_s () -. t0) *. 1000. in
  if st.timed then begin
    st.attempted <- st.attempted + 1;
    match res with Ok _ -> st.ok <- st.ok + 1 | Error _ -> st.failed <- st.failed + 1
  end;
  (ms, res)

(* Only the bag-semantics requests are allowed to fail; any other
   failure is reported on stderr and counted in [failed]. *)
let unexpected what (code, msg) =
  Printf.eprintf "perfbench: %s failed (%s): %s\n%!" what (P.error_code_to_string code) msg

let sample_req st c tgt ?strategy ~r ~wor ~domains () =
  P.Sample
    {
      id = Client.fresh_id c;
      left = tgt.left;
      right = tgt.right;
      r;
      strategy;
      seed = next_seed st;
      wor;
      domains;
      on = "col2";
      deadline_ms = None;
      rid = None;
    }

let stream_label ?strategy ~wor ~domains tgt reply =
  let s =
    match strategy with
    | Some s -> s
    | None -> (
        match List.assoc_opt "strategy" reply.Client.detail with
        | Some (Json.Str s) -> "picker:" ^ s
        | _ -> "picker:?")
  in
  Printf.sprintf "%s:%s/%s/%s/d%d%s" tgt.left s
    (if tgt.str then "str" else "int")
    (if wor then "wor" else "wr")
    domains tgt.version

(* Check one sample reply and fold its draws into the run's law tests. *)
let verify_sample st tgt ?strategy ~r ~wor ~domains reply =
  let label = stream_label ?strategy ~wor ~domains tgt reply in
  guard st label (fun () ->
      Check.check_join_size ~tables:tgt.tables reply.Client.detail;
      let lin = Check.check_reply ~str:tgt.str ~tables:tgt.tables ~r ~wor reply.Client.rows in
      let right = List.nth tgt.tables 1 in
      let acc = acc_for st label tgt.weights in
      List.iter (Check.observe_pair acc ~right) lin;
      if (not tgt.str) && r >= 2 then
        if wor then (if st.kept_wor = None then st.kept_wor <- Some (reply, tgt, r))
        else if st.kept_wr = None then st.kept_wr <- Some (reply, tgt, r))

(* Latency of a sample in the run's sample population, and its share
   outside the strategy kernel (latency minus the done frame's
   elapsed_s). *)
let record_sample st ~kind ms reply =
  st.sample_ms <- add_if st st.sample_ms ms;
  (if st.timed then
     match Hashtbl.find_opt st.by_kind kind with
     | Some l -> l := ms :: !l
     | None -> Hashtbl.replace st.by_kind kind (ref [ ms ]));
  match List.assoc_opt "elapsed_s" reply.Client.detail with
  | Some (Json.Float s) -> st.outside_ms <- add_if st st.outside_ms (ms -. (s *. 1000.))
  | _ -> ()

(* One served sample; [record] puts it in the sample population.
   Returns its latency when it succeeded. *)
let sample ?(record = true) st c tgt ?strategy ?(r = serve_r) ?(wor = false) ?(domains = 1) () =
  let ms, res = call st c (sample_req st c tgt ?strategy ~r ~wor ~domains ()) in
  match res with
  | Error e ->
      unexpected (Option.value strategy ~default:"picker") e;
      None
  | Ok reply ->
      if record then begin
        let kind =
          Printf.sprintf "%s/%s/%s" (Option.value strategy ~default:"picker")
            (if tgt.str then "str" else "int")
            (if wor then "wor" else "wr")
        in
        record_sample st ~kind ms reply
      end;
      verify_sample st tgt ?strategy ~r ~wor ~domains reply;
      Some ms

(* The 3-table chain SAMPLE query, which the engine routes to the
   cached chain walker. *)
let chain_query st c ~names ~tables ~version ~r =
  let req =
    P.Query { id = Client.fresh_id c; sql = chain_sql ~names r; seed = next_seed st; deadline_ms = None; rid = None }
  in
  let ms, res = call st c req in
  match res with
  | Error e -> unexpected "chain query" e
  | Ok reply ->
      st.query_ms <- add_if st st.query_ms ms;
      guard st "chain query" (fun () ->
          let lin = Check.check_reply ~str:false ~tables ~r ~wor:false reply.Client.rows in
          let acc = acc_for st ("chain" ^ version) (Check.chain_weights tables) in
          List.iter (Check.observe_chain acc ~first:(List.hd tables)) lin)

let register st c ~name source =
  let _, res = call st c (P.Register { id = Client.fresh_id c; name; source }) in
  match res with
  | Ok _ -> ()
  | Error (code, msg) ->
      failwith (Printf.sprintf "register %s failed (%s): %s" name (P.error_code_to_string code) msg)

(* A write: re-register [name] from its CSV of [rows] rows. *)
let write st c ~name ~path ~rows =
  let ms, res = call st c (P.Register { id = Client.fresh_id c; name; source = P.From_path path }) in
  match res with
  | Ok reply -> (
      st.write_ms <- add_if st st.write_ms ms;
      match List.assoc_opt "rows" reply.Client.detail with
      | Some (Json.Int n) when n = rows -> ()
      | _ -> note_error st (Printf.sprintf "register %s: row count differs from the CSV" name))
  | Error e -> unexpected ("register " ^ name) e

(* A side write/first-read cycle: re-register w2, then one Stream WR
   sample on s1 ⋈ w2, kept out of the sample population. *)
let write_then_read st c tgt =
  write st c ~name:"w2" ~path:"s2.csv" ~rows:side_n2;
  match sample ~record:false st c tgt ~strategy:"stream" () with
  | Some ms -> st.first_read_ms <- add_if st st.first_read_ms ms
  | None -> ()

(* One 16-request pass: every strategy, WR then WoR, at [domains]. The
   replies are checked after the pass, so the pass time holds only the
   requests. *)
let pass ?(record = false) st c tgt ~r ~domains =
  let t0 = Clock.now_s () in
  let replies =
    List.concat_map
      (fun s ->
        List.map
          (fun wor ->
            let ms, res = call st c (sample_req st c tgt ~strategy:s ~r ~wor ~domains ()) in
            (s, wor, ms, res))
          [ false; true ])
      strategies
  in
  let dt = Clock.now_s () -. t0 in
  List.iter
    (fun (s, wor, ms, res) ->
      match res with
      | Error e -> unexpected (Printf.sprintf "%s %s d=%d" s (if wor then "WoR" else "WR") domains) e
      | Ok reply ->
          if record then
            record_sample st ~kind:(Printf.sprintf "%s/%s/d%d" s (if wor then "wor" else "wr") domains) ms reply;
          verify_sample st tgt ~strategy:s ~r ~wor ~domains reply)
    replies;
  if domains = 1 then st.pass_d1 <- add_if st st.pass_d1 dt else st.pass_d2 <- add_if st st.pass_d2 dt

(* A WoR request with r = |J| on the bag-semantics pair. A strategy that
   deduplicates draws by tuple content cannot collect three distinct
   tuples and fails; a success must return the whole join multiset.
   Left out of the latency metrics. *)
let bag st c ~strategy =
  let req =
    P.Sample
      {
        id = Client.fresh_id c;
        left = "bag1";
        right = "bag2";
        r = List.length bag_join;
        strategy = Some strategy;
        seed = next_seed st;
        wor = true;
        domains = 1;
        on = "col2";
        deadline_ms = None;
        rid = None;
      }
  in
  match call st c req with
  | _, Error _ -> ()
  | _, Ok reply ->
      if List.sort compare reply.Client.rows <> List.sort compare bag_join then
        note_error st (Printf.sprintf "bag WoR %s: output is not the join multiset" strategy)

(* ------------------------------------------------------------------ *)
(* Set-up and the timed phase                                          *)

let median = Probe.median

(* Nearest-rank percentile. *)
let percentile q l =
  let a = Array.of_list l in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan else a.(max 0 (min (n - 1) (int_of_float (Float.ceil (q *. float_of_int n)) - 1)))

(* Set up [setups] daemons, one after the other: daemon exec, registers,
   warm-up. All of them serve the timed phase; every set-up time is
   returned. *)
let set_up args setup =
  let one k =
    let t0 = Clock.now_s () in
    let d =
      Daemon.start ~rsj:args.rsj ~sock:(Printf.sprintf "rsj%d.sock" k) ~log:(Printf.sprintf "daemon%d.log" k)
    in
    setup k d.Daemon.client;
    (d, Clock.now_s () -. t0)
  in
  let ds = List.init setups one in
  (Array.of_list (List.map fst ds), List.map snd ds)

(* Whole rounds until [seconds] have elapsed and every daemon has served
   [rss_rounds] of them, so every run attempts the same operations in
   the same proportions. Round i goes to daemon i mod [setups]: within
   one run the daemons' median round times differed by up to 10%, and
   rotating spreads every metric over all of them. Each daemon's peak
   RSS is read after its [rss_rounds]-th round, a fixed amount of work:
   read at the end, it would grow with the rounds a run fits in, that is
   with the host's speed (serve_churn's daemons grow with every write).
   Returns each round's wall time and that RSS, per daemon. *)
let timed_rounds st ~seconds (ds : Daemon.t array) round =
  st.timed <- true;
  let n = Array.length ds in
  let times = Array.make n [] and rss = Array.make n nan in
  let t0 = Clock.now_s () in
  let rec go i =
    let t = Clock.now_s () in
    if t -. t0 < seconds || i < n * rss_rounds then begin
      let k = i mod n in
      round k ds.(k).Daemon.client;
      times.(k) <- (Clock.now_s () -. t) :: times.(k);
      if List.length times.(k) = rss_rounds then rss.(k) <- Daemon.peak_rss_mb ds.(k);
      go (i + 1)
    end
  in
  go 0;
  st.timed <- false;
  (times, rss)

type outcome = {
  st : st;
  setup_times : float list;
  round_s : float list array;  (** each timed round's wall time, per daemon *)
  rss_mb : float list;  (** per daemon, after [rss_rounds] rounds *)
  rss_end_mb : float list;  (** per daemon, at the end of the run *)
  cache : (string * Json.t) list list;  (** the stats RPC's reply, per daemon *)
}

let daemon_stats st (d : Daemon.t) =
  let cache =
    match Client.cache_stats d.Daemon.client with
    | Ok detail -> detail
    | Error msg -> failwith ("stats RPC failed: " ^ msg)
  in
  (match List.assoc_opt "quality_alert" cache with
  | Some (Json.Bool false) -> ()
  | _ ->
      let alerted =
        match List.assoc_opt "quality" cache with
        | Some (Json.List streams) ->
            List.filter_map
              (fun q ->
                match (Json.member "alert" q, Json.member "stream" q) with
                | Some (Json.Bool true), Some (Json.Str s) -> Some s
                | _ -> None)
              streams
        | _ -> []
      in
      note_error st ("the daemon's quality monitor raised an alert: " ^ String.concat " " alerted));
  let rss_end = Daemon.peak_rss_mb d in
  Daemon.stop d;
  (rss_end, cache)

let finish st ds ~setup_times ~rounds:(round_s, rss) =
  let per = Array.to_list (Array.map (daemon_stats st) ds) in
  { st; setup_times; round_s; rss_mb = Array.to_list rss; rss_end_mb = List.map fst per; cache = List.map snd per }

let save rel path = Csv_io.save ~path rel
let tables_of = List.map Check.table_of_relation

(* The read mix on the int-keyed pair: picker-routed, the four scans,
   Stream WoR, then the chain query. *)
let int_mix ?(first_read = false) st c ~int_t ~chain_tables =
  (match sample st c int_t ~strategy:"stream" () with
  | Some ms when first_read -> st.first_read_ms <- add_if st st.first_read_ms ms
  | _ -> ());
  List.iter (fun s -> ignore (sample st c int_t ~strategy:s ())) (List.tl scan_strategies);
  ignore (sample st c int_t ());
  ignore (sample st c int_t ~strategy:"stream" ~wor:true ());
  chain_query st c ~names:("t1", "t2", "t3") ~tables:chain_tables ~version:int_t.version ~r:serve_r

let str_mix st c ~str_t = List.iter (fun s -> ignore (sample st c str_t ~strategy:s ())) scan_strategies

(* The side pair s1 ⋈ s2 carries the strategy passes of the serve
   workloads and never changes. Writes go to w2, a copy of s2 that only
   the first read after each write samples (s1 ⋈ w2). *)
let side_targets seed =
  let s1 = side_table seed 1 and s2 = side_table seed 2 in
  save s1 "s1.csv";
  save s2 "s2.csv";
  let tables = tables_of [ s1; s2 ] in
  (target ~left:"s1" ~right:"s2" tables, target ~left:"s1" ~right:"w2" tables)

let register_side st c =
  List.iter (fun (n, f) -> register st c ~name:n (P.From_path f)) [ ("s1", "s1.csv"); ("s2", "s2.csv"); ("w2", "s2.csv") ]

(* serve_warm: the read mix against warm structures. A round is five
   sub-rounds (the int-keyed mix, then the four scans on the
   string-keyed copy), each followed by one bag-semantics WoR request
   (naive, then the four strategies that fail it today); then one d=1
   and one d=2 pass on the side pair and four write/first-read cycles
   on w2. *)
let serve_warm (args : args) =
  let seed = args.seed in
  let t1 = serve_table seed 1 and t2 = serve_table seed 2 and t3 = serve_table seed 3 in
  List.iter (fun (r, p) -> save r p) [ (t1, "t1.csv"); (t2, "t2.csv"); (t3, "t3.csv") ];
  let chain_tables = tables_of [ t1; t2; t3 ] in
  let int_t = target ~left:"t1" ~right:"t2" (List.filteri (fun i _ -> i < 2) chain_tables) in
  let str_t = target ~str:true ~left:"t1s" ~right:"t2s" int_t.tables in
  let side_t, write_t = side_targets seed in
  let str1 = P.Inline (string_schema, string_keyed t1) and str2 = P.Inline (string_schema, string_keyed t2) in
  let st = new_st seed in

  let subround c =
    int_mix st c ~int_t ~chain_tables;
    str_mix st c ~str_t
  in
  let side c =
    pass st c side_t ~r:serve_r ~domains:1;
    pass st c side_t ~r:serve_r ~domains:2;
    for _ = 1 to warm_write_cycles do
      write_then_read st c write_t
    done
  in
  let ds, setup_times =
    set_up args (fun _ c ->
        List.iter (fun n -> register st c ~name:n (P.From_path (n ^ ".csv"))) [ "t1"; "t2"; "t3" ];
        register_side st c;
        register st c ~name:"t1s" str1;
        register st c ~name:"t2s" str2;
        register st c ~name:"bag1" (P.Inline (bag_cols, bag_left));
        register st c ~name:"bag2" (P.Inline (bag_cols, bag_right));
        subround c;
        side c)
  in
  let rounds =
    timed_rounds st ~seconds:args.seconds ds (fun _ c ->
        List.iter
          (fun s ->
            subround c;
            bag st c ~strategy:s)
          ("naive" :: scan_strategies);
        side c)
  in
  finish st ds ~setup_times ~rounds

(* serve_churn: the int-keyed read mix; before every tenth mix t2 is
   re-registered from CSV, alternating between two versions generated
   from different seeds. The passes run on the side pair. *)
let serve_churn (args : args) =
  let seed = args.seed in
  let t1 = serve_table seed 1 and t2a = churn_t2 seed 0 and t2b = churn_t2 seed 1 in
  let t3 = serve_table seed 3 in
  List.iter (fun (r, p) -> save r p) [ (t1, "t1.csv"); (t2a, "t2a.csv"); (t2b, "t2b.csv"); (t3, "t3.csv") ];
  let r1 = Check.table_of_relation t1 and r3 = Check.table_of_relation t3 in
  let versions = [| ("t2a.csv", Check.table_of_relation t2a, "@a"); ("t2b.csv", Check.table_of_relation t2b, "@b") |] in
  let _, r2a, _ = versions.(0) in
  let int_t = target ~left:"t1" ~right:"t2" [ r1; r2a ] in
  let side_t, _ = side_targets seed in
  let st = new_st seed in
  (* Each daemon's current t2 version. *)
  let current = Array.make setups 0 in
  let chain () = [ r1; List.nth int_t.tables 1; r3 ] in
  let ds, setup_times =
    set_up args (fun _ c ->
        retarget int_t [ r1; r2a ] "@a";
        register st c ~name:"t1" (P.From_path "t1.csv");
        register st c ~name:"t2" (P.From_path "t2a.csv");
        register st c ~name:"t3" (P.From_path "t3.csv");
        register_side st c;
        int_mix st c ~int_t ~chain_tables:(chain ());
        pass st c side_t ~r:serve_r ~domains:1;
        pass st c side_t ~r:serve_r ~domains:2)
  in
  let rounds =
    timed_rounds st ~seconds:args.seconds ds (fun k c ->
        current.(k) <- 1 - current.(k);
        let path, r2, version = versions.(current.(k)) in
        write st c ~name:"t2" ~path ~rows:churn_n2;
        retarget int_t [ r1; r2 ] version;
        for k = 1 to churn_mixes_per_write do
          int_mix ~first_read:(k = 1) st c ~int_t ~chain_tables:(chain ())
        done;
        pass st c side_t ~r:serve_r ~domains:1;
        pass st c side_t ~r:serve_r ~domains:2)
  in
  finish st ds ~setup_times ~rounds

(* batch_scan: one 16-request pass at d=1 and one at d=2 on the large
   skewed pair per round, then chain queries over b1 ⋈ b2 ⋈ b3 and
   write/first-read cycles on the side pair. *)
let batch_scan (args : args) =
  let seed = args.seed in
  let b1 = batch_table seed 1 and b2 = batch_table seed 2 and b3 = batch_table seed 3 in
  List.iter (fun (r, p) -> save r p) [ (b1, "b1.csv"); (b2, "b2.csv"); (b3, "b3.csv") ];
  let chain_tables = tables_of [ b1; b2; b3 ] in
  let bt = target ~left:"b1" ~right:"b2" (List.filteri (fun i _ -> i < 2) chain_tables) in
  let _, write_t = side_targets seed in
  let st = new_st seed in
  let side c =
    for _ = 1 to batch_side_ops do
      chain_query st c ~names:("b1", "b2", "b3") ~tables:chain_tables ~version:"@b" ~r:batch_r;
      write_then_read st c write_t
    done
  in
  let ds, setup_times =
    set_up args (fun _ c ->
        List.iter (fun n -> register st c ~name:n (P.From_path (n ^ ".csv"))) [ "b1"; "b2"; "b3" ];
        register_side st c;
        List.iter (fun s -> ignore (sample st c bt ~strategy:s ~r:batch_r ())) strategies;
        side c)
  in
  let rounds =
    timed_rounds st ~seconds:args.seconds ds (fun _ c ->
        pass ~record:true st c bt ~r:batch_r ~domains:1;
        pass ~record:true st c bt ~r:batch_r ~domains:2;
        side c)
  in
  finish st ds ~setup_times ~rounds

(* ------------------------------------------------------------------ *)
(* Law tests and negative controls                                     *)

let law_verdicts st =
  Hashtbl.fold (fun name acc l -> Check.law_tests ~name acc @ l) st.accs []
  |> List.sort (fun a b -> compare a.Check.test b.Check.test)

(* Each check must reject a tampered sample. Returns the failed
   controls' names. *)
let negative_controls st =
  let rejects f = match f () with () -> false | exception Check.Bad _ -> true in
  let fails = ref [] in
  let expect name ok = if not ok then fails := name :: !fails in
  (match st.kept_wr with
  | Some (reply, tgt, r) ->
      (* Swapped partner: the first tuple's R2 part replaced by an R2
         row of another join key. *)
      let right = List.nth tgt.tables 1 in
      let row = Array.of_list (List.hd reply.Client.rows) in
      let k = Check.key_of_value row.(1) in
      let other = ref 0 in
      while right.Check.key.(!other) = k do incr other done;
      let swapped = Array.append (Array.sub row 0 3) right.Check.rows.(!other) in
      let rows = Array.to_list swapped :: List.tl reply.Client.rows in
      expect "swapped partner" (rejects (fun () -> ignore (Check.check_reply ~str:false ~tables:tgt.tables ~r ~wor:false rows)));
      (* Wrong join_size. *)
      let detail =
        List.map
          (function "join_size", Json.Int n -> ("join_size", Json.Int (n + 1)) | kv -> kv)
          reply.Client.detail
      in
      expect "wrong join_size" (rejects (fun () -> Check.check_join_size ~tables:tgt.tables detail))
  | None -> expect "a kept WR reply" false);
  (match st.kept_wor with
  | Some (reply, tgt, r) ->
      let rows = match reply.Client.rows with a :: _ :: rest -> a :: a :: rest | l -> l in
      expect "duplicated WoR lineage"
        (rejects (fun () -> ignore (Check.check_reply ~str:false ~tables:tgt.tables ~r ~wor:true rows)))
  | None -> expect "a kept WoR reply" false);
  List.iter (fun (name, ok) -> expect name ok) (Controls.law_controls ());
  List.rev !fails

(* ------------------------------------------------------------------ *)
(* Output                                                              *)

let fmt_num v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v else Printf.sprintf "%.17g" v

let print_result ~correct ~attempted ~failed metrics =
  (match List.find_opt (fun (_, v, _) -> Float.is_nan v) metrics with
  | Some (name, _, _) ->
      Printf.eprintf "perfbench: no measurement for %s\n" name;
      exit 1
  | None -> ());
  let m =
    List.map (fun (name, v, unit) -> Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (fmt_num v) unit) metrics
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!" correct attempted failed
    (String.concat ", " m)

(* The geometric mean, over the request kinds of the sample population,
   of each kind's median latency. A pooled median of the population
   would fall in a gap between two kinds' latencies (fast int-keyed and
   slow string-keyed kernels) and jump across it from run to run. *)
let kind_gmean st =
  let logs = Hashtbl.fold (fun _ l acc -> log (median !l) :: acc) st.by_kind [] in
  if logs = [] then nan else exp (List.fold_left ( +. ) 0. logs /. float_of_int (List.length logs))

(* Operations answered per second: a round's operations over the median
   round time. Every round sends the same operations, and the median
   leaves out rounds that a burst of host load slowed. *)
let end_to_end o =
  let st = o.st in
  let rounds = List.concat (Array.to_list o.round_s) in
  [
    ("setup_s", median o.setup_times, "s");
    ("sample_p50_gm_ms", kind_gmean st, "ms");
    ("throughput_rps", float_of_int st.ok /. float_of_int (List.length rounds) /. median rounds, "requests/s");
    ("query_p50_ms", median st.query_ms, "ms");
    ("write_p50_ms", median st.write_ms, "ms");
    ("first_read_p50_ms", median st.first_read_ms, "ms");
    ("pass_d1_s", median st.pass_d1, "s");
    ("pass_d2_s", median st.pass_d2, "s");
    ("rss_peak_mb", median o.rss_mb, "MB");
  ]

let cache_counters o =
  let int k =
    List.map (fun c -> match List.assoc_opt k c with Some (Json.Int n) -> float_of_int n | _ -> nan) o.cache
  in
  let sum k = List.fold_left ( +. ) 0. (int k) in
  let hits = sum "hits" and misses = sum "misses" in
  [
    ("cache.hits", hits, "count");
    ("cache.misses", misses, "count");
    ("cache.hit_ratio", hits /. (hits +. misses), "ratio");
    ("cache.bytes", median (int "bytes"), "bytes");
    ("server.outside_kernel_ms", median o.st.outside_ms, "ms");
  ]

let () =
  let args = parse_args () in
  Sys.set_signal Sys.sigterm (Sys.Signal_handle (fun _ -> exit 143));
  Sys.set_signal Sys.sigint (Sys.Signal_handle (fun _ -> exit 130));
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let workload =
    match args.workload with
    | "serve_warm" -> serve_warm
    | "serve_churn" -> serve_churn
    | "batch_scan" -> batch_scan
    | w ->
        Printf.eprintf "perfbench: unknown workload %S (serve_warm, serve_churn, batch_scan)\n" w;
        exit 2
  in
  let o = workload args in
  let st = o.st in
  let verdicts = law_verdicts st in
  List.iter
    (fun v ->
      if not v.Check.pass then
        note_error st (Printf.sprintf "%s: chi2 %.1f > %.1f (df %d)" v.Check.test v.stat v.critical v.df))
    verdicts;
  let controls = negative_controls st in
  List.iter (fun n -> note_error st ("negative control not rejected: " ^ n)) controls;
  Printf.eprintf
    "perfbench: %s seed %d: %d operations attempted, %d failed; %d samples, pooled p50 %.2f ms, p99 \
     %.2f ms; %d law tests, %d controls failed\n"
    args.workload args.seed st.attempted st.failed (List.length st.sample_ms) (median st.sample_ms)
    (percentile 0.99 st.sample_ms)
    (List.length verdicts) (List.length controls);
  Hashtbl.fold (fun k l acc -> (k, !l) :: acc) st.by_kind []
  |> List.sort compare
  |> List.iter (fun (k, l) ->
         Printf.eprintf "perfbench:   %-22s n %4d  p50 %8.3f  p90 %8.3f ms\n" k (List.length l) (median l)
           (percentile 0.9 l));
  let mbs l = String.concat " " (List.map (Printf.sprintf "%.1f") l) in
  Printf.eprintf "perfbench: per daemon: set-up %s s; median round %s s; peak RSS %s MB after %d rounds, %s MB at the end\n"
    (String.concat " " (List.map (Printf.sprintf "%.3f") o.setup_times))
    (String.concat " " (Array.to_list (Array.map (fun l -> Printf.sprintf "%.3f" (median l)) o.round_s)))
    (mbs o.rss_mb) rss_rounds (mbs o.rss_end_mb);
  if st.pass_d1 <> [] then
    Printf.eprintf "perfbench: passes d=1 %s; d=2 %s (s)\n"
      (String.concat " " (List.rev_map (Printf.sprintf "%.3f") st.pass_d1))
      (String.concat " " (List.rev_map (Printf.sprintf "%.3f") st.pass_d2));
  let metrics =
    if args.trace then cache_counters o @ Probe.run ~seed:args.seed ~workload:args.workload
    else end_to_end o
  in
  List.iter (fun (n, v, u) -> Printf.eprintf "  %-28s %14.4f %s\n" n v u) (if args.trace then end_to_end o @ metrics else metrics);
  print_result ~correct:(st.errors = []) ~attempted:st.attempted ~failed:st.failed metrics
