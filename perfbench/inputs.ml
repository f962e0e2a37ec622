(* Input make-up of every workload. All tables are §8.1 Zipf tables
   (rid, col2, pad) from lib/workload, generated from the run's --seed;
   the daemon only ever sees the CSV files or inline rows made here. *)

open Rsj_relation
module Z = Rsj_workload.Zipf_tables

(* serve_warm / serve_churn: the read-mix pair and the chain's third
   table. *)
let serve_n1 = 20_000
let serve_n2 = 80_000
let serve_n3 = 20_000
let serve_domain = 2_000
let serve_r = 256

(* serve_churn re-registers t2 between two versions of this size. With
   the 80 000-row t2 of serve_warm the first read after a write ranged
   60-185 ms within one run and its median spread 0.30 across seeds. *)
let churn_n2 = 20_000

(* batch_scan: the skewed large-join pair and its chain table. *)
let batch_n1 = 20_000
let batch_n2 = 5_000
let batch_n3 = 5_000
let batch_domain = 1_000
let batch_r = 1_000

(* The side pair: a small pair carrying the operations a workload's own
   mix lacks (strategy passes in the serve workloads, the write and
   first-read cycle in serve_warm and batch_scan). *)
let side_n1 = 2_000
let side_n2 = 8_000
let side_domain = 200

let strategies = [ "naive"; "olken"; "stream"; "group"; "fps"; "index"; "count"; "hybrid-count" ]
let scan_strategies = [ "stream"; "group"; "count"; "olken" ]

(* The bag-semantics pair R1 = {1,1,2}, R2 = {1,2}: J = {(1,1),(1,1),(2,2)}. *)
let bag_cols = [ ("col2", Value.T_int) ]
let bag_left = [ [ Value.Int 1 ]; [ Value.Int 1 ]; [ Value.Int 2 ] ]
let bag_right = [ [ Value.Int 1 ]; [ Value.Int 2 ] ]

let bag_join =
  [ [ Value.Int 1; Value.Int 1 ]; [ Value.Int 1; Value.Int 1 ]; [ Value.Int 2; Value.Int 2 ] ]

let chain_sql ~names:(a, b, c) r =
  Printf.sprintf "SELECT * FROM %s, %s, %s WHERE %s.col2 = %s.col2 AND %s.col2 = %s.col2 SAMPLE %d" a b
    c a b b c r

let sub_seed seed i = ((seed * 1_000_003) + (i * 7_919) + 17) land 0x3FFF_FFFF

let gen ~seed ~i ~name ~rows ~domain = Z.make ~seed:(sub_seed seed i) ~name ~rows ~z:1. ~domain ()

(* Table i of each workload. *)
let serve_table seed i =
  match i with
  | 1 -> gen ~seed ~i ~name:"t1" ~rows:serve_n1 ~domain:serve_domain
  | 2 -> gen ~seed ~i ~name:"t2" ~rows:serve_n2 ~domain:serve_domain
  | _ -> gen ~seed ~i ~name:"t3" ~rows:serve_n3 ~domain:serve_domain

(* serve_churn's two t2 versions, v = 0 or 1, from different seeds. *)
let churn_t2 seed v = gen ~seed ~i:(4 + v) ~name:"t2" ~rows:churn_n2 ~domain:serve_domain

let batch_table seed i =
  match i with
  | 1 -> gen ~seed ~i:21 ~name:"b1" ~rows:batch_n1 ~domain:batch_domain
  | 2 -> gen ~seed ~i:22 ~name:"b2" ~rows:batch_n2 ~domain:batch_domain
  | _ -> gen ~seed ~i:23 ~name:"b3" ~rows:batch_n3 ~domain:batch_domain

let side_table seed i =
  if i = 1 then gen ~seed ~i:11 ~name:"s1" ~rows:side_n1 ~domain:side_domain
  else gen ~seed ~i:12 ~name:"s2" ~rows:side_n2 ~domain:side_domain

(* The string-keyed copy: the same rows with col2 re-typed as its
   decimal string, registered inline. *)
let string_schema = [ ("rid", Value.T_int); ("col2", Value.T_str); ("pad", Value.T_str) ]

let string_keyed rel =
  Array.to_list
    (Array.map
       (fun t ->
         match t with
         | [| rid; Value.Int k; pad |] -> [ rid; Value.Str (string_of_int k); pad ]
         | _ -> invalid_arg "string_keyed: not a Zipf table row")
       (Relation.to_array rel))
