(* Negative controls for the law tests: a sampler that breaks the
   per-tuple law must be rejected, and a sampler that keeps it must
   pass. They run on a small fixed pair, so they neither depend on the
   run's seed nor cost measurable time. *)

module Prng = Rsj_util.Prng

let draws = 4_000

let law_controls () =
  let l = Check.table_of_relation (Inputs.gen ~seed:7 ~i:31 ~name:"c1" ~rows:300 ~domain:30) in
  let r = Check.table_of_relation (Inputs.gen ~seed:7 ~i:32 ~name:"c2" ~rows:1_200 ~domain:30) in
  let weights = Check.chain_weights [ l; r ] in
  let group t k = List.filter (fun i -> t.Check.key.(i) = k) (List.init (Array.length t.Check.key) Fun.id) in
  (* The join's lineage pairs, sorted by join key. *)
  let universe =
    Array.of_list
      (List.concat_map
         (fun k ->
           let g2 = group r k in
           List.concat_map (fun i1 -> List.map (fun i2 -> (i1, i2)) g2) (group l k))
         (List.init (Array.length weights) Fun.id))
  in
  let first_partner = Hashtbl.create 64 in
  Array.iteri (fun i k -> if r.Check.rank.(i) = 0 then Hashtbl.replace first_partner k i) r.Check.key;
  let verdicts pairs =
    let acc = Check.acc_create weights in
    Array.iter (fun (i1, i2) -> Check.observe_pair acc ~right:r [ i1; i2 ]) pairs;
    (Check.marginal_test ~name:"control" acc, Check.rank_test ~name:"control" acc)
  in
  let passes = function Some v -> v.Check.pass | None -> false in
  let rejects = function Some v -> not v.Check.pass | None -> false in
  let rng = Prng.create ~seed:0xC0DE () in
  let uniform = Array.init draws (fun _ -> universe.(Prng.int rng (Array.length universe))) in
  let biased = Rsj_core.Negative.biased_wr_draw rng ~universe ~r:draws in
  let firsts = Array.map (fun (i1, _) -> (i1, Hashtbl.find first_partner l.Check.key.(i1))) uniform in
  let um, ur = verdicts uniform in
  let bm, _ = verdicts biased in
  let fm, fr = verdicts firsts in
  [
    ("uniform sampler passes the marginal test", passes um);
    ("uniform sampler passes the partner-rank test", passes ur);
    ("Negative.biased_wr_draw rejected by the marginal test", rejects bm);
    ("first-R2-partner sampler passes the marginal test", passes fm);
    ("first-R2-partner sampler rejected by the partner-rank test", rejects fr);
  ]
