(* Independent output checks. Every reference here is computed from the
   rows the benchmark generated itself, never from the program's
   structures: lineage lookups, the join size Σ m1(v)·m2(v), and the two
   chi-square tests of the per-tuple law (join-value marginal, R2 partner
   rank within its value group). The chi-square critical values come
   from this file's own incomplete-gamma code. *)

open Rsj_relation

exception Bad of string

let bad fmt = Printf.ksprintf (fun s -> raise (Bad s)) fmt

(* ------------------------------------------------------------------ *)
(* Reference tables                                                    *)

(* One generated base table (schema rid, col2, pad; rids are a
   permutation of 1..n). [str] re-types the join key as its decimal
   string, which is how the string-keyed copy is registered. *)
type table = {
  rows : Value.t array array;
  row_of_rid : int array;  (** rid -> row index *)
  key : int array;  (** join key per row *)
  rank : int array;  (** rank of the row among rows sharing its key, by rid *)
  mult : int array;  (** key -> multiplicity *)
}

let key_of_value = function
  | Value.Int k -> k
  | Value.Str s -> ( match int_of_string_opt s with Some k -> k | None -> bad "key %S is not a number" s)
  | v -> bad "unexpected key %s" (Value.to_string v)

let table_of_rows rows =
  let n = Array.length rows in
  let key = Array.map (fun r -> key_of_value r.(1)) rows in
  let domain = Array.fold_left max 0 key in
  let mult = Array.make (domain + 1) 0 in
  Array.iter (fun k -> mult.(k) <- mult.(k) + 1) key;
  let row_of_rid = Array.make (n + 1) (-1) in
  Array.iteri
    (fun i r ->
      match r.(0) with
      | Value.Int rid when rid >= 1 && rid <= n -> row_of_rid.(rid) <- i
      | v -> bad "generated rid %s out of range" (Value.to_string v))
    rows;
  (* Ranks: walk rids in increasing order, numbering rows per key. *)
  let rank = Array.make n 0 and seen = Array.make (domain + 1) 0 in
  for rid = 1 to n do
    let i = row_of_rid.(rid) in
    rank.(i) <- seen.(key.(i));
    seen.(key.(i)) <- seen.(key.(i)) + 1
  done;
  { rows; row_of_rid; key; rank; mult }

let table_of_relation rel = table_of_rows (Relation.to_array rel)

let mult t k = if k < Array.length t.mult then t.mult.(k) else 0

(* Σ_v Π_i m_i(v) over a chain of tables joined on the same key. *)
let chain_weights tables =
  let domain = List.fold_left (fun acc t -> max acc (Array.length t.mult - 1)) 0 tables in
  Array.init (domain + 1) (fun k ->
      List.fold_left (fun acc t -> acc *. float_of_int (mult t k)) 1. tables)

let join_size tables = Array.fold_left ( +. ) 0. (chain_weights tables)

(* ------------------------------------------------------------------ *)
(* Tuple checks                                                        *)

let equal_row a b = Array.length a = Array.length b && Array.for_all2 Value.equal a b

(* The row of [t] that the sub-array [cells] claims to be, as the index
   into [t.rows]; [str] says the key column travels as a string. *)
let locate ~str t cells =
  let rid = match cells.(0) with Value.Int r -> r | v -> bad "rid %s is not an int" (Value.to_string v) in
  if rid < 1 || rid >= Array.length t.row_of_rid then bad "rid %d is not a generated row" rid;
  let i = t.row_of_rid.(rid) in
  let want = t.rows.(i) in
  let want = if str then [| want.(0); Value.Str (string_of_int t.key.(i)); want.(2) |] else want in
  if not (equal_row want cells) then
    bad "tuple part (%s) is not the generated row with rid %d"
      (String.concat ", " (Array.to_list (Array.map Value.to_string cells)))
      rid;
  i

(* A returned row of R1 ⋈ R2 (⋈ R3 ...): each three-column part must be
   a generated row, and all parts share the join key. Returns the row
   indices of the parts. *)
let lineage ~str tables row =
  let row = Array.of_list row in
  let k = List.length tables in
  if Array.length row <> 3 * k then bad "tuple has %d cells, want %d" (Array.length row) (3 * k);
  let idx = List.mapi (fun j t -> locate ~str t (Array.sub row (3 * j) 3)) tables in
  (match (tables, idx) with
  | t0 :: _, i0 :: _ ->
      List.iter2
        (fun t i -> if t.key.(i) <> t0.key.(i0) then bad "join keys differ (%d vs %d)" t0.key.(i0) t.key.(i))
        tables idx
  | _ -> ());
  idx

(* Size and lineage-distinctness of one reply. *)
let check_reply ~str ~tables ~r ~wor rows =
  let j = join_size tables in
  let want = if wor then int_of_float (Float.min (float_of_int r) j) else r in
  if List.length rows <> want then bad "reply has %d tuples, want %d" (List.length rows) want;
  let lin = List.map (lineage ~str tables) rows in
  (if wor then
     let seen = Hashtbl.create (2 * want) in
     List.iter
       (fun l ->
         if Hashtbl.mem seen l then bad "WoR reply repeats a lineage";
         Hashtbl.add seen l ())
       lin);
  lin

let check_join_size ~tables detail =
  let want = join_size tables in
  match List.assoc_opt "join_size" detail with
  | Some (Rsj_obs.Json.Int n) when float_of_int n = want -> ()
  | Some v -> bad "join_size %s, reference %.0f" (Rsj_obs.Json.to_string v) want
  | None -> bad "done frame has no join_size"

(* ------------------------------------------------------------------ *)
(* Chi-square critical values (upper tail), computed here             *)

let log_gamma x =
  (* Lanczos, g = 7. *)
  let c =
    [| 0.99999999999980993; 676.5203681218851; -1259.1392167224028; 771.32342877765313;
       -176.61502916214059; 12.507343278686905; -0.13857109526572012;
       9.9843695780195716e-6; 1.5056327351493116e-7 |]
  in
  let x = x -. 1. in
  let a = ref c.(0) in
  for i = 1 to 8 do
    a := !a +. (c.(i) /. (x +. float_of_int i))
  done;
  let t = x +. 7.5 in
  (0.5 *. log (2. *. Float.pi)) +. ((x +. 0.5) *. log t) -. t +. log !a

(* Regularized upper incomplete gamma Q(a, x). *)
let gamma_q a x =
  if x <= 0. then 1.
  else if x < a +. 1. then begin
    let sum = ref (1. /. a) and term = ref (1. /. a) and n = ref 1. in
    while Float.abs !term > Float.abs !sum *. 1e-15 && !n < 1e5 do
      term := !term *. x /. (a +. !n);
      sum := !sum +. !term;
      n := !n +. 1.
    done;
    1. -. (!sum *. exp ((a *. log x) -. x -. log_gamma a))
  end
  else begin
    (* Lentz continued fraction. *)
    let tiny = 1e-300 in
    let b = ref (x +. 1. -. a) in
    let c = ref (1. /. tiny) and d = ref (1. /. !b) in
    let h = ref !d and i = ref 1. and fin = ref false in
    while (not !fin) && !i < 1e5 do
      let an = -. !i *. (!i -. a) in
      b := !b +. 2.;
      d := (an *. !d) +. !b;
      if Float.abs !d < tiny then d := tiny;
      c := !b +. (an /. !c);
      if Float.abs !c < tiny then c := tiny;
      d := 1. /. !d;
      let del = !d *. !c in
      h := !h *. del;
      if Float.abs (del -. 1.) < 1e-15 then fin := true;
      i := !i +. 1.
    done;
    exp ((a *. log x) -. x -. log_gamma a) *. !h
  end

let chi2_sf ~df x = gamma_q (float_of_int df /. 2.) (x /. 2.)

(* The x with P(χ²_df > x) = alpha, by bisection on the survival
   function. *)
let chi2_critical ~df ~alpha =
  let hi = ref (float_of_int df +. 10.) in
  while chi2_sf ~df !hi > alpha do
    hi := !hi *. 2.
  done;
  let lo = ref 0. in
  for _ = 1 to 200 do
    let mid = (!lo +. !hi) /. 2. in
    if chi2_sf ~df mid > alpha then lo := mid else hi := mid
  done;
  !hi

(* Every law test in a run uses this significance. With a few dozen
   tests per run the chance of a false rejection stays below 1e-4. *)
let alpha = 1e-6

type verdict = { test : string; stat : float; df : int; critical : float; pass : bool }

let chi2 ~test observed expected =
  let df = Array.length observed - 1 in
  if df < 1 then None
  else
    let stat = ref 0. in
    Array.iteri
      (fun i o ->
        let e = expected.(i) in
        if e > 0. then stat := !stat +. (((o -. e) ** 2.) /. e)
        else if o > 0. then stat := infinity)
      observed;
    let critical = chi2_critical ~df ~alpha in
    Some { test; stat = !stat; df; critical; pass = !stat <= critical }

(* ------------------------------------------------------------------ *)
(* Law accumulators                                                    *)

let rank_bins = 8

(* Draws of one stream (one strategy and semantics on one pair) over a
   whole run: join-key counts, and the R2 partner rank histogram with
   its expectation conditional on the drawn keys. *)
type acc = {
  weights : float array;  (** key -> Π m_i(key), the marginal law *)
  counts : float array;  (** key -> draws *)
  rank_obs : float array;
  rank_exp : float array;
  mutable draws : int;
}

let acc_create weights =
  {
    weights;
    counts = Array.make (Array.length weights) 0.;
    rank_obs = Array.make rank_bins 0.;
    rank_exp = Array.make rank_bins 0.;
    draws = 0;
  }

(* Record one draw with join key [k]; [partner] is (rank, m2(k)) of the
   R2 row when the rank test applies. *)
let observe acc ~key ?partner () =
  if key < 0 || key >= Array.length acc.counts || acc.weights.(key) = 0. then
    bad "drawn key %d lies outside the join" key;
  acc.counts.(key) <- acc.counts.(key) +. 1.;
  acc.draws <- acc.draws + 1;
  match partner with
  | Some (rank, m) when m >= 2 ->
      acc.rank_obs.(rank * rank_bins / m) <- acc.rank_obs.(rank * rank_bins / m) +. 1.;
      (* Exact conditional expectation: ranks of the group per bin. *)
      for b = 0 to rank_bins - 1 do
        let lo = ((b * m) + rank_bins - 1) / rank_bins and hi = (((b + 1) * m) + rank_bins - 1) / rank_bins in
        acc.rank_exp.(b) <- acc.rank_exp.(b) +. (float_of_int (hi - lo) /. float_of_int m)
      done
  | _ -> ()

(* Observe a 2-way lineage (R1 row index, R2 row index). *)
let observe_pair acc ~right = function
  | [ _; i2 ] -> observe acc ~key:right.key.(i2) ~partner:(right.rank.(i2), right.mult.(right.key.(i2))) ()
  | _ -> bad "pair lineage expected"

let observe_chain acc ~first = function
  | i1 :: _ -> observe acc ~key:first.key.(i1) ()
  | [] -> bad "empty lineage"

(* Marginal test: keys grouped into bins of roughly equal law mass, at
   least ~50 expected draws per bin, at most 40 bins. *)
let marginal_test ~name acc =
  let n = float_of_int acc.draws in
  let total = Array.fold_left ( +. ) 0. acc.weights in
  let bins = max 2 (min 40 (acc.draws / 50)) in
  let order =
    List.filter (fun k -> acc.weights.(k) > 0.) (List.init (Array.length acc.weights) Fun.id)
    |> List.sort (fun a b -> compare acc.weights.(b) acc.weights.(a))
  in
  let obs = ref [] and exp = ref [] in
  let co = ref 0. and ce = ref 0. in
  List.iter
    (fun k ->
      co := !co +. acc.counts.(k);
      ce := !ce +. (n *. acc.weights.(k) /. total);
      if !ce >= n /. float_of_int bins then begin
        obs := !co :: !obs;
        exp := !ce :: !exp;
        co := 0.;
        ce := 0.
      end)
    order;
  (if !ce > 0. then
     match (!obs, !exp) with
     | o :: ot, e :: et when !ce < 5. ->
         obs := (o +. !co) :: ot;
         exp := (e +. !ce) :: et
     | _ ->
         obs := !co :: !obs;
         exp := !ce :: !exp);
  chi2 ~test:(name ^ " marginal") (Array.of_list !obs) (Array.of_list !exp)

let rank_test ~name acc =
  if Array.fold_left ( +. ) 0. acc.rank_obs < 40. then None
  else chi2 ~test:(name ^ " partner-rank") acc.rank_obs acc.rank_exp

let law_tests ~name acc = List.filter_map Fun.id [ marginal_test ~name acc; rank_test ~name acc ]
