(* 64 power-of-two buckets cover the full non-negative int range:
   bucket 0 holds values <= 1, bucket i holds (2^(i-1), 2^i]. *)
let nbuckets = 63

(* The bit length of [v - 1] is the least [i] with [v <= 2^i]; six
   halving steps find it for any int, and it is at most 62 because
   [v <= max_int = 2^62 - 1]. *)
let bucket_of v =
  if v <= 1 then 0
  else begin
    let x = v - 1 in
    let n = if x lsr 32 <> 0 then 32 else 0 in
    let x = x lsr n in
    let b = if x lsr 16 <> 0 then 16 else 0 in
    let n = n + b and x = x lsr b in
    let b = if x lsr 8 <> 0 then 8 else 0 in
    let n = n + b and x = x lsr b in
    let b = if x lsr 4 <> 0 then 4 else 0 in
    let n = n + b and x = x lsr b in
    let b = if x lsr 2 <> 0 then 2 else 0 in
    let n = n + b and x = x lsr b in
    let b = if x lsr 1 <> 0 then 1 else 0 in
    n + b + (x lsr b)
  end

let bucket_upper i = if i >= 62 then max_int else 1 lsl i

type hist_state = {
  counts : int array;
  mutable hcount : int;
  mutable hsum : int;
  mutable hmin : int;
  mutable hmax : int;
}

type t = {
  counters : (string, int ref) Hashtbl.t;
  hists : (string, hist_state) Hashtbl.t;
}

let create () = { counters = Hashtbl.create 16; hists = Hashtbl.create 16 }

let incr t ?(by = 1) name =
  match Hashtbl.find_opt t.counters name with
  | Some r -> r := !r + by
  | None -> Hashtbl.replace t.counters name (ref by)

let hist_of t name =
  match Hashtbl.find_opt t.hists name with
  | Some h -> h
  | None ->
      let h =
        { counts = Array.make nbuckets 0; hcount = 0; hsum = 0; hmin = max_int; hmax = 0 }
      in
      Hashtbl.replace t.hists name h;
      h

let observe_state h name v =
  if v < 0 then invalid_arg (Printf.sprintf "Metrics.observe %s: negative value %d" name v);
  let b = bucket_of v in
  h.counts.(b) <- h.counts.(b) + 1;
  h.hcount <- h.hcount + 1;
  h.hsum <- h.hsum + v;
  if v < h.hmin then h.hmin <- v;
  if v > h.hmax then h.hmax <- v

let observe t name v = observe_state (hist_of t name) name v

(* Interned handles: one string-keyed lookup on first use, direct state
   updates after.  Registration is lazy so a handle that is never
   recorded to creates nothing — snapshots stay identical to the
   string-keyed path. *)

type counter = { ct : t; ckey : string; mutable cref : int ref option }
type histogram = { htt : t; hkey : string; mutable hstate : hist_state option }

let counter t name = { ct = t; ckey = name; cref = None }
let histogram t name = { htt = t; hkey = name; hstate = None }

let count c by =
  match c.cref with
  | Some r -> r := !r + by
  | None -> (
      match Hashtbl.find_opt c.ct.counters c.ckey with
      | Some r ->
          c.cref <- Some r;
          r := !r + by
      | None ->
          let r = ref by in
          c.cref <- Some r;
          Hashtbl.replace c.ct.counters c.ckey r)

let record h v =
  match h.hstate with
  | Some st -> observe_state st h.hkey v
  | None ->
      let st = hist_of h.htt h.hkey in
      h.hstate <- Some st;
      observe_state st h.hkey v

type hist = {
  hname : string;
  count : int;
  sum : int;
  min_v : int;
  max_v : int;
  buckets : (int * int) list;
}

type snapshot = { counters : (string * int) list; hists : hist list }

let snapshot (t : t) =
  let counters =
    Hashtbl.fold (fun k r acc -> (k, !r) :: acc) t.counters []
    |> List.sort (fun (a, _) (b, _) -> compare a b)
  in
  let hists =
    Hashtbl.fold
      (fun k h acc ->
        let buckets = ref [] in
        for i = nbuckets - 1 downto 0 do
          if h.counts.(i) > 0 then buckets := (bucket_upper i, h.counts.(i)) :: !buckets
        done;
        {
          hname = k;
          count = h.hcount;
          sum = h.hsum;
          min_v = (if h.hcount = 0 then 0 else h.hmin);
          max_v = h.hmax;
          buckets = !buckets;
        }
        :: acc)
      t.hists []
    |> List.sort (fun a b -> compare a.hname b.hname)
  in
  { counters; hists }

let percentile h q =
  if h.count = 0 then Float.nan
  else begin
    let rank = q *. float_of_int h.count in
    let rec go cum = function
      | [] -> float_of_int h.max_v
      | (upper, n) :: rest ->
          let cum' = cum + n in
          if float_of_int cum' >= rank then begin
            (* Interpolate within this bucket, clamped by the exact
               observed extremes. *)
            let lo = if upper <= 1 then 0.0 else float_of_int upper /. 2.0 in
            let hi = float_of_int (min upper h.max_v) in
            let lo = Float.max lo (float_of_int h.min_v) in
            let lo = Float.min lo hi in
            let frac =
              if n = 0 then 0.0 else (rank -. float_of_int cum) /. float_of_int n
            in
            lo +. (Float.max 0.0 (Float.min 1.0 frac) *. (hi -. lo))
          end
          else go cum' rest
    in
    go 0 h.buckets
  end

let mean h = if h.count = 0 then Float.nan else float_of_int h.sum /. float_of_int h.count
let find_hist s name = List.find_opt (fun h -> h.hname = name) s.hists
let counter_value s name = match List.assoc_opt name s.counters with Some v -> v | None -> 0

let hist_to_json h =
  Json.Obj
    [
      ("name", Json.String h.hname);
      ("count", Json.Int h.count);
      ("sum", Json.Int h.sum);
      ("min", Json.Int h.min_v);
      ("max", Json.Int h.max_v);
      ("mean", Json.Float (if h.count = 0 then 0.0 else mean h));
      ("p50", Json.Float (if h.count = 0 then 0.0 else percentile h 0.50));
      ("p95", Json.Float (if h.count = 0 then 0.0 else percentile h 0.95));
      ("p99", Json.Float (if h.count = 0 then 0.0 else percentile h 0.99));
      ("p999", Json.Float (if h.count = 0 then 0.0 else percentile h 0.999));
      ( "buckets",
        Json.List
          (List.map (fun (le, n) -> Json.Obj [ ("le", Json.Int le); ("n", Json.Int n) ]) h.buckets)
      );
    ]

let to_json s =
  Json.Obj
    [
      ("counters", Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) s.counters));
      ("histograms", Json.List (List.map hist_to_json s.hists));
    ]

let pp fmt s =
  Format.fprintf fmt "@[<v>";
  if s.counters <> [] then begin
    Format.fprintf fmt "counters:@,";
    List.iter (fun (k, v) -> Format.fprintf fmt "  %-28s %d@," k v) s.counters
  end;
  if s.hists <> [] then begin
    Format.fprintf fmt "histograms:@,";
    List.iter
      (fun h ->
        Format.fprintf fmt
          "  %-28s n=%-7d mean=%-12.1f p50=%-12.1f p95=%-12.1f p99=%-12.1f p999=%-12.1f max=%d@,"
          h.hname h.count (mean h) (percentile h 0.50) (percentile h 0.95) (percentile h 0.99)
          (percentile h 0.999) h.max_v)
      s.hists
  end;
  Format.fprintf fmt "@]"
