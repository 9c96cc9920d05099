type suite = Phoenix | Parsec | Splash2 | Service

let suite_name = function
  | Phoenix -> "phoenix"
  | Parsec -> "parsec"
  | Splash2 -> "splash-2"
  | Service -> "service"

type entry = {
  suite : suite;
  program : Api.t;
  make : ?scale:float -> unit -> Api.t;
}

let entry suite (make : ?scale:float -> unit -> Api.t) =
  { suite; program = make (); make }

(* A KV service traffic shape over the deterministic transactional
   store; the program is named after the shape ([kv_zipf], ...). *)
let kv shape =
  entry Service (fun ?(scale = 1.0) () ->
      Kv.Service.workload ~requests:(Wl_util.scaled scale Kv.Service.default_requests) shape)

let all =
  [
    entry Phoenix Histogram.make;
    entry Phoenix Kmeans.make;
    entry Phoenix Linear_regression.make;
    entry Phoenix Matrix_multiply.make;
    entry Phoenix Pca.make;
    entry Phoenix Reverse_index.make;
    entry Phoenix String_match.make;
    entry Phoenix Word_count.make;
    entry Parsec Blackscholes.make;
    entry Parsec Canneal.make;
    entry Parsec Dedup.make;
    entry Parsec Ferret.make;
    entry Parsec Swaptions.make;
    entry Splash2 Barnes.make;
    entry Splash2 Lu_cb.make;
    entry Splash2 Lu_ncb.make;
    entry Splash2 Ocean_cp.make;
    entry Splash2 Water_nsquared.make;
    entry Splash2 Water_spatial.make;
    kv Kv.Traffic.Uniform;
    kv Kv.Traffic.Zipf;
    kv Kv.Traffic.Hot;
    kv Kv.Traffic.Read_mostly;
    kv Kv.Traffic.Write_heavy;
    kv Kv.Traffic.Scan;
  ]

let names = List.map (fun e -> e.program.Api.name) all

let kv_set =
  List.filter_map
    (fun e -> if e.suite = Service then Some e.program.Api.name else None)
    all

let find name =
  match List.find_opt (fun e -> e.program.Api.name = name) all with
  | Some e -> e
  | None -> raise Not_found

let hardest_five = [ "ocean_cp"; "lu_ncb"; "ferret"; "water_nsquared"; "canneal" ]
let fig11_set = [ "ocean_cp"; "lu_ncb"; "ferret"; "kmeans"; "water_nsquared"; "canneal" ]

let fig13_set =
  [ "ocean_cp"; "lu_ncb"; "ferret"; "kmeans"; "water_nsquared"; "canneal"; "reverse_index"; "lu_cb" ]

let fig14_set = [ "reverse_index"; "ferret" ]

let fig15_set =
  [
    "string_match";
    "ocean_cp";
    "lu_cb";
    "lu_ncb";
    "canneal";
    "water_nsquared";
    "water_spatial";
    "kmeans";
    "ferret";
    "dedup";
    "reverse_index";
  ]

let fig16_set =
  [
    "canneal";
    "ocean_cp";
    "lu_ncb";
    "lu_cb";
    "water_nsquared";
    "water_spatial";
    "kmeans";
    "ferret";
    "dedup";
    "barnes";
    "pca";
    "word_count";
  ]
