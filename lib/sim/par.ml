let jobs_ref = ref 1

let set_jobs n = jobs_ref := max 1 n
let jobs () = !jobs_ref

let default_jobs () = max 1 (Domain.recommended_domain_count ())

let map_array f arr =
  let n = Array.length arr in
  let k = min !jobs_ref n in
  if k <= 1 then Array.map f arr
  else begin
    let results = Array.make n None in
    let err = Atomic.make None in
    let next = Atomic.make 0 in
    let worker () =
      let continue = ref true in
      while !continue do
        let i = Atomic.fetch_and_add next 1 in
        if i >= n || Atomic.get err <> None then continue := false
        else
          match f arr.(i) with
          | r -> results.(i) <- Some r
          | exception e -> ignore (Atomic.compare_and_set err None (Some e))
      done
    in
    let domains = Array.init (k - 1) (fun _ -> Domain.spawn worker) in
    (* The calling domain is the k-th worker; join the rest even if it
       trips an exception so no domain outlives the call. *)
    Fun.protect ~finally:(fun () -> Array.iter Domain.join domains) worker;
    (match Atomic.get err with Some e -> raise e | None -> ());
    Array.map (function Some x -> x | None -> assert false) results
  end

let map_list f l = Array.to_list (map_array f (Array.of_list l))

let concat_map f l = List.concat (map_list f l)
