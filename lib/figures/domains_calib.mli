(** Real-multicore calibration study (the [domains] bench section).

    Runs a spread of registry workloads on the DES ([consequence-ic])
    and on {!Runtime.Domains_rt} at 1/2/4 worker domains, then reports:

    - a witness cross-check (every domains run must reproduce the DES
      witness byte-for-byte);
    - measured wall-clock and self-speedup per domain count, with the
      machine's available core count as the honest physical bound;
    - a per-state calibration table pairing the cost model's simulated
      nanoseconds (chunk work, commit, update, the wait states) with the
      wall-clock nanoseconds the domains backend measured for the same
      states. *)

val run : ?threads:int -> ?seed:int -> unit -> Fig_output.t
