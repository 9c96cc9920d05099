(* The exported surface of lib/.  Every [val] in lib/*/*.mli must have a
   caller outside its own module, in lib/, bin/, bench/, examples/ or
   test/; every optional argument of one must be passed by one of those
   callers; and the number of exports that only test/ calls must not
   grow.

   The scan is conservative: it may miss a dead export, but it never
   fails on a live one.  It reads the .mli files with the compiler's own
   parser and every .ml file with its lexer (so comments and strings are
   not uses), and counts as a use of [Lib.M.v]:
   - any path ending in [M.v], unless its qualifier is another library;
   - [X.v], where the file binds [module X = ... M];
   - a bare [v] anywhere in a file that opens [M] ([open], [include],
     [let open] or a local [M.( ... )]).

   Run [test_surface.exe -- test exports --verbose] to print the lists. *)

type export = {
  lib : string;  (** capitalised library name, e.g. ["Sim"] *)
  modname : string;  (** e.g. ["Vec"] *)
  file : string;  (** the module's implementation, relative to the root *)
  name : string;
  optionals : string list;
}

type tok =
  | U of string
  | L of string
  | Label of string
  | Dot
  | Open
  | Include
  | Module
  | Eq
  | Lparen
  | Other

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* --- Sources ------------------------------------------------------------ *)

(* The test runs in _build/default/test/surface under [dune runtest] and in
   the repository root under [dune exec]; both have the source dirs. *)
let root =
  let is_root d =
    List.for_all (fun s -> Sys.file_exists (Filename.concat d s)) [ "lib"; "test"; "bin" ]
  in
  let rec up d n =
    if is_root d then d
    else if n = 0 then failwith "test_surface: no lib/ test/ bin/ above the working directory"
    else up (Filename.dirname d) (n - 1)
  in
  up (Sys.getcwd ()) 4

let rec files_under dir ext =
  Sys.readdir (Filename.concat root dir)
  |> Array.to_list |> List.sort compare
  |> List.concat_map (fun f ->
         let rel = Filename.concat dir f in
         if f.[0] = '.' then []
         else if Sys.is_directory (Filename.concat root rel) then files_under rel ext
         else if Filename.check_suffix f ext then [ rel ]
         else [])

let is_test_file rel = String.starts_with ~prefix:"test/" rel

(* --- Exports ------------------------------------------------------------ *)

let rec optionals (t : Parsetree.core_type) =
  match t.ptyp_desc with
  | Ptyp_arrow (Optional l, _, rest) -> l :: optionals rest
  | Ptyp_arrow (_, _, rest) -> optionals rest
  | _ -> []

(* Each lib/ subdirectory builds the library it is named after. *)
let exports_of_mli rel =
  let dir = Filename.dirname rel in
  let base = Filename.chop_suffix (Filename.basename rel) ".mli" in
  let lib = String.capitalize_ascii (Filename.basename dir) in
  let modname = String.capitalize_ascii base in
  let lb = Lexing.from_string (read_file (Filename.concat root rel)) in
  Location.init lb rel;
  List.filter_map
    (fun (item : Parsetree.signature_item) ->
      match item.psig_desc with
      | Psig_value vd ->
          Some
            {
              lib;
              modname;
              file = Filename.concat dir (base ^ ".ml");
              name = vd.pval_name.txt;
              optionals = optionals vd.pval_type;
            }
      | _ -> None)
    (Parse.interface lb)

let lib_mlis () =
  files_under "lib" ".mli"
  |> List.filter (fun rel -> List.length (String.split_on_char '/' rel) = 3)

(* --- Uses --------------------------------------------------------------- *)

let tokens_of_string ~name src =
  let lb = Lexing.from_string src in
  Location.init lb name;
  Lexer.init ();
  Lexer.handle_docstrings := false;
  let classify = function
    | Parser.UIDENT s -> U s
    | Parser.LIDENT s -> L s
    | Parser.LABEL s | Parser.OPTLABEL s -> Label s
    | Parser.DOT -> Dot
    | Parser.OPEN -> Open
    | Parser.INCLUDE -> Include
    | Parser.MODULE -> Module
    | Parser.EQUAL -> Eq
    | Parser.LPAREN | Parser.LBRACKET | Parser.LBRACE | Parser.LBRACKETBAR -> Lparen
    | _ -> Other
  in
  let rec loop acc pending =
    match (match pending with Some t -> t | None -> Lexer.token lb) with
    | Parser.EOF -> List.rev acc
    | Parser.BANG -> loop acc None (* [open!] *)
    | Parser.TILDE | Parser.QUESTION -> (
        match Lexer.token lb with
        | Parser.LIDENT s -> loop (L s :: Label s :: acc) None
        | t -> loop (Other :: acc) (Some t))
    | t -> loop (classify t :: acc) None
  in
  Array.of_list (loop [] None)

(* A module path [U a; Dot; U b; ...] starting at [i]: the components and
   the index just past the last one. *)
let path_at toks i =
  let n = Array.length toks in
  let continues i =
    i + 2 < n && toks.(i + 1) = Dot && match toks.(i + 2) with U _ -> true | _ -> false
  in
  let rec go i acc =
    match toks.(i) with
    | U s when continues i -> go (i + 2) (s :: acc)
    | U s -> (List.rev (s :: acc), i + 1)
    | _ -> (List.rev acc, i)
  in
  if i < n then go i [] else ([], i)

type file_uses = {
  qualified : (string list * string) list;  (** resolved module path, value *)
  opened : string list list;  (** resolved paths the file opens *)
  bare : (string, unit) Hashtbl.t;  (** every lowercase identifier *)
  labels : (string, unit) Hashtbl.t;  (** every [~l] / [?l] *)
}

let uses_of_tokens toks =
  let n = Array.length toks in
  let aliases = Hashtbl.create 8 in
  for i = 0 to n - 4 do
    match (toks.(i), toks.(i + 1), toks.(i + 2)) with
    | Module, U a, Eq -> (
        match path_at toks (i + 3) with [], _ -> () | p, _ -> Hashtbl.replace aliases a p)
    | _ -> ()
  done;
  let rec resolve depth = function
    | a :: rest when depth < 8 && Hashtbl.mem aliases a ->
        resolve (depth + 1) (Hashtbl.find aliases a @ rest)
    | p -> p
  in
  let qualified = ref [] and opened = ref [] in
  let bare = Hashtbl.create 64 and labels = Hashtbl.create 16 in
  Array.iteri
    (fun i t ->
      match t with
      | L s -> Hashtbl.replace bare s ()
      | Label s -> Hashtbl.replace labels s ()
      | U _ when i = 0 || toks.(i - 1) <> Dot -> (
          let p, j = path_at toks i in
          let p = resolve 0 p in
          let opens = i > 0 && (toks.(i - 1) = Open || toks.(i - 1) = Include) in
          if opens then opened := p :: !opened;
          if j + 1 < n && toks.(j) = Dot then
            match toks.(j + 1) with
            | L v -> qualified := (p, v) :: !qualified
            | Lparen -> opened := p :: !opened
            | _ -> ())
      | _ -> ())
    toks;
  { qualified = !qualified; opened = !opened; bare; labels }

(* Does the resolved path [p] name export [e]'s module?  The last component
   must be the module; a library qualifier before it must be [e]'s. *)
let names_module ~libraries e p =
  match List.rev p with
  | m :: q :: _ when m = e.modname -> q = e.lib || not (List.mem q libraries)
  | [ m ] -> m = e.modname
  | _ -> false

let uses_export ~libraries e u =
  List.exists (fun (p, v) -> v = e.name && names_module ~libraries e p) u.qualified
  || (Hashtbl.mem u.bare e.name && List.exists (names_module ~libraries e) u.opened)

(* --- The scan ----------------------------------------------------------- *)

type scan = {
  exports : export list;
  callers : (export * string list) list;  (** files outside the module that use it *)
  unpassed : (export * string) list;  (** optional arguments no outside caller passes *)
}

let scan () =
  let exports = List.concat_map exports_of_mli (lib_mlis ()) in
  let libraries = List.sort_uniq compare (List.map (fun e -> e.lib) exports) in
  let uses rel =
    uses_of_tokens (tokens_of_string ~name:rel (read_file (Filename.concat root rel)))
  in
  let files =
    List.concat_map (fun d -> files_under d ".ml") [ "lib"; "bin"; "bench"; "examples"; "test" ]
    |> List.map (fun rel -> (rel, uses rel))
  in
  let callers =
    List.map
      (fun e ->
        ( e,
          List.filter_map
            (fun (rel, u) ->
              if rel <> e.file && uses_export ~libraries e u then Some rel else None)
            files ))
      exports
  in
  let unpassed =
    List.concat_map
      (fun (e, cs) ->
        List.filter_map
          (fun o ->
            if List.exists (fun rel -> Hashtbl.mem (List.assoc rel files).labels o) cs then None
            else Some (e, o))
          e.optionals)
      callers
  in
  { exports; callers; unpassed }

let qualified e = Printf.sprintf "%s.%s.%s" e.lib e.modname e.name
let uncalled s = List.filter_map (fun (e, cs) -> if cs = [] then Some e else None) s.callers

let test_only s =
  List.filter_map
    (fun (e, cs) -> if cs <> [] && List.for_all is_test_file cs then Some e else None)
    s.callers

(* Exports whose only callers are tests: invariant probes, reference
   implementations and test utilities.  The count is pinned: lower it
   when one goes; a new one needs a reason, or a caller outside test/. *)
let test_only_limit = 85

let the_scan = lazy (scan ())

let print_list title xs =
  Printf.printf "%s: %d\n" title (List.length xs);
  List.iter (Printf.printf "  %s\n") xs

let test_every_export_called () =
  let s = Lazy.force the_scan in
  Printf.printf "exported values: %d in %d interfaces\n" (List.length s.exports)
    (List.length (lib_mlis ()));
  Printf.printf "optional arguments on exported values: %d\n"
    (List.fold_left (fun n e -> n + List.length e.optionals) 0 s.exports);
  let dead = List.map qualified (uncalled s) in
  print_list "exports with no caller outside their module" dead;
  if dead <> [] then
    Alcotest.failf "%d exported values have no caller outside their module: %s" (List.length dead)
      (String.concat ", " dead)

let test_every_optional_passed () =
  let s = Lazy.force the_scan in
  let unpassed = List.map (fun (e, o) -> qualified e ^ " ?" ^ o) s.unpassed in
  print_list "optional arguments no caller outside the module passes" unpassed;
  if unpassed <> [] then
    Alcotest.failf "%d optional arguments are passed by no caller outside their module: %s"
      (List.length unpassed) (String.concat ", " unpassed)

let test_test_only_bounded () =
  let s = Lazy.force the_scan in
  let only = List.map qualified (test_only s) in
  print_list "exports only tests call" only;
  let n = List.length only in
  if n > test_only_limit then
    Alcotest.failf "%d exports are called only by tests, more than the %d allowed" n
      test_only_limit
  else if n < test_only_limit then
    Alcotest.failf "%d exports are called only by tests; lower test_only_limit from %d to %d" n
      test_only_limit n

(* The resolution rules on small inputs: a live value reached only through
   an alias or an open is still a use; a comment or another library's
   module of the same name is not. *)
let test_rules () =
  let e =
    { lib = "Sim"; modname = "Vec"; file = "lib/sim/vec.ml"; name = "push"; optionals = [] }
  in
  let libraries = [ "Sim"; "Obs" ] in
  let uses src = uses_export ~libraries e (uses_of_tokens (tokens_of_string ~name:"t.ml" src)) in
  let cases =
    [
      ("let f v = Sim.Vec.push v 1", true);
      ("let f v = Vec.push v 1", true);
      ("module V = Sim.Vec\nlet f v = V.push v 1", true);
      ("module S = Sim\nlet f v = S.Vec.push v 1", true);
      ("open Sim.Vec\nlet f v = push v 1", true);
      ("let f v = Sim.Vec.(push v 1)", true);
      ("let f v = let open Vec in push v 1", true);
      ("let f v = Obs.Vec.push v 1", false);
      ("(* Sim.Vec.push *) let f v = v", false);
      ("let f v = \"Vec.push\" ^ v", false);
      ("let push v = v\nlet f v = push v", false);
    ]
  in
  List.iter (fun (src, want) -> Alcotest.(check bool) src want (uses src)) cases

let () =
  Alcotest.run "surface"
    [
      ( "exports",
        [
          Alcotest.test_case "every export has an outside caller" `Quick test_every_export_called;
          Alcotest.test_case "every optional argument has an outside caller that passes it"
            `Quick test_every_optional_passed;
          Alcotest.test_case "test-only exports do not grow" `Quick test_test_only_bounded;
        ] );
      ("scan", [ Alcotest.test_case "resolution rules" `Quick test_rules ]);
    ]
