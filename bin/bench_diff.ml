(* Compare fresh bench JSON output against committed baselines.

   The CI bench-regress job runs the quick bench suite, then:

     bench_diff --baseline-dir bench/baselines --fresh-dir . \
       --names fig6a,fig9,batch --tolerance 0.10 --report diff.md

   Exit status 1 when any compared file has a hard failure (throughput
   drop beyond tolerance, or a determinism mismatch in the point set);
   warnings (improvements, non-throughput drift) never fail the job but
   land in the report. See Dps_obs.Regress for the policy. *)

module Regress = Dps_obs.Regress

let () =
  let baseline_dir = ref "bench/baselines" in
  let fresh_dir = ref "." in
  let names = ref [] in
  let tolerance = ref 0.10 in
  let report_path = ref "" in
  let specs =
    [
      ( "--baseline-dir",
        Arg.Set_string baseline_dir,
        "DIR committed baselines (default bench/baselines)" );
      ("--fresh-dir", Arg.Set_string fresh_dir, "DIR freshly generated BENCH_*.json (default .)");
      ( "--names",
        Arg.String (fun s -> names := String.split_on_char ',' s),
        "a,b,c bench names to compare (required)" );
      ("--tolerance", Arg.Set_float tolerance, "T relative throughput tolerance (default 0.10)");
      ("--report", Arg.Set_string report_path, "FILE write a markdown report here");
    ]
  in
  let usage = "bench_diff --names fig6a,fig9 [options]" in
  Arg.parse specs (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  if !names = [] then begin
    prerr_endline "bench_diff: --names is required";
    Arg.usage specs usage;
    exit 2
  end;
  let buf = Buffer.create 1024 in
  let ppf = Format.formatter_of_buffer buf in
  Format.fprintf ppf "# Bench regression report@.@.";
  let failed = ref false in
  List.iter
    (fun name ->
      let file d = Filename.concat d (Printf.sprintf "BENCH_%s.json" name) in
      match (Regress.load_file (file !baseline_dir), Regress.load_file (file !fresh_dir)) with
      | Error _, Ok _ when not (Sys.file_exists (file !baseline_dir)) ->
          (* A brand-new figure has no committed baseline yet; that is a
             bootstrap step, not a regression. *)
          Format.fprintf ppf "## %s@.- warn: no committed baseline yet@.@." name;
          Printf.printf
            "[%s] warn: no committed baseline; commit this baseline:\n\
            \  cp %s %s\n\
             %!"
            name (file !fresh_dir) (file !baseline_dir)
      | Error e, _ | _, Error e ->
          failed := true;
          Format.fprintf ppf "## %s@.- FAIL: %s@.@." name e;
          Printf.eprintf "[%s] FAIL: %s\n%!" name e
      | Ok baseline, Ok fresh ->
          let v = Regress.compare ~tolerance:!tolerance ~baseline ~fresh in
          if v.Regress.failures <> [] then failed := true;
          Regress.report ppf ~name ~tolerance:!tolerance v;
          Printf.printf "[%s] %d points, %d failures, %d warnings\n%!" name v.Regress.compared
            (List.length v.Regress.failures)
            (List.length v.Regress.warnings);
          (match Regress.summary fresh with
          | Some line ->
              Format.fprintf ppf "- summary: %s@.@." line;
              Printf.printf "[%s] %s\n%!" name line
          | None -> ());
          List.iter (fun f -> Printf.eprintf "[%s] FAIL: %s\n%!" name f) v.Regress.failures;
          List.iter (fun w -> Printf.printf "[%s] warn: %s\n%!" name w) v.Regress.warnings)
    !names;
  Format.pp_print_flush ppf ();
  if !report_path <> "" then
    Out_channel.with_open_text !report_path (fun oc -> output_string oc (Buffer.contents buf));
  if !failed then begin
    print_endline "bench_diff: REGRESSION DETECTED";
    exit 1
  end
  else print_endline "bench_diff: all benches within tolerance"
