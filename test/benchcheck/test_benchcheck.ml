(* Mutation self-test of tools/benchcheck: the committed bench files
   pass, and a copy with one cross-arm relation broken must make
   benchcheck exit 1. Each mutation rewrites one field of one row.

   Usage: test_benchcheck.exe BENCHCHECK BENCH_ADVERSARY.json
            BENCH_HANDOVER.json *)

module J = Obs.Json

let benchcheck, adversary_file, handover_file =
  match Sys.argv with
  | [| _; b; a; h |] -> (b, a, h)
  | _ ->
      prerr_endline
        "usage: test_benchcheck BENCHCHECK BENCH_ADVERSARY.json \
         BENCH_HANDOVER.json";
      exit 2

let load path =
  match J.of_file path with
  | Ok doc -> doc
  | Error e -> Alcotest.failf "%s: %s" path e

(* Exit status of benchcheck on [doc], written to a scratch file. *)
let exit_code doc =
  let path = Filename.temp_file "benchcheck" ".json" in
  J.to_file path doc;
  let code =
    Sys.command
      (Filename.quote_command benchcheck ~stdout:Filename.null
         ~stderr:Filename.null [ path ])
  in
  Sys.remove path;
  code

let str fields name =
  match List.assoc_opt name fields with Some (J.String s) -> s | _ -> ""

(* [doc] with [field] of the [scenario]/[arm] row replaced by [f] of
   the row's fields. *)
let mutate doc ~scenario ~arm ~field f =
  let hit = ref false in
  let row = function
    | J.Obj fields when str fields "scenario" = scenario && str fields "arm" = arm
      ->
        hit := true;
        J.Obj
          (List.map
             (fun (k, v) -> if k = field then (k, f fields) else (k, v))
             fields)
    | r -> r
  in
  let doc =
    match doc with
    | J.Obj top ->
        J.Obj
          (List.map
             (function
               | "rows", J.List rows -> ("rows", J.List (List.map row rows))
               | kv -> kv)
             top)
    | d -> d
  in
  if not !hit then Alcotest.failf "no %s/%s row" scenario arm;
  doc

let int_of fields name =
  match List.assoc_opt name fields with
  | Some (J.Int v) -> v
  | _ -> Alcotest.failf "field %S is not an int" name

let float_of fields name =
  match List.assoc_opt name fields with
  | Some (J.Float v) -> v
  | Some (J.Int v) -> float_of_int v
  | _ -> Alcotest.failf "field %S is not a number" name

let row_of doc ~scenario ~arm =
  let rows = match J.member "rows" doc with Some (J.List r) -> r | _ -> [] in
  match
    List.find_map
      (function
        | J.Obj f when str f "scenario" = scenario && str f "arm" = arm ->
            Some f
        | _ -> None)
      rows
  with
  | Some f -> f
  | None -> Alcotest.failf "no %s/%s row" scenario arm

let passes name file =
  Alcotest.test_case name `Quick (fun () ->
      Alcotest.(check int) "benchcheck exit" 0 (exit_code (load file)))

let rejects name file mutation =
  Alcotest.test_case name `Quick (fun () ->
      let doc = load file in
      Alcotest.(check int) "unmutated exit" 0 (exit_code doc);
      Alcotest.(check int) "mutated exit" 1 (exit_code (mutation doc)))

let adversary =
  [
    passes "committed file" adversary_file;
    rejects "auth arm admits 1" adversary_file (fun d ->
        mutate d ~scenario:"adversary" ~arm:"auth" ~field:"attacker_admitted"
          (fun _ -> J.Int 1));
    rejects "dummies <> replays" adversary_file (fun d ->
        mutate d ~scenario:"leakage" ~arm:"shaped" ~field:"dummy_quacks"
          (fun f -> J.Int (int_of f "replays_dropped" + 1)));
    rejects "shaping buys no accuracy" adversary_file (fun d ->
        let u = row_of d ~scenario:"leakage" ~arm:"unshaped" in
        mutate d ~scenario:"leakage" ~arm:"shaped" ~field:"observer_accuracy"
          (fun _ -> J.Float (float_of u "observer_accuracy")));
    rejects "half-rate damage > full" adversary_file (fun d ->
        let u = row_of d ~scenario:"adversary" ~arm:"unauth" in
        mutate d ~scenario:"adversary" ~arm:"unauth_rate_half"
          ~field:"attacker_admitted" (fun _ ->
            J.Int (int_of u "attacker_admitted" + 1)));
    rejects "unknown arm name" adversary_file (fun d ->
        mutate d ~scenario:"adversary" ~arm:"auth" ~field:"arm" (fun _ ->
            J.String "authenticated"));
  ]

let handover =
  [
    passes "committed file" handover_file;
    rejects "transfer resyncs > resync" handover_file (fun d ->
        let r = row_of d ~scenario:"handover" ~arm:"resync" in
        mutate d ~scenario:"handover" ~arm:"transfer" ~field:"srv_resyncs"
          (fun _ -> J.Int (int_of r "srv_resyncs" + 1)));
  ]

let () =
  Alcotest.run ~argv:[| Sys.argv.(0) |] "benchcheck"
    [ ("adversary", adversary); ("handover", handover) ]
