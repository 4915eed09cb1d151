(* Config validation of the four scenario families: every rejected
   config raises [Invalid_argument] with the family's exact message,
   before any simulation state is built. *)

module H = Sidecar_runtime.Handover
module M = Sidecar_runtime.Multipath
module A = Sidecar_runtime.Adversary
module L = Sidecar_runtime.Leakage
module Time = Netsim.Sim_time

let rejects msg run () =
  Alcotest.check_raises msg (Invalid_argument msg) (fun () -> ignore (run ()))

let case name msg run = Alcotest.test_case name `Quick (rejects msg run)

let handover =
  let d = H.default_config in
  let run c () = H.run c in
  let common f = run { d with H.common = f d.H.common } in
  [
    case "flows = 0" "Handover.run: need at least one flow"
      (common (fun c -> { c with flows = 0 }));
    case "min_units = 0" "Handover.run: bad unit bounds"
      (common (fun c -> { c with min_units = 0 }));
    case "max < min units" "Handover.run: bad unit bounds"
      (common (fun c -> { c with min_units = 10; max_units = 9 }));
    case "migrate_after = 0" "Handover.run: migrate_after must be positive"
      (run { d with H.migrate_after = 0 });
    case "migrate_after < 0" "Handover.run: migrate_after must be positive"
      (run { d with H.migrate_after = Time.ms (-1) });
    case "ctrl_delay < 0" "Handover.run: negative control-channel delay"
      (run { d with H.ctrl_delay = Time.ms (-1) });
  ]

let multipath =
  let d = M.default_config in
  let run c () = M.run c in
  let common f = run { d with M.common = f d.M.common } in
  [
    case "flows = 0" "Multipath.run: need at least one flow"
      (common (fun c -> { c with flows = 0 }));
    case "min_units = 0" "Multipath.run: bad unit bounds"
      (common (fun c -> { c with min_units = 0 }));
    case "max < min units" "Multipath.run: bad unit bounds"
      (common (fun c -> { c with min_units = 10; max_units = 9 }));
    case "split (0, 0)" "Multipath.run: bad split shares"
      (run { d with M.split = (0, 0) });
    case "negative share" "Multipath.run: bad split shares"
      (run { d with M.split = (-1, 2) });
  ]

let adversary =
  let d = A.default_config in
  let run c () = A.run c in
  let common f = run { d with A.common = f d.A.common } in
  let rate r = run { d with A.attack_rate = r } in
  [
    case "flows = 0" "Adversary.run: need at least one flow"
      (common (fun c -> { c with flows = 0 }));
    case "min_units = 0" "Adversary.run: bad unit bounds"
      (common (fun c -> { c with min_units = 0 }));
    case "max < min units" "Adversary.run: bad unit bounds"
      (common (fun c -> { c with min_units = 10; max_units = 9 }));
    case "rate -0.1" "Adversary.run: attack rate outside [0, 1]" (rate (-0.1));
    case "rate 1.5" "Adversary.run: attack rate outside [0, 1]" (rate 1.5);
    case "rate nan" "Adversary.run: attack rate outside [0, 1]" (rate Float.nan);
  ]

let leakage =
  let d = L.default_config in
  let run c () = L.run c in
  let common f = run { d with L.common = f d.L.common } in
  [
    case "flows = 0" "Leakage.run: need at least one flow"
      (common (fun c -> { c with flows = 0 }));
    case "min_units = 0" "Leakage.run: bad unit bounds"
      (common (fun c -> { c with min_units = 0 }));
    case "max < min units" "Leakage.run: bad unit bounds"
      (common (fun c -> { c with min_units = 10; max_units = 9 }));
    case "grid = 0" "Leakage.run: grid must be positive"
      (run { d with L.grid = 0 });
    case "grid < 0" "Leakage.run: grid must be positive"
      (run { d with L.grid = Time.ms (-1) });
    case "pad_session < 0" "Leakage.run: negative pad_session"
      (run { d with L.pad_session = Time.ms (-1) });
  ]

let () =
  Alcotest.run "families"
    [
      ("handover", handover);
      ("multipath", multipath);
      ("adversary", adversary);
      ("leakage", leakage);
    ]
