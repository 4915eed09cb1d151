(* The mobility/multipath scenario families and the three seam fixes
   they forced (PR 9):

   1. [Sender_state.resync_to] must reject a quACK whose field modulus
      differs from the sender's — same width does not imply the same
      prime, and §3.3 adoption of foreign-field sums silently corrupts
      the baseline.
   2. [resync_to] must reset the log-relative send-position space
      ([next_pos], [max_acked_pos]); a post-takeover send judged
      against the abandoned log's watermark was classified as already
      acked.
   3. The merge->quACK seam must wrap the combined count to
      [count_bits] ([Quack.of_psum]); an unwrapped in-memory count
      disagreed with its own wire round trip.

   Plus the family-level properties: transfer ≡ resync on loss-free
   paths, the folded two-path decode ≡ the single-path decode of the
   union, and same-seed golden pins of both default reports.

   Regenerate fixtures (only when a behaviour change is intended):
     dune exec test/handover/test_handover.exe -- gen <abs path to
       test/handover/golden> *)

module Q = Sidecar_quack
module Psum = Q.Psum
module Quack = Q.Quack
module Wire = Q.Wire
module Sender_state = Q.Sender_state
module Receiver_state = Q.Receiver_state
module Identifier = Q.Identifier
module Migration = Sidecar_protocols.Migration
module Path = Sidecar_protocols.Path
module Handover = Sidecar_runtime.Handover
module Multipath = Sidecar_runtime.Multipath
module Time = Netsim.Sim_time

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool

let key = Identifier.key_of_int 0xA11CE

let ids_of_range ~bits lo hi =
  List.init (hi - lo) (fun i -> Identifier.of_counter key ~bits (lo + i))

(* ------------------------------------------------------------------ *)
(* Seam fix 1: resync_to and on_quack reject mismatched moduli         *)

(* 65521 is the preset 16-bit prime, 65519 the next one down: same
   width, different field. *)
module F16_alt = Sidecar_field.Modular.Make (struct
  let bits = 16
  let modulus = 65519
end)

let ss16_config =
  { Sender_state.default_config with bits = 16; threshold = 4; count_bits = 8 }

let foreign_quack () =
  let rx =
    Receiver_state.create ~bits:16 ~field:(module F16_alt) ~count_bits:8
      ~threshold:4 ()
  in
  List.iter
    (fun id -> ignore (Receiver_state.on_receive rx id))
    (ids_of_range ~bits:16 0 3);
  Receiver_state.emit rx

let test_resync_rejects_foreign_modulus () =
  let ss = Sender_state.create ss16_config in
  List.iter (fun id -> Sender_state.on_send ss ~id ()) (ids_of_range ~bits:16 0 3);
  let q = foreign_quack () in
  check bool "same width" true (q.Quack.bits = 16);
  Alcotest.check_raises "resync_to rejects a foreign prime"
    (Invalid_argument "Sender_state.resync_to: mismatched moduli") (fun () ->
      ignore (Sender_state.resync_to ss q));
  (* the rejection must not have corrupted the sender: a same-field
     quACK still decodes *)
  let rx = Receiver_state.create ~bits:16 ~count_bits:8 ~threshold:4 () in
  List.iter
    (fun id -> ignore (Receiver_state.on_receive rx id))
    (ids_of_range ~bits:16 0 3);
  match Sender_state.on_quack ss (Receiver_state.emit rx) with
  | Ok r ->
      check int "all three acked" 3 (List.length r.Sender_state.acked);
      check int "none lost" 0 (List.length r.Sender_state.lost)
  | Error e -> Alcotest.failf "decode failed: %a" Sender_state.pp_error e

let test_on_quack_flags_foreign_modulus () =
  let ss = Sender_state.create ss16_config in
  List.iter (fun id -> Sender_state.on_send ss ~id ()) (ids_of_range ~bits:16 0 3);
  match Sender_state.on_quack ss (foreign_quack ()) with
  | Error (`Config_mismatch _) -> ()
  | Error e -> Alcotest.failf "wrong error: %a" Sender_state.pp_error e
  | Ok _ -> Alcotest.fail "foreign-field quACK decoded"

(* ------------------------------------------------------------------ *)
(* Companion seam: set_state must not partially write on failure       *)

let test_set_state_no_partial_write () =
  let s = Psum.create ~bits:16 ~threshold:3 () in
  Psum.insert_list s [ 7; 11; 13 ];
  let before = Psum.sums s in
  let bad = [| 1; 65520; 999_999 |] in
  (* a sum out of field range, sitting after valid entries *)
  Alcotest.check_raises "rejects out-of-field sums"
    (Invalid_argument "Psum.set_state: sum out of field range") (fun () ->
      Psum.set_state s ~sums:bad ~count:5);
  check bool "sums untouched after the failed install" true
    (Psum.sums s = before);
  check int "count untouched" 3 (Psum.count s)

(* ------------------------------------------------------------------ *)
(* Seam fix 2: resync_to resets the send-position space                *)

(* Handover-shaped: the server resyncs to sidecar B's fresh baseline,
   then keeps transmitting. With [max_acked_pos] left over from the
   abandoned log, the post-takeover sends sat below the stale
   watermark and the next decode misclassified them. *)
let test_resync_resets_positions () =
  let cfg =
    { Sender_state.default_config with bits = 32; threshold = 8; count_bits = 16 }
  in
  let ss = Sender_state.create cfg in
  let rx_a = Receiver_state.create ~bits:32 ~count_bits:16 ~threshold:8 () in
  (* pre-handover: plenty of traffic through sidecar A, fully acked,
     so the old log's high-water mark is well above zero *)
  let pre = ids_of_range ~bits:32 0 20 in
  List.iter
    (fun id ->
      Sender_state.on_send ss ~id id;
      ignore (Receiver_state.on_receive rx_a id))
    pre;
  (match Sender_state.on_quack ss (Receiver_state.emit rx_a) with
  | Ok r -> check int "pre-handover acked" 20 (List.length r.Sender_state.acked)
  | Error e -> Alcotest.failf "pre-handover decode failed: %a" Sender_state.pp_error e);
  (* handover: B is fresh; the server adopts its (empty) baseline *)
  let rx_b = Receiver_state.create ~bits:32 ~count_bits:16 ~threshold:8 () in
  ignore (Sender_state.resync_to ss (Receiver_state.emit rx_b));
  (* post-takeover: three sends, the first two reach B *)
  let post = ids_of_range ~bits:32 100 103 in
  List.iter (fun id -> Sender_state.on_send ss ~id id) post;
  (match post with
  | [ a; b; _c ] ->
      ignore (Receiver_state.on_receive rx_b a);
      ignore (Receiver_state.on_receive rx_b b)
  | _ -> assert false);
  match Sender_state.on_quack ss (Receiver_state.emit rx_b) with
  | Ok r ->
      (* with the stale watermark, these came back as already-acked
         (or the trailing send as lost); the fixed state sees exactly:
         two acked, one in the tail-in-flight grace, nothing lost *)
      check int "post-takeover acked" 2 (List.length r.Sender_state.acked);
      check int "trailing send in flight" 1 r.Sender_state.in_flight;
      check int "nothing lost" 0 (List.length r.Sender_state.lost);
      check int "nothing suspect" 0 (List.length r.Sender_state.suspect)
  | Error e -> Alcotest.failf "post-takeover decode failed: %a" Sender_state.pp_error e

(* ------------------------------------------------------------------ *)
(* Seam fix 3: the merged count wraps at the quACK seam                *)

let test_merge_count_wraps () =
  let a = Psum.create ~bits:32 ~threshold:4 () in
  let b = Psum.create ~bits:32 ~threshold:4 () in
  (* fake two long-lived per-path sketches whose full-precision counts
     sum past 2^16 *)
  Psum.insert_list a (ids_of_range ~bits:32 0 3);
  Psum.set_state a ~sums:(Psum.sums a) ~count:65_530;
  Psum.insert_list b (ids_of_range ~bits:32 3 5);
  Psum.set_state b ~sums:(Psum.sums b) ~count:12;
  let merged = Psum.merge a b in
  check int "merge keeps full precision" 65_542 (Psum.count merged);
  let q = Quack.of_psum ~count_bits:16 merged in
  check int "of_psum wraps to the wire width" ((65_530 + 12) land 0xffff)
    q.Quack.count;
  check int "wrap_count agrees" q.Quack.count
    (Quack.wrap_count q (Psum.count merged));
  (* the in-memory quACK must be indistinguishable from its own wire
     round trip — this is the regression: an unwrapped count was *)
  (match
     Wire.decode_packed ~bits:32 ~threshold:4 ~count_bits:16
       (Wire.encode_packed q)
   with
  | Ok q' -> check bool "wire round trip is the identity" true (q = q')
  | Error e -> Alcotest.failf "decode_packed failed: %a" Wire.pp_error e);
  (* and missing_count stays correct across the wrap *)
  check int "missing across the wrap" 3
    (Quack.missing_count q ~sender_count:65_545)

(* ------------------------------------------------------------------ *)
(* Migration node: snapshot/install guards                             *)

let mig_config addr =
  {
    Migration.addr;
    bits = 32;
    threshold = 8;
    count_bits = 16;
    quack_every = 4;
    field = None;
  }

let test_install_rejects_mismatch () =
  let _proto_a, a = Migration.make (mig_config "a") in
  let _proto_b, b =
    Migration.make { (mig_config "b") with Migration.threshold = 16 }
  in
  ignore a;
  let snap =
    {
      Migration.bits = 32;
      threshold = 8;
      modulus = 4294967291;
      sums = Array.make 8 0;
      count = 0;
      index = 1;
    }
  in
  Alcotest.check_raises "install rejects a mismatched snapshot"
    (Invalid_argument "Migration.install: incompatible snapshot") (fun () ->
      Migration.install b ~flow:0 snap)

(* ------------------------------------------------------------------ *)
(* qcheck: folded two-path decode ≡ single-path decode of the union    *)

let qcheck_fold_equals_union =
  QCheck.Test.make ~count:200 ~name:"merge-fold ≡ union (sums, count, decode)"
    QCheck.(pair (list_of_size Gen.(0 -- 60) (int_bound 1_000_000)) int)
    (fun (raw, salt) ->
      let bits = 32 and threshold = 8 in
      let ids =
        List.mapi
          (fun i r -> Identifier.of_counter key ~bits ((r lxor salt) + i))
          raw
      in
      (* deterministic split: even positions ride path 1 *)
      let p1 = Psum.create ~bits ~threshold () in
      let p2 = Psum.create ~bits ~threshold () in
      let union = Psum.create ~bits ~threshold () in
      List.iteri
        (fun i id ->
          Psum.insert union id;
          Psum.insert (if i mod 2 = 0 then p1 else p2) id)
        ids;
      let folded = Quack.of_psum ~count_bits:16 (Psum.merge p1 p2) in
      let direct = Quack.of_psum ~count_bits:16 union in
      (* the folded quACK is *the same sketch* as the union's *)
      if folded <> direct then QCheck.Test.fail_report "fold <> union quACK";
      (* and decodes a missing set identically: drop the last <th ids *)
      let sent = Psum.create ~bits ~threshold () in
      List.iter (Psum.insert sent) ids;
      let missing = ids_of_range ~bits 2_000_000 2_000_003 in
      List.iter (Psum.insert sent) missing;
      let candidates = ids @ missing in
      match
        ( Q.Decoder.decode_between ~sent ~quack:folded ~candidates (),
          Q.Decoder.decode_between ~sent ~quack:direct ~candidates () )
      with
      | Ok a, Ok b ->
          List.sort compare a.Q.Decoder.missing
          = List.sort compare missing
          && a.Q.Decoder.missing = b.Q.Decoder.missing
      | _ -> QCheck.Test.fail_report "decode failed")

(* ------------------------------------------------------------------ *)
(* qcheck: transfer ≡ resync on loss-free paths                        *)

(* With no loss anywhere, a handover is pure bookkeeping: every flow
   completes, nothing is retransmitted, and both strategies deliver
   exactly the same bytes. Only the control channel differs (the
   transfer arm ships snapshots; the resync arm pays one §3.3 resync
   per migrated flow at the server, which must never surface as
   client-visible duplicates). *)
let qcheck_transfer_equals_resync_lossfree =
  QCheck.Test.make ~count:12 ~name:"transfer ≡ resync on loss-free paths"
    QCheck.(pair (1 -- 6) (0 -- 1000))
    (fun (flows, seed) ->
      let clean = Path.segment ~rate_bps:40_000_000 ~delay:(Time.ms 20) () in
      let d = Handover.default_config in
      let base =
        {
          d with
          Handover.common =
            {
              d.Handover.common with
              flows;
              table_flows = flows;
              min_units = 40;
              max_units = 200;
              seed;
            };
          far_a = clean;
          far_b = clean;
          migrate_after = Time.ms 100;
        }
      in
      let r1 = Handover.run { base with Handover.strategy = Handover.Resync } in
      let r2 = Handover.run { base with Handover.strategy = Handover.Transfer } in
      let clean_arm (r : Handover.report) =
        let s = r.Handover.summary in
        s.completed = flows
        && s.retransmissions = 0
        && s.timeouts = 0
        && s.duplicates = 0
      in
      if not (clean_arm r1) then
        QCheck.Test.fail_report "resync arm not loss-free clean";
      if not (clean_arm r2) then
        QCheck.Test.fail_report "transfer arm not loss-free clean";
      r1.Handover.summary.delivered_bytes = r2.Handover.summary.delivered_bytes
      && r1.Handover.migrations = r2.Handover.migrations
      && r2.Handover.transfers = r2.Handover.migrations
      && r1.Handover.transfers = 0)

(* ------------------------------------------------------------------ *)
(* Determinism: both families are pure functions of their configs      *)

let test_handover_deterministic () =
  let j () =
    Obs.Json.to_string
      (Handover.json_report (Handover.run Handover.default_config))
  in
  check bool "same config, same handover JSON" true (String.equal (j ()) (j ()))

let test_multipath_deterministic () =
  let j () =
    Obs.Json.to_string
      (Multipath.json_report (Multipath.run Multipath.default_config))
  in
  check bool "same config, same multipath JSON" true (String.equal (j ()) (j ()))

(* ------------------------------------------------------------------ *)
(* Golden same-seed fixtures                                           *)

let b fmt v = Printf.sprintf fmt v

let proxy_snap tag (p : Sidecar_runtime.Proxy.stats) =
  String.concat "\n"
    [
      b (tag ^^ "_data_packets=%d") p.Sidecar_runtime.Proxy.data_packets;
      b (tag ^^ "_quacks_tx=%d") p.Sidecar_runtime.Proxy.quacks_tx;
      b (tag ^^ "_quack_bytes=%d") p.Sidecar_runtime.Proxy.quack_bytes;
      b (tag ^^ "_resyncs=%d") p.Sidecar_runtime.Proxy.resyncs;
    ]

let snap_handover () =
  let r = Handover.run Handover.default_config in
  String.concat "\n"
    [
      "handover (Handover.run default_config)";
      b "strategy=%s" (Handover.strategy_name r.Handover.config.strategy);
      b "migrated=%b" r.Handover.config.migrate;
      b "flows=%d" r.Handover.summary.flows;
      b "completed=%d" r.Handover.summary.completed;
      b "fct_p50=%h" r.Handover.summary.fct_p50;
      b "fct_p95=%h" r.Handover.summary.fct_p95;
      b "fct_p99=%h" r.Handover.summary.fct_p99;
      b "fct_mean=%h" r.Handover.summary.fct_mean;
      b "data_delivered_bytes=%d" r.Handover.summary.delivered_bytes;
      proxy_snap "proxy_a" r.Handover.proxy_a;
      proxy_snap "proxy_b" r.Handover.proxy_b;
      b "migrations=%d" r.Handover.migrations;
      b "transfers=%d" r.Handover.transfers;
      b "transfer_bytes=%d" r.Handover.transfer_bytes;
      b "install_merges=%d" r.Handover.install_merges;
      b "srv_resyncs=%d" r.Handover.summary.srv_resyncs;
      b "retransmissions=%d" r.Handover.summary.retransmissions;
      b "timeouts=%d" r.Handover.summary.timeouts;
      b "spurious_retx=%d" r.Handover.summary.duplicates;
      b "sim_end=%d" r.Handover.summary.sim_end;
    ]
  ^ "\n"

let snap_multipath () =
  let r = Multipath.run Multipath.default_config in
  String.concat "\n"
    [
      "multipath (Multipath.run default_config)";
      b "flows=%d" r.Multipath.summary.flows;
      b "completed=%d" r.Multipath.summary.completed;
      b "fct_p50=%h" r.Multipath.summary.fct_p50;
      b "fct_p95=%h" r.Multipath.summary.fct_p95;
      b "fct_p99=%h" r.Multipath.summary.fct_p99;
      b "fct_mean=%h" r.Multipath.summary.fct_mean;
      b "data_delivered_bytes=%d" r.Multipath.summary.delivered_bytes;
      proxy_snap "proxy_1" r.Multipath.proxy_1;
      proxy_snap "proxy_2" r.Multipath.proxy_2;
      b "path1_pkts=%d" r.Multipath.path1_pkts;
      b "path2_pkts=%d" r.Multipath.path2_pkts;
      b "folded_decodes=%d" r.Multipath.folded_decodes;
      b "srv_resyncs=%d" r.Multipath.summary.srv_resyncs;
      b "retransmissions=%d" r.Multipath.summary.retransmissions;
      b "timeouts=%d" r.Multipath.summary.timeouts;
      b "duplicates=%d" r.Multipath.summary.duplicates;
      b "sim_end=%d" r.Multipath.summary.sim_end;
    ]
  ^ "\n"

let schema_snap json_of () =
  Obs.Json.to_string (Obs.Json.schema_of (json_of ())) ^ "\n"

let fixtures =
  [
    ("handover", snap_handover);
    ("multipath", snap_multipath);
    ( "schema_handover",
      schema_snap (fun () ->
          Handover.json_report (Handover.run Handover.default_config)) );
    ( "schema_multipath",
      schema_snap (fun () ->
          Multipath.json_report (Multipath.run Multipath.default_config)) );
  ]

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

let gen dir =
  List.iter
    (fun (name, snap) ->
      let path = Filename.concat dir (name ^ ".txt") in
      write_file path (snap ());
      Printf.printf "wrote %s\n%!" path)
    fixtures

let golden_case (name, snap) =
  Alcotest.test_case name `Slow (fun () ->
      let expected = read_file (Filename.concat "golden" (name ^ ".txt")) in
      check Alcotest.string
        (name ^ " matches the committed same-seed snapshot")
        expected (snap ()))

(* ------------------------------------------------------------------ *)

let q = QCheck_alcotest.to_alcotest

let () =
  match Array.to_list Sys.argv with
  | _ :: "gen" :: dir :: _ -> gen dir
  | _ ->
      Alcotest.run "handover"
        [
          ( "seam-fixes",
            [
              Alcotest.test_case "resync_to rejects foreign modulus" `Quick
                test_resync_rejects_foreign_modulus;
              Alcotest.test_case "on_quack flags foreign modulus" `Quick
                test_on_quack_flags_foreign_modulus;
              Alcotest.test_case "set_state never partially writes" `Quick
                test_set_state_no_partial_write;
              Alcotest.test_case "resync_to resets send positions" `Quick
                test_resync_resets_positions;
              Alcotest.test_case "merged count wraps at the seam" `Quick
                test_merge_count_wraps;
              Alcotest.test_case "install rejects mismatched snapshots" `Quick
                test_install_rejects_mismatch;
            ] );
          ( "family-props",
            [
              q qcheck_fold_equals_union;
              q qcheck_transfer_equals_resync_lossfree;
              Alcotest.test_case "handover run is deterministic" `Slow
                test_handover_deterministic;
              Alcotest.test_case "multipath run is deterministic" `Slow
                test_multipath_deterministic;
            ] );
          ("golden", List.map golden_case fixtures);
        ]
