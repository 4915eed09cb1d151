(* Golden pins for the many-flow scenario: [Scenario.json_report] of
   nine 200-flow runs at the default seed, each followed by one row per
   flow, compared byte for byte with fixtures committed before any
   per-packet optimisation (the first five) or before the run moved
   onto the shared scenario harness (the last four).

   The "deterministic at 200 flows" cases in test_runtime compare two
   runs of the same build; these fixtures pin multi-flow behaviour
   across changes to the engine, the transport and the decoder, which
   must leave every simulated byte where it was.

   Regenerate (only when a behaviour change is intended and understood):
     dune exec test/runtime/test_scenario_golden.exe -- gen <abs path to test/runtime/golden>
*)

module Scenario = Sidecar_runtime.Scenario
module Time = Netsim.Sim_time

let base = Scenario.default_config

let fixtures =
  [
    ("scenario_cc", { base with Scenario.protocol = `Cc });
    ("scenario_ack", { base with Scenario.protocol = `Ack });
    ("scenario_retx", { base with Scenario.protocol = `Retx });
    (* 16-bit identifiers through the log-table field: the small-field
       decode path, with aliasing ids and a different prime. *)
    ("scenario_cc_log16", { base with Scenario.bits = 16; field = `Log });
    (* A 16-slot table under the same arrivals: eviction churn, degraded
       quACKs and re-admission resyncs. *)
    ("scenario_cc_table16", { base with Scenario.table_flows = 16 });
    (* Idle eviction: the periodic sweep runs beside the keepalives. *)
    ( "scenario_cc_idle",
      { base with Scenario.policy = Sidecar_runtime.Flow_table.Idle (Time.ms 50) } );
    (* The retransmission pair at a fixed quACK interval. *)
    ("scenario_retx_fixed", { base with Scenario.protocol = `Retx; adaptive = false });
    (* ACK reduction with no sidecar state at all: pure end to end. *)
    ("scenario_ack_table0", { base with Scenario.protocol = `Ack; table_flows = 0 });
    (* A horizon before any flow can finish: no completed flow, so the
       FCT mean reads 0 and the percentiles NaN. *)
    ("scenario_cc_short", { base with Scenario.until = Time.ms 48 });
  ]

(* The JSON report summarises flows to a count, so every flow's row
   follows it: retransmission order and timing show up per flow. *)
let flow_row (f : Scenario.flow_report) =
  Printf.sprintf "flow=%d units=%d started=%d completed=%b fct=%h tx=%d retx=%d pto=%d dup=%d\n"
    f.Scenario.flow f.units f.started_at f.completed f.fct_s f.transmissions
    f.retransmissions f.timeouts f.duplicates

let snap cfg =
  let r = Scenario.run cfg in
  String.concat ""
    (Obs.Json.to_string (Scenario.json_report r)
    :: "\n"
    :: Array.to_list (Array.map flow_row r.Scenario.flows))

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path s =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc s)

let gen dir =
  List.iter
    (fun (name, cfg) ->
      let path = Filename.concat dir (name ^ ".json") in
      write_file path (snap cfg);
      Printf.printf "wrote %s\n%!" path)
    fixtures

let golden_case (name, cfg) =
  Alcotest.test_case name `Slow (fun () ->
      let expected = read_file (Filename.concat "golden" (name ^ ".json")) in
      Alcotest.(check string)
        (name ^ " report matches the committed fixture byte for byte")
        expected (snap cfg))

let () =
  match Array.to_list Sys.argv with
  | _ :: "gen" :: dir :: _ -> gen dir
  | _ ->
      Alcotest.run "scenario_golden"
        [ ("scenario-golden", List.map golden_case fixtures) ]
