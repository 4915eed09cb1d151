(** The scenario-family registry: one entry per family, carrying
    everything the simulator CLI ([runtime --scenario]) and the bench
    need to run its arms and report them. The module has no interface
    file: everything it exports below is its interface. *)

type overrides = {
  flows : int option;
  table : int option;  (** flow-table capacity *)
  seed : int;
  crowd : int option;  (** flash-crowd size; turns Poisson into a crowd *)
  quack_every : int option;
  migrate_after : Netsim.Sim_time.span option;  (** handover only *)
  ctrl_delay : Netsim.Sim_time.span option;  (** handover only *)
  split : (int * int) option;  (** multipath only *)
  attack_rate : float option;  (** adversary only *)
}
(** Command-line settings applied over a family's default config;
    [None] keeps the default. *)

(** Nothing overridden, seed 1. *)
let defaults =
  {
    flows = None;
    table = None;
    seed = 1;
    crowd = None;
    quack_every = None;
    migrate_after = None;
    ctrl_delay = None;
    split = None;
    attack_rate = None;
  }

module type FAMILY = sig
  type config
  type report

  val name : string
  (** As given to [--scenario] and written as the report's and bench
      rows' ["scenario"]. *)

  val bench_section : string
  (** The bench section whose rows this family contributes. *)

  val arms : overrides -> (string * config) list
  (** The named arms, in report order.
      @raise Invalid_argument with a command-line message on an
      override the family rejects. *)

  val run : config -> report
  val json_report : report -> Obs.Json.t
  val pp_report : Format.formatter -> report -> unit

  val bench_row : report -> (string * Obs.Json.t) list
  (** The bench row's fields after ["scenario"] and ["arm"]. *)

  val bench_line : string -> report -> string
  (** The bench's one-line stdout summary of an arm. *)
end

open struct
  module Json = Obs.Json
  module Workload = Netsim.Workload

  (* A crowd override reshapes a flash crowd, or replaces a Poisson
     arrival by the default crowd of that size. *)
  let rec with_crowd crowd = function
    | Workload.Flash_crowd f -> Workload.Flash_crowd { f with crowd }
    | Workload.Poisson _ -> with_crowd crowd Harness.flash_crowd

  let common (o : overrides) (c : Harness.common) =
    {
      c with
      flows = Option.value o.flows ~default:c.flows;
      table_flows = Option.value o.table ~default:c.table_flows;
      arrival = Option.fold o.crowd ~none:c.arrival ~some:(fun n ->
          with_crowd n c.arrival);
      quack_every = Option.value o.quack_every ~default:c.quack_every;
      seed = o.seed;
    }

  (* A bench row carries the family's JSON report without [dropped]. *)
  let without dropped = function
    | Json.Obj fields ->
        List.filter (fun (k, _) -> not (List.mem k dropped)) fields
    | _ -> []

  let delivered (s : Harness.summary) =
    ("delivered_bytes", Json.Int s.delivered_bytes)

  module Handover_family = struct
    include Handover

    let name = "handover"
    let bench_section = "runtime_handover"

    let arms (o : overrides) =
      let d = default_config in
      let base =
        {
          d with
          common = common o d.common;
          migrate_after = Option.value o.migrate_after ~default:d.migrate_after;
          ctrl_delay = Option.value o.ctrl_delay ~default:d.ctrl_delay;
        }
      in
      [
        ("baseline", { base with migrate = false });
        ("resync", { base with strategy = Resync });
        ("transfer", { base with strategy = Transfer });
      ]

    let bench_row (r : report) =
      without
        [ "data_delivered_bytes"; "proxy_a"; "proxy_b"; "srv_replays_dropped";
          "sim_end_ns" ]
        (json_report r)
      @ [ delivered r.summary ]

    let bench_line arm (r : report) =
      let s = r.summary in
      Printf.sprintf
        "  handover %-8s: %d/%d done  fct p50 %.3fs mean %.3fs  migr %d  \
         resyncs %d  retx %d (spurious %d)"
        arm s.completed s.flows s.fct_p50 s.fct_mean r.migrations s.srv_resyncs
        s.retransmissions s.duplicates
  end

  module Multipath_family = struct
    include Multipath

    let name = "multipath"
    let bench_section = "runtime_handover"

    let arms (o : overrides) =
      let d = default_config in
      let base =
        {
          d with
          common = common o d.common;
          split = Option.value o.split ~default:d.split;
        }
      in
      [ ("split", base); ("single_path", { base with split = (1, 0) }) ]

    let bench_row (r : report) =
      without
        [ "data_delivered_bytes"; "proxy_1"; "proxy_2"; "srv_replays_dropped";
          "sim_end_ns" ]
        (json_report r)
      @ [ delivered r.summary ]

    let bench_line arm (r : report) =
      let s = r.summary in
      Printf.sprintf
        "  multipath %-11s: %d/%d done  fct p50 %.3fs mean %.3fs  split %d/%d  \
         folds %d  resyncs %d"
        arm s.completed s.flows s.fct_p50 s.fct_mean r.path1_pkts r.path2_pkts
        r.folded_decodes s.srv_resyncs
  end

  module Adversary_family = struct
    include Adversary

    let name = "adversary"
    let bench_section = "runtime_adversary"

    (* damage curve (unauth at 0, r/2, r) plus the defence at r *)
    let arms (o : overrides) =
      let d = default_config in
      let rate = Option.value o.attack_rate ~default:d.attack_rate in
      if not (rate >= 0. && rate <= 1.) then
        invalid_arg "--attack-rate must be in [0, 1]";
      let base = { d with common = common o d.common } in
      [
        ("unauth_rate0", { base with auth = false; attack_rate = 0. });
        ( "unauth_rate_half",
          { base with auth = false; attack_rate = rate /. 2. } );
        ("unauth", { base with auth = false; attack_rate = rate });
        ("auth", { base with auth = true; attack_rate = rate });
      ]

    let bench_row (r : report) =
      ("auth", Json.Bool r.config.auth)
      :: without [ "arm"; "data_delivered_bytes"; "proxy"; "sim_end_ns" ]
           (json_report r)
      @ [ delivered r.summary ]

    let bench_line arm (r : report) =
      let s = r.summary in
      Printf.sprintf
        "  adversary %-16s: %d/%d done  admitted %d  resyncs %d (attacker %d)  \
         rejected %d  replays dropped %d  malformed %d"
        arm s.completed s.flows r.attacker_admitted s.srv_resyncs
        r.attacker_resyncs r.auth_rejected r.replays_dropped r.malformed
  end

  module Leakage_family = struct
    include Leakage

    let name = "leakage"
    let bench_section = "runtime_adversary"

    let arms (o : overrides) =
      let d = default_config in
      let base = { d with common = common o d.common } in
      [
        ("unshaped", { base with shape = false });
        ("shaped", { base with shape = true });
      ]

    let bench_row (r : report) =
      ("shaped", Json.Bool r.config.shape)
      :: without [ "arm"; "sim_end_ns" ] (json_report r)

    let bench_line arm (r : report) =
      let s = r.summary in
      Printf.sprintf
        "  leakage %-9s: %d/%d done  observer accuracy %.2f  %d quACKs (%d B, \
         %d dummies)  fct p50 %.3fs"
        arm s.completed s.flows r.observer_accuracy r.quacks_on_wire
        r.quack_bytes_on_wire r.dummy_quacks s.fct_p50
  end
end

(** handover, multipath, adversary, leakage. *)
let all : (module FAMILY) list =
  [
    (module Handover_family);
    (module Multipath_family);
    (module Adversary_family);
    (module Leakage_family);
  ]

let find name =
  List.find_opt (fun (module F : FAMILY) -> F.name = name) all
