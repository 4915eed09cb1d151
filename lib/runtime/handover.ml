module Engine = Netsim.Engine
module Link = Netsim.Link
module Packet = Netsim.Packet
module Time = Netsim.Sim_time
module Path = Sidecar_protocols.Path
module Migration = Sidecar_protocols.Migration

type strategy = Resync | Transfer

let strategy_name = function Resync -> "resync" | Transfer -> "transfer"

type config = {
  strategy : strategy;
  migrate : bool;  (** [false] = baseline arm: every flow stays on A *)
  common : Harness.common;
  far_a : Path.segment;  (** junction -> client via sidecar A *)
  far_b : Path.segment;  (** junction -> client via sidecar B *)
  size_dist : Netsim.Workload.size_dist;
  migrate_after : Time.span;  (** per flow, relative to its start *)
  ctrl_delay : Time.span;  (** control-channel latency of a Transfer *)
}

let default_config =
  {
    strategy = Transfer;
    migrate = true;
    common = Harness.default ~arrival:Harness.flash_crowd;
    far_a = Path.cellular;
    far_b = Path.congested_cell;
    size_dist = Netsim.Workload.web_flows;
    migrate_after = Time.ms 250;
    ctrl_delay = Time.ms 5;
  }

type report = {
  config : config;
  summary : Harness.summary;
  proxy_a : Proxy.stats;
  proxy_b : Proxy.stats;
  migrations : int;
  transfers : int;  (** snapshots shipped over the control channel *)
  transfer_bytes : int;  (** modeled control-channel cost *)
  install_merges : int;  (** transfers that raced with migrated data *)
  srv_replays_dropped : int;
}

let run (cfg : config) =
  Harness.check ~family:"Handover" cfg.common;
  if cfg.migrate_after <= 0 then
    invalid_arg "Handover.run: migrate_after must be positive";
  if cfg.ctrl_delay < 0 then
    invalid_arg "Handover.run: negative control-channel delay";
  (* Far branch 1 is A, 2 is B; end-to-end ACKs ride the flow's
     current path (rev.(1) is A's return link, rev.(0) B's). *)
  let on_a = Array.make cfg.common.flows true in
  let h =
    Harness.create cfg.common ~far:[ cfg.far_a; cfg.far_b ]
      ~sizes:(Harness.Dist cfg.size_dist)
      ~ack_link:(fun i -> if on_a.(i) then 1 else 0)
      ()
  in
  let engine = h.Harness.engine in
  let proxy_a, handle_a = Harness.sidecar h ~addr:"sidecarA" ~far:1 () in
  let proxy_b, handle_b = Harness.sidecar h ~addr:"sidecarB" ~far:2 () in
  (* junction: route by the flow's current path assignment *)
  Link.set_deliver h.Harness.fwd.(0) (fun p ->
      if Harness.owns h p then
        if on_a.(p.Packet.flow) then Proxy.on_ingress proxy_a p
        else Proxy.on_ingress proxy_b p);
  (* the server end is the harness's: under [Resync], sidecar B's first
     fresh quACK after the handover is the regression its replay guard
     resyncs on *)

  (* ---- the migration event ---------------------------------------- *)
  let migrations = ref 0 in
  let transfers = ref 0 in
  let transfer_bytes = ref 0 in
  let migrate i () =
    if (not (Harness.flow_done h i)) && on_a.(i) then begin
      incr migrations;
      (match cfg.strategy with
      | Resync -> ()
      | Transfer -> (
          (* EMQX-style session takeover: A exports the flow's sketch
             and emission index; the snapshot reaches B after the
             control channel's delay. Data starts taking the new path
             immediately, so a slow control plane can lose the race —
             [Migration.install] folds the snapshot into live state in
             that case. *)
          match Migration.snapshot handle_a ~flow:i with
          | None -> ()
          | Some snap ->
              incr transfers;
              transfer_bytes :=
                !transfer_bytes + Migration.snapshot_wire_bytes snap;
              Engine.schedule engine ~delay:cfg.ctrl_delay (fun () ->
                  Migration.install handle_b ~flow:i snap)));
      (* the old sidecar drops the flow either way; under [Resync] B
         simply admits it fresh on the first migrated packet *)
      ignore (Proxy.release proxy_a i);
      on_a.(i) <- false
    end
  in
  let summary =
    Harness.run h ~release:[ proxy_a; proxy_b ]
      ~on_start:(fun i ->
        if cfg.migrate then
          Engine.schedule engine ~delay:cfg.migrate_after (migrate i))
      ()
  in
  {
    config = cfg;
    summary;
    proxy_a = Proxy.stats proxy_a;
    proxy_b = Proxy.stats proxy_b;
    migrations = !migrations;
    transfers = !transfers;
    transfer_bytes = !transfer_bytes;
    install_merges = Migration.install_merges handle_b;
    srv_replays_dropped = Harness.replays_dropped h;
  }

let json_report (r : report) =
  Harness.json r.summary
    ~head:
      [
        ("strategy", Obs.Json.String (strategy_name r.config.strategy));
        ("migrated", Obs.Json.Bool r.config.migrate);
      ]
    ~body:
      [
        ("proxy_a", Scenario.json_proxy_stats r.proxy_a);
        ("proxy_b", Scenario.json_proxy_stats r.proxy_b);
        ("migrations", Obs.Json.Int r.migrations);
        ("transfers", Obs.Json.Int r.transfers);
        ("transfer_bytes", Obs.Json.Int r.transfer_bytes);
        ("install_merges", Obs.Json.Int r.install_merges);
      ]
    ~replays_dropped:r.srv_replays_dropped ~duplicates:"spurious_retx" ()

let pp_report ppf (r : report) =
  let s = r.summary in
  Format.fprintf ppf
    "@[<v>handover %s%s: %a@,\
     migrations %d (transfers %d, %d B ctrl, %d merged on race)@,\
     server resyncs %d (replays dropped %d), retx %d (spurious %d), timeouts \
     %d@,\
     sidecar A: %a@,sidecar B: %a@,delivered %d B@]"
    (strategy_name r.config.strategy)
    (if r.config.migrate then "" else " (baseline: no migration)")
    (Harness.pp_outcome ~wedged:false) s r.migrations r.transfers
    r.transfer_bytes r.install_merges s.srv_resyncs r.srv_replays_dropped
    s.retransmissions s.duplicates s.timeouts
    Scenario.pp_proxy_stats r.proxy_a Scenario.pp_proxy_stats r.proxy_b
    s.delivered_bytes
