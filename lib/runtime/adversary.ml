module Link = Netsim.Link
module Packet = Netsim.Packet
module Q = Sidecar_quack
module Path = Sidecar_protocols.Path
module Adv = Sidecar_protocols.Adversary
module Seam = Sidecar_protocols.Server_seam

type config = {
  auth : bool;
      (** [true] = the server verifies tags and runs the replay guard;
          [false] = the pre-fix seams, to measure the damage *)
  attack_rate : float;  (** per-attack bernoulli rate (all four equal) *)
  common : Harness.common;
  far : Path.segment;  (** junction -> client *)
  size_dist : Netsim.Workload.size_dist;
  replay_delay : Netsim.Sim_time.span;
}

let default_config =
  {
    auth = false;
    attack_rate = 0.1;
    common = Harness.default ~arrival:Harness.poisson;
    far = Path.cellular;
    size_dist = Netsim.Workload.web_flows;
    replay_delay = Netsim.Sim_time.ms 50;
  }

type report = {
  config : config;
  summary : Harness.summary;
  proxy : Proxy.stats;
  quacks_sealed : int;  (** genuine emissions sealed at the proxy *)
  auth_bytes_overhead : int;  (** tag bytes added to those emissions *)
  attacks : Adv.stats;
  attacker_admitted : int;
      (** quACKs whose sums were never emitted by the sidecar
          (fabricated or tampered contents) yet reached the sender
          state (fresh apply or adopted by a resync) — the headline
          integrity number; must be 0 under [auth]. Replays of genuine
          bytes the server never received are delivery delay, not an
          integrity violation, and are excluded. *)
  attacker_resyncs : int;
      (** §3.3 resyncs triggered by attacker-delivered packets
          (replayed genuine bytes included) *)
  auth_rejected : int;  (** sealed quACKs dropped by tag verification *)
  replays_dropped : int;  (** valid-tag replays dropped by the guard *)
  malformed : int;
      (** sealed quACKs whose wire bytes failed to decode, or decoded
          to sketch parameters other than the server's own *)
}

let run (cfg : config) =
  let c = cfg.common in
  Harness.check ~family:"Adversary" c;
  if not (cfg.attack_rate >= 0. && cfg.attack_rate <= 1.) then
    invalid_arg "Adversary.run: attack rate outside [0, 1]";
  let n = c.flows in
  let key = Harness.auth_key c.seed in
  let h =
    Harness.create c ~far:[ cfg.far ] ~sizes:(Harness.Dist cfg.size_dist) ()
  in

  (* ---- the quACK-emitting sidecar at the junction ----------------- *)
  let quacks_sealed = ref 0 in
  (* Ground truth for damage attribution: every wire encoding the
     sidecar actually emitted, per flow. A packet whose *contents*
     appear here is genuine feedback however it was delivered — an
     attacker replaying bytes the server never received is
     indistinguishable from (and no worse than) network delay, so it
     is not an admitted attack; fabricated or tampered sums are. *)
  let emitted = Array.init n (fun _ -> Hashtbl.create 64) in
  (* The proxy's return traffic: quACK frames leave as sealed wire
     bytes + detached tag (what actually travels, and what the
     adversary gets to attack); everything else passes through. *)
  let seal_backward p =
    match Harness.seal ~key p with
    | Some (sealed, wire) ->
        incr quacks_sealed;
        Hashtbl.replace emitted.(p.Packet.flow) wire ();
        Harness.to_server h sealed
    | None -> Harness.to_server h p
  in
  let proxy, _ =
    Harness.sidecar h ~addr:"sidecar" ~far:1 ~backward:seal_backward ()
  in

  (* ---- server-side quACK consumption ------------------------------ *)
  let attacker_admitted = ref 0 in
  let attacker_resyncs = ref 0 in
  let auth_rejected = ref 0 in
  let malformed = ref 0 in
  (* legacy high-water marks for the unauthenticated arm *)
  let last_index = Array.make n 0 in
  (* [foreign] = the quACK's contents were never emitted by the
     sidecar (fabricated or tampered sums — the integrity violation
     [attacker_admitted] counts); [hostile] = the packet was delivered
     by the adversary (replayed genuine bytes included — what
     [attacker_resyncs] attributes). A resync is the §3.3 escape
     hatch, which an attacker's garbage sums reach almost surely:
     without authentication the seam adopts the forgery as the new
     baseline. *)
  let attribute ~foreign ~hostile = function
    | Seam.Applied -> if foreign then incr attacker_admitted
    | Seam.Resynced ->
        if hostile then incr attacker_resyncs;
        if foreign then incr attacker_admitted
    | Seam.Ignored -> ()
  in
  let on_sealed i ~index ~origin ~tag ~wire =
    if cfg.auth && not (Q.Wire.verify_tag ~key ~flow:i ~index ~tag wire) then
      (* forged, truncated and bit-flipped quACKs all die here — the
         verifier's expected tag length is its own, so the old
         short-tag forgery is closed too *)
      incr auth_rejected
    else
      match Q.Wire.decode_framed wire with
      | Error _ -> incr malformed
      | Ok quack
        when quack.Q.Quack.bits <> c.bits
             || Q.Quack.threshold quack <> c.threshold
             || quack.Q.Quack.count_bits <> c.count_bits ->
          (* decodes, but not with the server's sketch parameters (the
             truncation attack lands here even unauthenticated: the
             server knows its own threshold) *)
          incr malformed
      | Ok quack ->
          let hostile = origin <> Adv.Proxy in
          let foreign = hostile && not (Hashtbl.mem emitted.(i) wire) in
          attribute ~foreign ~hostile
            (if cfg.auth then Harness.receive h i ~index quack
             else begin
               (* the pre-guard seam: any regressed index is read as a
                  restart and its sums adopted wholesale — replayed AND
                  forged quACKs both walk straight in *)
               let outcome =
                 if index <= last_index.(i) then Harness.resync h i quack
                 else Harness.apply h i quack
               in
               last_index.(i) <- index;
               outcome
             end)
  in
  let deliver_server p =
    if Harness.owns h p then
      match p.Packet.payload with
      | Adv.Sealed { wire; tag; index; origin } ->
          on_sealed p.Packet.flow ~index ~origin ~tag ~wire
      | _ -> Harness.deliver_ack h p
  in
  let adv =
    Adv.create ~replay_delay:cfg.replay_delay ~engine:h.Harness.engine
      ~rng:(Netsim.Rng.split (Netsim.Engine.rng h.Harness.engine))
      ~rates:(Adv.uniform cfg.attack_rate)
      ~emit:deliver_server ()
  in
  Link.set_deliver h.Harness.fwd.(0) (fun p ->
      if Harness.owns h p then Proxy.on_ingress proxy p);
  Link.set_deliver h.Harness.rev.(1) (Adv.on_path adv);
  let summary = Harness.run h ~release:[ proxy ] () in
  {
    config = cfg;
    summary;
    proxy = Proxy.stats proxy;
    quacks_sealed = !quacks_sealed;
    auth_bytes_overhead = Q.Wire.auth_overhead * !quacks_sealed;
    attacks = Adv.stats adv;
    attacker_admitted = !attacker_admitted;
    attacker_resyncs = !attacker_resyncs;
    auth_rejected = !auth_rejected;
    replays_dropped = Harness.replays_dropped h;
    malformed = !malformed;
  }

let arm_name (r : report) = if r.config.auth then "auth" else "unauth"

let json_report (r : report) =
  Harness.json r.summary
    ~head:
      [
        ("arm", Obs.Json.String (arm_name r));
        ("attack_rate", Obs.Json.Float r.config.attack_rate);
      ]
    ~wedged:true
    ~body:
      [
        ("proxy", Scenario.json_proxy_stats r.proxy);
        ("quacks_sealed", Obs.Json.Int r.quacks_sealed);
        ("auth_bytes_overhead", Obs.Json.Int r.auth_bytes_overhead);
        ("attacks_spoofed", Obs.Json.Int r.attacks.Adv.spoofs);
        ("attacks_replayed", Obs.Json.Int r.attacks.Adv.replays);
        ("attacks_truncated", Obs.Json.Int r.attacks.Adv.truncations);
        ("attacks_bitflipped", Obs.Json.Int r.attacks.Adv.bitflips);
        ("attacker_admitted", Obs.Json.Int r.attacker_admitted);
        ("attacker_resyncs", Obs.Json.Int r.attacker_resyncs);
        ("auth_rejected", Obs.Json.Int r.auth_rejected);
        ("replays_dropped", Obs.Json.Int r.replays_dropped);
        ("malformed", Obs.Json.Int r.malformed);
      ]
    ~duplicates:"spurious_retx" ()

let pp_report ppf (r : report) =
  let s = r.summary in
  Format.fprintf ppf
    "@[<v>adversary arm=%s rate=%.3f: %a@,\
     attacks: %d spoofed, %d replayed, %d truncated, %d bit-flipped (of %d \
     observed)@,\
     damage: %d attacker quACKs admitted, %d attacker-forced resyncs@,\
     defence: %d rejected by tag, %d replays dropped, %d malformed@,\
     sealed %d quACKs (+%d B tags); server resyncs %d, retx %d (spurious \
     %d), timeouts %d@,\
     proxy: %a@,delivered %d B@]"
    (arm_name r) r.config.attack_rate (Harness.pp_outcome ~wedged:true) s
    r.attacks.Adv.spoofs r.attacks.Adv.replays r.attacks.Adv.truncations
    r.attacks.Adv.bitflips r.attacks.Adv.observed r.attacker_admitted
    r.attacker_resyncs r.auth_rejected r.replays_dropped r.malformed
    r.quacks_sealed r.auth_bytes_overhead s.srv_resyncs s.retransmissions
    s.duplicates s.timeouts Scenario.pp_proxy_stats r.proxy s.delivered_bytes
