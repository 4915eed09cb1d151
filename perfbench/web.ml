(* The [web_cc] / [web_ack] workloads: many lognormal web flows through
   one bounded-table proxy ({!Sidecar_runtime.Scenario}).

   [traced] rebuilds [Scenario.run] from the library's public pieces —
   [Path.build], [Proxy.create], the protocol constructors, the transport
   endpoints and the quACK sender/receiver states — in the same order,
   so the simulation is event-for-event the same, and wraps every
   callback it installs in a {!Spans} span of the layer it calls into.
   It must reproduce [Scenario.json_report] byte for byte; anything else
   means it measured a different program. *)

module Sc = Sidecar_runtime.Scenario
module Proxy = Sidecar_runtime.Proxy
module Flow_table = Sidecar_runtime.Flow_table
module Engine = Netsim.Engine
module Link = Netsim.Link
module Packet = Netsim.Packet
module Time = Netsim.Sim_time
module Rng = Netsim.Rng
module Stats = Netsim.Stats
module Workload = Netsim.Workload
module Q = Sidecar_quack
module Path = Sidecar_protocols.Path
module Sframes = Sidecar_protocols.Sframes
module Protocol = Sidecar_protocols.Protocol
module Proto_cc = Sidecar_protocols.Proto_cc
module Proto_ar = Sidecar_protocols.Proto_ar

(* ~4,000 flows at the default 20 ms mean gap arrive over ~80 s of
   simulated time; the 600 s horizon leaves room for the heavy tail, so a
   flow counts as failed only when it is stuck. *)
let config ~protocol ~seed =
  { Sc.default_config with protocol; flows = 4000; seed; until = Time.s 600 }

(* The same run cut before its first event: validation, path, workload
   sampling, proxy and endpoint construction, arrival scheduling. *)
let setup_config cfg = { cfg with Sc.until = 0 }

(* Proxied data packets: tracked plus degraded at the proxy. *)
let proxied (r : Sc.report) =
  r.Sc.proxy.Proxy.data_packets + r.Sc.proxy.Proxy.degraded_packets

let json r = Obs.Json.to_string (Sc.json_report r)

(* Counts only the rebuild can see: calls at seams the library does not
   count itself. *)
type counts = {
  mutable ingress : int;
  mutable returns : int;
  mutable sender_acks : int;
  mutable sidecar_acks : int;
  mutable delivers : int;
  mutable ss_quacks : int;  (* Sender_state.on_quack calls *)
  mutable ss_wasted : int;  (* stale or threshold-exceeded decodes *)
  mutable rx_quacks : int;  (* client receiver-state quACKs *)
  mutable acks_sent : int;  (* end-to-end ACKs the receivers sent *)
}

let wrap_protocol sp (p : Protocol.t) =
  let init ctx =
    let fl = p.Protocol.init ctx in
    let flow = ctx.Protocol.flow in
    {
      fl with
      Protocol.on_data =
        (fun pkt ->
          Spans.enter sp Layer.protocol ~flow;
          fl.Protocol.on_data pkt;
          Spans.leave sp);
      on_feedback =
        (fun ~index q ->
          Spans.enter sp Layer.protocol ~flow;
          fl.Protocol.on_feedback ~index q;
          Spans.leave sp);
      on_freq =
        (fun n ->
          Spans.enter sp Layer.protocol ~flow;
          fl.Protocol.on_freq n;
          Spans.leave sp);
      on_timer =
        (fun () ->
          Spans.enter sp Layer.protocol ~flow;
          fl.Protocol.on_timer ();
          Spans.leave sp);
      on_evict =
        (fun () ->
          Spans.enter sp Layer.protocol ~flow;
          fl.Protocol.on_evict ();
          Spans.leave sp);
      on_release =
        (fun () ->
          Spans.enter sp Layer.protocol ~flow;
          fl.Protocol.on_release ();
          Spans.leave sp);
    }
  in
  { p with Protocol.init }

let send sp link (p : Packet.t) =
  Spans.enter sp Layer.link ~flow:p.Packet.flow;
  ignore (Link.send link p);
  Spans.leave sp

let traced sp (cfg : Sc.config) =
  let c =
    {
      ingress = 0;
      returns = 0;
      sender_acks = 0;
      sidecar_acks = 0;
      delivers = 0;
      ss_quacks = 0;
      ss_wasted = 0;
      rx_quacks = 0;
      acks_sent = 0;
    }
  in
  (match (cfg.Sc.protocol, cfg.Sc.policy, cfg.Sc.field, cfg.Sc.datapath) with
  | (`Cc | `Ack), Flow_table.Lru, `Modular, `Ref -> ()
  | _ ->
      invalid_arg
        "Web.traced: mirrors only cc/ack under LRU on the modular ref datapath");
  let { Path.engine; fwd; rev } = Path.build ~seed:cfg.seed [ cfg.near; cfg.far ] in
  let nseg = Array.length fwd in
  let wire = cfg.mss + 40 in
  let n = cfg.flows in
  let field_mod = None and datapath = Protocol.Ref in
  let wl_rng = Rng.split (Engine.rng engine) in
  let units =
    Array.init n (fun _ ->
        let u = Workload.sample_size wl_rng cfg.size_dist in
        max cfg.min_units (min cfg.max_units u))
  in
  let start_at =
    let t = ref 0. in
    Array.init n (fun _ ->
        t := !t +. Workload.sample_exponential wl_rng ~mean:cfg.arrival_mean_s;
        Time.of_float_s !t)
  in
  let protocol =
    match cfg.protocol with
    | `Cc ->
        Proto_cc.make
          {
            Proto_cc.bits = cfg.bits;
            threshold = cfg.threshold;
            count_bits = Some cfg.count_bits;
            wire;
            buffer_pkts = cfg.buffer_pkts;
            upstream = Proto_cc.Every cfg.upstream_quack_every;
            overflow = Proto_cc.Bypass;
            field = field_mod;
            datapath;
          }
    | `Ack | `Retx ->
        Proto_ar.make
          {
            Proto_ar.bits = cfg.bits;
            threshold = cfg.threshold;
            count_bits = Some cfg.count_bits;
            quack_every = cfg.upstream_quack_every;
            omit_count = false;
            field = field_mod;
            datapath;
          }
  in
  let proxy =
    Proxy.create engine ~capacity:cfg.table_flows ~policy:cfg.policy
      ~protocol:(wrap_protocol sp protocol)
      ~forward:(send sp fwd.(1))
      ~backward:(send sp rev.(1))
      ()
  in
  let ss_config =
    {
      Q.Sender_state.default_config with
      bits = cfg.bits;
      threshold = cfg.threshold;
      count_bits = cfg.count_bits;
      field = field_mod;
    }
  in
  let srv_ss = Array.init n (fun _ -> Q.Sender_state.create ss_config) in
  let upstream_interval = Array.make n cfg.upstream_quack_every in
  let srv_resyncs = ref 0 in
  let freq_updates_sent = ref 0 in
  let senders =
    Array.init n (fun i ->
        Transport.Sender.create engine ~mss:cfg.mss ~flow:i
          ~id_key:(Q.Identifier.key_of_int (0x51DE + i))
          ~on_transmit:(fun p ->
            Spans.enter sp Layer.sender_state ~flow:i;
            Q.Sender_state.on_send srv_ss.(i) ~id:p.Packet.id p.Packet.seq;
            Spans.leave sp)
          ~total_units:units.(i) ~egress:(send sp fwd.(0)) ())
  in
  let client_rx =
    Array.init n (fun _ ->
        Q.Receiver_state.create ~bits:cfg.bits ?field:field_mod
          ~count_bits:cfg.count_bits
          ~policy:(Q.Receiver_state.Every_packets cfg.client_quack_every)
          ~threshold:cfg.threshold ())
  in
  let client_quack_index = Array.make n 0 in
  let send_client_quack i q =
    c.rx_quacks <- c.rx_quacks + 1;
    client_quack_index.(i) <- client_quack_index.(i) + 1;
    send sp rev.(0)
      (Sframes.quack_packet ~src:"client" ~quack:q ~dst:"proxy"
         ~index:client_quack_index.(i) ~count_omitted:false ~flow:i
         ~now:(Engine.now engine) ())
  in
  let receivers_ref = ref [||] in
  let on_client_data i =
    match cfg.protocol with
    | `Cc ->
        fun (p : Packet.t) ->
          Spans.enter sp Layer.receiver_state ~flow:i;
          let q = Q.Receiver_state.on_receive client_rx.(i) p.Packet.id in
          Spans.leave sp;
          (match q with Some q -> send_client_quack i q | None -> ())
    | `Ack | `Retx ->
        let delivered = ref 0 in
        fun (_ : Packet.t) ->
          incr delivered;
          if !delivered = cfg.warmup_units && Array.length !receivers_ref > i
          then
            Transport.Receiver.set_ack_every !receivers_ref.(i)
              cfg.client_ack_every
  in
  let receivers =
    Array.init n (fun i ->
        Transport.Receiver.create engine ~flow:i ~total_units:units.(i)
          ~on_data:(on_client_data i) ~send_ack:(send sp rev.(0)) ())
  in
  receivers_ref := receivers;
  let srv_guards = Array.init n (fun _ -> Q.Replay_guard.create ()) in
  let resync i quack =
    incr srv_resyncs;
    Spans.enter sp Layer.sender_state ~flow:i;
    ignore (Q.Sender_state.resync_to srv_ss.(i) quack);
    Spans.leave sp
  in
  let on_srv_report i quack =
    c.ss_quacks <- c.ss_quacks + 1;
    Spans.enter sp Layer.sender_state ~flow:i;
    let r = Q.Sender_state.on_quack srv_ss.(i) quack in
    Spans.leave sp;
    match r with
    | Ok rep when not rep.Q.Sender_state.stale ->
        (match rep.Q.Sender_state.acked with
        | [] -> ()
        | seqs ->
            c.sidecar_acks <- c.sidecar_acks + 1;
            Spans.enter sp Layer.sender ~flow:i;
            ignore (Transport.Sender.sidecar_ack senders.(i) ~seqs);
            Spans.leave sp);
        if cfg.adaptive then begin
          let lost = List.length rep.Q.Sender_state.lost in
          let got = List.length rep.Q.Sender_state.acked in
          if lost + got > 0 then begin
            let observed_loss = float_of_int lost /. float_of_int (lost + got) in
            let next =
              Q.Frequency.adapt_interval ~current:upstream_interval.(i)
                ~observed_loss ~target_missing:cfg.target_missing
            in
            if next <> upstream_interval.(i) then begin
              upstream_interval.(i) <- next;
              incr freq_updates_sent;
              send sp fwd.(0)
                (Sframes.freq_packet ~dst:"proxy" ~interval_packets:next
                   ~flow:i ~now:(Engine.now engine))
            end
          end
        end
    | Ok _ -> c.ss_wasted <- c.ss_wasted + 1
    | Error (`Threshold_exceeded _) ->
        c.ss_wasted <- c.ss_wasted + 1;
        resync i quack
    | Error (`Config_mismatch _) -> ()
  in
  let on_server_quack i ~index quack =
    Spans.enter sp Layer.replay_guard ~flow:i;
    let v = Q.Replay_guard.classify srv_guards.(i) ~index quack in
    Spans.leave sp;
    match v with
    | Q.Replay_guard.Fresh -> on_srv_report i quack
    | Q.Replay_guard.Replay -> ()
    | Q.Replay_guard.Regression -> resync i quack
  in
  let delivered_bytes = ref 0 in
  Link.set_tap fwd.(nseg - 1) (fun p ->
      delivered_bytes := !delivered_bytes + p.Packet.size);
  let deliver_client p =
    let f = p.Packet.flow in
    if f >= 0 && f < n then begin
      c.delivers <- c.delivers + 1;
      Spans.enter sp Layer.receiver ~flow:f;
      Transport.Receiver.deliver receivers.(f) p;
      Spans.leave sp
    end
  in
  let deliver_server p =
    let f = p.Packet.flow in
    match p.Packet.payload with
    | Sframes.Quack_frame { quack; dst = "server"; index; _ } ->
        if f >= 0 && f < n then on_server_quack f ~index quack
    | _ ->
        if f >= 0 && f < n then begin
          c.sender_acks <- c.sender_acks + 1;
          Spans.enter sp Layer.sender ~flow:f;
          Transport.Sender.deliver_ack senders.(f) p;
          Spans.leave sp
        end
  in
  Link.set_deliver fwd.(0) (fun p ->
      c.ingress <- c.ingress + 1;
      Spans.enter sp Layer.proxy ~flow:p.Packet.flow;
      Proxy.on_ingress proxy p;
      Spans.leave sp);
  Link.set_deliver fwd.(1) deliver_client;
  Link.set_deliver rev.(0) (fun p ->
      c.returns <- c.returns + 1;
      Spans.enter sp Layer.proxy ~flow:p.Packet.flow;
      Proxy.on_return proxy p;
      Spans.leave sp);
  Link.set_deliver rev.(1) deliver_server;
  let flow_done i = Transport.Receiver.complete_at receivers.(i) <> None in
  Proxy.start proxy ~until:cfg.until;
  let rec keepalive i () =
    if flow_done i then begin
      Spans.enter sp Layer.proxy ~flow:i;
      ignore (Proxy.release proxy i);
      Spans.leave sp
    end
    else if Engine.now engine < cfg.until then begin
      (match cfg.protocol with
      | `Cc ->
          Spans.enter sp Layer.receiver_state ~flow:i;
          let q = Q.Receiver_state.emit client_rx.(i) in
          Spans.leave sp;
          send_client_quack i q
      | `Ack | `Retx -> ());
      Engine.schedule engine ~delay:cfg.keepalive (keepalive i)
    end
  in
  Array.iteri
    (fun i at ->
      Engine.schedule_at engine at (fun () ->
          Spans.enter sp Layer.sender ~flow:i;
          Transport.Sender.start senders.(i);
          Spans.leave sp;
          Engine.schedule engine ~delay:cfg.keepalive (keepalive i)))
    start_at;
  Spans.enter sp Layer.engine ~flow:(-1);
  Engine.run ~until:cfg.until engine;
  Spans.leave sp;
  let flow_reports =
    Array.init n (fun i ->
        let completed_at = Transport.Receiver.complete_at receivers.(i) in
        let stats = Transport.Sender.stats senders.(i) in
        {
          Sc.flow = i;
          units = units.(i);
          started_at = start_at.(i);
          completed = completed_at <> None;
          fct_s =
            (match completed_at with
            | Some at -> Time.to_float_s (Time.diff at start_at.(i))
            | None -> Float.nan);
          transmissions = stats.Transport.Sender.transmissions;
          retransmissions = stats.Transport.Sender.retransmissions;
          timeouts = stats.Transport.Sender.timeouts;
          duplicates = Transport.Receiver.duplicates receivers.(i);
        })
  in
  let qs = Stats.Quantiles.create () in
  let summary = Stats.Summary.create () in
  Array.iter
    (fun (fr : Sc.flow_report) ->
      if fr.Sc.completed then begin
        Stats.Quantiles.add qs fr.Sc.fct_s;
        Stats.Summary.add summary fr.Sc.fct_s
      end)
    flow_reports;
  c.acks_sent <-
    Array.fold_left (fun a r -> a + Transport.Receiver.acks_sent r) 0 receivers;
  let table = Proxy.table_stats proxy in
  let report =
    {
      Sc.flows = flow_reports;
      completed =
        Array.fold_left
          (fun a (f : Sc.flow_report) -> if f.Sc.completed then a + 1 else a)
          0 flow_reports;
      fct_p50 = Stats.Quantiles.p50 qs;
      fct_p95 = Stats.Quantiles.p95 qs;
      fct_p99 = Stats.Quantiles.p99 qs;
      fct_mean = Stats.Summary.mean summary;
      data_delivered_bytes = !delivered_bytes;
      proxy = Proxy.stats proxy;
      proxy2 = None;
      table;
      table2 = None;
      peak_occupancy = Proxy.peak_occupancy proxy;
      evictions = table.Flow_table.evicted_lru + table.Flow_table.evicted_idle;
      srv_resyncs = !srv_resyncs;
      srv_replays_dropped =
        Array.fold_left (fun a g -> a + Q.Replay_guard.replays g) 0 srv_guards;
      freq_updates_sent = !freq_updates_sent;
      proxy_retransmissions =
        Obs.Metrics.Counter.get (Proxy.counters proxy).Protocol.retransmissions;
      proxy_busy_s = Proxy.busy_s proxy;
      sim_end = Engine.now engine;
    }
  in
  (report, c, Engine.metrics engine)
