module Engine = Netsim.Engine
module Link = Netsim.Link
module Packet = Netsim.Packet
module Time = Netsim.Sim_time
module Workload = Netsim.Workload
module Q = Sidecar_quack
module Path = Sidecar_protocols.Path
module Sframes = Sidecar_protocols.Sframes
module Protocol = Sidecar_protocols.Protocol
module Proto_cc = Sidecar_protocols.Proto_cc
module Proto_ar = Sidecar_protocols.Proto_ar
module Proto_retx = Sidecar_protocols.Proto_retx

type config = {
  protocol : [ `Cc | `Ack | `Retx ];
  flows : int;
  table_flows : int;
  policy : Flow_table.policy;
  near : Path.segment;
  middle : Path.segment;
  far : Path.segment;
  mss : int;
  size_dist : Workload.size_dist;
  min_units : int;
  max_units : int;
  arrival_mean_s : float;
  client_quack_every : int;
  client_ack_every : int;
  warmup_units : int;
  keepalive : Time.span;
  bits : int;
  threshold : int;
  count_bits : int;
  upstream_quack_every : int;
  adaptive : bool;
  target_missing : int;
  buffer_pkts : int;
  field : [ `Modular | `Log ];
  datapath : [ `Ref | `Flat ];
  seed : int;
  until : Time.t;
}

let default_far =
  Path.segment ~rate_bps:20_000_000 ~delay:(Time.ms 2)
    ~loss:(Path.Bernoulli 0.01) ()

let default_near =
  Path.segment ~rate_bps:100_000_000 ~delay:(Time.ms 28) ()

(* Only the [`Retx] protocol uses the middle segment: it becomes the
   lossy subpath the near/far proxy pair brackets. *)
let default_middle =
  Path.segment ~rate_bps:50_000_000 ~delay:(Time.ms 1)
    ~loss:
      (Path.Gilbert { p_good_to_bad = 0.01; p_bad_to_good = 0.2; loss_bad = 0.3 })
    ()

(* §4's parameter selection, applied to the far segment (the link the
   per-flow quACK state must absorb): identifier width from the
   collision budget, threshold from worst-case losses per interval,
   interval from the CC-division cadence. *)
let planned_for (far : Path.segment) =
  let link =
    {
      Q.Frequency.rtt_s = Time.to_float_s (Path.rtt [ far ]);
      rate_bps = float_of_int far.Path.rate_bps;
      loss = Float.max 1e-4 (Path.average_loss far.Path.loss);
      mtu_bytes = 1500;
    }
  in
  Q.Planner.plan
    { Q.Planner.default_requirements with link; protocol = Q.Planner.Cc_division }

let default_config =
  let d = planned_for default_far in
  {
    protocol = `Cc;
    flows = 200;
    table_flows = 64;
    policy = Flow_table.Lru;
    near = default_near;
    middle = default_middle;
    far = default_far;
    mss = 1460;
    size_dist = Workload.web_flows;
    min_units = 1;
    max_units = 2000;
    arrival_mean_s = 0.02;
    client_quack_every = max 2 (min 64 d.Q.Planner.interval_packets);
    client_ack_every = 32;
    warmup_units = 200;
    keepalive = 4 * Path.rtt [ default_far ];
    bits = d.Q.Planner.bits;
    (* the planner sizes [t] for one clean interval; short-flow churn
       (admissions, resyncs) wants head-room, hence the floor *)
    threshold = max 8 d.Q.Planner.threshold;
    count_bits = max 16 d.Q.Planner.count_bits;
    upstream_quack_every = 16;
    adaptive = true;
    target_missing = 2;
    buffer_pkts = 256;
    field = `Modular;
    datapath = `Ref;
    seed = 1;
    until = Time.s 120;
  }

type flow_report = {
  flow : int;
  units : int;
  started_at : Time.t;
  completed : bool;
  fct_s : float;
  transmissions : int;
  retransmissions : int;
  timeouts : int;
  duplicates : int;
}

type report = {
  flows : flow_report array;
  completed : int;
  fct_p50 : float;
  fct_p95 : float;
  fct_p99 : float;
  fct_mean : float;
  data_delivered_bytes : int;
  proxy : Proxy.stats;
  proxy2 : Proxy.stats option;
  table : Flow_table.stats;
  table2 : Flow_table.stats option;
  peak_occupancy : int;
  evictions : int;
  srv_resyncs : int;
  srv_replays_dropped : int;
  freq_updates_sent : int;
  proxy_retransmissions : int;
  proxy_busy_s : float;
  sim_end : Time.t;
}

let run ?cost_clock (cfg : config) =
  let common =
    {
      Harness.flows = cfg.flows;
      table_flows = cfg.table_flows;
      near = cfg.near;
      mss = cfg.mss;
      min_units = cfg.min_units;
      max_units = cfg.max_units;
      arrival = Workload.Poisson { mean_s = cfg.arrival_mean_s };
      quack_every = cfg.upstream_quack_every;
      bits = cfg.bits;
      threshold = cfg.threshold;
      count_bits = cfg.count_bits;
      seed = cfg.seed;
      until = cfg.until;
    }
  in
  Harness.check ~family:"Scenario" common;
  if cfg.client_quack_every < 1 then
    invalid_arg "Scenario.run: client quack interval must be positive";
  if cfg.keepalive <= 0 then
    invalid_arg "Scenario.run: keepalive must be positive";
  let wire = cfg.mss + 40 in
  let n = cfg.flows in
  (* Sketch arithmetic shared by every sketch in the run, so each
     decode pair (proxy rx / server ss, client rx / proxy ss) agrees
     on its field. [`Log] is table-backed and only fits small moduli
     (Log_field rejects bits > 20). *)
  let field_mod =
    match cfg.field with
    | `Modular -> None
    | `Log ->
        Some
          (Sidecar_field.Log_field.make
             (Sidecar_field.Primes.field_for_bits cfg.bits))
  in
  (* Receive-path sketch backing at the proxies. Slabs are sized to
     the flow table: eviction always releases a slot before the next
     admission acquires one. *)
  let datapath =
    match cfg.datapath with
    | `Ref -> Protocol.Ref
    | `Flat -> Protocol.Flat { slots = cfg.table_flows; batch = 16 }
  in

  (* ---- client and server sidecar arms ------------------------------ *)
  let client_rx =
    Array.init n (fun _ ->
        Q.Receiver_state.create ~bits:cfg.bits ?field:field_mod
          ~count_bits:cfg.count_bits
          ~policy:(Q.Receiver_state.Every_packets cfg.client_quack_every)
          ~threshold:cfg.threshold ())
  in
  let client_quack_index = Array.make n 0 in
  let send_client_quack h i q =
    client_quack_index.(i) <- client_quack_index.(i) + 1;
    ignore
      (Link.send h.Harness.rev.(0)
         (Sframes.quack_packet ~src:"client" ~quack:q ~dst:"proxy"
            ~index:client_quack_index.(i) ~count_omitted:false ~flow:i
            ~now:(Engine.now h.Harness.engine) ()))
  in
  let on_client_data h i =
    match cfg.protocol with
    | `Cc ->
        Some
          (fun (p : Packet.t) ->
            match Q.Receiver_state.on_receive client_rx.(i) p.Packet.id with
            | Some q -> send_client_quack h i q
            | None -> ())
    | `Ack ->
        (* The ACK-frequency extension keeps immediate ACKs during
           start-up (the sender needs the clocking) and goes sparse
           once the flow is established. *)
        let delivered = ref 0 in
        Some
          (fun (_ : Packet.t) ->
            incr delivered;
            if !delivered = cfg.warmup_units then
              Transport.Receiver.set_ack_every h.Harness.receivers.(i)
                cfg.client_ack_every)
    | `Retx -> None
  in
  (* The server-side sidecar of §2.3: after the harness credits a fresh
     decode (§2.2), steer the proxy's quACK cadence toward
     [target_missing] losses per interval. *)
  let upstream_interval = Array.make n cfg.upstream_quack_every in
  let freq_updates_sent = ref 0 in
  let adapt h i (rep : int Q.Sender_state.report) =
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
          ignore
            (Link.send h.Harness.fwd.(0)
               (Sframes.freq_packet ~dst:"proxy" ~interval_packets:next
                  ~flow:i ~now:(Engine.now h.Harness.engine)))
        end
      end
    end
  in

  (* ---- path, workload and endpoints --------------------------------- *)
  (* [`Retx] brackets the middle segment with a proxy pair, so the far
     segments are in series; its endpoints run no server sidecar but
     tolerate the reordering local retransmission introduces. *)
  let h =
    match cfg.protocol with
    | `Cc | `Ack ->
        Harness.create common ~far:[ cfg.far ]
          ~sizes:(Harness.Dist cfg.size_dist) ?field:field_mod
          ~on_data:on_client_data ~on_fresh:adapt ()
    | `Retx ->
        Harness.create common ~far:[ cfg.middle; cfg.far ]
          ~sizes:(Harness.Dist cfg.size_dist) ~pkt_threshold:1024
          ?field:field_mod ~server_sidecar:false ~on_data:on_client_data
          ~on_fresh:adapt ~clients:Harness.Chain ()
  in

  (* ---- proxies ---------------------------------------------------- *)
  let mk_proxy ~protocol ~far ?backward () =
    Harness.proxy h ~protocol ~far ~policy:cfg.policy ?cost_clock ?backward ()
  in
  let retx =
    {
      Proto_retx.bits = cfg.bits;
      threshold = cfg.threshold;
      strikes_to_lose = 1;
      buffer_pkts = cfg.buffer_pkts;
      initial_quack_every = cfg.upstream_quack_every;
      adaptive = cfg.adaptive;
      target_missing = cfg.target_missing;
      subpath_rtt = 2 * cfg.middle.Path.delay;
      near_addr = "proxyA";
      far_addr = "proxyB";
      field = field_mod;
      datapath;
    }
  in
  (* [proxy2] exists only for [`Retx], where the pair brackets the
     middle segment; it is built before [proxy], the order in which
     their metrics register *)
  let proxy2 =
    match cfg.protocol with
    | `Retx ->
        Some
          (mk_proxy ~protocol:(Proto_retx.far retx) ~far:2
             ~backward:(fun p -> ignore (Link.send h.Harness.rev.(1) p))
             ())
    | `Cc | `Ack -> None
  in
  let proxy =
    mk_proxy ~far:1
      ~protocol:
        (match cfg.protocol with
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
        | `Ack ->
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
        | `Retx -> Proto_retx.near retx)
      ()
  in
  let proxies = proxy :: Option.to_list proxy2 in
  Link.set_deliver h.Harness.fwd.(0) (Proxy.on_ingress proxy);
  Option.iter (fun b -> Link.set_deliver h.Harness.fwd.(1) (Proxy.on_ingress b)) proxy2;

  (* ---- run -------------------------------------------------------- *)
  (* Protocol timers (the retransmission pair's far proxy quACKs on a
     subpath-RTT backstop); a no-op for timerless protocols. *)
  List.iter (fun p -> Proxy.start p ~until:cfg.until) proxies;
  (* Client keepalive: for CC division, re-emit the cumulative quACK
     while the flow is open, so a lost quACK can never leave the proxy
     window closed forever (cumulative quACKs make the duplicates
     harmless); for every protocol, release the proxy slots when the
     flow completes. *)
  Harness.start h ~release:proxies ~period:cfg.keepalive
    ~on_tick:
      (match cfg.protocol with
      | `Cc -> fun i -> send_client_quack h i (Q.Receiver_state.emit client_rx.(i))
      | `Ack | `Retx -> ignore)
    ();
  (match cfg.policy with
  | Flow_table.Lru -> ()
  | Flow_table.Idle span ->
      let period = max (Time.ms 1) (span / 2) in
      let all_done () =
        Array.for_all
          (fun r -> Transport.Receiver.complete_at r <> None)
          h.Harness.receivers
      in
      let rec sweep () =
        List.iter (fun p -> ignore (Proxy.sweep_idle p)) proxies;
        if Engine.now h.Harness.engine < cfg.until && not (all_done ()) then
          Engine.schedule h.Harness.engine ~delay:period sweep
      in
      Engine.schedule h.Harness.engine ~delay:period sweep);
  let s = Harness.finish h in

  (* ---- summary ----------------------------------------------------- *)
  let flow_reports =
    Array.init n (fun i ->
        let stats = Transport.Sender.stats h.Harness.senders.(i) in
        let fct_s = Harness.fct h i in
        {
          flow = i;
          units = h.Harness.units.(i);
          started_at = h.Harness.start_at.(i);
          completed = not (Float.is_nan fct_s);
          fct_s;
          transmissions = stats.Transport.Sender.transmissions;
          retransmissions = stats.Transport.Sender.retransmissions;
          timeouts = stats.Transport.Sender.timeouts;
          duplicates = Transport.Receiver.duplicates h.Harness.receivers.(i);
        })
  in
  let table = Proxy.table_stats proxy in
  {
    flows = flow_reports;
    completed = s.Harness.completed;
    fct_p50 = s.Harness.fct_p50;
    fct_p95 = s.Harness.fct_p95;
    fct_p99 = s.Harness.fct_p99;
    (* the mean of no samples reads 0 here, NaN in the harness summary *)
    fct_mean = (if s.Harness.completed = 0 then 0. else s.Harness.fct_mean);
    data_delivered_bytes = s.Harness.delivered_bytes;
    proxy = Proxy.stats proxy;
    proxy2 = Option.map Proxy.stats proxy2;
    table;
    table2 = Option.map Proxy.table_stats proxy2;
    peak_occupancy = Proxy.peak_occupancy proxy;
    evictions = table.Flow_table.evicted_lru + table.Flow_table.evicted_idle;
    srv_resyncs = s.Harness.srv_resyncs;
    srv_replays_dropped = Harness.replays_dropped h;
    freq_updates_sent =
      (match cfg.protocol with
      | `Cc | `Ack -> !freq_updates_sent
      | `Retx ->
          Obs.Metrics.Counter.get (Proxy.counters proxy).Protocol.freq_sent);
    proxy_retransmissions =
      Obs.Metrics.Counter.get (Proxy.counters proxy).Protocol.retransmissions;
    proxy_busy_s = List.fold_left (fun a p -> a +. Proxy.busy_s p) 0. proxies;
    sim_end = s.Harness.sim_end;
  }

let json_proxy_stats (s : Proxy.stats) =
  Obs.Json.Obj
    [
      ("data_packets", Obs.Json.Int s.Proxy.data_packets);
      ("degraded_packets", Obs.Json.Int s.Proxy.degraded_packets);
      ("buffer_bypass", Obs.Json.Int s.Proxy.buffer_bypass);
      ("quacks_rx", Obs.Json.Int s.Proxy.quacks_rx);
      ("degraded_quacks", Obs.Json.Int s.Proxy.degraded_quacks);
      ("quacks_tx", Obs.Json.Int s.Proxy.quacks_tx);
      ("quack_bytes", Obs.Json.Int s.Proxy.quack_bytes);
      ("freq_updates", Obs.Json.Int s.Proxy.freq_updates);
      ("resyncs", Obs.Json.Int s.Proxy.resyncs);
      ("flushed_on_evict", Obs.Json.Int s.Proxy.flushed_on_evict);
    ]

let json_table_stats (s : Flow_table.stats) =
  Obs.Json.Obj
    [
      ("admitted", Obs.Json.Int s.Flow_table.admitted);
      ("evicted_lru", Obs.Json.Int s.Flow_table.evicted_lru);
      ("evicted_idle", Obs.Json.Int s.Flow_table.evicted_idle);
      ("removed", Obs.Json.Int s.Flow_table.removed);
      ("denied", Obs.Json.Int s.Flow_table.denied);
      ("hits", Obs.Json.Int s.Flow_table.hits);
      ("misses", Obs.Json.Int s.Flow_table.misses);
    ]

let json_report r =
  let opt f = function Some x -> f x | None -> Obs.Json.Null in
  Obs.Json.Obj
    [
      ("flows", Obs.Json.Int (Array.length r.flows));
      ("completed", Obs.Json.Int r.completed);
      ("fct_p50_s", Obs.Json.Float r.fct_p50);
      ("fct_p95_s", Obs.Json.Float r.fct_p95);
      ("fct_p99_s", Obs.Json.Float r.fct_p99);
      ("fct_mean_s", Obs.Json.Float r.fct_mean);
      ("data_delivered_bytes", Obs.Json.Int r.data_delivered_bytes);
      ("proxy", json_proxy_stats r.proxy);
      ("proxy2", opt json_proxy_stats r.proxy2);
      ("table", json_table_stats r.table);
      ("table2", opt json_table_stats r.table2);
      ("peak_occupancy", Obs.Json.Int r.peak_occupancy);
      ("evictions", Obs.Json.Int r.evictions);
      ("srv_resyncs", Obs.Json.Int r.srv_resyncs);
      ("srv_replays_dropped", Obs.Json.Int r.srv_replays_dropped);
      ("freq_updates_sent", Obs.Json.Int r.freq_updates_sent);
      ("proxy_retransmissions", Obs.Json.Int r.proxy_retransmissions);
      ("proxy_busy_s", Obs.Json.Float r.proxy_busy_s);
      ("sim_end_ns", Obs.Json.Int r.sim_end);
    ]

let pp_proxy_stats ppf (s : Proxy.stats) =
  Format.fprintf ppf
    "%d tracked pkts, %d degraded pkts, %d quacks in (%d degraded), %d quacks \
     out (%d B), %d resyncs, %d flushed on evict"
    s.Proxy.data_packets s.Proxy.degraded_packets s.Proxy.quacks_rx
    s.Proxy.degraded_quacks s.Proxy.quacks_tx s.Proxy.quack_bytes
    s.Proxy.resyncs s.Proxy.flushed_on_evict

let pp_report ppf r =
  Format.fprintf ppf
    "@[<v>flows %d/%d completed by %a@,\
     fct p50 %.3fs p95 %.3fs p99 %.3fs mean %.3fs@,\
     table: peak %d, admitted %d, evicted %d (lru %d, idle %d), denied %d, \
     released %d@,\
     proxy: %a"
    r.completed (Array.length r.flows) Time.pp r.sim_end r.fct_p50 r.fct_p95
    r.fct_p99 r.fct_mean r.peak_occupancy r.table.Flow_table.admitted
    r.evictions r.table.Flow_table.evicted_lru r.table.Flow_table.evicted_idle
    r.table.Flow_table.denied r.table.Flow_table.removed pp_proxy_stats r.proxy;
  (match r.proxy2 with
  | Some s -> Format.fprintf ppf "@,far proxy: %a" pp_proxy_stats s
  | None -> ());
  Format.fprintf ppf
    "@,server sidecars: %d resyncs, %d replays dropped, %d freq updates@,\
     proxy retransmissions: %d@,delivered %d B downstream@]"
    r.srv_resyncs r.srv_replays_dropped r.freq_updates_sent
    r.proxy_retransmissions r.data_delivered_bytes
