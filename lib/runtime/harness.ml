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
module Migration = Sidecar_protocols.Migration
module Adv = Sidecar_protocols.Adversary
module Json = Obs.Json

type common = {
  flows : int;
  table_flows : int;
  near : Path.segment;
  mss : int;
  min_units : int;
  max_units : int;
  arrival : Workload.arrival;
  quack_every : int;
  bits : int;
  threshold : int;
  count_bits : int;
  seed : int;
  until : Time.t;
}

let flash_crowd =
  Workload.Flash_crowd
    { base_mean_s = 0.05; at_s = 0.4; crowd = 16; spread_s = 0.05 }

let poisson = Workload.Poisson { mean_s = 0.05 }

let default ~arrival =
  {
    flows = 40;
    table_flows = 40;
    near = Path.segment ~rate_bps:100_000_000 ~delay:(Time.ms 10) ();
    mss = 1460;
    min_units = 200;
    max_units = 2000;
    arrival;
    quack_every = 16;
    bits = 32;
    threshold = 16;
    count_bits = 16;
    seed = 1;
    until = Time.s 180;
  }

let check ~family c =
  if c.flows < 1 then invalid_arg (family ^ ".run: need at least one flow");
  if c.min_units < 1 || c.max_units < c.min_units then
    invalid_arg (family ^ ".run: bad unit bounds")

type sizes = Dist of Workload.size_dist | Sample of (Rng.t -> int)

type t = {
  cfg : common;
  engine : Engine.t;
  fwd : Link.t array;
  rev : Link.t array;
  units : int array;
  start_at : Time.t array;
  srv_ss : int Q.Sender_state.t array;
  senders : Transport.Sender.t array;
  receivers : Transport.Receiver.t array;
  guards : Q.Replay_guard.t array;
  mutable srv_resyncs : int;
  mutable delivered_bytes : int;
}

let owns t p = p.Packet.flow >= 0 && p.Packet.flow < t.cfg.flows

let create c ~far ~sizes ?(id_base = 0x51DE) ?pkt_threshold
    ?(ack_link = fun _ -> 0) () =
  let { Path.engine; fwd; rev } = Path.build ~seed:c.seed (c.near :: far) in
  let n = c.flows in
  let wl_rng = Rng.split (Engine.rng engine) in
  let draw =
    match sizes with
    | Sample f -> f
    | Dist d ->
        fun rng -> max c.min_units (min c.max_units (Workload.sample_size rng d))
  in
  let units = Array.init n (fun _ -> draw wl_rng) in
  let start_at =
    Array.map Time.of_float_s (Workload.arrival_times wl_rng c.arrival ~n)
  in
  let ss_config =
    {
      Q.Sender_state.default_config with
      bits = c.bits;
      threshold = c.threshold;
      count_bits = c.count_bits;
    }
  in
  let srv_ss = Array.init n (fun _ -> Q.Sender_state.create ss_config) in
  let senders =
    Array.init n (fun i ->
        Transport.Sender.create engine ~mss:c.mss ~flow:i ?pkt_threshold
          ~id_key:(Q.Identifier.key_of_int (id_base + i))
          ~on_transmit:(fun p ->
            Q.Sender_state.on_send srv_ss.(i) ~id:p.Packet.id p.Packet.seq)
          ~total_units:units.(i)
          ~egress:(fun p -> ignore (Link.send fwd.(0) p))
          ())
  in
  let receivers =
    Array.init n (fun i ->
        Transport.Receiver.create engine ~flow:i ~total_units:units.(i)
          ~send_ack:(fun p -> ignore (Link.send rev.(ack_link i) p))
          ())
  in
  let t =
    {
      cfg = c;
      engine;
      fwd;
      rev;
      units;
      start_at;
      srv_ss;
      senders;
      receivers;
      guards = Array.init n (fun _ -> Q.Replay_guard.create ());
      srv_resyncs = 0;
      delivered_bytes = 0;
    }
  in
  for k = 1 to Array.length fwd - 1 do
    Link.set_tap fwd.(k) (fun p ->
        t.delivered_bytes <- t.delivered_bytes + p.Packet.size);
    Link.set_deliver fwd.(k) (fun p ->
        if owns t p then Transport.Receiver.deliver receivers.(p.Packet.flow) p)
  done;
  t

let flow_done t i = Transport.Receiver.complete_at t.receivers.(i) <> None
let to_server t p = ignore (Link.send t.rev.(Array.length t.rev - 1) p)

let deliver_ack t p =
  if owns t p then Transport.Sender.deliver_ack t.senders.(p.Packet.flow) p

let sidecar t ~addr ~far ?backward () =
  let c = t.cfg in
  let protocol, handle =
    Migration.make
      {
        Migration.addr;
        bits = c.bits;
        threshold = c.threshold;
        count_bits = c.count_bits;
        quack_every = c.quack_every;
        field = None;
      }
  in
  let out = t.fwd.(far) in
  let proxy =
    Proxy.create t.engine ~capacity:c.table_flows ~policy:Flow_table.Lru
      ~protocol
      ~forward:(fun p -> ignore (Link.send out p))
      ~backward:(Option.value backward ~default:(to_server t))
      ()
  in
  Link.set_deliver t.rev.(Array.length t.rev - 1 - far) (Proxy.on_return proxy);
  (proxy, handle)

(* ---- the server's quACK seam ----------------------------------------- *)

type outcome = Applied | Resynced | Ignored

let resync t i quack =
  t.srv_resyncs <- t.srv_resyncs + 1;
  ignore (Q.Sender_state.resync_to t.srv_ss.(i) quack);
  Resynced

let apply t i quack =
  match Q.Sender_state.on_quack t.srv_ss.(i) quack with
  | Ok rep when not rep.Q.Sender_state.stale ->
      (match rep.Q.Sender_state.acked with
      | [] -> ()
      | seqs -> ignore (Transport.Sender.sidecar_ack t.senders.(i) ~seqs));
      Applied
  | Ok _ | Error (`Config_mismatch _) -> Ignored
  | Error (`Threshold_exceeded _) -> resync t i quack

let receive t i ~index quack =
  match Q.Replay_guard.classify t.guards.(i) ~index quack with
  | Q.Replay_guard.Fresh -> apply t i quack
  | Q.Replay_guard.Replay ->
      (* byte-identical re-delivery of an already-consumed emission:
         dropped, counted — never a resync trigger *)
      Ignored
  | Q.Replay_guard.Regression ->
      (* a regressed emission index with novel contents means the
         emitting sidecar's state restarted: adopt its sums (§3.3) *)
      resync t i quack

let replays_dropped t =
  Array.fold_left (fun a g -> a + Q.Replay_guard.replays g) 0 t.guards

(* ---- sealing ----------------------------------------------------------- *)

let auth_key seed =
  Sidecar_hash.Sha256.digest_string (Printf.sprintf "quack-auth-key-%d" seed)

let seal ~key p =
  match p.Packet.payload with
  | Sframes.Quack_frame { quack; dst = "server"; index; _ } ->
      let wire = Q.Wire.encode_framed quack in
      let tag = Q.Wire.tag ~key ~flow:p.Packet.flow ~index wire in
      Some
        ( {
            p with
            Packet.payload = Adv.Sealed { wire; tag; index; origin = Adv.Proxy };
            size = String.length wire + String.length tag + Sframes.encapsulation;
          },
          wire )
  | _ -> None

(* ---- run and summary ------------------------------------------------- *)

type summary = {
  flows : int;
  completed : int;
  fct_p50 : float;
  fct_p95 : float;
  fct_p99 : float;
  fct_mean : float;
  delivered_bytes : int;
  srv_resyncs : int;
  retransmissions : int;
  timeouts : int;
  duplicates : int;
  sim_end : Time.t;
}

let summarize t =
  let total f a = Array.fold_left (fun acc x -> acc + f x) 0 a in
  let stats = Array.map Transport.Sender.stats t.senders in
  let qs = Stats.Quantiles.create () in
  let mean = Stats.Summary.create () in
  let completed = ref 0 in
  Array.iteri
    (fun i r ->
      match Transport.Receiver.complete_at r with
      | Some at ->
          incr completed;
          let fct = Time.to_float_s (Time.diff at t.start_at.(i)) in
          Stats.Quantiles.add qs fct;
          Stats.Summary.add mean fct
      | None -> ())
    t.receivers;
  let stat f = if !completed = 0 then Float.nan else f () in
  {
    flows = t.cfg.flows;
    completed = !completed;
    fct_p50 = stat (fun () -> Stats.Quantiles.p50 qs);
    fct_p95 = stat (fun () -> Stats.Quantiles.p95 qs);
    fct_p99 = stat (fun () -> Stats.Quantiles.p99 qs);
    fct_mean = stat (fun () -> Stats.Summary.mean mean);
    delivered_bytes = t.delivered_bytes;
    srv_resyncs = t.srv_resyncs;
    retransmissions =
      total (fun st -> st.Transport.Sender.retransmissions) stats;
    timeouts = total (fun st -> st.Transport.Sender.timeouts) stats;
    duplicates = total Transport.Receiver.duplicates t.receivers;
    sim_end = Engine.now t.engine;
  }

let run t ~release ?(on_start = ignore) () =
  let rec reap i () =
    if flow_done t i then List.iter (fun p -> ignore (Proxy.release p i)) release
    else if Engine.now t.engine < t.cfg.until then
      Engine.schedule t.engine ~delay:(Time.ms 500) (reap i)
  in
  Array.iteri
    (fun i at ->
      Engine.schedule_at t.engine at (fun () ->
          Transport.Sender.start t.senders.(i);
          on_start i;
          Engine.schedule t.engine ~delay:(Time.ms 500) (reap i)))
    t.start_at;
  Engine.run ~until:t.cfg.until t.engine;
  summarize t

let json (s : summary) ~head ?(wedged = false) ?(delivered = true) ~body
    ?replays_dropped ?duplicates () =
  let int k v = (k, Json.Int v) in
  let some k = Option.fold ~none:[] ~some:(fun v -> [ int k v ]) in
  Json.Obj
    (head
    @ [ int "flows" s.flows; int "completed" s.completed ]
    @ (if wedged then [ int "wedged" (s.flows - s.completed) ] else [])
    @ [
        ("fct_p50_s", Json.Float s.fct_p50);
        ("fct_p95_s", Json.Float s.fct_p95);
        ("fct_p99_s", Json.Float s.fct_p99);
        ("fct_mean_s", Json.Float s.fct_mean);
      ]
    @ (if delivered then [ int "data_delivered_bytes" s.delivered_bytes ]
       else [])
    @ body
    @ (int "srv_resyncs" s.srv_resyncs :: some "srv_replays_dropped" replays_dropped)
    @ [ int "retransmissions" s.retransmissions; int "timeouts" s.timeouts ]
    @ Option.fold duplicates ~none:[] ~some:(fun k -> [ int k s.duplicates ])
    @ [ int "sim_end_ns" s.sim_end ])

let pp_outcome ~wedged ppf (s : summary) =
  Format.fprintf ppf "%d/%d completed" s.completed s.flows;
  if wedged then Format.fprintf ppf " (%d wedged)" (s.flows - s.completed);
  Format.fprintf ppf " by %a@,fct p50 %.3fs p95 %.3fs p99 %.3fs mean %.3fs"
    Time.pp s.sim_end s.fct_p50 s.fct_p95 s.fct_p99 s.fct_mean
