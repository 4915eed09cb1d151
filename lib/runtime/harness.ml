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
module Seam = Sidecar_protocols.Server_seam
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
type clients = Star | Chain

type t = {
  cfg : common;
  engine : Engine.t;
  fwd : Link.t array;
  rev : Link.t array;
  units : int array;
  start_at : Time.t array;
  seam : int Seam.t;
  senders : Transport.Sender.t array;
  receivers : Transport.Receiver.t array;
  credit : int -> int Q.Sender_state.report -> unit;
  mutable delivered_bytes : int;
}

let owns t p = p.Packet.flow >= 0 && p.Packet.flow < t.cfg.flows
let flow_done t i = Transport.Receiver.complete_at t.receivers.(i) <> None

let fct t i =
  match Transport.Receiver.complete_at t.receivers.(i) with
  | Some at -> Time.to_float_s (Time.diff at t.start_at.(i))
  | None -> Float.nan

let to_server t p = ignore (Link.send t.rev.(Array.length t.rev - 1) p)

let deliver_ack t p =
  if owns t p then Transport.Sender.deliver_ack t.senders.(p.Packet.flow) p

(* ---- the server's quACK seam ----------------------------------------- *)

let apply t i quack = Seam.apply t.seam i quack ~fresh:t.credit
let resync t i quack = Seam.resync t.seam i quack
let receive t i ~index quack = Seam.receive t.seam i ~index quack ~fresh:t.credit
let replays_dropped t = Seam.replays_dropped t.seam

let serve t p =
  match p.Packet.payload with
  | Sframes.Quack_frame { quack; dst = "server"; index; _ } ->
      if owns t p then ignore (receive t p.Packet.flow ~index quack)
  | _ -> deliver_ack t p

(* ---- construction ----------------------------------------------------- *)

let create c ~far ~sizes ?(id_base = 0x51DE) ?pkt_threshold
    ?(ack_link = fun _ -> 0) ?field ?(server_sidecar = true)
    ?(on_data = fun _ _ -> None) ?(on_fresh = fun _ _ _ -> ()) ?(clients = Star)
    () =
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
  let seam =
    Seam.create
      {
        Q.Sender_state.default_config with
        bits = c.bits;
        threshold = c.threshold;
        count_bits = c.count_bits;
        field;
      }
      ~flows:n
  in
  let senders =
    Array.init n (fun i ->
        Transport.Sender.create engine ~mss:c.mss ~flow:i ?pkt_threshold
          ~id_key:(Q.Identifier.key_of_int (id_base + i))
          ?on_transmit:
            (if server_sidecar then
               Some (fun p -> Seam.on_send seam i ~id:p.Packet.id p.Packet.seq)
             else None)
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
  let rec t =
    {
      cfg = c;
      engine;
      fwd;
      rev;
      units;
      start_at;
      seam;
      senders;
      receivers;
      credit =
        (fun i rep ->
          (match rep.Q.Sender_state.acked with
          | [] -> ()
          | seqs -> ignore (Transport.Sender.sidecar_ack senders.(i) ~seqs));
          on_fresh t i rep);
      delivered_bytes = 0;
    }
  in
  Array.iteri
    (fun i r -> Option.iter (Transport.Receiver.set_on_data r) (on_data t i))
    receivers;
  let last = Array.length fwd - 1 in
  for k = (match clients with Star -> 1 | Chain -> last) to last do
    Link.set_tap fwd.(k) (fun p ->
        t.delivered_bytes <- t.delivered_bytes + p.Packet.size);
    Link.set_deliver fwd.(k) (fun p ->
        if owns t p then Transport.Receiver.deliver receivers.(p.Packet.flow) p)
  done;
  Link.set_deliver rev.(Array.length rev - 1) (serve t);
  t

let proxy t ~protocol ~far ?(policy = Flow_table.Lru) ?cost_clock ?backward ()
    =
  let out = t.fwd.(far) in
  let backward =
    match backward with
    | Some b -> b
    | None ->
        let up = t.rev.(Array.length t.rev - 1) in
        fun p -> ignore (Link.send up p)
  in
  let proxy =
    Proxy.create t.engine ~capacity:t.cfg.table_flows ~policy ~protocol
      ~forward:(fun p -> ignore (Link.send out p))
      ~backward ?cost_clock ()
  in
  Link.set_deliver t.rev.(Array.length t.rev - 1 - far) (Proxy.on_return proxy);
  proxy

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
  (proxy t ~protocol ~far ?backward (), handle)

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
  for i = 0 to t.cfg.flows - 1 do
    let fct = fct t i in
    if not (Float.is_nan fct) then begin
      incr completed;
      Stats.Quantiles.add qs fct;
      Stats.Summary.add mean fct
    end
  done;
  let stat f = if !completed = 0 then Float.nan else f () in
  {
    flows = t.cfg.flows;
    completed = !completed;
    fct_p50 = stat (fun () -> Stats.Quantiles.p50 qs);
    fct_p95 = stat (fun () -> Stats.Quantiles.p95 qs);
    fct_p99 = stat (fun () -> Stats.Quantiles.p99 qs);
    fct_mean = stat (fun () -> Stats.Summary.mean mean);
    delivered_bytes = t.delivered_bytes;
    srv_resyncs = Seam.resyncs t.seam;
    retransmissions =
      total (fun st -> st.Transport.Sender.retransmissions) stats;
    timeouts = total (fun st -> st.Transport.Sender.timeouts) stats;
    duplicates = total Transport.Receiver.duplicates t.receivers;
    sim_end = Engine.now t.engine;
  }

let start t ~release ?(on_start = ignore) ?(period = Time.ms 500)
    ?(on_tick = ignore) () =
  let rec tick i () =
    if flow_done t i then List.iter (fun p -> ignore (Proxy.release p i)) release
    else if Engine.now t.engine < t.cfg.until then begin
      on_tick i;
      Engine.schedule t.engine ~delay:period (tick i)
    end
  in
  Array.iteri
    (fun i at ->
      Engine.schedule_at t.engine at (fun () ->
          Transport.Sender.start t.senders.(i);
          on_start i;
          Engine.schedule t.engine ~delay:period (tick i)))
    t.start_at

let finish t =
  Engine.run ~until:t.cfg.until t.engine;
  summarize t

let run t ~release ?on_start () =
  start t ~release ?on_start ();
  finish t

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
