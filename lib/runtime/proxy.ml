module Engine = Netsim.Engine
module Packet = Netsim.Packet
module Time = Netsim.Sim_time
module Sframes = Sidecar_protocols.Sframes
module Protocol = Sidecar_protocols.Protocol
module Counter = Obs.Metrics.Counter

type stats = {
  data_packets : int;
  degraded_packets : int;
  buffer_bypass : int;
  quacks_rx : int;
  degraded_quacks : int;
  quacks_tx : int;
  quack_bytes : int;
  freq_updates : int;
  resyncs : int;
  flushed_on_evict : int;
}

(* The proxy is now two layers: a generic {!Demux} owns the bounded
   table, admission accounting and table trace events; this module
   keeps what is protocol-specific — frame routing (quACK and
   frequency frames addressed to this sidecar vs. riding along),
   per-flow protocol state construction, timers, and the cost clock. *)
type t = {
  engine : Engine.t;
  protocol : Protocol.t;
  demux : Protocol.flow Demux.t;
  counters : Protocol.counters;
  forward : Packet.t -> unit;
  backward : Packet.t -> unit;
  cost_clock : (unit -> float) option;
  mutable busy : float;
  freq_updates : Counter.t;
}

let create engine ~capacity ~policy ~protocol ~forward ~backward ?cost_clock ()
    =
  let counters = Protocol.fresh_counters () in
  let label = Printf.sprintf "proxy.%s" protocol.Protocol.addr in
  let metrics = Engine.metrics engine in
  let trace = Engine.trace engine in
  (* State forced out mid-stream gets its protocol's eviction hook —
     for CC division that flushes the pacing buffer downstream, for
     retransmission it drops the copy buffer. Either way nothing is
     stranded: end-to-end ACKs keep reliability. A voluntary [release]
     of a completed flow is different: the flow terminated cleanly, so
     its state is discarded with no eviction flush (running the hook
     there would replay a finished flow's buffer into the network). *)
  let on_evict _flow fl = fl.Protocol.on_evict () in
  let on_remove _flow fl = fl.Protocol.on_release () in
  Protocol.register_counters metrics ~prefix:label counters;
  let demux =
    Demux.create ~policy ~on_evict ~on_remove ~capacity ~label ~metrics ~trace
      ~now:(fun () -> Engine.now engine)
      ()
  in
  {
    engine;
    protocol;
    demux;
    counters;
    forward;
    backward;
    cost_clock;
    busy = 0.;
    freq_updates =
      Obs.Metrics.counter metrics (Printf.sprintf "%s.freq_updates" label);
  }

(* [timed t f x] is [f t x], charged to [busy] when a cost clock is
   set. [f] is a top-level function, so the untimed path allocates no
   closure per packet. *)
let timed t f x =
  match t.cost_clock with
  | None -> f t x
  | Some clock ->
      let t0 = clock () in
      Fun.protect
        ~finally:(fun () -> t.busy <- t.busy +. (clock () -. t0))
        (fun () -> f t x)

let fresh_flow t key () =
  t.protocol.Protocol.init
    {
      Protocol.engine = t.engine;
      flow = key;
      forward = t.forward;
      backward = t.backward;
      counters = t.counters;
    }

let ingress t p =
  match p.Packet.payload with
  | Sframes.Freq_update { dst; interval_packets }
    when String.equal dst t.protocol.Protocol.addr -> (
      (* §2.3: the far sidecar tunes how often this flow quACKs. *)
      match Demux.find t.demux p.Packet.flow with
      | Some fl ->
          fl.Protocol.on_freq interval_packets;
          Counter.incr t.freq_updates
      | None -> ())
  | Sframes.Freq_update _ | Sframes.Quack_frame _ ->
      (* sidecar frames for someone else ride along unchanged *)
      t.forward p
  | _ ->
      Demux.data t.demux ~flow:p.Packet.flow
        ~make:(fresh_flow t p.Packet.flow)
        ~tracked:(fun fl -> fl.Protocol.on_data p)
        ~degraded:(fun () -> t.forward p)

let return t p =
  match p.Packet.payload with
  | Sframes.Quack_frame { quack; dst; index; _ }
    when String.equal dst t.protocol.Protocol.addr -> (
      match Demux.feedback t.demux ~flow:p.Packet.flow with
      | Some fl -> fl.Protocol.on_feedback ~index quack
      | None -> ())
  | _ -> t.backward p

let on_ingress t p = timed t ingress p
let on_return t p = timed t return p

let start t ~until =
  match t.protocol.Protocol.timer with
  | None -> ()
  | Some { Protocol.period; _ } ->
      let rec tick () =
        Demux.iter t.demux (fun _ fl -> fl.Protocol.on_timer ());
        if Engine.now t.engine < until then
          Engine.schedule t.engine ~delay:period tick
      in
      Engine.schedule t.engine ~delay:period tick

let release t flow = Demux.release t.demux flow
let sweep_idle t = Demux.sweep_idle t.demux

let stats t =
  let get = Counter.get in
  {
    data_packets = Demux.data_packets t.demux;
    degraded_packets = Demux.degraded_packets t.demux;
    buffer_bypass = get t.counters.Protocol.buffer_bypass;
    quacks_rx = Demux.quacks_rx t.demux;
    degraded_quacks = Demux.degraded_quacks t.demux;
    quacks_tx = get t.counters.Protocol.quacks_tx;
    quack_bytes = get t.counters.Protocol.quack_bytes;
    freq_updates = get t.freq_updates;
    resyncs = get t.counters.Protocol.resyncs;
    flushed_on_evict = get t.counters.Protocol.flushed_on_evict;
  }

let counters t = t.counters
let busy_s t = t.busy
let occupancy t = Demux.occupancy t.demux
let peak_occupancy t = Demux.peak_occupancy t.demux
let table_stats t = Demux.table_stats t.demux
