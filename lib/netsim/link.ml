module Counter = Obs.Metrics.Counter

type stats = {
  sent : int;
  delivered : int;
  dropped_loss : int;
  dropped_queue : int;
  dropped_aqm : int;
  bytes_sent : int;
  bytes_delivered : int;
  queue_peak : int;
}

(* Per-link tallies are registry cells, not a bespoke record: the
   engine's metrics registry iterates them for reports, while the hot
   path still pays a single mutable-int bump per update. *)
type cells = {
  sent : Counter.t;
  delivered : Counter.t;
  dropped_loss : Counter.t;
  dropped_queue : Counter.t;
  dropped_aqm : Counter.t;
  bytes_sent : Counter.t;
  bytes_delivered : Counter.t;
  mutable queue_peak : int;
}

type t = {
  engine : Engine.t;
  name : string;
  rate_bps : int;
  delay : Sim_time.span;
  queue_capacity : int;
  jitter : Sim_time.span;
  loss : Loss.t;
  aqm : Aqm.t option;
  rng : Rng.t;
  mutable deliver : Packet.t -> unit;
  mutable tap : (Packet.t -> unit) option;
  queue : (Packet.t * Sim_time.t) Queue.t;  (* packet, enqueue time *)
  mutable transmitting : bool;
  sojourn : Stats.Summary.t;
  cells : cells;
  trace : Obs.Trace.t;
}

let create engine ~name ~rate_bps ~delay ?(queue_capacity_pkts = 1024)
    ?(jitter = 0) ?(loss = Loss.none) ?aqm ?(deliver = fun _ -> ()) () =
  if rate_bps <= 0 then invalid_arg "Link.create: rate must be positive";
  if queue_capacity_pkts <= 0 then invalid_arg "Link.create: capacity must be positive";
  if jitter < 0 then invalid_arg "Link.create: negative jitter";
  let metrics = Engine.metrics engine in
  let field f = Printf.sprintf "link.%s.%s" name f in
  let cells =
    {
      sent = Obs.Metrics.counter metrics (field "sent");
      delivered = Obs.Metrics.counter metrics (field "delivered");
      dropped_loss = Obs.Metrics.counter metrics (field "dropped_loss");
      dropped_queue = Obs.Metrics.counter metrics (field "dropped_queue");
      dropped_aqm = Obs.Metrics.counter metrics (field "dropped_aqm");
      bytes_sent = Obs.Metrics.counter metrics (field "bytes_sent");
      bytes_delivered = Obs.Metrics.counter metrics (field "bytes_delivered");
      queue_peak = 0;
    }
  in
  let sojourn = Stats.Summary.create () in
  Obs.Metrics.int_source metrics (field "queue_peak") (fun () -> cells.queue_peak);
  Obs.Metrics.attach_summary metrics (field "sojourn_s") sojourn;
  {
    engine;
    name;
    rate_bps;
    delay;
    queue_capacity = queue_capacity_pkts;
    jitter;
    loss;
    aqm;
    rng = Rng.split (Engine.rng engine);
    deliver;
    tap = None;
    queue = Queue.create ();
    transmitting = false;
    sojourn;
    cells;
    trace = Engine.trace engine;
  }

let set_deliver t f = t.deliver <- f
let set_tap t f = t.tap <- Some f
let tx_time t ~size = size * 8 * 1_000_000_000 / t.rate_bps

let trace_drop t p reason =
  if Obs.Trace.on t.trace Obs.Trace.Link then
    Obs.Trace.record t.trace ~time:(Engine.now t.engine)
      (Obs.Trace.Drop { link = t.name; flow = p.Packet.flow; reason })

(* Serve the head of the queue: consult the AQM, transmit, roll the
   loss model at the end of serialisation, then propagate. *)
let rec start_service t =
  if not t.transmitting then begin
    match Queue.take_opt t.queue with
    | None -> ()
    | Some (p, enqueued_at) ->
        let now = Engine.now t.engine in
        let verdict =
          match t.aqm with
          | None -> Aqm.Forward
          | Some aqm -> Aqm.on_dequeue aqm ~now ~enqueued_at
        in
        (match verdict with
        | Aqm.Drop ->
            Counter.incr t.cells.dropped_aqm;
            trace_drop t p Obs.Trace.Aqm;
            start_service t
        | Aqm.Forward ->
            Stats.Summary.add t.sojourn
              (Sim_time.to_float_s (Sim_time.diff now enqueued_at));
            t.transmitting <- true;
            Engine.schedule t.engine ~delay:(tx_time t ~size:p.Packet.size)
              (fun () ->
                t.transmitting <- false;
                if Loss.drops t.loss t.rng then begin
                  Counter.incr t.cells.dropped_loss;
                  trace_drop t p Obs.Trace.Loss_model
                end
                else begin
                  let extra = if t.jitter > 0 then Rng.int t.rng (t.jitter + 1) else 0 in
                  Engine.schedule t.engine ~delay:(t.delay + extra) (fun () ->
                      Counter.incr t.cells.delivered;
                      Counter.add t.cells.bytes_delivered p.Packet.size;
                      if Obs.Trace.on t.trace Obs.Trace.Link then
                        Obs.Trace.record t.trace ~time:(Engine.now t.engine)
                          (Obs.Trace.Deliver
                             {
                               link = t.name;
                               flow = p.Packet.flow;
                               size = p.Packet.size;
                             });
                      (match t.tap with Some f -> f p | None -> ());
                      t.deliver p)
                end;
                start_service t))
  end

let send t p =
  if Queue.length t.queue >= t.queue_capacity then begin
    Counter.incr t.cells.dropped_queue;
    trace_drop t p Obs.Trace.Queue_full;
    false
  end
  else begin
    Counter.incr t.cells.sent;
    Counter.add t.cells.bytes_sent p.Packet.size;
    if Obs.Trace.on t.trace Obs.Trace.Link then
      Obs.Trace.record t.trace ~time:(Engine.now t.engine)
        (Obs.Trace.Enqueue
           { link = t.name; flow = p.Packet.flow; size = p.Packet.size });
    Queue.push (p, Engine.now t.engine) t.queue;
    let depth = Queue.length t.queue + if t.transmitting then 1 else 0 in
    if depth > t.cells.queue_peak then t.cells.queue_peak <- depth;
    start_service t;
    true
  end

let name t = t.name

let stats t : stats =
  {
    sent = Counter.get t.cells.sent;
    delivered = Counter.get t.cells.delivered;
    dropped_loss = Counter.get t.cells.dropped_loss;
    dropped_queue = Counter.get t.cells.dropped_queue;
    dropped_aqm = Counter.get t.cells.dropped_aqm;
    bytes_sent = Counter.get t.cells.bytes_sent;
    bytes_delivered = Counter.get t.cells.bytes_delivered;
    queue_peak = t.cells.queue_peak;
  }

let mean_sojourn t = Stats.Summary.mean t.sojourn
let rate_bps t = t.rate_bps
let delay t = t.delay

let loss_rate_observed t =
  let sent = Counter.get t.cells.sent in
  if sent = 0 then 0.
  else float_of_int (Counter.get t.cells.dropped_loss) /. float_of_int sent
