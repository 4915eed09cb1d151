module Time = Netsim.Sim_time
module Counter = Obs.Metrics.Counter

type 'a t = {
  label : string;
  trace : Obs.Trace.t;
  now : unit -> Time.t;
  table : 'a Flow_table.t;
  data_packets : Counter.t;
  degraded_packets : Counter.t;
  quacks_rx : Counter.t;
  degraded_quacks : Counter.t;
}

let create ?(policy = Flow_table.Lru) ?(on_evict = fun _ _ -> ())
    ?(on_remove = fun _ _ -> ()) ~capacity ~label ~metrics ~trace ~now () =
  let evict flow st =
    Obs.Trace.record trace ~time:(now ())
      (Obs.Trace.Evict { table = label; flow });
    on_evict flow st
  in
  let remove flow st =
    Obs.Trace.record trace ~time:(now ())
      (Obs.Trace.Release { table = label; flow });
    on_remove flow st
  in
  let table =
    Flow_table.create ~policy ~on_evict:evict ~on_remove:remove ~capacity ()
  in
  let field f = Printf.sprintf "%s.%s" label f in
  Flow_table.register table metrics ~prefix:(field "table");
  {
    label;
    trace;
    now;
    table;
    data_packets = Obs.Metrics.counter metrics (field "data_packets");
    degraded_packets = Obs.Metrics.counter metrics (field "degraded_packets");
    quacks_rx = Obs.Metrics.counter metrics (field "quacks_rx");
    degraded_quacks = Obs.Metrics.counter metrics (field "degraded_quacks");
  }

let table t = t.table

let data t ~flow ~make ~tracked ~degraded =
  let now = t.now () in
  let tracing = Obs.Trace.on t.trace Obs.Trace.Table in
  let known = tracing && Flow_table.mem t.table flow in
  match Flow_table.admit t.table ~now flow make with
  | None ->
      (* Denied a slot: the flow is untracked and sees the path as a
         plain store-and-forward hop — pure end-to-end behaviour. *)
      Counter.incr t.degraded_packets;
      if tracing then
        Obs.Trace.record t.trace ~time:now
          (Obs.Trace.Deny { table = t.label; flow });
      degraded ()
  | Some st ->
      Counter.incr t.data_packets;
      if tracing && not known then
        Obs.Trace.record t.trace ~time:now
          (Obs.Trace.Admit { table = t.label; flow });
      tracked st

let feedback t ~flow =
  Counter.incr t.quacks_rx;
  match Flow_table.find t.table ~now:(t.now ()) flow with
  | Some _ as found -> found
  | None ->
      Counter.incr t.degraded_quacks;
      None

let find t flow = Flow_table.find t.table ~now:(t.now ()) flow
let peek t flow = Flow_table.peek t.table flow
let release t flow = Flow_table.remove t.table flow
let sweep_idle t = Flow_table.sweep_idle t.table ~now:(t.now ())
let iter t f = Flow_table.iter t.table f
let occupancy t = Flow_table.occupancy t.table
let peak_occupancy t = Flow_table.peak_occupancy t.table
let table_stats t = Flow_table.stats t.table
let data_packets t = Counter.get t.data_packets
let degraded_packets t = Counter.get t.degraded_packets
let quacks_rx t = Counter.get t.quacks_rx
let degraded_quacks t = Counter.get t.degraded_quacks
