(* The runtime benchmark: host cost per proxied packet on three
   workloads, run through the library's real entry points
   ([Scenario.run], [Shard_runtime.run]), with a separate traced run that
   splits the same work by layer.

     bench.exe --workload W --seed N --trace 0|1 [--first] [--profile P]
               [--out DIR]

   One call measures one realization of the workload: the runtime's
   config gets [--seed] and nothing else varies. [run.py] runs several
   realizations, each in a fresh process, and reports the medians.
   [--first] adds the checks that need extra runs of the same inputs.
   Run it with a runtime-events ring large enough for a whole
   realization (OCAMLRUNPARAM=e=18, as [run.py] does); lost events fail
   the run.

   The last line of standard output is one JSON object
   [{"correct", "attempted", "failed", "metrics"}]; with [--trace 0] the
   metrics are the end-to-end ones, with [--trace 1] the per-layer ones.
   A failed correctness check still prints that line (with [correct]
   false), names the workload and check on standard error, and exits 1. *)

module Sc = Web.Sc
module Sh = Shard.Sh

(* ---- arguments ------------------------------------------------------ *)

let workload = ref ""
let seed = ref 1
let traced = ref false
let first = ref false
let profile = ref "unknown"
let out_dir = ref ""

let spec =
  [
    ("--workload", Arg.Set_string workload, "W web_cc | web_ack | shard_tracked");
    ("--seed", Arg.Set_int seed, "N realization seed");
    ("--trace", Arg.Int (fun n -> traced := n <> 0), "0|1 traced per-layer run");
    ("--first", Arg.Set first, " also run the extra checks (first realization)");
    ("--profile", Arg.Set_string profile, "P build profile, for the stamp");
    ("--out", Arg.Set_string out_dir, "DIR where the traced run writes its spans");
  ]

(* ---- statistics ----------------------------------------------------- *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then Float.nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Nearest-rank quantile of a sorted array. *)
let quantile a q =
  let n = Array.length a in
  a.(max 0 (min (n - 1) (int_of_float (Float.ceil (q *. float_of_int n)) - 1)))

let ratio a b = if b = 0 then 0. else float_of_int a /. float_of_int b

(* ---- measurement ---------------------------------------------------- *)

let gc = lazy (Gcev.create ())

type sample = { wall : float; ev : Gcev.snapshot }

(* One timed call. The minor collections around it flush every domain's
   allocation counter into the event ring, outside the timed span. *)
let measure f =
  let g = Lazy.force gc in
  Gc.minor ();
  let s0 = Gcev.snapshot g in
  let t0 = Spans.now_ns () in
  let r = f () in
  let t1 = Spans.now_ns () in
  Gc.minor ();
  let s1 = Gcev.snapshot g in
  (r, { wall = float_of_int (t1 - t0) *. 1e-9; ev = Gcev.diff s1 s0 })

let words s = float_of_int s.ev.Gcev.minor_bytes /. float_of_int (Sys.word_size / 8)

(* Median of three set-ups, measured before the run. *)
let setup_s setup = median (List.init 3 (fun _ -> (snd (measure setup)).wall))

let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec find () =
    match input_line ic with
    | line when String.starts_with ~prefix:"VmHWM:" line ->
        Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB"
          (fun kb -> float_of_int kb /. 1024.)
    | _ -> find ()
    | exception End_of_file -> Float.nan
  in
  let v = find () in
  close_in ic;
  v

(* ---- correctness ---------------------------------------------------- *)

let correct = ref true

let check name ok =
  if not ok then begin
    Printf.eprintf "perfbench: %s: check failed: %s\n%!" !workload name;
    correct := false
  end

(* ---- results -------------------------------------------------------- *)

type metric = { name : string; value : float; unit_ : string }

let m name unit_ value = { name; value; unit_ }

let print_result ~attempted ~failed metrics =
  List.iter
    (fun x -> check (x.name ^ " is finite") (Float.is_finite x.value))
    metrics;
  let body =
    String.concat ", "
      (List.map
         (fun x ->
           Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" x.name
             (if Float.is_finite x.value then x.value else 0.)
             x.unit_)
         metrics)
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    !correct attempted failed body

let stamp extra =
  Printf.printf
    "# perfbench workload=%s seed=%d trace=%d nproc=%d ocaml=%s profile=%s %s\n%!"
    !workload !seed
    (if !traced then 1 else 0)
    (Domain.recommended_domain_count ())
    Sys.ocaml_version !profile extra

(* A traced run's layer self times must add up to at least this share of
   its wall time (the rest is set-up and the report summary, which no
   layer owns) and never to more than all of it. *)
let coverage_min = 0.90

let coverage sp wall =
  let cov = Spans.total_self_s sp /. wall in
  check "every span closed" (Spans.balanced sp);
  check
    (Printf.sprintf "trace.coverage %.4f within [%.2f, 1]" cov coverage_min)
    (cov >= coverage_min && cov <= 1.);
  cov

let write_spans sp =
  if !out_dir <> "" then
    Spans.write_tsv sp (Filename.concat !out_dir (!workload ^ ".spans.tsv"))

let no_lost_events s = check "no runtime events lost" (s.ev.Gcev.lost = 0)

let gc_metrics s =
  no_lost_events s;
  [
    m "gc.minor_collections" "count" (float_of_int s.ev.Gcev.minors);
    m "gc.major_slices" "count" (float_of_int s.ev.Gcev.major_slices);
    m "gc.pause_s" "s" s.ev.Gcev.pause_s;
  ]

(* The end-to-end metrics of one untraced run of [pkts] proxied packets
   that completed [done_] of [flows] flows. Set-up is timed on the same
   config cut before its first event, so the run is timed in one piece
   and [wall_s] excludes set-up by subtraction. *)
let e2e ~setup ~sample ~pkts ~done_ ~flows =
  no_lost_events sample;
  let wall = sample.wall -. setup in
  let pkts = float_of_int pkts in
  [
    m "us_per_pkt" "us" (wall *. 1e6 /. pkts);
    m "wall_s" "s" wall;
    m "setup_s" "s" setup;
    m "alloc_words_per_pkt" "words" (words sample /. pkts);
    m "peak_heap_mb" "MB" (peak_rss_mb ());
    m "done_share" "ratio" (ratio done_ flows);
  ]

(* Metric names of the layers a workload does not run: reported as 0 so
   every traced run prints the whole per-layer set. *)
let absent names = List.map (fun (n, u) -> m n u 0.) names

(* ---- web_cc / web_ack ----------------------------------------------- *)

let web_checks (cfg : Sc.config) (r : Sc.report) =
  let incomplete = cfg.Sc.flows - r.Sc.completed in
  check "completed + incomplete = flows"
    (Array.length r.Sc.flows = cfg.Sc.flows
    && Array.fold_left
         (fun a (f : Sc.flow_report) -> if f.Sc.completed then a else a + 1)
         0 r.Sc.flows
       = incomplete);
  let units =
    Array.fold_left
      (fun a (f : Sc.flow_report) -> if f.Sc.completed then a + f.Sc.units else a)
      0 r.Sc.flows
  in
  check "delivered bytes >= completed units * mss"
    (r.Sc.data_delivered_bytes >= units * cfg.Sc.mss);
  check "proxied packets > 0" (Web.proxied r > 0);
  incomplete

let web_e2e (c : Sc.config) =
  let setup = setup_s (fun () -> ignore (Sc.run (Web.setup_config c))) in
  let r, sample = measure (fun () -> Sc.run c) in
  let incomplete = web_checks c r in
  stamp (Printf.sprintf "flows=%d proxied_pkts=%d" c.Sc.flows (Web.proxied r));
  print_result ~attempted:c.Sc.flows ~failed:incomplete
    (e2e ~setup ~sample ~pkts:(Web.proxied r) ~done_:r.Sc.completed
       ~flows:c.Sc.flows)

(* Registry reads from the untraced run's engine sink. *)
let int_metric reg name =
  match Obs.Metrics.find reg name with Some (Obs.Metrics.Int v) -> v | _ -> 0

let fold_links reg field f init =
  let acc = ref init in
  Obs.Metrics.iter reg (fun name v ->
      match v with
      | Obs.Metrics.Int x
        when String.starts_with ~prefix:"link." name
             && Filename.extension name = "." ^ field ->
          acc := f !acc x
      | _ -> ());
  !acc

(* Mean queue sojourn over every packet that left any link, in ms. *)
let sojourn_ms reg =
  let sum = ref 0. and n = ref 0 in
  Obs.Metrics.iter reg (fun name v ->
      match v with
      | Obs.Metrics.Summary s when Filename.extension name = ".sojourn_s" ->
          let c = Obs.Stats.Summary.count s in
          if c > 0 then begin
            sum := !sum +. (Obs.Stats.Summary.mean s *. float_of_int c);
            n := !n + c
          end
      | _ -> ());
  if !n = 0 then 0. else !sum /. float_of_int !n *. 1e3

(* Flow completion times over every attempted flow, sorted; a flow that
   did not finish by the horizon counts as infinitely late. *)
let fcts (r : Sc.report) =
  sorted
    (Array.to_list
       (Array.map
          (fun (f : Sc.flow_report) ->
            if f.Sc.completed then f.Sc.fct_s else Float.infinity)
          r.Sc.flows))

let shard_only =
  [
    ("fastpath.table.calls", "count");
    ("fastpath.table.self_s", "s");
    ("fastpath.table.hit_ratio", "ratio");
    ("fastpath.table.denied_share", "ratio");
    ("fastpath.sketch.inserts", "count");
    ("fastpath.sketch.emits", "count");
    ("fastpath.sketch.self_s", "s");
    ("runtime.shard.epochs", "count");
    ("runtime.shard.self_s", "s");
    ("runtime.shard.peak_concurrent", "count");
    ("runtime.shard.peak_occupancy", "count");
    ("runtime.shard.s_per_epoch", "s");
  ]

(* The untraced run gives the counts (its report and engine registry);
   the traced rebuild of the same inputs gives the self times. *)
let web_trace (c : Sc.config) =
  let sp = Spans.create Layer.names in
  let (r, reg), u =
    measure (fun () ->
        let r = Sc.run c in
        (r, Option.map Obs.Sink.metrics (Obs.Sink.last ())))
  in
  let (tr, k, treg), t = measure (fun () -> Web.traced sp c) in
  check "traced report = untraced report" (Web.json tr = Web.json r);
  let incomplete = web_checks c r in
  let reg = match reg with Some reg -> reg | None -> Obs.Metrics.create () in
  let events = int_metric reg "engine.events_fired" in
  check "traced events = untraced events"
    (events > 0 && events = int_metric treg "engine.events_fired");
  let cov = coverage sp t.wall in
  write_spans sp;
  let self = Spans.self_s sp and calls l = float_of_int (Spans.calls sp l) in
  let p = r.Sc.proxy and tb = r.Sc.table in
  let pkts = Web.proxied r in
  let flows f = Array.fold_left (fun a x -> a + f x) 0 r.Sc.flows in
  let proto name = float_of_int (int_metric reg ("proxy.proxy." ^ name)) in
  let sum field = fold_links reg field ( + ) 0 in
  let sends = sum "sent" in
  let drops = sum "dropped_loss" + sum "dropped_queue" + sum "dropped_aqm" in
  let fct = fcts r in
  let n x = float_of_int x in
  stamp (Printf.sprintf "flows=%d proxied_pkts=%d spans=%d" c.Sc.flows pkts sp.Spans.seen);
  print_result ~attempted:c.Sc.flows ~failed:incomplete
    ([
       m "netsim.engine.events" "count" (n events);
       m "netsim.engine.self_s" "s" (self Layer.engine);
       m "netsim.link.sends" "count" (n sends);
       m "netsim.link.self_s" "s" (self Layer.link);
       m "netsim.link.drop_share" "ratio" (ratio drops (sends + sum "dropped_queue"));
       m "netsim.link.queue_peak" "pkts" (n (fold_links reg "queue_peak" max 0));
       m "netsim.link.sojourn_ms" "ms" (sojourn_ms reg);
       m "transport.sender.acks" "count" (n k.Web.sender_acks);
       m "transport.sender.self_s" "s" (self Layer.sender);
       m "transport.sender.sidecar_acks" "count" (n k.Web.sidecar_acks);
       m "transport.sender.retx_share" "ratio"
         (ratio (flows (fun f -> f.Sc.retransmissions)) (flows (fun f -> f.Sc.transmissions)));
       m "transport.sender.timeouts" "count" (n (flows (fun f -> f.Sc.timeouts)));
       m "transport.receiver.delivers" "count" (n k.Web.delivers);
       m "transport.receiver.self_s" "s" (self Layer.receiver);
       m "transport.receiver.acks_sent" "count" (n k.Web.acks_sent);
       m "transport.receiver.dup_share" "ratio"
         (ratio (flows (fun f -> f.Sc.duplicates)) k.Web.delivers);
       m "runtime.proxy.ingress" "count" (n k.Web.ingress);
       m "runtime.proxy.returns" "count" (n k.Web.returns);
       m "runtime.proxy.self_s" "s" (self Layer.proxy);
       m "runtime.proxy.table_hit_ratio" "ratio"
         (ratio tb.Web.Flow_table.hits (tb.Web.Flow_table.hits + tb.Web.Flow_table.misses));
       m "runtime.proxy.evictions" "count" (n r.Sc.evictions);
       m "runtime.proxy.degraded_quack_share" "ratio"
         (ratio p.Web.Proxy.degraded_quacks p.Web.Proxy.quacks_rx);
       m "sidecar.protocol.calls" "count" (calls Layer.protocol);
       m "sidecar.protocol.self_s" "s" (self Layer.protocol);
       m "sidecar.protocol.quacks_tx" "count" (proto "quacks_tx");
       m "sidecar.protocol.quack_bytes_per_pkt" "B/pkt" (proto "quack_bytes" /. n pkts);
       m "sidecar.protocol.resyncs" "count" (proto "resyncs");
       m "sidecar.protocol.buffer_bypass" "count" (proto "buffer_bypass");
       m "core.sender_state.calls" "count" (calls Layer.sender_state);
       m "core.sender_state.self_s" "s" (self Layer.sender_state);
       m "core.sender_state.wasted_share" "ratio" (ratio k.Web.ss_wasted k.Web.ss_quacks);
       m "core.receiver_state.self_s" "s" (self Layer.receiver_state);
       m "core.receiver_state.quacks" "count" (n k.Web.rx_quacks);
       m "core.replay_guard.self_s" "s" (self Layer.replay_guard);
       m "sim.fct_p50_s" "s" (quantile fct 0.50);
       m "sim.fct_p99_s" "s" (quantile fct 0.99);
     ]
    @ absent shard_only
    @ gc_metrics u
    @ [
        m "trace.overhead_share" "ratio" ((t.wall /. u.wall) -. 1.);
        m "trace.coverage" "ratio" cov;
      ])

(* ---- shard_tracked -------------------------------------------------- *)

let nshards () = max 1 (min (Domain.recommended_domain_count ()) 16)

let shard_checks (c : Sh.config) (r : Sh.report) =
  check "every flow completes" (r.Sh.completed = c.Sh.flows && r.Sh.unfinished = 0);
  check "every packet tracked" (r.Sh.tracked = r.Sh.packets && r.Sh.degraded = 0)

(* Placement never changes a decision: the single-shard run of the same
   inputs must give the same report, checksum included. *)
let single_shard_check (c : Sh.config) (r : Sh.report) =
  let one, s = measure (fun () -> Sh.run { c with Sh.shards = 1 }) in
  check "checksum at 1 shard = checksum at nproc shards"
    (one.Sh.checksum = r.Sh.checksum && Shard.json one = Shard.json r);
  s

let shard_e2e (c : Sh.config) =
  let setup = setup_s (fun () -> ignore (Sh.run (Shard.setup_config c))) in
  let r, sample = measure (fun () -> Sh.run c) in
  shard_checks c r;
  let metrics =
    e2e ~setup ~sample ~pkts:r.Sh.packets ~done_:r.Sh.completed ~flows:c.Sh.flows
  in
  if !first then ignore (single_shard_check c r);
  stamp (Printf.sprintf "flows=%d packets=%d shards=%d" c.Sh.flows r.Sh.packets c.Sh.shards);
  print_result ~attempted:c.Sh.flows ~failed:r.Sh.unfinished metrics

let web_only =
  [
    ("netsim.engine.events", "count");
    ("netsim.engine.self_s", "s");
    ("netsim.link.sends", "count");
    ("netsim.link.self_s", "s");
    ("netsim.link.drop_share", "ratio");
    ("netsim.link.queue_peak", "pkts");
    ("netsim.link.sojourn_ms", "ms");
    ("transport.sender.acks", "count");
    ("transport.sender.self_s", "s");
    ("transport.sender.sidecar_acks", "count");
    ("transport.sender.retx_share", "ratio");
    ("transport.sender.timeouts", "count");
    ("transport.receiver.delivers", "count");
    ("transport.receiver.self_s", "s");
    ("transport.receiver.acks_sent", "count");
    ("transport.receiver.dup_share", "ratio");
    ("runtime.proxy.ingress", "count");
    ("runtime.proxy.returns", "count");
    ("runtime.proxy.self_s", "s");
    ("runtime.proxy.table_hit_ratio", "ratio");
    ("runtime.proxy.evictions", "count");
    ("runtime.proxy.degraded_quack_share", "ratio");
    ("sidecar.protocol.calls", "count");
    ("sidecar.protocol.self_s", "s");
    ("sidecar.protocol.quacks_tx", "count");
    ("sidecar.protocol.quack_bytes_per_pkt", "B/pkt");
    ("sidecar.protocol.resyncs", "count");
    ("sidecar.protocol.buffer_bypass", "count");
    ("core.sender_state.calls", "count");
    ("core.sender_state.self_s", "s");
    ("core.sender_state.wasted_share", "ratio");
    ("core.receiver_state.self_s", "s");
    ("core.receiver_state.quacks", "count");
    ("core.replay_guard.self_s", "s");
    ("sim.fct_p50_s", "s");
    ("sim.fct_p99_s", "s");
  ]

(* As [web_trace]: the runtime at nproc shards gives the counts, the
   single-domain rebuild the self times, and the runtime at one shard —
   the rebuild's untraced twin — the base of the tracing overhead. *)
let shard_trace (c : Sh.config) =
  let sp = Spans.create Layer.names in
  let r, u = measure (fun () -> Sh.run c) in
  shard_checks c r;
  let one = single_shard_check c r in
  let (ck, k), t = measure (fun () -> Shard.traced sp { c with Sh.shards = 1 }) in
  check "traced checksum = runtime checksum" (ck = r.Sh.checksum);
  check "traced epochs = runtime epochs" (k.Shard.epochs = r.Sh.epochs);
  check "traced sketch inserts = tracked packets" (k.Shard.inserts = r.Sh.tracked);
  check "traced emits = quacks" (k.Shard.emits = r.Sh.quacks);
  let cov = coverage sp t.wall in
  write_spans sp;
  let self = Spans.self_s sp and calls l = float_of_int (Spans.calls sp l) in
  let misses =
    Array.fold_left (fun a p -> a + p.Sh.part_stats.Sh.misses) 0 r.Sh.per_partition
  in
  let n x = float_of_int x in
  stamp
    (Printf.sprintf "flows=%d packets=%d shards=%d spans=%d" c.Sh.flows r.Sh.packets
       c.Sh.shards sp.Spans.seen);
  print_result ~attempted:c.Sh.flows ~failed:r.Sh.unfinished
    (absent web_only
    @ [
        m "fastpath.table.calls" "count" (calls Layer.table);
        m "fastpath.table.self_s" "s" (self Layer.table);
        m "fastpath.table.hit_ratio" "ratio" (ratio r.Sh.hits (r.Sh.hits + misses));
        m "fastpath.table.denied_share" "ratio" (ratio r.Sh.denied misses);
        m "fastpath.sketch.inserts" "count" (n k.Shard.inserts);
        m "fastpath.sketch.emits" "count" (n k.Shard.emits);
        m "fastpath.sketch.self_s" "s" (self Layer.sketch);
        m "runtime.shard.epochs" "count" (n r.Sh.epochs);
        m "runtime.shard.self_s" "s" (self Layer.shard);
        m "runtime.shard.peak_concurrent" "count" (n r.Sh.peak_concurrent);
        m "runtime.shard.peak_occupancy" "count" (n r.Sh.peak_occupancy);
        m "runtime.shard.s_per_epoch" "s" (u.wall /. n r.Sh.epochs);
      ]
    @ gc_metrics u
    @ [
        m "trace.overhead_share" "ratio" ((t.wall /. one.wall) -. 1.);
        m "trace.coverage" "ratio" cov;
      ])

(* ---- main ----------------------------------------------------------- *)

let () =
  Arg.parse spec
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench.exe --workload W --seed N --trace 0|1 [--first]";
  let seed = !seed in
  (match !workload with
  | ("web_cc" | "web_ack") as w ->
      let c = Web.config ~protocol:(if w = "web_cc" then `Cc else `Ack) ~seed in
      if !traced then web_trace c else web_e2e c
  | "shard_tracked" ->
      let c = Shard.config ~shards:(nshards ()) ~seed in
      if !traced then shard_trace c else shard_e2e c
  | w ->
      Printf.eprintf "perfbench: unknown workload %S\n" w;
      exit 2);
  if not !correct then exit 1
