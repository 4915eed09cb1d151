module Link = Netsim.Link
module Packet = Netsim.Packet
module Q = Sidecar_quack
module Path = Sidecar_protocols.Path
module Sframes = Sidecar_protocols.Sframes

type config = {
  common : Harness.common;
  far_1 : Path.segment;  (** splitter -> client via sidecar 1 *)
  far_2 : Path.segment;  (** splitter -> client via sidecar 2 *)
  split : int * int;
      (** deterministic per-flow packet schedule: of every
          [fst + snd] data packets, the first [fst] take path 1 and
          the rest path 2. [(k, 0)] sends everything on path 1 — the
          single-path arm the merged decode is compared against. *)
  size_dist : Netsim.Workload.size_dist;
}

let default_config =
  {
    common = Harness.default ~arrival:Harness.flash_crowd;
    far_1 = Path.cellular;
    far_2 = Path.congested_cell;
    split = (1, 1);
    size_dist = Netsim.Workload.web_flows;
  }

type report = {
  summary : Harness.summary;
  proxy_1 : Proxy.stats;
  proxy_2 : Proxy.stats;
  path1_pkts : int;
  path2_pkts : int;
  folded_decodes : int;  (** sender decodes fed a [Psum.merge] fold *)
  srv_replays_dropped : int;
}

let run (cfg : config) =
  let c = cfg.common in
  Harness.check ~family:"Multipath" c;
  let share_1, share_2 = cfg.split in
  if share_1 < 0 || share_2 < 0 || share_1 + share_2 = 0 then
    invalid_arg "Multipath.run: bad split shares";
  let cycle = share_1 + share_2 in
  let n = c.flows in
  let h =
    Harness.create c ~far:[ cfg.far_1; cfg.far_2 ]
      ~sizes:(Harness.Dist cfg.size_dist) ~id_base:0x517E
        (* cross-path delay disparity reorders deeply; loss detection
           leans on the folded quACK decode and the PTO, not dupacks *)
      ~pkt_threshold:1024
        (* asymmetric routing: end-to-end ACKs take path 1's reverse
           (path 2's when path 1 carries no data) *)
      ~ack_link:(fun _ -> if share_1 > 0 then 1 else 0)
      ()
  in
  let proxy_1, _ = Harness.sidecar h ~addr:"path1" ~far:1 () in
  let proxy_2, _ = Harness.sidecar h ~addr:"path2" ~far:2 () in

  (* ---- the sender-side fold: two path quACKs -> one decode -------- *)
  (* Per flow, the latest cumulative quACK of each path. The fold
     reconstructs each as a sketch, merges them ([Psum.merge] is
     linear: power sums of a multiset union add pointwise), and snaps
     the union back to a quACK via [Quack.of_psum] — the seam that
     wraps the combined count to its wire width. *)
  let last_q1 : Q.Quack.t option array = Array.make n None in
  let last_q2 : Q.Quack.t option array = Array.make n None in
  (* one guard per (flow, path): replays are per-emission-stream;
     path 1's are the harness's per-flow guards *)
  let guards2 = Array.init n (fun _ -> Q.Replay_guard.create ()) in
  let folded_decodes = ref 0 in
  let psum_of (q : Q.Quack.t) =
    let p = Q.Psum.create ~bits:c.bits ~threshold:c.threshold () in
    Q.Psum.set_state p ~sums:q.Q.Quack.sums ~count:q.Q.Quack.count;
    p
  in
  let fold i =
    match (last_q1.(i), last_q2.(i)) with
    | None, None -> None
    | Some q, None | None, Some q -> Some q
    | Some q1, Some q2 ->
        incr folded_decodes;
        let merged = Q.Psum.merge (psum_of q1) (psum_of q2) in
        Some (Q.Quack.of_psum ~count_bits:c.count_bits merged)
  in
  let on_server_quack i ~src ~index quack =
    let guard, slot =
      match src with
      | "path1" -> (Sidecar_protocols.Server_seam.guard h.Harness.seam i, last_q1)
      | _ -> (guards2.(i), last_q2)
    in
    match Q.Replay_guard.classify guard ~index quack with
    | Q.Replay_guard.Replay ->
        (* a re-delivered copy of a path emission already folded in:
           dropped before it touches the fold state — folding it
           again would force a spurious resync *)
        ()
    | (Q.Replay_guard.Fresh | Q.Replay_guard.Regression) as verdict -> (
        slot.(i) <- Some quack;
        match fold i with
        | None -> ()
        | Some folded ->
            (* a regression: one path's sidecar state restarted
               (eviction + re-admission), and its fresh baseline makes
               the fold undecodable against ours, so adopt it (§3.3) *)
            ignore
              (if verdict = Q.Replay_guard.Regression then
                 Harness.resync h i folded
               else Harness.apply h i folded))
  in
  Link.set_deliver h.Harness.rev.(2) (fun p ->
      match p.Packet.payload with
      | Sframes.Quack_frame { quack; src; dst = "server"; index } ->
          if Harness.owns h p then
            on_server_quack p.Packet.flow ~src ~index quack
      | _ -> Harness.deliver_ack h p);

  (* ---- the splitter: a deterministic per-flow cycle over the two
     branches ---------------------------------------------------------- *)
  let split_pos = Array.make n 0 in
  let path1_pkts = ref 0 in
  let path2_pkts = ref 0 in
  Link.set_deliver h.Harness.fwd.(0) (fun p ->
      if Harness.owns h p then begin
        let f = p.Packet.flow in
        let pos = split_pos.(f) in
        split_pos.(f) <- (pos + 1) mod cycle;
        if pos < share_1 then begin
          incr path1_pkts;
          Proxy.on_ingress proxy_1 p
        end
        else begin
          incr path2_pkts;
          Proxy.on_ingress proxy_2 p
        end
      end);
  let summary = Harness.run h ~release:[ proxy_1; proxy_2 ] () in
  {
    summary;
    proxy_1 = Proxy.stats proxy_1;
    proxy_2 = Proxy.stats proxy_2;
    path1_pkts = !path1_pkts;
    path2_pkts = !path2_pkts;
    folded_decodes = !folded_decodes;
    srv_replays_dropped =
      Harness.replays_dropped h
      + Array.fold_left (fun a g -> a + Q.Replay_guard.replays g) 0 guards2;
  }

let json_report (r : report) =
  Harness.json r.summary ~head:[]
    ~body:
      [
        ("proxy_1", Scenario.json_proxy_stats r.proxy_1);
        ("proxy_2", Scenario.json_proxy_stats r.proxy_2);
        ("path1_pkts", Obs.Json.Int r.path1_pkts);
        ("path2_pkts", Obs.Json.Int r.path2_pkts);
        ("folded_decodes", Obs.Json.Int r.folded_decodes);
      ]
    ~replays_dropped:r.srv_replays_dropped ~duplicates:"duplicates" ()

let pp_report ppf (r : report) =
  let s = r.summary in
  Format.fprintf ppf
    "@[<v>multipath: %a@,\
     split %d/%d pkts, %d folded decodes, %d server resyncs (%d replays \
     dropped)@,\
     retx %d, timeouts %d, duplicates %d@,\
     path 1: %a@,path 2: %a@,delivered %d B@]"
    (Harness.pp_outcome ~wedged:false) s r.path1_pkts r.path2_pkts
    r.folded_decodes s.srv_resyncs r.srv_replays_dropped s.retransmissions
    s.timeouts s.duplicates Scenario.pp_proxy_stats r.proxy_1
    Scenario.pp_proxy_stats r.proxy_2 s.delivered_bytes
