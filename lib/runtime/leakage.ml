module Engine = Netsim.Engine
module Link = Netsim.Link
module Packet = Netsim.Packet
module Time = Netsim.Sim_time
module Rng = Netsim.Rng
module Q = Sidecar_quack
module Path = Sidecar_protocols.Path
module Sframes = Sidecar_protocols.Sframes
module Adv = Sidecar_protocols.Adversary

type config = {
  shape : bool;  (** pace, pad and dummy-fill the quACK channel *)
  grid : Time.span;  (** shaping clock: one emission slot per tick *)
  pad_session : Time.span;
      (** shaping: keep the per-flow slot clock running (dummy-filled)
          until at least this long after flow start, so the quACK
          stream's lifetime stops tracking the flow's *)
  common : Harness.common;
  far : Path.segment;
}

let default_config =
  {
    shape = false;
    grid = Time.ms 50;
    pad_session = Time.s 8;
    common = Harness.default ~arrival:Harness.poisson;
    far = Path.cellular;
  }

type report = {
  config : config;
  summary : Harness.summary;
  quacks_on_wire : int;  (** sealed emissions the observer saw *)
  quack_bytes_on_wire : int;
  dummy_quacks : int;  (** shaping chaff (byte-identical re-emissions) *)
  replays_dropped : int;  (** chaff absorbed by the server's guard *)
  observer_accuracy : float;
      (** fraction of flows whose size class (small vs. large) a
          count-thresholding on-path observer labels correctly *)
}

(* lower median of a non-empty array *)
let median a =
  let s = Array.copy a in
  Array.sort compare s;
  s.((Array.length s - 1) / 2)

let run (cfg : config) =
  let c = cfg.common in
  Harness.check ~family:"Leakage" c;
  if cfg.grid <= 0 then invalid_arg "Leakage.run: grid must be positive";
  if cfg.pad_session < 0 then invalid_arg "Leakage.run: negative pad_session";
  let n = c.flows in
  let key = Harness.auth_key c.seed in
  (* Bimodal sizes give the probe a crisp ground truth: each flow is
     either small or large, a fair coin per flow. The observer's job
     is to recover that bit from the quACK side channel alone. *)
  let h =
    Harness.create c ~far:[ cfg.far ]
      ~sizes:
        (Harness.Sample
           (fun rng -> if Rng.bool rng ~p:0.5 then c.max_units else c.min_units))
      ()
  in
  let engine = h.Harness.engine in

  (* ---- sidecar + shaping seam ------------------------------------- *)
  (* every sealed quACK is padded to the same wire size; the packed
     payload is already parameter-constant, so this mainly pins the
     envelope against future variable-size formats *)
  let pad_to =
    Q.Wire.packed_size ~bits:c.bits ~threshold:c.threshold
      ~count_bits:c.count_bits
    + Q.Wire.frame_overhead + Q.Wire.auth_overhead + Sframes.encapsulation
  in
  let pending : Packet.t option array = Array.make n None in
  let last_sealed : Packet.t option array = Array.make n None in
  let ticking = Array.make n false in
  let stop_at =
    Array.map (fun at -> Time.add at cfg.pad_session) h.Harness.start_at
  in
  let dummy_quacks = ref 0 in
  let send_out = Harness.to_server h in
  (* One emission opportunity per grid tick per flow: the freshest
     genuine quACK if one is buffered (intermediate emissions coalesce
     — the sums are cumulative, so only decode granularity is lost),
     otherwise a byte-identical re-emission of the last one (chaff the
     server's replay guard silently absorbs). The clock runs until
     both the flow is done and [pad_session] has elapsed, so the
     observer sees a constant-rate, constant-size stream whose
     lifetime no longer tracks the flow's — every signal the probe
     thresholds on is flattened (NetShaper-style DP shaping is the
     rigorous end of this spectrum; this is the cheap end). *)
  let rec tick i () =
    (match pending.(i) with
    | Some p ->
        pending.(i) <- None;
        last_sealed.(i) <- Some p;
        send_out p
    | None -> (
        match last_sealed.(i) with
        | Some p ->
            incr dummy_quacks;
            send_out p
        | None -> ()));
    let now = Engine.now engine in
    if ((not (Harness.flow_done h i)) || now < stop_at.(i)) && now < c.until
    then Engine.schedule engine ~delay:cfg.grid (tick i)
  in
  let seal_backward p =
    match Harness.seal ~key p with
    | Some (sealed, _) when cfg.shape ->
        let i = p.Packet.flow in
        pending.(i) <- Some { sealed with Packet.size = pad_to };
        if not ticking.(i) then begin
          ticking.(i) <- true;
          Engine.schedule engine ~delay:cfg.grid (tick i)
        end
    | Some (sealed, _) -> send_out sealed
    | None -> send_out p
  in
  let proxy, _ =
    Harness.sidecar h ~addr:"sidecar" ~far:1 ~backward:seal_backward ()
  in

  (* ---- the authenticated server seam (both arms) ------------------ *)
  let on_sealed i ~index ~tag ~wire =
    if Q.Wire.verify_tag ~key ~flow:i ~index ~tag wire then
      match Q.Wire.decode_framed wire with
      | Error _ -> ()
      | Ok quack ->
          (* shaping chaff is a replay the guard drops *)
          ignore (Harness.receive h i ~index quack)
  in

  (* ---- the on-path observer --------------------------------------- *)
  (* Knows nothing but what any wire element sees: flow tag, size,
     timing of the sealed quACK stream. *)
  let obs_count = Array.make n 0 in
  let obs_bytes = ref 0 in
  let obs_total = ref 0 in
  let server_link = h.Harness.rev.(1) in
  Link.set_tap server_link (fun p ->
      match p.Packet.payload with
      | Adv.Sealed _ when Harness.owns h p ->
          obs_count.(p.Packet.flow) <- obs_count.(p.Packet.flow) + 1;
          obs_bytes := !obs_bytes + p.Packet.size;
          incr obs_total
      | _ -> ());
  Link.set_deliver h.Harness.fwd.(0) (fun p ->
      if Harness.owns h p then Proxy.on_ingress proxy p);
  Link.set_deliver server_link (fun p ->
      if Harness.owns h p then
        match p.Packet.payload with
        | Adv.Sealed { wire; tag; index; _ } ->
            on_sealed p.Packet.flow ~index ~tag ~wire
        | _ -> Harness.deliver_ack h p);
  let summary = Harness.run h ~release:[ proxy ] () in

  (* ---- the observer's guess ---------------------------------------- *)
  (* size-class recovery from the quACK side channel alone: flows
     strictly above the median observed emission count are guessed
     "large" (strict, so a flattened shaped stream where most counts
     tie at the median collapses to the all-small guess rather than
     the all-large one) *)
  let count_median = median obs_count in
  let correct = ref 0 in
  for i = 0 to n - 1 do
    let truly_large = h.Harness.units.(i) > c.min_units in
    let guessed_large = obs_count.(i) > count_median in
    if truly_large = guessed_large then incr correct
  done;
  {
    config = cfg;
    summary;
    quacks_on_wire = !obs_total;
    quack_bytes_on_wire = !obs_bytes;
    dummy_quacks = !dummy_quacks;
    replays_dropped = Harness.replays_dropped h;
    observer_accuracy = float_of_int !correct /. float_of_int n;
  }

let arm_name (r : report) = if r.config.shape then "shaped" else "unshaped"

let json_report (r : report) =
  Harness.json r.summary
    ~head:[ ("arm", Obs.Json.String (arm_name r)) ]
    ~delivered:false
    ~body:
      [
        ("quacks_on_wire", Obs.Json.Int r.quacks_on_wire);
        ("quack_bytes_on_wire", Obs.Json.Int r.quack_bytes_on_wire);
        ("dummy_quacks", Obs.Json.Int r.dummy_quacks);
        ("replays_dropped", Obs.Json.Int r.replays_dropped);
        ("observer_accuracy", Obs.Json.Float r.observer_accuracy);
      ]
    ()

let pp_report ppf (r : report) =
  let s = r.summary in
  Format.fprintf ppf
    "@[<v>leakage arm=%s: %a@,\
     observer: %d quACKs (%d B) on the wire, %d dummies, accuracy %.2f@,\
     server: %d resyncs, %d chaff replays dropped; retx %d, timeouts %d@]"
    (arm_name r) (Harness.pp_outcome ~wedged:false) s r.quacks_on_wire
    r.quack_bytes_on_wire r.dummy_quacks r.observer_accuracy s.srv_resyncs
    r.replays_dropped s.retransmissions s.timeouts
