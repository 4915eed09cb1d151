module Engine = Netsim.Engine
module Packet = Netsim.Packet
module Time = Netsim.Sim_time
module Rng = Netsim.Rng
module Quack = Sidecar_quack.Quack
module Wire = Sidecar_quack.Wire

type origin = Proxy | Forged | Replayed | Tampered

type Packet.payload +=
  | Sealed of { wire : string; tag : string; index : int; origin : origin }

type rates = {
  spoof : float;
  replay : float;
  truncate : float;
  bitflip : float;
}

let no_attack = { spoof = 0.; replay = 0.; truncate = 0.; bitflip = 0. }
let uniform r = { spoof = r; replay = r; truncate = r; bitflip = r }

type stats = {
  observed : int;
  spoofs : int;
  replays : int;
  truncations : int;
  bitflips : int;
}

type t = {
  engine : Engine.t;
  rng : Rng.t;
  rates : rates;
  replay_delay : Time.span;
  emit : Packet.t -> unit;
  mutable observed : int;
  mutable spoofs : int;
  mutable replays : int;
  mutable truncations : int;
  mutable bitflips : int;
}

let check_rate name r =
  if not (r >= 0. && r <= 1.) then
    invalid_arg (Printf.sprintf "Adversary.create: %s rate %g outside [0, 1]" name r)

let create ?(replay_delay = Time.ms 50) ~engine ~rng ~rates ~emit () =
  check_rate "spoof" rates.spoof;
  check_rate "replay" rates.replay;
  check_rate "truncate" rates.truncate;
  check_rate "bitflip" rates.bitflip;
  if replay_delay < 0 then invalid_arg "Adversary.create: negative replay delay";
  {
    engine;
    rng;
    rates;
    replay_delay;
    emit;
    observed = 0;
    spoofs = 0;
    replays = 0;
    truncations = 0;
    bitflips = 0;
  }

let stats t =
  {
    observed = t.observed;
    spoofs = t.spoofs;
    replays = t.replays;
    truncations = t.truncations;
    bitflips = t.bitflips;
  }

let random_tag t =
  String.init Wire.auth_overhead (fun _ -> Char.chr (Rng.int t.rng 256))

(* Fabricate a quACK from whole cloth, using the observed emission as
   a template so the forgery is well-formed at the codec level: same
   parameters, uniformly random power sums below the modulus, an index
   bumped past the genuine one so it looks like the freshest feedback
   yet. Without authentication the only thing wrong with it is that
   every bit of its content is a lie. *)
let forge t (p : Packet.t) ~wire ~index =
  match Wire.decode_framed wire with
  | Error _ -> ()
  | Ok q ->
      let sums = Array.map (fun _ -> Rng.int t.rng q.Quack.modulus) q.Quack.sums in
      let count =
        if q.Quack.count_bits = 0 then 0
        else Rng.int t.rng (1 lsl q.Quack.count_bits)
      in
      let fwire = Wire.encode_framed { q with Quack.sums; count } in
      let findex = index + 1 + Rng.int t.rng 4 in
      t.spoofs <- t.spoofs + 1;
      t.emit
        {
          p with
          Packet.payload =
            Sealed { wire = fwire; tag = random_tag t; index = findex; origin = Forged };
        }

(* Re-emit a captured emission byte-for-byte (wire AND tag — the tag
   is valid, which is exactly why replay needs its own defence) after
   a short on-path detour. *)
let replay t (p : Packet.t) ~wire ~tag ~index =
  t.replays <- t.replays + 1;
  Engine.schedule t.engine ~delay:t.replay_delay (fun () ->
      t.emit
        { p with Packet.payload = Sealed { wire; tag; index; origin = Replayed } })

(* Chop the frame down to half its power sums and re-encode — the
   framed format is self-describing, so an unauthenticated consumer
   happily decodes the shorter sketch. The original tag is kept (it no
   longer matches, which is the point). *)
let truncate_wire t wire =
  match Wire.decode_framed wire with
  | Error _ -> None
  | Ok q ->
      let th = max 1 (Quack.threshold q / 2) in
      t.truncations <- t.truncations + 1;
      Some (Wire.encode_framed { q with Quack.sums = Array.sub q.Quack.sums 0 th })

let bitflip_wire t wire =
  if String.length wire = 0 then None
  else begin
    let b = Bytes.of_string wire in
    let bit = Rng.int t.rng (8 * Bytes.length b) in
    Bytes.set b (bit / 8)
      (Char.chr (Char.code (Bytes.get b (bit / 8)) lxor (1 lsl (bit mod 8))));
    t.bitflips <- t.bitflips + 1;
    Some (Bytes.to_string b)
  end

let on_path t (p : Packet.t) =
  match p.Packet.payload with
  | Sealed { wire; tag; index; origin = Proxy } ->
      t.observed <- t.observed + 1;
      (* one bernoulli draw per attack in a fixed order, whatever the
         rates: same-seed runs consume the stream identically across
         arms, so attack schedules are comparable between them *)
      let do_replay = Rng.bool t.rng ~p:t.rates.replay in
      let do_spoof = Rng.bool t.rng ~p:t.rates.spoof in
      let do_trunc = Rng.bool t.rng ~p:t.rates.truncate in
      let do_flip = Rng.bool t.rng ~p:t.rates.bitflip in
      if do_replay then replay t p ~wire ~tag ~index;
      if do_spoof then forge t p ~wire ~index;
      let tampered =
        if do_trunc then truncate_wire t wire
        else if do_flip then bitflip_wire t wire
        else None
      in
      let p =
        match tampered with
        | None -> p
        | Some wire' ->
            { p with Packet.payload = Sealed { wire = wire'; tag; index; origin = Tampered } }
      in
      t.emit p
  | _ -> t.emit p

let spec ?replay_delay ~rates ~seed ?expose () : Node.spec =
 fun ports ->
  let rng = Rng.create (Rng.derive seed ~index:ports.Node.index) in
  let t =
    create ?replay_delay ~engine:ports.Node.engine ~rng ~rates
      ~emit:ports.Node.backward ()
  in
  (match expose with None -> () | Some f -> f t);
  {
    Node.fwd = ports.Node.forward;
    rev = (fun p -> on_path t p);
    start = (fun () -> ());
  }
