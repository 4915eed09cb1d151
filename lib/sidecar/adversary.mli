(** An on-path adversary for quACK feedback (ROADMAP item 4; the §5
    "what if the proxy is adversarial?" question made executable).

    The node sits on the return path between a quACK-emitting sidecar
    and the server and attacks the feedback channel four ways, each at
    its own rate:

    - {e spoof}: fabricate a well-formed quACK with random power sums
      and a bumped emission index — without authentication it is
      indistinguishable from the freshest genuine feedback;
    - {e replay}: re-emit a captured emission byte-for-byte after a
      delay — its tag is {e valid}, so authentication alone cannot
      stop it ({!Sidecar_quack.Replay_guard} does);
    - {e truncate}: re-encode the frame with half its power sums — the
      self-describing framed codec decodes the shorter sketch happily
      unless the (now stale) tag is checked;
    - {e bit-flip}: flip one random wire bit — corrupts a power sum
      into a decodable lie, or the header into a malformed frame.

    The adversary only touches {!Sealed} payloads whose [origin] is
    [Proxy]; everything else (end-to-end ACKs, data) passes through
    untouched — the threat model is a feedback-channel attacker, not a
    general packet corruptor (end-to-end traffic is already covered by
    the transport's own integrity story, §2). *)

(** Ground-truth provenance of a sealed quACK. Measurement-only: the
    server must never branch on it except to attribute damage — its
    decisions use the tag, the replay guard, and the codec alone. *)
type origin =
  | Proxy  (** genuine, straight from the emitting sidecar *)
  | Forged  (** fabricated by the adversary *)
  | Replayed  (** byte-for-byte re-emission of a genuine quACK *)
  | Tampered  (** genuine bytes, truncated or bit-flipped in flight *)

type Netsim.Packet.payload +=
  | Sealed of {
      wire : string;  (** framed quACK bytes ({!Sidecar_quack.Wire.encode_framed}) *)
      tag : string;  (** detached tag ({!Sidecar_quack.Wire.tag}) *)
      index : int;  (** emission index (the tag's AAD, with the flow) *)
      origin : origin;
    }
        (** A quACK as it actually travels when the runtime models the
            wire: opaque bytes plus a detached tag, not a structured
            {!Sframes.Quack_frame}. Attacks operate on the bytes. *)

type rates = {
  spoof : float;
  replay : float;
  truncate : float;
  bitflip : float;
}
(** Per-observed-quACK attack probabilities, each in [[0, 1]]. *)

val no_attack : rates

val uniform : float -> rates
(** The same rate for all four attacks — the scenario families' single
    [--attack-rate] knob. *)

type stats = {
  observed : int;  (** genuine emissions that crossed the adversary *)
  spoofs : int;
  replays : int;
  truncations : int;
  bitflips : int;
}

type t

val create :
  ?replay_delay:Netsim.Sim_time.span ->
  engine:Netsim.Engine.t ->
  rng:Netsim.Rng.t ->
  rates:rates ->
  emit:(Netsim.Packet.t -> unit) ->
  unit ->
  t
(** [emit] is where every packet leaves the adversary (the original,
    possibly tampered; plus any forgeries and delayed replays).
    [replay_delay] defaults to 50 ms.
    @raise Invalid_argument on a rate outside [[0, 1]] or a negative
    delay. *)

val on_path : t -> Netsim.Packet.t -> unit
(** Pass one packet through the adversary. Bernoulli draws happen in a
    fixed order for every observed quACK regardless of rates, so
    same-seed runs at different rates see comparable schedules. *)

val stats : t -> stats

val spec :
  ?replay_delay:Netsim.Sim_time.span ->
  rates:rates ->
  seed:int ->
  ?expose:(t -> unit) ->
  unit ->
  Node.spec
(** The adversary as a {!Chain} junction node: forward direction
    untouched, return direction through {!on_path}. Its RNG stream is
    derived from [(seed, junction index)]; [expose] hands the instance
    out so harnesses can read {!stats} after the run. *)
