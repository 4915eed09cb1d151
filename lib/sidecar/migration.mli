(** A handover-capable sidecar (paper §5 mobility, ROADMAP item 3): the
    ACK-reduction behavior of {!Proto_ar} — sketch every arriving data
    packet, emit a cumulative quACK toward the server every
    [quack_every] arrivals — plus the state-transfer seams a migration
    event needs, modeled on EMQX's session-takeover EIPs.

    Each [make] builds one sidecar {e instance} (one network location)
    and returns a [handle] onto its per-flow state:

    - {!snapshot} exports a flow's cumulative sketch and emission index
      (what sidecar A ships over the control channel when the flow
      leaves it);
    - {!install} imports such a snapshot at the {e new} sidecar. If the
      flow is not yet admitted there, the snapshot seeds its state at
      admission, so quACK emission continues exactly where A stopped —
      cumulative sums and monotone index — and the sender never
      resyncs. If the takeover {e raced} with migrated data (the flow
      is already live at B), the snapshot is folded in with
      [Psum.merge]: A saw exactly the pre-migration packets and B the
      post-migration ones, so the merge is the union sketch.

    Without a transfer, B starts the flow fresh: its first quACK
    carries a restarted index and a fresh baseline, which the sender's
    index-regression detection turns into a {!Sidecar_quack.Sender_state.resync_to}
    — the [Resync] takeover strategy. *)

type config = {
  addr : string;  (** this sidecar's frame address (and quACK [src]) *)
  bits : int;
  threshold : int;
  count_bits : int;
  quack_every : int;
  field : (module Sidecar_field.Modular.S) option;
}

type snapshot = {
  bits : int;
  threshold : int;
  modulus : int;  (** carried so a foreign-field install fails loudly *)
  sums : int array;
  count : int;
  index : int;  (** last emitted quACK index *)
}

val snapshot_wire_bytes : snapshot -> int
(** Modeled control-channel cost of shipping one snapshot (packed sums
    + count/index/flow metadata + UDP/IP encapsulation). *)

type handle

val make : config -> Protocol.t * handle
(** @raise Invalid_argument when [quack_every <= 0]. *)

val snapshot : handle -> flow:int -> snapshot option
(** [None] when the flow is not live at this sidecar. *)

val install : handle -> flow:int -> snapshot -> unit
(** @raise Invalid_argument on width/threshold/modulus mismatch — the
    same guard family as [Psum.merge] and [Sender_state.resync_to]:
    adopting foreign-field sums would silently corrupt the sketch. *)

val install_merges : handle -> int
(** The subset of installs that raced with migrated data and were
    folded into live state via [Psum.merge]. *)
