(** The proxy-side AIMD pacing window of §2.1: slow start to
    [ssthresh], additive increase past it, halving once per congestion
    event — the far-segment control loop a CC-division proxy runs per
    flow, fed exclusively by decoded quACK reports.

    Extracted from {!Cc_division} so the multi-flow runtime
    ([Sidecar_runtime.Proxy]) can keep one window per flow-table
    entry. *)

type t

val create : wire:int -> t
(** [wire] is the on-wire bytes of one data packet (MSS + header);
    the window opens at 10 packets, QUIC's initial window.
    @raise Invalid_argument when [wire <= 0]. *)

val next_index : t -> int
(** Allocate the forward index for a packet about to be sent
    downstream; quACK reports refer to packets by these indices. *)

val on_quack : t -> acked_pkts:int -> lost_indices:int list -> unit
(** Fold one decoded quACK report in. [lost_indices] are forward
    indices ({!next_index} values) of packets declared lost; only
    indices at or past the current recovery mark start a new
    congestion event (one halving per event, not per loss). *)

val window : t -> int
(** Current window, bytes. *)

