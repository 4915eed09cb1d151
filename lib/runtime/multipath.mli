(** The multipath scenario family (paper §5, ROADMAP item 3): one
    flow's packets split across two paths, each with its own sidecar,
    and the sender folds both quACKs into a single missing-set decode.

    {v
                            +-- sidecar 1 -- far_1 (cellular) ------+
      server --- splitter --+                                        +-- client
                            +-- sidecar 2 -- far_2 (congested cell) -+
    v}

    Each sidecar quACKs the packets {e it} saw, tagged with its own
    frame [src]. The server keeps the latest cumulative quACK per path
    and folds them with [Psum.merge] — power sums are linear, so the
    merged sketch is exactly the sketch of the union — then snaps the
    union back through [Quack.of_psum] (the seam that wraps the
    combined count to its wire width) and feeds one
    {!Sidecar_quack.Sender_state.on_quack} decode.

    A path sidecar whose state restarts (eviction + re-admission)
    regresses its emission index; the fold is then adopted as the new
    baseline via [resync_to] (§3.3), same as the single-path runtime.

    With [split = (k, 0)] every packet rides path 1: the single-path
    arm whose decode the merged two-path decode is differentially
    tested against. Deterministic: a pure function of [config]. *)

type config = {
  common : Harness.common;  (** [near] is server -> splitter *)
  far_1 : Sidecar_protocols.Path.segment;
  far_2 : Sidecar_protocols.Path.segment;
  split : int * int;
      (** of every [fst + snd] data packets of a flow, the first [fst]
          take path 1, the rest path 2 *)
  size_dist : Netsim.Workload.size_dist;
}

val default_config : config
(** 1:1 split over a cellular and a congested-cell branch (delay-close
    paths: a shared RTT estimator cannot serve branches whose delays
    differ by multiples — that is MPTCP's per-subflow problem, not the
    quACK fold's), flash-crowd arrivals, 40 flows. *)

type report = {
  summary : Harness.summary;
  proxy_1 : Proxy.stats;
  proxy_2 : Proxy.stats;
  path1_pkts : int;
  path2_pkts : int;
  folded_decodes : int;
  srv_replays_dropped : int;
      (** re-delivered path emissions dropped by the per-path
          {!Sidecar_quack.Replay_guard} before touching the fold *)
}

val run : config -> report
(** @raise Invalid_argument on non-positive flow count, bad unit
    bounds, or negative/empty split shares. *)

val json_report : report -> Obs.Json.t

val pp_report : Format.formatter -> report -> unit
