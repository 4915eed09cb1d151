(** Flow demultiplexing and admission control, split out of the
    per-flow protocol state it routes to.

    A demux is the part of a sidecar that decides {e which} per-flow
    state a packet belongs to and whether that flow gets to hold state
    at all: a bounded {!Flow_table} plus the admission accounting
    (tracked/degraded packet counters, quACK routing counters) and the
    [Admit]/[Deny]/[Evict]/[Release] trace events. What the state
    {e is} — a full protocol instance under {!Proxy}, a bare power-sum
    sketch under [Shard_runtime] — is the caller's business: the
    packet path hands it back through the [tracked] continuation.

    Everything is driven by an injected [now] clock, so the same demux
    serves the event-driven engine ([Engine.now]) and the epoch-stepped
    sharded runtime (epoch counter). *)

type 'a t

val create :
  ?policy:Flow_table.policy ->
  ?on_evict:(int -> 'a -> unit) ->
  ?on_remove:(int -> 'a -> unit) ->
  capacity:int ->
  label:string ->
  metrics:Obs.Metrics.t ->
  trace:Obs.Trace.t ->
  now:(unit -> Netsim.Sim_time.t) ->
  unit ->
  'a t
(** Builds the bounded table (registering its stats under
    ["<label>.table"]) and the demux counters (["<label>.data_packets"]
    etc.) into [metrics]. [on_evict]/[on_remove] run after the
    corresponding [Evict]/[Release] trace event is recorded — eviction
    tears state down mid-stream, removal follows a clean completion;
    the distinction is {!Flow_table}'s. *)

val table : 'a t -> 'a Flow_table.t
(** The underlying table, for callers that need direct iteration or
    statistics beyond the accessors below. *)

val data : 'a t -> flow:int -> make:(unit -> 'a) -> tracked:('a -> unit) ->
  degraded:(unit -> unit) -> unit
(** Route one data packet: admit (or find) the flow and apply
    [tracked] to its state, or apply [degraded] when the table denies
    a slot — the flow then sees a plain store-and-forward hop.
    Accounts [data_packets]/[degraded_packets] and records
    [Admit]/[Deny] trace events (when the [Table] category is on). *)

val feedback : 'a t -> flow:int -> 'a option
(** The state to route one returning quACK to ([quacks_rx]); an
    untracked flow's feedback is counted [degraded_quacks] and gets
    [None]. Never admits. *)

val find : 'a t -> int -> 'a option
(** Touching lookup (recency + hit/miss stats), as [Flow_table.find]. *)

val peek : 'a t -> int -> 'a option
val release : 'a t -> int -> bool
val sweep_idle : 'a t -> int
val iter : 'a t -> (int -> 'a -> unit) -> unit
val occupancy : 'a t -> int
val peak_occupancy : 'a t -> int
val table_stats : 'a t -> Flow_table.stats
val data_packets : 'a t -> int
val degraded_packets : 'a t -> int
val quacks_rx : 'a t -> int
val degraded_quacks : 'a t -> int
