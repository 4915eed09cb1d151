(** The server's quACK seam: what the server-side sidecar of §2.1–§2.3
    does with each quACK, shared by every driver that runs one.

    Per flow it keeps a {!Sidecar_quack.Sender_state} and a
    {!Sidecar_quack.Replay_guard}. A fresh decode goes to the caller's
    [fresh] hook, which credits the sender; a stale report or a quACK
    whose configuration differs from the sender's is ignored; a decode
    past the threshold resyncs the sender state onto the quACK's
    cumulative sums (§3.3). *)

type outcome =
  | Applied  (** a fresh decode, handed to [fresh] *)
  | Resynced  (** adopted as the new baseline (§3.3) *)
  | Ignored  (** stale, mismatched, or a replay *)

type 'meta t

val create : Sidecar_quack.Sender_state.config -> flows:int -> 'meta t
val on_send : 'meta t -> int -> id:int -> 'meta -> unit
(** Log one transmission of flow [i]: the sender's [on_transmit] tap. *)

val apply :
  'meta t ->
  int ->
  Sidecar_quack.Quack.t ->
  fresh:(int -> 'meta Sidecar_quack.Sender_state.report -> unit) ->
  outcome
(** Decode flow [i]'s quACK; a fresh report goes to [fresh i]. *)

val resync : 'meta t -> int -> Sidecar_quack.Quack.t -> outcome
(** Adopt the quACK's sums as flow [i]'s baseline, abandoning its log. *)

val receive :
  'meta t ->
  int ->
  index:int ->
  Sidecar_quack.Quack.t ->
  fresh:(int -> 'meta Sidecar_quack.Sender_state.report -> unit) ->
  outcome
(** {!apply} behind flow [i]'s replay guard: a replay is ignored, and a
    regressed index with novel contents (the emitter restarted)
    resyncs. *)

val guard : 'meta t -> int -> Sidecar_quack.Replay_guard.t

val resyncs : 'meta t -> int
val replays_dropped : 'meta t -> int
