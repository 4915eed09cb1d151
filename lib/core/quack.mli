(** A quACK value: what the receiver's sidecar actually transmits
    (Fig. 2) — [t] power sums plus a (possibly truncated, possibly
    omitted) element count. *)

type t = {
  bits : int;  (** identifier width [b] *)
  modulus : int;
      (** the prime field the power sums live in. Equal [bits] does not
          imply the same prime (65521 vs. 65519 are both 16-bit), and
          consumers that adopt or difference against these sums must
          reject a foreign field rather than silently corrupt their
          sketch. Not encoded on the wire: the packed format fixes the
          canonical prime for each width. *)
  count_bits : int;
      (** width [c] of the count on the wire; [0] means the count is
          omitted entirely (the ACK-reduction mode of §4.3 where the
          count is always the fixed [n]). *)
  sums : int array;  (** the [t] power sums, exponent [i+1] at index [i] *)
  count : int;
      (** receiver count, already truncated to [count_bits]: a quACK
          always carries the canonical wire representative, so the
          in-memory value and its wire round-trip agree even after a
          [Psum.merge] whose full-precision count crosses the wrap
          boundary. *)
}

val of_psum : ?count_bits:int -> Psum.t -> t
(** Snapshot a receiver sketch as a transmittable quACK.
    [count_bits] defaults to 16 (the paper's [c]). The sketch count is
    wrapped to [count_bits] here — this is the merge->quACK seam, so
    merged path sketches yield the same quACK a wire round-trip would. *)

val threshold : t -> int
val size_bits : t -> int
(** Wire size in bits: [t*b + c] (656 for t=20, b=32, c=16). *)

val size_bytes : t -> int
(** Wire size in whole bytes (82 for t=20, b=32, c=16). *)

val wrap_count : t -> int -> int
(** [wrap_count q n] truncates [n] to the quACK's count width; the
    identity when the count is omitted or [count_bits >= 62]. *)

val missing_count : t -> sender_count:int -> int
(** Number of missing packets [m = sender_count - count] computed in
    wrap-around arithmetic modulo [2^count_bits] (§3.2). *)

val missing_count_as : count_bits:int -> t -> sender_count:int -> int
(** {!missing_count} with the count read at [count_bits] instead of
    the quACK's own width: a sender that knows the configured width
    need not copy the quACK to override it. *)

val pp : Format.formatter -> t -> unit
