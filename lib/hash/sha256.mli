(** SHA-256 (FIPS 180-4), implemented from scratch so Strawman 2's
    256-bit set hash needs no external dependency.

    Values are 32-byte strings; use {!to_hex} for display. *)

type ctx
(** Streaming hash context. *)

val init : unit -> ctx
val feed_string : ctx -> string -> unit
val feed_int64_le : ctx -> int64 -> unit
(** Feed an integer as 8 little-endian bytes (used to hash packet
    identifiers without string allocation at call sites). *)

val finalize : ctx -> string
(** Produce the 32-byte digest. The context must not be reused. *)

val digest_string : string -> string
val to_hex : string -> string

val digest_int_list : int list -> string
(** Digest a list of identifiers, each as 8 LE bytes, in list order.
    Strawman 2 sorts before calling this so the digest is
    order-independent. *)
