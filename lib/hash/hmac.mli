(** HMAC-SHA256 (RFC 2104) — used to authenticate quACK frames so a
    host can reject forged feedback from an adversarial on-path
    element (one of the §5 open questions, made concrete). *)

val mac : key:string -> string -> string
(** 32-byte tag over the message. Keys longer than 64 bytes are
    hashed first, per the RFC. *)

val mac_truncated : key:string -> ?len:int -> string -> string
(** Tag truncated to [len] bytes (default 16). *)

val verify : key:string -> ?len:int -> tag:string -> string -> bool
(** Constant-time comparison of [tag] against the recomputed tag
    truncated to [len] bytes (default 16) — the length is the
    {e verifier's} choice, never inferred from the presented tag, so
    an attacker cannot shorten the comparison by presenting a short
    tag. A [tag] whose length differs from [len] fails immediately.
    Raises [Invalid_argument] if [len] is outside
    [[min_tag_len, 32]]. *)
