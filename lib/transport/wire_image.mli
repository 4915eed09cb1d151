(** The "paranoid" wire image: what a packet actually looks like on
    the wire, and why a sidecar can only ever see pseudo-random bits.

    Layout (QUIC-short-header-shaped):

    {v
    +------+----------------+--------------+------------------+-----+
    |flags | 8-byte conn id | 4-byte PN    | sealed payload   | tag |
    |(1 B) | (cleartext)    | (protected)  | (keystream XOR)  |16 B |
    +------+----------------+--------------+------------------+-----+
    v}

    The packet number is header-protected: XORed with a mask derived
    from a sample of the payload ciphertext, exactly the mechanism
    that makes QUIC packet numbers unreadable (and unforgeable) for
    middleboxes. The payload is sealed with a toy AEAD — a
    PRF keystream XOR plus a truncated HMAC-SHA256 tag over the header
    and ciphertext. {b Toy means toy}: this models the {e shape} and
    {e opacity} of the wire image for simulation purposes and must
    never protect real data.

    The sidecar identifier is {!extract_id}: 32 bits straddling the
    protected packet-number field — different for every transmission
    because the PN and its mask change, which is precisely the
    property the quACK needs (§3.2). *)

type key

val key_gen : seed:int -> key
(** Derive a connection key (both endpoints share it out of band —
    standing in for the TLS handshake). *)

val seal :
  key -> conn_id:int64 -> packet_number:int -> plaintext:string -> string
(** Produce the wire bytes. @raise Invalid_argument when
    [packet_number] exceeds 32 bits. *)

val open_ : key -> string -> (int * string, [ `Too_short | `Bad_tag ]) result
(** [open_ key wire] authenticates and decrypts:
    [(packet_number, plaintext)]. Only the endpoints can do this. *)

val seal_bytes :
  key -> conn_id:int64 -> packet_number:int -> plaintext:string -> Bytes.t
(** {!seal} without the final string conversion: the same wire bytes
    in a caller-owned buffer, for datapaths that keep packets as
    [Bytes] views end to end (lib/fastpath). *)

val open_in_place :
  key -> Bytes.t -> (int * int, [ `Too_short | `Bad_tag ]) result
(** Zero-copy {!open_}: authenticates, then unprotects the packet
    number and decrypts the payload {e in place}. [Ok (pn, body_len)]
    means the plaintext now occupies [header_len .. header_len +
    body_len) of the buffer (see {!payload_offset}); no intermediate
    buffer is rebuilt. On [Error `Bad_tag] the buffer is restored
    bit-for-bit; on [Error `Too_short] it was never touched. *)

val extract_id : string -> bits:int -> int
(** What the sidecar does: read [bits] pseudo-random bits from the
    protected region of the header. Requires no key. @raise
    Invalid_argument when the wire is shorter than a minimal packet. *)

val min_size : int
(** Header + tag bytes for an empty payload. *)

val conn_id_of_wire : string -> int64
(** The cleartext connection id — the "flow" a middlebox may route
    by. @raise Invalid_argument when too short. *)
