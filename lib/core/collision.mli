(** Identifier-collision analysis (§4.2, Table 3).

    With [b]-bit pseudo-random identifiers and a log of [n] packets,
    the probability that a given identifier also names some other
    packet in the log — making its fate indeterminate if exactly one
    of the two is missing — is [1 - (1 - 2^-b)^(n-1)]. *)

val probability : n:int -> bits:int -> float
(** Analytic collision probability for a candidate packet. *)

val table3_bits : int list
(** The identifier widths of Table 3: [8; 16; 24; 32]. *)

val monte_carlo :
  ?seed:int -> trials:int -> n:int -> bits:int -> unit -> float
(** Empirical estimate: draw [n] identifiers uniformly, check whether
    a distinguished one collides; repeat [trials] times. Used by tests
    to validate {!probability} at small [b]. *)
