(** Decoding a quACK against the sender's log of candidate packets
    (§3.1–3.2): from the power-sum differences and the number of
    missing packets [m], recover exactly which logged identifiers are
    missing.

    Two strategies (§4.2–4.3):

    - [`Plug_in] — build the degree-[m] missing-packet polynomial via
      Newton's identities and evaluate it at every candidate,
      deflating at each hit. O(n·m); the paper's choice for small [n].
    - [`Factor] — find the polynomial's roots directly over [F_p]
      (Cantor–Zassenhaus), then match roots back to candidates. Cost
      depends only on [m <= t], which §4.3 recommends for large [n]. *)

type strategy = [ `Plug_in | `Factor ]

type outcome = {
  missing : int list;
      (** identifiers decoded as missing, with multiplicity. [`Plug_in]
          preserves candidate order; [`Factor] returns them sorted by
          reduced value. *)
  unresolved : int;
      (** roots of the missing-packet polynomial matched by no
          candidate. Non-zero indicates candidate-list truncation, a
          wrapped count, or corruption. *)
}

type error =
  [ `Threshold_exceeded of int * int
    (** (m, t): more packets missing than the quACK can express; the
        paper requires a connection reset in this case (§3.3). *) ]

val pp_error : Format.formatter -> error -> unit

val decode :
  ?strategy:strategy ->
  field:(module Sidecar_field.Modular.S) ->
  diff_sums:int array ->
  num_missing:int ->
  candidates:int list ->
  unit ->
  (outcome, error) result
(** [decode ~field ~diff_sums ~num_missing ~candidates ()] solves the
    power-sum system. [diff_sums] is sender-minus-receiver (length
    [>= num_missing] or the call fails with [`Threshold_exceeded]);
    [candidates] are raw identifiers from the sender log (reduced into
    the field internally, returned unreduced). *)

(** {2 Reusable decoding context}

    {!decode} prepares its field arithmetic on every call. A long-lived
    decoder (one per sender log) builds a {!context} once and decodes
    candidates straight out of its own array. *)

type context

val context : ?max_missing:int -> (module Sidecar_field.Modular.S) -> context
(** The field plus a table of [1/k] for [k <= max_missing] (default
    64; a larger [m] still decodes, dividing instead). Immutable: any
    number of decodes over the field may share it. *)

val all_missing :
  context ->
  diff_sums:int array ->
  num_missing:int ->
  id:('a -> int) ->
  'a array ->
  len:int ->
  bool
(** [all_missing ctx ~diff_sums ~num_missing ~id cands ~len] is true
    exactly when [num_missing = len > 0] and the first [num_missing]
    power sums of the identifiers of [cands.(0 .. len-1)] equal
    [diff_sums]. Then either strategy decodes every candidate as
    missing with nothing unresolved ([`Factor] lists them in another
    order), so a caller that only needs the missing multiset can skip
    the decode. Costs [len] additions when the first sums differ. *)

val decode_array :
  ?strategy:strategy ->
  context ->
  diff_sums:int array ->
  num_missing:int ->
  id:('a -> int) ->
  'a array ->
  len:int ->
  unit ->
  (outcome, error) result
(** {!decode} with the candidates [id cands.(0)], ..., [id cands.(len-1)]:
    the same outcome, without a candidate list or per-call set-up. *)

val decode_between :
  ?strategy:strategy ->
  ?count_bits:int ->
  sent:Psum.t ->
  quack:Quack.t ->
  candidates:int list ->
  unit ->
  (outcome, error) result
(** Convenience wrapper: compute [m] with count wrap-around and the
    sum differences from a sender sketch and a received quACK, then
    {!decode}. *)
