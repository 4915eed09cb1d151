(** Newton's identities over a prime field: recover the monic
    polynomial whose roots (a multiset) have the given power sums.

    This is the decoding core of the power-sum quACK (§3.1): the sender
    forms the differences [d_i] of its own power sums and the
    receiver's, then the missing packets are exactly the roots of the
    polynomial returned by {!val-polynomial_of_power_sums}. *)

val inverses : (module Modular.S) -> int -> int array
(** [inverses field n] is [[|0; 1/1; 1/2; ...; 1/n|]]: the divisors
    Newton's identities need for up to [n] power sums, each found in
    O(1) from a smaller one. @raise Invalid_argument when
    [n >= modulus]. *)

val monic_of_power_sums :
  (module Modular.S) -> ?inverses:int array -> int array -> int array
(** [monic_of_power_sums field p] is the coefficient array (index [i]
    holds [x^i]) of the monic degree-[m] polynomial whose root
    multiset has the [m] power sums [p] — the same polynomial as
    {!Make.polynomial_of_power_sums}, through a packed field, so the
    caller needs no functor application. The array is fresh and the
    caller may mutate it. [inverses] (from {!inverses}, covering at
    least [m]) replaces each division by a table lookup; the result is
    the same. *)

module Make (F : Modular.S) : sig
  module P : module type of Poly.Make (F)

  val elementary_from_power_sums : F.t array -> F.t array
  (** [elementary_from_power_sums [|p1; ...; pm|]] returns
      [[|e0; e1; ...; em|]] with [e0 = 1], via
      [k*e_k = sum_{i=1..k} (-1)^(i-1) e_(k-i) p_i]. Requires the field
      characteristic to exceed [m] (always true here: p is at least
      251 and thresholds are small). *)

  val polynomial_of_power_sums : F.t array -> P.t
  (** Monic polynomial of degree [m] whose root multiset has the given
      [m] power sums: [f(x) = sum_k (-1)^k e_k x^(m-k)]. *)

  val power_sums_of_roots : F.t list -> int -> F.t array
  (** [power_sums_of_roots roots m] computes the first [m] power sums
      of the multiset — the inverse direction, used in tests. *)
end
