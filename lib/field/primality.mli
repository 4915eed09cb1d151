(** Deterministic Miller–Rabin primality testing for the modulus range
    used by quACKs (anything below [2^62]). *)

val is_prime : int -> bool
(** [is_prime n] decides primality deterministically for
    [0 <= n < 3.3e24] (we only ever call it below [2^62]). *)

val largest_prime_in_bits : int -> int
(** [largest_prime_in_bits b] is the largest prime expressible in [b]
    bits, i.e. the largest prime [< 2^b]. The paper's modulus choice
    (§3.2). @raise Invalid_argument unless [2 <= b <= 62]. *)
