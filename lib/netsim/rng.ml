type t = Random.State.t

let create seed = Random.State.make [| seed; 0x51DEC0DE |]
(* Draw the two words with explicit [let]s: evaluation order inside an
   array literal is unspecified, so inlining both draws would let the
   child seed flip across compiler versions. *)
let split t =
  let a = Random.State.bits t in
  let b = Random.State.bits t in
  Random.State.make [| a; b |]

(* SplitMix64's finalizer: a bijective avalanche mix, so neighbouring
   task indices land on uncorrelated 64-bit states. *)
let mix64 z =
  let open Int64 in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

let derive seed ~index =
  if index < 0 then invalid_arg "Rng.derive: negative index";
  let z =
    mix64
      (Int64.add
         (Int64.mul (Int64.of_int seed) 0x9E3779B97F4A7C15L)
         (Int64.of_int (index + 1)))
  in
  Int64.to_int z land Stdlib.max_int

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  (* Random.State.int caps its bound at 2^30; wide draws (e.g. power
     sums below a 32-bit field modulus) need full_int *)
  if bound < 1 lsl 30 then Random.State.int t bound
  else Random.State.full_int t bound

let float t = Random.State.float t 1.0
let bool t ~p = Random.State.float t 1.0 < p
