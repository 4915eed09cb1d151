(* The first-class-module entry points do the work; [Make] wraps them.
   Reaching a field through a packed module costs nothing per call,
   while applying [Make] (and the [Poly.Make] inside it) allocates every
   closure of both modules — too much for a per-quACK decode. *)

let inverses (module F : Modular.S) n =
  if n >= F.modulus then invalid_arg "Newton.inverses: n must be below the modulus";
  let inv = Array.make (max 1 (n + 1)) F.zero in
  if n >= 1 then inv.(1) <- F.one;
  for k = 2 to n do
    (* p = q*k + r with 0 < r < k, so 1/k = -q/r = (p - q) * (1/r) *)
    inv.(k) <- F.mul (F.modulus - (F.modulus / k)) inv.(F.modulus mod k)
  done;
  inv

let elementary (module F : Modular.S) ?inverses (p : int array) =
  let m = Array.length p in
  if m >= F.modulus then
    invalid_arg "Newton: too many power sums for this field";
  let e = Array.make (m + 1) F.zero in
  e.(0) <- F.one;
  for k = 1 to m do
    (* k * e_k = sum_{i=1..k} (-1)^(i-1) * e_(k-i) * p_i *)
    let acc = ref F.zero in
    for i = 1 to k do
      let term = F.mul e.(k - i) p.(i - 1) in
      acc := if (i - 1) land 1 = 0 then F.add !acc term else F.sub !acc term
    done;
    (* 1/k from the table when it reaches k: the same field element
       dividing would give, without an extended Euclid per step. *)
    e.(k) <-
      (match inverses with
      | Some inv when k < Array.length inv -> F.mul !acc inv.(k)
      | Some _ | None -> F.div !acc (F.of_int k))
  done;
  e

let monic_of_power_sums field ?inverses p =
  let module F = (val field : Modular.S) in
  let m = Array.length p in
  let e = elementary field ?inverses p in
  (* f(x) = x^m - e1 x^(m-1) + e2 x^(m-2) - ... + (-1)^m e_m *)
  let coeffs = Array.make (m + 1) F.zero in
  for k = 0 to m do
    let c = if k land 1 = 0 then e.(k) else F.neg e.(k) in
    coeffs.(m - k) <- c
  done;
  coeffs

module Make (F : Modular.S) = struct
  module P = Poly.Make (F)

  let field = (module F : Modular.S)

  let elementary_from_power_sums (p : F.t array) : F.t array = elementary field p

  (* The coefficients are already reduced and the leading one is 1, so
     [of_coeffs] changes nothing; it only types the result. *)
  let polynomial_of_power_sums p = P.of_coeffs (monic_of_power_sums field p)

  let power_sums_of_roots roots m =
    let sums = Array.make m F.zero in
    let add_root r =
      let pw = ref F.one in
      for i = 0 to m - 1 do
        pw := F.mul !pw r;
        sums.(i) <- F.add sums.(i) !pw
      done
    in
    List.iter add_root roots;
    sums
end
