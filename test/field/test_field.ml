module Modular = Sidecar_field.Modular
module Primality = Sidecar_field.Primality
module Primes = Sidecar_field.Primes
module Poly32 = Sidecar_field.Poly.Make (Sidecar_field.Primes.F32)
module Newton32 = Sidecar_field.Newton.Make (Sidecar_field.Primes.F32)
module Roots32 = Sidecar_field.Roots.Make (Sidecar_field.Primes.F32)
module F32 = Primes.F32
module F16 = Primes.F16
module F8 = Primes.F8

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool

(* ------------------------------------------------------------------ *)
(* Primality                                                           *)

let test_small_primes () =
  let primes = [ 2; 3; 5; 7; 11; 13; 17; 19; 23; 29; 31; 37; 41; 43; 47 ] in
  List.iter (fun p -> check bool (string_of_int p) true (Primality.is_prime p)) primes;
  let composites = [ 0; 1; 4; 6; 8; 9; 15; 21; 25; 27; 33; 35; 49; 91 ] in
  List.iter (fun c -> check bool (string_of_int c) false (Primality.is_prime c)) composites

let test_carmichael () =
  (* Carmichael numbers fool Fermat tests but not Miller-Rabin. *)
  List.iter
    (fun c -> check bool (string_of_int c) false (Primality.is_prime c))
    [ 561; 1105; 1729; 2465; 2821; 6601; 8911; 41041; 825265 ]

let test_known_large_primes () =
  check bool "2^31-1 (Mersenne)" true (Primality.is_prime 2147483647);
  check bool "2^32-5" true (Primality.is_prime 4294967291);
  check bool "2^32-1 composite" false (Primality.is_prime 4294967295);
  check bool "2^61-1 (Mersenne)" true (Primality.is_prime 2305843009213693951)

let test_largest_prime_in_bits () =
  check int "b=8" 251 (Primality.largest_prime_in_bits 8);
  check int "b=16" 65521 (Primality.largest_prime_in_bits 16);
  check int "b=24" 16777213 (Primality.largest_prime_in_bits 24);
  check int "b=32" 4294967291 (Primality.largest_prime_in_bits 32);
  (* Brute-force cross-check at a small width. *)
  let brute b =
    let rec down k = if Primality.is_prime k then k else down (k - 1) in
    down ((1 lsl b) - 1)
  in
  for b = 2 to 20 do
    check int (Printf.sprintf "brute b=%d" b) (brute b) (Primality.largest_prime_in_bits b)
  done

let test_largest_prime_bad_args () =
  Alcotest.check_raises "b=1" (Invalid_argument "Primality.largest_prime_in_bits")
    (fun () -> ignore (Primality.largest_prime_in_bits 1));
  Alcotest.check_raises "b=63" (Invalid_argument "Primality.largest_prime_in_bits")
    (fun () -> ignore (Primality.largest_prime_in_bits 63))

(* ------------------------------------------------------------------ *)
(* Modular arithmetic                                                  *)

let test_mulmod_against_small () =
  (* Cross-check split multiplication against direct products in a
     range where direct is exact. *)
  let p = 65521 in
  for a = 0 to 200 do
    for b = 0 to 200 do
      let x = a * 331 mod p and y = b * 577 mod p in
      check int
        (Printf.sprintf "%d*%d" x y)
        (x * y mod p) (Modular.mulmod x y p)
    done
  done

let test_mulmod_large_values () =
  let p = F32.modulus in
  (* (p-1)^2 mod p = 1 *)
  check int "(p-1)^2" 1 (Modular.mulmod (p - 1) (p - 1) p);
  (* (p-1)*(p-2) mod p = 2 *)
  check int "(p-1)(p-2)" 2 (Modular.mulmod (p - 1) (p - 2) p);
  check int "0*(p-1)" 0 (Modular.mulmod 0 (p - 1) p);
  check int "1*(p-1)" (p - 1) (Modular.mulmod 1 (p - 1) p)

let test_powmod () =
  check int "2^10" (1024 mod 1009) (Modular.powmod 2 10 1009);
  (* Fermat: a^(p-1) = 1 mod p *)
  let p = F32.modulus in
  List.iter
    (fun a -> check int (Printf.sprintf "fermat %d" a) 1 (Modular.powmod a (p - 1) p))
    [ 2; 3; 12345; p - 1 ]

let test_field_basics () =
  check int "of_int negative" (F32.modulus - 1) (F32.of_int (-1));
  check int "of_int wrap" 5 (F32.of_int (F32.modulus + 5));
  check int "add wrap" 0 (F32.add (F32.modulus - 1) 1);
  check int "sub wrap" (F32.modulus - 1) (F32.sub 0 1);
  check int "neg zero" 0 (F32.neg 0);
  check int "one" 1 F32.one

let test_field_inverse () =
  List.iter
    (fun a ->
      let a = F32.of_int a in
      check int (Printf.sprintf "inv %d" a) 1 (F32.mul a (F32.inv a)))
    [ 1; 2; 3; 65537; 4294967290; 123456789 ];
  Alcotest.check_raises "inv 0" Division_by_zero (fun () -> ignore (F32.inv 0))

let test_field_pow () =
  check int "x^0" 1 (F32.pow 17 0);
  check int "0^0" 1 (F32.pow 0 0);
  check int "0^5" 0 (F32.pow 0 5);
  check int "x^1" 17 (F32.pow 17 1);
  check int "x^2" 289 (F32.pow 17 2);
  (* compare against repeated multiplication *)
  let rec slow x k = if k = 0 then 1 else F32.mul x (slow x (k - 1)) in
  List.iter
    (fun (x, k) -> check int (Printf.sprintf "%d^%d" x k) (slow (F32.of_int x) k) (F32.pow x k))
    [ (3, 7); (999999999, 13); (2, 40) ]

(* QCheck field axioms *)
let gen_elt = QCheck.map (fun x -> F32.of_int (abs x)) QCheck.int

let qcheck_field_axioms =
  let open QCheck in
  [
    Test.make ~name:"add commutative" ~count:500 (pair gen_elt gen_elt)
      (fun (a, b) -> F32.add a b = F32.add b a);
    Test.make ~name:"mul commutative" ~count:500 (pair gen_elt gen_elt)
      (fun (a, b) -> F32.mul a b = F32.mul b a);
    Test.make ~name:"add associative" ~count:500 (triple gen_elt gen_elt gen_elt)
      (fun (a, b, c) -> F32.add (F32.add a b) c = F32.add a (F32.add b c));
    Test.make ~name:"mul associative" ~count:500 (triple gen_elt gen_elt gen_elt)
      (fun (a, b, c) -> F32.mul (F32.mul a b) c = F32.mul a (F32.mul b c));
    Test.make ~name:"distributivity" ~count:500 (triple gen_elt gen_elt gen_elt)
      (fun (a, b, c) -> F32.mul a (F32.add b c) = F32.add (F32.mul a b) (F32.mul a c));
    Test.make ~name:"additive inverse" ~count:500 gen_elt
      (fun a -> F32.add a (F32.neg a) = 0);
    Test.make ~name:"multiplicative inverse" ~count:500 gen_elt
      (fun a -> a = 0 || F32.mul a (F32.inv a) = 1);
    Test.make ~name:"sub = add neg" ~count:500 (pair gen_elt gen_elt)
      (fun (a, b) -> F32.sub a b = F32.add a (F32.neg b));
    Test.make ~name:"elements in range" ~count:500 (pair gen_elt gen_elt)
      (fun (a, b) ->
        let m = F32.mul a b and s = F32.add a b in
        m >= 0 && m < F32.modulus && s >= 0 && s < F32.modulus);
  ]

(* ------------------------------------------------------------------ *)
(* Polynomials                                                         *)

module P = Poly32

let poly = Alcotest.testable (fun ppf p -> P.pp ppf p) P.equal

let test_poly_normalize () =
  check poly "trailing zeros trimmed" (P.of_coeffs [| 1; 2 |]) (P.of_coeffs [| 1; 2; 0; 0 |]);
  check poly "zero" P.zero (P.of_coeffs [| 0; 0; 0 |]);
  check int "degree zero poly" (-1) (P.degree P.zero);
  check int "degree constant" 0 (P.degree P.one);
  check int "degree x" 1 (P.degree P.x)

let test_poly_eval () =
  (* f(x) = x^2 + 2x + 3 *)
  let f = P.of_coeffs [| 3; 2; 1 |] in
  check int "f(0)" 3 (P.eval f 0);
  check int "f(1)" 6 (P.eval f 1);
  check int "f(10)" 123 (P.eval f 10);
  check int "eval zero poly" 0 (P.eval P.zero 1234)

let test_poly_arith () =
  let f = P.of_coeffs [| 1; 1 |] (* x + 1 *) in
  let g = P.of_coeffs [| 4294967290; 1 |] (* x - 1 *) in
  check poly "(x+1)(x-1) = x^2 - 1" (P.of_coeffs [| 4294967290; 0; 1 |]) (P.mul f g);
  check poly "f+g = 2x" (P.of_coeffs [| 0; 2 |]) (P.add f g);
  check poly "f-f = 0" P.zero (P.sub f f);
  check poly "scale" (P.of_coeffs [| 3; 3 |]) (P.scale 3 f)

let test_poly_divmod () =
  let f = P.of_coeffs [| 4294967290; 0; 1 |] (* x^2 - 1 *) in
  let g = P.of_coeffs [| 1; 1 |] (* x + 1 *) in
  let q, r = P.divmod f g in
  check poly "quotient" (P.of_coeffs [| 4294967290; 1 |]) q;
  check poly "remainder" P.zero r;
  (* non-exact division *)
  let q2, r2 = P.divmod (P.of_coeffs [| 5; 0; 1 |]) g in
  check poly "q2" (P.of_coeffs [| 4294967290; 1 |]) q2;
  check poly "r2 = 6" (P.of_coeffs [| 6 |]) r2;
  Alcotest.check_raises "divide by zero poly" Division_by_zero (fun () ->
      ignore (P.divmod f P.zero))

let test_poly_gcd () =
  let a = P.of_roots [ 1; 2; 3 ] in
  let b = P.of_roots [ 2; 3; 4 ] in
  check poly "gcd roots {2,3}" (P.of_roots [ 2; 3 ]) (P.gcd a b);
  check poly "gcd with zero" (P.monic a) (P.gcd a P.zero);
  check poly "gcd coprime" P.one (P.gcd (P.of_roots [ 1 ]) (P.of_roots [ 2 ]))

let test_poly_deflate () =
  let f = P.of_roots [ 7; 7; 9 ] in
  (match P.deflate f 7 with
  | Some q -> check poly "deflate one 7" (P.of_roots [ 7; 9 ]) q
  | None -> Alcotest.fail "7 should be a root");
  (match P.deflate f 8 with
  | Some _ -> Alcotest.fail "8 is not a root"
  | None -> ());
  check bool "deflate constant" true (P.deflate P.one 5 = None)

let test_poly_derivative () =
  (* d/dx (x^3 + 2x) = 3x^2 + 2 *)
  check poly "derivative" (P.of_coeffs [| 2; 0; 3 |])
    (P.derivative (P.of_coeffs [| 0; 2; 0; 1 |]));
  check poly "derivative of constant" P.zero (P.derivative P.one)

let test_poly_of_roots_eval () =
  let roots = [ 5; 100; 4294967290 ] in
  let f = P.of_roots roots in
  check int "degree" 3 (P.degree f);
  List.iter (fun r -> check int (Printf.sprintf "f(%d)=0" r) 0 (P.eval f r)) roots;
  check bool "f(6) <> 0" true (P.eval f 6 <> 0)

let test_poly_powmod () =
  (* x^4 mod (x^2 - 2) = 4  since x^2 = 2 *)
  let m = P.of_coeffs [| F32.of_int (-2); 0; 1 |] in
  check poly "x^4 mod (x^2-2)" (P.of_coeffs [| 4 |]) (P.powmod P.x 4 ~modulus:m);
  check poly "x^5 mod (x^2-2) = 4x" (P.of_coeffs [| 0; 4 |]) (P.powmod P.x 5 ~modulus:m)

let qcheck_poly =
  let open QCheck in
  let gen_poly =
    map (fun l -> P.of_coeffs (Array.of_list (List.map abs l))) (small_list int)
  in
  [
    Test.make ~name:"mul degree adds" ~count:200 (pair gen_poly gen_poly)
      (fun (a, b) ->
        P.is_zero a || P.is_zero b || P.degree (P.mul a b) = P.degree a + P.degree b);
    Test.make ~name:"divmod reconstructs" ~count:200 (pair gen_poly gen_poly)
      (fun (a, b) ->
        if P.is_zero b then true
        else
          let q, r = P.divmod a b in
          P.equal a (P.add (P.mul q b) r) && P.degree r < P.degree b);
    Test.make ~name:"eval is ring hom" ~count:200 (triple gen_poly gen_poly gen_elt)
      (fun (a, b, x) ->
        P.eval (P.mul a b) x = F32.mul (P.eval a x) (P.eval b x)
        && P.eval (P.add a b) x = F32.add (P.eval a x) (P.eval b x));
  ]

(* ------------------------------------------------------------------ *)
(* Newton's identities                                                 *)

module N = Newton32

let test_newton_single () =
  (* one root r: power sum = r; polynomial = x - r *)
  let f = N.polynomial_of_power_sums [| 42 |] in
  check int "degree" 1 (P.degree f);
  check int "root" 0 (P.eval f 42)

let test_newton_roundtrip () =
  let roots = [ 3; 17; 17; 4096; 4294967200 ] in
  let m = List.length roots in
  let sums = N.power_sums_of_roots roots m in
  let f = N.polynomial_of_power_sums sums in
  check poly "matches of_roots" (P.of_roots roots) f

let test_newton_empty () =
  let f = N.polynomial_of_power_sums [||] in
  check poly "degree 0 monic" P.one f

let qcheck_newton =
  let open QCheck in
  let gen_roots = list_of_size Gen.(1 -- 25) (map (fun x -> F32.of_int (abs x)) int) in
  [
    Test.make ~name:"newton inverts power sums" ~count:100 gen_roots (fun roots ->
        let m = List.length roots in
        let sums = N.power_sums_of_roots roots m in
        P.equal (P.of_roots roots) (N.polynomial_of_power_sums sums));
    (* The decoder's table of 1/k replaces Newton's per-step division:
       the same polynomial either way. *)
    Test.make ~name:"inverse table gives the same polynomial" ~count:100 gen_roots
      (fun roots ->
        let field = (module F32 : Modular.S) in
        let sums = N.power_sums_of_roots roots (List.length roots) in
        Sidecar_field.Newton.monic_of_power_sums field
          ~inverses:(Sidecar_field.Newton.inverses field 25)
          sums
        = Sidecar_field.Newton.monic_of_power_sums field sums);
  ]

let test_newton_inverses () =
  List.iter
    (fun (name, field, n) ->
      let module F = (val field : Modular.S) in
      let inv = Sidecar_field.Newton.inverses field n in
      check int (name ^ " table length") (n + 1) (Array.length inv);
      for k = 1 to n do
        check int (Printf.sprintf "%s: k * (1/k) = 1 at k = %d" name k) 1
          (F.mul (F.of_int k) inv.(k))
      done)
    [
      ("F8", (module F8 : Modular.S), 250);
      ("F16", (module F16 : Modular.S), 300);
      ("F32", (module F32 : Modular.S), 300);
    ]

(* ------------------------------------------------------------------ *)
(* Root finding                                                        *)

module R = Roots32

let sorted_int_list = Alcotest.(list int)

let test_eval_roots_basic () =
  let f = P.of_roots [ 10; 20; 30 ] in
  let found, residual = R.eval_roots f [ 5; 10; 15; 20; 25; 30; 35 ] in
  check sorted_int_list "found" [ 10; 20; 30 ] (List.sort compare found);
  check int "residual constant" 0 (P.degree residual)

let test_eval_roots_multiset () =
  let f = P.of_roots [ 7; 7 ] in
  (* two log entries with id 7; both consumed *)
  let found, residual = R.eval_roots f [ 7; 7; 7 ] in
  check int "exactly two sevens" 2 (List.length found);
  check int "residual" 0 (P.degree residual)

let test_eval_roots_partial () =
  let f = P.of_roots [ 10; 99 ] in
  let found, residual = R.eval_roots f [ 10 ] in
  check sorted_int_list "found only 10" [ 10 ] found;
  check int "one root unresolved" 1 (P.degree residual)

let test_find_all_small () =
  let roots = [ 2; 3; 5; 7; 11 ] in
  let f = P.of_roots roots in
  check sorted_int_list "find_all" roots (R.find_all f)

let test_find_all_multiplicity () =
  let roots = [ 4; 4; 4; 9 ] in
  let f = P.of_roots roots in
  check sorted_int_list "multiplicity" roots (R.find_all f)

let test_find_all_large_roots () =
  let roots = List.sort compare [ 4294967290; 1; 2147483647; 65536 ] in
  let f = P.of_roots roots in
  check sorted_int_list "large values" roots (R.find_all f)

let test_find_all_f16 () =
  let module R16 = Sidecar_field.Roots.Make (F16) in
  let module P16 = Sidecar_field.Poly.Make (F16) in
  let roots = List.sort compare [ 65520; 1; 300; 300; 12345 ] in
  let f = P16.of_roots roots in
  check sorted_int_list "f16 roots" roots (R16.find_all f)

let qcheck_roots =
  let open QCheck in
  let gen_roots = list_of_size Gen.(1 -- 20) (map (fun x -> F32.of_int (abs x)) int) in
  [
    Test.make ~name:"find_all recovers of_roots" ~count:60 gen_roots (fun roots ->
        let sorted = List.sort compare roots in
        R.find_all (P.of_roots roots) = sorted);
    Test.make ~name:"eval_roots recovers when candidates superset" ~count:60
      (pair gen_roots (small_list (map (fun x -> F32.of_int (abs x)) int)))
      (fun (roots, extra) ->
        let f = P.of_roots roots in
        let found, _ = R.eval_roots f (roots @ extra) in
        List.sort compare found = List.sort compare roots);
  ]

(* ------------------------------------------------------------------ *)
(* Modular square roots (Tonelli-Shanks)                               *)

module Sqrt32 = Sidecar_field.Sqrt.Make (F32)
module Sqrt16 = Sidecar_field.Sqrt.Make (F16)

let test_sqrt_known () =
  (* p = 2^32 - 5 = 3 (mod 4): exponentiation branch *)
  List.iter
    (fun x ->
      let sq = F32.mul x x in
      match Sqrt32.sqrt sq with
      | Some r -> check int (Printf.sprintf "sqrt(%d^2)^2" x) sq (F32.mul r r)
      | None -> Alcotest.failf "square %d has no root?" sq)
    [ 1; 2; 17; 65535; 4294967290 ];
  (* p = 65521 = 1 (mod 4): the full Tonelli-Shanks loop *)
  List.iter
    (fun x ->
      let x = F16.of_int x in
      let sq = F16.mul x x in
      match Sqrt16.sqrt sq with
      | Some r -> check int "ts root" sq (F16.mul r r)
      | None -> Alcotest.failf "square %d has no root?" sq)
    [ 3; 1234; 65520; 9999 ]

let test_sqrt_nonresidue () =
  (* exactly (p-1)/2 non-residues exist; count a sample *)
  let roots = ref 0 and nones = ref 0 in
  for a = 1 to 200 do
    match Sqrt16.sqrt (F16.of_int a) with
    | Some r ->
        incr roots;
        check int "consistent" (F16.of_int a) (F16.mul r r)
    | None -> incr nones
  done;
  check bool "roughly half are residues" true (!roots > 60 && !nones > 60)

let test_sqrt_zero () =
  check bool "sqrt 0 = 0" true (Sqrt32.sqrt 0 = Some 0)

let test_legendre_multiplicative () =
  for a = 1 to 50 do
    for b = 1 to 20 do
      let la = Sqrt16.legendre (F16.of_int a)
      and lb = Sqrt16.legendre (F16.of_int b) in
      let lab = Sqrt16.legendre (F16.mul (F16.of_int a) (F16.of_int b)) in
      check int (Printf.sprintf "legendre(%d*%d)" a b) (la * lb) lab
    done
  done

(* ------------------------------------------------------------------ *)
(* Log-table field                                                     *)

let log16 = Sidecar_field.Log_field.make (module F16)
module L16 = (val log16)

let test_log_field_matches_generic () =
  (* exhaustive-ish cross-check against the generic field *)
  for i = 0 to 500 do
    let a = F16.of_int (i * 131) and b = F16.of_int (i * 31 + 7) in
    check int "mul agrees" (F16.mul a b) (L16.mul a b);
    if b <> 0 then check int "div agrees" (F16.div a b) (L16.div a b)
  done;
  check int "pow agrees" (F16.pow 3 12345) (L16.pow 3 12345);
  check int "pow 0 exponent" 1 (L16.pow 7 0);
  check int "pow of zero" 0 (L16.pow 0 5);
  Alcotest.check_raises "inv 0" Division_by_zero (fun () -> ignore (L16.inv 0))

let test_log_field_inverse () =
  for a = 1 to 300 do
    check int "a * a^-1 = 1" 1 (L16.mul a (L16.inv a))
  done

let test_log_field_rejects_large () =
  Alcotest.check_raises "2^32 field too large"
    (Invalid_argument "Log_field: modulus too large for log tables")
    (fun () -> ignore (Sidecar_field.Log_field.make (module F32)))

let qcheck_log_field =
  let open QCheck in
  let gen16 = map (fun x -> F16.of_int (abs x)) int in
  [
    Test.make ~name:"log-table mul = generic mul" ~count:1000 (pair gen16 gen16)
      (fun (a, b) -> L16.mul a b = F16.mul a b);
    Test.make ~name:"log-table pow = generic pow" ~count:200
      (pair gen16 (int_bound 10_000))
      (fun (a, k) -> L16.pow a k = F16.pow a k);
  ]

let () =
  let q = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "sidecar_field"
    [
      ( "primality",
        [
          Alcotest.test_case "small primes" `Quick test_small_primes;
          Alcotest.test_case "carmichael numbers" `Quick test_carmichael;
          Alcotest.test_case "known large primes" `Quick test_known_large_primes;
          Alcotest.test_case "largest prime in b bits" `Quick test_largest_prime_in_bits;
          Alcotest.test_case "bad args" `Quick test_largest_prime_bad_args;
        ] );
      ( "modular",
        [
          Alcotest.test_case "mulmod vs direct" `Quick test_mulmod_against_small;
          Alcotest.test_case "mulmod extremes" `Quick test_mulmod_large_values;
          Alcotest.test_case "powmod" `Quick test_powmod;
          Alcotest.test_case "field basics" `Quick test_field_basics;
          Alcotest.test_case "inverses" `Quick test_field_inverse;
          Alcotest.test_case "pow" `Quick test_field_pow;
        ] );
      ("modular-props", q qcheck_field_axioms);
      ( "poly",
        [
          Alcotest.test_case "normalize" `Quick test_poly_normalize;
          Alcotest.test_case "eval" `Quick test_poly_eval;
          Alcotest.test_case "arith" `Quick test_poly_arith;
          Alcotest.test_case "divmod" `Quick test_poly_divmod;
          Alcotest.test_case "gcd" `Quick test_poly_gcd;
          Alcotest.test_case "deflate" `Quick test_poly_deflate;
          Alcotest.test_case "derivative" `Quick test_poly_derivative;
          Alcotest.test_case "of_roots/eval" `Quick test_poly_of_roots_eval;
          Alcotest.test_case "powmod" `Quick test_poly_powmod;
        ] );
      ("poly-props", q qcheck_poly);
      ( "newton",
        [
          Alcotest.test_case "single root" `Quick test_newton_single;
          Alcotest.test_case "roundtrip" `Quick test_newton_roundtrip;
          Alcotest.test_case "empty" `Quick test_newton_empty;
          Alcotest.test_case "inverse table" `Quick test_newton_inverses;
        ] );
      ("newton-props", q qcheck_newton);
      ( "roots",
        [
          Alcotest.test_case "eval_roots basic" `Quick test_eval_roots_basic;
          Alcotest.test_case "eval_roots multiset" `Quick test_eval_roots_multiset;
          Alcotest.test_case "eval_roots partial" `Quick test_eval_roots_partial;
          Alcotest.test_case "find_all small" `Quick test_find_all_small;
          Alcotest.test_case "find_all multiplicity" `Quick test_find_all_multiplicity;
          Alcotest.test_case "find_all large roots" `Quick test_find_all_large_roots;
          Alcotest.test_case "find_all 16-bit field" `Quick test_find_all_f16;
        ] );
      ("roots-props", q qcheck_roots);
      ( "sqrt",
        [
          Alcotest.test_case "known squares" `Quick test_sqrt_known;
          Alcotest.test_case "non-residues" `Quick test_sqrt_nonresidue;
          Alcotest.test_case "zero" `Quick test_sqrt_zero;
          Alcotest.test_case "legendre multiplicative" `Quick test_legendre_multiplicative;
        ] );
      ( "log-field",
        [
          Alcotest.test_case "matches generic" `Quick test_log_field_matches_generic;
          Alcotest.test_case "inverses" `Quick test_log_field_inverse;
          Alcotest.test_case "rejects large moduli" `Quick test_log_field_rejects_large;
        ] );
      ("log-field-props", q qcheck_log_field);
    ]
