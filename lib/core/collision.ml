let probability ~n ~bits =
  if n <= 1 then 0.
  else 1. -. ((1. -. (1. /. Float.of_int (1 lsl bits))) ** Float.of_int (n - 1))

let table3_bits = [ 8; 16; 24; 32 ]

let monte_carlo ?(seed = 42) ~trials ~n ~bits () =
  if trials <= 0 || n < 1 then invalid_arg "Collision.monte_carlo";
  let key = Identifier.key_of_int seed in
  let hits = ref 0 in
  let ctr = ref 0 in
  for _ = 1 to trials do
    let probe = Identifier.of_counter key ~bits !ctr in
    incr ctr;
    let collided = ref false in
    for _ = 2 to n do
      let other = Identifier.of_counter key ~bits !ctr in
      incr ctr;
      if other = probe then collided := true
    done;
    if !collided then incr hits
  done;
  Float.of_int !hits /. Float.of_int trials
