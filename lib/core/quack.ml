type t = {
  bits : int;
  modulus : int;
  count_bits : int;
  sums : int array;
  count : int;
}

let wrap ~count_bits n =
  if count_bits = 0 || count_bits >= 62 then n
  else n land ((1 lsl count_bits) - 1)

let of_psum ?(count_bits = 16) psum =
  if count_bits < 0 || count_bits > 62 then
    invalid_arg "Quack.of_psum: count_bits must be in [0, 62]";
  (* The count is wrapped to its wire width here, at the sketch->quACK
     seam, so the in-memory quACK and its wire round-trip agree even
     when the underlying count exceeds [2^count_bits] — e.g. a
     [Psum.merge] of two path sketches whose counts individually fit
     but whose sum crosses the wrap boundary. *)
  {
    bits = Psum.bits psum;
    modulus = Psum.modulus psum;
    count_bits;
    sums = Psum.sums psum;
    count = wrap ~count_bits (Psum.count psum);
  }

let threshold q = Array.length q.sums
let size_bits q = (threshold q * q.bits) + q.count_bits
let size_bytes q = (size_bits q + 7) / 8

let wrap_count q n = wrap ~count_bits:q.count_bits n

let missing_count_as ~count_bits q ~sender_count =
  if count_bits = 0 then invalid_arg "Quack.missing_count: count omitted"
  else if count_bits >= 62 then sender_count - q.count
  else (sender_count - q.count) land ((1 lsl count_bits) - 1)

let missing_count q ~sender_count =
  missing_count_as ~count_bits:q.count_bits q ~sender_count

let pp ppf q =
  Format.fprintf ppf "quack{b=%d t=%d c=%d count=%d}" q.bits (threshold q)
    q.count_bits q.count
