module Modular = Sidecar_field.Modular
module Primes = Sidecar_field.Primes

[@@@sidespec
  "psum-in-field: every mutation (insert, remove, merge, set_state) leaves \
   all power sums inside [0, modulus)"]
[@@@sidespec
  "psum-diff-in-field: the sender/receiver difference sketch is itself a \
   valid sketch — every differenced sum lies in [0, modulus)"]

type t = {
  field : (module Modular.S);
  bits : int;
  modulus : int;
  threshold : int;
  sums : int array;
  mutable count : int;
  (* The field operations are fetched once at creation so the per-packet
     hot path does not re-project from the first-class module. *)
  add : int -> int -> int;
  sub : int -> int -> int;
  mul : int -> int -> int;
}

let create ?(bits = 32) ?field ~threshold () =
  if threshold < 0 then invalid_arg "Psum.create: negative threshold";
  let field =
    match field with Some f -> f | None -> Primes.field_for_bits bits
  in
  let module F = (val field) in
  if F.bits <> bits then invalid_arg "Psum.create: field width mismatch";
  {
    field;
    bits;
    modulus = F.modulus;
    threshold;
    sums = Array.make threshold 0;
    count = 0;
    add = F.add;
    sub = F.sub;
    mul = F.mul;
  }

let bits t = t.bits
let threshold t = t.threshold
let modulus t = t.modulus
let count t = t.count
let field t = t.field

(* Specialised hot loop for the default 32-bit field (p = 2^32 - 5):
   the per-packet construction cost is the headline number of §4, so
   the fold-reduction arithmetic is inlined here rather than reached
   through the field's closures. *)
let p32 = 4294967291
let mask32 = 0xFFFFFFFF

let[@inline] reduce32 x =
  (* x < 2^50; two folds of x = hi*2^32 + lo ≡ 5*hi + lo (mod p) *)
  (* sidelint: allow — audited fast path: hi < 2^18 so 5*hi < 2^21 *)
  let x = ((x lsr 32) * 5) + (x land mask32) in
  (* sidelint: allow — second fold, same bound *)
  let x = ((x lsr 32) * 5) + (x land mask32) in
  if x >= p32 then x - p32 else x

let[@inline] mul32 a b =
  (* sidelint: allow — (a lsr 16) < 2^16 and b < 2^32 keep the product < 2^48 *)
  let upper = reduce32 ((a lsr 16) * b) in
  (* sidelint: allow — low half: (a land 0xffff) * b < 2^48, sum < 2^49 *)
  reduce32 ((upper lsl 16) + ((a land 0xffff) * b))

let insert_fast32 sums threshold x =
  let pw = ref 1 in
  for i = 0 to threshold - 1 do
    pw := mul32 !pw x;
    let s = Array.unsafe_get sums i + !pw in
    Array.unsafe_set sums i (if s >= p32 then s - p32 else s)
  done

let remove_fast32 sums threshold x =
  let pw = ref 1 in
  for i = 0 to threshold - 1 do
    pw := mul32 !pw x;
    let s = Array.unsafe_get sums i - !pw in
    Array.unsafe_set sums i (if s < 0 then s + p32 else s)
  done

(* Debug-gated: every mutation must leave the sketch inside the field. *)
let check_in_field t what =
  if Invariant.active () then
    Invariant.check ~name:("psum-in-field: Psum." ^ what) (fun () ->
        Array.for_all (fun s -> s >= 0 && s < t.modulus) t.sums)

let[@inline] residue t id =
  if id >= 0 && id < t.modulus then id
  else begin
    (* sidelint: allow — reducing an untrusted caller int INTO the field *)
    let r = id mod t.modulus in
    if r < 0 then r + t.modulus else r
  end

let insert t id =
  let x = residue t id in
  if t.modulus = p32 then insert_fast32 t.sums t.threshold x
  else begin
    let pw = ref 1 in
    for i = 0 to t.threshold - 1 do
      pw := t.mul !pw x;
      t.sums.(i) <- t.add t.sums.(i) !pw
    done
  end;
  t.count <- t.count + 1;
  check_in_field t "insert"

let remove t id =
  let x = residue t id in
  if t.modulus = p32 then remove_fast32 t.sums t.threshold x
  else begin
    let pw = ref 1 in
    for i = 0 to t.threshold - 1 do
      pw := t.mul !pw x;
      t.sums.(i) <- t.sub t.sums.(i) !pw
    done
  end;
  t.count <- t.count - 1;
  check_in_field t "remove"

let insert_list t ids = List.iter (insert t) ids
let sums t = Array.copy t.sums

let copy t = { t with sums = Array.copy t.sums }

let reset t =
  Array.fill t.sums 0 t.threshold 0;
  t.count <- 0

let set_state t ~sums ~count =
  if Array.length sums <> t.threshold then
    invalid_arg "Psum.set_state: threshold mismatch";
  (* Validate every sum before writing any: a mid-array failure must
     not leave the sketch half-overwritten (the caller catches the
     exception and keeps using [t]). *)
  Array.iter
    (fun s ->
      if s < 0 || s >= t.modulus then
        invalid_arg "Psum.set_state: sum out of field range")
    sums;
  Array.blit sums 0 t.sums 0 t.threshold;
  t.count <- count

let merge a b =
  if a.bits <> b.bits || a.threshold <> b.threshold then
    invalid_arg "Psum.merge: mismatched sketches";
  (* Same width does not mean same field: a 16-bit sketch over 65521
     and one over 65519 have identical [bits] yet incompatible
     arithmetic, and adding their sums would silently corrupt both. *)
  if a.modulus <> b.modulus then invalid_arg "Psum.merge: mismatched moduli";
  let merged = copy a in
  for i = 0 to a.threshold - 1 do
    merged.sums.(i) <- a.add a.sums.(i) b.sums.(i)
  done;
  merged.count <- a.count + b.count;
  check_in_field merged "merge";
  merged

let difference ?received_modulus ~sent ~received_sums () =
  (* The receiver's sums arrive as bare integers, so the range check
     below cannot tell a smaller co-resident field apart from this
     one; callers that know the sender's advertised modulus pass it so
     the mismatch fails loudly instead of decoding garbage roots. *)
  (match received_modulus with
  | Some m when m <> sent.modulus ->
      invalid_arg "Psum.difference: mismatched moduli"
  | Some _ | None -> ());
  if Array.length received_sums > sent.threshold then
    invalid_arg "Psum.difference: receiver advertises a larger threshold";
  let diff = Array.make (Array.length received_sums) 0 in
  for i = 0 to Array.length received_sums - 1 do
    let r = received_sums.(i) in
    if r < 0 || r >= sent.modulus then
      invalid_arg "Psum.difference: received sum out of field range";
    diff.(i) <- sent.sub sent.sums.(i) r
  done;
  if Invariant.active () then
    Invariant.check ~name:"psum-diff-in-field: Psum.difference" (fun () ->
        Array.for_all (fun s -> s >= 0 && s < sent.modulus) diff);
  diff

let pp ppf t =
  Format.fprintf ppf "@[<h>psum{b=%d t=%d count=%d sums=[%a]}@]" t.bits
    t.threshold t.count
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.pp_print_string ppf "; ")
       Format.pp_print_int)
    (Array.to_list t.sums)
