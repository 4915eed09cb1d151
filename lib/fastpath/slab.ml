module Modular = Sidecar_field.Modular
module Primes = Sidecar_field.Primes
module Log_field = Sidecar_field.Log_field
module Invariant = Sidecar_quack.Invariant

[@@@sidespec
  "slab-books: live slots plus free-list slots always partition the \
   arena — their counts sum to the slot capacity and no slot is on \
   the free list while marked live"]
[@@@sidespec
  "slab-clean-handoff: a released slot is scrubbed before it can be \
   re-acquired — its power sums, pending batch and count are all zero \
   when acquire hands it out"]
[@@@sidespec
  "slab-owner: a slab bound to a shard's domain is only ever acquired \
   from or released on that domain — shards never share an arena, so \
   the packet path needs no locking"]

type vec = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

type arith =
  | Fast32
  | Fold of { p : int; b : int; c : int; mask : int }
  | Barrett of { p : int; invp : float }
  | Log of { log_ : int array; antilog : int array; p : int }
  | Generic of {
      p : int;
      add : int -> int -> int;
      sub : int -> int -> int;
      mul : int -> int -> int;
    }

type backend = [ `Auto | `Barrett | `Log | `Generic ]

type t = {
  slots : int;
  threshold : int;
  batch : int;
  bits : int;
  modulus : int;
  field : (module Modular.S);
  arith : arith;
  sums : vec;  (* slots * threshold *)
  pending : vec;  (* slots * batch *)
  (* flush scratch (running powers / pending snapshot): plain [int
     array]s, not bigarrays — the flush inner loops index them once
     per multiply and OCaml's native-array access is one load cheaper *)
  scratch : int array;  (* batch *)
  pend_scratch : int array;  (* batch *)
  npending : int array;  (* per slot *)
  counts : int array;  (* per slot *)
  free : int array;  (* stack of free slot ids *)
  mutable nfree : int;
  live : Bytes.t;  (* '\001' = live *)
  mutable owner : int option;  (* Domain.id of the owning shard, if bound *)
}

let p32 = 4294967291

let generic_arith (module F : Modular.S) =
  Generic { p = F.modulus; add = F.add; sub = F.sub; mul = F.mul }

let select_arith backend field =
  let module F = (val field : Modular.S) in
  let p = F.modulus in
  let b = F.bits in
  match backend with
  | `Auto ->
      if p = p32 then Fast32
      else if
        (* p = 2^b - c with small c: 2^b == c (mod p), so an integer
           shift-multiply-add fold replaces division entirely. Gate on
           16 <= b <= 30 (products of pseudo-reduced factors stay
           below 2^62) and c <= 63: a fixed number of unconditional
           folds lands any product or lazy sum below 2^b (see
           Psum_flat's flush arm). *)
        b >= 16 && b <= 30
        && (let c = (1 lsl b) - p in
            c >= 1 && c <= 63)
      then Fold { p; b; c = (1 lsl b) - p; mask = (1 lsl b) - 1 }
      else if p < 1 lsl 26 then Barrett { p; invp = 1. /. float_of_int p }
      else generic_arith field
  | `Barrett ->
      if p >= 1 lsl 26 then
        invalid_arg "Slab.create: Barrett backend needs modulus < 2^26"
      else Barrett { p; invp = 1. /. float_of_int p }
  | `Log ->
      let log_, antilog = Log_field.tables field in
      Log { log_; antilog; p }
  | `Generic -> generic_arith field

let create ?(bits = 32) ?field ?(backend = `Auto) ?(batch = 16) ~slots
    ~threshold () =
  if slots <= 0 then invalid_arg "Slab.create: slots must be positive";
  if threshold < 0 then invalid_arg "Slab.create: negative threshold";
  if batch <= 0 then invalid_arg "Slab.create: batch must be positive";
  (* The flush loops accumulate k + 1 in-field terms before reducing;
     4096 keeps every backend's lazy sum inside its reducer's domain. *)
  if batch > 4096 then invalid_arg "Slab.create: batch must be <= 4096";
  let field =
    match field with Some f -> f | None -> Primes.field_for_bits bits
  in
  let module F = (val field) in
  if F.bits <> bits then invalid_arg "Slab.create: field width mismatch";
  let mk len = Bigarray.Array1.create Bigarray.int Bigarray.c_layout len in
  let sums = mk (max 1 (slots * threshold)) in
  let pending = mk (slots * batch) in
  let scratch = Array.make batch 0 in
  let pend_scratch = Array.make batch 0 in
  Bigarray.Array1.fill sums 0;
  Bigarray.Array1.fill pending 0;
  {
    slots;
    threshold;
    batch;
    bits;
    modulus = F.modulus;
    field;
    arith = select_arith backend field;
    sums;
    pending;
    scratch;
    pend_scratch;
    npending = Array.make slots 0;
    counts = Array.make slots 0;
    (* top of stack = slot 0 so the first acquires hand out 0, 1, ... *)
    free = Array.init slots (fun i -> slots - 1 - i);
    nfree = slots;
    live = Bytes.make slots '\000';
    owner = None;
  }

let bind_owner t = t.owner <- Some (Domain.self () :> int)

let check_owner t what =
  Invariant.check ~name:("slab-owner: " ^ what) (fun () ->
      match t.owner with
      | None -> true
      | Some d -> d = (Domain.self () :> int))

let slots t = t.slots
let threshold t = t.threshold
let batch t = t.batch
let bits t = t.bits
let modulus t = t.modulus
let field t = t.field
let arith t = t.arith
let live t slot = Bytes.get t.live slot = '\001'
let live_count t = t.slots - t.nfree
let free_count t = t.nfree
let sums_vec t = t.sums
let pending_vec t = t.pending
let scratch t = t.scratch
let pend_scratch t = t.pend_scratch
let npending t = t.npending
let counts t = t.counts

let slot_is_clean t slot =
  let clean = ref (t.npending.(slot) = 0 && t.counts.(slot) = 0) in
  for i = slot * t.threshold to ((slot + 1) * t.threshold) - 1 do
    if Bigarray.Array1.get t.sums i <> 0 then clean := false
  done;
  for j = slot * t.batch to ((slot + 1) * t.batch) - 1 do
    if Bigarray.Array1.get t.pending j <> 0 then clean := false
  done;
  !clean

let check_books t what =
  if Invariant.active () then begin
    Invariant.check ~name:("slab-books: " ^ what) (fun () ->
        let seen = Array.make t.slots false in
        let ok = ref (t.nfree >= 0 && t.nfree <= t.slots) in
        for i = 0 to t.nfree - 1 do
          let s = t.free.(i) in
          if s < 0 || s >= t.slots || seen.(s) || live t s then ok := false
          else seen.(s) <- true
        done;
        !ok && t.nfree + live_count t = t.slots);
    Invariant.check ~name:("slab-clean-handoff: " ^ what) (fun () ->
        let ok = ref true in
        for i = 0 to t.nfree - 1 do
          if not (slot_is_clean t t.free.(i)) then ok := false
        done;
        !ok)
  end

let acquire t =
  if Invariant.active () then check_owner t "acquire";
  if t.nfree = 0 then
    invalid_arg "Slab.acquire: no free slot (size the slab to the table)";
  t.nfree <- t.nfree - 1;
  let slot = t.free.(t.nfree) in
  Bytes.set t.live slot '\001';
  check_books t "acquire";
  slot

let scrub t slot =
  Bigarray.Array1.fill
    (Bigarray.Array1.sub t.sums (slot * t.threshold) t.threshold)
    0;
  Bigarray.Array1.fill (Bigarray.Array1.sub t.pending (slot * t.batch) t.batch) 0;
  t.npending.(slot) <- 0;
  t.counts.(slot) <- 0

let release t slot =
  if Invariant.active () then check_owner t "release";
  if slot < 0 || slot >= t.slots then
    invalid_arg "Slab.release: slot out of range";
  if not (live t slot) then invalid_arg "Slab.release: slot is not live";
  scrub t slot;
  Bytes.set t.live slot '\000';
  t.free.(t.nfree) <- slot;
  t.nfree <- t.nfree + 1;
  check_books t "release"
