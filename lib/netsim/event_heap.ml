(* Structure of arrays: slot [i] of the heap is
   [(times.(i), seqs.(i), values.(i))]. Times and sequence numbers are
   unboxed ints, so a push allocates nothing once the arrays have
   grown, and [min_time]/[pop_min] read the root without building an
   option or a tuple. *)
type 'a t = {
  mutable times : Sim_time.t array;
  mutable seqs : int array;
  mutable values : 'a array;
  mutable len : int;
  mutable next_seq : int;
  filler : 'a;
      (* fills unused slots, so the heap keeps no popped value
         reachable *)
}

let initial_capacity = 16

let create ~filler () =
  { times = [||]; seqs = [||]; values = [||]; len = 0; next_seq = 0; filler }

let size t = t.len
let is_empty t = t.len = 0

let grow t =
  let cap = Array.length t.times in
  let ncap = if cap = 0 then initial_capacity else 2 * cap in
  let times = Array.make ncap 0 and seqs = Array.make ncap 0 in
  let values = Array.make ncap t.filler in
  Array.blit t.times 0 times 0 t.len;
  Array.blit t.seqs 0 seqs 0 t.len;
  Array.blit t.values 0 values 0 t.len;
  t.times <- times;
  t.seqs <- seqs;
  t.values <- values

(* A 4-ary heap: the children of slot [i] are [4i+1 .. 4i+4], so a pop
   walks half the levels of a binary heap and reads each level's keys
   from one cache line. The order is the strict total order
   (time, seq): any heap shape pops the same sequence. Both sifts move
   a hole and write the moving entry once, at its final slot. *)

let push t ~time value =
  if t.len = Array.length t.times then grow t;
  let times = t.times and seqs = t.seqs and values = t.values in
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  let i = ref t.len in
  t.len <- t.len + 1;
  let continue = ref true in
  while !continue && !i > 0 do
    let p = (!i - 1) / 4 in
    let tp = Array.unsafe_get times p in
    if tp < time || (tp = time && Array.unsafe_get seqs p < seq) then
      continue := false
    else begin
      Array.unsafe_set times !i tp;
      Array.unsafe_set seqs !i (Array.unsafe_get seqs p);
      Array.unsafe_set values !i (Array.unsafe_get values p);
      i := p
    end
  done;
  Array.unsafe_set times !i time;
  Array.unsafe_set seqs !i seq;
  Array.unsafe_set values !i value

let min_time t =
  if t.len = 0 then invalid_arg "Event_heap.min_time: empty heap";
  Array.unsafe_get t.times 0

let pop_min t =
  if t.len = 0 then invalid_arg "Event_heap.pop_min: empty heap";
  let times = t.times and seqs = t.seqs and values = t.values in
  let root = Array.unsafe_get values 0 in
  let n = t.len - 1 in
  t.len <- n;
  if n > 0 then begin
    (* sift the hole down from the root, then drop the old last slot
       into it *)
    let time = Array.unsafe_get times n and seq = Array.unsafe_get seqs n in
    let value = Array.unsafe_get values n in
    let i = ref 0 in
    let continue = ref true in
    while !continue do
      let c = (4 * !i) + 1 in
      if c >= n then continue := false
      else begin
        (* earliest of the (up to four) children *)
        let b = ref c and bt = ref (Array.unsafe_get times c) in
        let last = if c + 3 < n then c + 3 else n - 1 in
        for k = c + 1 to last do
          let tk = Array.unsafe_get times k in
          if tk < !bt || (tk = !bt && Array.unsafe_get seqs k < Array.unsafe_get seqs !b)
          then begin
            b := k;
            bt := tk
          end
        done;
        let b = !b and bt = !bt in
        if bt < time || (bt = time && Array.unsafe_get seqs b < seq) then begin
          Array.unsafe_set times !i bt;
          Array.unsafe_set seqs !i (Array.unsafe_get seqs b);
          Array.unsafe_set values !i (Array.unsafe_get values b);
          i := b
        end
        else continue := false
      end
    done;
    Array.unsafe_set times !i time;
    Array.unsafe_set seqs !i seq;
    Array.unsafe_set values !i value
  end;
  Array.unsafe_set values n t.filler;
  root

let pop t =
  if t.len = 0 then None
  else begin
    let time = Array.unsafe_get t.times 0 in
    Some (time, pop_min t)
  end

let peek_time t = if t.len = 0 then None else Some (Array.unsafe_get t.times 0)

let clear t =
  t.len <- 0;
  t.times <- [||];
  t.seqs <- [||];
  t.values <- [||]
