type emit_policy = Manual | Every_packets of int

type t = {
  psum : Psum.t;
  count_bits : int;
  policy : emit_policy;
  mutable since_emit : int;
  mutable last : Quack.t;
  mutable last_current : bool;
      (* [last] is the latest emission and nothing has been folded in
         since: a keepalive re-emission returns it instead of copying
         the sums again (quACKs are never mutated) *)
}

(* Stands in for [last] until the first emission; never returned. *)
let no_quack = { Quack.bits = 0; modulus = 0; count_bits = 0; sums = [||]; count = 0 }

let create ?(bits = 32) ?field ?(count_bits = 16) ?(policy = Manual) ~threshold
    () =
  (match policy with
  | Every_packets k when k <= 0 ->
      invalid_arg "Receiver_state.create: emit interval must be positive"
  | Manual | Every_packets _ -> ());
  {
    psum = Psum.create ~bits ?field ~threshold ();
    count_bits;
    policy;
    since_emit = 0;
    last = no_quack;
    last_current = false;
  }

let emit t =
  if not t.last_current then begin
    t.last <- Quack.of_psum ~count_bits:t.count_bits t.psum;
    t.last_current <- true
  end;
  t.last

let on_receive t id =
  Psum.insert t.psum id;
  t.last_current <- false;
  t.since_emit <- t.since_emit + 1;
  match t.policy with
  | Manual -> None
  | Every_packets k ->
      if t.since_emit >= k then begin
        t.since_emit <- 0;
        Some (emit t)
      end
      else None

let received t = Psum.count t.psum
let threshold t = Psum.threshold t.psum
let bits t = Psum.bits t.psum
