module Engine = Netsim.Engine
module Packet = Netsim.Packet
module Time = Netsim.Sim_time
module Identifier = Sidecar_quack.Identifier

type t = {
  engine : Engine.t;
  flow : int;
  total_units : int;
  send_ack : Packet.t -> unit;
  mutable on_data : Packet.t -> unit;
  max_ack_delay : Time.span;
  max_ranges : int;
  id_key : Identifier.key;
  units : Bytes.t;  (* one byte per unit: 0 = pending, 1 = delivered *)
  mutable ack_every : int;
  mutable received_units : int;
  mutable duplicates : int;
  mutable complete_at : Time.t option;
  mutable ranges : (int * int) list;  (* received seq intervals, desc *)
  mutable largest : int;
  mutable since_ack : int;
  mutable delayed_ack_armed : bool;
  mutable ack_timer_gen : int;
  mutable acks_sent : int;
  mutable next_ack_seq : int;  (* seq space for ACK packets themselves *)
}

let create engine ?(ack_every = 2) ?(max_ack_delay = Time.ms 25) ?(max_ranges = 16)
    ?(id_key = Identifier.key_of_int 0xACC) ?(on_data = fun _ -> ()) ?(flow = 0)
    ~total_units ~send_ack () =
  if ack_every < 1 then invalid_arg "Receiver.create: ack_every must be >= 1";
  if total_units < 1 then invalid_arg "Receiver.create: total_units must be >= 1";
  {
    engine;
    flow;
    total_units;
    send_ack;
    on_data;
    max_ack_delay;
    max_ranges;
    id_key;
    units = Bytes.make total_units '\000';
    ack_every;
    received_units = 0;
    duplicates = 0;
    complete_at = None;
    ranges = [];
    largest = -1;
    since_ack = 0;
    delayed_ack_armed = false;
    ack_timer_gen = 0;
    acks_sent = 0;
    next_ack_seq = 0;
  }

(* Insert seq into the descending, disjoint interval list. *)
let rec insert_seq seq = function
  | [] -> [ (seq, seq) ]
  | (lo, hi) :: rest as all ->
      if seq > hi + 1 then (seq, seq) :: all
      else if seq = hi + 1 then merge_left (lo, seq) rest
      else if seq >= lo then all (* duplicate *)
      else if seq = lo - 1 then merge_right (seq, hi) rest
      else (lo, hi) :: insert_seq seq rest

and merge_left (lo, hi) rest = (lo, hi) :: rest

and merge_right (lo, hi) = function
  | (lo2, hi2) :: rest when hi2 + 1 = lo -> (lo2, hi) :: rest
  | rest -> (lo, hi) :: rest

let emit_ack t =
  t.since_ack <- 0;
  t.delayed_ack_armed <- false;
  t.ack_timer_gen <- t.ack_timer_gen + 1;
  if t.largest >= 0 then begin
    let ranges =
      let rec take n = function
        | [] -> []
        | r :: rest -> if n = 0 then [] else r :: take (n - 1) rest
      in
      take t.max_ranges t.ranges
    in
    let size = Frames.ack_size ~ranges:(List.length ranges) in
    let seq = t.next_ack_seq in
    t.next_ack_seq <- seq + 1;
    let id = Identifier.of_counter t.id_key ~bits:32 seq in
    t.acks_sent <- t.acks_sent + 1;
    t.send_ack
      (Frames.ack_packet ~uid:(-1) ~flow:t.flow ~id ~seq ~size ~largest:t.largest
         ~ranges ~acked_units:t.received_units ~now:(Engine.now t.engine))
  end

let arm_delayed_ack t =
  if not t.delayed_ack_armed then begin
    t.delayed_ack_armed <- true;
    t.ack_timer_gen <- t.ack_timer_gen + 1;
    let gen = t.ack_timer_gen in
    Engine.schedule t.engine ~delay:t.max_ack_delay (fun () ->
        if t.delayed_ack_armed && gen = t.ack_timer_gen then emit_ack t)
  end

let deliver t (p : Packet.t) =
  match p.payload with
  | Frames.Data { offset } ->
      t.on_data p;
      t.ranges <- insert_seq p.seq t.ranges;
      if p.seq > t.largest then t.largest <- p.seq;
      if offset >= 0 && offset < t.total_units then begin
        if Bytes.get t.units offset = '\000' then begin
          Bytes.set t.units offset '\001';
          t.received_units <- t.received_units + 1;
          if t.received_units = t.total_units && t.complete_at = None then
            t.complete_at <- Some (Engine.now t.engine)
        end
        else t.duplicates <- t.duplicates + 1
      end;
      t.since_ack <- t.since_ack + 1;
      if t.since_ack >= t.ack_every then emit_ack t else arm_delayed_ack t
  | _ -> () (* non-data packets are not this connection's concern *)

let set_on_data t f = t.on_data <- f
let set_ack_every t k =
  if k < 1 then invalid_arg "Receiver.set_ack_every: must be >= 1";
  t.ack_every <- k

let received_units t = t.received_units
let duplicates t = t.duplicates
let complete_at t = t.complete_at
let acks_sent t = t.acks_sent
