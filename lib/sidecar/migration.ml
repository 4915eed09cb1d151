module Packet = Netsim.Packet
module Quack = Sidecar_quack.Quack
module Psum = Sidecar_quack.Psum
module Primes = Sidecar_field.Primes

type config = {
  addr : string;
  bits : int;
  threshold : int;
  count_bits : int;
  quack_every : int;
  field : (module Sidecar_field.Modular.S) option;
}

type snapshot = {
  bits : int;
  threshold : int;
  modulus : int;
  sums : int array;
  count : int;
  index : int;
}

let snapshot_wire_bytes s =
  (* sums packed like a quACK, plus full-width count + emission index
     + flow tag, plus the same UDP/IP encapsulation a quACK pays. *)
  ((Array.length s.sums * s.bits) + 7) / 8 + 24 + Sframes.encapsulation

type flow_state = { psum : Psum.t; mutable index : int; mutable since : int }

type handle = {
  cfg : config;
  modulus : int;
  live : (int, flow_state) Hashtbl.t;
  pending : (int, snapshot) Hashtbl.t;
  mutable install_merges : int;
}

let install_merges h = h.install_merges

let snapshot h ~flow =
  match Hashtbl.find_opt h.live flow with
  | None -> None
  | Some st ->
      Some
        {
          bits = h.cfg.bits;
          threshold = h.cfg.threshold;
          modulus = h.modulus;
          sums = Psum.sums st.psum;
          count = Psum.count st.psum;
          index = st.index;
        }

let mk_psum h =
  Psum.create ~bits:h.cfg.bits ?field:h.cfg.field ~threshold:h.cfg.threshold ()

let install h ~flow s =
  if s.bits <> h.cfg.bits || s.threshold <> h.cfg.threshold then
    invalid_arg "Migration.install: incompatible snapshot";
  if s.modulus <> h.modulus then
    invalid_arg "Migration.install: mismatched moduli";
  match Hashtbl.find_opt h.live flow with
  | None ->
      (* Normal takeover: the control message beat the first migrated
         data packet, so the snapshot seeds admission ([init] below). *)
      Hashtbl.replace h.pending flow s
  | Some st ->
      (* The takeover raced with data: this sidecar already admitted
         the flow and sketched post-migration arrivals. The snapshot
         covers exactly the pre-migration packets, so the union is a
         straight [Psum.merge]; the emission index advances past both
         histories so the sender never sees a regression from here. *)
      h.install_merges <- h.install_merges + 1;
      let pre = mk_psum h in
      Psum.set_state pre ~sums:s.sums ~count:s.count;
      let merged = Psum.merge pre st.psum in
      Psum.set_state st.psum ~sums:(Psum.sums merged) ~count:(Psum.count merged);
      st.index <- st.index + s.index

let make cfg =
  if cfg.quack_every <= 0 then
    invalid_arg "Migration.make: quack interval must be positive";
  let modulus =
    match cfg.field with
    | Some f ->
        let module F = (val f : Sidecar_field.Modular.S) in
        F.modulus
    | None -> Primes.modulus_for_bits cfg.bits
  in
  let h =
    {
      cfg;
      modulus;
      live = Hashtbl.create 64;
      pending = Hashtbl.create 8;
      install_merges = 0;
    }
  in
  let init (ctx : Protocol.ctx) =
    let st =
      match Hashtbl.find_opt h.pending ctx.flow with
      | Some s ->
          Hashtbl.remove h.pending ctx.flow;
          let psum = mk_psum h in
          Psum.set_state psum ~sums:s.sums ~count:s.count;
          { psum; index = s.index; since = 0 }
      | None -> { psum = mk_psum h; index = 0; since = 0 }
    in
    Hashtbl.replace h.live ctx.flow st;
    let drop () = Hashtbl.remove h.live ctx.flow in
    let on_data p =
      Psum.insert st.psum p.Packet.id;
      st.since <- st.since + 1;
      if st.since >= cfg.quack_every then begin
        st.since <- 0;
        st.index <- st.index + 1;
        Protocol.send_quack ~src:cfg.addr ctx ~dst:Protocol.server_addr
          ~index:st.index ~count_omitted:false
          (Quack.of_psum ~count_bits:cfg.count_bits st.psum)
      end;
      ctx.forward p
    in
    let info () =
      { Protocol.no_info with Protocol.upstream_interval = cfg.quack_every }
    in
    {
      Protocol.on_data;
      on_feedback = (fun ~index:_ _ -> ());
      on_freq = (fun _ -> ());
      on_timer = (fun () -> ());
      on_evict = drop;
      on_release = drop;
      info;
    }
  in
  ({ Protocol.name = "migration"; addr = cfg.addr; timer = None; init }, h)
