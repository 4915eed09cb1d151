(* The [shard_tracked] workload: the always-on sharded runtime
   ({!Sidecar_runtime.Shard_runtime}) with a table large enough to track
   every concurrent flow, on the flat datapath.

   [traced] recomposes one shard's work in a single domain from the
   fastpath's public pieces — one [Slab] for all partitions, a
   [Flat_table] per partition, [Psum_flat] views — stepping the same
   epochs in the same order, with a span around every table and sketch
   call. Placement never changes a decision, so its checksum must equal
   the runtime's at any shard count. *)

module Sh = Sidecar_runtime.Shard_runtime
module Fp = Sidecar_fastpath
module Q = Sidecar_quack
module Rng = Netsim.Rng
module Workload = Netsim.Workload

let config ~shards ~seed =
  { Sh.default_config with shards; capacity = 131_072; datapath = `Flat; seed }

(* Spawning the shard domains and building their slabs and tables,
   followed by one epoch of one packet. *)
let setup_config cfg = { cfg with Sh.flows = 1; max_epochs = 1 }
let json r = Obs.Json.to_string (Sh.json_report ~deterministic:true r)

(* [Shard_runtime]'s checksum step. *)
let mix cks v = (cks * 1099511628211) lxor v land max_int

type part = {
  tbl : Fp.Flat_table.t;
  mutable cks : int;
  (* active flows, arrival order, swap-remove on completion *)
  mutable ids : int array;
  mutable left : int array;
  mutable sent : int array;
  mutable keys : Q.Identifier.key array;
  mutable n : int;
}

let append p ~id ~units ~key =
  if p.n = Array.length p.ids then begin
    let grow a zero =
      let a' = Array.make (2 * Array.length a) zero in
      Array.blit a 0 a' 0 p.n;
      a'
    in
    p.ids <- grow p.ids 0;
    p.left <- grow p.left 0;
    p.sent <- grow p.sent 0;
    p.keys <- grow p.keys (Q.Identifier.key_of_int 0)
  end;
  p.ids.(p.n) <- id;
  p.left.(p.n) <- units;
  p.sent.(p.n) <- 0;
  p.keys.(p.n) <- key;
  p.n <- p.n + 1

type counts = { mutable inserts : int; mutable emits : int; mutable epochs : int }

let traced sp (cfg : Sh.config) =
  (match (cfg.Sh.datapath, cfg.Sh.field) with
  | `Flat, `Modular -> ()
  | _ -> invalid_arg "Shard.traced: mirrors only the flat modular datapath");
  let c = { inserts = 0; emits = 0; epochs = 0 } in
  let caps = Sh.split_capacity ~capacity:cfg.capacity ~partitions:cfg.partitions in
  let slab =
    Fp.Slab.create ~bits:cfg.bits ~backend:`Auto ~batch:cfg.batch
      ~slots:(max 1 cfg.capacity) ~threshold:cfg.threshold ()
  in
  let views =
    Array.init (Fp.Slab.slots slab) (fun slot -> Fp.Psum_flat.of_slot slab ~slot)
  in
  let scratch = Array.make cfg.threshold 0 in
  let policy =
    match cfg.policy with
    | Sh.Lru -> Fp.Flat_table.Lru
    | Sh.Idle_epochs e -> Fp.Flat_table.Idle e
  in
  let release _flow slot = Fp.Slab.release slab slot in
  let fresh () = Fp.Slab.acquire slab in
  let parts =
    Array.map
      (fun cap ->
        {
          tbl =
            Fp.Flat_table.create ~policy ~on_evict:release ~on_remove:release
              ~capacity:cap ();
          cks = 0;
          ids = Array.make 64 0;
          left = Array.make 64 0;
          sent = Array.make 64 0;
          keys = Array.make 64 (Q.Identifier.key_of_int 0);
          n = 0;
        })
      caps
  in
  let arrival_epochs =
    (cfg.flows + cfg.arrivals_per_epoch - 1) / cfg.arrivals_per_epoch
  in
  let bits = cfg.bits and threshold = cfg.threshold in
  let epoch = ref 0 and active = ref 0 in
  while (!epoch < arrival_epochs || !active > 0) && !epoch < cfg.max_epochs do
    Spans.enter sp Layer.shard ~flow:(-1);
    let now = !epoch + 1 in
    (match cfg.policy with
    | Sh.Lru -> ()
    | Sh.Idle_epochs _ ->
        Array.iter
          (fun p ->
            Spans.enter sp Layer.table ~flow:(-1);
            ignore (Fp.Flat_table.sweep_idle p.tbl ~now);
            Spans.leave sp)
          parts);
    let lo = !epoch * cfg.arrivals_per_epoch in
    for f = max 0 lo to min cfg.flows (lo + cfg.arrivals_per_epoch) - 1 do
      let p = parts.(Sh.route ~partitions:cfg.partitions f) in
      let rng = Rng.create (Rng.derive cfg.seed ~index:f) in
      let u = Workload.sample_size rng cfg.size_dist in
      let units = max cfg.min_units (min cfg.max_units u) in
      let key =
        Q.Identifier.key_of_int (Rng.derive cfg.seed ~index:(cfg.flows + f))
      in
      append p ~id:f ~units ~key
    done;
    active := 0;
    Array.iter
      (fun p ->
        let j = ref 0 in
        while !j < p.n do
          let flow = p.ids.(!j) and sent = p.sent.(!j) in
          let emit = (sent + 1) mod cfg.quack_every = 0 in
          Spans.enter sp Layer.table ~flow;
          let slot = Fp.Flat_table.admit_slot p.tbl ~now flow fresh in
          Spans.leave sp;
          if slot >= 0 then begin
            let view = views.(slot) in
            Spans.enter sp Layer.sketch ~flow;
            Fp.Psum_flat.insert view (Q.Identifier.of_counter p.keys.(!j) ~bits sent);
            c.inserts <- c.inserts + 1;
            if emit then begin
              Fp.Psum_flat.sums_into view scratch;
              c.emits <- c.emits + 1;
              let k = ref p.cks in
              for i = 0 to threshold - 1 do
                k := mix !k scratch.(i)
              done;
              p.cks <- mix !k (Fp.Psum_flat.count view)
            end;
            Spans.leave sp
          end;
          p.sent.(!j) <- sent + 1;
          let left = p.left.(!j) - 1 in
          p.left.(!j) <- left;
          if left = 0 then begin
            Spans.enter sp Layer.table ~flow;
            ignore (Fp.Flat_table.remove p.tbl flow);
            Spans.leave sp;
            let last = p.n - 1 in
            p.ids.(!j) <- p.ids.(last);
            p.left.(!j) <- p.left.(last);
            p.sent.(!j) <- p.sent.(last);
            p.keys.(!j) <- p.keys.(last);
            p.n <- last
          end
          else incr j
        done;
        active := !active + p.n)
      parts;
    incr epoch;
    Spans.leave sp
  done;
  c.epochs <- !epoch;
  let checksum = Array.fold_left (fun a p -> mix a p.cks) 0 parts in
  (checksum, c)
