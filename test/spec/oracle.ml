(* Test oracles: the quACK decoder and sender log exactly as they were
   before the per-quACK decode was optimised (functor instantiation per
   call, a candidate list, deflation at every candidate, hash tables for
   the missing multiset). The differential properties in test_spec.ml
   require the library's [Decoder.decode] and [Sender_state.on_quack]
   to produce the same outcomes, reports and log state as these. *)

module Decoder_ref = struct
  module Modular = Sidecar_field.Modular
  module Newton = Sidecar_field.Newton
  module Roots = Sidecar_field.Roots
  module Invariant = Sidecar_quack.Invariant

  type strategy = Sidecar_quack.Decoder.strategy

  type outcome = Sidecar_quack.Decoder.outcome = {
    missing : int list;
    unresolved : int;
  }

  (* Debug-gated sanity of a successful decode: whatever strategy ran,
     the reported missing set is a sub-multiset of the candidates and,
     together with the unresolved residue, never exceeds the advertised
     number of missing packets. *)
  let checked ~num_missing ~candidates outcome =
    if Invariant.active () then begin
      Invariant.check ~name:"decoder-missing-subset: missing ⊆ candidates"
        (fun () ->
          Invariant.int_multiset_subset ~sub:outcome.missing ~super:candidates);
      Invariant.check ~name:"decoder-missing-bounded: missing + unresolved ≤ m"
        (fun () ->
          List.length outcome.missing + outcome.unresolved <= num_missing)
    end;
    Ok outcome

  let decode ?(strategy = `Plug_in) ~field ~diff_sums ~num_missing ~candidates () =
    let module F = (val field : Modular.S) in
    let t = Array.length diff_sums in
    if num_missing < 0 || num_missing > t then
      Error (`Threshold_exceeded (num_missing, t))
    else if num_missing = 0 then Ok { missing = []; unresolved = 0 }
    else begin
      let module N = Newton.Make (F) in
      let module P = N.P in
      let sums = Array.init num_missing (fun i -> F.of_int diff_sums.(i)) in
      let poly = N.polynomial_of_power_sums sums in
      match strategy with
      | `Plug_in ->
          let rec scan f acc = function
            | [] -> (List.rev acc, P.degree f)
            | c :: rest ->
                if P.degree f < 1 then (List.rev acc, 0)
                else begin
                  match P.deflate f (F.of_int c) with
                  | Some q -> scan q (c :: acc) rest
                  | None -> scan f acc rest
                end
          in
          let missing, unresolved = scan poly [] candidates in
          checked ~num_missing ~candidates { missing; unresolved }
      | `Factor ->
          let module R = Roots.Make (F) in
          let roots = R.find_all poly in
          (* Match roots to candidates by reduced value; one candidate
             occurrence consumes one root occurrence. *)
          let avail : (int, int list ref) Hashtbl.t = Hashtbl.create 64 in
          let record c =
            let key = F.of_int c in
            match Hashtbl.find_opt avail key with
            | Some l -> l := c :: !l
            | None -> Hashtbl.add avail key (ref [ c ])
          in
          List.iter record candidates;
          let take r =
            match Hashtbl.find_opt avail r with
            | Some ({ contents = c :: rest } as l) ->
                l := rest;
                Some c
            | Some { contents = [] } | None -> None
          in
          let missing, unresolved =
            List.fold_left
              (fun (acc, unresolved) r ->
                match take r with
                | Some c -> (c :: acc, unresolved)
                | None -> (acc, unresolved + 1))
              ([], 0) roots
          in
          checked ~num_missing ~candidates
            { missing = List.rev missing; unresolved }
    end
end

module Sender_state_ref = struct
  module Modular = Sidecar_field.Modular
  module Psum = Sidecar_quack.Psum
  module Quack = Sidecar_quack.Quack
  module Invariant = Sidecar_quack.Invariant
  module Decoder = Decoder_ref

  type config = Sidecar_quack.Sender_state.config = {
    bits : int;
    threshold : int;
    count_bits : int;
    strikes_to_lose : int;
    strategy : Decoder.strategy;
    tail_in_flight : bool;
    field : (module Modular.S) option;
  }

  let default_config =
    {
      bits = 32;
      threshold = 20;
      count_bits = 16;
      strikes_to_lose = 1;
      strategy = `Plug_in;
      tail_in_flight = true;
      field = None;
    }

  type 'meta report = 'meta Sidecar_quack.Sender_state.report = {
    acked : 'meta list;
    lost : 'meta list;
    suspect : 'meta list;
    indeterminate : 'meta list;
    in_flight : int;
    unresolved : int;
    stale : bool;
  }

  let empty_report =
    { acked = []; lost = []; suspect = []; indeterminate = []; in_flight = 0;
      unresolved = 0; stale = false }

  type error = [ `Threshold_exceeded of int * int | `Config_mismatch of string ]

  let pp_error ppf = function
    | `Threshold_exceeded (m, t) ->
        Format.fprintf ppf "threshold exceeded: %d missing > t = %d (reset required)" m t
    | `Config_mismatch s -> Format.fprintf ppf "config mismatch: %s" s

  type 'meta entry = {
    id : int;
    meta : 'meta;
    pos : int;  (* monotone send position, for in-flight reasoning *)
    mutable strikes : int;
  }

  type 'meta t = {
    cfg : config;
    psum : Psum.t;
    mutable log : 'meta entry list;  (* newest-first; reversed on decode *)
    mutable log_len : int;
    mutable last_receiver_count : int;
    mutable next_pos : int;
    mutable max_acked_pos : int;
        (* newest send position ever confirmed received: packets sent
           before it cannot be "still in transit" once it has arrived
           (up to re-ordering, which the strike grace absorbs) *)
  }

  let create cfg =
    if cfg.strikes_to_lose < 1 then
      invalid_arg "Sender_state.create: strikes_to_lose must be >= 1";
    {
      cfg;
      psum = Psum.create ~bits:cfg.bits ?field:cfg.field ~threshold:cfg.threshold ();
      log = [];
      log_len = 0;
      last_receiver_count = 0;
      next_pos = 0;
      max_acked_pos = -1;
    }

  let config t = t.cfg

  let on_send t ~id meta =
    Psum.insert t.psum id;
    t.log <- { id; meta; pos = t.next_pos; strikes = 0 } :: t.log;
    t.next_pos <- t.next_pos + 1;
    t.log_len <- t.log_len + 1

  let sent t = Psum.count t.psum
  let outstanding t = t.log_len
  let outstanding_ids t = List.rev_map (fun e -> e.id) t.log

  let reset t =
    Psum.reset t.psum;
    t.log <- [];
    t.log_len <- 0;
    t.last_receiver_count <- 0;
    t.next_pos <- 0;
    t.max_acked_pos <- -1

  let resync_to t (q : Quack.t) =
    if q.Quack.bits <> t.cfg.bits || Quack.threshold q <> t.cfg.threshold then
      invalid_arg "Sender_state.resync_to: incompatible quACK";
    (* Same width does not mean same field: a 16-bit quACK over 65519
       would pass the [bits] guard yet its sums are meaningless in a
       65521 sketch — adopting them via [set_state] silently corrupts
       every subsequent difference (the bug class Psum.merge/difference
       already reject). *)
    if q.Quack.modulus <> Psum.modulus t.psum then
      invalid_arg "Sender_state.resync_to: mismatched moduli";
    let abandoned = List.rev_map (fun e -> e.meta) t.log in
    let q = { q with Quack.count_bits = t.cfg.count_bits } in
    let receiver_count =
      let sc = Psum.count t.psum in
      let rc = sc - Quack.missing_count q ~sender_count:sc in
      (* When the quACK's baseline is ahead of ours (fresh state vs. a
         cumulative quACK) the wrapped subtraction goes negative; adopt
         the receiver's own count representative instead — subsequent
         arithmetic is modular, so any congruent value works. *)
      if rc >= 0 then rc else Quack.wrap_count q q.Quack.count
    in
    Psum.set_state t.psum ~sums:q.Quack.sums ~count:receiver_count;
    t.log <- [];
    t.log_len <- 0;
    t.last_receiver_count <- receiver_count;
    (* Positions are log-relative; the log was just abandoned, so the
       position space restarts too (as in [reset]). Leaving
       [max_acked_pos] at a pre-resync position would judge post-takeover
       sends against a watermark from the abandoned log and deny them the
       tail-in-flight grace of §3.3. *)
    t.next_pos <- 0;
    t.max_acked_pos <- -1;
    abandoned

  let remove_entry t entry =
    Psum.remove t.psum entry.id;
    (* sidelint: allow — physical identity is the point: drop exactly this
       entry, not every entry with an equal id/meta *)
    t.log <- List.filter (fun e -> e != entry) t.log;
    t.log_len <- t.log_len - 1

  let declare_lost t ~id =
    (* oldest occurrence = last in the newest-first list *)
    let rec find_last best = function
      | [] -> best
      | e :: rest -> find_last (if e.id = id then Some e else best) rest
    in
    match find_last None t.log with
    | None -> None
    | Some e ->
        remove_entry t e;
        Some e.meta

  (* Subtract the power sums of [ids] from [diff] in place semantics
     (returns a fresh array): used for in-flight suffix truncation. *)
  let subtract_ids ~field diff ids =
    let module F = (val field : Modular.S) in
    let diff = Array.map F.of_int diff in
    let sub_one id =
      let x = F.of_int id in
      let pw = ref F.one in
      for i = 0 to Array.length diff - 1 do
        pw := F.mul !pw x;
        diff.(i) <- F.sub diff.(i) !pw
      done
    in
    List.iter sub_one ids;
    diff

  let on_quack t (q : Quack.t) =
    if q.Quack.bits <> t.cfg.bits then
      Error (`Config_mismatch (Printf.sprintf "quACK bits %d, sender bits %d" q.Quack.bits t.cfg.bits))
    else if Quack.threshold q > t.cfg.threshold then
      Error (`Config_mismatch "receiver threshold exceeds sender threshold")
    else if q.Quack.modulus <> Psum.modulus t.psum then
      Error
        (`Config_mismatch
          (Printf.sprintf "quACK modulus %d, sender modulus %d" q.Quack.modulus
             (Psum.modulus t.psum)))
    else begin
      let sender_count = Psum.count t.psum in
      let q = { q with Quack.count_bits = t.cfg.count_bits } in
      let m = Quack.missing_count q ~sender_count in
      let receiver_count = sender_count - m in
      if receiver_count < 0 then
        (* The receiver's cumulative count exceeds everything we ever
           logged, so the wrapped missing count is meaningless — this is
           a foreign baseline (typically our state is fresh after an
           eviction/re-admission cycle and the quACK is cumulative), not
           a reordered old quACK. §3.3: reset required. *)
        Error (`Threshold_exceeded (m, Quack.threshold q))
      else if receiver_count < t.last_receiver_count then
        Ok { empty_report with stale = true }
      else begin
        let t_eff = Quack.threshold q in
        (* Oldest-first view of the log. *)
        let entries = Array.of_list (List.rev t.log) in
        let n = Array.length entries in
        if m > n then
          (* The receiver claims fewer receptions than is consistent with
             our log: wrapped count or a foreign quACK. *)
          Error (`Threshold_exceeded (m, t_eff))
        else begin
          let in_flight = if m > t_eff then m - t_eff else 0 in
          let prefix_len = n - in_flight in
          let diff =
            Psum.difference ~received_modulus:q.Quack.modulus ~sent:t.psum
              ~received_sums:q.Quack.sums ()
          in
          let diff =
            if in_flight = 0 then diff
            else begin
              let suffix = ref [] in
              for i = n - 1 downto prefix_len do
                suffix := entries.(i).id :: !suffix
              done;
              subtract_ids ~field:(Psum.field t.psum) diff !suffix
            end
          in
          let m_prefix = m - in_flight in
          let candidates = ref [] in
          for i = prefix_len - 1 downto 0 do
            candidates := entries.(i).id :: !candidates
          done;
          match
            Decoder.decode ~strategy:t.cfg.strategy ~field:(Psum.field t.psum)
              ~diff_sums:diff ~num_missing:m_prefix ~candidates:!candidates ()
          with
          | Error (`Threshold_exceeded (m, tt)) -> Error (`Threshold_exceeded (m, tt))
          | Ok { missing; unresolved } when unresolved > 0 ->
              (* Conservative: something did not add up (identifier alias
                 at/above the modulus, wrapped count, corruption). Prune
                 nothing; surface what we saw. *)
              ignore missing;
              t.last_receiver_count <- max t.last_receiver_count receiver_count;
              Ok { empty_report with unresolved; in_flight }
          | Ok { missing; unresolved = _ } ->
              (* The paper's core soundness property: everything the
                 decoder reports missing was actually sent (and is still
                 outstanding in our log prefix). *)
              if Invariant.active () then
                Invariant.check
                  ~name:"sender-log-sound: decoded multiset ⊆ sent log"
                  (fun () ->
                    Invariant.int_multiset_subset ~sub:missing ~super:!candidates);
              (* Multiset of missing identifiers. *)
              let miss_count : (int, int ref) Hashtbl.t = Hashtbl.create 64 in
              List.iter
                (fun id ->
                  match Hashtbl.find_opt miss_count id with
                  | Some r -> incr r
                  | None -> Hashtbl.add miss_count id (ref 1))
                missing;
              (* §3.3: a continuous suffix of missing packets is treated
                 as in transit, not missing — the newest transmissions
                 simply have not reached the receiver yet. Walk back from
                 the end of the covered prefix while entries decode as
                 missing, and withdraw them from the missing multiset. *)
              let tail_in_flight = ref 0 in
              let boundary = ref prefix_len in
              let continue_tail = ref t.cfg.tail_in_flight in
              while !continue_tail && !boundary > 0 do
                let e = entries.(!boundary - 1) in
                if e.pos <= t.max_acked_pos then continue_tail := false
                else
                match Hashtbl.find_opt miss_count e.id with
                | Some r when !r > 0 ->
                    decr r;
                    if !r = 0 then Hashtbl.remove miss_count e.id;
                    incr tail_in_flight;
                    decr boundary
                | Some _ | None -> continue_tail := false
              done;
              let prefix_len = !boundary in
              (* Occurrences of each missing id within the prefix. *)
              let occ : (int, int ref) Hashtbl.t = Hashtbl.create 64 in
              for i = 0 to prefix_len - 1 do
                let id = entries.(i).id in
                if Hashtbl.mem miss_count id then
                  match Hashtbl.find_opt occ id with
                  | Some r -> incr r
                  | None -> Hashtbl.add occ id (ref 1)
              done;
              let acked = ref [] and lost = ref [] and suspect = ref [] in
              let indeterminate = ref [] in
              let keep = ref [] (* newest-first rebuild *) in
              let keep_entry e = keep := e :: !keep in
              (* Walk oldest-first; prepend to keep gives newest-first at
                 the end by reversing. *)
              let classify i e =
                if i >= prefix_len then keep_entry e (* in flight *)
                else begin
                  match Hashtbl.find_opt miss_count e.id with
                  | None ->
                      if e.pos > t.max_acked_pos then t.max_acked_pos <- e.pos;
                      acked := e.meta :: !acked (* drop from log *)
                  | Some k ->
                      let total = !(Hashtbl.find occ e.id) in
                      if total = !k then begin
                        (* definite missing *)
                        e.strikes <- e.strikes + 1;
                        if e.strikes >= t.cfg.strikes_to_lose then begin
                          Psum.remove t.psum e.id;
                          lost := e.meta :: !lost
                        end
                        else begin
                          suspect := e.meta :: !suspect;
                          keep_entry e
                        end
                      end
                      else begin
                        (* collision: k of total entries with this id are
                           missing; fate of each is indeterminate. After
                           the grace expires remove k oldest occurrences
                           so the threshold resets (§3.3). *)
                        e.strikes <- e.strikes + 1;
                        if e.strikes >= t.cfg.strikes_to_lose && !k > 0 then begin
                          decr k;
                          Psum.remove t.psum e.id;
                          lost := e.meta :: !lost;
                          indeterminate := e.meta :: !indeterminate
                        end
                        else begin
                          indeterminate := e.meta :: !indeterminate;
                          keep_entry e
                        end
                      end
                end
              in
              Array.iteri classify entries;
              t.log <- !keep;
              t.log_len <- List.length !keep;
              t.last_receiver_count <- max t.last_receiver_count receiver_count;
              Ok
                {
                  acked = List.rev !acked;
                  lost = List.rev !lost;
                  suspect = List.rev !suspect;
                  indeterminate = List.rev !indeterminate;
                  in_flight = in_flight + !tail_in_flight;
                  unresolved = 0;
                  stale = false;
                }
        end
      end
    end
end
