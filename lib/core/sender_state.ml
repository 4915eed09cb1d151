module Modular = Sidecar_field.Modular

[@@@sidespec
  "sender-log-sound: every identifier a quACK decode reports missing was \
   actually sent — the decoded multiset is contained in the sent-log prefix \
   the quACK covers"]

type config = {
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

type 'meta report = {
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
  mutable dec : Decoder.context option;
      (* built by the first quACK: most logs are created at set-up, for
         flows that may never see one *)
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
    dec = None;
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

(* What the decode of the covered prefix reported missing. *)
type missing =
  [ `None  (** m = 0: every covered entry arrived *)
  | `All  (** every covered entry is missing, found without a decode *)
  | `These of int list  (** the decoded multiset *) ]

(* A decoded missing multiset as [nd] distinct ids with their counts.
   It has at most m distinct ids, so a linear probe beats hashing. *)
type multiset = { ids : int array; cnt : int array; mutable nd : int }

let multiset_find ms id =
  let j = ref 0 in
  while !j < ms.nd && ms.ids.(!j) <> id do
    incr j
  done;
  if !j < ms.nd then !j else -1

let multiset_of_list l =
  let cap = List.length l in
  let ms = { ids = Array.make cap 0; cnt = Array.make cap 0; nd = 0 } in
  List.iter
    (fun id ->
      let j = multiset_find ms id in
      if j >= 0 then ms.cnt.(j) <- ms.cnt.(j) + 1
      else begin
        ms.ids.(ms.nd) <- id;
        ms.cnt.(ms.nd) <- 1;
        ms.nd <- ms.nd + 1
      end)
    l;
  ms

(* One prune's outcome, each list newest-first until the report
   reverses it. *)
type 'meta acc = {
  mutable acked : 'meta list;
  mutable lost : 'meta list;
  mutable suspect : 'meta list;
  mutable indeterminate : 'meta list;
  mutable keep : 'meta entry list;  (* the rebuilt log, newest-first *)
  mutable kept : int;
}

let keep_entry acc e =
  acc.keep <- e :: acc.keep;
  acc.kept <- acc.kept + 1

let ack_entry t acc e =
  if e.pos > t.max_acked_pos then t.max_acked_pos <- e.pos;
  acc.acked <- e.meta :: acc.acked (* drop from log *)

let strike t e =
  e.strikes <- e.strikes + 1;
  e.strikes >= t.cfg.strikes_to_lose

let definitely_missing t acc e =
  if strike t e then begin
    Psum.remove t.psum e.id;
    acc.lost <- e.meta :: acc.lost
  end
  else begin
    acc.suspect <- e.meta :: acc.suspect;
    keep_entry acc e
  end

(* Classify the covered prefix [entries.(0 .. prefix_len-1)] (oldest
   first); entries past it are in flight. Rebuilds the log from what is
   kept and returns the report. *)
let prune t entries ~prefix_len ~in_flight ~receiver_count (missing : missing) =
  let n = Array.length entries in
  (* The paper's core soundness property: everything the decoder
     reports missing was actually sent (and is still outstanding in our
     log prefix). *)
  if Invariant.active () then
    Invariant.check ~name:"sender-log-sound: decoded multiset ⊆ sent log"
      (fun () ->
        let prefix = List.init prefix_len (fun i -> entries.(i).id) in
        let sub =
          match missing with `None -> [] | `All -> prefix | `These l -> l
        in
        Invariant.int_multiset_subset ~sub ~super:prefix);
  let ms = multiset_of_list (match missing with `These l -> l | `None | `All -> []) in
  (* §3.3: a continuous suffix of missing packets is treated as in
     transit, not missing — the newest transmissions simply have not
     reached the receiver yet. Walk back from the end of the covered
     prefix while entries decode as missing, and withdraw them from the
     missing multiset; [boundary] ends what is left to classify. *)
  let boundary =
    match missing with
    | `None -> prefix_len (* nothing decodes as missing *)
    | `All ->
        (* Every entry left in the prefix still has its own occurrence
           in the missing multiset, so only send positions stop the
           walk. *)
        let b = ref prefix_len in
        if t.cfg.tail_in_flight then
          while !b > 0 && entries.(!b - 1).pos > t.max_acked_pos do
            decr b
          done;
        !b
    | `These _ ->
        let b = ref prefix_len in
        let continue_tail = ref t.cfg.tail_in_flight in
        while !continue_tail && !b > 0 do
          let e = entries.(!b - 1) in
          let j = multiset_find ms e.id in
          if e.pos > t.max_acked_pos && j >= 0 && ms.cnt.(j) > 0 then begin
            ms.cnt.(j) <- ms.cnt.(j) - 1;
            decr b
          end
          else continue_tail := false
        done;
        !b
  in
  t.last_receiver_count <- max t.last_receiver_count receiver_count;
  let in_flight = in_flight + prefix_len - boundary in
  if boundary = 0 then
    (* Nothing left to classify: every entry stays, in order, and no
       strike, watermark or sum changes. The log is unchanged. *)
    { empty_report with in_flight }
  else begin
    let acc =
      { acked = []; lost = []; suspect = []; indeterminate = []; keep = []; kept = 0 }
    in
    (* Walk oldest-first; prepending to [keep] leaves it newest-first. *)
    (match missing with
    | `None ->
        for i = 0 to boundary - 1 do
          ack_entry t acc entries.(i)
        done
    | `All ->
        for i = 0 to boundary - 1 do
          definitely_missing t acc entries.(i)
        done
    | `These _ ->
        (* Occurrences within the prefix of each id still missing; an id
           is missing from here on iff its [occ] is positive (its count
           only shrinks below, in the collision branch). *)
        let occ = Array.make (Array.length ms.ids) 0 in
        for i = 0 to boundary - 1 do
          let j = multiset_find ms entries.(i).id in
          if j >= 0 && ms.cnt.(j) > 0 then occ.(j) <- occ.(j) + 1
        done;
        for i = 0 to boundary - 1 do
          let e = entries.(i) in
          let j = multiset_find ms e.id in
          if j < 0 || occ.(j) = 0 then ack_entry t acc e
          else if occ.(j) = ms.cnt.(j) then definitely_missing t acc e
          else if strike t e && ms.cnt.(j) > 0 then begin
            (* collision: k of total entries with this id are missing;
               fate of each is indeterminate. After the grace expires
               remove the k oldest occurrences so the threshold resets
               (§3.3). *)
            ms.cnt.(j) <- ms.cnt.(j) - 1;
            Psum.remove t.psum e.id;
            acc.lost <- e.meta :: acc.lost;
            acc.indeterminate <- e.meta :: acc.indeterminate
          end
          else begin
            acc.indeterminate <- e.meta :: acc.indeterminate;
            keep_entry acc e
          end
        done);
    for i = boundary to n - 1 do
      keep_entry acc entries.(i) (* in flight *)
    done;
    t.log <- acc.keep;
    t.log_len <- acc.kept;
    {
      acked = List.rev acc.acked;
      lost = List.rev acc.lost;
      suspect = List.rev acc.suspect;
      indeterminate = List.rev acc.indeterminate;
      in_flight;
      unresolved = 0;
      stale = false;
    }
  end

(* [a.(i)], [a.(i-1)], ... from a newest-first list: the oldest-first
   view of the log. *)
let rec fill_oldest_first a i = function
  | [] -> ()
  | e :: rest ->
      a.(i) <- e;
      fill_oldest_first a (i - 1) rest

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
    let m = Quack.missing_count_as ~count_bits:t.cfg.count_bits q ~sender_count in
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
      let n = t.log_len in
      (* Oldest-first view of the log, filled from the newest-first
         list's far end. *)
      let entries =
        match t.log with
        | [] -> [||]
        | newest :: _ ->
            let a = Array.make n newest in
            fill_oldest_first a (n - 1) t.log;
            a
      in
      if m > n then
        (* The receiver claims fewer receptions than is consistent with
           our log: wrapped count or a foreign quACK. *)
        Error (`Threshold_exceeded (m, t_eff))
      else begin
        let in_flight = if m > t_eff then m - t_eff else 0 in
        let prefix_len = n - in_flight in
        (* the moduli were compared above *)
        let diff = Psum.difference ~sent:t.psum ~received_sums:q.Quack.sums () in
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
        let dec =
          match t.dec with
          | Some dec -> dec
          | None ->
              let dec = Decoder.context ~max_missing:t.cfg.threshold (Psum.field t.psum) in
              t.dec <- Some dec;
              dec
        in
        let id e = e.id in
        let decoded =
          if m_prefix = 0 then Ok `None
          else if
            (* a keepalive quACK after a silent interval *)
            Decoder.all_missing dec ~diff_sums:diff ~num_missing:m_prefix ~id
              entries ~len:prefix_len
          then Ok `All
          else
            match
              Decoder.decode_array ~strategy:t.cfg.strategy dec ~diff_sums:diff
                ~num_missing:m_prefix ~id entries ~len:prefix_len ()
            with
            | Error e -> Error e
            | Ok { missing; unresolved = 0 } -> Ok (`These missing)
            | Ok { unresolved; _ } -> Ok (`Unresolved unresolved)
        in
        match decoded with
        | Error (`Threshold_exceeded (m, tt)) -> Error (`Threshold_exceeded (m, tt))
        | Ok (`Unresolved unresolved) ->
            (* Conservative: something did not add up (identifier alias
               at/above the modulus, wrapped count, corruption). Prune
               nothing; surface what we saw. *)
            t.last_receiver_count <- max t.last_receiver_count receiver_count;
            Ok { empty_report with unresolved; in_flight }
        | Ok (#missing as missing) ->
            Ok (prune t entries ~prefix_len ~in_flight ~receiver_count missing)
      end
    end
  end
