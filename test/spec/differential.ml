(* Differential properties: the library's decoder and sender log against
   the pre-optimisation oracles in [Oracle]. Equal means equal outcome
   (missing list in order, unresolved count, or the same error), equal
   reports and equal log state after every quACK. *)

module Modular = Sidecar_field.Modular
module Primes = Sidecar_field.Primes
module Log_field = Sidecar_field.Log_field
module Psum = Sidecar_quack.Psum
module Quack = Sidecar_quack.Quack
module Decoder = Sidecar_quack.Decoder
module Sender_state = Sidecar_quack.Sender_state
module Decoder_ref = Oracle.Decoder_ref
module Sender_state_ref = Oracle.Sender_state_ref

let fields =
  [|
    ("F16", Primes.field_for_bits 16);
    ("Log16", Log_field.make (Primes.field_for_bits 16));
    ("F32", Primes.field_for_bits 32);
  |]

let field_bits i = if i = 2 then 32 else 16

(* Identifiers: mostly distinct draws, sometimes a tiny pool (equal ids
   collide) and sometimes shifted past the modulus (aliases that reduce
   to the same residue). *)
let id_gen ~modulus =
  let open QCheck.Gen in
  frequency
    [
      (5, int_bound (modulus - 1));
      (2, int_range 1 4);
      (1, map (fun x -> x + modulus) (int_range 0 4));
      (1, map (fun x -> x + (3 * modulus)) (int_bound (modulus - 1)));
    ]

(* ------------------------------------------------------------------ *)
(* Decoder.decode                                                       *)

type dcase = {
  fi : int;  (* index into [fields] *)
  strategy : Decoder.strategy;
  threshold : int;
  cands : int list;
  dropped : bool list;
  delta : int;  (* added to the true missing count *)
  perturb : int option;  (* bump this difference sum by one *)
}

let dcase_gen =
  let open QCheck.Gen in
  let* fi = int_bound 2 in
  let modulus = (let module F = (val snd fields.(fi)) in F.modulus) in
  let* strategy = oneofl [ `Plug_in; `Factor ] in
  let* threshold = int_range 1 10 in
  let* n = int_range 0 14 in
  let* cands = list_repeat n (id_gen ~modulus) in
  let* mode = int_bound 5 in
  let* dropped =
    match mode with
    | 0 | 1 -> return (List.map (fun _ -> true) cands) (* m = |candidates| *)
    | 2 -> return (List.map (fun _ -> false) cands) (* m = 0 *)
    | _ -> list_repeat n bool
  in
  let* delta =
    if mode = 1 then return 0
    else
      frequency
        [ (8, return 0); (1, return 1); (1, return (-1)); (1, return (threshold + 1)) ]
  in
  (* A bumped sum leaves the others consistent. In mode 1 every
     candidate is dropped and the bump lands among the first [m] sums:
     the candidates' power sums match all but one of the differences. *)
  let* perturb =
    if mode = 1 && n > 0 then map Option.some (int_bound (min n threshold - 1))
    else frequency [ (4, return None); (1, map Option.some (int_bound (threshold - 1))) ]
  in
  return { fi; strategy; threshold; cands; dropped; delta; perturb }

let print_dcase c =
  Printf.sprintf "%s %s t=%d cands=[%s] dropped=[%s] delta=%d perturb=%s"
    (fst fields.(c.fi))
    (match c.strategy with `Plug_in -> "plug-in" | `Factor -> "factor")
    c.threshold
    (String.concat ";" (List.map string_of_int c.cands))
    (String.concat ";" (List.map string_of_bool c.dropped))
    c.delta
    (match c.perturb with None -> "none" | Some i -> string_of_int i)

let decode_inputs c =
  let field = snd fields.(c.fi) in
  let bits = field_bits c.fi in
  let sent = Psum.create ~bits ~field ~threshold:c.threshold ()
  and recv = Psum.create ~bits ~field ~threshold:c.threshold () in
  List.iter2
    (fun id d ->
      Psum.insert sent id;
      if not d then Psum.insert recv id)
    c.cands c.dropped;
  let diff_sums = Psum.difference ~sent ~received_sums:(Psum.sums recv) () in
  (match c.perturb with
  | Some i ->
      let module F = (val field : Modular.S) in
      diff_sums.(i) <- F.add diff_sums.(i) F.one
  | None -> ());
  let m = List.length (List.filter Fun.id c.dropped) + c.delta in
  (field, diff_sums, m)

let show_result = function
  | Error (`Threshold_exceeded (m, t)) -> Printf.sprintf "threshold %d > %d" m t
  | Ok { Decoder.missing; unresolved } ->
      Printf.sprintf "missing=[%s] unresolved=%d"
        (String.concat ";" (List.map string_of_int missing))
        unresolved

let decode_agrees c =
  let field, diff_sums, num_missing = decode_inputs c in
  let expected =
    Decoder_ref.decode ~strategy:c.strategy ~field ~diff_sums ~num_missing
      ~candidates:c.cands ()
  in
  let got =
    Decoder.decode ~strategy:c.strategy ~field ~diff_sums ~num_missing
      ~candidates:c.cands ()
  in
  let arr = Array.of_list c.cands in
  let via_context =
    Decoder.decode_array ~strategy:c.strategy (Decoder.context field) ~diff_sums
      ~num_missing ~id:Fun.id arr ~len:(Array.length arr) ()
  in
  (* [all_missing] may only claim what the oracle decodes *)
  let all_claim_ok =
    (not
       (Decoder.all_missing (Decoder.context field) ~diff_sums ~num_missing
          ~id:Fun.id arr ~len:(Array.length arr)))
    ||
    match expected with
    | Ok { missing; unresolved = 0 } ->
        List.sort compare missing = List.sort compare c.cands
    | Ok _ | Error _ -> false
  in
  if expected = got && expected = via_context && all_claim_ok then true
  else
    QCheck.Test.fail_reportf "oracle %s@.decode %s@.decode_array %s@.all_missing ok: %b"
      (show_result expected) (show_result got) (show_result via_context)
      all_claim_ok

(* ------------------------------------------------------------------ *)
(* Sender_state.on_quack                                                *)

type op =
  | Send of int * bool  (* id, delivered to the receiver *)
  | Quack  (* the receiver's current cumulative quACK *)
  | Replay  (* an earlier quACK, re-delivered late *)
  | Lose of int  (* declare_lost on the k-th outstanding id *)

type scase = {
  sfi : int;
  cfg : Sender_state.config;
  ops : op list;
}

let scase_gen =
  let open QCheck.Gen in
  let* sfi = int_bound 2 in
  let modulus = (let module F = (val snd fields.(sfi)) in F.modulus) in
  let* threshold = int_range 1 8 in
  let* strikes_to_lose = int_range 1 3 in
  let* strategy = oneofl [ `Plug_in; `Factor ] in
  let* tail_in_flight = bool in
  let* loss = oneofl [ 0; 10; 30; 100 ] in
  let op =
    frequency
      [
        ( 6,
          let* id = id_gen ~modulus in
          let* r = int_bound 99 in
          return (Send (id, r >= loss)) );
        (2, return Quack);
        (1, return Replay);
        (1, map (fun k -> Lose k) (int_bound 5));
      ]
  in
  let* ops = list_size (int_range 0 60) op in
  let cfg =
    {
      Sender_state.default_config with
      bits = field_bits sfi;
      threshold;
      strikes_to_lose;
      strategy;
      tail_in_flight;
      field = Some (snd fields.(sfi));
    }
  in
  return { sfi; cfg; ops }

let print_scase c =
  let op = function
    | Send (id, d) -> Printf.sprintf "send %d%s" id (if d then "" else " (lost)")
    | Quack -> "quack"
    | Replay -> "replay"
    | Lose k -> Printf.sprintf "lose #%d" k
  in
  Printf.sprintf "%s t=%d strikes=%d %s tail=%b: %s" (fst fields.(c.sfi))
    c.cfg.threshold c.cfg.strikes_to_lose
    (match c.cfg.strategy with `Plug_in -> "plug-in" | `Factor -> "factor")
    c.cfg.tail_in_flight
    (String.concat ", " (List.map op c.ops))

(* Both logs see the same sends (meta = send index) and the same
   quACKs; after every step the outcome and the log must agree. An
   unrecoverable quACK resyncs both, as a sidecar would. *)
let on_quack_agrees c =
  let cfg = c.cfg in
  let lib = Sender_state.create cfg and ora = Sender_state_ref.create cfg in
  let recv =
    Psum.create ~bits:cfg.bits ?field:cfg.field ~threshold:cfg.threshold ()
  in
  let history = ref [] in
  let sent = ref 0 in
  let step = ref 0 in
  let fail fmt = QCheck.Test.fail_reportf ("step %d: " ^^ fmt) !step in
  let same_log () =
    Sender_state.outstanding_ids lib = Sender_state_ref.outstanding_ids ora
    && Sender_state.outstanding lib = Sender_state_ref.outstanding ora
    && Sender_state.sent lib = Sender_state_ref.sent ora
  in
  let deliver q =
    let got = Sender_state.on_quack lib q and expected = Sender_state_ref.on_quack ora q in
    if got <> expected then fail "on_quack reports differ"
    else begin
      (match got with
      | Error (`Threshold_exceeded _) ->
          let a = Sender_state.resync_to lib q
          and b = Sender_state_ref.resync_to ora q in
          if a <> b then fail "resync abandoned different entries"
      | Ok _ | Error (`Config_mismatch _) -> ());
      true
    end
  in
  List.for_all
    (fun op ->
      incr step;
      let ok =
        match op with
        | Send (id, delivered) ->
            Sender_state.on_send lib ~id !sent;
            Sender_state_ref.on_send ora ~id !sent;
            incr sent;
            if delivered then Psum.insert recv id;
            true
        | Quack ->
            let q = Quack.of_psum ~count_bits:cfg.count_bits recv in
            history := q :: !history;
            deliver q
        | Replay -> (
            match !history with
            | _ :: old :: _ -> deliver old
            | [ q ] -> deliver q
            | [] -> true)
        | Lose k -> (
            match List.nth_opt (Sender_state.outstanding_ids lib) k with
            | None -> true
            | Some id ->
                Sender_state.declare_lost lib ~id
                = Sender_state_ref.declare_lost ora ~id
                || fail "declare_lost differs")
      in
      ok && (same_log () || fail "logs differ after %s" (print_scase { c with ops = [ op ] })))
    c.ops

let props =
  [
    QCheck.Test.make ~count:1500
      ~name:"Decoder.decode = oracle (both strategies, 16/32-bit and log fields)"
      (QCheck.make ~print:print_dcase dcase_gen)
      decode_agrees;
    QCheck.Test.make ~count:600
      ~name:"Sender_state.on_quack = oracle (reports and log state)"
      (QCheck.make ~print:print_scase scase_gen)
      on_quack_agrees;
  ]
