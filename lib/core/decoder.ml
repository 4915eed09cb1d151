module Modular = Sidecar_field.Modular
module Newton = Sidecar_field.Newton
module Roots = Sidecar_field.Roots

[@@@sidespec
  "decoder-missing-subset: whatever strategy decodes the difference sketch, \
   the reported missing multiset is contained in the candidate multiset"]
[@@@sidespec
  "decoder-missing-bounded: reported missing plus the unresolved residue \
   never exceed the advertised number of missing packets"]

type strategy = [ `Plug_in | `Factor ]
type outcome = { missing : int list; unresolved : int }
type error = [ `Threshold_exceeded of int * int ]

let pp_error ppf (`Threshold_exceeded (m, t)) =
  Format.fprintf ppf "threshold exceeded: %d missing > t = %d" m t

(* Debug-gated sanity of a successful decode: whatever strategy ran,
   the reported missing set is a sub-multiset of the candidates and,
   together with the unresolved residue, never exceeds the advertised
   number of missing packets. *)
let checked ~num_missing ~candidates outcome =
  if Invariant.active () then begin
    Invariant.check ~name:"decoder-missing-subset: missing ⊆ candidates"
      (fun () ->
        Invariant.int_multiset_subset ~sub:outcome.missing ~super:(candidates ()));
    Invariant.check ~name:"decoder-missing-bounded: missing + unresolved ≤ m"
      (fun () ->
        List.length outcome.missing + outcome.unresolved <= num_missing)
  end;
  Ok outcome

type context = { field : (module Modular.S); inverses : int array }

let context ?(max_missing = 64) field =
  let module F = (val field : Modular.S) in
  { field; inverses = Newton.inverses field (max 0 (min max_missing (F.modulus - 1))) }

(* True when the [m = len] candidates' first [m] power sums equal the
   difference sums. Newton's identities (m < p) then make the
   missing-packet polynomial exactly [prod (x - c)] over the candidates:
   every candidate is missing and nothing is left unresolved, whichever
   strategy decodes. The first power sum is a plain sum, so a mismatch
   usually costs [len] additions. *)
let sums_match ctx ~diff_sums ~num_missing:m ~id cands ~len =
  let module F = (val ctx.field : Modular.S) in
  m = len && m > 0 && m <= Array.length diff_sums && m < F.modulus
  && begin
    let s1 = ref F.zero in
    for i = 0 to len - 1 do
      s1 := F.add !s1 (F.of_int (id cands.(i)))
    done;
    F.equal !s1 (F.of_int diff_sums.(0))
    && begin
      let sums = Array.make m F.zero in
      for i = 0 to len - 1 do
        let x = F.of_int (id cands.(i)) in
        let pw = ref F.one in
        for j = 0 to m - 1 do
          pw := F.mul !pw x;
          sums.(j) <- F.add sums.(j) !pw
        done
      done;
      let ok = ref true in
      for j = 1 to m - 1 do
        if not (F.equal sums.(j) (F.of_int diff_sums.(j))) then ok := false
      done;
      !ok
    end
  end

let polynomial ctx ~diff_sums m =
  let module F = (val ctx.field : Modular.S) in
  Newton.monic_of_power_sums ctx.field ~inverses:ctx.inverses
    (Array.init m (fun i -> F.of_int diff_sums.(i)))

(* Plug each candidate into the monic degree-[m] polynomial and deflate
   in place at a root. Horner's value at [c] is the remainder synthetic
   division would leave, so a non-root costs one evaluation and no
   allocation. *)
let plug_in ctx ~diff_sums ~num_missing:m ~id cands ~len =
  let module F = (val ctx.field : Modular.S) in
  let f = polynomial ctx ~diff_sums m in
  let d = ref m in
  let missing = ref [] in
  let i = ref 0 in
  while !d >= 1 && !i < len do
    let c = id cands.(!i) in
    let r = F.of_int c in
    let v = ref f.(!d) in
    for k = !d - 1 downto 0 do
      v := F.add (F.mul !v r) f.(k)
    done;
    if F.equal !v F.zero then begin
      (* f <- f / (x - r): coefficient k becomes quotient coefficient k *)
      let carry = ref f.(!d) in
      for k = !d - 1 downto 0 do
        let fk = f.(k) in
        f.(k) <- !carry;
        carry := F.add (F.mul !carry r) fk
      done;
      decr d;
      missing := c :: !missing
    end;
    incr i
  done;
  { missing = List.rev !missing; unresolved = !d }

let factor ctx ~diff_sums ~num_missing:m ~id cands ~len =
  let module F = (val ctx.field : Modular.S) in
  let module R = Roots.Make (F) in
  let roots = R.find_all (polynomial ctx ~diff_sums m) in
  (* Match roots to candidates by reduced value; one candidate
     occurrence consumes one root occurrence. *)
  let avail : (int, int list ref) Hashtbl.t = Hashtbl.create 64 in
  for i = 0 to len - 1 do
    let c = id cands.(i) in
    let key = F.of_int c in
    match Hashtbl.find_opt avail key with
    | Some l -> l := c :: !l
    | None -> Hashtbl.add avail key (ref [ c ])
  done;
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
  { missing = List.rev missing; unresolved }

let ids_of ~id cands ~len = List.init len (fun i -> id cands.(i))

let all_missing ctx ~diff_sums ~num_missing ~id cands ~len =
  sums_match ctx ~diff_sums ~num_missing ~id cands ~len
  && begin
    if Invariant.active () then begin
      let candidates = ids_of ~id cands ~len in
      ignore
        (checked ~num_missing
           ~candidates:(fun () -> candidates)
           { missing = candidates; unresolved = 0 })
    end;
    true
  end

let decode_array ?(strategy = `Plug_in) ctx ~diff_sums ~num_missing ~id cands ~len () =
  let t = Array.length diff_sums in
  if num_missing < 0 || num_missing > t then
    Error (`Threshold_exceeded (num_missing, t))
  else if num_missing = 0 then Ok { missing = []; unresolved = 0 }
  else begin
    let outcome =
      match strategy with
      | `Plug_in ->
          if sums_match ctx ~diff_sums ~num_missing ~id cands ~len then
            { missing = ids_of ~id cands ~len; unresolved = 0 }
          else plug_in ctx ~diff_sums ~num_missing ~id cands ~len
      | `Factor -> factor ctx ~diff_sums ~num_missing ~id cands ~len
    in
    checked ~num_missing ~candidates:(fun () -> ids_of ~id cands ~len) outcome
  end

let decode ?strategy ~field ~diff_sums ~num_missing ~candidates () =
  let cands = Array.of_list candidates in
  decode_array ?strategy
    (context ~max_missing:(Array.length diff_sums) field)
    ~diff_sums ~num_missing ~id:Fun.id cands ~len:(Array.length cands) ()

let decode_between ?strategy ?count_bits ~sent ~quack ~candidates () =
  let q = match count_bits with
    | None -> quack
    | Some c -> { quack with Quack.count_bits = c }
  in
  let num_missing = Quack.missing_count q ~sender_count:(Psum.count sent) in
  let diff_sums =
    Psum.difference ~received_modulus:q.Quack.modulus ~sent
      ~received_sums:q.Quack.sums ()
  in
  decode ?strategy ~field:(Psum.field sent) ~diff_sums ~num_missing ~candidates ()
