module Hmac = Sidecar_hash.Hmac
module Sha256 = Sidecar_hash.Sha256

type key = { stream : string; header : string; mac : string }

let key_gen ~seed =
  let base = Sha256.digest_string (Printf.sprintf "wire-image-key-%d" seed) in
  {
    stream = Sha256.digest_string (base ^ "stream");
    header = Sha256.digest_string (base ^ "header");
    mac = Sha256.digest_string (base ^ "mac");
  }

let header_len = 1 + 8 + 4 (* flags | conn id | packet number *)
let tag_len = 16
let min_size = header_len + tag_len

(* Keystream: SHA256(key || nonce || counter) blocks. A toy stream
   cipher — deterministic per (key, packet number), never reused
   because packet numbers are unique per connection. *)
let keystream key ~nonce ~len =
  let out = Bytes.create len in
  let rec fill off ctr =
    if off < len then begin
      let block =
        Sha256.digest_string (Printf.sprintf "%s|%d|%d" key nonce ctr)
      in
      let take = min 32 (len - off) in
      Bytes.blit_string block 0 out off take;
      fill (off + take) (ctr + 1)
    end
  in
  fill 0 0;
  Bytes.to_string out

let xor_into b off src =
  String.iteri
    (fun i c ->
      Bytes.set b (off + i) (Char.chr (Char.code (Bytes.get b (off + i)) lxor Char.code c)))
    src

(* Header protection: mask the 4 PN bytes with bytes sampled from the
   payload ciphertext (or the tag for empty payloads). *)
let pn_mask key ~sample = String.sub (Sha256.digest_string (key ^ sample)) 0 4


(* 16 bytes starting right after the header; every packet has at
   least the tag there *)
let sample_of_bytes b =
  Bytes.sub_string b header_len (min 16 (Bytes.length b - header_len))

let seal_bytes key ~conn_id ~packet_number ~plaintext =
  if packet_number < 0 || packet_number > 0xFFFFFFFF then
    invalid_arg "Wire_image.seal: packet number out of 32-bit range";
  let plen = String.length plaintext in
  let wire = Bytes.create (header_len + plen + tag_len) in
  Bytes.set wire 0 '\x40';
  Bytes.set_int64_be wire 1 conn_id;
  Bytes.set_int32_be wire 9 (Int32.of_int (packet_number land 0xFFFFFFFF));
  (* seal payload *)
  Bytes.blit_string plaintext 0 wire header_len plen;
  xor_into wire header_len (keystream key.stream ~nonce:packet_number ~len:plen);
  (* tag over header (with cleartext PN) and ciphertext *)
  let tag =
    Hmac.mac_truncated ~key:key.mac ~len:tag_len
      (Bytes.sub_string wire 0 (header_len + plen))
  in
  Bytes.blit_string tag 0 wire (header_len + plen) tag_len;
  (* finally, protect the packet number *)
  let sample = sample_of_bytes wire in
  xor_into wire 9 (pn_mask key.header ~sample);
  wire

let seal key ~conn_id ~packet_number ~plaintext =
  (* the freshly sealed buffer has a single owner; no defensive copy *)
  Bytes.unsafe_to_string (seal_bytes key ~conn_id ~packet_number ~plaintext)

let open_in_place key b =
  if Bytes.length b < min_size then Error `Too_short
  else begin
    let sample = sample_of_bytes b in
    (* unprotect the packet number *)
    xor_into b 9 (pn_mask key.header ~sample);
    let pn = Int32.to_int (Bytes.get_int32_be b 9) land 0xFFFFFFFF in
    let body_len = Bytes.length b - header_len - tag_len in
    let tag = Bytes.sub_string b (header_len + body_len) tag_len in
    if
      not
        (Hmac.verify ~key:key.mac ~len:tag_len ~tag
           (Bytes.sub_string b 0 (header_len + body_len)))
    then begin
      (* leave the buffer exactly as it arrived *)
      xor_into b 9 (pn_mask key.header ~sample);
      Error `Bad_tag
    end
    else begin
      xor_into b header_len (keystream key.stream ~nonce:pn ~len:body_len);
      Ok (pn, body_len)
    end
  end

let open_ key wire =
  if String.length wire < min_size then Error `Too_short
  else begin
    let b = Bytes.of_string wire in
    match open_in_place key b with
    | Error e -> Error e
    | Ok (pn, body_len) -> Ok (pn, Bytes.sub_string b header_len body_len)
  end

let extract_id wire ~bits =
  if String.length wire < min_size then
    invalid_arg "Wire_image.extract_id: wire too short";
  (* 32 bits of the protected packet-number field plus the first
     ciphertext byte region — random-looking to anyone without the
     header key *)
  Sidecar_quack.Identifier.of_bytes (Bytes.of_string wire) ~off:9 ~bits

let conn_id_of_wire wire =
  if String.length wire < 9 then invalid_arg "Wire_image.conn_id_of_wire: too short";
  Bytes.get_int64_be (Bytes.of_string wire) 1
