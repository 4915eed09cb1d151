type category = Link | Quack | Proto | Table

let all_categories = [ Link; Quack; Proto; Table ]
let bit = function Link -> 1 | Quack -> 2 | Proto -> 4 | Table -> 8

let category_to_string = function
  | Link -> "link"
  | Quack -> "quack"
  | Proto -> "proto"
  | Table -> "table"

let category_of_string = function
  | "link" -> Some Link
  | "quack" -> Some Quack
  | "proto" -> Some Proto
  | "table" -> Some Table
  | _ -> None

type drop_reason = Queue_full | Loss_model | Aqm

let drop_reason_to_string = function
  | Queue_full -> "queue_full"
  | Loss_model -> "loss"
  | Aqm -> "aqm"

type event =
  | Enqueue of { link : string; flow : int; size : int }
  | Drop of { link : string; flow : int; reason : drop_reason }
  | Deliver of { link : string; flow : int; size : int }
  | Quack_sent of { dst : string; flow : int; index : int; bytes : int }
  | Quack_decoded of { node : string; flow : int; index : int; missing : int }
  | Freq_update of { dst : string; flow : int; interval : int }
  | Resync of { node : string; flow : int; to_index : int }
  | Retransmit of { node : string; flow : int; seq : int }
  | Admit of { table : string; flow : int }
  | Deny of { table : string; flow : int }
  | Evict of { table : string; flow : int }
  | Release of { table : string; flow : int }
  | Note of { who : string; flow : int; what : string }

let category_of_event = function
  | Enqueue _ | Drop _ | Deliver _ -> Link
  | Quack_sent _ | Quack_decoded _ | Freq_update _ -> Quack
  | Resync _ | Retransmit _ | Note _ -> Proto
  | Admit _ | Deny _ | Evict _ | Release _ -> Table

type t = {
  slots : (int * event) option array;
  mutable next : int;
  mutable total : int;
  mutable mask : int;
}

let create ?(capacity = 4096) () =
  if capacity < 1 then invalid_arg "Trace.create: capacity must be positive";
  { slots = Array.make capacity None; next = 0; total = 0; mask = 0 }

let enable t cat = t.mask <- t.mask lor bit cat
let disable t cat = t.mask <- t.mask land lnot (bit cat)
let enable_all t = t.mask <- List.fold_left (fun m c -> m lor bit c) 0 all_categories
let on t cat = t.mask land bit cat <> 0

let record t ~time ev =
  if on t (category_of_event ev) then begin
    t.slots.(t.next) <- Some (time, ev);
    t.next <- (t.next + 1) mod Array.length t.slots;
    t.total <- t.total + 1
  end

let events t =
  (* slot [next] is the oldest once the ring has wrapped *)
  let n = Array.length t.slots in
  let acc = ref [] in
  for i = n - 1 downto 0 do
    match t.slots.((t.next + i) mod n) with
    | Some e -> acc := e :: !acc
    | None -> ()
  done;
  !acc

let total t = t.total
let dropped t = max 0 (t.total - Array.length t.slots)

let append ~into src =
  (* Bypass [into]'s mask: the events were already admitted by [src]'s
     mask when recorded, and a merge must not silently drop them. *)
  List.iter
    (fun (time, ev) ->
      into.slots.(into.next) <- Some (time, ev);
      into.next <- (into.next + 1) mod Array.length into.slots;
      into.total <- into.total + 1)
    (events src)

let clear t =
  Array.fill t.slots 0 (Array.length t.slots) None;
  t.next <- 0;
  t.total <- 0

let pp_event ppf = function
  | Enqueue { link; flow; size } ->
      Format.fprintf ppf "enqueue link=%s flow=%d size=%d" link flow size
  | Drop { link; flow; reason } ->
      Format.fprintf ppf "drop link=%s flow=%d reason=%s" link flow
        (drop_reason_to_string reason)
  | Deliver { link; flow; size } ->
      Format.fprintf ppf "deliver link=%s flow=%d size=%d" link flow size
  | Quack_sent { dst; flow; index; bytes } ->
      Format.fprintf ppf "quack_sent dst=%s flow=%d index=%d bytes=%d" dst flow
        index bytes
  | Quack_decoded { node; flow; index; missing } ->
      Format.fprintf ppf "quack_decoded node=%s flow=%d index=%d missing=%d"
        node flow index missing
  | Freq_update { dst; flow; interval } ->
      Format.fprintf ppf "freq_update dst=%s flow=%d interval=%d" dst flow
        interval
  | Resync { node; flow; to_index } ->
      Format.fprintf ppf "resync node=%s flow=%d to_index=%d" node flow to_index
  | Retransmit { node; flow; seq } ->
      Format.fprintf ppf "retransmit node=%s flow=%d seq=%d" node flow seq
  | Admit { table; flow } -> Format.fprintf ppf "admit table=%s flow=%d" table flow
  | Deny { table; flow } -> Format.fprintf ppf "deny table=%s flow=%d" table flow
  | Evict { table; flow } -> Format.fprintf ppf "evict table=%s flow=%d" table flow
  | Release { table; flow } ->
      Format.fprintf ppf "release table=%s flow=%d" table flow
  | Note { who; flow; what } ->
      Format.fprintf ppf "note who=%s flow=%d %s" who flow what

let dump ppf t =
  List.iter
    (fun (time, ev) -> Format.fprintf ppf "%dns %a@." time pp_event ev)
    (events t);
  if dropped t > 0 then
    Format.fprintf ppf "(%d earlier events dropped)@." (dropped t)

let json_of_event ~time ev =
  let base ty fields = Json.Obj (("t_ns", Json.Int time) :: ("type", Json.String ty) :: fields) in
  match ev with
  | Enqueue { link; flow; size } ->
      base "enqueue"
        [ ("link", Json.String link); ("flow", Json.Int flow); ("size", Json.Int size) ]
  | Drop { link; flow; reason } ->
      base "drop"
        [
          ("link", Json.String link);
          ("flow", Json.Int flow);
          ("reason", Json.String (drop_reason_to_string reason));
        ]
  | Deliver { link; flow; size } ->
      base "deliver"
        [ ("link", Json.String link); ("flow", Json.Int flow); ("size", Json.Int size) ]
  | Quack_sent { dst; flow; index; bytes } ->
      base "quack_sent"
        [
          ("dst", Json.String dst);
          ("flow", Json.Int flow);
          ("index", Json.Int index);
          ("bytes", Json.Int bytes);
        ]
  | Quack_decoded { node; flow; index; missing } ->
      base "quack_decoded"
        [
          ("node", Json.String node);
          ("flow", Json.Int flow);
          ("index", Json.Int index);
          ("missing", Json.Int missing);
        ]
  | Freq_update { dst; flow; interval } ->
      base "freq_update"
        [
          ("dst", Json.String dst);
          ("flow", Json.Int flow);
          ("interval", Json.Int interval);
        ]
  | Resync { node; flow; to_index } ->
      base "resync"
        [
          ("node", Json.String node);
          ("flow", Json.Int flow);
          ("to_index", Json.Int to_index);
        ]
  | Retransmit { node; flow; seq } ->
      base "retransmit"
        [ ("node", Json.String node); ("flow", Json.Int flow); ("seq", Json.Int seq) ]
  | Admit { table; flow } ->
      base "admit" [ ("table", Json.String table); ("flow", Json.Int flow) ]
  | Deny { table; flow } ->
      base "deny" [ ("table", Json.String table); ("flow", Json.Int flow) ]
  | Evict { table; flow } ->
      base "evict" [ ("table", Json.String table); ("flow", Json.Int flow) ]
  | Release { table; flow } ->
      base "release" [ ("table", Json.String table); ("flow", Json.Int flow) ]
  | Note { who; flow; what } ->
      base "note"
        [ ("who", Json.String who); ("flow", Json.Int flow); ("what", Json.String what) ]

let to_json t =
  Json.Obj
    [
      ("total", Json.Int (total t));
      ("dropped", Json.Int (dropped t));
      ( "events",
        Json.List (List.map (fun (time, ev) -> json_of_event ~time ev) (events t)) );
    ]
