module Counter = struct
  type t = { mutable v : int }

  let create () = { v = 0 }
  let incr t = t.v <- t.v + 1
  let add t n = t.v <- t.v + n
  let get t = t.v
end

module Gauge = struct
  type t = { mutable v : float }

  let create () = { v = nan }
  let set t x = t.v <- x
  let get t = t.v
end

type cell =
  | C of Counter.t
  | G of Gauge.t
  | S of Stats.Summary.t
  | Isrc of (unit -> int)

type t = {
  mutable entries : (string * cell) list;  (* newest first *)
  names : (string, int) Hashtbl.t;  (* name -> times used, for dedup *)
}

let create () = { entries = []; names = Hashtbl.create 64 }

let unique t name =
  match Hashtbl.find_opt t.names name with
  | None ->
      Hashtbl.replace t.names name 1;
      name
  | Some k ->
      Hashtbl.replace t.names name (k + 1);
      Printf.sprintf "%s#%d" name (k + 1)

let register t name cell = t.entries <- (unique t name, cell) :: t.entries

let counter t name =
  let c = Counter.create () in
  register t name (C c);
  c

let gauge t name =
  let g = Gauge.create () in
  register t name (G g);
  g

let summary t name =
  let s = Stats.Summary.create () in
  register t name (S s);
  s

let attach_counter t name c = register t name (C c)
let attach_summary t name s = register t name (S s)
let int_source t name f = register t name (Isrc f)

let merge ~into src =
  (* Adopt the live cells — attach-style, no copying — in src's
     registration order; [unique] re-deduplicates against the names
     already present in [into]. *)
  List.iter
    (fun (name, cell) -> register into name cell)
    (List.rev src.entries)

type value =
  | Int of int
  | Float of float
  | Summary of Stats.Summary.t
  | Quantiles of Stats.Quantiles.t

let value_of_cell = function
  | C c -> Int (Counter.get c)
  | G g -> Float (Gauge.get g)
  | S s -> Summary s
  | Isrc f -> Int (f ())

let iter t f =
  List.iter (fun (name, cell) -> f name (value_of_cell cell)) (List.rev t.entries)

let find t name =
  match List.assoc_opt name t.entries with
  | None -> None
  | Some cell -> Some (value_of_cell cell)

let cardinal t = List.length t.entries

let to_json t =
  let fields = ref [] in
  iter t (fun name v ->
      let j =
        match v with
        | Int i -> Json.Int i
        | Float f -> Json.Float f
        | Summary s -> Stats.Summary.to_json s
        | Quantiles q -> Stats.Quantiles.to_json q
      in
      fields := (name, j) :: !fields);
  Json.Obj (List.rev !fields)

let pp ppf t =
  iter t (fun name v ->
      match v with
      | Int i -> Format.fprintf ppf "%s %d@." name i
      | Float f -> Format.fprintf ppf "%s %g@." name f
      | Summary s -> Format.fprintf ppf "%s %a@." name Stats.Summary.pp s
      | Quantiles q -> Format.fprintf ppf "%s %a@." name Stats.Quantiles.pp q)
