(* Allocation and GC pauses across every domain, read from OCaml 5's
   runtime_events ring of this process. [Gc.quick_stat] in the main
   domain misses the work [Exec.Service] runs on worker domains; the
   ring carries each domain's minor-allocation counter and GC phases. *)

module RE = Runtime_events

type acc = {
  mutable minor_bytes : int;
  mutable minors : int;
  mutable major_slices : int;
  mutable pause_ns : int;
  mutable lost : int;
  minor_begin : int array;  (* per ring (domain) id *)
  slice_begin : int array;
}

type t = { cursor : RE.cursor; callbacks : RE.Callbacks.t; acc : acc }

let ts x = Int64.to_int (RE.Timestamp.to_int64 x)

let create () =
  RE.start ();
  let a =
    {
      minor_bytes = 0;
      minors = 0;
      major_slices = 0;
      pause_ns = 0;
      lost = 0;
      minor_begin = Array.make 256 0;
      slice_begin = Array.make 256 0;
    }
  in
  let callbacks =
    RE.Callbacks.create
      ~runtime_begin:(fun ring time phase ->
        match phase with
        | RE.EV_MINOR -> a.minor_begin.(ring) <- ts time
        | RE.EV_MAJOR_SLICE -> a.slice_begin.(ring) <- ts time
        | _ -> ())
      ~runtime_end:(fun ring time phase ->
        match phase with
        | RE.EV_MINOR ->
            a.minors <- a.minors + 1;
            a.pause_ns <- a.pause_ns + ts time - a.minor_begin.(ring)
        | RE.EV_MAJOR_SLICE ->
            a.major_slices <- a.major_slices + 1;
            a.pause_ns <- a.pause_ns + ts time - a.slice_begin.(ring)
        | _ -> ())
      ~runtime_counter:(fun _ring _time counter v ->
        match counter with
        | RE.EV_C_MINOR_ALLOCATED -> a.minor_bytes <- a.minor_bytes + v
        | _ -> ())
      ~lost_events:(fun _ring n -> a.lost <- a.lost + n)
      ()
  in
  { cursor = RE.create_cursor None; callbacks; acc = a }

let poll t = ignore (RE.read_poll t.cursor t.callbacks None)

type snapshot = {
  minor_bytes : int;
  minors : int;
  major_slices : int;
  pause_s : float;
  lost : int;
}

let snapshot t =
  poll t;
  let a = t.acc in
  {
    minor_bytes = a.minor_bytes;
    minors = a.minors;
    major_slices = a.major_slices;
    pause_s = float_of_int a.pause_ns *. 1e-9;
    lost = a.lost;
  }

let diff (b : snapshot) (a : snapshot) =
  {
    minor_bytes = b.minor_bytes - a.minor_bytes;
    minors = b.minors - a.minors;
    major_slices = b.major_slices - a.major_slices;
    pause_s = b.pause_s -. a.pause_s;
    lost = b.lost - a.lost;
  }
