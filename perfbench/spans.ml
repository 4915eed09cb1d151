(* A measure-only span recorder.

   Every span is a layer id entered and exited around one call into that
   layer. Self time is accumulated online with an explicit stack: on exit,
   a span's duration minus the time its children covered goes to its
   layer, and the whole duration is charged to the parent's child time.
   All state lives in arrays allocated by [create]; [enter]/[leave]
   allocate nothing (the clock is a [noalloc] external returning an
   unboxed int64), and nothing is wrapped in [Fun.protect]: an exception
   escaping a span aborts the run, which is then not measured at all.

   The first [capacity] spans are also kept verbatim (layer, start, end,
   parent index, flow) for {!write_tsv}, which dumps them at exit. *)

(* CLOCK_MONOTONIC through bechamel.monotonic_clock's C stub, declared
   here rather than called through [Monotonic_clock.now] so the int64
   never gets boxed. *)
external clock_ns : unit -> (int64[@unboxed])
  = "clock_linux_get_time_bytecode" "clock_linux_get_time_native"
[@@noalloc]

let now_ns () = Int64.to_int (clock_ns ())

type t = {
  names : string array;
  self_ns : int array;  (* per layer *)
  calls : int array;  (* per layer *)
  st_layer : int array;  (* per stack depth *)
  st_start : int array;
  st_child : int array;
  st_index : int array;  (* buffer index of the open span, or -1 *)
  mutable depth : int;
  mutable overflow : int;  (* spans deeper than the stack: a bug *)
  b_layer : int array;  (* per recorded span *)
  b_start : int array;
  b_stop : int array;
  b_parent : int array;
  b_flow : int array;
  mutable recorded : int;
  mutable seen : int;
}

let max_depth = 64

let create ?(capacity = 65_536) names =
  let n = Array.length names in
  {
    names;
    self_ns = Array.make n 0;
    calls = Array.make n 0;
    st_layer = Array.make max_depth 0;
    st_start = Array.make max_depth 0;
    st_child = Array.make max_depth 0;
    st_index = Array.make max_depth (-1);
    depth = 0;
    overflow = 0;
    b_layer = Array.make capacity 0;
    b_start = Array.make capacity 0;
    b_stop = Array.make capacity 0;
    b_parent = Array.make capacity (-1);
    b_flow = Array.make capacity 0;
    recorded = 0;
    seen = 0;
  }

let enter_at t layer ~flow ~now =
  let d = t.depth in
  if d >= max_depth then t.overflow <- t.overflow + 1
  else begin
    t.st_layer.(d) <- layer;
    t.st_start.(d) <- now;
    t.st_child.(d) <- 0;
    let i = t.recorded in
    if i < Array.length t.b_layer then begin
      t.b_layer.(i) <- layer;
      t.b_start.(i) <- now;
      t.b_stop.(i) <- now;
      t.b_parent.(i) <- (if d = 0 then -1 else t.st_index.(d - 1));
      t.b_flow.(i) <- flow;
      t.st_index.(d) <- i;
      t.recorded <- i + 1
    end
    else t.st_index.(d) <- -1
  end;
  t.seen <- t.seen + 1;
  t.depth <- d + 1

let leave_at t ~now =
  let d = t.depth - 1 in
  t.depth <- d;
  if d < max_depth && d >= 0 then begin
    let layer = t.st_layer.(d) in
    let dur = now - t.st_start.(d) in
    t.self_ns.(layer) <- t.self_ns.(layer) + dur - t.st_child.(d);
    t.calls.(layer) <- t.calls.(layer) + 1;
    if d > 0 then t.st_child.(d - 1) <- t.st_child.(d - 1) + dur;
    let i = t.st_index.(d) in
    if i >= 0 then t.b_stop.(i) <- now
  end

let enter t layer ~flow = enter_at t layer ~flow ~now:(now_ns ())
let leave t = leave_at t ~now:(now_ns ())
let self_s t layer = float_of_int t.self_ns.(layer) *. 1e-9
let calls t layer = t.calls.(layer)
let total_self_s t = float_of_int (Array.fold_left ( + ) 0 t.self_ns) *. 1e-9

(* Balanced: every entered span was exited, and none overflowed. *)
let balanced t = t.depth = 0 && t.overflow = 0

let write_tsv t path =
  let oc = open_out path in
  output_string oc "# index\tlayer\tstart_ns\tend_ns\tparent\tflow\n";
  for i = 0 to t.recorded - 1 do
    Printf.fprintf oc "%d\t%s\t%d\t%d\t%d\t%d\n" i
      t.names.(t.b_layer.(i))
      t.b_start.(i) t.b_stop.(i) t.b_parent.(i) t.b_flow.(i)
  done;
  Printf.fprintf oc "# %d spans seen, %d recorded\n" t.seen t.recorded;
  close_out oc
