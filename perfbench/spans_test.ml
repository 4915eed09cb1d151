(* Self-time arithmetic of {!Spans} on a synthetic nested trace, and the
   recorder's promise to allocate nothing per span. Exits 1 on failure. *)

let failed = ref false

let expect name got want =
  if got <> want then begin
    Printf.eprintf "spans_test: %s: got %d, want %d\n" name got want;
    failed := true
  end

(* Layers a=0, b=1, c=2, times in ns:

     a [0 ............................................. 100]
        b [10 .. 30]   c [40 ................. 70]   b [80 .. 90]
                          a [45 .. 50]  b [55 .. 65]

   a's self time is 100 - 20 - 30 - 10 plus the nested a's 5; c's is
   30 - 5 - 10; b's is 20 + 10 + 10. *)
let nested () =
  let t = Spans.create ~capacity:4 [| "a"; "b"; "c" |] in
  let enter l now = Spans.enter_at t l ~flow:l ~now in
  let leave now = Spans.leave_at t ~now in
  enter 0 0;
  enter 1 10;
  leave 30;
  enter 2 40;
  enter 0 45;
  leave 50;
  enter 1 55;
  leave 65;
  leave 70;
  enter 1 80;
  leave 90;
  leave 100;
  expect "self a" t.Spans.self_ns.(0) 45;
  expect "self b" t.Spans.self_ns.(1) 40;
  expect "self c" t.Spans.self_ns.(2) 15;
  expect "sum of self = root span" (Array.fold_left ( + ) 0 t.Spans.self_ns) 100;
  expect "calls a" (Spans.calls t 0) 2;
  expect "calls b" (Spans.calls t 1) 3;
  expect "balanced" (Bool.to_int (Spans.balanced t)) 1;
  (* the buffer keeps the first four spans with their parents *)
  expect "recorded" t.Spans.recorded 4;
  expect "seen" t.Spans.seen 6;
  expect "parent of b" t.Spans.b_parent.(1) 0;
  expect "parent of c" t.Spans.b_parent.(2) 0;
  expect "parent of nested a" t.Spans.b_parent.(3) 2;
  expect "end of c" t.Spans.b_stop.(2) 70

(* A leave without an enter, or an enter left open, is unbalanced. *)
let unbalanced () =
  let t = Spans.create [| "a" |] in
  Spans.enter_at t 0 ~flow:0 ~now:0;
  expect "open span" (Bool.to_int (Spans.balanced t)) 0

let no_allocation () =
  let t = Spans.create ~capacity:16 [| "a"; "b" |] in
  let before = Gc.minor_words () in
  for i = 1 to 100_000 do
    Spans.enter t 0 ~flow:i;
    Spans.enter t 1 ~flow:i;
    Spans.leave t;
    Spans.leave t
  done;
  let words = int_of_float (Gc.minor_words () -. before) in
  expect "words allocated by 200k spans" words 0

let () =
  nested ();
  unbalanced ();
  no_allocation ();
  if !failed then exit 1;
  print_endline "spans_test: ok"
