(* The proxy's AIMD pacing window over its downstream segment. Losses
   only shrink the window once per congestion event: a loss of a packet
   forwarded before the previous reduction is part of the same event
   (the same de-duplication a transport's recovery period performs). *)
type t = {
  wire : int;  (* bytes per data packet *)
  mutable win : int;
  mutable ssthresh : int;
  mutable forwarded : int;  (* forward index counter *)
  mutable recovery_mark : int;
}

let create ~wire =
  if wire <= 0 then invalid_arg "Proxy_window.create: wire size must be positive";
  { wire; win = 10 * wire; ssthresh = max_int; forwarded = 0; recovery_mark = 0 }

let next_index t =
  let i = t.forwarded in
  t.forwarded <- i + 1;
  i

let on_quack t ~acked_pkts ~lost_indices =
  let new_event = List.exists (fun i -> i >= t.recovery_mark) lost_indices in
  if new_event then begin
    t.recovery_mark <- t.forwarded;
    t.ssthresh <- max (2 * t.wire) (t.win / 2);
    t.win <- t.ssthresh
  end;
  if acked_pkts > 0 then
    if t.win < t.ssthresh then t.win <- t.win + (acked_pkts * t.wire)
    else t.win <- t.win + max 1 (acked_pkts * t.wire * t.wire / t.win)

let window t = t.win
