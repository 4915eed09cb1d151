module Sha256 = Sidecar_hash.Sha256

type verdict = Fresh | Replay | Regression

type t = {
  depth : int;
  (* (index, digest) of recently accepted quACKs; empty slots hold
     index -1 which no real emission can carry *)
  ring : (int * string) array;
  mutable pos : int;
  mutable last_index : int;
  mutable replays : int;
  mutable regressions : int;
  mutable accepted : int;
}

let create ?(depth = 32) () =
  if depth < 1 then invalid_arg "Replay_guard.create: depth must be positive";
  {
    depth;
    ring = Array.make depth (-1, "");
    pos = 0;
    last_index = 0;
    replays = 0;
    regressions = 0;
    accepted = 0;
  }

(* The digest covers everything the sender state consumes from a
   quACK: an attacker replaying bytes reproduces it exactly, while a
   genuinely restarted receiver sketch (fresh counts, fresh sums)
   cannot collide with a remembered emission except with SHA-256
   collision probability. *)
let digest (q : Quack.t) =
  Sha256.digest_int_list
    (q.Quack.bits :: q.Quack.count_bits :: q.Quack.count
    :: Array.to_list q.Quack.sums)

let remember t ~index d =
  t.ring.(t.pos) <- (index, d);
  t.pos <- (t.pos + 1) mod t.depth

let seen t ~index d =
  Array.exists (fun (i, h) -> i = index && String.equal h d) t.ring

let classify t ~index q =
  let d = digest q in
  if index > t.last_index then begin
    t.last_index <- index;
    t.accepted <- t.accepted + 1;
    remember t ~index d;
    Fresh
  end
  else if seen t ~index d then begin
    t.replays <- t.replays + 1;
    Replay
  end
  else begin
    (* index at or below the high-water mark with contents we have
       never accepted: the emitter's state genuinely restarted and its
       numbering began again (§3.3) — the caller should resync, as it
       did before this guard existed *)
    t.regressions <- t.regressions + 1;
    t.last_index <- index;
    t.accepted <- t.accepted + 1;
    remember t ~index d;
    Regression
  end

let last_index t = t.last_index
let replays t = t.replays
let regressions t = t.regressions
let accepted t = t.accepted
