module Q = Sidecar_quack

type outcome = Applied | Resynced | Ignored

type 'meta t = {
  states : 'meta Q.Sender_state.t array;
  guards : Q.Replay_guard.t array;
  mutable resyncs : int;
}

let create config ~flows =
  {
    states = Array.init flows (fun _ -> Q.Sender_state.create config);
    guards = Array.init flows (fun _ -> Q.Replay_guard.create ());
    resyncs = 0;
  }

let on_send t i ~id meta = Q.Sender_state.on_send t.states.(i) ~id meta

let resync t i quack =
  t.resyncs <- t.resyncs + 1;
  ignore (Q.Sender_state.resync_to t.states.(i) quack);
  Resynced

let apply t i quack ~fresh =
  match Q.Sender_state.on_quack t.states.(i) quack with
  | Ok rep when not rep.Q.Sender_state.stale ->
      fresh i rep;
      Applied
  | Ok _ | Error (`Config_mismatch _) -> Ignored
  | Error (`Threshold_exceeded _) -> resync t i quack

let receive t i ~index quack ~fresh =
  match Q.Replay_guard.classify t.guards.(i) ~index quack with
  | Q.Replay_guard.Fresh -> apply t i quack ~fresh
  | Q.Replay_guard.Replay ->
      (* resyncing onto a replay's stale sums would make one captured
         packet a reusable rollback token *)
      Ignored
  | Q.Replay_guard.Regression ->
      (* novel contents under a regressed index: the emitter's state
         restarted, and its fresh counts would look stale forever *)
      resync t i quack

let guard t i = t.guards.(i)
let resyncs t = t.resyncs

let replays_dropped t =
  Array.fold_left (fun a g -> a + Q.Replay_guard.replays g) 0 t.guards
