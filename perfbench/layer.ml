(* The layers a traced run splits its time into. Each id is one slot of
   the {!Spans} recorder; the name is the prefix of the layer's metrics. *)

let engine = 0
let link = 1
let sender = 2
let receiver = 3
let proxy = 4
let protocol = 5
let sender_state = 6
let receiver_state = 7
let replay_guard = 8
let shard = 9
let table = 10
let sketch = 11

let names =
  [|
    "netsim.engine";
    "netsim.link";
    "transport.sender";
    "transport.receiver";
    "runtime.proxy";
    "sidecar.protocol";
    "core.sender_state";
    "core.receiver_state";
    "core.replay_guard";
    "runtime.shard";
    "fastpath.table";
    "fastpath.sketch";
  |]
