module Capability = Afs_util.Capability
module Stats = Afs_util.Stats
module Det = Afs_util.Det
module Engine = Afs_sim.Engine
module Store = Afs_core.Store
module Server = Afs_core.Server
module Errors = Afs_core.Errors
module Rpc = Afs_rpc.Rpc
module Remote = Afs_rpc.Remote
module Replica = Afs_replica.Replica
module Trace = Afs_trace.Trace

let base_seed = 0xA40EBA

(* Seeds a full 2^32 apart keep the derived 48-bit ports distinct for any
   realistic shard count while shard 0 keeps the default seed — so a
   one-shard cluster mints bit-identical capabilities to a bare server. *)
let seed_stride = 0x1_0000_0000

type load = { cap : Capability.t; mutable count : int }

(* The replication plane of one shard: the primary-side source feeding
   [members] directly, each hosted behind its own RPC endpoint, which
   serves the promotion. A shard with no replica has none ([None]). *)
type replication = {
  source : Replica.Source.source;
  members : (Replica.t * (int, int Errors.r) Rpc.t) list;
}

type t = {
  engine : Engine.t;
  shards : Shard.t array;
  conns : Remote.conn array;
  router : Router.t;
  counters : Stats.Counter.t;
  (* Each shard's ["shard%d.commits"] counter, resolved at its first
     commit (so an untouched one stays out of the table): a commit bumps
     it without formatting its name. *)
  shard_commit_counts : int ref Lazy.t array;
  loads : (int * int, load) Hashtbl.t;
  build : int -> ?publish_tap:((int * Afs_core.Page.t) list -> unit Errors.r) -> Store.t -> Shard.t;
  trace : Trace.t option;
  replication : replication option array;
}

let create ?latency_ms ?proc_ms ?cache_capacity ?group_commit
    ?(replicas = 0) ?(stores = fun _ -> Store.memory ()) ?trace
    engine ~shards:n =
  if n <= 0 then invalid_arg "Cluster.create: need at least one shard";
  if replicas < 0 then invalid_arg "Cluster.create: replicas must be >= 0";
  (* The cluster's one counter table: replicas, sources, migrations, the
     rebalancer, cluster clients and transaction coordinators count into
     it. *)
  let counters = Stats.Counter.create () in
  (* Shard [i]'s server over [store], always with the same seed — same
     secret, same port — whether built at creation or at promotion. *)
  let build i ?publish_tap store =
    Shard.create ?latency_ms ?proc_ms ?group_commit engine ~id:i ~store
      (Server.create ?cache_capacity ~seed:(base_seed + (i * seed_stride))
         ~name:(Printf.sprintf "shard-%d" i) ?publish_tap ?trace store)
  in
  let replication = Array.make n None in
  let shards =
    Array.init n (fun i ->
        if replicas = 0 then
          (* No replication: exactly the pre-replica shard, byte for
             byte — no capture store, no gate, no epoch register. *)
          build i (stores i)
        else begin
          let source = Replica.Source.create ~counters ?trace engine (stores i) in
          let reg = Replica.Source.register source in
          let members =
            List.init replicas (fun j ->
                let r = Replica.create ~counters ?trace engine ~shard:i ~reg () in
                Replica.Source.attach source r;
                let rhost =
                  Replica.host ?latency_ms ?proc_ms engine
                    ~name:(Printf.sprintf "shard-%d.r%d" i j)
                    r
                in
                (r, rhost))
          in
          replication.(i) <- Some { source; members };
          build i ~publish_tap:(Replica.Source.tap source) (Replica.Source.capture_store source)
        end)
  in
  let router = Router.create ~ports:(Array.to_list (Array.map Shard.port shards)) in
  {
    engine;
    shards;
    conns = Array.map (fun s -> Remote.connect [ Shard.host s ]) shards;
    router;
    counters;
    shard_commit_counts =
      Array.init n (fun i ->
          lazy (Stats.Counter.handle counters (Printf.sprintf "shard%d.commits" i)));
    loads = Hashtbl.create 64;
    build;
    trace;
    replication;
  }

let engine t = t.engine
let nshards t = Array.length t.shards
let shard t i = t.shards.(i)
let shards t = Array.to_list t.shards
let conn t i = t.conns.(i)
let router t = t.router
let counters t = t.counters

let shard_of_cap t cap =
  let cap = Router.resolve t.router cap in
  match Router.shard_of_port t.router cap.Capability.port with
  | Some i -> Ok (cap, t.shards.(i))
  | None -> Error Errors.Invalid_capability

let place t = t.shards.(Router.place t.router)

let note_load t ~shard file =
  let commits = Lazy.force t.shard_commit_counts.(Shard.id shard) in
  commits := !commits + 1;
  let key = (Capability.port_to_int file.Capability.port, file.Capability.obj) in
  match Hashtbl.find_opt t.loads key with
  | Some l -> l.count <- l.count + 1
  | None -> Hashtbl.replace t.loads key { cap = file; count = 1 }

let drain_loads t =
  let entries = Det.fold_sorted (fun _ l acc -> (l.cap, l.count) :: acc) t.loads [] in
  Hashtbl.reset t.loads;
  List.rev entries

let shard_commits t i =
  let commits = t.shard_commit_counts.(i) in
  if Lazy.is_val commits then !(Lazy.force commits) else 0

(* {2 Replication} *)

let replicas_of t i =
  match t.replication.(i) with None -> [] | Some { members; _ } -> List.map fst members

let replication_source t i =
  Option.map (fun r -> r.source) t.replication.(i)

let flush_replication t =
  Array.iter
    (function
      | None -> ()
      | Some { source; members } ->
          Replica.Source.flush source;
          List.iter (fun (r, _) -> Replica.drain r) members)
    t.replication

type promotion = { epoch : int; watermark : int; recovered_files : int }

(* Fail over shard [i] to its first replica. Must run inside a simulation
   process (the promotion itself is an RPC to the replica's endpoint).

   The sequence is the paper's commit discipline applied to the shard:
   the promotion request test-and-sets the shared epoch register and
   drains the replica's queue; sibling replicas catch up and re-home onto
   the promoted store's new source (a shard with no sibling left gets no
   source at all); a server is rebuilt over that store
   with the shard's original seed — same secret, same port — so every
   outstanding capability stays valid and the router's port table needs
   no change. The deposed primary, if still running, keeps its old
   source, whose every publish now loses the test-and-set: it can answer
   reads and open versions, but it can never commit again. *)
let promote t i =
  match t.replication.(i) with
  | None | Some { members = []; _ } ->
      Error (Errors.Store_failure "promote: shard has no replica")
  | Some ({ members = (r, rhost) :: siblings; _ } as repl) -> (
      let expected_epoch = Replica.epoch r in
      match Rpc.call rhost expected_epoch with
      | Error e ->
          Error (Errors.Store_failure (Fmt.str "promote rpc: %a" Rpc.pp_call_error e))
      | Ok (Error e) -> Error e
      | Ok (Ok applied) -> (
          let epoch = Replica.epoch r in
          List.iter (fun (s, _) -> Replica.adopt s ~epoch) siblings;
          (* With no sibling left, a source's batches would reach nobody:
             the shard then runs over the replica's store itself. *)
          let replication, store, shard =
            match siblings with
            | [] -> (None, Replica.store r, t.build i (Replica.store r))
            | _ :: _ ->
                let source =
                  Replica.Source.create
                    ~reg:(Replica.Source.register repl.source)
                    ~seq:(Replica.shipped_seq r) ~counters:t.counters ?trace:t.trace
                    t.engine (Replica.store r)
                in
                List.iter (fun (s, _) -> Replica.Source.attach source s) siblings;
                let store = Replica.Source.capture_store source in
                ( Some { source; members = siblings },
                  store,
                  t.build i ~publish_tap:(Replica.Source.tap source) store )
          in
          let recovered =
            match store.Store.list_blocks () with
            | Error msg -> Error (Errors.Store_failure msg)
            | Ok blocks -> Server.recover_from_blocks (Shard.server shard) blocks
          in
          match recovered with
          | Error e -> Error e
          | Ok recovered_files ->
              t.shards.(i) <- shard;
              t.conns.(i) <- Remote.connect [ Shard.host shard ];
              t.replication.(i) <- replication;
              Stats.Counter.incr t.counters "promotions";
              Ok { epoch; watermark = applied; recovered_files }))
