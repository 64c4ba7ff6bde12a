(* The four workloads. Each is closed-loop (a client waits for its reply,
   thinks for an exponential delay, then sends the next transaction) and
   count-driven: a round runs exactly [txns] transactions, so run length is
   part of the workload's definition and host cost per transaction is
   comparable across commits. *)

module W = Afs_workload.Workload

type system =
  | Cluster_pages of { shards : int; shape : W.shape }
      (** Page transactions through [Sut.afs_cluster] over a sharded cluster. *)
  | Server_pages of { shape : W.shape; stable : bool; cache_capacity : int option }
      (** Page transactions through [Sut.afs_remote] to one server, over a
          memory store or a stable pair of electronic disks. *)
  | Bank of { tshape : W.transfer_shape; initial_balance : int }
      (** Cross-shard transfers through [Sut.afs_txn]. *)

type t = {
  name : string;
  why : string;
  system : system;
  latency_ms : float;  (** One-way message latency of every RPC server. *)
  proc_ms : float;  (** Server CPU per request. *)
  clients : int;
  think_ms : float;  (** Mean of the exponential think time. *)
  txns : int;  (** Transactions per round. *)
  gc_every : int;  (** Run the collector on every server after this many completions. *)
  retain : int;  (** Committed versions the collector keeps per file. *)
}

(* Clients retry until they commit: a give-up would be a failed
   operation, and contention must show up as latency and attempts. *)
let max_retries = 1000

let cluster_small =
  {
    name = "cluster-small";
    why =
      "favourable regime: small updates spread over many files on 4 shards, so RPC, \
       routing, engine and GC dominate and merges are rare";
    system =
      Cluster_pages
        {
          shards = 4;
          shape =
            {
              W.nfiles = 4096;
              pages_per_file = 8;
              read_pages = 1;
              rmw_pages = 1;
              payload_bytes = 48;
              file_theta = 0.6;
              page_theta = 0.0;
            };
        };
    latency_ms = 0.25;
    proc_ms = 0.05;
    clients = 10_000;
    think_ms = 8_000.0;
    txns = 200_000;
    gc_every = 50_000;
    retain = 16;
  }

let hot_pages =
  {
    name = "hot-pages";
    why =
      "unfavourable regime: a saturated server with Zipf-hot 1 KiB pages, so validation, \
       serialisation, merges and redos dominate";
    system =
      Server_pages
        {
          shape =
            {
              W.nfiles = 48;
              pages_per_file = 16;
              read_pages = 2;
              rmw_pages = 2;
              payload_bytes = 1024;
              file_theta = 0.6;
              page_theta = 0.6;
            };
          stable = false;
          cache_capacity = None;
        };
    latency_ms = 0.5;
    proc_ms = 0.2;
    clients = 32;
    think_ms = 2.0;
    txns = 100_000;
    gc_every = 20_000;
    retain = 16;
  }

let stable_reads =
  {
    name = "stable-reads";
    why =
      "read-mostly transactions on a stable disk pair whose working set exceeds the page \
       cache, so disk and stable-storage legs cost simulated time";
    system =
      Server_pages
        {
          shape =
            {
              W.nfiles = 512;
              pages_per_file = 16;
              read_pages = 6;
              rmw_pages = 1;
              payload_bytes = 1024;
              file_theta = 0.0;
              page_theta = 0.0;
            };
          stable = true;
          cache_capacity = Some 1024;
        };
    latency_ms = 0.5;
    proc_ms = 0.2;
    clients = 16;
    think_ms = 20.0;
    txns = 40_000;
    gc_every = 5_000;
    retain = 4;
  }

let xshard_bank =
  {
    name = "xshard-bank";
    why =
      "cross-shard transfers, half of them spanning shards, so the optimistic coordinator \
       (stage, decide, flip, resolve) is on the path";
    system =
      Bank
        {
          tshape =
            {
              W.accounts = 1024;
              objects = 256;
              shards = 4;
              cross_ratio = 0.5;
              move_ratio = 0.1;
              account_theta = 0.6;
              amount = 5;
            };
          initial_balance = 1000;
        };
    latency_ms = 0.25;
    proc_ms = 0.05;
    clients = 64;
    think_ms = 10.0;
    txns = 60_000;
    gc_every = 20_000;
    retain = 16;
  }

let all = [ cluster_small; hot_pages; stable_reads; xshard_bank ]

let find name = List.find_opt (fun w -> w.name = name) all

(* The same workload with its transaction count (and collector cadence)
   multiplied by [factor] — the smoke test runs everything at 1/100. *)
let scaled w factor =
  let scale n = max 1 (int_of_float (Float.round (float_of_int n *. factor))) in
  { w with txns = scale w.txns; gc_every = scale w.gc_every }
