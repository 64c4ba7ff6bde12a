(* Shared vocabulary of the afs_lint static-analysis pass. *)

type rule = D1 | P1 | E1 | M1 | Y1 | C1 | X1 | U1

let rule_id = function
  | D1 -> "D1"
  | P1 -> "P1"
  | E1 -> "E1"
  | M1 -> "M1"
  | Y1 -> "Y1"
  | C1 -> "C1"
  | X1 -> "X1"
  | U1 -> "U1"

let rule_of_string = function
  | "D1" -> Some D1
  | "P1" -> Some P1
  | "E1" -> Some E1
  | "M1" -> Some M1
  | "Y1" -> Some Y1
  | "C1" -> Some C1
  | "X1" -> Some X1
  | "U1" -> Some U1
  | _ -> None

let all_rules = [ D1; P1; E1; M1; Y1; C1; X1; U1 ]

let rule_description = function
  | D1 -> "determinism: no ambient time/randomness, no unordered hashtable traversal"
  | P1 -> "partiality: no List.hd/Option.get/failwith/assert false in protocol paths"
  | E1 -> "effect safety: no engine re-entry or blocking calls in callbacks"
  | M1 -> "interface coverage: every lib module ships an .mli"
  | Y1 ->
      "yield atomicity: no shared-state read, yield, then dependent write without \
       revalidation"
  | C1 -> "commit phase: designated critical sections are transitively yield- and ambient-free"
  | X1 -> "Moved exhaustiveness: results of Moved-capable operations are never silently dropped"
  | U1 -> "unused exports: every lib interface value is referenced from another file"

type severity = Error | Warning

let severity_id = function Error -> "error" | Warning -> "warning"

type finding = {
  rule : rule;
  severity : severity;
  file : string;  (** path relative to the scan root, '/'-separated *)
  line : int;
  col : int;
  symbol : string;  (** offending identifier, or a rule-specific tag *)
  message : string;
}

(* Order findings for stable output: by file, then position, then rule. *)
let compare_findings a b =
  match compare a.file b.file with
  | 0 -> (
      match compare (a.line, a.col) (b.line, b.col) with
      | 0 -> compare (rule_id a.rule, a.symbol) (rule_id b.rule, b.symbol)
      | c -> c)
  | c -> c

(** Per-run configuration. Directory scopes are '/'-separated paths relative
    to the scan root; a scope of [""] matches every file. *)
type config = {
  rng_exempt : string list;
      (** Files allowed to implement or touch ambient randomness / clocks
          (the seeded RNG itself). *)
  protocol_dirs : string list;  (** P1 scope: where partial idioms are banned. *)
  hashtbl_dirs : string list;
      (** D1 unordered-iteration scope (always further gated on the unit
          referencing Wire/Serialise/Engine). *)
  hashtbl_strict_units : string list;
      (** Files (or directory prefixes) where the D1 unordered-iteration
          check applies unconditionally — their traversal order leaks into
          replicated or exported state even though they never mention a
          wire-like module (e.g. the LRU index, the write-set
          representation, the collector, whose sweep order decides which
          block numbers a block server hands out next, and the trace
          library, whose event streams must be byte-stable across
          same-seed runs). *)
  e1_dirs : string list;  (** E1 scope. *)
  e1_exempt : string list;
      (** Subtrees exempt from E1 (the sim engine implements the
          primitives it would otherwise be flagged for). *)
  mli_dirs : string list;  (** M1 scope: every .ml here needs a sibling .mli. *)
  (* {3 Interprocedural analysis (Y1 / C1 / X1)}

     These fields parameterise the call-graph pass in [Lint_callgraph] /
     [Lint_proto]. Names are matched on the last two dotted components of
     an identifier ("Module.fn"), so [module R = Afs_rpc.Remote] aliases
     resolve the same as direct references. *)
  yield_primitives : string list;
      (** Calls that park the current coroutine (the seeds of the [Yields]
          effect; everything else is derived transitively). *)
  yielding_fields : string list;
      (** Record fields holding function values that may yield (dynamic
          calls the lexical call graph cannot resolve). Applying such a
          field counts as a yield. *)
  validators : string list;
      (** Calls that re-validate shared state against the store: the
          serialisability test, the write-set pre-test, a commit (whose
          success IS the test-and-set), or a cache revalidation. A write
          that follows one of these (after the last yield) is considered
          funnelled through version validation. *)
  shared_state_fields : string list;
      (** Mutable record fields that constitute shared server / shard /
          cluster / connection state. Reads and writes of these fields are
          the events Y1 tracks. *)
  critical_sections : string list;
      (** "Module.fn" names whose bodies must be transitively yield-free
          and ambient-free (C1): the serialisability-test/test-and-set
          region and everything that must be indivisible with it. *)
  moved_sources : string list;
      (** Operations that may return [Errors.Moved] (X1 seeds; functions
          that neither handle nor discard Moved propagate the
          capability). *)
  y1_dirs : string list;  (** Y1 scope. *)
  x1_dirs : string list;  (** X1 scope. *)
  u1_dirs : string list;  (** U1 scope: the .mli files whose vals must be referenced. *)
  reference_dirs : string list;
      (** Trees parsed for U1 references only, never checked (the tests):
          an export only they reference is counted as test-only. *)
}

let default_config =
  {
    rng_exempt = [ "lib/util/xrng.ml" ];
    protocol_dirs = [ "lib" ];
    hashtbl_dirs = [ "lib"; "bin"; "bench"; "examples" ];
    hashtbl_strict_units =
      [ "lib/util/lru.ml"; "lib/util/stats.ml"; "lib/core/writeset.ml";
        "lib/core/pagestore.ml"; "lib/core/gc.ml"; "lib/trace"; "lib/cluster"; "lib/replica";
        "lib/txn" ];
    e1_dirs = [ "lib" ];
    e1_exempt = [ "lib/sim" ];
    mli_dirs = [ "lib" ];
    yield_primitives =
      [ "Proc.delay"; "Proc.suspend"; "Ivar.read"; "Rpc.call" ];
    yielding_fields = [];
    validators =
      [
        "Serialise.test_and_merge";
        "Writeset.conflict";
        "Server.commit";
        "Cache.revalidate";
        "Cache.server_validate";
      ];
    shared_state_fields =
      [
        (* lib/rpc *)
        "preferred";
        (* lib/cluster *)
        "forwards";
        "next_placement";
        "loads";
        (* lib/core server administration *)
        "files";
        "versions";
        "destroyed";
        "uncommitted";
        "current_hint";
        "oldest_hint";
        "vblocks";
        "wset";
      ];
    critical_sections =
      [
        "Server.commit";
        "Server.validate";
        "Server.merge";
        "Server.publish";
        "Server.commit_batch";
        "Serialise.test_and_merge";
        "Remote.handle";
        "Shard.location_check";
        (* The replication plane's additions to the commit critical
           section: the publish gate (fence test + batch cut + feed) runs
           inside validate/publish, and promotion's register test-and-set
           plus drain must be indivisible for the fencing argument. *)
        "Source.gate";
        "Replica.promote";
        (* The cross-shard decision logic: classifying the coordinator
           record and mapping a marker to roll-forward/roll-back must not
           interleave with the optimistic commits that act on them. *)
        "Txn.decide";
        "Txn.resolve";
      ];
    moved_sources = [ "Remote.batch"; "Remote.await" ];
    y1_dirs =
      [
        "lib/core"; "lib/cluster"; "lib/rpc"; "lib/naming"; "lib/stable"; "lib/block";
        "lib/disk"; "lib/files";
      ];
    x1_dirs = [ "lib" ];
    u1_dirs = [ "lib" ];
    reference_dirs = [ "test" ];
  }

(* [in_scope dirs file] holds when [file] lives under one of [dirs]. *)
let in_scope dirs file =
  List.exists
    (fun d -> d = "" || file = d || String.starts_with ~prefix:(d ^ "/") file)
    dirs
