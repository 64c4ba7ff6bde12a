(* Bechamel micro-benchmarks: wall-clock throughput of the hot paths.
   One Test.make per mechanism; run with --bechamel (they take ~20s). *)

open Bechamel
open Toolkit
module Server = Afs_core.Server
module Store = Afs_core.Store
module Page = Afs_core.Page
module Flags = Afs_core.Flags
module P = Afs_util.Pagepath

let ok = function Ok v -> v | Error e -> failwith (Afs_core.Errors.to_string e)
let bytes = Bytes.of_string

let sample_page ~nrefs ~data_bytes =
  let secret = Afs_util.Capability.secret_of_seed 1 in
  let cap obj =
    Afs_util.Capability.mint secret ~port:(Afs_util.Capability.port_of_int 1) ~obj
      ~rights:Afs_util.Capability.rights_all
  in
  let refs = Array.init nrefs (fun i -> { Page.block = i + 1; flags = Flags.clear }) in
  Page.make_version_page ~file_cap:(cap 2) ~version_cap:(cap 3) ~base_ref:(Some 7)
    ~parent_ref:None ~refs ~data:(Bytes.make data_bytes 'd')

(* F3 support: codec throughput. [with_data] sheds the encode memo, so
   each iteration pays a real serialisation (plus one record copy); the
   memo-hit and arithmetic-size benches pin the costs the hot path
   actually sees after the encode-once work. *)
let test_encode_fresh =
  let page = sample_page ~nrefs:64 ~data_bytes:4096 in
  Test.make ~name:"page-encode-fresh-4K+64refs"
    (Staged.stage (fun () -> ignore (Page.encode (Page.with_data page page.Page.data))))

let test_encode_memo_hit =
  let page = sample_page ~nrefs:64 ~data_bytes:4096 in
  ignore (Page.encode page);
  Test.make ~name:"page-encode-memo-hit" (Staged.stage (fun () -> ignore (Page.encode page)))

let test_encoded_size =
  let page = sample_page ~nrefs:64 ~data_bytes:4096 in
  Test.make ~name:"page-encoded-size-arith"
    (Staged.stage (fun () -> ignore (Page.encoded_size page)))

(* The first run splits the image, as a store's first decode does, so
   this times the decode every later miss pays: the head parsed, the
   data shared. *)
let test_decode =
  let image = Afs_util.Image.of_bytes (Page.encode (sample_page ~nrefs:64 ~data_bytes:4096)) in
  Test.make ~name:"page-decode-4K+64refs"
    (Staged.stage (fun () -> match Page.decode image with Ok _ -> () | Error _ -> assert false))

let test_flags_nibble =
  let all = Array.of_list Flags.all in
  Test.make ~name:"flags-nibble-roundtrip"
    (Staged.stage (fun () ->
         Array.iter (fun f -> ignore (Flags.of_nibble (Flags.to_nibble f))) all))

(* The capability check every request starts with: the check field's
   keyed hash over the secret, port, object and rights. *)
let test_capability_validate =
  let module C = Afs_util.Capability in
  let secret = C.secret_of_seed 1 in
  let cap = C.mint secret ~port:(C.port_of_int 1) ~obj:3 ~rights:C.rights_all in
  Test.make ~name:"capability-validate" (Staged.stage (fun () -> ignore (C.validate secret cap)))

(* A request's object lookup: check the version capability, then find
   the version's record. *)
let test_server_find_version =
  let srv = Server.create (Store.memory ()) in
  let v = ok (Server.create_version srv (Exp_util.file_with_pages srv 1)) in
  Test.make ~name:"server-find-version"
    (Staged.stage (fun () -> ignore (ok (Server.version_block srv v))))

(* The page-access path with nothing to record: a re-read of a cached
   page the open version has already read copies only its data. *)
let test_read_page_accessed_cached =
  let store = Store.memory () in
  let srv = Server.create store in
  let f = Exp_util.file_with_pages srv 1 in
  let v = ok (Server.create_version srv f) in
  let p = P.of_list [ 0 ] in
  ignore (ok (Server.read_page srv v p));
  Test.make ~name:"read-page-accessed-cached"
    (Staged.stage (fun () -> ignore (ok (Server.read_page srv v p))))

(* F5 support: the uncontended one-page update cycle. *)
let test_commit_fastpath =
  let store = Store.memory () in
  let srv = Server.create store in
  let f = ok (Server.create_file srv ~data:(bytes "seed") ()) in
  Test.make ~name:"update-cycle-one-page"
    (Staged.stage (fun () ->
         let v = ok (Server.create_version srv f) in
         ok (Server.write_page srv v P.root (bytes "payload"));
         ok (Server.commit srv v)))

(* F6/C4 support: serialisability test + merge of two 4-page updates on a
   64-page file. *)
let test_serialise_merge =
  let store = Store.memory () in
  let srv = Server.create store in
  let f = Exp_util.file_with_pages srv 64 in
  Test.make ~name:"intercepted-commit-merge"
    (Staged.stage (fun () ->
         let va = ok (Server.create_version srv f) in
         let vb = ok (Server.create_version srv f) in
         for i = 0 to 3 do
           ok (Server.write_page srv va (P.of_list [ i ]) (bytes "a"));
           ok (Server.write_page srv vb (P.of_list [ 32 + i ]) (bytes "b"))
         done;
         ok (Server.commit srv va);
         ok (Server.commit srv vb)))

(* C3 support: validation of a warm, unshared file. *)
let test_validation_null_op =
  let store = Store.memory () in
  let srv = Server.create store in
  let f = Exp_util.file_with_pages srv 16 in
  let basis = ok (Server.current_block_of_file srv f) in
  Test.make ~name:"cache-validate-null-op"
    (Staged.stage (fun () ->
         ignore (ok (Afs_core.Cache.server_validate srv ~file:f ~basis_block:basis))))

(* The §3.1 cache-integrity re-read of an unchanged 1 KiB page: the
   store shares the page's own image, so the check is one physical
   comparison with its memo. *)
let test_pagestore_revalidate =
  let module Pagestore = Afs_core.Pagestore in
  let ps = Pagestore.create ~counters:(Afs_util.Stats.Counter.create ()) (Store.memory ()) in
  let b = ok (Pagestore.allocate ps) in
  ok (Pagestore.write_through ps b (Page.with_data Page.empty (Bytes.make 1024 'v')));
  Test.make ~name:"pagestore-revalidate-1k"
    (Staged.stage (fun () ->
         Pagestore.refresh ps b;
         ignore (Pagestore.read ps b)))

(* C5 support: the stable-storage sector path. One stable write seals
   one header (one CRC over it and ~1 KiB of payload) and writes the
   header and the writer's payload to both disks. *)
let test_crc32 =
  let buf = Bytes.make 1024 'c' in
  Test.make ~name:"crc32-1K" (Staged.stage (fun () -> ignore (Afs_util.Wire.crc32 buf)))

let test_stable_write =
  let module S = Afs_stable.Stable_pair in
  let pair = S.create ~media:Afs_disk.Media.electronic ~blocks:16 ~block_size:2048 () in
  let payload = Bytes.make 1024 'w' in
  let b =
    match S.allocate_write pair 0 payload with
    | Ok b -> b
    | Error e -> failwith (Fmt.str "%a" S.pp_error e)
  in
  Test.make ~name:"stable-write-1K"
    (Staged.stage (fun () -> ignore (S.write pair 0 b payload)))

(* The read side: one disk read of the stored sector and a CRC check
   of header and payload in place; the payload is answered uncopied. *)
let test_stable_read =
  let module S = Afs_stable.Stable_pair in
  let pair = S.create ~media:Afs_disk.Media.electronic ~blocks:16 ~block_size:2048 () in
  let b =
    match S.allocate_write pair 0 (Bytes.make 1024 'r') with
    | Ok b -> b
    | Error e -> failwith (Fmt.str "%a" S.pp_error e)
  in
  Test.make ~name:"stable-read-1K" (Staged.stage (fun () -> ignore (S.read pair 0 b)))

(* The commit publish leg: eight 1 KiB blocks in one A→B→A round trip,
   the path a single stable write takes as a batch of one. *)
let test_stable_write_batch =
  let module S = Afs_stable.Stable_pair in
  let pair = S.create ~media:Afs_disk.Media.electronic ~blocks:16 ~block_size:2048 () in
  let payload = Bytes.make 1024 'w' in
  let entries =
    List.init 8 (fun _ ->
        match S.allocate_write pair 0 payload with
        | Ok b -> (b, payload)
        | Error e -> failwith (Fmt.str "%a" S.pp_error e))
  in
  Test.make ~name:"stable-write-batch-8x1K"
    (Staged.stage (fun () -> ignore (S.write_batch pair 0 entries)))

(* The root-marker codec. Every cluster opening decodes the file's root,
   which is nearly always plain data; a cross-shard stage encodes a
   marker and every resolver decodes it again. *)
let test_marker_decode_plain =
  let root = Bytes.make 48 'r' in
  Test.make ~name:"marker-decode-plain-48B"
    (Staged.stage (fun () -> ignore (Afs_cluster.Marker.decode root)))

let test_marker_staged_roundtrip =
  let record =
    Afs_util.Capability.mint (Afs_util.Capability.secret_of_seed 1)
      ~port:(Afs_util.Capability.port_of_int 1) ~obj:2 ~rights:Afs_util.Capability.rights_all
  in
  let marker =
    Afs_cluster.Marker.Staged
      { record; seq = 42; old_root = bytes "acct7"; writes = [ (P.of_list [ 0 ], bytes "1234") ] }
  in
  Test.make ~name:"marker-staged-roundtrip"
    (Staged.stage (fun () ->
         ignore (Afs_cluster.Marker.decode (Afs_cluster.Marker.encode marker))))

let all_tests =
  [ test_encode_fresh; test_encode_memo_hit; test_encoded_size; test_decode;
    test_flags_nibble; test_capability_validate; test_server_find_version;
    test_read_page_accessed_cached; test_commit_fastpath;
    test_serialise_merge; test_validation_null_op; test_pagestore_revalidate;
    test_crc32; test_stable_write; test_stable_read; test_stable_write_batch;
    test_marker_decode_plain; test_marker_staged_roundtrip ]

(* [smoke] trades precision for speed (CI runs it on shared runners just
   to catch order-of-magnitude regressions and keep the artifact fresh). *)
let run ?(smoke = false) () =
  Printf.printf "\n%s\n" (String.make 78 '=');
  Printf.printf "[micro] Bechamel wall-clock benchmarks of the hot paths%s\n"
    (if smoke then " (smoke mode)" else "");
  Printf.printf "%s\n" (String.make 78 '-');
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    if smoke then Benchmark.cfg ~limit:500 ~quota:(Time.second 0.05) ()
    else Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:(Some 1000) ()
  in
  let analyze raw =
    let ols =
      Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:Measure.[| run |]
    in
    Analyze.all ols Instance.monotonic_clock raw
  in
  List.iter
    (fun test ->
      let raw = Benchmark.all cfg instances test in
      let results = analyze raw in
      Afs_util.Det.iter_sorted
        (fun name result ->
          match Analyze.OLS.estimates result with
          | Some [ est ] -> Printf.printf "  %-32s %12.1f ns/op\n" name est
          | _ -> Printf.printf "  %-32s (no estimate)\n" name)
        results)
    all_tests
