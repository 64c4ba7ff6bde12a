(* The bench trajectory file: a flat object of numeric metrics, written
   one pair per line so baselines diff cleanly, and read back with the
   trace library's JSON reader. *)

module Tjson = Afs_trace.Tjson

let number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.6f" v

(* Serialise a metrics document: sorted keys, one per line. *)
let document ~schema metrics =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "{\n";
  Buffer.add_string buf (Printf.sprintf "  \"schema\": \"%s\",\n" (Tjson.escape schema));
  Buffer.add_string buf "  \"metrics\": {\n";
  let metrics = List.sort compare metrics in
  let n = List.length metrics in
  List.iteri
    (fun i (k, v) ->
      Buffer.add_string buf
        (Printf.sprintf "    \"%s\": %s%s\n" (Tjson.escape k) (number v)
           (if i = n - 1 then "" else ",")))
    metrics;
  Buffer.add_string buf "  }\n}\n";
  Buffer.contents buf

(* The numeric members of a document's ["metrics"] object, in file
   order. *)
let parse_metrics text =
  match Tjson.parse text with
  | Error _ as e -> e
  | Ok doc -> (
      match Tjson.member "metrics" doc with
      | Some (Tjson.Obj fields) ->
          Ok (List.filter_map (fun (k, v) -> Option.map (fun f -> (k, f)) (Tjson.to_float v)) fields)
      | _ -> Error "no \"metrics\" object")
