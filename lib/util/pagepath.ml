(* Stored root-first so that [is_prefix] and descent are direct walks. The
   lists involved are short (tree depth), so persistence beats arrays. *)

type t = int list

let root = []

let of_list indices =
  List.iter (fun i -> if i < 0 then invalid_arg "Pagepath.of_list: negative index") indices;
  indices

let to_list t = t

let child t i =
  if i < 0 then invalid_arg "Pagepath.child: negative index";
  t @ [ i ]

let prefix t n = if n >= List.length t then t else List.filteri (fun pos _ -> pos < n) t

let parent = function [] -> None | t -> Some (prefix t (List.length t - 1))

let last = function
  | [] -> None
  | t -> Some (List.nth t (List.length t - 1))

let depth = List.length

let rec is_prefix a b =
  match (a, b) with
  | [], _ -> true
  | _, [] -> false
  | x :: a', y :: b' -> x = y && is_prefix a' b'

let equal = ( = )
let compare = Stdlib.compare

let to_string = function
  | [] -> "/"
  | t -> "/" ^ String.concat "." (List.map string_of_int t)

let pp ppf t = Fmt.string ppf (to_string t)

let of_string s =
  if s = "/" then Ok []
  else if String.length s = 0 || s.[0] <> '/' then Error "pathname must start with '/'"
  else
    let body = String.sub s 1 (String.length s - 1) in
    let parts = String.split_on_char '.' body in
    let parse acc part =
      match acc with
      | Error _ as e -> e
      | Ok indices -> (
          match int_of_string_opt part with
          | Some i when i >= 0 -> Ok (i :: indices)
          | _ -> Error (Printf.sprintf "bad path component %S" part))
    in
    Result.map List.rev (List.fold_left parse (Ok []) parts)

module Ord = struct
  type nonrec t = t

  let compare = compare
end

module Set = Set.Make (Ord)
module Map = Map.Make (Ord)
