type 'a state = Empty of ('a -> unit) Queue.t | Full of 'a

type 'a t = { mutable state : 'a state }

let create () = { state = Empty (Queue.create ()) }

let try_fill t v =
  match t.state with
  | Full _ -> false
  | Empty waiters ->
      t.state <- Full v;
      Queue.iter (fun wake -> wake v) waiters;
      true

let fill t v = if not (try_fill t v) then invalid_arg "Ivar.fill: already filled"

let peek t = match t.state with Full v -> Some v | Empty _ -> None

let read t =
  match t.state with
  | Full v -> v
  | Empty waiters -> Proc.suspend (fun resume -> Queue.add resume waiters)
