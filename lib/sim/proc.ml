exception Killed

(* [ctx] caches the [Some (engine, handle)] value installed in [current]
   while this process runs: allocated once at spawn rather than once per
   resumption (a million-transaction run resumes processes millions of
   times). *)
type handle = {
  mutable dead : bool;
  mutable finished : bool;
  name : string;
  mutable ctx : ctx;
}

and ctx = (Engine.t * handle) option

type _ Effect.t +=
  | Delay : float -> unit Effect.t
  | Suspend : (('a -> unit) -> unit) -> 'a Effect.t

(* The engine and handle of the currently running process, used when an
   effect is performed. Single-threaded, so a pair of globals is safe; they
   are saved/restored around resumption because resuming one process can
   transitively schedule (not run) others. *)
let current : (Engine.t * handle) option ref = ref None

let with_current handle f =
  let saved = !current in
  current := handle.ctx;
  match f () with
  | x ->
      current := saved;
      x
  | exception e ->
      current := saved;
      raise e

(* A resumed process runs until it next suspends: a synchronous section,
   whose host cost a traced run keeps as [proc.resume]. *)
let step : type b. handle -> (b, unit) Effect.Deep.continuation -> b -> unit =
 fun handle k v -> if handle.dead then Effect.Deep.discontinue k Killed else Effect.Deep.continue k v

let rec execute : type a. Engine.t -> handle -> (a -> unit) -> (unit -> a) -> unit =
 fun engine handle return body ->
  let open Effect.Deep in
  match_with body ()
    {
      retc = return;
      exnc = (fun e -> if e = Killed then handle.finished <- true else raise e);
      effc =
        (fun (type b) (eff : b Effect.t) ->
          match eff with
          | Delay d ->
              Some
                (fun (k : (b, unit) continuation) ->
                  Engine.at engine d (fun () -> resume engine handle k ()))
          | Suspend register ->
              Some
                (fun (k : (b, unit) continuation) ->
                  let resumed = ref false in
                  let resume_once v =
                    if not !resumed then begin
                      resumed := true;
                      Engine.at engine 0.0 (fun () -> resume engine handle k v)
                    end
                  in
                  register resume_once)
          | _ -> None);
    }

and resume : type b. Engine.t -> handle -> (b, unit) Effect.Deep.continuation -> b -> unit
    =
 fun engine handle k v ->
  let module Trace = Afs_trace.Trace in
  let tr = Engine.trace engine in
  if Trace.enabled tr then Trace.point tr (Trace.Proc_resume { proc = handle.name });
  let saved = !current in
  current := handle.ctx;
  match
    if Trace.costing tr then Trace.costed tr ~kind:"proc.resume" (fun () -> step handle k v)
    else step handle k v
  with
  | () -> current := saved
  | exception e ->
      current := saved;
      raise e

let spawn ?(name = "anon") engine body =
  let handle = { dead = false; finished = false; name; ctx = None } in
  handle.ctx <- Some (engine, handle);
  let tr = Engine.trace engine in
  if Afs_trace.Trace.enabled tr then
    Afs_trace.Trace.point tr (Afs_trace.Trace.Proc_spawn { proc = name });
  Engine.at engine 0.0 (fun () ->
      with_current handle (fun () ->
          if not handle.dead then
            execute engine handle (fun () -> handle.finished <- true) body));
  handle

let in_process () =
  match !current with
  | Some _ -> ()
  | None -> invalid_arg "Proc: blocking operation outside a process"

let self () = match !current with Some (_, h) -> h | None -> invalid_arg "Proc.self: no process"

let delay d =
  in_process ();
  Effect.perform (Delay d)

let suspend register =
  in_process ();
  Effect.perform (Suspend register)

let kill handle = handle.dead <- true

let alive handle = (not handle.dead) && not handle.finished

let joinable engine =
  let outstanding = ref 0 in
  let waiters : (unit -> unit) Queue.t = Queue.create () in
  let finish () =
    decr outstanding;
    if !outstanding = 0 then Queue.iter (fun wake -> wake ()) waiters;
    if !outstanding = 0 then Queue.clear waiters
  in
  let spawn_joined body =
    incr outstanding;
    spawn engine (fun () -> Fun.protect ~finally:finish body)
  in
  let join_all () =
    if !outstanding > 0 then suspend (fun resume -> Queue.add (fun () -> resume ()) waiters)
  in
  (spawn_joined, join_all)
