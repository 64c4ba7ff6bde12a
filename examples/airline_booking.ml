(* The paper's §6 motivating example: an airline reservation system.

   Run with:  dune exec examples/airline_booking.exe

   "Changes in an airline reservation system for flights from San
   Francisco to Los Angeles do not conflict with changes to reservations
   on flights from Amsterdam to London."

   Sixteen simulated booking agents hammer a shared file server over the
   simulated network. Each flight is a small file, each fare class a
   page. Because most bookings touch different flights, the optimistic
   mechanism commits almost everything on the first try — and the run
   prints exactly how rare redos are, plus the proof that no seat was
   ever double-sold. *)

module Engine = Afs_sim.Engine
module Server = Afs_core.Server
module Store = Afs_core.Store
module Remote = Afs_rpc.Remote
open Afs_workload

let ok = function Ok v -> v | Error e -> failwith (Afs_core.Errors.to_string e)

let () =
  let params =
    { Airline.default with flights = 24; classes = 4; seats_per_class = 500 }
  in
  let engine = Engine.create () in
  let store = Store.memory () in
  let server = Server.create store in
  let shape =
    {
      Workload.small_updates with
      nfiles = params.Airline.flights;
      pages_per_file = params.Airline.classes;
    }
  in
  let files = ok (Workload.setup_pages server shape ~initial:(Airline.initial_page params)) in
  let host = Remote.host ~latency_ms:2.0 engine ~name:"reservations" server in
  let sut = Sut.afs_remote (Remote.connect [ host ]) ~fallback:server ~files in

  Printf.printf "airline reservation system: %d flights x %d classes, %d seats each\n"
    params.Airline.flights params.Airline.classes params.Airline.seats_per_class;
  Printf.printf "16 agents booking for 30 simulated seconds...\n\n";

  let config =
    { Driver.default_config with clients = 16; duration_ms = 30_000.0; think_ms = 20.0 }
  in
  let report = Driver.run engine config sut ~gen:(Airline.generator params) in

  print_endline Driver.header_row;
  print_endline (Driver.report_row report);

  let total_before =
    params.Airline.flights * params.Airline.classes * params.Airline.seats_per_class
  in
  let remaining = Airline.total_seats sut params in
  let booked = total_before - remaining in
  let redos = report.Driver.attempts - report.Driver.committed - report.Driver.given_up in
  Printf.printf "\nseats sold: %d (inventory %d -> %d)\n" booked total_before remaining;
  Printf.printf "redos caused by conflicts: %d (%.2f%% of transactions)\n" redos
    (100.0 *. float_of_int redos /. float_of_int (max 1 report.Driver.committed));
  let double_sold = if booked <= report.Driver.committed then 0 else booked - report.Driver.committed in
  Printf.printf "double-sold seats: %d (inventory is exact, by serialisability)\n" double_sold;

  (* Show the per-flight spread: hot flights absorb contention locally. *)
  Printf.printf "\nseats remaining per flight (flight 0 is the most popular):\n";
  for flight = 0 to min 7 (params.Airline.flights - 1) do
    let left = ref 0 in
    for cls = 0 to params.Airline.classes - 1 do
      left := !left + Airline.decode_seats (sut.Sut.read_page flight cls)
    done;
    Printf.printf "  flight %2d: %4d seats left\n" flight !left
  done;
  Printf.printf "  ... (%d more flights)\n" (max 0 (params.Airline.flights - 8));
  if double_sold <> 0 then exit 1
