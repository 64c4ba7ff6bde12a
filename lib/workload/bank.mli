(** A branch-office banking workload (the paper's other §2 example: "the
    contents of the bank accounts of a branch office").

    A branch is a file; an account is a page holding a balance. Transfers
    move money between two accounts of one branch (two read-modify-writes)
    and audits read every account. Money conservation is the
    serialisability oracle: any lost or invented money means a
    non-serialisable schedule slipped through. *)

type params = {
  branches : int;
  accounts : int;  (** Pages per branch file. *)
  initial_balance : int;
  audit_fraction : float;
  account_theta : float;  (** Skew towards hot accounts. *)
}

val default : params

val initial_page : params -> bytes

val generator : params -> Workload.generator

val total_money : Sut.t -> params -> int

val expected_total : params -> int
(** [branches * accounts * initial_balance]: transfers conserve it. *)
