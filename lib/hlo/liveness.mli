(** Backward liveness dataflow over virtual registers.

    Per-block live-in/live-out sets, used by dead-code elimination in
    HLO and by spill-cost estimation in the register allocator.
    Derived data: recomputed per use. *)

type t

val compute : Cmo_il.Func.t -> t

val live_out : t -> Cmo_il.Instr.label -> Cmo_il.Instr.reg list
(** Registers live on exit from the block, ascending. *)

val live_in : t -> Cmo_il.Instr.label -> Cmo_il.Instr.reg list

val live_out_mem : t -> Cmo_il.Instr.label -> Cmo_il.Instr.reg -> bool

val live_in_mem : t -> Cmo_il.Instr.label -> Cmo_il.Instr.reg -> bool

val modeled_bytes : t -> int
(** Modeled footprint for the Derived memory category. *)

val modeled_bytes_of : Cmo_il.Func.t -> int
(** [modeled_bytes (compute f)] from the block and register counts
    alone, without running the dataflow (block labels are unique). *)
