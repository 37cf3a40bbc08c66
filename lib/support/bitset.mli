(** Dense sets of small non-negative integers as int-array bitmaps,
    and the backward dataflow solver over them.  Register liveness in
    HLO ([Liveness]) and in the LLO register allocator ([Regalloc])
    both run on this. *)

type t
(** Structural equality ([=]) compares sets of the same capacity. *)

val create : int -> t
(** An empty set with room for the elements [\[0, n)]. *)

val mem : t -> int -> bool
val add : t -> int -> unit
val remove : t -> int -> unit
val copy : t -> t

val inter_into : t -> t -> unit
(** [inter_into a b] leaves [a] holding [a] intersected with [b]. *)

val iter : (int -> unit) -> t -> unit
(** Ascending. *)

val elements : t -> int list
(** Ascending. *)

val backward : gen:t array -> kill:t array -> succs:int list array -> t array * t array
(** [(live_in, live_out)] per block [b] of a graph given by [succs]:
    the least solution of [live_out.(b) = union of live_in.(s)] over
    [s] in [succs.(b)] and [live_in.(b) = gen.(b) + (live_out.(b) -
    kill.(b))].  [gen.(b)] is what [b] reads before writing it and
    [kill.(b)] what it writes, so the iteration to the fixpoint does
    word operations only.  All sets must have the same capacity. *)
