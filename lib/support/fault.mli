(** Deterministic fault plans: the one engine behind [$CMO_FAULT]
    ({!Fsio}) and [$CMO_NET_FAULT] ({!Netio}).

    An engine numbers the operations of one I/O layer from 1 in
    execution order — the seeded op clock — and, under an installed
    plan, tells the layer at which operation to inject which fault.
    Each layer brings only its table of fault kinds and its mapping
    from a kind to what the operation then does; the grammar, the
    process-wide plan slot, the counters, the sticky terminal state,
    the per-operation randomness and the retry backoff live here,
    once.

    {2 Plan grammar}

    A plan is a comma-separated spec (blanks around tokens ignored):

    - [count] — inject nothing, just number the operations (sweeps
      use this to size themselves);
    - [KIND@K] — inject [KIND], a name from the layer's table, at
      operation K (K >= 1); several may be combined;
    - [seed=N] — seeds the per-operation randomness ({!rng}) and the
      retry jitter ({!retry}).

    A parse error names the first bad token and, for an unknown kind,
    lists the layer's kinds.

    {2 Terminal kind}

    One kind per engine is terminal: once it fires the layer is dead
    for the rest of the plan ({!Fsio}'s power cut, {!Netio}'s
    partition).  Every later {!next} reports [Dead] without advancing
    the clock, so the layer can suppress the operation.

    With no plan installed {!next} is a single atomic load. *)

type 'k t
(** One engine over fault kinds ['k]; each layer makes one at module
    initialisation. *)

val create : name:string -> obs:string -> terminal:'k -> (string * 'k) list -> 'k t
(** [create ~name ~obs ~terminal kinds]: [kinds] is the grammar's
    table of kind names, [terminal] the one kind that kills the layer.
    [name] labels parse errors ([fault], [net-fault]); [obs] is the
    Obs category of the [injected] and [retries] ticks. *)

(** {2 Plans} *)

val install : 'k t -> string -> (unit, string) result
(** Parse and install a plan spec; replaces any current plan, which
    resets the operation counter, the injection counter and the
    terminal state.  [Error] describes the first bad token. *)

val clear : 'k t -> unit
(** Remove the plan: {!next} returns to the single-load fast path and
    the terminal state heals. *)

val active : 'k t -> bool

val kinds : 'k t -> string list
(** The kind names the grammar accepts, in table order. *)

val op_count : 'k t -> int
(** Operations counted under the current plan (0 with no plan).
    Operations after the terminal kind fired do not count, and
    retries of one operation never re-count. *)

val injected : 'k t -> int
(** Faults injected so far under the current plan. *)

val retries : 'k t -> int
(** Process-lifetime count of {!retry} calls (also ticked to the
    [obs/retries] Obs counter). *)

(** {2 The op clock} *)

type 'k event =
  | Pass  (** No plan, or no fault planned at this operation. *)
  | Dead  (** The terminal kind fired earlier; not counted. *)
  | Fire of 'k * int
      (** Inject this kind at this operation index; counted in
          {!injected} and the [obs/injected] Obs tick. *)

val next : 'k t -> 'k event
(** Count one operation and say what happens to it. *)

val dead : 'k t -> bool
(** The terminal kind has fired under the current plan.  Does not
    count an operation. *)

val rng : 'k t -> int -> Prng.t
(** [rng e k]: the generator for operation [k], a function of the
    plan seed and [k] alone — how a torn write's prefix length or a
    garbled bit is chosen reproducibly. *)

(** {2 Bounded retries} *)

val max_attempts : int
(** Attempts per operation, the first included (3). *)

val retry : 'k t -> int -> unit
(** [retry e attempt]: count one retry, then sleep a seed-jittered
    exponential backoff before attempt [attempt + 1]. *)
