(** Local list scheduling.

    The LLO's instruction scheduler (the paper's section 3 lists
    scheduling among LLO's machine-level optimizations, citing the
    PA-8000 scheduler [4]).  Targets the machine's one pipeline
    hazard: an instruction that consumes the result of the
    immediately preceding load stalls
    ({!Cmo_vm.Costmodel.load_use_stall} cycles), so the scheduler
    tries to put an independent instruction in each load's shadow.

    Scope and safety:
    - runs on {!Isel.vcode} before register allocation (virtual
      registers expose more independence than allocated ones);
    - calls, system calls and probes are scheduling barriers: nothing
      moves across them (the Mach instruction set does not model their
      implicit argument-register reads, and observable effect order
      must hold);
    - within a barrier-free segment, dependence edges are RAW/WAR/WAW
      on registers plus memory order (loads may swap with loads;
      stores order against every other memory access);
    - the graph is built in one pass, linear in segment size: per
      register, an instruction depends on the register's last writer
      and, when it writes the register, on the readers since that
      writer; for memory, on the last store and, when it is a store,
      on the loads since.  Its transitive closure is that of testing
      every pair, so critical-path heights and ready sets, and hence
      the schedule, are the same;
    - ready instructions are chosen by critical-path height, avoiding
      a consumer of the just-scheduled load when any alternative is
      ready; ties break on original position, so scheduling is
      deterministic.  The ready set is updated as instructions are
      emitted, not rescanned. *)

val run : Isel.vcode -> int
(** Returns the number of instructions moved from their original
    relative position. *)
