(** The compilation pipeline (the paper's Figure 2, end to end).

    - [O1]/[O2] (+P): per-module frontend, intraprocedural HLO phases
      ([O2] only), LLO with profile-guided block positioning under
      +P, code object files, link (with profile-guided routine
      clustering under +P).
    - [O4] (+P): frontends produce IL object payloads; at link time
      the CMO set (all modules, or the selectivity-chosen subset) is
      registered with a NAIM loader and optimized by HLO
      (cloning/inlining/IPA/phases), then code-generated; modules
      outside the set take the [O2]+P path.  The interprocedural
      context for a partial set is derived by scanning the outside
      modules for calls into and stores into the set.
    - [+I]: probes are inserted and optimization suppressed; the
      returned manifest ties VM counters to profile-database keys.

    The pipeline works on in-memory values; {!Buildsys} adds the
    on-disk object-file workflow. *)

type source = { name : string; text : string }

type cache_usage = {
  hits : int;  (** Module-level artifacts served from the local store. *)
  misses : int;
      (** Module-level lookups served by neither the local store nor
          the remote cache. *)
  remote_hits : int;
      (** Artifacts fetched from the remote cache ([?remote]) and
          adopted into the local store. *)
  remote_misses : int;
      (** Remote lookups that missed; a failed or disabled remote
          counts here — never as a build error. *)
  cmo_cached : string list;
      (** CMO-set modules whose post-CMO IL came from the store. *)
  cmo_reoptimized : string list;
      (** CMO-set modules whose link-time optimization actually ran
          (the invalidation closure of the changed modules). *)
  code_hits : int;
      (** Modules whose machine code, stats and LLO peak came from the
          store's codegen tier. *)
  code_misses : int;  (** Modules LLO code-generated afresh. *)
}
(** Artifact-cache traffic for one build, per module: the post-CMO IL
    tier ([hits]/[misses]) and the codegen tier ([code_hits] /
    [code_misses]).  The store's own {!Cmo_cache.Store.stats}
    additionally count the per-routine phase cache. *)

type report = {
  options : Options.t;
  hlo : Cmo_hlo.Hlo.report option;
  loader_stats : Cmo_naim.Loader.stats option;
  mem_peak : int;  (** Peak modeled bytes, all categories. *)
  mem_peak_hlo : int;  (** Peak excluding LLO (Figure 4's HLO series). *)
  selection : Cmo_hlo.Selectivity.t option;
  llo : Cmo_llo.Llo.stats;
  frontend_seconds : float;
  hlo_seconds : float;
  llo_seconds : float;
  link_seconds : float;
  frontend_wall_seconds : float;
      (** Wall clock for the phases that run on the worker pool; the
          [*_seconds] fields above are process CPU time across every
          domain, so cpu/wall is the realized parallel speedup (see
          {!par_speedup}).  {!compile_modules} leaves the frontend
          fields zero (the frontend ran elsewhere); [Buildsys.request]
          fills them from its object-load/frontend loop. *)
  hlo_wall_seconds : float;
  llo_wall_seconds : float;
  link_wall_seconds : float;
      (** Wall clock of the (serial) link; not part of
          {!phase_wall_seconds}. *)
  workers_used : int;  (** The [jobs] the build ran with. *)
  total_lines : int;
  cmo_lines : int;  (** Source lines in the CMO set. *)
  warm_lines : int;
      (** Lines outside the CMO set compiled at the default level. *)
  cold_lines : int;
      (** Tiered mode only: never-executed lines given the minimal
          (+O1-grade) compile. *)
  cache : cache_usage option;  (** [None] when built without a store. *)
  obs : Cmo_obs.Obs.summary option;
      (** Compact trace summary (event/track counts, per-stage span
          time, final counter values) when the build ran with
          [Options.trace]; [None] otherwise. *)
}

type build = {
  image : Cmo_link.Image.t;
  objects : Cmo_link.Objfile.t list;
      (** The code objects that went into the final link. *)
  report : report;
  manifest : Cmo_profile.Probe.manifest option;  (** +I builds only. *)
}

exception Compile_error of string
(** Frontend, verification or link failure, with rendered details. *)

val phase_cpu_seconds : report -> float
(** Summed cpu seconds of the three parallelizable phases
    (frontend + hlo + llo) — the single definition of that sum. *)

val phase_wall_seconds : report -> float
(** Summed wall seconds of the same three phases. *)

val par_speedup : report -> float
(** {!phase_cpu_seconds} over {!phase_wall_seconds};
    1.0 when either is unmeasured.  On a single hardware thread this
    sits at or slightly below 1 regardless of [workers_used]. *)

val empty_report : Options.t -> report
(** The report constructor: zero counts, times and peaks, one worker,
    no optional section but the trace summary as of the call. *)

val link_objects :
  ?routine_order:string list -> Cmo_link.Objfile.t list -> Cmo_link.Image.t
(** {!Cmo_link.Linker.link}, with any link errors rendered into
    {!Compile_error}. *)

val with_tracing : Options.t -> (unit -> 'a) -> 'a
(** Run [f] under the trace sink when [options.trace] is set: start
    recording, run, write the Chrome-trace file, stop.  No-op without
    [trace].  {!compile} applies it itself; [Buildsys.build] wraps its
    own workflow with it.  A failing build stops the sink without
    writing a file. *)

val frontend : ?jobs:int -> source list -> Cmo_il.Ilmod.t list
(** Compile sources to IL, verifying the result as a program.
    Per-module lowering runs on [jobs] worker domains (default 1);
    results and error choice are independent of [jobs].
    @raise Compile_error on any error. *)

val frontend_one : source -> Cmo_il.Ilmod.t
(** Compile a single module with module-local verification only;
    cross-module references are checked later, at link time — the
    separate-compilation discipline the build system relies on.
    @raise Compile_error on any error. *)

val compile :
  ?profile:Cmo_profile.Db.t ->
  ?cache:Cmo_cache.Store.t ->
  ?naim_repo:Cmo_naim.Repository.t ->
  ?remote:Distwork.remote ->
  Options.t ->
  source list ->
  build

val compile_modules :
  ?profile:Cmo_profile.Db.t ->
  ?cache:Cmo_cache.Store.t ->
  ?naim_repo:Cmo_naim.Repository.t ->
  ?remote:Distwork.remote ->
  Options.t ->
  Cmo_il.Ilmod.t list ->
  build
(** Takes ownership of [modules]: profile annotation and optimization
    mutate them.

    Every build runs the same stages: annotate, select (the CMO set),
    outside (+O2 outside the set), plan, ltrans, codegen, link; +I
    instruments and goes straight to codegen and link.  [plan], the
    serial WPA step, splits the set into units: its invalidation
    components ({!Cmo_cache.Invalidate}) when every global decision
    decomposes, else the whole set.  [ltrans] runs each stale unit
    with its own NAIM loader, accountant and store transaction and
    merges them in unit order.  So [jobs], [dist] and [cache] never
    change which units run or how they merge: the image, objects, LLO
    stats and modeled peaks are bit-identical across all of them.

    With [Options.dist], a unit runs as a partition job in an
    isolated [cmoc-worker] process ({!Distwork}) instead of on a
    worker domain; any worker loss, wire fault or missing worker
    binary degrades that unit (or the whole build) to in-process
    execution on a fresh transaction.

    With [remote] (requires [cache]), module-artifact lookups that
    miss the local store consult the remote cache, adopting validated
    artifacts locally, and fresh artifacts are published back — the
    cross-checkout sharing path through [cmocd].  The remote must
    degrade internally (both functions return miss / drop on any
    fault); remote traffic happens only on the serial path, so local
    store bytes stay independent of [jobs].

    With [naim_repo], the O4 loaders offload to the given repository
    instead of a private in-memory one — the build server passes its
    long-lived repository here so NAIM state stays warm across
    requests (loaders never close a repository they were given).
    Offloaded pools round-trip byte-identically, so sharing the
    repository does not change artifacts.

    With [cache], the O4 link step becomes incremental: post-CMO
    per-module IL is stored content-addressed, keyed on the module's
    unit, the canonical option fingerprint, and the external context
    visible to the unit.  Only units holding a module whose artifact
    missed are stale; when none is, HLO runs not at all (the
    report's [hlo] is [None]).  Module artifacts are added only after
    every unit's transaction has committed.  At every level, [cache]
    also enables the codegen tier: a module's code object, LLO stats
    and peak LLO charge are stored under its post-HLO IL bytes and
    the layout flag, so a module whose IL is unchanged skips LLO
    (block layout still runs on its IL under +P). *)

val code_key : layout:bool -> string -> string
(** The codegen tier's store key for a module whose post-HLO IL
    encodes ({!Cmo_il.Ilcodec.encode_module}) to the given bytes,
    code-generated with or without profile-guided block layout. *)

val run :
  ?input:int64 array -> ?fuel:int -> ?attribute:bool -> build ->
  Cmo_vm.Vm.outcome
(** Execute the built image on the VM.  [attribute] enables
    per-routine cycle attribution (see {!Cmo_vm.Vm.run}). *)

val train :
  ?inputs:int64 array list ->
  source list ->
  Cmo_profile.Db.t
(** Build instrumented (+I), run each training input on the VM, and
    accumulate the profile database — the paper's training loop. *)

val pp_report : Format.formatter -> report -> unit

val report_to_json : report -> Cmo_obs.Json.t
(** Machine-readable report: every numeric field plus the derived
    aggregates ([phase_cpu_seconds], [phase_wall_seconds],
    [par_speedup]) so consumers never re-derive arithmetic. *)
