module Ilmod = Cmo_il.Ilmod
module Func = Cmo_il.Func
module Instr = Cmo_il.Instr
module Verify = Cmo_il.Verify
module Callgraph = Cmo_il.Callgraph
module Intrinsics = Cmo_il.Intrinsics
module Ilcodec = Cmo_il.Ilcodec
module Fingerprint = Cmo_support.Fingerprint
module Fsio = Cmo_support.Fsio
module Store = Cmo_cache.Store
module Invalidate = Cmo_cache.Invalidate
module Frontend = Cmo_frontend.Frontend
module Db = Cmo_profile.Db
module Probe = Cmo_profile.Probe
module Correlate = Cmo_profile.Correlate
module Loader = Cmo_naim.Loader
module Memstats = Cmo_naim.Memstats
module Hlo = Cmo_hlo.Hlo
module Inline = Cmo_hlo.Inline
module Ipa = Cmo_hlo.Ipa
module Phase = Cmo_hlo.Phase
module Selectivity = Cmo_hlo.Selectivity
module Llo = Cmo_llo.Llo
module Layout = Cmo_llo.Layout
module Codec = Cmo_support.Codec
module Objfile = Cmo_link.Objfile
module Linker = Cmo_link.Linker
module Cluster = Cmo_link.Cluster
module Image = Cmo_link.Image
module Vm = Cmo_vm.Vm
module Ilcheck = Cmo_check.Ilcheck
module Obs = Cmo_obs.Obs
module Json = Cmo_obs.Json

let log_src = Logs.Src.create "cmo.driver" ~doc:"CMO compilation driver"

module Log = (val Logs.src_log log_src : Logs.LOG)

type source = { name : string; text : string }

(* Module-level artifact traffic for one build; the store's own
   counters additionally include the per-routine phase cache. *)
type cache_usage = {
  hits : int;  (** Module artifacts served from the local store. *)
  misses : int;  (** Lookups served by neither local store nor remote. *)
  remote_hits : int;
      (** Module artifacts fetched from the remote cache (and adopted
          into the local store). *)
  remote_misses : int;
      (** Remote lookups that missed — failed or disabled remotes
          count here too, never as errors. *)
  cmo_cached : string list;  (** CMO-set modules taken from the store. *)
  cmo_reoptimized : string list;
      (** CMO-set modules whose link-time optimization actually ran. *)
  code_hits : int;  (** Modules whose machine code came from the store. *)
  code_misses : int;  (** Modules LLO code-generated afresh. *)
}

type report = {
  options : Options.t;
  hlo : Hlo.report option;
  loader_stats : Loader.stats option;
  mem_peak : int;
  mem_peak_hlo : int;
  selection : Selectivity.t option;
  llo : Llo.stats;
  frontend_seconds : float;
  hlo_seconds : float;
  llo_seconds : float;
  link_seconds : float;
  (* cpu-seconds above (process-wide, all domains); wall-clock below
     for the three parallelizable phases — their ratio is the
     realized parallel speedup. *)
  frontend_wall_seconds : float;
  hlo_wall_seconds : float;
  llo_wall_seconds : float;
  link_wall_seconds : float;  (* outside the phase sums: link is serial *)
  workers_used : int;
  total_lines : int;
  cmo_lines : int;
  warm_lines : int;  (* default-level (+O2) lines outside the CMO set *)
  cold_lines : int;  (* tiered mode: never-executed lines, minimal compile *)
  cache : cache_usage option;  (* None when no artifact store was given *)
  obs : Obs.summary option;  (* trace summary; None when not tracing *)
}

(* The one definition of the cpu/wall arithmetic: [par_speedup],
   [report_to_json] and the bench tables all read these accessors. *)
let phase_cpu_seconds r = r.frontend_seconds +. r.hlo_seconds +. r.llo_seconds

let phase_wall_seconds r =
  r.frontend_wall_seconds +. r.hlo_wall_seconds +. r.llo_wall_seconds

let par_speedup r =
  let cpu = phase_cpu_seconds r in
  let wall = phase_wall_seconds r in
  if wall <= 0.0 || cpu <= 0.0 then 1.0 else cpu /. wall

type build = {
  image : Image.t;
  objects : Objfile.t list;
  report : report;
  manifest : Probe.manifest option;
}

exception Compile_error of string

let error fmt = Format.kasprintf (fun s -> raise (Compile_error s)) fmt

let frontend_one_inner { name; text } =
  match Frontend.compile ~module_name:name text with
  | Ok m -> (
    match Verify.check_module m with
    | [] -> m
    | issues ->
      error "@[<v>IL verification failed in %s:@,%a@]" name
        (Format.pp_print_list ~pp_sep:Format.pp_print_cut Verify.pp_issue)
        issues)
  | Error errs ->
    error "@[<v>%a@]"
      (Format.pp_print_list ~pp_sep:Format.pp_print_cut Frontend.pp_error)
      errs

let frontend_one src =
  Obs.with_span ~cat:"frontend" src.name (fun () -> frontend_one_inner src)

let frontend ?(jobs = 1) sources =
  (* Duplicate module names would collide in every downstream table
     (symbols, loader pools, object files); reject them up front. *)
  let seen = Hashtbl.create 16 in
  List.iter
    (fun { name; _ } ->
      if Hashtbl.mem seen name then
        error "duplicate module name %s among the sources" name
      else Hashtbl.replace seen name ())
    sources;
  (* Per-module lowering is independent; Parwork keeps result order
     and raises the first error by input order, like List.map. *)
  let modules =
    if jobs > 1 then
      Parwork.with_pool ~jobs (fun pool -> Parwork.map pool frontend_one sources)
    else List.map frontend_one sources
  in
  (match Verify.check_program modules with
  | [] -> ()
  | issues ->
    error "@[<v>IL verification failed:@,%a@]"
      (Format.pp_print_list ~pp_sep:Format.pp_print_cut Verify.pp_issue)
      issues);
  modules

(* Dynamic call weights for routine clustering, from annotated IL. *)
let cluster_weights modules =
  let weights = Hashtbl.create 256 in
  List.iter
    (fun (m : Ilmod.t) ->
      List.iter
        (fun (f : Func.t) ->
          List.iter
            (fun (_, (c : Instr.call)) ->
              if
                (not (Intrinsics.is_intrinsic c.Instr.callee))
                && c.Instr.call_count > 0.0
              then begin
                let key = (f.Func.name, c.Instr.callee) in
                Hashtbl.replace weights key
                  (c.Instr.call_count
                  +. Option.value ~default:0.0 (Hashtbl.find_opt weights key))
              end)
            (Func.site_calls f))
        m.Ilmod.funcs)
    modules;
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) weights []
  |> List.sort compare

let all_func_names modules =
  List.concat_map
    (fun (m : Ilmod.t) -> List.map (fun f -> f.Func.name) m.Ilmod.funcs)
    modules

(* Scan modules outside the CMO set for references into it. *)
let external_context outside_modules =
  let called = Hashtbl.create 64 in
  let stored = Hashtbl.create 64 in
  List.iter
    (fun (m : Ilmod.t) ->
      List.iter
        (fun (f : Func.t) ->
          List.iter
            (fun (b : Func.block) ->
              List.iter
                (fun i ->
                  match i with
                  | Instr.Call { callee; _ } -> Hashtbl.replace called callee ()
                  | Instr.Store ({ Instr.base; _ }, _) ->
                    Hashtbl.replace stored base ()
                  | Instr.Move _ | Instr.Unop _ | Instr.Binop _ | Instr.Load _
                  | Instr.Probe _ -> ())
                b.Func.instrs)
            f.Func.blocks)
        m.Ilmod.funcs)
    outside_modules;
  (called, stored)

let add_llo_stats a b =
  {
    Llo.routines = a.Llo.routines + b.Llo.routines;
    mach_instrs = a.Llo.mach_instrs + b.Llo.mach_instrs;
    spilled_vregs = a.Llo.spilled_vregs + b.Llo.spilled_vregs;
    peephole_rewrites = a.Llo.peephole_rewrites + b.Llo.peephole_rewrites;
    layout_changes = a.Llo.layout_changes + b.Llo.layout_changes;
  }

let merge_loader_stats (a : Loader.stats) (b : Loader.stats) =
  {
    Loader.acquires = a.Loader.acquires + b.Loader.acquires;
    cache_hits = a.Loader.cache_hits + b.Loader.cache_hits;
    uncompactions = a.Loader.uncompactions + b.Loader.uncompactions;
    repo_loads = a.Loader.repo_loads + b.Loader.repo_loads;
    compactions = a.Loader.compactions + b.Loader.compactions;
    offloads = a.Loader.offloads + b.Loader.offloads;
    symtab_compactions = a.Loader.symtab_compactions + b.Loader.symtab_compactions;
  }

let llo_module ?check ~mem ~layout stats_acc (m : Ilmod.t) =
  let codes, stats = Llo.compile_module ?mem ?check ~layout m in
  stats_acc := add_llo_stats !stats_acc stats;
  Objfile.of_code ~module_name:m.Ilmod.mname ~globals:m.Ilmod.globals
    ~source_digest:"" codes

let zero_llo_stats =
  {
    Llo.routines = 0;
    mach_instrs = 0;
    spilled_vregs = 0;
    peephole_rewrites = 0;
    layout_changes = 0;
  }

(* --- the codegen tier of the artifact store ------------------------- *)

(* A module's LLO output as the store keeps it: the code object, its
   [Llo.stats], and its largest per-routine modeled LLO charge.  The
   key names [code_format]; bump it whenever LLO output or this entry
   layout changes, or stale entries would be served as current. *)
let code_format = "llo1"

let code_key ~layout il =
  Fingerprint.of_strings [ code_format; string_of_bool layout; il ]

let encode_code_entry obj (s : Llo.stats) max_charge =
  let w = Codec.Writer.create () in
  List.iter (Codec.Writer.uvarint w)
    [
      s.Llo.routines;
      s.Llo.mach_instrs;
      s.Llo.spilled_vregs;
      s.Llo.peephole_rewrites;
      s.Llo.layout_changes;
      max_charge;
    ];
  Codec.Writer.string w (Objfile.encode obj);
  Codec.Writer.contents w

(* Anything unexpected — corrupt bytes, another module's object under
   the key — degrades to a miss.  Garbage can decode to a negative
   length, which [String.sub] rejects with [Invalid_argument]. *)
let decode_code_entry bytes mname =
  let module R = Codec.Reader in
  let decode () =
    let r = R.of_string bytes in
    let count () =
      let n = R.uvarint r in
      if n < 0 then R.corrupt "negative count" else n
    in
    let routines = count () in
    let mach_instrs = count () in
    let spilled_vregs = count () in
    let peephole_rewrites = count () in
    let layout_changes = count () in
    let max_charge = count () in
    let obj = Objfile.decode (R.string r) in
    if not (R.at_end r) then R.corrupt "trailing bytes";
    let stats =
      {
        Llo.routines;
        mach_instrs;
        spilled_vregs;
        peephole_rewrites;
        layout_changes;
      }
    in
    (obj, stats, max_charge)
  in
  match decode () with
  | (obj, _, _) as entry
    when obj.Objfile.module_name = mname && not (Objfile.is_il obj) ->
    Some entry
  | _ -> None
  | exception (R.Corrupt _ | Invalid_argument _) -> None

type code_lookup =
  | Code_hit of (Objfile.t * Llo.stats * int)
  | Code_miss of (Store.t * string) option  (* where to add the fresh entry *)

let link_or_fail ?routine_order objects =
  match Linker.link ?routine_order objects with
  | Ok image -> image
  | Error errs ->
    error "@[<v>link failed:@,%a@]"
      (Format.pp_print_list ~pp_sep:Format.pp_print_cut Linker.pp_error)
      errs

(* --- the between-phase verifier (Options.check) ------------------- *)

let render_violations vs =
  Format.asprintf "@[<v>IL verification failed:@,%a@]"
    (Format.pp_print_list ~pp_sep:Format.pp_print_cut Ilcheck.pp_violation)
    vs

(* Trace summary for the report, captured while the sink is live. *)
let obs_summary () = if Obs.enabled () then Some (Obs.summary ()) else None

(* A domain-safe lazy.  Checker environments are shared read-only
   across the worker pool, and [Lazy.force] raises [Undefined] when
   two domains race to force the same suspension — so memoize behind
   a mutex instead. *)
let memo_locked f =
  let m = Mutex.create () in
  let cell = ref None in
  fun () ->
    Mutex.lock m;
    Fun.protect ~finally:(fun () -> Mutex.unlock m) @@ fun () ->
    match !cell with
    | Some v -> v
    | None ->
      let v = f () in
      cell := Some v;
      v

let compile_modules_inner ?profile ?cache ?naim_repo ?remote
    (options : Options.t) modules =
  let jobs = max 1 options.Options.jobs in
  (* Checker factory: [None] when [check] is off, so the optimizers
     skip the hook entirely; environments are deferred (memoized
     thunks) because snapshots cost a pass over the program. *)
  let checker_of env_fn =
    if not options.Options.check then None
    else
      Some (fun ~phase f -> Ilcheck.check_func_exn ~env:(env_fn ()) ~phase f)
  in
  let t0 = Sys.time () in
  let w0 = Unix.gettimeofday () in
  let total_lines =
    List.fold_left (fun acc m -> acc + Ilmod.src_lines m) 0 modules
  in
  (* +I: instrument and build without optimization.  Probe numbering
     is a global sequence, so this path stays sequential. *)
  if options.Options.instrument then begin
    let instrumented, manifest = Probe.instrument modules in
    let mem = Memstats.create () in
    let llo_stats = ref zero_llo_stats in
    let objects =
      List.map (llo_module ~mem:(Some mem) ~layout:false llo_stats) instrumented
    in
    let image = link_or_fail objects in
    let t1 = Sys.time () in
    let w1 = Unix.gettimeofday () in
    {
      image;
      objects;
      manifest = Some manifest;
      report =
        {
          options;
          hlo = None;
          loader_stats = None;
          mem_peak = Memstats.peak mem;
          mem_peak_hlo = Memstats.peak_hlo mem;
          selection = None;
          llo = !llo_stats;
          frontend_seconds = 0.0;
          hlo_seconds = 0.0;
          llo_seconds = t1 -. t0;
          link_seconds = 0.0;
          frontend_wall_seconds = 0.0;
          hlo_wall_seconds = 0.0;
          llo_wall_seconds = w1 -. w0;
          link_wall_seconds = 0.0;
          workers_used = 1;
          total_lines;
          cmo_lines = 0;
          warm_lines = 0;
          cold_lines = 0;
          cache = None;
          obs = obs_summary ();
        };
    }
  end
  else begin
    (* Profile annotation. *)
    (match (options.Options.pbo, profile) with
    | true, Some db -> ignore (Correlate.annotate db modules)
    | true, None -> Correlate.clear modules
    | false, _ -> Correlate.clear modules);
    (* The whole-program view as the frontends delivered it: valid
       for every check until HLO starts adding and removing
       functions. *)
    let snapshot_env = memo_locked (fun () -> Ilcheck.env_of_modules modules) in
    let mem = Memstats.create () in
    let hlo_report = ref None in
    let loader_stats = ref None in
    let selection = ref None in
    let cmo_lines = ref 0 in
    let warm_lines = ref 0 in
    let cold_lines = ref 0 in
    let cache_hits = ref 0 in
    let cache_misses = ref 0 in
    let remote_hits = ref 0 in
    let remote_misses = ref 0 in
    (* WHOPR-style distribution: one worker pool per build — remote
       [--workers] endpoints dialed on demand, local processes spawned
       on demand.  A missing worker binary (with no endpoints)
       degrades the whole build to in-process execution, never an
       error — [dist] is a behaviour-preserving knob like [jobs]. *)
    let dist_pool =
      if options.Options.dist && options.Options.level = Options.O4 then
        match
          Distwork.create_pool ~workers:options.Options.workers
            ?timeout_s:options.Options.dist_timeout ()
        with
        | pool -> Some pool
        | exception Distwork.Unavailable msg ->
          Log.warn (fun m -> m "dist: %s; building in-process" msg);
          None
      else None
    in
    let cmo_cached = ref [] in
    let cmo_reoptimized = ref [] in
    (* Post-HLO IL bytes the store path already holds, by module: the
       codegen tier keys on them instead of re-encoding. *)
    let il_bytes = Hashtbl.create 16 in
    let hlo_t0 = Sys.time () in
    let hlo_w0 = Unix.gettimeofday () in
    (* Decide the CMO set and optimize it. *)
    let processed_modules =
      Fun.protect
        ~finally:(fun () -> Option.iter Distwork.close_pool dist_pool)
      @@ fun () ->
      Obs.with_span ~cat:"stage" "hlo" @@ fun () ->
      match options.Options.level with
      | Options.O1 -> modules
      | Options.O2 ->
        List.iter
          (fun (m : Ilmod.t) ->
            List.iter
              (fun f ->
                ignore
                  (Phase.optimize_func ~mem ?check:(checker_of snapshot_env) f))
              m.Ilmod.funcs)
          modules;
        modules
      | Options.O4 ->
        let cmo_set, outside =
          match (options.Options.cmo_modules, options.Options.selectivity) with
          | Some names, _ ->
            (* Explicit set: the bug-isolation driver's reduction axis. *)
            List.partition
              (fun (m : Ilmod.t) -> List.mem m.Ilmod.mname names)
              modules
          | None, Some percent when options.Options.pbo ->
            let sel = Selectivity.select ~percent modules in
            selection := Some sel;
            List.partition
              (fun (m : Ilmod.t) ->
                List.mem m.Ilmod.mname sel.Selectivity.cmo_modules)
              modules
          | None, (Some _ | None) -> (modules, [])
        in
        cmo_lines :=
          List.fold_left (fun acc m -> acc + Ilmod.src_lines m) 0 cmo_set;
        (* The paper, section 5: "The remaining modules bypass HLO
           entirely, and are optimized at the default optimization
           level using PBO."  Under the tiered mode (the section-8
           multi-layered future work), modules the profile never saw
           execute also skip the default-level scalar optimization. *)
        let module_is_cold (m : Ilmod.t) =
          List.for_all
            (fun (f : Func.t) ->
              List.for_all
                (fun (b : Func.block) -> b.Func.freq = 0.0)
                f.Func.blocks)
            m.Ilmod.funcs
        in
        (* Decode a stored module artifact, keeping its bytes for the
           codegen key; anything unexpected — corrupt bytes, a key
           collision surfacing as the wrong module — degrades to a
           miss. *)
        let decode_artifact bytes mname =
          match Ilcodec.decode_module bytes with
          | m when m.Ilmod.mname = mname ->
            Hashtbl.replace il_bytes mname bytes;
            Some m
          | _ -> None
          | exception Cmo_support.Codec.Reader.Corrupt _ -> None
        in
        (* Publish an artifact to the remote cache; the remote's own
           wrapper absorbs failures (a dead daemon must not fail the
           build). *)
        let remote_put key bytes =
          match remote with
          | Some r -> r.Distwork.remote_put key bytes
          | None -> ()
        in
        (* On a local non-hit, consult the remote cache; a validated
           remote artifact is adopted into the local store so the next
           build hits locally.  All remote traffic happens on the
           serial WPA path (the missing-scan and the outside sweep),
           so its effect on local store bytes is independent of
           [jobs]. *)
        let remote_fetch store key mname =
          match remote with
          | None -> None
          | Some r -> (
            match r.Distwork.remote_get key with
            | None ->
              incr remote_misses;
              Obs.tick "cache.module" "remote_misses" 1;
              None
            | Some bytes -> (
              match decode_artifact bytes mname with
              | Some m ->
                Store.add store key bytes;
                incr remote_hits;
                Obs.tick "cache.module" "remote_hits" 1;
                Some m
              | None ->
                incr remote_misses;
                Obs.tick "cache.module" "remote_misses" 1;
                None))
        in
        let fetch_module store key mname =
          match Option.bind (Store.find store key) (fun bytes ->
                    decode_artifact bytes mname) with
          | Some m ->
            incr cache_hits;
            Obs.tick "cache.module" "hits" 1;
            Some m
          | None -> (
            match remote_fetch store key mname with
            | Some m -> Some m
            | None ->
              incr cache_misses;
              Obs.tick "cache.module" "misses" 1;
              None)
        in
        (* The +O2 path outside the CMO set is per-module work keyed
           on the annotated IL alone. *)
        let optimize_outside (m : Ilmod.t) =
          if options.Options.tiered && module_is_cold m then begin
            cold_lines := !cold_lines + Ilmod.src_lines m;
            m
          end
          else begin
            warm_lines := !warm_lines + Ilmod.src_lines m;
            let optimize () =
              List.iter
                (fun f ->
                  ignore
                    (Phase.optimize_func ~mem ?check:(checker_of snapshot_env)
                       f))
                m.Ilmod.funcs
            in
            match cache with
            | None ->
              optimize ();
              m
            | Some store -> (
              let key =
                Fingerprint.of_strings [ "o2out1"; Ilcodec.encode_module m ]
              in
              match fetch_module store key m.Ilmod.mname with
              | Some cached -> cached
              | None ->
                optimize ();
                let bytes = Ilcodec.encode_module m in
                Hashtbl.replace il_bytes m.Ilmod.mname bytes;
                Store.add store key bytes;
                remote_put key bytes;
                m)
          end
        in
        let outside = List.map optimize_outside outside in
        (* What link-time CMO may reference beyond its own loader:
           the non-CMO modules' functions and globals.  Snapshot once;
           component workers share it read-only. *)
        let outside_env = memo_locked (fun () -> Ilcheck.env_of_modules outside) in
        if cmo_set = [] then outside
        else begin
          let called, stored = external_context outside in
          let all_names =
            List.map (fun (m : Ilmod.t) -> m.Ilmod.mname) cmo_set
          in
          let by_name = Hashtbl.create 16 in
          List.iter
            (fun (m : Ilmod.t) -> Hashtbl.replace by_name m.Ilmod.mname m)
            cmo_set;
          (* Snapshot function lists before any loader registration
             empties the modules. *)
          let mod_funcs = Hashtbl.create 16 in
          List.iter
            (fun (m : Ilmod.t) ->
              Hashtbl.replace mod_funcs m.Ilmod.mname
                (List.map
                   (fun (f : Func.t) -> (f.Func.name, f.Func.linkage))
                   m.Ilmod.funcs))
            cmo_set;
          let has_root names =
            List.exists
              (fun n ->
                List.exists
                  (fun (fname, linkage) ->
                    fname = "main" || linkage = Func.Exported
                    || Hashtbl.mem called fname)
                  (Option.value ~default:[] (Hashtbl.find_opt mod_funcs n)))
              names
          in
          let roots_exist = has_root all_names in
          (* Per-component treatment (caching and parallelism alike)
             is exact only when every global decision decomposes by
             component: profile-guided cloning uses program-wide
             counters and name allocation, and the bug-isolation
             operation limits are program-wide budgets, so those
             modes fall back to whole-set, sequential runs.  Likewise
             the degenerate rootless program, where IPA's
             keep-everything guard is not component-local. *)
          let decomposable =
            (not options.Options.pbo)
            && options.Options.inline_limit = None
            && options.Options.rewrite_limit = None
            && roots_exist
          in
          (* Run link-time CMO over [subset] (the whole set, or one
             component) — the exact code a [cmoc-worker] process runs
             ({!Distwork.optimize_subset}), which is what keeps
             distribution byte-invisible.  The external context is
             always the non-CMO modules: components are closed under
             calls and shared globals, so modules of other components
             cannot observe this subset. *)
          let hot_filter =
            Option.map
              (fun sel name -> Selectivity.is_hot_function sel name)
              !selection
          in
          let run_cmo ?phase_cache ~mem subset =
            Distwork.optimize_subset ?phase_cache ?naim_repo ?hot_filter
              ~check_base:outside_env ~options
              ~externally_called:(Hashtbl.mem called)
              ~externally_stored:(Hashtbl.mem stored) ~mem subset
          in
          (* A partition job carries everything the serial WPA step
             computed for this subset: the encoded modules, the
             external-context slices, the hot-function selection and
             the full option record. *)
          let job_of subset =
            {
              Distwork.job_options = options;
              job_modules = List.map Ilcodec.encode_module subset;
              job_called =
                Hashtbl.fold (fun k () acc -> k :: acc) called []
                |> List.sort String.compare;
              job_stored =
                Hashtbl.fold (fun k () acc -> k :: acc) stored []
                |> List.sort String.compare;
              job_hot =
                Option.map
                  (fun sel -> sel.Selectivity.hot_functions)
                  !selection;
              job_phase_cache = false (* run_job decides *);
            }
          in
          (* Optimize a subset on a pooled worker process; the result
             additionally carries the worker's own encoding of each
             optimized module, stored verbatim so the worker's encoder
             defines the artifact bytes.  Raises [Worker_lost]. *)
          let run_dist pool ?phase_cache ~mem subset =
            let payload = Distwork.run_job pool ?phase_cache (job_of subset) in
            let precoded =
              List.map
                (fun bytes -> (Ilcodec.decode_module bytes, bytes))
                payload.Distwork.done_modules
            in
            Memstats.merge mem
              (Distwork.memstats_of_summary payload.Distwork.done_mem);
            ( List.map fst precoded,
              payload.Distwork.done_report,
              payload.Distwork.done_lstats,
              List.map
                (fun ((m : Ilmod.t), bytes) -> (m.Ilmod.mname, bytes))
                precoded )
          in
          let record_hlo (report, lstats) =
            hlo_report :=
              Some
                (match !hlo_report with
                | None -> report
                | Some r -> Hlo.merge_reports r report);
            loader_stats :=
              Some
                (match !loader_stats with
                | None -> lstats
                | Some s -> merge_loader_stats s lstats)
          in
          (* Per-component execution: each component runs in its own
             loader and accountant (and store transaction when
             caching) on the worker pool.  Results, reports,
             accountants and transactions merge in deterministic
             component order after the join, so every artifact — and
             every cache byte — is independent of [jobs].  Whenever a
             store is attached this is the code path at every job
             count, j=1 included: the transaction logs, not the
             interleaving, decide what the store sees. *)
          let phase_cache_of txn =
            Option.map
              (fun txn ->
                { Hlo.pc_find = Store.txn_find txn; pc_add = Store.txn_add txn })
              txn
          in
          (* Run [subset] on a pooled worker, its phase relay landing
             in [txn]; returns the result and the transaction to
             commit.  A lost worker leaves [txn] holding a partial op
             log that must never commit: it is abandoned, and
             [local] redoes the partition on a fresh transaction
             (none when [txn] is none), whose log then matches the
             oracle's exactly. *)
          let dist_or_local dpool ~txn ~mem ~local subset =
            match
              run_dist dpool ?phase_cache:(phase_cache_of txn) ~mem subset
            with
            | result -> (result, txn)
            | exception Distwork.Worker_lost ->
              local
                (Option.bind txn (fun _ -> Option.map Store.txn_begin cache))
          in
          let run_components ~txns comps_names =
            let comps =
              List.map
                (fun comp ->
                  let txn =
                    if txns then Option.map Store.txn_begin cache else None
                  in
                  (List.map (Hashtbl.find by_name) comp, has_root comp, txn))
                comps_names
            in
            let results =
              Parwork.with_pool ~jobs (fun pool ->
                  Parwork.map pool
                    (fun (subset, rooted, txn) ->
                      Obs.with_span ~cat:"component"
                        (List.hd subset).Ilmod.mname
                      @@ fun () ->
                      if not rooted then
                        (* A rootless component (while roots exist
                           elsewhere): the whole-set run's IPA removes
                           every one of its functions as unreachable,
                           so the optimized form is just the
                           empty-bodied modules — running HLO here
                           would instead hit IPA's keep-everything
                           guard. *)
                        ( List.map
                            (fun (m : Ilmod.t) -> { m with Ilmod.funcs = [] })
                            subset,
                          None,
                          Memstats.create (),
                          txn,
                          [] )
                      else begin
                        let wmem = Memstats.create () in
                        let local txn =
                          let optimized, report, lstats =
                            run_cmo
                              ?phase_cache:(phase_cache_of txn)
                              ~mem:wmem subset
                          in
                          ((optimized, report, lstats, []), txn)
                        in
                        let (optimized, report, lstats, precoded), txn =
                          match dist_pool with
                          | None -> local txn
                          | Some dpool ->
                            dist_or_local dpool ~txn ~mem:wmem ~local subset
                        in
                        (optimized, Some (report, lstats), wmem, txn, precoded)
                      end)
                    comps)
            in
            (* The transaction each component actually used travels in
               its result (a lost worker's replacement transaction is
               the one to commit, not the abandoned original). *)
            List.iter
              (fun (_, stats, wmem, txn, _) ->
                Memstats.merge mem wmem;
                Option.iter record_hlo stats;
                Option.iter Store.txn_commit txn)
              results;
            ( List.concat_map (fun (optimized, _, _, _, _) -> optimized) results,
              List.concat_map (fun (_, _, _, _, precoded) -> precoded) results
            )
          in
          (* The whole-set (non-decomposable) run: program-wide
             decisions — profile-guided cloning counters, the
             bug-isolation operation budgets, IPA's rootless
             keep-everything guard — must be made once over the entire
             set, so distribution ships the whole set as a single job
             to one worker.  With a store attached the phase relay
             lands in a transaction, committed on success and
             abandoned on loss, so a lost worker leaves no trace and
             the local redo replays the oracle's op log against the
             store directly. *)
          let run_whole ~mem subset =
            let local () =
              let phase_cache = Option.map Hlo.store_phase_cache cache in
              let optimized, report, lstats = run_cmo ?phase_cache ~mem subset in
              (optimized, report, lstats, [])
            in
            match dist_pool with
            | None -> local ()
            | Some dpool ->
              (* The redo runs straight against the store, as the
                 oracle does. *)
              let result, txn =
                dist_or_local dpool
                  ~txn:(Option.map Store.txn_begin cache)
                  ~mem
                  ~local:(fun _ -> (local (), None))
                  subset
              in
              Option.iter Store.txn_commit txn;
              result
          in
          let table_of optimized =
            let opt_tbl = Hashtbl.create 16 in
            List.iter
              (fun (m' : Ilmod.t) -> Hashtbl.replace opt_tbl m'.Ilmod.mname m')
              optimized;
            opt_tbl
          in
          match cache with
          | None ->
            if decomposable && (jobs > 1 || Option.is_some dist_pool) then begin
              (* Same partition as cache invalidation, used here as
                 the unit of parallel/distributed link-time CMO (the
                 WHOPR LTRANS analogy). *)
              let part = Invalidate.compute cmo_set in
              let optimized, _ =
                run_components ~txns:false (Invalidate.components part)
              in
              let opt_tbl = table_of optimized in
              List.map (fun name -> Hashtbl.find opt_tbl name) all_names
              @ outside
            end
            else begin
              let optimized, report, lstats, _ = run_whole ~mem cmo_set in
              record_hlo (report, lstats);
              optimized @ outside
            end
          | Some store ->
            let part = Invalidate.compute cmo_set in
            (* Snapshot digests before registration, like mod_funcs. *)
            let il_fp = Hashtbl.create 16 in
            List.iter
              (fun (m : Ilmod.t) ->
                Hashtbl.replace il_fp m.Ilmod.mname
                  (Fingerprint.of_strings [ Ilcodec.encode_module m ]))
              cmo_set;
            let opt_fp = Options.cache_fingerprint options in
            let sel_fp =
              match !selection with
              | None -> "nosel"
              | Some sel ->
                Fingerprint.of_strings
                  (("sel" :: sel.Selectivity.cmo_modules)
                  @ ("|" :: sel.Selectivity.hot_functions))
            in
            (* The key of a module: its component's (name, digest)
               pairs plus the slice of the external context its
               component can observe — external callers pin IPA
               argument lattices and keep functions alive; external
               stores block const-global folding. *)
            let comp_parts_memo = Hashtbl.create 8 in
            let component_parts comp =
              let head = List.hd comp in
              match Hashtbl.find_opt comp_parts_memo head with
              | Some parts -> parts
              | None ->
                let ext_called =
                  List.concat_map
                    (fun n ->
                      Option.value ~default:[] (Hashtbl.find_opt mod_funcs n)
                      |> List.filter_map (fun (fname, _) ->
                             if Hashtbl.mem called fname then Some fname
                             else None))
                    comp
                  |> List.sort String.compare
                in
                let ext_stored =
                  List.concat_map (Invalidate.global_refs part) comp
                  |> List.sort_uniq String.compare
                  |> List.filter (Hashtbl.mem stored)
                in
                let parts =
                  List.concat_map
                    (fun n ->
                      [ n; Option.value ~default:"" (Hashtbl.find_opt il_fp n) ])
                    comp
                  @ ("|called" :: ext_called)
                  @ ("|stored" :: ext_stored)
                in
                Hashtbl.replace comp_parts_memo head parts;
                parts
            in
            let keys = Hashtbl.create 16 in
            List.iter
              (fun name ->
                let comp =
                  if decomposable then Invalidate.component part name
                  else all_names
                in
                Hashtbl.replace keys name
                  (Fingerprint.of_strings
                     ("cmo1" :: opt_fp :: sel_fp :: name :: "|comp"
                     :: component_parts comp)))
              all_names;
            let fetched = Hashtbl.create 16 in
            let missing =
              List.filter
                (fun name ->
                  match fetch_module store (Hashtbl.find keys name) name with
                  | Some cached ->
                    Hashtbl.replace fetched name cached;
                    false
                  | None -> true)
                all_names
            in
            (* Persist (and publish) the fresh artifacts.  Modules a
               worker process optimized are stored under the worker's
               own encoding ([precoded]) — the bytes that crossed the
               wire define the artifact, with no parent-side
               re-encode in between. *)
            let store_results ?(precoded = []) optimized =
              let pre = Hashtbl.create 16 in
              List.iter (fun (n, b) -> Hashtbl.replace pre n b) precoded;
              List.iter
                (fun (m' : Ilmod.t) ->
                  match Hashtbl.find_opt keys m'.Ilmod.mname with
                  | Some key ->
                    let bytes =
                      match Hashtbl.find_opt pre m'.Ilmod.mname with
                      | Some b -> b
                      | None -> Ilcodec.encode_module m'
                    in
                    Hashtbl.replace il_bytes m'.Ilmod.mname bytes;
                    Store.add store key bytes;
                    remote_put key bytes
                  | None -> ())
                optimized
            in
            if missing = [] then begin
              (* Every artifact current: the link step skips HLO
                 entirely. *)
              cmo_cached := all_names;
              List.map (Hashtbl.find fetched) all_names @ outside
            end
            else begin
              let rerun_names =
                if decomposable then Invalidate.closure part ~changed:missing
                else all_names
              in
              cmo_reoptimized := rerun_names;
              cmo_cached :=
                List.filter (fun n -> not (List.mem n rerun_names)) all_names;
              let optimized, precoded =
                if decomposable then
                  (* Exactly the components holding a stale module
                     rerun; every fetch above already happened, so the
                     transactions' snapshot view of the store is fixed
                     before any worker starts. *)
                  run_components ~txns:true
                    (List.filter
                       (fun comp ->
                         List.exists (fun n -> List.mem n missing) comp)
                       (Invalidate.components part))
                else begin
                  let optimized, report, lstats, precoded =
                    run_whole ~mem cmo_set
                  in
                  record_hlo (report, lstats);
                  (optimized, precoded)
                end
              in
              store_results ~precoded optimized;
              let opt_tbl = table_of optimized in
              List.map
                (fun name ->
                  match Hashtbl.find_opt opt_tbl name with
                  | Some m' -> m'
                  | None -> Hashtbl.find fetched name)
                all_names
              @ outside
            end
        end
    in
    let hlo_t1 = Sys.time () in
    let hlo_w1 = Unix.gettimeofday () in
    Log.info (fun m ->
        m "%s: hlo %.3fs, cmo %d/%d lines" (Options.to_string options)
          (hlo_t1 -. hlo_t0) !cmo_lines total_lines);
    (* Code generation: per-module and independent.  Each module
       compiles with its own stats accumulator and accountant, merged
       in module order, so objects, stats and modeled peaks are the
       same at every [jobs].

       With a store attached, the codegen tier serves modules whose
       post-HLO IL it has seen before, keyed on those IL bytes, the
       [layout] flag and [code_format].  A hit replays what LLO leaves
       behind: block layout (and its check) on the IL the linker's
       clustering reads, the stored stats, and the stored peak
       charged and released.  Lookups and adds run serially in module
       order and only misses go to the pool, so the store's bytes do
       not depend on [jobs]. *)
    let llo_stats = ref zero_llo_stats in
    let layout = options.Options.pbo && options.Options.level <> Options.O1 in
    (* Post-CMO view: clones present, IPA-removed routines gone — a
       reference that dangles here would dangle at link time too. *)
    let llo_check =
      checker_of
        (memo_locked (fun () -> Ilcheck.env_of_modules processed_modules))
    in
    let codegen m =
      let wmem = Memstats.create () in
      let acc = ref zero_llo_stats in
      let obj = llo_module ?check:llo_check ~mem:(Some wmem) ~layout acc m in
      (obj, !acc, wmem)
    in
    let replay (m : Ilmod.t) (obj, stats, max_charge) =
      if layout then
        List.iter
          (fun f ->
            ignore (Layout.run f);
            Option.iter (fun check -> check ~phase:"layout" f) llo_check)
          m.Ilmod.funcs;
      let wmem = Memstats.create () in
      Memstats.charge wmem Memstats.Llo max_charge;
      Memstats.release wmem Memstats.Llo max_charge;
      (obj, stats, wmem)
    in
    let code_hits = ref 0 in
    let code_misses = ref 0 in
    let lookup (m : Ilmod.t) =
      match cache with
      | None -> Code_miss None
      | Some store -> (
        let il =
          match Hashtbl.find_opt il_bytes m.Ilmod.mname with
          | Some bytes -> bytes
          | None -> Ilcodec.encode_module m
        in
        let key = code_key ~layout il in
        match
          Option.bind (Store.find store key) (fun bytes ->
              decode_code_entry bytes m.Ilmod.mname)
        with
        | Some entry ->
          incr code_hits;
          Obs.tick "cache.code" "hits" 1;
          Code_hit entry
        | None ->
          incr code_misses;
          Obs.tick "cache.code" "misses" 1;
          Code_miss (Some (store, key)))
    in
    let objects =
      Obs.with_span ~cat:"stage" "llo" @@ fun () ->
      let looked = List.map (fun m -> (m, lookup m)) processed_modules in
      let misses =
        List.filter_map
          (function m, Code_miss _ -> Some m | _, Code_hit _ -> None)
          looked
      in
      let fresh =
        ref
          (if misses = [] then []
           else
             Parwork.with_pool ~jobs (fun pool ->
                 Parwork.map pool codegen misses))
      in
      List.map
        (fun (m, found) ->
          let obj, stats, wmem =
            match (found, !fresh) with
            | Code_hit entry, _ -> replay m entry
            | Code_miss dest, ((obj, stats, wmem) as r) :: rest ->
              fresh := rest;
              Option.iter
                (fun (store, key) ->
                  Store.add store key
                    (encode_code_entry obj stats (Memstats.peak wmem)))
                dest;
              r
            | Code_miss _, [] -> assert false
          in
          llo_stats := add_llo_stats !llo_stats stats;
          Memstats.merge mem wmem;
          obj)
        looked
    in
    let llo_t1 = Sys.time () in
    let llo_w1 = Unix.gettimeofday () in
    (* Link, clustering routines when profiled. *)
    let image =
      Obs.with_span ~cat:"stage" "link" @@ fun () ->
      let routine_order =
        if options.Options.pbo then begin
          let weights = cluster_weights processed_modules in
          if weights = [] then None
          else
            Some
              (Obs.with_span ~cat:"link" "cluster" (fun () ->
                   Cluster.order
                     ~names:(all_func_names processed_modules)
                     ~weights))
        end
        else None
      in
      link_or_fail ?routine_order objects
    in
    let link_t1 = Sys.time () in
    let link_w1 = Unix.gettimeofday () in
    Log.info (fun m ->
        m "%s: llo %.3fs, link %.3fs, %d instrs"
          (Options.to_string options) (llo_t1 -. hlo_t1) (link_t1 -. llo_t1)
          (Array.length image.Image.code));
    {
      image;
      objects;
      manifest = None;
      report =
        {
          options;
          hlo = !hlo_report;
          loader_stats = !loader_stats;
          mem_peak = Memstats.peak mem;
          mem_peak_hlo = Memstats.peak_hlo mem;
          selection = !selection;
          llo = !llo_stats;
          frontend_seconds = 0.0;
          hlo_seconds = hlo_t1 -. hlo_t0;
          llo_seconds = llo_t1 -. hlo_t1;
          link_seconds = link_t1 -. llo_t1;
          frontend_wall_seconds = 0.0;
          hlo_wall_seconds = hlo_w1 -. hlo_w0;
          llo_wall_seconds = llo_w1 -. hlo_w1;
          link_wall_seconds = link_w1 -. llo_w1;
          workers_used = jobs;
          total_lines;
          cmo_lines = !cmo_lines;
          warm_lines = !warm_lines;
          cold_lines = !cold_lines;
          cache =
            Option.map
              (fun _ ->
                {
                  hits = !cache_hits;
                  misses = !cache_misses;
                  remote_hits = !remote_hits;
                  remote_misses = !remote_misses;
                  cmo_cached = !cmo_cached;
                  cmo_reoptimized = !cmo_reoptimized;
                  code_hits = !code_hits;
                  code_misses = !code_misses;
                })
              cache;
          obs = obs_summary ();
        };
    }
  end

let compile_modules ?profile ?cache ?naim_repo ?remote options modules =
  try compile_modules_inner ?profile ?cache ?naim_repo ?remote options modules
  with Ilcheck.Violation vs -> error "%s" (render_violations vs)

(* The trace lifecycle lives with whoever owns the whole build
   ([compile] here, [Buildsys.build] for the on-disk workflow):
   start the sink, run the build, write the file, stop.  A failed
   build stops the sink without writing — a partial trace with
   dangling spans would mislead more than it helps. *)
let with_tracing (options : Options.t) f =
  match options.Options.trace with
  | None -> f ()
  | Some path -> (
    Obs.start ();
    match f () with
    | v ->
      (try Fsio.atomic_write path (Obs.export ())
       with Sys_error m ->
         Obs.tick "obs" "export_errors" 1;
         Log.warn (fun f -> f "trace not written to %s (%s)" path m));
      Obs.stop ();
      v
    | exception e ->
      Obs.stop ();
      raise e)

let compile ?profile ?cache ?naim_repo ?remote options sources =
  with_tracing options @@ fun () ->
  let t0 = Sys.time () in
  let w0 = Unix.gettimeofday () in
  let modules =
    Obs.with_span ~cat:"stage" "frontend" (fun () ->
        frontend ~jobs:(max 1 options.Options.jobs) sources)
  in
  let t1 = Sys.time () in
  let w1 = Unix.gettimeofday () in
  let build =
    compile_modules ?profile ?cache ?naim_repo ?remote options modules
  in
  {
    build with
    report =
      {
        build.report with
        frontend_seconds = t1 -. t0;
        frontend_wall_seconds = w1 -. w0;
      };
  }

let run ?input ?fuel ?attribute build = Vm.run ?input ?fuel ?attribute build.image

let train ?(inputs = [ [||] ]) sources =
  let build = compile Options.instrumented sources in
  let manifest =
    match build.manifest with
    | Some m -> m
    | None -> error "instrumented build produced no manifest"
  in
  let db = Db.create () in
  List.iter
    (fun input ->
      let outcome = Vm.run ~input build.image in
      Probe.record_counters manifest outcome.Vm.probes db)
    inputs;
  db

let pp_report ppf r =
  Format.fprintf ppf "@[<v>%s" (Options.to_string r.options);
  Format.fprintf ppf "@,lines: %d total, %d in CMO set%s" r.total_lines
    r.cmo_lines
    (if r.warm_lines + r.cold_lines > 0 then
       Printf.sprintf " (%d warm, %d cold)" r.warm_lines r.cold_lines
     else "");
  Format.fprintf ppf
    "@,time: frontend %.3fs, hlo %.3fs, llo %.3fs, link %.3fs"
    r.frontend_seconds r.hlo_seconds r.llo_seconds r.link_seconds;
  if r.workers_used > 1 then
    Format.fprintf ppf
      "@,parallel: %d workers; wall frontend %.3fs, hlo %.3fs, llo %.3fs; \
       speedup %.2fx"
      r.workers_used r.frontend_wall_seconds r.hlo_wall_seconds
      r.llo_wall_seconds (par_speedup r);
  Format.fprintf ppf "@,memory peak: %d bytes (hlo %d)" r.mem_peak r.mem_peak_hlo;
  Format.fprintf ppf "@,llo: %d routines, %d instrs, %d spills, %d peeps"
    r.llo.Llo.routines r.llo.Llo.mach_instrs r.llo.Llo.spilled_vregs
    r.llo.Llo.peephole_rewrites;
  (match r.hlo with
  | Some h -> Format.fprintf ppf "@,%a" Hlo.pp_report h
  | None -> ());
  (match r.cache with
  | Some c ->
    Format.fprintf ppf
      "@,cache: %d module hits, %d misses; %d cmo cached, %d re-optimized; \
       codegen %d hits, %d misses"
      c.hits c.misses
      (List.length c.cmo_cached)
      (List.length c.cmo_reoptimized)
      c.code_hits c.code_misses;
    if c.remote_hits + c.remote_misses > 0 then
      Format.fprintf ppf "@,remote cache: %d hits, %d misses" c.remote_hits
        c.remote_misses
  | None -> ());
  (match r.selection with
  | Some s -> Format.fprintf ppf "@,%a" Selectivity.pp s
  | None -> ());
  (match r.obs with
  | Some s -> Format.fprintf ppf "@,%a" Obs.pp_summary s
  | None -> ());
  Format.fprintf ppf "@]"

(* Machine-readable report: every numeric field plus the derived
   cpu/wall aggregates, so downstream consumers (the bench tables,
   scripts diffing two builds) stop re-deriving arithmetic from the
   pretty-printer. *)
let report_to_json r =
  let num_i n = Json.Num (float_of_int n) in
  let opt f = function Some v -> f v | None -> Json.Null in
  Json.Obj
    [
      ("options", Json.Str (Options.to_string r.options));
      ( "lines",
        Json.Obj
          [
            ("total", num_i r.total_lines);
            ("cmo", num_i r.cmo_lines);
            ("warm", num_i r.warm_lines);
            ("cold", num_i r.cold_lines);
          ] );
      ( "cpu_seconds",
        Json.Obj
          [
            ("frontend", Json.Num r.frontend_seconds);
            ("hlo", Json.Num r.hlo_seconds);
            ("llo", Json.Num r.llo_seconds);
            ("link", Json.Num r.link_seconds);
            ("phases", Json.Num (phase_cpu_seconds r));
          ] );
      ( "wall_seconds",
        Json.Obj
          [
            ("frontend", Json.Num r.frontend_wall_seconds);
            ("hlo", Json.Num r.hlo_wall_seconds);
            ("llo", Json.Num r.llo_wall_seconds);
            ("link", Json.Num r.link_wall_seconds);
            ("phases", Json.Num (phase_wall_seconds r));
          ] );
      ("workers_used", num_i r.workers_used);
      ("par_speedup", Json.Num (par_speedup r));
      ( "memory",
        Json.Obj
          [ ("peak", num_i r.mem_peak); ("peak_hlo", num_i r.mem_peak_hlo) ]
      );
      ( "llo",
        Json.Obj
          [
            ("routines", num_i r.llo.Llo.routines);
            ("mach_instrs", num_i r.llo.Llo.mach_instrs);
            ("spilled_vregs", num_i r.llo.Llo.spilled_vregs);
            ("peephole_rewrites", num_i r.llo.Llo.peephole_rewrites);
            ("layout_changes", num_i r.llo.Llo.layout_changes);
          ] );
      ( "hlo",
        opt
          (fun (h : Hlo.report) ->
            Json.Obj
              [
                ("clones", num_i h.Hlo.clones);
                ("funcs_optimized", num_i h.Hlo.funcs_optimized);
                ("funcs_skipped", num_i h.Hlo.funcs_skipped);
                ("rewrites", num_i h.Hlo.rewrites);
                ( "inline_operations",
                  opt
                    (fun (s : Inline.stats) -> num_i s.Inline.operations)
                    h.Hlo.inline_stats );
              ])
          r.hlo );
      ( "loader",
        opt
          (fun (s : Loader.stats) ->
            Json.Obj
              [
                ("acquires", num_i s.Loader.acquires);
                ("cache_hits", num_i s.Loader.cache_hits);
                ("uncompactions", num_i s.Loader.uncompactions);
                ("repo_loads", num_i s.Loader.repo_loads);
                ("compactions", num_i s.Loader.compactions);
                ("offloads", num_i s.Loader.offloads);
                ("symtab_compactions", num_i s.Loader.symtab_compactions);
              ])
          r.loader_stats );
      ( "cache",
        opt
          (fun c ->
            Json.Obj
              [
                ("hits", num_i c.hits);
                ("misses", num_i c.misses);
                ("remote_hits", num_i c.remote_hits);
                ("remote_misses", num_i c.remote_misses);
                ("code_hits", num_i c.code_hits);
                ("code_misses", num_i c.code_misses);
                ( "cmo_cached",
                  Json.Arr (List.map (fun n -> Json.Str n) c.cmo_cached) );
                ( "cmo_reoptimized",
                  Json.Arr (List.map (fun n -> Json.Str n) c.cmo_reoptimized)
                );
              ])
          r.cache );
      ( "trace",
        opt
          (fun (s : Obs.summary) ->
            Json.Obj
              [
                ("events", num_i s.Obs.event_count);
                ("tracks", num_i s.Obs.track_count);
                ("open_spans", num_i s.Obs.open_spans);
                ( "counters",
                  Json.Obj
                    (List.map (fun (k, v) -> (k, Json.Num v)) s.Obs.counters)
                );
              ])
          r.obs );
    ]
