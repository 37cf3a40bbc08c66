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
  let modules = Parwork.map_jobs ~jobs frontend_one sources in
  (match Verify.check_program modules with
  | [] -> ()
  | issues ->
    error "@[<v>IL verification failed:@,%a@]"
      (Format.pp_print_list ~pp_sep:Format.pp_print_cut Verify.pp_issue)
      issues);
  modules

let src_lines = List.fold_left (fun acc m -> acc + Ilmod.src_lines m) 0

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

let link_objects ?routine_order objects =
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

(* Checker factory: [None] when [check] is off, so the optimizers skip
   the hook entirely; the environment is deferred (and shared by the
   worker pool) because a snapshot costs a pass over the program. *)
let checker (options : Options.t) env_of =
  if not options.Options.check then None
  else
    let env = Parwork.memo_locked env_of in
    Some (fun ~phase f -> Ilcheck.check_func_exn ~env:(env ()) ~phase f)

(* --- the report --------------------------------------------------- *)

(* Trace summary for the report, captured while the sink is live. *)
let obs_summary () = if Obs.enabled () then Some (Obs.summary ()) else None

let empty_report options =
  {
    options;
    hlo = None;
    loader_stats = None;
    mem_peak = 0;
    mem_peak_hlo = 0;
    selection = None;
    llo = Llo.zero_stats;
    frontend_seconds = 0.0;
    hlo_seconds = 0.0;
    llo_seconds = 0.0;
    link_seconds = 0.0;
    frontend_wall_seconds = 0.0;
    hlo_wall_seconds = 0.0;
    llo_wall_seconds = 0.0;
    link_wall_seconds = 0.0;
    workers_used = 1;
    total_lines = 0;
    cmo_lines = 0;
    warm_lines = 0;
    cold_lines = 0;
    cache = None;
    obs = obs_summary ();
  }

(* [f ()] with the cpu and wall seconds it took. *)
let timed f =
  let t0 = Sys.time () and w0 = Unix.gettimeofday () in
  let v = f () in
  (v, Sys.time () -. t0, Unix.gettimeofday () -. w0)

(* --- the stages ------------------------------------------------------

   Every build runs annotate, select, outside (+O2), plan, ltrans,
   codegen and link, in that order; +I skips straight from
   instrumentation to codegen.  A store, the worker count and
   distribution decide only where a unit's work comes from — never
   which units exist or how their results merge — so they cannot
   change an artifact, a report count or a modeled peak. *)

(* What the stages of one build share. *)
type ctx = {
  options : Options.t;
  store : Store.t option;
  remote : Distwork.remote option;
  naim_repo : Cmo_naim.Repository.t option;
  mem : Memstats.t;  (* the build's; unit and codegen accountants merge in *)
  il_bytes : (string, string) Hashtbl.t;
      (* post-HLO IL bytes the store path already holds, by module:
         the codegen key reuses them instead of re-encoding *)
  mutable hits : int;
  mutable misses : int;
  mutable remote_hits : int;
  mutable remote_misses : int;
  mutable code_hits : int;
  mutable code_misses : int;
}

(* Decode a stored module artifact, keeping its bytes for the codegen
   key; anything unexpected — corrupt bytes, a key collision
   surfacing as the wrong module — degrades to a miss. *)
let decode_artifact (ctx : ctx) bytes mname =
  match Ilcodec.decode_module bytes with
  | m when m.Ilmod.mname = mname ->
    Hashtbl.replace ctx.il_bytes mname bytes;
    Some m
  | _ -> None
  | exception Codec.Reader.Corrupt _ -> None

(* Persist a fresh artifact and publish it to the remote cache, whose
   own wrapper absorbs failures (a dead daemon must not fail the
   build). *)
let add_artifact (ctx : ctx) store key mname bytes =
  Hashtbl.replace ctx.il_bytes mname bytes;
  Store.add store key bytes;
  Option.iter (fun r -> r.Distwork.remote_put key bytes) ctx.remote

(* The local store first, then the remote cache; a validated remote
   artifact is adopted into the local store so the next build hits
   locally.  Lookups run only on the serial path (the outside sweep
   and ltrans' fetch), so store bytes do not depend on [jobs]. *)
let fetch_module (ctx : ctx) store key mname =
  let tick name = Obs.tick "cache.module" name 1 in
  match
    Option.bind (Store.find store key) (fun b -> decode_artifact ctx b mname)
  with
  | Some m ->
    ctx.hits <- ctx.hits + 1;
    tick "hits";
    Some m
  | None ->
    let adopted =
      Option.bind ctx.remote (fun r ->
          match
            Option.bind (r.Distwork.remote_get key) (fun bytes ->
                Option.map
                  (fun m -> (m, bytes))
                  (decode_artifact ctx bytes mname))
          with
          | Some (m, bytes) ->
            Store.add store key bytes;
            ctx.remote_hits <- ctx.remote_hits + 1;
            tick "remote_hits";
            Some m
          | None ->
            ctx.remote_misses <- ctx.remote_misses + 1;
            tick "remote_misses";
            None)
    in
    if Option.is_none adopted then begin
      ctx.misses <- ctx.misses + 1;
      tick "misses"
    end;
    adopted

let annotate ?profile (options : Options.t) modules =
  match profile with
  | Some db when options.Options.pbo -> ignore (Correlate.annotate db modules)
  | Some _ | None -> Correlate.clear modules

(* select: the CMO set, the modules outside it, and the selectivity
   decision that chose them. *)
let select (options : Options.t) modules =
  let split names =
    List.partition (fun (m : Ilmod.t) -> List.mem m.Ilmod.mname names) modules
  in
  match (options.Options.cmo_modules, options.Options.selectivity) with
  | Some names, _ ->
    (* Explicit set: the bug-isolation driver's reduction axis. *)
    let cmo_set, outside = split names in
    (cmo_set, outside, None)
  | None, Some percent when options.Options.pbo ->
    let sel = Selectivity.select ~percent modules in
    let cmo_set, outside = split sel.Selectivity.cmo_modules in
    (cmo_set, outside, Some sel)
  | None, (Some _ | None) -> (modules, [], None)

let optimize_o2 (ctx : ctx) ~check (m : Ilmod.t) =
  List.iter
    (fun f -> ignore (Phase.optimize_func ~mem:ctx.mem ?check f))
    m.Ilmod.funcs

let module_is_cold (m : Ilmod.t) =
  List.for_all
    (fun (f : Func.t) ->
      List.for_all (fun (b : Func.block) -> b.Func.freq = 0.0) f.Func.blocks)
    m.Ilmod.funcs

(* outside: the paper, section 5: "The remaining modules bypass HLO
   entirely, and are optimized at the default optimization level
   using PBO."  Under the tiered mode (the section-8 multi-layered
   future work), modules the profile never saw execute also skip the
   default-level scalar optimization.  The work is per module, keyed
   on the annotated IL alone.  Returns the modules with their warm
   and cold line counts. *)
let optimize_outside (ctx : ctx) ~check outside =
  let warm = ref 0 and cold = ref 0 in
  let one (m : Ilmod.t) =
    if ctx.options.Options.tiered && module_is_cold m then begin
      cold := !cold + Ilmod.src_lines m;
      m
    end
    else begin
      warm := !warm + Ilmod.src_lines m;
      match ctx.store with
      | None ->
        optimize_o2 ctx ~check m;
        m
      | Some store -> (
        let key =
          Fingerprint.of_strings [ "o2out1"; Ilcodec.encode_module m ]
        in
        match fetch_module ctx store key m.Ilmod.mname with
        | Some cached -> cached
        | None ->
          optimize_o2 ctx ~check m;
          add_artifact ctx store key m.Ilmod.mname (Ilcodec.encode_module m);
          m)
    end
  in
  let modules = List.map one outside in
  (modules, !warm, !cold)

(* One unit of link-time CMO: an invalidation component when the set
   decomposes, else the whole CMO set (GCC's LTRANS partition). *)
type ltrans_unit = {
  members : Ilmod.t list;  (* in CMO-set order *)
  rootless : bool;
      (* no root here while roots exist elsewhere: the whole-set run's
         IPA removes every one of its functions as unreachable, so its
         optimized form is the empty-bodied modules — running HLO here
         would instead hit IPA's keep-everything guard *)
}

(* The serial WPA step's result, fixed before any unit runs (and so
   before any loader empties a module it registers). *)
type plan = {
  called : (string, unit) Hashtbl.t;  (* called from outside the set *)
  stored : (string, unit) Hashtbl.t;  (* stored from outside the set *)
  units : ltrans_unit list;  (* ordered by first member *)
  keys : (string, string) Hashtbl.t;
      (* module artifact keys by module; empty without a store *)
}

(* plan: the external context (the non-CMO modules' calls and stores
   into the set), the roots, decomposability, the units and — when a
   store is attached — the artifact keys.  [Invalidate.compute] runs
   only when the split or a key needs it. *)
let plan (ctx : ctx) ~selection ~outside cmo_set =
  let options = ctx.options in
  let called, stored = external_context outside in
  let has_root members =
    List.exists
      (fun (m : Ilmod.t) ->
        List.exists
          (fun (f : Func.t) ->
            f.Func.name = "main" || f.Func.linkage = Func.Exported
            || Hashtbl.mem called f.Func.name)
          m.Ilmod.funcs)
      members
  in
  let roots_exist = has_root cmo_set in
  (* Per-component treatment is exact only when every global decision
     decomposes by component: profile-guided cloning uses program-wide
     counters and name allocation, and the bug-isolation operation
     limits are program-wide budgets, so those modes run the whole set
     as one unit.  Likewise the degenerate rootless program, where
     IPA's keep-everything guard is not component-local. *)
  let decomposable =
    (not options.Options.pbo)
    && options.Options.inline_limit = None
    && options.Options.rewrite_limit = None
    && roots_exist
  in
  let part = lazy (Invalidate.compute cmo_set) in
  let units =
    (if cmo_set = [] then []
     else if decomposable then begin
       let by_name = Hashtbl.create 16 in
       List.iter
         (fun (m : Ilmod.t) -> Hashtbl.replace by_name m.Ilmod.mname m)
         cmo_set;
       List.map (List.map (Hashtbl.find by_name))
         (Invalidate.components (Lazy.force part))
     end
     else [ cmo_set ])
    |> List.map (fun members ->
           { members; rootless = roots_exist && not (has_root members) })
  in
  let keys = Hashtbl.create 16 in
  if Option.is_some ctx.store then begin
    let prefix =
      [
        "cmo1";
        Options.cache_fingerprint options;
        (match selection with
        | None -> "nosel"
        | Some sel ->
          Fingerprint.of_strings
            (("sel" :: sel.Selectivity.cmo_modules)
            @ ("|" :: sel.Selectivity.hot_functions)));
      ]
    in
    (* A module's key: its unit's (name, digest) pairs plus the slice
       of the external context the unit can observe — external
       callers pin IPA argument lattices and keep functions alive;
       external stores block const-global folding. *)
    List.iter
      (fun u ->
        let names = List.map (fun (m : Ilmod.t) -> m.Ilmod.mname) u.members in
        let ext_called =
          List.filter (Hashtbl.mem called) (all_func_names u.members)
          |> List.sort String.compare
        in
        let ext_stored =
          List.concat_map (Invalidate.global_refs (Lazy.force part)) names
          |> List.sort_uniq String.compare
          |> List.filter (Hashtbl.mem stored)
        in
        let parts =
          List.concat_map
            (fun (m : Ilmod.t) ->
              [
                m.Ilmod.mname;
                Fingerprint.of_strings [ Ilcodec.encode_module m ];
              ])
            u.members
          @ ("|called" :: ext_called)
          @ ("|stored" :: ext_stored)
        in
        List.iter
          (fun name ->
            Hashtbl.replace keys name
              (Fingerprint.of_strings (prefix @ (name :: "|comp" :: parts))))
          names)
      units
  end;
  { called; stored; units; keys }

(* One unit's outcome, merged on the coordinator in unit order. *)
type unit_result = {
  out : (Ilmod.t * string option) list;
      (* each optimized module, with the worker process's own encoding
         when one ran the unit: stored verbatim, the bytes that crossed
         the wire define the artifact, with no parent-side re-encode in
         between *)
  hlo_stats : (Hlo.report * Loader.stats) option;  (* None when rootless *)
  unit_mem : Memstats.t;
  txn : Store.txn option;
      (* the transaction to commit: after a lost worker its
         replacement, never the abandoned original *)
}

let keys_of tbl =
  Hashtbl.fold (fun k () acc -> k :: acc) tbl [] |> List.sort String.compare

(* Optimize one unit with its own NAIM loader, accountant and store
   transaction — in process through {!Distwork.optimize_subset}, or as
   a partition job on a pooled worker process running that same code,
   which is what keeps distribution byte-invisible.  The external
   context is always the non-CMO modules': units are closed under
   calls and shared globals, so other units cannot observe this one.
   A lost worker leaves its transaction holding a partial op log that
   must never commit: it is abandoned, and the unit is redone locally
   on a fresh one, whose log then matches the oracle's exactly. *)
let run_unit (ctx : ctx) ~selection ~check_base ~dist_pool plan u =
  Obs.with_span ~cat:"component" (List.hd u.members).Ilmod.mname @@ fun () ->
  let unit_mem = Memstats.create () in
  let begin_txn () = Option.map Store.txn_begin ctx.store in
  let phase_cache_of = Option.map Hlo.txn_phase_cache in
  let local txn =
    let out, report, lstats =
      Distwork.optimize_subset ?phase_cache:(phase_cache_of txn)
        ?naim_repo:ctx.naim_repo
        ?hot_filter:
          (Option.map
             (fun sel name -> Selectivity.is_hot_function sel name)
             selection)
        ~check_base ~options:ctx.options
        ~externally_called:(Hashtbl.mem plan.called)
        ~externally_stored:(Hashtbl.mem plan.stored) ~mem:unit_mem u.members
    in
    (List.map (fun m -> (m, None)) out, Some (report, lstats), txn)
  in
  (* A partition job carries everything the serial WPA step computed
     for this unit: the encoded modules, the external context, the
     hot-function selection and the full option record. *)
  let remote pool txn =
    let payload =
      Distwork.run_job pool ?phase_cache:(phase_cache_of txn)
        {
          Distwork.job_options = ctx.options;
          job_modules = List.map Ilcodec.encode_module u.members;
          job_called = keys_of plan.called;
          job_stored = keys_of plan.stored;
          job_hot =
            Option.map (fun sel -> sel.Selectivity.hot_functions) selection;
          job_phase_cache = false (* run_job decides *);
        }
    in
    Memstats.merge unit_mem
      (Distwork.memstats_of_summary payload.Distwork.done_mem);
    ( List.map
        (fun b -> (Ilcodec.decode_module b, Some b))
        payload.Distwork.done_modules,
      Some (payload.Distwork.done_report, payload.Distwork.done_lstats),
      txn )
  in
  let out, hlo_stats, txn =
    let txn = begin_txn () in
    if u.rootless then
      ( List.map
          (fun (m : Ilmod.t) -> ({ m with Ilmod.funcs = [] }, None))
          u.members,
        None,
        txn )
    else
      match dist_pool with
      | None -> local txn
      | Some pool -> (
        try remote pool txn with Distwork.Worker_lost -> local (begin_txn ()))
  in
  { out; hlo_stats; unit_mem; txn }

(* WHOPR-style distribution: one worker pool per build — remote
   [--workers] endpoints dialed on demand, local processes spawned on
   demand.  A missing worker binary (with no endpoints) degrades the
   whole build to in-process execution, never an error: [dist] is a
   behaviour-preserving knob like [jobs]. *)
let with_dist_pool (options : Options.t) f =
  let pool =
    if not options.Options.dist then None
    else
      match
        Distwork.create_pool ~workers:options.Options.workers
          ?timeout_s:options.Options.dist_timeout ()
      with
      | pool -> Some pool
      | exception Distwork.Unavailable msg ->
        Log.warn (fun m -> m "dist: %s; building in-process" msg);
        None
  in
  Fun.protect
    ~finally:(fun () -> Option.iter Distwork.close_pool pool)
    (fun () -> f pool)

(* What the optimization stages hand to codegen, link and the report. *)
type optimized = {
  modules : Ilmod.t list;  (* the CMO set in CMO-set order, then the rest *)
  manifest : Probe.manifest option;  (* +I only *)
  hlo : Hlo.report option;
  loader_stats : Loader.stats option;
  selection : Selectivity.t option;
  cmo_lines : int;
  warm_lines : int;
  cold_lines : int;
  cmo_cached : string list;
  cmo_reoptimized : string list;
}

let unoptimized modules =
  {
    modules;
    manifest = None;
    hlo = None;
    loader_stats = None;
    selection = None;
    cmo_lines = 0;
    warm_lines = 0;
    cold_lines = 0;
    cmo_cached = [];
    cmo_reoptimized = [];
  }

(* ltrans: fetch every key in CMO-set order, run each stale unit
   (every unit without a store) through [run_unit] on the worker pool,
   then, in unit order, merge accountants and reports and commit every
   transaction — and only then add the fresh module artifacts.  Every
   fetch happens before any unit starts, so the transactions' snapshot
   view of the store is fixed. *)
let ltrans (ctx : ctx) ~selection ~check_base plan cmo_set =
  let fetched = Hashtbl.create 16 in
  Option.iter
    (fun store ->
      List.iter
        (fun (m : Ilmod.t) ->
          let name = m.Ilmod.mname in
          Option.iter (Hashtbl.replace fetched name)
            (fetch_module ctx store (Hashtbl.find plan.keys name) name))
        cmo_set)
    ctx.store;
  let stale =
    List.filter
      (fun u ->
        List.exists
          (fun (m : Ilmod.t) -> not (Hashtbl.mem fetched m.Ilmod.mname))
          u.members)
      plan.units
  in
  let results =
    with_dist_pool ctx.options (fun dist_pool ->
        Parwork.map_jobs ~jobs:ctx.options.Options.jobs
          (run_unit ctx ~selection ~check_base ~dist_pool plan)
          stale)
  in
  let merged = ref None in
  List.iter
    (fun r ->
      Memstats.merge ctx.mem r.unit_mem;
      Option.iter
        (fun (report, lstats) ->
          merged :=
            Some
              (match !merged with
              | None -> (report, lstats)
              | Some (h, l) ->
                (Hlo.merge_reports h report, merge_loader_stats l lstats)))
        r.hlo_stats;
      Option.iter Store.txn_commit r.txn)
    results;
  let optimized = Hashtbl.create 16 in
  List.iter
    (fun r ->
      List.iter
        (fun ((m : Ilmod.t), wire) ->
          let name = m.Ilmod.mname in
          Hashtbl.replace optimized name m;
          match (ctx.store, Hashtbl.find_opt plan.keys name) with
          | Some store, Some key ->
            add_artifact ctx store key name
              (match wire with Some b -> b | None -> Ilcodec.encode_module m)
          | _ -> ())
        r.out)
    results;
  let reoptimized, cached =
    List.partition
      (fun (m : Ilmod.t) -> Hashtbl.mem optimized m.Ilmod.mname)
      cmo_set
  in
  let names = List.map (fun (m : Ilmod.t) -> m.Ilmod.mname) in
  {
    (unoptimized
       (List.map
          (fun (m : Ilmod.t) ->
            match Hashtbl.find_opt optimized m.Ilmod.mname with
            | Some m' -> m'
            | None -> Hashtbl.find fetched m.Ilmod.mname)
          cmo_set))
    with
    hlo = Option.map fst !merged;
    loader_stats = Option.map snd !merged;
    cmo_cached = names cached;
    cmo_reoptimized = names reoptimized;
  }

(* The optimization stages for the build's level. *)
let optimize (ctx : ctx) modules =
  (* The whole-program view as the frontends delivered it: valid for
     every check until HLO starts adding and removing functions. *)
  let check = checker ctx.options (fun () -> Ilcheck.env_of_modules modules) in
  match ctx.options.Options.level with
  | Options.O1 -> unoptimized modules
  | Options.O2 ->
    List.iter (optimize_o2 ctx ~check) modules;
    unoptimized modules
  | Options.O4 ->
    let cmo_set, outside, selection = select ctx.options modules in
    let cmo_lines = src_lines cmo_set in
    let outside, warm_lines, cold_lines = optimize_outside ctx ~check outside in
    let plan = plan ctx ~selection ~outside cmo_set in
    (* What link-time CMO may reference beyond its own loader: the
       non-CMO modules' functions and globals, snapshot once and
       shared read-only by every unit. *)
    let check_base =
      Parwork.memo_locked (fun () -> Ilcheck.env_of_modules outside)
    in
    let o = ltrans ctx ~selection ~check_base plan cmo_set in
    {
      o with
      modules = o.modules @ outside;
      selection;
      cmo_lines;
      warm_lines;
      cold_lines;
    }

(* codegen: per-module and independent.  Each module compiles with
   its own stats and accountant, merged in module order, so objects,
   stats and modeled peaks are the same at every [jobs].

   With a store attached, the codegen tier serves modules whose
   post-HLO IL it has seen before, keyed on those IL bytes, the
   [layout] flag and [code_format].  A hit replays what LLO leaves
   behind: block layout (and its check) on the IL the linker's
   clustering reads, the stored stats, and the stored peak charged and
   released.  Lookups and adds run serially in module order and only
   misses go to the pool, so the store's bytes do not depend on
   [jobs]. *)
let codegen (ctx : ctx) ~layout modules =
  Obs.with_span ~cat:"stage" "llo" @@ fun () ->
  (* Post-CMO view: clones present, IPA-removed routines gone — a
     reference that dangles here would dangle at link time too. *)
  let check = checker ctx.options (fun () -> Ilcheck.env_of_modules modules) in
  let compile (m : Ilmod.t) =
    let wmem = Memstats.create () in
    let codes, stats = Llo.compile_module ~mem:wmem ?check ~layout m in
    ( Objfile.of_code ~module_name:m.Ilmod.mname ~globals:m.Ilmod.globals
        ~source_digest:"" codes,
      stats,
      wmem )
  in
  let replay (m : Ilmod.t) (obj, stats, max_charge) =
    if layout then
      List.iter
        (fun f ->
          ignore (Layout.run f);
          Option.iter (fun check -> check ~phase:"layout" f) check)
        m.Ilmod.funcs;
    let wmem = Memstats.create () in
    Memstats.charge wmem Memstats.Llo max_charge;
    Memstats.release wmem Memstats.Llo max_charge;
    (obj, stats, wmem)
  in
  let lookup (m : Ilmod.t) =
    match ctx.store with
    | None -> Code_miss None
    | Some store -> (
      let il =
        match Hashtbl.find_opt ctx.il_bytes m.Ilmod.mname with
        | Some bytes -> bytes
        | None -> Ilcodec.encode_module m
      in
      let key = code_key ~layout il in
      match
        Option.bind (Store.find store key) (fun bytes ->
            decode_code_entry bytes m.Ilmod.mname)
      with
      | Some entry ->
        ctx.code_hits <- ctx.code_hits + 1;
        Obs.tick "cache.code" "hits" 1;
        Code_hit entry
      | None ->
        ctx.code_misses <- ctx.code_misses + 1;
        Obs.tick "cache.code" "misses" 1;
        Code_miss (Some (store, key)))
  in
  let looked = List.map (fun m -> (m, lookup m)) modules in
  let fresh =
    ref
      (Parwork.map_jobs ~jobs:ctx.options.Options.jobs compile
         (List.filter_map
            (function m, Code_miss _ -> Some m | _, Code_hit _ -> None)
            looked))
  in
  let stats = ref Llo.zero_stats in
  let objects =
    List.map
      (fun (m, found) ->
        let obj, s, wmem =
          match (found, !fresh) with
          | Code_hit entry, _ -> replay m entry
          | Code_miss dest, ((obj, s, wmem) as r) :: rest ->
            fresh := rest;
            Option.iter
              (fun (store, key) ->
                Store.add store key
                  (encode_code_entry obj s (Memstats.peak wmem)))
              dest;
            r
          | Code_miss _, [] -> assert false
        in
        stats := Llo.add_stats !stats s;
        Memstats.merge ctx.mem wmem;
        obj)
      looked
  in
  (objects, !stats)

(* link, clustering routines when profiled. *)
let link ~cluster modules objects =
  Obs.with_span ~cat:"stage" "link" @@ fun () ->
  let routine_order =
    if not cluster then None
    else
      match cluster_weights modules with
      | [] -> None
      | weights ->
        Some
          (Obs.with_span ~cat:"link" "cluster" (fun () ->
               Cluster.order ~names:(all_func_names modules) ~weights))
  in
  link_objects ?routine_order objects

let compile_modules_inner ?profile ?cache ?naim_repo ?remote
    (options : Options.t) modules =
  let instrument = options.Options.instrument in
  let ctx : ctx =
    {
      options;
      store = (if instrument then None else cache);
      remote;
      naim_repo;
      mem = Memstats.create ();
      il_bytes = Hashtbl.create 16;
      hits = 0;
      misses = 0;
      remote_hits = 0;
      remote_misses = 0;
      code_hits = 0;
      code_misses = 0;
    }
  in
  let total_lines = src_lines modules in
  let o, hlo_cpu, hlo_wall =
    if instrument then
      (* +I: instrument and build without optimization.  Probe
         numbering is a global sequence, so this step stays serial. *)
      timed (fun () ->
          let instrumented, manifest = Probe.instrument modules in
          { (unoptimized instrumented) with manifest = Some manifest })
    else begin
      annotate ?profile options modules;
      timed (fun () ->
          Obs.with_span ~cat:"stage" "hlo" (fun () -> optimize ctx modules))
    end
  in
  Log.info (fun m ->
      m "%s: hlo %.3fs, cmo %d/%d lines" (Options.to_string options) hlo_cpu
        o.cmo_lines total_lines);
  let profiled = options.Options.pbo && not instrument in
  let (objects, llo), llo_cpu, llo_wall =
    timed (fun () ->
        codegen ctx
          ~layout:(profiled && options.Options.level <> Options.O1)
          o.modules)
  in
  let image, link_cpu, link_wall =
    timed (fun () -> link ~cluster:profiled o.modules objects)
  in
  Log.info (fun m ->
      m "%s: llo %.3fs, link %.3fs, %d instrs" (Options.to_string options)
        llo_cpu link_cpu (Array.length image.Image.code));
  let report =
    {
      (empty_report options) with
      hlo = o.hlo;
      loader_stats = o.loader_stats;
      mem_peak = Memstats.peak ctx.mem;
      mem_peak_hlo = Memstats.peak_hlo ctx.mem;
      selection = o.selection;
      llo;
      hlo_seconds = hlo_cpu;
      llo_seconds = llo_cpu;
      link_seconds = link_cpu;
      hlo_wall_seconds = hlo_wall;
      llo_wall_seconds = llo_wall;
      link_wall_seconds = link_wall;
      workers_used = max 1 options.Options.jobs;
      total_lines;
      cmo_lines = o.cmo_lines;
      warm_lines = o.warm_lines;
      cold_lines = o.cold_lines;
      cache =
        Option.map
          (fun _ : cache_usage ->
            {
              hits = ctx.hits;
              misses = ctx.misses;
              remote_hits = ctx.remote_hits;
              remote_misses = ctx.remote_misses;
              cmo_cached = o.cmo_cached;
              cmo_reoptimized = o.cmo_reoptimized;
              code_hits = ctx.code_hits;
              code_misses = ctx.code_misses;
            })
          ctx.store;
    }
  in
  { image; objects; manifest = o.manifest; report }

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

let pp_report ppf (r : report) =
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
let report_to_json (r : report) =
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
          (fun (c : cache_usage) ->
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
