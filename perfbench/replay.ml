(* Outside-in replay of one build.

   The replay calls each layer's public functions in the order
   [Pipeline.compile] calls them and times every call at its
   boundary.  Timers never nest, so each one is a self time and
   their sum is the attributed share of the replayed op's wall.  The
   callers check that the replay produces the same image, objects,
   rewrites and modeled peak as an untraced [Pipeline.compile] of the
   same inputs, so the per-layer numbers always describe the program
   the end-to-end numbers measured. *)

open Cmo_driver
module Ilmod = Cmo_il.Ilmod
module Func = Cmo_il.Func
module Instr = Cmo_il.Instr
module Verify = Cmo_il.Verify
module Callgraph = Cmo_il.Callgraph
module Intrinsics = Cmo_il.Intrinsics
module Ilcodec = Cmo_il.Ilcodec
module Frontend = Cmo_frontend.Frontend
module Correlate = Cmo_profile.Correlate
module Loader = Cmo_naim.Loader
module Memstats = Cmo_naim.Memstats
module Repository = Cmo_naim.Repository
module Hlo = Cmo_hlo.Hlo
module Clone = Cmo_hlo.Clone
module Inline = Cmo_hlo.Inline
module Ipa = Cmo_hlo.Ipa
module Phase = Cmo_hlo.Phase
module Dominators = Cmo_hlo.Dominators
module Liveness = Cmo_hlo.Liveness
module Loopinfo = Cmo_hlo.Loopinfo
module Invalidate = Cmo_cache.Invalidate
module Llo = Cmo_llo.Llo
module Layout = Cmo_llo.Layout
module Isel = Cmo_llo.Isel
module Sched = Cmo_llo.Sched
module Regalloc = Cmo_llo.Regalloc
module Peephole = Cmo_llo.Peephole
module Codegen = Cmo_llo.Codegen
module Mach = Cmo_llo.Mach
module Objfile = Cmo_link.Objfile
module Cluster = Cmo_link.Cluster
module Linker = Cmo_link.Linker
module Image = Cmo_link.Image

(* --- the per-layer ledger ----------------------------------------- *)

type ledger = {
  values : (string, float) Hashtbl.t;
  mutable attributed : float;  (* summed self time of every timer *)
}

let ledger () = { values = Hashtbl.create 128; attributed = 0.0 }

let add l key v =
  Hashtbl.replace l.values key
    (v +. Option.value ~default:0.0 (Hashtbl.find_opt l.values key))

let count l key n = add l key (float_of_int n)

let get l key = Option.value ~default:0.0 (Hashtbl.find_opt l.values key)

(* Time [f] as [key]; [self] (default true) adds it to the attributed
   share of the replayed op's wall. *)
let timed ?(self = true) l key f =
  let t0 = Unix.gettimeofday () in
  let v = f () in
  let dt = Unix.gettimeofday () -. t0 in
  add l key dt;
  if self then l.attributed <- l.attributed +. dt;
  v

exception Mismatch of string

let mismatch fmt = Printf.ksprintf (fun s -> raise (Mismatch s)) fmt

(* --- 1. frontend and profile annotation --------------------------- *)

let frontend_one (s : Pipeline.source) =
  match Frontend.compile ~module_name:s.Pipeline.name s.Pipeline.text with
  | Ok m when Verify.check_module m = [] -> m
  | Ok _ | Error _ -> mismatch "frontend rejected %s" s.Pipeline.name

(* [program] (default true) also verifies cross-module references, as
   a whole-program compile does; a build system compiling only edited
   modules verifies each on its own. *)
let frontend ?(program = true) l sources =
  let modules =
    timed l "frontend.s" (fun () ->
        let ms = List.map frontend_one sources in
        if program && Verify.check_program ms <> [] then
          mismatch "program fails verification";
        ms)
  in
  count l "frontend.modules" (List.length sources);
  count l "frontend.lines"
    (List.fold_left (fun acc m -> acc + Ilmod.src_lines m) 0 modules);
  modules

let annotate l (options : Options.t) profile modules =
  timed l "profile.correlate_s" (fun () ->
      match (options.Options.pbo, profile) with
      | true, Some db -> ignore (Correlate.annotate db modules)
      | _ -> Correlate.clear modules)

(* --- 4. the per-routine scalar ladder ------------------------------ *)

(* [Phase.optimize_func] unrolled: the same rounds, the same derived
   analysis charge and the same [Phase.passes] ladder, with each pass
   and the derived recompute timed on its own. *)
let max_rounds = 4

let optimize_func l ~mem f =
  let total = ref 0 and rounds = ref 0 and changed = ref true in
  while !changed && !rounds < max_rounds do
    incr rounds;
    let bytes =
      timed l "hlo.derived_s" (fun () ->
          let doms = Dominators.compute f in
          let live = Liveness.compute f in
          let loops = Loopinfo.compute f in
          Dominators.modeled_bytes doms + Liveness.modeled_bytes live
          + Loopinfo.modeled_bytes loops)
    in
    Memstats.charge mem Memstats.Derived bytes;
    let n =
      List.fold_left
        (fun acc (name, pass) ->
          let k = timed l ("hlo.pass." ^ name ^ ".s") (fun () -> pass f) in
          count l ("hlo.pass." ^ name ^ ".rewrites") k;
          acc + k)
        0 Phase.passes
    in
    Memstats.release mem Memstats.Derived bytes;
    total := !total + n;
    changed := n > 0
  done;
  count l "hlo.rounds" !rounds;
  !total

(* --- 2-4. link-time CMO over one subset --------------------------- *)

(* [Distwork.optimize_subset] and [Hlo.run] unrolled (no phase cache,
   no rewrite limit, no hot filter: the workloads use none). *)
let optimize_subset l ~(options : Options.t) ~externally_called
    ~externally_stored ~mem subset =
  let cg = timed l "hlo.callgraph_s" (fun () -> Callgraph.build subset) in
  let main_in_set =
    List.exists
      (fun (m : Ilmod.t) ->
        List.exists (fun f -> f.Func.name = "main") m.Ilmod.funcs)
      subset
  in
  let repo = Repository.in_memory () in
  let loader =
    timed l "naim.register_s" (fun () ->
        let loader =
          Loader.create ~repo
            {
              Loader.default_config with
              Loader.machine_memory = options.Options.machine_memory;
              forced_level = options.Options.naim_level;
            }
            mem
        in
        List.iter (Loader.register_module loader) subset;
        loader)
  in
  let base = Hlo.o4_options ~profile:options.Options.pbo in
  (match base.Hlo.clone with
  | Some config ->
    count l "hlo.clones"
      (timed l "hlo.clone_s" (fun () -> Clone.run loader cg config))
  | None -> ());
  let inline_config =
    let c =
      match (options.Options.inline_config, base.Hlo.inline) with
      | Some c, _ | None, Some c -> c
      | None, None -> Inline.default_config
    in
    { c with Inline.operation_limit = options.Options.inline_limit }
  in
  let inl = timed l "hlo.inline_s" (fun () -> Inline.run loader cg inline_config) in
  count l "hlo.inline_ops" inl.Inline.operations;
  let ipa_context =
    {
      Ipa.externally_called;
      externally_stored;
      entry = (if main_in_set then Some "main" else None);
      keep_exported = true;
    }
  in
  let ipa = timed l "hlo.ipa_s" (fun () -> Ipa.run loader ipa_context) in
  count l "hlo.ipa_dead_funcs" (List.length ipa.Ipa.dead_functions);
  let rewrites = ref 0 in
  List.iter
    (fun fname ->
      count l "hlo.funcs_optimized" 1;
      let f = timed l "naim.acquire_s" (fun () -> Loader.acquire loader fname) in
      rewrites := !rewrites + optimize_func l ~mem f;
      timed l "naim.update_s" (fun () -> Loader.update loader f);
      timed l "naim.release_s" (fun () -> Loader.release loader fname))
    (Loader.func_names loader);
  timed l "naim.unload_s" (fun () -> Loader.unload_all loader);
  let optimized =
    timed l "naim.extract_s" (fun () -> Loader.extract_modules loader)
  in
  let s = Loader.stats loader in
  count l "naim.acquires" s.Loader.acquires;
  count l "naim.cache_hits" s.Loader.cache_hits;
  count l "naim.offloads" s.Loader.offloads;
  count l "naim.repo_loads" s.Loader.repo_loads;
  count l "naim.compactions" s.Loader.compactions;
  count l "naim.uncompactions" s.Loader.uncompactions;
  count l "naim.repo_bytes" (Repository.stored_bytes repo);
  timed l "naim.unload_s" (fun () -> Loader.close loader; Repository.close repo);
  (optimized, !rewrites)

(* --- 5-6. LLO, objects, link -------------------------------------- *)

(* [Llo.compile_module] unrolled into its six stages. *)
let llo_module l ~mem ~layout (m : Ilmod.t) =
  let module_name = m.Ilmod.mname in
  let codes =
    List.map
      (fun f ->
        if layout then ignore (timed l "llo.layout_s" (fun () -> Layout.run f));
        let vc = timed l "llo.isel_s" (fun () -> Isel.select ~module_name f) in
        timed l "llo.sched_s" (fun () -> ignore (Sched.run vc));
        let mach_count =
          List.fold_left
            (fun acc (b : Isel.vblock) -> acc + List.length b.Isel.body + 1)
            0 vc.Isel.vblocks
        in
        let bytes = Llo.modeled_llo_bytes mach_count in
        Memstats.charge mem Memstats.Llo bytes;
        let r = timed l "llo.regalloc_s" (fun () -> Regalloc.run vc) in
        count l "llo.peephole_rewrites"
          (timed l "llo.peephole_s" (fun () -> Peephole.run r.Regalloc.vcode));
        let code = timed l "llo.emit_s" (fun () -> Codegen.emit r) in
        Memstats.release mem Memstats.Llo bytes;
        count l "llo.routines" 1;
        count l "llo.mach_instrs" (Array.length code.Mach.code);
        count l "llo.spilled_vregs" r.Regalloc.spilled_vregs;
        code)
      m.Ilmod.funcs
  in
  timed l "link.objfile_s" (fun () ->
      Objfile.of_code ~module_name ~globals:m.Ilmod.globals ~source_digest:""
        codes)

(* The dynamic call weights [Pipeline] clusters routines by. *)
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
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) weights [] |> List.sort compare

let codegen_and_link l ~(options : Options.t) ~mem modules =
  let layout = options.Options.pbo && options.Options.level <> Options.O1 in
  let objects = List.map (llo_module l ~mem ~layout) modules in
  count l "link.objects" (List.length objects);
  let routine_order =
    if options.Options.pbo then
      timed l "link.cluster_s" (fun () ->
          match cluster_weights modules with
          | [] -> None
          | weights ->
            let names =
              List.concat_map
                (fun (m : Ilmod.t) ->
                  List.map (fun f -> f.Func.name) m.Ilmod.funcs)
                modules
            in
            Some (Cluster.order ~names ~weights))
    else None
  in
  match timed l "link.link_s" (fun () -> Linker.link ?routine_order objects) with
  | Ok image -> (image, objects)
  | Error _ -> mismatch "replayed link failed"

(* --- the whole build ---------------------------------------------- *)

type result = {
  image : Image.t;
  objects : Objfile.t list;
  rewrites : int;  (* link-time CMO rewrites, the report's [hlo.rewrites] *)
  mem_peak : int;
  wall : float;  (* the replayed op, start to end *)
  shipped : (Distwork.job * Distwork.done_payload) list;
      (* partition jobs run on workers, in component order *)
}

(* Scan modules outside the CMO set for calls and stores into it. *)
let external_context outside =
  let called = Hashtbl.create 64 and stored = Hashtbl.create 64 in
  List.iter
    (fun (m : Ilmod.t) ->
      List.iter
        (fun (f : Func.t) ->
          List.iter
            (fun (b : Func.block) ->
              List.iter
                (function
                  | Instr.Call { callee; _ } -> Hashtbl.replace called callee ()
                  | Instr.Store ({ Instr.base; _ }, _) ->
                    Hashtbl.replace stored base ()
                  | Instr.Move _ | Instr.Unop _ | Instr.Binop _ | Instr.Load _
                  | Instr.Probe _ -> ())
                b.Func.instrs)
            f.Func.blocks)
        m.Ilmod.funcs)
    outside;
  (called, stored)

let keys_of tbl =
  Hashtbl.fold (fun k () acc -> k :: acc) tbl [] |> List.sort String.compare

(* Link-time CMO split into invalidation components and run on
   [cmoc-worker] processes, as [Pipeline] does under [dist] without a
   store.  Jobs are encoded before the dispatch (the pipeline encodes
   inside it) so codec time stays a self time. *)
let run_distributed l ~(options : Options.t) ~called ~stored ~mem ~has_root
    ~shipped cmo_set =
  let by_name = Hashtbl.create 64 in
  List.iter (fun (m : Ilmod.t) -> Hashtbl.replace by_name m.Ilmod.mname m) cmo_set;
  let comps =
    timed l "cache.invalidate_s" (fun () ->
        Invalidate.components (Invalidate.compute cmo_set))
  in
  let job_called = keys_of called and job_stored = keys_of stored in
  let prepared =
    List.map
      (fun comp ->
        let subset = List.map (Hashtbl.find by_name) comp in
        if not (has_root comp) then (subset, None)
        else
          let job =
            {
              Distwork.job_options = options;
              job_modules =
                timed l "il.encode_s" (fun () ->
                    List.map Ilcodec.encode_module subset);
              job_called;
              job_stored;
              job_hot = None;
              job_phase_cache = false;
            }
          in
          count l "dist.job_bytes"
            (List.fold_left (fun acc s -> acc + String.length s) 0
               job.Distwork.job_modules);
          (subset, Some job))
      comps
  in
  let pool =
    timed l "dist.pool_create_s" (fun () ->
        Distwork.create_pool ~workers:options.Options.workers
          ?timeout_s:options.Options.dist_timeout ())
  in
  let j0 = Distwork.jobs_total ()
  and lost0 = Distwork.lost_total ()
  and e0 = Distwork.events_total () in
  let job_walls = ref 0.0 and job_walls_m = Mutex.create () in
  let results =
    Fun.protect ~finally:(fun () ->
        timed l "dist.close_pool_s" (fun () -> Distwork.close_pool pool))
    @@ fun () ->
    timed l "dist.run_job_s" (fun () ->
        Parwork.with_pool ~jobs:(max 1 options.Options.jobs) (fun wpool ->
            Parwork.map wpool
              (fun (subset, job) ->
                match job with
                | None -> `Rootless subset
                | Some job -> (
                  let t0 = Unix.gettimeofday () in
                  let r =
                    match Distwork.run_job pool job with
                    | payload -> `Done (job, payload)
                    | exception Distwork.Worker_lost -> `Lost subset
                  in
                  let dt = Unix.gettimeofday () -. t0 in
                  Mutex.protect job_walls_m (fun () ->
                      job_walls := !job_walls +. dt);
                  r))
              prepared))
  in
  count l "dist.jobs" (Distwork.jobs_total () - j0);
  count l "dist.lost" (Distwork.lost_total () - lost0);
  count l "dist.events" (Distwork.events_total () - e0);
  add l "dist.job_walls" !job_walls;
  let optimized =
    List.concat_map
      (function
        | `Rootless subset ->
          List.map (fun (m : Ilmod.t) -> { m with Ilmod.funcs = [] }) subset
        | `Done (job, payload) ->
          shipped := (job, payload) :: !shipped;
          count l "hlo.dist_rewrites" payload.Distwork.done_report.Hlo.rewrites;
          Memstats.merge mem
            (Distwork.memstats_of_summary payload.Distwork.done_mem);
          timed l "il.decode_s" (fun () ->
              List.map Ilcodec.decode_module payload.Distwork.done_modules)
        | `Lost subset ->
          (* The pipeline redoes a lost partition locally. *)
          let wmem = Memstats.create () in
          let optimized, rewrites =
            optimize_subset l ~options ~externally_called:(Hashtbl.mem called)
              ~externally_stored:(Hashtbl.mem stored) ~mem:wmem subset
          in
          count l "hlo.dist_rewrites" rewrites;
          Memstats.merge mem wmem;
          optimized)
      results
  in
  let tbl = Hashtbl.create 64 in
  List.iter (fun (m : Ilmod.t) -> Hashtbl.replace tbl m.Ilmod.mname m) optimized;
  List.map (fun (m : Ilmod.t) -> Hashtbl.find tbl m.Ilmod.mname) cmo_set

(* Replay [Pipeline.compile] for an [O4] build without a store: the
   whole CMO set in one loader, or its components on worker processes
   under [Options.dist]. *)
let compile l ?profile (options : Options.t) sources =
  let t0 = Unix.gettimeofday () in
  let mem = Memstats.create () in
  let modules = frontend l sources in
  annotate l options profile modules;
  let cmo_set, outside =
    match options.Options.cmo_modules with
    | Some names ->
      List.partition (fun (m : Ilmod.t) -> List.mem m.Ilmod.mname names) modules
    | None -> (modules, [])
  in
  timed l "hlo.outside_s" (fun () ->
      List.iter
        (fun (m : Ilmod.t) ->
          List.iter (fun f -> ignore (Phase.optimize_func ~mem f)) m.Ilmod.funcs)
        outside);
  let called, stored = external_context outside in
  let roots = Hashtbl.create 64 in
  List.iter
    (fun (m : Ilmod.t) ->
      Hashtbl.replace roots m.Ilmod.mname
        (List.exists
           (fun (f : Func.t) ->
             f.Func.name = "main" || f.Func.linkage = Func.Exported
             || Hashtbl.mem called f.Func.name)
           m.Ilmod.funcs))
    cmo_set;
  let has_root = List.exists (Hashtbl.find roots) in
  let shipped = ref [] in
  let optimized, rewrites =
    if options.Options.dist then
      let optimized =
        run_distributed l ~options ~called ~stored ~mem ~has_root ~shipped
          cmo_set
      in
      (optimized, int_of_float (get l "hlo.dist_rewrites"))
    else
      optimize_subset l ~options ~externally_called:(Hashtbl.mem called)
        ~externally_stored:(Hashtbl.mem stored) ~mem cmo_set
  in
  let image, objects = codegen_and_link l ~options ~mem (optimized @ outside) in
  {
    image;
    objects;
    rewrites;
    mem_peak = Memstats.peak mem;
    wall = Unix.gettimeofday () -. t0;
    shipped = List.rev !shipped;
  }

(* Codegen and link of already-optimized IL, as a warm build does with
   the artifacts it fetches: encode each module (the artifact the store
   holds), decode it back, then LLO and link. *)
let warm_codegen l (options : Options.t) optimized =
  let t0 = Unix.gettimeofday () in
  let mem = Memstats.create () in
  let bytes =
    timed l "il.encode_s" (fun () -> List.map Ilcodec.encode_module optimized)
  in
  let modules = timed l "il.decode_s" (fun () -> List.map Ilcodec.decode_module bytes) in
  let image, objects = codegen_and_link l ~options ~mem modules in
  {
    image;
    objects;
    rewrites = 0;
    mem_peak = Memstats.peak mem;
    wall = Unix.gettimeofday () -. t0;
    shipped = [];
  }

(* --- 7. the VM ----------------------------------------------------- *)

let run_vm l ~input image =
  let o = timed ~self:false l "vm.run_s" (fun () -> Cmo_vm.Vm.run ~input image) in
  count l "vm.instructions" o.Cmo_vm.Vm.instructions;
  count l "vm.icache_misses" o.Cmo_vm.Vm.icache_misses;
  o
