(* The performance ledger's benchmark: four compile workloads, each a
   closed loop of builds against the public driver API.

     perfbench --workload NAME --seed N --seconds S --trace 0|1

   With [--trace 0] it sets the workload up several times (reporting
   the median set-up time), then runs one build after another for
   [S] seconds, timing each at the [Pipeline.compile] or
   [Buildsys.request] boundary and checking each distinct image
   against the IL interpreter.  With [--trace 1] it alternates an
   untraced build with an outside-in replay of the same build
   ({!Replay}) and reports per-layer numbers.  The last line of
   standard output is one JSON object: correct, attempted, failed and
   the metrics. *)

open Cmo_driver
module Genprog = Cmo_workload.Genprog
module Suite = Cmo_workload.Suite
module Image = Cmo_link.Image
module Vm = Cmo_vm.Vm
module Interp = Cmo_il.Interp
module Store = Cmo_cache.Store
module Invalidate = Cmo_cache.Invalidate
module Memstats = Cmo_naim.Memstats
module Hlo = Cmo_hlo.Hlo
module Phase = Cmo_hlo.Phase
module Ilcodec = Cmo_il.Ilcodec

let now = Unix.gettimeofday
let mib = 1048576.0

(* [Wrong]: an output differs from what it must be — the run is not
   correct.  [Failed]: an op could not complete (it still counts as
   failed, but no wrong output was produced). *)
exception Wrong of string
exception Failed of string

let wrong fmt = Printf.ksprintf (fun s -> raise (Wrong s)) fmt
let fail fmt = Printf.ksprintf (fun s -> raise (Failed s)) fmt

(* --- statistics ---------------------------------------------------- *)

let median = function
  | [] -> 0.0
  | xs ->
    let a = Array.of_list xs in
    Array.sort compare a;
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* The highest percentile with at least ten samples beyond it:
   (percentile, value), or [None] below eleven samples. *)
let tail xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n < 11 then None else Some (100 * (n - 10) / n, a.(n - 11))

let cpu_now () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime +. t.Unix.tms_cutime +. t.Unix.tms_cstime

(* --- inputs and references ------------------------------------------ *)

(* The seed when none is given; perfbench/selftest.py also runs a
   held-out one. *)
let default_seed = 1

(* The programs are the [Suite]'s own mcad1 and gcc, at their fixed
   generator seeds: substituting the run's seed changed compile time
   by a quarter and the exact columns by a sixth to a third from one
   seed to the next, far beyond any usable bound.  The seed drives
   the run's inputs instead: the path mix of the reference input and,
   on edit-session, the edit sequence. *)
let reference_input (cfg : Genprog.config) ~seed =
  [| Int64.of_int cfg.Genprog.main_iters; Int64.of_int (((seed * 37) + 23) land 127) |]

(* The training trip count with the run's path mix: the cheaper
   check for the gcc-shaped workloads, whose reference runs take up
   to hundreds of millions of interpreter steps. *)
let short_input (cfg : Genprog.config) ~seed =
  [| (Genprog.training_input cfg).(0); (reference_input cfg ~seed).(1) |]

let sources_of listing =
  List.map (fun (name, text) -> { Pipeline.name; text }) listing

type reference = {
  input : int64 array;
  ret : int64;
  output : int64 list;
  steps : int;  (* interpreter steps: the program's work on [input] *)
}

let fuel = 2_000_000_000

(* The observable behaviour of the unoptimized program. *)
let interp_reference ~input sources =
  let o = Interp.run ~fuel ~input (Pipeline.frontend sources) in
  { input; ret = o.Interp.ret; output = o.Interp.output; steps = o.Interp.steps }

let vm_check r image =
  let o = Vm.run ~fuel ~input:r.input image in
  if o.Vm.ret <> r.ret || o.Vm.output <> r.output then
    wrong "image diverges from the interpreter reference";
  o

let digest (image : Image.t) =
  Digest.string (Marshal.to_string image [ Marshal.No_sharing ])

let same_build (a : Pipeline.build) (b : Pipeline.build) =
  a.Pipeline.image = b.Pipeline.image && a.Pipeline.objects = b.Pipeline.objects

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

(* --- workload instances --------------------------------------------- *)

(* The exact columns of a run, from its first op: identical at one
   seed, run to run.  Each is normalized by a size of the program
   (interpreter steps, source lines), so that the workloads' figures
   compare with one another and with the paper's per-line ones. *)
type exact = {
  cycles_per_step : float;  (* VM cycles per interpreter step *)
  instrs_per_line : float;  (* image instructions per source line *)
  bytes_per_line : float;  (* modeled peak bytes per source line *)
}

let exact_of reference (o : Vm.outcome) (b : Pipeline.build) =
  let lines = float_of_int (max 1 b.Pipeline.report.Pipeline.total_lines) in
  {
    cycles_per_step = float_of_int o.Vm.cycles /. float_of_int (max 1 reference.steps);
    instrs_per_line = float_of_int (Array.length b.Pipeline.image.Image.code) /. lines;
    bytes_per_line = float_of_int b.Pipeline.report.Pipeline.mem_peak /. lines;
  }

type instance = {
  op : unit -> unit;
      (* One measured build (or edit/rebuild pair), timed by the
         caller; raises on failure. *)
  check : unit -> unit;
      (* Untimed correctness check of the last op; raises [Wrong] or
         [Failed]. *)
  replay : Replay.ledger -> float;
      (* One outside-in replay with its self-check; returns the
         replayed op's wall.  Raises [Wrong], [Failed] or
         [Replay.Mismatch]. *)
  exact : unit -> exact option;
  close : unit -> unit;
}

(* Options pinned so that the environment cannot change what a
   workload measures. *)
let pinned (o : Options.t) =
  {
    o with
    Options.jobs = 1;
    check = false;
    trace = None;
    dist = false;
    workers = [];
  }

(* The self-check shared by the store-less workloads: the replay must
   build the untraced build's bytes, rewrites and modeled peak. *)
let check_replay (r : Replay.result) (l : Replay.ledger) (b : Pipeline.build) =
  let report = b.Pipeline.report in
  if r.Replay.image <> b.Pipeline.image then wrong "replayed image differs";
  if r.Replay.objects <> b.Pipeline.objects then wrong "replayed objects differ";
  let rewrites =
    match report.Pipeline.hlo with Some h -> h.Hlo.rewrites | None -> 0
  in
  if r.Replay.rewrites <> rewrites then
    wrong "replayed rewrites %d, report %d" r.Replay.rewrites rewrites;
  if r.Replay.shipped = [] then begin
    let per_pass =
      List.fold_left
        (fun acc (p, _) ->
          acc + int_of_float (Replay.get l ("hlo.pass." ^ p ^ ".rewrites")))
        0 Phase.passes
    in
    if per_pass <> rewrites then
      wrong "per-pass rewrites sum to %d, report %d" per_pass rewrites
  end;
  if r.Replay.mem_peak <> report.Pipeline.mem_peak then
    wrong "replayed modeled peak %d, report %d" r.Replay.mem_peak
      report.Pipeline.mem_peak

(* Every partition job a worker ran must equal the in-process
   partition optimizer on the same job. *)
let check_shipped (options : Options.t) shipped =
  List.iter
    (fun ((job : Distwork.job), (payload : Distwork.done_payload)) ->
      let called = Hashtbl.create 16 and stored = Hashtbl.create 16 in
      List.iter (fun n -> Hashtbl.replace called n ()) job.Distwork.job_called;
      List.iter (fun n -> Hashtbl.replace stored n ()) job.Distwork.job_stored;
      let optimized, report, lstats =
        Distwork.optimize_subset ~options
          ~externally_called:(Hashtbl.mem called)
          ~externally_stored:(Hashtbl.mem stored) ~mem:(Memstats.create ())
          (List.map Ilcodec.decode_module job.Distwork.job_modules)
      in
      if
        List.map Ilcodec.encode_module optimized <> payload.Distwork.done_modules
        || report <> payload.Distwork.done_report
        || lstats <> payload.Distwork.done_lstats
      then wrong "a worker's partition differs from the in-process one")
    shipped

(* cmo-cold, naim-tight and dist-link: cold, cacheless compiles of one
   program.  Each distinct image must match the interpreter; dist-link
   builds must also equal the in-process j1 oracle's bytes. *)
let cold_instance ?profile ?oracle ~options ~reference sources =
  let last = ref None and first = ref None and seen = Hashtbl.create 4 in
  let jobs0 = ref 0 and lost0 = ref 0 in
  let op () =
    jobs0 := Distwork.jobs_total ();
    lost0 := Distwork.lost_total ();
    last := Some (Pipeline.compile ?profile options sources)
  in
  let check () =
    let b = Option.get !last in
    if options.Options.dist then begin
      if Distwork.lost_total () > !lost0 then fail "a worker was lost";
      if Distwork.jobs_total () = !jobs0 then fail "no job ran on a worker"
    end;
    Option.iter
      (fun o -> if not (same_build b o) then wrong "build differs from the j1 oracle")
      oracle;
    let d = digest b.Pipeline.image in
    if not (Hashtbl.mem seen d) then begin
      let o = vm_check reference b.Pipeline.image in
      Hashtbl.replace seen d ();
      if !first = None then first := Some (exact_of reference o b)
    end
  in
  let replay l =
    let b = match !last with Some b -> b | None -> fail "replay before a build" in
    let r = Replay.compile l ?profile options sources in
    check_replay r l b;
    check_shipped options r.Replay.shipped;
    ignore (vm_check reference r.Replay.image);
    ignore (Replay.run_vm l ~input:reference.input r.Replay.image);
    r.Replay.wall
  in
  { op; check; replay; exact = (fun () -> !first); close = ignore }

(* --- the four workloads ---------------------------------------------- *)

(* Set-up returns the instance; [work] is this run's private directory
   inside the checkout. *)
type workload = {
  name : string;
  domains : int;  (* cores a build keeps busy *)
  setup : work:string -> seed:int -> instance;
}

let cmo_cold ~work:_ ~seed =
  let cfg = Suite.find "mcad1" in
  let sources = sources_of (Genprog.generate cfg) in
  let profile = Pipeline.train ~inputs:[ Genprog.training_input cfg ] sources in
  let reference = interp_reference ~input:(reference_input cfg ~seed) sources in
  cold_instance ~profile ~options:(pinned Options.o4_pbo) ~reference sources

(* The NAIM loader under a modeled machine far below the program's
   ~77 MB unconstrained peak: most routines are compacted, offloaded
   and reloaded. *)
let naim_tight_memory = 4 * 1024 * 1024

let naim_tight ~work:_ ~seed =
  let cfg = Suite.find "mcad1" in
  let sources = sources_of (Genprog.generate cfg) in
  let reference = interp_reference ~input:(reference_input cfg ~seed) sources in
  cold_instance
    ~options:{ (pinned Options.o4) with Options.machine_memory = naim_tight_memory }
    ~reference sources

(* Four independent shards, so link-time CMO splits into four
   components; the driver module stays outside the CMO set. *)
let dist_shards = 4
let dist_jobs = 2

let dist_link ~work:_ ~seed =
  let cfg = Suite.find "gcc" in
  let listing = Genprog.sharded cfg ~shards:dist_shards in
  let sources = sources_of listing in
  let reference = interp_reference ~input:(short_input cfg ~seed) sources in
  let worker = Distwork.resolve_worker () in
  if not (Sys.file_exists worker) then fail "worker binary %s is missing" worker;
  let cmo_set =
    List.filter_map
      (fun (n, _) -> if String.equal n "main_mod" then None else Some n)
      listing
  in
  let options =
    { (pinned Options.o4) with Options.cmo_modules = Some cmo_set; jobs = 1 }
  in
  (* Built once per set-up, like the reference: the in-process j1
     compile every distributed build must reproduce byte for byte. *)
  let oracle = Pipeline.compile options sources in
  cold_instance ~oracle
    ~options:{ options with Options.jobs = dist_jobs; dist = true }
    ~reference sources

(* edit-session: one warm [Buildsys] session over the states of a
   gcc-shaped edit storm.  Each op builds the next fresh state (a
   one-module edit on the last one), then rebuilds the state before it,
   which the store serves whole — reads and writes on one store. *)
let storm_steps = 96

let edit_session ~work ~seed =
  let cfg = Suite.find "gcc" in
  let states = Genprog.storm cfg ~steps:storm_steps ~seed in
  (* Fresh states only: the storm's undo steps revisit earlier ones. *)
  let fresh =
    let seen = Hashtbl.create 64 in
    Hashtbl.replace seen states.(0) ();
    Array.to_list states
    |> List.filter (fun s ->
           if Hashtbl.mem seen s then false
           else begin
             Hashtbl.replace seen s ();
             true
           end)
    |> Array.of_list
  in
  if Array.length fresh < 2 then fail "edit storm has no fresh states";
  let options = pinned Options.o4 in
  let dir = Filename.concat work "edit" in
  rm_rf dir;
  Unix.mkdir dir 0o755;
  let session = Buildsys.open_session (Buildsys.create ~dir ()) in
  let request listing = Buildsys.request session options (sources_of listing) in
  let input = short_input cfg ~seed in
  (* Set-up computes state 0's interpreter reference and builds state 0
     into the fresh store; later states are checked as first built. *)
  let references = Hashtbl.create 64 in
  Hashtbl.replace references (-1)
    (interp_reference ~input (sources_of states.(0)));
  let base = (request states.(0)).Buildsys.build in
  let step = ref 0 and first = ref None and last = ref None in
  let images = Hashtbl.create 64 in
  let state i = if i < 0 then states.(0) else fresh.(i mod Array.length fresh) in
  (* Record a state's image, checking each new one on the VM; the
     exact columns come from state 0's build. *)
  let checked i (b : Pipeline.build) =
    let d = digest b.Pipeline.image in
    match Hashtbl.find_opt images i with
    | Some d' -> if d <> d' then wrong "state %d rebuilt differently" i
    | None ->
      let r =
        match Hashtbl.find_opt references i with
        | Some r -> r
        | None -> interp_reference ~input (sources_of (state i))
      in
      let o = vm_check r b.Pipeline.image in
      if i = -1 then first := Some (exact_of r o b);
      Hashtbl.replace images i d
  in
  let op () =
    let i = !step in
    incr step;
    let e = request (state i) in
    let w = request (state (i - 1)) in
    last := Some (i, e.Buildsys.build, w.Buildsys.build)
  in
  let check () =
    let i, e, w = Option.get !last in
    if e.Pipeline.report.Pipeline.cache = None then fail "edit build ran without the store";
    if i = 0 then checked (-1) base;
    checked (i mod Array.length fresh) e;
    checked (if i = 0 then -1 else (i - 1) mod Array.length fresh) w
  in
  let replay l =
    let i = !step in
    incr step;
    let target = state i and prev = state (i - 1) in
    let store () = Option.get (Buildsys.session_store session) in
    let s0 = Store.stats (store ()) in
    let e = (request target).Buildsys.build in
    let s1 = Store.stats (store ()) in
    let w = (request prev).Buildsys.build in
    let s2 = Store.stats (store ()) in
    (* Store traffic of the pair; the edit's phase tier is its store
       traffic minus its module-level lookups. *)
    Replay.count l "cache.hits" (s2.Store.hits - s0.Store.hits);
    Replay.count l "cache.misses" (s2.Store.misses - s0.Store.misses);
    Replay.count l "cache.stores" (s2.Store.stores - s0.Store.stores);
    Replay.count l "cache.evictions" (s2.Store.evictions - s0.Store.evictions);
    Replay.count l "cache.live_bytes" s2.Store.live_bytes;
    Replay.count l "cache.payload_bytes" s2.Store.payload_bytes;
    let mh, mm =
      match e.Pipeline.report.Pipeline.cache with
      | Some c -> (c.Pipeline.hits, c.Pipeline.misses)
      | None -> fail "edit build ran without the store"
    in
    Replay.count l "hlo.phase_hits" (s1.Store.hits - s0.Store.hits - mh);
    Replay.count l "hlo.phase_misses" (s1.Store.misses - s0.Store.misses - mm);
    (* The edit's post-HLO IL, outside the replayed op: whole-set CMO
       gives the bytes the store's per-component artifacts hold. *)
    let changed =
      List.filter_map
        (fun (n, text) ->
          if List.assoc_opt n prev = Some text then None
          else Some { Pipeline.name = n; text })
        target
    in
    let il_for_invalidate = Pipeline.frontend (sources_of target) in
    let optimized, _, _ =
      let modules = Pipeline.frontend (sources_of target) in
      Distwork.optimize_subset ~options
        ~externally_called:(fun _ -> false)
        ~externally_stored:(fun _ -> false) ~mem:(Memstats.create ()) modules
    in
    Store.flush (store ());
    (* The replayed op: reopen the store, frontend the edited module,
       compute the invalidation closure, then the warm path — artifact
       encode and decode, LLO, objects, link. *)
    let t0 = now () in
    Replay.timed l "cache.open_s" (fun () -> Buildsys.reopen_store session);
    ignore (Replay.frontend ~program:false l changed);
    Replay.timed l "cache.invalidate_s" (fun () ->
        let part = Invalidate.compute il_for_invalidate in
        ignore
          (Invalidate.closure part
             ~changed:(List.map (fun s -> s.Pipeline.name) changed)));
    let r = Replay.warm_codegen l options optimized in
    let wall = now () -. t0 in
    if r.Replay.image <> e.Pipeline.image || r.Replay.objects <> e.Pipeline.objects
    then wrong "replayed warm codegen differs from the session build";
    ignore (Replay.run_vm l ~input r.Replay.image);
    checked (i mod Array.length fresh) e;
    checked (if i = 0 then -1 else (i - 1) mod Array.length fresh) w;
    wall
  in
  {
    op;
    check;
    replay;
    exact = (fun () -> !first);
    close = (fun () -> Buildsys.close_session session);
  }

let workloads =
  [
    { name = "cmo-cold"; domains = 1; setup = cmo_cold };
    { name = "naim-tight"; domains = 1; setup = naim_tight };
    { name = "edit-session"; domains = 1; setup = edit_session };
    { name = "dist-link"; domains = dist_jobs; setup = dist_link };
  ]

(* --- the metrics ------------------------------------------------------ *)

type metric = { mname : string; unit_ : string; value : float }

let json_of_result ~correct ~attempted ~failed metrics =
  let module Json = Cmo_obs.Json in
  let num n = Json.Num (float_of_int n) in
  Json.to_string
    (Json.Obj
       [
         ("correct", Json.Bool correct);
         ("attempted", num attempted);
         ("failed", num failed);
         ( "metrics",
           Json.Obj
             (List.map
                (fun m ->
                  ( m.mname,
                    Json.Obj [ ("value", Json.Num m.value); ("unit", Json.Str m.unit_) ]
                  ))
                metrics) );
       ])

let gc_delta g0 g1 =
  ( (g1.Gc.minor_words -. g0.Gc.minor_words) /. 1e6,
    (g1.Gc.promoted_words -. g0.Gc.promoted_words) /. 1e6,
    float_of_int (g1.Gc.major_collections - g0.Gc.major_collections) )

(* The process's peak resident set so far (Linux [VmHWM]), in MiB.
   The GC's own [top_heap_words] is no peak under OCaml 5: it falls as
   well as rises, and with worker domains it read anywhere from 38 to
   67 MB after the same build, where [VmHWM] read 72 to 76 MB. *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  Fun.protect ~finally:(fun () -> close_in ic) @@ fun () ->
  let rec find () =
    match input_line ic with
    | line when String.starts_with ~prefix:"VmHWM:" line ->
      Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.0)
    | _ -> find ()
    | exception End_of_file -> fail "no VmHWM in /proc/self/status"
  in
  find ()

(* One timed op: wall and CPU (the process's own plus its waited-for
   worker processes'), and the GC's work. *)
type sample = { wall : float; cpu : float; gc : float * float * float }

let measure f =
  let g0 = Gc.quick_stat () in
  let c0 = cpu_now () in
  let t0 = now () in
  f ();
  let wall = now () -. t0 in
  let cpu = cpu_now () -. c0 in
  { wall; cpu; gc = gc_delta g0 (Gc.quick_stat ()) }

let setups = 5

(* Op outcomes: every failure counts in [failed]; a wrong output also
   makes the run incorrect. *)
type tally = { mutable attempted : int; mutable failed : int; mutable wrong : int }

let tally () = { attempted = 0; failed = 0; wrong = 0 }

let attempt t what f =
  t.attempted <- t.attempted + 1;
  match f () with
  | () -> ()
  | exception e ->
    t.failed <- t.failed + 1;
    (match e with
    | Wrong _ | Replay.Mismatch _ -> t.wrong <- t.wrong + 1
    | _ -> ());
    Printf.eprintf "perfbench: %s %d failed: %s\n%!" what t.attempted
      (Printexc.to_string e)

(* --- host-speed calibration ------------------------------------------ *)

(* The host's speed drifts by a third and more over minutes, as other
   tenants come and go.  A fixed kernel of allocation, hashing and
   sorting, timed before every set-up and op, tracks that drift.  It
   over-reacts, though: on log scales a build slows by about three
   quarters of the kernel's slowdown (a fit over 80 runs of the four
   workloads, 2.3x apart in host speed).  So times are reported at the
   reference speed as wall time x (the kernel's reference time / its
   recent median time) ^ [damping].  Across those runs this cut the
   mean spread of the end-to-end times to 0.09, from 0.13 with the full
   correction and 0.14 with none.  (A non-allocating arithmetic kernel over-reacted
   more.)  The reference times are the kernel's on a quiet 2-core
   x86-64 VM: 0.07 s on one domain, 1.3 times that on two, whose minor
   collections synchronize. *)
let damping = 0.75

let calibration_ref_s ~domains = if domains = 1 then 0.07 else 0.091

let kernel () =
  let h = Hashtbl.create 1024 in
  let acc = ref 0 in
  for i = 0 to 200_000 do
    let k = i * 7919 land 0xffff in
    let l = i :: Option.value ~default:[] (Hashtbl.find_opt h k) in
    Hashtbl.replace h k (if List.length l > 4 then [ i ] else l);
    acc := !acc + k
  done;
  let l = List.sort compare (List.init 100_000 (fun i -> i * 48271 mod 65521)) in
  ignore (Sys.opaque_identity (l, !acc))

(* One calibration sample: the kernel on as many domains at once as
   the workload keeps busy, so that a parallel build's drift is
   tracked on every core it uses. *)
let calibration_sample ~domains =
  let t0 = now () in
  let others = List.init (domains - 1) (fun _ -> Domain.spawn kernel) in
  kernel ();
  List.iter Domain.join others;
  now () -. t0

(* Calibration between timed pieces.  Each piece starts from a
   compacted heap, as in a fresh compiler process, after enough kernel
   samples to cover about a sixth of the previous piece's wall.  The
   piece is scaled by the speed its last [window] samples give, so the
   correction follows drift within a run too. *)
type calibration = {
  domains : int;
  mutable samples : float list;
  mutable reps : int;
}

let calibration ~domains = { domains; samples = []; reps = 1 }

let window = 8

(* Take this piece's samples; returns the piece's scale factor. *)
let prepare c =
  Gc.compact ();
  for _ = 1 to c.reps do
    c.samples <- calibration_sample ~domains:c.domains :: c.samples
  done;
  (calibration_ref_s ~domains:c.domains
  /. median (List.filteri (fun i _ -> i < window) c.samples))
  ** damping

let after c wall =
  let k = median c.samples in
  c.reps <- max 1 (min window (int_of_float (wall /. (6.0 *. k))))

(* --trace 0: the end-to-end metrics. *)
let end_to_end (w : workload) ~work ~seed ~seconds =
  let setup_times = ref [] and inst = ref None in
  let cal = calibration ~domains:w.domains in
  for _ = 1 to setups do
    Option.iter (fun i -> i.close ()) !inst;
    let scale = prepare cal in
    let t0 = now () in
    let i = w.setup ~work ~seed in
    let wall = now () -. t0 in
    after cal wall;
    setup_times := (scale *. wall) :: !setup_times;
    inst := Some i
  done;
  let inst = Option.get !inst in
  Fun.protect ~finally:inst.close @@ fun () ->
  let samples = ref [] and t = tally () and rss = ref 0.0 in
  let t_end = now () +. seconds in
  while t.attempted = 0 || now () < t_end do
    attempt t "op" (fun () ->
        let scale = prepare cal in
        let s = measure inst.op in
        after cal s.wall;
        (* Memory keeps growing over repeated builds in one process
           (by a factor of two and more under dist), so the reported
           peak is the one after set-up and the first build. *)
        if !samples = [] then rss := peak_rss_mb ();
        inst.check ();
        samples := (scale, s) :: !samples)
  done;
  let ok = List.rev !samples in
  let walls = List.map (fun (_, s) -> s.wall) ok in
  let exact = inst.exact () in
  let correct = t.wrong = 0 && exact <> None in
  let metrics =
    match exact with
    | None -> []
    | Some x ->
      [
        { mname = "setup_s"; unit_ = "s"; value = median !setup_times };
        {
          mname = "op_s_p50";
          unit_ = "s";
          value = median (List.map (fun (k, s) -> k *. s.wall) ok);
        };
        {
          mname = "cpu_s_per_op";
          unit_ = "s";
          value =
            List.fold_left (fun acc (k, s) -> acc +. (k *. s.cpu)) 0.0 ok
            /. float_of_int (max 1 (List.length ok));
        };
        { mname = "peak_rss_mb"; unit_ = "MB"; value = !rss };
        {
          mname = "modeled_bytes_per_line";
          unit_ = "B/line";
          value = x.bytes_per_line;
        };
        {
          mname = "code_instrs_per_line";
          unit_ = "instrs/line";
          value = x.instrs_per_line;
        };
        {
          mname = "run_cycles_per_step";
          unit_ = "cycles/step";
          value = x.cycles_per_step;
        };
      ]
  in
  Printf.printf
    "%s seed %d: %d ops (%d failed); wall p50 %.4f s, %s; host speed x%.3f \
     (%d samples)\n"
    w.name seed t.attempted t.failed (median walls)
    (match tail walls with
    | Some (p, v) ->
      Printf.sprintf "p%d %.4f s (10 of %d beyond)" p v (List.length walls)
    | None -> Printf.sprintf "no tail (%d samples)" (List.length walls))
    (median (List.map fst ok))
    (List.length cal.samples);
  (correct, t.attempted, t.failed, metrics)

(* --trace 1: the per-layer metrics.  Each round runs one untraced op
   and one replay; counts come from the first replay, times are
   medians over all replays. *)
let per_layer (w : workload) ~work ~seed ~seconds =
  let inst = w.setup ~work ~seed in
  Fun.protect ~finally:inst.close @@ fun () ->
  let untraced = ref [] and ledgers = ref [] and t = tally () in
  let t_end = now () +. seconds in
  while t.attempted = 0 || now () < t_end do
    attempt t "op" (fun () ->
        Gc.compact ();
        let s = measure inst.op in
        inst.check ();
        untraced := s :: !untraced;
        attempt t "replay" (fun () ->
            Gc.compact ();
            let l = Replay.ledger () in
            let wall = inst.replay l in
            ledgers := (l, wall) :: !ledgers))
  done;
  let ledgers = List.rev !ledgers in
  let correct = t.wrong = 0 && ledgers <> [] in
  if not correct then (false, t.attempted, t.failed, [])
  else begin
    let first, _ = List.hd ledgers in
    let count k = Replay.get first k in
    let time k = median (List.map (fun (l, _) -> Replay.get l k) ledgers) in
    let ratio a b = if a +. b > 0.0 then a /. (a +. b) else 0.0 in
    let op_wall = median (List.map snd ledgers) in
    let attributed =
      median (List.map (fun (l, wall) -> l.Replay.attributed /. wall) ledgers)
    in
    let untraced_p50 = median (List.map (fun s -> s.wall) !untraced) in
    let gc f = median (List.map (fun s -> f s.gc) !untraced) in
    let s name v = { mname = name; unit_ = "s"; value = v } in
    let c name v = { mname = name; unit_ = "count"; value = v } in
    let r name v = { mname = name; unit_ = "ratio"; value = v } in
    let mb name v = { mname = name; unit_ = "MB"; value = v /. mib } in
    let passes =
      List.concat_map
        (fun (p, _) ->
          [
            s ("hlo.pass." ^ p ^ ".s") (time ("hlo.pass." ^ p ^ ".s"));
            c ("hlo.pass." ^ p ^ ".rewrites") (count ("hlo.pass." ^ p ^ ".rewrites"));
          ])
        Phase.passes
    in
    let job_walls = time "dist.job_walls" and dispatch = time "dist.run_job_s" in
    let metrics =
      [
        s "frontend.s" (time "frontend.s");
        c "frontend.modules" (count "frontend.modules");
        {
          mname = "frontend.klines_per_s";
          unit_ = "klines/s";
          value =
            (if time "frontend.s" > 0.0 then
               count "frontend.lines" /. 1000.0 /. time "frontend.s"
             else 0.0);
        };
        s "profile.correlate_s" (time "profile.correlate_s");
        s "hlo.callgraph_s" (time "hlo.callgraph_s");
        s "hlo.clone_s" (time "hlo.clone_s");
        c "hlo.clones" (count "hlo.clones");
        s "hlo.inline_s" (time "hlo.inline_s");
        c "hlo.inline_ops" (count "hlo.inline_ops");
        s "hlo.ipa_s" (time "hlo.ipa_s");
        c "hlo.ipa_dead_funcs" (count "hlo.ipa_dead_funcs");
      ]
      @ passes
      @ [
          s "hlo.derived_s" (time "hlo.derived_s");
          c "hlo.rounds" (count "hlo.rounds");
          c "hlo.funcs_optimized" (count "hlo.funcs_optimized");
          s "hlo.outside_s" (time "hlo.outside_s");
          r "hlo.phase_cache_hit_ratio"
            (ratio (count "hlo.phase_hits") (count "hlo.phase_misses"));
          s "naim.register_s" (time "naim.register_s");
          s "naim.acquire_s" (time "naim.acquire_s");
          s "naim.update_s" (time "naim.update_s");
          s "naim.release_s" (time "naim.release_s");
          s "naim.unload_s" (time "naim.unload_s");
          s "naim.extract_s" (time "naim.extract_s");
          c "naim.acquires" (count "naim.acquires");
          r "naim.hit_ratio"
            (if count "naim.acquires" > 0.0 then
               count "naim.cache_hits" /. count "naim.acquires"
             else 0.0);
          c "naim.offloads" (count "naim.offloads");
          c "naim.repo_loads" (count "naim.repo_loads");
          c "naim.compactions" (count "naim.compactions");
          c "naim.uncompactions" (count "naim.uncompactions");
          mb "naim.repo_mb" (count "naim.repo_bytes");
          s "il.encode_s" (time "il.encode_s");
          s "il.decode_s" (time "il.decode_s");
          s "llo.layout_s" (time "llo.layout_s");
          s "llo.isel_s" (time "llo.isel_s");
          s "llo.sched_s" (time "llo.sched_s");
          s "llo.regalloc_s" (time "llo.regalloc_s");
          s "llo.peephole_s" (time "llo.peephole_s");
          s "llo.emit_s" (time "llo.emit_s");
          c "llo.routines" (count "llo.routines");
          c "llo.mach_instrs" (count "llo.mach_instrs");
          c "llo.spilled_vregs" (count "llo.spilled_vregs");
          c "llo.peephole_rewrites" (count "llo.peephole_rewrites");
          s "link.objfile_s" (time "link.objfile_s");
          s "link.cluster_s" (time "link.cluster_s");
          s "link.link_s" (time "link.link_s");
          c "link.objects" (count "link.objects");
          s "vm.run_s" (time "vm.run_s");
          c "vm.instructions" (count "vm.instructions");
          c "vm.icache_misses" (count "vm.icache_misses");
          c "cache.hits" (count "cache.hits");
          c "cache.misses" (count "cache.misses");
          r "cache.hit_ratio" (ratio (count "cache.hits") (count "cache.misses"));
          c "cache.stores" (count "cache.stores");
          c "cache.evictions" (count "cache.evictions");
          mb "cache.live_mb" (count "cache.live_bytes");
          mb "cache.payload_mb" (count "cache.payload_bytes");
          s "cache.open_s" (time "cache.open_s");
          s "cache.invalidate_s" (time "cache.invalidate_s");
          s "dist.pool_create_s" (time "dist.pool_create_s");
          s "dist.run_job_s" dispatch;
          s "dist.close_pool_s" (time "dist.close_pool_s");
          c "dist.jobs" (count "dist.jobs");
          c "dist.lost" (count "dist.lost");
          c "dist.events" (count "dist.events");
          mb "dist.job_mb" (count "dist.job_bytes");
          r "par.speedup" (if dispatch > 0.0 then job_walls /. dispatch else 0.0);
          {
            mname = "gc.minor_mwords";
            unit_ = "Mwords";
            value = gc (fun (m, _, _) -> m);
          };
          {
            mname = "gc.promoted_mwords";
            unit_ = "Mwords";
            value = gc (fun (_, p, _) -> p);
          };
          c "gc.major_collections" (gc (fun (_, _, n) -> n));
          s "trace.op_s" op_wall;
          r "trace.overhead_ratio"
            (if untraced_p50 > 0.0 then op_wall /. untraced_p50 else 0.0);
          r "unattributed_ratio" (1.0 -. attributed);
        ]
    in
    Printf.printf "%s seed %d: %d replays, replayed op %.4f s, %.1f%% attributed\n"
      w.name seed (List.length ledgers) op_wall (100.0 *. attributed);
    (correct, t.attempted, t.failed, metrics)
  end

(* --- command line ------------------------------------------------------ *)

let () =
  let workload = ref "" and seed = ref default_seed and seconds = ref 10.0 in
  let trace = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N seed the workload's inputs are made from");
      ("--seconds", Arg.Set_float seconds, "S how long to measure");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "perfbench --workload NAME --seed N --seconds S --trace 0|1";
  let w =
    match List.find_opt (fun w -> w.name = !workload) workloads with
    | Some w -> w
    | None ->
      Printf.eprintf "perfbench: unknown workload %S (one of: %s)\n" !workload
        (String.concat ", " (List.map (fun w -> w.name) workloads));
      exit 2
  in
  (* A private directory for on-disk state, inside the current one. *)
  let work = Printf.sprintf ".perfbench-work/%s-%d" w.name (Unix.getpid ()) in
  (try Unix.mkdir ".perfbench-work" 0o755
   with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  rm_rf work;
  Unix.mkdir work 0o755;
  let cleanup () =
    rm_rf work;
    try Unix.rmdir ".perfbench-work" with Unix.Unix_error _ -> ()
  in
  match
    Fun.protect ~finally:cleanup (fun () ->
        if !trace = 1 then per_layer w ~work ~seed:!seed ~seconds:!seconds
        else end_to_end w ~work ~seed:!seed ~seconds:!seconds)
  with
  | correct, attempted, failed, metrics ->
    print_endline (json_of_result ~correct ~attempted ~failed metrics)
  | exception e ->
    Printf.eprintf "perfbench: %s failed: %s\n" w.name (Printexc.to_string e);
    exit 1
