(* The parallel pipeline's headline invariant, tested differentially:
   whatever the worker count, a build produces byte-identical images,
   objects and — when a store is attached — identical cache bytes on
   disk.  Plus the Parwork executor itself, the store under domain
   concurrency, and the accountant-merge model. *)

module Parwork = Cmo_driver.Parwork
module Options = Cmo_driver.Options
module Pipeline = Cmo_driver.Pipeline
module Store = Cmo_cache.Store
module Invalidate = Cmo_cache.Invalidate
module Memstats = Cmo_naim.Memstats
module Genprog = Cmo_workload.Genprog
module Suite = Cmo_workload.Suite
module Ilmod = Cmo_il.Ilmod
module Vm = Cmo_vm.Vm

(* ---------- scaffolding ---------- *)

let with_dir f = Helpers.with_dir ~prefix:"cmo_par" f
let same_store_bytes = Helpers.same_store_bytes
let same_build = Helpers.same_build

(* ---------- the fixture programs ---------- *)

(* Two weakly-connected components: {pm_a, pm_b} live via main,
   {pm_c, pm_d} exported library code coupled by a shared global. *)
let prog_two_components : Pipeline.source list =
  [
    {
      Pipeline.name = "pm_a";
      text =
        {|
        func main() {
          var s = 0;
          var i = 0;
          while (i < 40) { s = s + mix(i, s); i = i + 1; }
          print(s);
          return s & 255;
        }
        |};
    };
    {
      Pipeline.name = "pm_b";
      text =
        {|
        static func twist(v) { return v * 5 + 1; }
        func mix(x, seed) { return (seed / 3) + twist(x); }
        |};
    };
    {
      Pipeline.name = "pm_c";
      text =
        {|
        extern global tally;
        func report(v) { tally = tally + pack(v); return tally; }
        |};
    };
    {
      Pipeline.name = "pm_d";
      text =
        {|
        global tally = 0;
        func pack(v) { return v * 7; }
        |};
    };
  ]

(* A rootless component rides along: pm_dead's functions are all
   [static] and unreachable, so the whole-set run's IPA deletes them
   while the component-parallel run takes the empty-funcs shortcut —
   both must land on the same bytes. *)
let prog_with_rootless : Pipeline.source list =
  prog_two_components
  @ [
      {
        Pipeline.name = "pm_dead";
        text =
          {|
          static func helper(x) { return x * 3 + 1; }
          static func orphan(x) { return helper(x) + helper(x + 1); }
          |};
      };
    ]

(* The CMO set reads a global that only a module outside the set
   stores, so folding it to its initializer would be wrong: the unit's
   external store context is what forbids that. *)
let prog_outside_store : Pipeline.source list =
  [
    {
      Pipeline.name = "os_main";
      text =
        {|
        global limit = 10;
        func main() {
          var s = 0;
          var i = 0;
          setup();
          while (i < limit) { s = s + step(i); i = i + 1; }
          print(s);
          return s & 255;
        }
        |};
    };
    {
      Pipeline.name = "os_step";
      text = {|
        func step(x) { return x * 3 + 1; }
        |};
    };
    {
      Pipeline.name = "os_cfg";
      text =
        {|
        extern global limit;
        func setup() { limit = 20; return 0; }
        |};
    };
  ]

(* One deep component: a cross-module inline chain whose result feeds
   a constant-foldable global — the shapes CMO actually rewrites. *)
let prog_chain : Pipeline.source list =
  [
    {
      Pipeline.name = "ch_main";
      text =
        {|
        func main() {
          var s = 0;
          var i = 0;
          while (i < 30) { s = (s + stage1(i, s)) & 65535; i = i + 1; }
          print(s);
          return s & 255;
        }
        |};
    };
    {
      Pipeline.name = "ch_mid";
      text =
        {|
        extern global knob;
        func stage1(x, seed) { return stage2(x + knob, seed) + 1; }
        |};
    };
    {
      Pipeline.name = "ch_leaf";
      text =
        {|
        global knob = 4;
        static func core(v) { return v * 9 + 2; }
        func stage2(x, seed) { return (core(x) + seed) & 65535; }
        |};
    };
  ]

(* The gcc-like generated workload, scaled for CI and sharded so the
   link step sees several independent components. *)
let workload_listing =
  lazy (Genprog.sharded (Genprog.scale (Suite.find "gcc") 0.25) ~shards:2)

let workload_sources () =
  List.map
    (fun (name, text) -> { Pipeline.name; text })
    (Lazy.force workload_listing)

let workload_cmo_modules () =
  List.filter_map
    (fun (n, _) -> if String.equal n "main_mod" then None else Some n)
    (Lazy.force workload_listing)

(* ---------- Parwork itself ---------- *)

let test_parwork_map_order () =
  List.iter
    (fun jobs ->
      let input = List.init 37 Fun.id in
      let out =
        Parwork.with_pool ~jobs (fun pool ->
            Parwork.map pool (fun i -> (i * i) + 1) input)
      in
      Alcotest.(check (list int))
        (Printf.sprintf "order kept at jobs=%d" jobs)
        (List.map (fun i -> (i * i) + 1) input)
        out)
    [ 1; 2; 4 ]

exception Boom of int

let test_parwork_first_error_by_input_order () =
  List.iter
    (fun jobs ->
      match
        Parwork.with_pool ~jobs (fun pool ->
            Parwork.map pool
              (fun i -> if i >= 5 then raise (Boom i) else i)
              (List.init 20 Fun.id))
      with
      | _ -> Alcotest.fail "expected an exception"
      | exception Boom i ->
        Alcotest.(check int)
          (Printf.sprintf "first failing input wins at jobs=%d" jobs)
          5 i)
    [ 1; 2; 4 ]

let test_parwork_submit_await () =
  Parwork.with_pool ~jobs:3 (fun pool ->
      let futures = List.init 10 (fun i -> Parwork.submit pool (fun () -> i * 2)) in
      (* Await out of submission order on purpose. *)
      List.iter
        (fun (i, f) ->
          Alcotest.(check int) "future value" (i * 2) (Parwork.await f))
        (List.rev (List.mapi (fun i f -> (i, f)) futures));
      Alcotest.(check int) "worker count" 3 (Parwork.jobs pool))

let test_parwork_single_item_inline () =
  (* One item needs one domain: the map runs on the caller's. *)
  let self = (Domain.self () :> int) in
  Alcotest.(check (list int)) "ran on the calling domain" [ self ]
    (Parwork.map_jobs ~jobs:4 (fun () -> (Domain.self () :> int)) [ () ]);
  Alcotest.(check (list int)) "empty map" []
    (Parwork.map_jobs ~jobs:4 (fun () -> 0) [])

(* ---------- the sharded workload really decomposes ---------- *)

let test_sharded_workload_components () =
  let sources = workload_sources () in
  let cmo = workload_cmo_modules () in
  let modules =
    List.filter
      (fun (m : Ilmod.t) -> List.mem m.Ilmod.mname cmo)
      (Pipeline.frontend sources)
  in
  let comps = Invalidate.components (Invalidate.compute modules) in
  (* Each shard may decompose further internally, but no component
     ever spans two shards, and the shards split symmetrically. *)
  let shard_of name =
    (* "s<k>m###" or "s<k>_main_mod" → k *)
    let i = ref 1 in
    while !i < String.length name
          && name.[!i] >= '0' && name.[!i] <= '9' do incr i done;
    String.sub name 0 !i
  in
  let shards_hit comp =
    List.sort_uniq compare (List.map shard_of comp)
  in
  List.iter
    (fun comp ->
      Alcotest.(check int) "component confined to one shard" 1
        (List.length (shards_hit comp)))
    comps;
  Alcotest.(check int) "both shards represented" 2
    (List.length (List.sort_uniq compare (List.concat_map shards_hit comps)));
  Alcotest.(check bool) "shards decompose symmetrically" true
    (List.length comps mod 2 = 0 && List.length comps >= 2)

(* ---------- the determinism matrix ---------- *)

let build ?profile ?cache options jobs sources =
  Pipeline.compile ?profile ?cache { options with Options.jobs } sources

let with_closed_store dir f =
  let store = Store.open_ ~dir () in
  Fun.protect ~finally:(fun () -> Store.close store) (fun () -> f store)

(* One (program, options) cell: j=4 must reproduce the j=1 oracle —
   uncached, then cold-cached (comparing the resulting store bytes
   too), then warm-cached over the j=1-built store. *)
let check_cell name ?profile options sources =
  let b1 = build ?profile options 1 sources in
  let b4 = build ?profile options 4 sources in
  same_build (name ^ " uncached j4=j1") b1 b4;
  with_dir (fun d1 ->
      with_dir (fun d4 ->
          let c1 =
            with_closed_store d1 (fun store ->
                build ?profile ~cache:store options 1 sources)
          in
          let c4 =
            with_closed_store d4 (fun store ->
                build ?profile ~cache:store options 4 sources)
          in
          same_build (name ^ " cold cached j4=j1") c1 c4;
          same_build (name ^ " cached=uncached") b1 c4;
          Alcotest.(check bool) (name ^ ": store bytes j4=j1") true
            (same_store_bytes d1 d4);
          (* Warm rebuild at j=4 against the store the j=1 build
             wrote, and vice versa: artifacts are interchangeable. *)
          let w41 =
            with_closed_store d1 (fun store ->
                build ?profile ~cache:store options 4 sources)
          in
          let w14 =
            with_closed_store d4 (fun store ->
                build ?profile ~cache:store options 1 sources)
          in
          same_build (name ^ " warm j4 over j1 store") c1 w41;
          same_build (name ^ " warm j1 over j4 store") c1 w14;
          Alcotest.(check bool) (name ^ ": store bytes after warm") true
            (same_store_bytes d1 d4)))

let matrix_programs () =
  [
    ("two-components", prog_two_components, None);
    ("rootless-member", prog_with_rootless, None);
    ("chain", prog_chain, None);
    ("gcc-sharded", workload_sources (), Some (workload_cmo_modules ()));
  ]

let test_determinism_o2 () =
  List.iter
    (fun (name, sources, _) -> check_cell (name ^ " +O2") Options.o2 sources)
    (matrix_programs ())

let test_determinism_o4 () =
  List.iter
    (fun (name, sources, cmo) ->
      let options = { Options.o4 with Options.cmo_modules = cmo } in
      check_cell (name ^ " +O4") options sources)
    (matrix_programs ())

let test_determinism_o4_pbo () =
  List.iter
    (fun (name, sources, cmo) ->
      let profile = Pipeline.train sources in
      let options = { Options.o4_pbo with Options.cmo_modules = cmo } in
      check_cell (name ^ " +O4+P") ~profile options sources)
    (matrix_programs ())

let test_parallel_build_runs_right () =
  (* Not just identical bytes: the j=4 image behaves. *)
  let b = build Options.o4 4 prog_two_components in
  let o = Pipeline.run b in
  Alcotest.(check bool) "prints the accumulated sum" true
    (List.length o.Vm.output = 1);
  Alcotest.(check int) "workers recorded" 4
    b.Pipeline.report.Pipeline.workers_used

let test_incremental_edit_parallel () =
  (* An edit rebuilt at j=4 equals the same edit rebuilt at j=1,
     including which modules the usage report says were re-optimized. *)
  let original = prog_two_components in
  let edited =
    List.map
      (fun (s : Pipeline.source) ->
        if String.equal s.Pipeline.name "pm_d" then
          { s with Pipeline.text = {|
        global tally = 0;
        func pack(v) { return v * 31 + 1; }
        |} }
        else s)
      original
  in
  with_dir (fun d1 ->
      with_dir (fun d4 ->
          let cold dir jobs sources =
            with_closed_store dir (fun store ->
                build ~cache:store Options.o4 jobs sources)
          in
          ignore (cold d1 1 original);
          ignore (cold d4 4 original);
          let i1 = cold d1 1 edited in
          let i4 = cold d4 4 edited in
          same_build "edited j4=j1" i1 i4;
          Alcotest.(check bool) "store bytes after edit j4=j1" true
            (same_store_bytes d1 d4);
          let usage (b : Pipeline.build) =
            match b.Pipeline.report.Pipeline.cache with
            | Some c ->
              ( List.sort compare c.Pipeline.cmo_cached,
                List.sort compare c.Pipeline.cmo_reoptimized,
                c.Pipeline.hits, c.Pipeline.misses )
            | None -> Alcotest.fail "expected cache usage"
          in
          Alcotest.(check bool) "usage reports agree" true
            (usage i1 = usage i4);
          let _, reopt, _, _ = usage i4 in
          Alcotest.(check (list string)) "only the edited closure reran"
            [ "pm_c"; "pm_d" ] reopt))

(* ---------- property: random edits, random worker counts ---------- *)

let history_arb =
  QCheck.make
    ~print:(fun h ->
      String.concat ";"
        (List.map (fun (w, v, j) -> Printf.sprintf "%c=%d@j%d" w v j) h))
    QCheck.Gen.(
      list_size (int_range 1 4)
        (triple
           (map (fun b -> if b then 'b' else 'd') bool)
           (int_range 1 50) (int_range 1 4)))

(* prog_two_components with editable constants, mirroring
   test_cache's [app] but under varying worker counts. *)
let editable ~kb ~kd : Pipeline.source list =
  List.map
    (fun (s : Pipeline.source) ->
      match s.Pipeline.name with
      | "pm_b" ->
        {
          s with
          Pipeline.text =
            Printf.sprintf
              {|
              static func twist(v) { return v * %d + 1; }
              func mix(x, seed) { return (seed / 3) + twist(x); }
              |}
              kb;
        }
      | "pm_d" ->
        {
          s with
          Pipeline.text =
            Printf.sprintf
              {|
              global tally = 0;
              func pack(v) { return v * %d; }
              |}
              kd;
        }
      | _ -> s)
    prog_two_components

let test_random_edits_random_jobs =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make
       ~name:"random edit histories at random worker counts = sequential"
       ~count:10 history_arb (fun history ->
         with_dir (fun dir ->
             with_closed_store dir (fun store ->
                 let kb = ref 5 and kd = ref 7 in
                 ignore
                   (build ~cache:store Options.o4 1 (editable ~kb:!kb ~kd:!kd));
                 List.for_all
                   (fun (which, v, jobs) ->
                     if which = 'b' then kb := v else kd := v;
                     let sources = editable ~kb:!kb ~kd:!kd in
                     let cached = build ~cache:store Options.o4 jobs sources in
                     let fresh = build Options.o4 1 sources in
                     cached.Pipeline.image.Cmo_link.Image.code
                     = fresh.Pipeline.image.Cmo_link.Image.code
                     && cached.Pipeline.objects = fresh.Pipeline.objects
                     && (Pipeline.run cached).Vm.output
                        = (Pipeline.run fresh).Vm.output)
                   history))))

(* ---------- the store under domain concurrency ---------- *)

let test_store_concurrent_stress () =
  with_dir (fun dir ->
      let store = Store.open_ ~dir () in
      let domains = 4 and keys = 10 and rounds = 150 in
      let value d k r = Printf.sprintf "d%d-k%d-r%d" d k r in
      let worker d () =
        for r = 0 to rounds - 1 do
          let k = (r + d) mod keys in
          Store.add store (Printf.sprintf "k%d" k) (value d k r);
          match Store.find store (Printf.sprintf "k%d" ((k + 3) mod keys)) with
          | Some data ->
            (* Whatever we read is some complete write, never a torn
               or interleaved one. *)
            if
              not
                (String.length data > 2
                && data.[0] = 'd'
                && String.contains data 'k'
                && String.contains data 'r')
            then Alcotest.failf "torn read: %S" data
          | None -> ()
        done
      in
      let spawned =
        List.init (domains - 1) (fun d -> Domain.spawn (worker (d + 1)))
      in
      worker 0 ();
      List.iter Domain.join spawned;
      let s = Store.stats store in
      Alcotest.(check int) "every key present" keys s.Store.entries;
      Alcotest.(check int) "every add counted" (domains * rounds)
        s.Store.stores;
      (* The index survives a round trip with everything intact. *)
      Store.close store;
      let store = Store.open_ ~dir () in
      Fun.protect
        ~finally:(fun () -> Store.close store)
        (fun () ->
          Alcotest.(check int) "entries persist" keys
            (Store.stats store).Store.entries;
          for k = 0 to keys - 1 do
            match Store.find store (Printf.sprintf "k%d" k) with
            | Some _ -> ()
            | None -> Alcotest.failf "k%d lost across reopen" k
          done))

let test_store_truncated_payload_recovery () =
  with_dir (fun dir ->
      let store = Store.open_ ~dir () in
      Store.add store "early" "first-bytes";
      Store.add store "late" (String.make 64 'z');
      Store.close store;
      (* A crash between the payload append and fsync: the second
         record is torn mid-frame but the index still names it.  On
         reopen the torn tail is truncated away, the stale entry
         degrades to a miss and the store keeps going. *)
      let first_record =
        Cmo_support.Fsio.frame_overhead + String.length "first-bytes"
      in
      Unix.truncate (Filename.concat dir "payload") (first_record + 7);
      let store = Store.open_ ~dir () in
      Fun.protect
        ~finally:(fun () -> Store.close store)
        (fun () ->
          Alcotest.(check (option string)) "prefix entry still readable"
            (Some "first-bytes") (Store.find store "early");
          Alcotest.(check (option string)) "truncated entry degrades to miss"
            None (Store.find store "late");
          Store.add store "late" "replacement";
          Alcotest.(check (option string)) "store usable after recovery"
            (Some "replacement") (Store.find store "late");
          Alcotest.(check (option string)) "earlier entry unharmed"
            (Some "first-bytes") (Store.find store "early")))

(* ---------- the accountant merge model ---------- *)

let test_memstats_merge_single_worker_exact () =
  (* One worker's merged accountant must reproduce the sequential
     peaks exactly: the merge rebases the worker's peak on the
     destination's residency at merge time. *)
  let script m =
    Memstats.charge m Memstats.Ir_expanded 1000;
    Memstats.charge m Memstats.Llo 5000;
    Memstats.release m Memstats.Llo 5000;
    Memstats.charge m Memstats.Derived 300;
    Memstats.release m Memstats.Ir_expanded 400
  in
  let sequential = Memstats.create () in
  Memstats.charge sequential Memstats.Global 2000;
  script sequential;
  let main = Memstats.create () in
  Memstats.charge main Memstats.Global 2000;
  let worker = Memstats.create () in
  script worker;
  Memstats.merge main worker;
  Alcotest.(check int) "merged peak = sequential peak"
    (Memstats.peak sequential) (Memstats.peak main);
  Alcotest.(check int) "merged hlo peak = sequential hlo peak"
    (Memstats.peak_hlo sequential) (Memstats.peak_hlo main);
  Alcotest.(check int) "merged residency = sequential residency"
    (Memstats.resident sequential) (Memstats.resident main)

let test_memstats_merge_deterministic () =
  let mk charges =
    let m = Memstats.create () in
    List.iter (fun (c, n) -> Memstats.charge m c n) charges;
    m
  in
  let run () =
    let dst = mk [ (Memstats.Global, 100) ] in
    Memstats.merge dst (mk [ (Memstats.Ir_expanded, 700) ]);
    Memstats.merge dst (mk [ (Memstats.Ir_compacted, 50) ]);
    (Memstats.peak dst, Memstats.peak_hlo dst, Memstats.resident dst)
  in
  Alcotest.(check (triple int int int)) "merge order fixed = same result"
    (run ()) (run ())

let test_mem_peak_hlo_job_invariant () =
  (* Every build runs the same units and merges their accountants in
     unit order, so both modeled peaks are build artifacts like any
     other: independent of the worker count and of the store. *)
  let peaks (b : Pipeline.build) =
    (b.Pipeline.report.Pipeline.mem_peak, b.Pipeline.report.Pipeline.mem_peak_hlo)
  in
  with_dir (fun d1 ->
      with_dir (fun d4 ->
          let cached dir jobs =
            peaks
              (with_closed_store dir (fun store ->
                   build ~cache:store Options.o4 jobs prog_two_components))
          in
          let reference = cached d1 1 in
          Alcotest.(check (pair int int)) "peaks j4 = j1" reference (cached d4 4);
          Alcotest.(check (pair int int)) "peaks without a store = with one"
            reference
            (peaks (build Options.o4 1 prog_two_components))))

(* ---------- every unit run equals the whole-set reference ---------- *)

(* What the outside modules call and store into the CMO set. *)
let external_context outside =
  let called = Hashtbl.create 64 and stored = Hashtbl.create 64 in
  List.iter
    (fun (m : Ilmod.t) ->
      List.iter
        (fun (f : Cmo_il.Func.t) ->
          List.iter
            (fun (b : Cmo_il.Func.block) ->
              List.iter
                (function
                  | Cmo_il.Instr.Call { callee; _ } -> Hashtbl.replace called callee ()
                  | Cmo_il.Instr.Store ({ Cmo_il.Instr.base; _ }, _) ->
                    Hashtbl.replace stored base ()
                  | _ -> ())
                b.Cmo_il.Func.instrs)
            f.Cmo_il.Func.blocks)
        m.Ilmod.funcs)
    outside;
  (called, stored)

(* The post-HLO IL of every CMO-set module, from one link-time CMO run
   over the whole set — the oracle the pipeline's units must
   reproduce byte for byte. *)
let whole_set_il ?cmo sources =
  let modules = Pipeline.frontend sources in
  Cmo_profile.Correlate.clear modules;
  let cmo_set, outside =
    match cmo with
    | None -> (modules, [])
    | Some names ->
      List.partition (fun (m : Ilmod.t) -> List.mem m.Ilmod.mname names) modules
  in
  List.iter
    (fun (m : Ilmod.t) ->
      List.iter (fun f -> ignore (Cmo_hlo.Phase.optimize_func f)) m.Ilmod.funcs)
    outside;
  let called, stored = external_context outside in
  let optimized, _, _ =
    Cmo_driver.Distwork.optimize_subset ~options:Options.o4
      ~externally_called:(Hashtbl.mem called) ~externally_stored:(Hashtbl.mem stored)
      ~mem:(Memstats.create ()) cmo_set
  in
  List.map (fun (m : Ilmod.t) -> (m.Ilmod.mname, Cmo_il.Ilcodec.encode_module m)) optimized

let test_units_match_whole_set () =
  let suite name =
    ( name,
      List.map
        (fun (name, text) -> { Pipeline.name; text })
        (Genprog.generate (Suite.find name)),
      None )
  in
  let li3 = Genprog.sharded (Suite.find "li") ~shards:3 in
  let programs =
    [
      ("two-components", prog_two_components, None);
      ("rootless-member", prog_with_rootless, None);
      ("outside-store", prog_outside_store, Some [ "os_main"; "os_step" ]);
      suite "m88ksim";
      suite "mcad2";
      suite "mcad3";
      ( "li x3 sharded",
        List.map (fun (name, text) -> { Pipeline.name; text }) li3,
        Some
          (List.filter_map
             (fun (n, _) -> if String.equal n "main_mod" then None else Some n)
             li3) );
    ]
  in
  List.iter
    (fun (name, sources, cmo) ->
      let reference = whole_set_il ?cmo sources in
      (* The codegen tier keys every module's code on its post-HLO IL
         bytes, so a cold store holds an entry under the reference
         bytes' key exactly when the pipeline produced those bytes. *)
      with_dir (fun dir ->
          with_closed_store dir (fun store ->
              ignore
                (build ~cache:store { Options.o4 with Options.cmo_modules = cmo } 1
                   sources);
              List.iter
                (fun (mname, il) ->
                  Alcotest.(check bool)
                    (Printf.sprintf "%s: %s post-HLO IL = whole-set run" name mname)
                    true
                    (Option.is_some (Store.peek store (Pipeline.code_key ~layout:false il))))
                reference)))
    programs

let suite =
  [
    ("parwork map order", `Quick, test_parwork_map_order);
    ("parwork error order", `Quick, test_parwork_first_error_by_input_order);
    ("parwork submit/await", `Quick, test_parwork_submit_await);
    ("parwork single item inline", `Quick, test_parwork_single_item_inline);
    ("sharded workload components", `Quick, test_sharded_workload_components);
    ("determinism +O2", `Quick, test_determinism_o2);
    ("determinism +O4", `Slow, test_determinism_o4);
    ("determinism +O4+P", `Slow, test_determinism_o4_pbo);
    ("parallel build runs", `Quick, test_parallel_build_runs_right);
    ("incremental edit in parallel", `Quick, test_incremental_edit_parallel);
    test_random_edits_random_jobs;
    ("store concurrent stress", `Quick, test_store_concurrent_stress);
    ("store truncated payload", `Quick, test_store_truncated_payload_recovery);
    ("memstats merge exact", `Quick, test_memstats_merge_single_worker_exact);
    ("memstats merge deterministic", `Quick, test_memstats_merge_deterministic);
    ("mem_peak_hlo job-invariant", `Quick, test_mem_peak_hlo_job_invariant);
    ("units match the whole-set run", `Slow, test_units_match_whole_set);
  ]
