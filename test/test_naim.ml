(* Tests for the NAIM subsystem: the memory accountant, the disk
   repository, and the loader's state machine (pin/release, LRU
   eviction, thresholds, symbol-table compaction, offloading). *)

module Memstats = Cmo_naim.Memstats
module Repository = Cmo_naim.Repository
module Loader = Cmo_naim.Loader
module Func = Cmo_il.Func
module Ilmod = Cmo_il.Ilmod
module Size = Cmo_il.Size

(* ---------- Memstats ---------- *)

let test_memstats_charge_release () =
  let m = Memstats.create () in
  Memstats.charge m Memstats.Ir_expanded 100;
  Memstats.charge m Memstats.Global 50;
  Alcotest.(check int) "resident" 150 (Memstats.resident m);
  Memstats.release m Memstats.Ir_expanded 40;
  Alcotest.(check int) "after release" 110 (Memstats.resident m);
  Alcotest.(check int) "category" 60 (Memstats.resident_of m Memstats.Ir_expanded)

let test_memstats_peak () =
  let m = Memstats.create () in
  Memstats.charge m Memstats.Ir_expanded 100;
  Memstats.release m Memstats.Ir_expanded 100;
  Memstats.charge m Memstats.Ir_expanded 30;
  Alcotest.(check int) "peak persists" 100 (Memstats.peak m);
  Memstats.reset_peak m;
  Alcotest.(check int) "peak reset to current" 30 (Memstats.peak m)

let test_memstats_hlo_excludes_llo () =
  let m = Memstats.create () in
  Memstats.charge m Memstats.Ir_expanded 100;
  Memstats.charge m Memstats.Llo 500;
  Alcotest.(check int) "hlo resident" 100 (Memstats.hlo_resident m);
  Alcotest.(check int) "total resident" 600 (Memstats.resident m);
  Alcotest.(check int) "hlo peak" 100 (Memstats.peak_hlo m)

let test_memstats_merge_empty () =
  (* Merging a fresh accountant is a no-op: no residency moves, no
     peak inflation in either direction. *)
  let dst = Memstats.create () in
  Memstats.charge dst Memstats.Ir_expanded 100;
  Memstats.release dst Memstats.Ir_expanded 60;
  Memstats.merge dst (Memstats.create ());
  Alcotest.(check int) "resident unchanged" 40 (Memstats.resident dst);
  Alcotest.(check int) "peak unchanged" 100 (Memstats.peak dst);
  let empty = Memstats.create () in
  Memstats.merge empty (Memstats.create ());
  Alcotest.(check int) "empty into empty" 0 (Memstats.resident empty);
  Alcotest.(check int) "empty peak" 0 (Memstats.peak empty)

let test_memstats_merge_residency () =
  (* The worker's peak is modeled on top of dst's residency at merge
     time; a worker peak smaller than dst's own never lowers it. *)
  let dst = Memstats.create () in
  Memstats.charge dst Memstats.Ir_expanded 100;
  Memstats.release dst Memstats.Ir_expanded 50;
  let src = Memstats.create () in
  Memstats.charge src Memstats.Ir_compacted 30;
  Memstats.release src Memstats.Ir_compacted 30;
  Memstats.merge dst src;
  Alcotest.(check int) "resident sums" 50 (Memstats.resident dst);
  (* dst resident 50 + src peak 30 = 80 < dst's own peak 100 *)
  Alcotest.(check int) "peak stays" 100 (Memstats.peak dst);
  let src2 = Memstats.create () in
  Memstats.charge src2 Memstats.Llo 70;
  Memstats.merge dst src2;
  Alcotest.(check int) "resident includes src2" 120 (Memstats.resident dst);
  (* dst resident 50 + src2 peak 70 = 120 > 100 *)
  Alcotest.(check int) "peak grows" 120 (Memstats.peak dst);
  (* LLO bytes stay out of the HLO series across the merge. *)
  Alcotest.(check int) "hlo peak untouched by llo" 100 (Memstats.peak_hlo dst)

let test_memstats_underflow_rejected () =
  let m = Memstats.create () in
  Memstats.charge m Memstats.Derived 10;
  Alcotest.(check bool) "underflow raises" true
    (try
       Memstats.release m Memstats.Derived 11;
       false
     with Invalid_argument _ -> true)

(* ---------- Repository ---------- *)

let test_repository_memory_roundtrip () =
  let r = Repository.in_memory () in
  let h1 = Repository.store r "hello" in
  let h2 = Repository.store r "world!" in
  Alcotest.(check string) "first" "hello" (Repository.fetch r h1);
  Alcotest.(check string) "second" "world!" (Repository.fetch r h2);
  Alcotest.(check int) "bytes" 11 (Repository.stored_bytes r);
  Alcotest.(check int) "stores" 2 (Repository.stores r);
  Alcotest.(check int) "fetches" 2 (Repository.fetches r)

let test_repository_file_roundtrip () =
  let path = Filename.temp_file "cmo_repo" ".bin" in
  let r = Repository.create ~path in
  Fun.protect
    ~finally:(fun () ->
      Repository.close r;
      if Sys.file_exists path then Sys.remove path)
    (fun () ->
      let h1 = Repository.store r (String.make 1000 'x') in
      let h2 = Repository.store r "abc" in
      Alcotest.(check string) "second" "abc" (Repository.fetch r h2);
      Alcotest.(check int) "first length" 1000
        (String.length (Repository.fetch r h1)))

let test_repository_close_removes_file () =
  let path = Filename.temp_file "cmo_repo" ".bin" in
  let r = Repository.create ~path in
  ignore (Repository.store r "data");
  Repository.close r;
  Alcotest.(check bool) "file removed" false (Sys.file_exists path)

let test_repository_foreign_handle_rejected () =
  let a = Repository.in_memory () in
  let b = Repository.in_memory () in
  let h = Repository.store a "data" in
  Alcotest.(check bool) "foreign handle rejected" true
    (try
       ignore (Repository.fetch b h);
       false
     with Invalid_argument _ -> true)

(* ---------- Loader ---------- *)

(* A module with [n] functions, each with a distinctive body. *)
let make_module ?(fn_blocks = 1) name n =
  let m = Ilmod.create name in
  ignore (Ilmod.add_global m ~name:(name ^ "_g") ~size:8 ~exported:true ());
  for i = 0 to n - 1 do
    let f =
      Func.create
        ~name:(Printf.sprintf "%s_f%d" name i)
        ~arity:1 ~linkage:Func.Exported
    in
    for b = 0 to fn_blocks - 1 do
      let r1 = Func.new_reg f in
      let r2 = Func.new_reg f in
      let block =
        Func.add_block f
          [
            Cmo_il.Instr.Binop
              (Cmo_il.Instr.Mul, r1, Cmo_il.Instr.Reg 0,
               Cmo_il.Instr.Imm (Int64.of_int (i + b + 2)));
            Cmo_il.Instr.Binop
              (Cmo_il.Instr.Add, r2, Cmo_il.Instr.Reg r1, Cmo_il.Instr.Imm 1L);
          ]
          (Cmo_il.Instr.Ret (Some (Cmo_il.Instr.Reg r2)))
      in
      if b = 0 then f.Func.entry <- block.Func.label
    done;
    f.Func.src_lines <- 4;
    Ilmod.add_func m f
  done;
  m

let tiny_config ~machine_memory ?forced_level () =
  {
    Loader.machine_memory;
    ir_threshold = 0.25;
    st_threshold = 0.45;
    offload_threshold = 0.70;
    cache_fraction = 0.30;
    forced_level;
  }

let new_loader ?forced_level ~machine_memory () =
  let mem = Memstats.create () in
  Loader.create (tiny_config ~machine_memory ?forced_level ()) mem

let test_loader_register_and_acquire () =
  let t = new_loader ~machine_memory:(1 lsl 30) () in
  let m = make_module "alpha" 3 in
  Loader.register_module t m;
  Alcotest.(check int) "funcs emptied from module" 0 (List.length m.Ilmod.funcs);
  Alcotest.(check (list string)) "names"
    [ "alpha_f0"; "alpha_f1"; "alpha_f2" ]
    (Loader.func_names t);
  let f = Loader.acquire t "alpha_f1" in
  Alcotest.(check string) "right function" "alpha_f1" f.Func.name;
  Loader.release t "alpha_f1";
  Loader.close t

let test_loader_acquire_unknown () =
  let t = new_loader ~machine_memory:(1 lsl 30) () in
  Alcotest.(check bool) "unknown raises Not_found" true
    (try
       ignore (Loader.acquire t "nope");
       false
     with Not_found -> true);
  Loader.close t

let test_loader_naim_off_keeps_expanded () =
  (* Huge machine: thresholds never trip; everything stays expanded. *)
  let t = new_loader ~machine_memory:(1 lsl 30) () in
  Loader.register_module t (make_module "alpha" 10);
  List.iter
    (fun n -> Loader.with_func t n (fun _ -> ()))
    (Loader.func_names t);
  let s = Loader.stats t in
  Alcotest.(check int) "no compactions" 0 s.Loader.compactions;
  Alcotest.(check int) "all cache hits" s.Loader.acquires s.Loader.cache_hits;
  Alcotest.(check bool) "level off" true (Loader.level t = Loader.Off);
  Loader.close t

let test_loader_compaction_under_pressure () =
  (* Small machine: forced IR compaction evicts cold pools. *)
  let t =
    new_loader ~machine_memory:20_000 ~forced_level:Loader.Ir_compaction ()
  in
  Loader.register_module t (make_module ~fn_blocks:4 "alpha" 20);
  let mem = Loader.memstats t in
  let s = Loader.stats t in
  Alcotest.(check bool) "compactions happened" true (s.Loader.compactions > 0);
  Alcotest.(check bool) "compacted bytes charged" true
    (Memstats.resident_of mem Memstats.Ir_compacted > 0);
  (* Re-acquiring decodes transparently. *)
  let f = Loader.acquire t "alpha_f0" in
  Alcotest.(check string) "decoded fine" "alpha_f0" f.Func.name;
  Alcotest.(check bool) "uncompaction counted" true
    ((Loader.stats t).Loader.uncompactions > 0);
  Loader.release t "alpha_f0";
  Loader.close t

let test_loader_compaction_saves_memory () =
  let measure forced_level =
    let t = new_loader ~machine_memory:20_000 ?forced_level () in
    Loader.register_module t (make_module ~fn_blocks:4 "alpha" 20);
    Loader.unload_all t;
    let resident = Memstats.resident (Loader.memstats t) in
    Loader.close t;
    resident
  in
  let off = measure (Some Loader.Off) in
  let compacted = measure (Some Loader.Ir_compaction) in
  Alcotest.(check bool)
    (Printf.sprintf "compacted %d << expanded %d" compacted off)
    true
    (compacted * 3 < off)

let test_loader_offload_discharges_memory () =
  let t = new_loader ~machine_memory:20_000 ~forced_level:Loader.Offloading () in
  Loader.register_module t (make_module ~fn_blocks:4 "alpha" 20);
  Loader.unload_all t;
  let mem = Loader.memstats t in
  Alcotest.(check int) "no expanded IR" 0
    (Memstats.resident_of mem Memstats.Ir_expanded);
  Alcotest.(check int) "no compacted IR" 0
    (Memstats.resident_of mem Memstats.Ir_compacted);
  Alcotest.(check bool) "offloads counted" true
    ((Loader.stats t).Loader.offloads > 0);
  (* Everything still loads back correctly. *)
  List.iter
    (fun n ->
      Loader.with_func t n (fun f ->
          Alcotest.(check string) "right func back" n f.Func.name))
    (Loader.func_names t);
  Alcotest.(check bool) "repo loads counted" true
    ((Loader.stats t).Loader.repo_loads > 0);
  Loader.close t

let test_loader_roundtrip_preserves_code () =
  let t = new_loader ~machine_memory:20_000 ~forced_level:Loader.Offloading () in
  let original = make_module ~fn_blocks:3 "alpha" 5 in
  let instr_counts =
    List.map (fun f -> (f.Func.name, Func.instr_count f)) original.Ilmod.funcs
  in
  Loader.register_module t original;
  Loader.unload_all t;
  List.iter
    (fun (name, expected) ->
      Loader.with_func t name (fun f ->
          Alcotest.(check int) (name ^ " instrs") expected (Func.instr_count f)))
    instr_counts;
  Loader.close t

let test_loader_pinned_never_evicted () =
  let t = new_loader ~machine_memory:10_000 ~forced_level:Loader.Offloading () in
  Loader.register_module t (make_module ~fn_blocks:4 "alpha" 10);
  let f = Loader.acquire t "alpha_f0" in
  (* Create pressure by touching everything else. *)
  List.iter
    (fun n -> if n <> "alpha_f0" then Loader.with_func t n (fun _ -> ()))
    (Loader.func_names t);
  Loader.unload_all t;
  (* The pinned function must still be the same value, not a re-decode. *)
  let g = Loader.acquire t "alpha_f0" in
  Alcotest.(check bool) "same physical value" true (f == g);
  Loader.release t "alpha_f0";
  Loader.release t "alpha_f0";
  Loader.close t

let test_loader_update_adjusts_accounting () =
  let t = new_loader ~machine_memory:(1 lsl 30) () in
  Loader.register_module t (make_module "alpha" 1);
  let mem = Loader.memstats t in
  let before = Memstats.resident_of mem Memstats.Ir_expanded in
  let f = Loader.acquire t "alpha_f0" in
  (* Grow the function. *)
  let r = Func.new_reg f in
  let b =
    Func.add_block f
      [ Cmo_il.Instr.Move (r, Cmo_il.Instr.Imm 1L) ]
      (Cmo_il.Instr.Ret None)
  in
  ignore b;
  Loader.update t f;
  let after = Memstats.resident_of mem Memstats.Ir_expanded in
  Alcotest.(check bool) "accounting grew" true (after > before);
  Loader.release t "alpha_f0";
  Loader.close t

let test_loader_update_requires_acquired_value () =
  let t = new_loader ~machine_memory:(1 lsl 30) () in
  Loader.register_module t (make_module "alpha" 1);
  let _ = Loader.acquire t "alpha_f0" in
  let impostor = Helpers.make_linear_func "alpha_f0" in
  Alcotest.(check bool) "impostor rejected" true
    (try
       Loader.update t impostor;
       false
     with Invalid_argument _ -> true);
  Loader.release t "alpha_f0";
  Loader.close t

let test_loader_add_remove_func () =
  let t = new_loader ~machine_memory:(1 lsl 30) () in
  Loader.register_module t (make_module "alpha" 2);
  Loader.add_func t ~module_name:"alpha" (Helpers.make_linear_func "clone_1");
  Alcotest.(check (list string)) "clone registered"
    [ "alpha_f0"; "alpha_f1"; "clone_1" ]
    (Loader.func_names t);
  Alcotest.(check string) "clone in module" "alpha"
    (Loader.module_of_func t "clone_1");
  let before = Memstats.resident (Loader.memstats t) in
  Loader.remove_funcs t [ "clone_1" ];
  Alcotest.(check bool) "memory discharged" true
    (Memstats.resident (Loader.memstats t) < before);
  Alcotest.(check (list string)) "clone gone"
    [ "alpha_f0"; "alpha_f1" ]
    (Loader.func_names t);
  Loader.close t

let test_loader_symtab_compaction () =
  let t = new_loader ~machine_memory:20_000 ~forced_level:Loader.St_compaction () in
  Loader.register_module t (make_module ~fn_blocks:4 "alpha" 10);
  Loader.unload_all t;
  let mem = Loader.memstats t in
  Alcotest.(check bool) "symtab compacted" true
    ((Loader.stats t).Loader.symtab_compactions > 0);
  Alcotest.(check int) "no expanded symtab" 0
    (Memstats.resident_of mem Memstats.Symtab_expanded);
  (* Acquiring a routine re-expands the module symbol table. *)
  Loader.with_func t "alpha_f0" (fun _ ->
      Alcotest.(check bool) "symtab expanded while func live" true
        (Memstats.resident_of mem Memstats.Symtab_expanded > 0));
  Loader.close t

let test_loader_dynamic_thresholds () =
  (* Machine sized so that registration crosses the IR threshold. *)
  let t = new_loader ~machine_memory:100_000 () in
  Loader.register_module t (make_module ~fn_blocks:8 "alpha" 30);
  Alcotest.(check bool) "level escalated beyond Off" true
    (Loader.level t <> Loader.Off);
  let s = Loader.stats t in
  Alcotest.(check bool) "evictions happened" true (s.Loader.compactions > 0);
  Loader.close t

let test_loader_extract_modules () =
  let t = new_loader ~machine_memory:20_000 ~forced_level:Loader.Offloading () in
  let original = make_module ~fn_blocks:2 "alpha" 4 in
  let expected = List.map (fun f -> f.Func.name) original.Ilmod.funcs in
  Loader.register_module t original;
  Loader.unload_all t;
  match Loader.extract_modules t with
  | [ m ] ->
    Alcotest.(check string) "module name" "alpha" m.Ilmod.mname;
    Alcotest.(check (list string)) "functions restored in order" expected
      (List.map (fun f -> f.Func.name) m.Ilmod.funcs);
    Alcotest.(check int) "globals restored" 1 (List.length m.Ilmod.globals);
    Loader.close t
  | _ ->
    Loader.close t;
    Alcotest.fail "expected one module"

let test_loader_lru_evicts_coldest () =
  (* Cache budget fits about two pools: the most recently used pool
     must survive each eviction round. *)
  let t = new_loader ~machine_memory:50_000 ~forced_level:Loader.Ir_compaction () in
  Loader.register_module t (make_module ~fn_blocks:4 "alpha" 8);
  (* Touch f7 last so it is the hottest. *)
  List.iter (fun n -> Loader.with_func t n (fun _ -> ())) (Loader.func_names t);
  let hits_before = (Loader.stats t).Loader.cache_hits in
  (* The most recently used function should still be expanded. *)
  Loader.with_func t "alpha_f7" (fun _ -> ());
  let hits_after = (Loader.stats t).Loader.cache_hits in
  Alcotest.(check bool) "MRU stayed expanded (cache hit)" true
    (hits_after > hits_before);
  Loader.close t

(* ---------- Loader against a naive reference model ---------- *)

(* The loader keeps its eviction candidates in an LRU map with a
   running byte total, and sweeps only idle symbol tables.  This model
   is the unindexed original: it folds the whole pool table for the
   pending total and the LRU minimum, and iterates every module on
   each sweep.  Its tables are created at the loader's sizes, so
   [Hashtbl.iter] visits them in the order the loader's own tables
   would.  Random traffic must leave both with the same pool states,
   stats, level and Memstats bytes and peaks after every operation. *)
module Model = struct
  module Intern = Cmo_support.Intern
  module Codec = Cmo_support.Codec

  type state = [ `Expanded | `Compacted | `Offloaded ]

  type pool = {
    owner : string;
    mutable func : Func.t;  (* physically the loader's value while expanded *)
    mutable state : state;
    mutable expanded_bytes : int;
    mutable compact_charge : int;
    mutable pins : int;
    mutable last_touch : int;
    mutable pending : bool;
  }

  type modr = {
    mname : string;
    globals : Ilmod.global list;
    names : Intern.t;
    symtab_bytes : int;
    mutable symtab_compact_bytes : int;
    mutable symtab_compacted : bool;
    mutable expanded : int;
  }

  type t = {
    config : Loader.config;
    mem : Memstats.t;
    pools : (string, pool) Hashtbl.t;
    modules : (string, modr) Hashtbl.t;
    mutable order_rev : string list;
    mutable clock : int;
    mutable stats : Loader.stats;
  }

  let create config =
    {
      config;
      mem = Memstats.create ();
      pools = Hashtbl.create 512;
      modules = Hashtbl.create 64;
      order_rev = [];
      clock = 0;
      stats =
        {
          Loader.acquires = 0;
          cache_hits = 0;
          uncompactions = 0;
          repo_loads = 0;
          compactions = 0;
          offloads = 0;
          symtab_compactions = 0;
        };
    }

  let tick t =
    t.clock <- t.clock + 1;
    t.clock

  let charge t = Memstats.charge t.mem

  let release t = Memstats.release t.mem

  let level t =
    match t.config.Loader.forced_level with
    | Some l -> l
    | None ->
      let r = float_of_int (Memstats.resident t.mem) in
      let mm = float_of_int t.config.Loader.machine_memory in
      if r > t.config.Loader.offload_threshold *. mm then Loader.Offloading
      else if r > t.config.Loader.st_threshold *. mm then Loader.St_compaction
      else if r > t.config.Loader.ir_threshold *. mm then Loader.Ir_compaction
      else Loader.Off

  let symtab_encoded_bytes m =
    let w = Codec.Writer.create () in
    Codec.Writer.string w m.mname;
    let names = ref [] in
    Intern.iter m.names (fun _ s -> names := s :: !names);
    Codec.Writer.list w (Codec.Writer.string w) (List.rev !names);
    Codec.Writer.uvarint w (List.length m.globals);
    List.iter
      (fun (g : Ilmod.global) ->
        Codec.Writer.string w g.Ilmod.gname;
        Codec.Writer.uvarint w g.Ilmod.size;
        Codec.Writer.bool w g.Ilmod.exported;
        Codec.Writer.array w (Codec.Writer.int64 w) g.Ilmod.init)
      m.globals;
    Codec.Writer.length w

  let compact_symtab t m =
    if not m.symtab_compacted then begin
      m.symtab_compact_bytes <- symtab_encoded_bytes m;
      release t Memstats.Symtab_expanded m.symtab_bytes;
      charge t Memstats.Symtab_compacted m.symtab_compact_bytes;
      m.symtab_compacted <- true;
      t.stats <-
        { t.stats with
          Loader.symtab_compactions = t.stats.Loader.symtab_compactions + 1 }
    end

  let expand_symtab t m =
    if m.symtab_compacted then begin
      release t Memstats.Symtab_compacted m.symtab_compact_bytes;
      charge t Memstats.Symtab_expanded m.symtab_bytes;
      m.symtab_compacted <- false
    end

  let compact t p =
    if p.state = `Expanded then begin
      let m = Hashtbl.find t.modules p.owner in
      expand_symtab t m;
      ignore (Cmo_il.Ilcodec.encode_func ~names:m.names p.func);
      p.compact_charge <- Size.func_compacted_bytes p.func;
      release t Memstats.Ir_expanded p.expanded_bytes;
      charge t Memstats.Ir_compacted p.compact_charge;
      p.state <- `Compacted;
      p.pending <- false;
      m.expanded <- m.expanded - 1;
      t.stats <-
        { t.stats with Loader.compactions = t.stats.Loader.compactions + 1 }
    end

  let offload t p =
    compact t p;
    if p.state = `Compacted then begin
      release t Memstats.Ir_compacted p.compact_charge;
      p.compact_charge <- 0;
      p.state <- `Offloaded;
      t.stats <- { t.stats with Loader.offloads = t.stats.Loader.offloads + 1 }
    end

  let unload t lvl p =
    match lvl with
    | Loader.Off -> ()
    | Loader.Ir_compaction | Loader.St_compaction -> compact t p
    | Loader.Offloading -> offload t p

  let sweep t lvl =
    match lvl with
    | Loader.St_compaction | Loader.Offloading ->
      Hashtbl.iter
        (fun _ m -> if m.expanded = 0 then compact_symtab t m)
        t.modules
    | Loader.Off | Loader.Ir_compaction -> ()

  let evict t =
    let lvl = level t in
    if lvl <> Loader.Off then begin
      let budget =
        int_of_float
          (t.config.Loader.cache_fraction
          *. float_of_int t.config.Loader.machine_memory)
      in
      let pending_bytes () =
        Hashtbl.fold
          (fun _ p acc -> if p.pending then acc + p.expanded_bytes else acc)
          t.pools 0
      in
      let lru () =
        Hashtbl.fold
          (fun _ p best ->
            match best with
            | _ when not p.pending -> best
            | Some b when b.last_touch <= p.last_touch -> best
            | _ -> Some p)
          t.pools None
      in
      let rec drain () =
        if pending_bytes () > budget then
          match lru () with
          | None -> ()
          | Some p ->
            unload t lvl p;
            drain ()
      in
      drain ();
      sweep t lvl
    end

  let add_pool t m (f : Func.t) =
    let p =
      {
        owner = m.mname;
        func = f;
        state = `Expanded;
        expanded_bytes = Size.func_expanded_bytes f;
        compact_charge = 0;
        pins = 0;
        last_touch = tick t;
        pending = true;
      }
    in
    Hashtbl.replace t.pools f.Func.name p;
    t.order_rev <- f.Func.name :: t.order_rev;
    m.expanded <- m.expanded + 1;
    charge t Memstats.Ir_expanded p.expanded_bytes

  (* Call before [Loader.register_module], which empties [il.funcs]. *)
  let register t (il : Ilmod.t) =
    let m =
      {
        mname = il.Ilmod.mname;
        globals = il.Ilmod.globals;
        names = Intern.create ();
        symtab_bytes = Size.module_symtab_expanded_bytes il;
        symtab_compact_bytes = 0;
        symtab_compacted = false;
        expanded = 0;
      }
    in
    Hashtbl.replace t.modules m.mname m;
    charge t Memstats.Symtab_expanded m.symtab_bytes;
    List.iter (add_pool t m) il.Ilmod.funcs;
    evict t

  (* [f] is what [Loader.acquire] returned. *)
  let acquire t name f =
    let p = Hashtbl.find t.pools name in
    t.stats <- { t.stats with Loader.acquires = t.stats.Loader.acquires + 1 };
    p.last_touch <- tick t;
    let m = Hashtbl.find t.modules p.owner in
    (match p.state with
    | `Expanded ->
      t.stats <- { t.stats with Loader.cache_hits = t.stats.Loader.cache_hits + 1 }
    | `Compacted ->
      expand_symtab t m;
      release t Memstats.Ir_compacted p.compact_charge;
      p.compact_charge <- 0;
      charge t Memstats.Ir_expanded p.expanded_bytes;
      m.expanded <- m.expanded + 1;
      t.stats <-
        { t.stats with Loader.uncompactions = t.stats.Loader.uncompactions + 1 }
    | `Offloaded ->
      expand_symtab t m;
      charge t Memstats.Ir_expanded p.expanded_bytes;
      m.expanded <- m.expanded + 1;
      t.stats <-
        { t.stats with
          Loader.repo_loads = t.stats.Loader.repo_loads + 1;
          uncompactions = t.stats.Loader.uncompactions + 1 });
    p.state <- `Expanded;
    p.func <- f;
    p.pending <- false;
    p.pins <- p.pins + 1

  let release_func t name =
    let p = Hashtbl.find t.pools name in
    p.pins <- p.pins - 1;
    if p.pins = 0 then begin
      p.pending <- true;
      evict t
    end

  let update t (f : Func.t) =
    let p = Hashtbl.find t.pools f.Func.name in
    let bytes = Size.func_expanded_bytes f in
    if bytes > p.expanded_bytes then
      charge t Memstats.Ir_expanded (bytes - p.expanded_bytes)
    else release t Memstats.Ir_expanded (p.expanded_bytes - bytes);
    p.expanded_bytes <- bytes

  let add_func t mname f =
    let m = Hashtbl.find t.modules mname in
    expand_symtab t m;
    add_pool t m f;
    evict t

  let remove t names =
    List.iter
      (fun name ->
        match Hashtbl.find_opt t.pools name with
        | None -> ()
        | Some p ->
          let m = Hashtbl.find t.modules p.owner in
          (match p.state with
          | `Expanded ->
            release t Memstats.Ir_expanded p.expanded_bytes;
            m.expanded <- m.expanded - 1
          | `Compacted -> release t Memstats.Ir_compacted p.compact_charge
          | `Offloaded -> ());
          Hashtbl.remove t.pools name;
          t.order_rev <- List.filter (( <> ) name) t.order_rev)
      names

  let unload_all t =
    let lvl = level t in
    if lvl <> Loader.Off then begin
      Hashtbl.iter (fun _ p -> if p.pins = 0 then unload t lvl p) t.pools;
      sweep t lvl
    end
end

type model_op =
  | Register of int * int * int  (* routines, blocks each, extern callees *)
  | Acquire of int
  | Release of int
  | Resize of int  (* grow (even) or shrink (odd) an expanded routine *)
  | Clone of int
  | Remove of int * int
  | Unload_all
  | Reset_peak

let print_model_op = function
  | Register (n, b, x) -> Printf.sprintf "Register(%d,%d,%d)" n b x
  | Acquire i -> Printf.sprintf "Acquire %d" i
  | Release i -> Printf.sprintf "Release %d" i
  | Resize i -> Printf.sprintf "Resize %d" i
  | Clone i -> Printf.sprintf "Clone %d" i
  | Remove (i, j) -> Printf.sprintf "Remove(%d,%d)" i j
  | Unload_all -> "Unload_all"
  | Reset_peak -> "Reset_peak"

let level_name = function
  | Loader.Off -> "off"
  | Loader.Ir_compaction -> "ir"
  | Loader.St_compaction -> "st"
  | Loader.Offloading -> "offload"

(* A module whose first routine calls [externs] distinct long names:
   its interned name table can then encode larger than the modeled
   expanded symbol table, so a symtab compaction raises residency and
   the sweep order shows in the peak. *)
let model_module idx ~funcs ~blocks ~externs =
  let name = Printf.sprintf "m%d" idx in
  let m = make_module ~fn_blocks:blocks name funcs in
  (match m.Ilmod.funcs with
  | f :: _ ->
    let calls =
      List.init externs (fun k ->
          Cmo_il.Instr.Call
            {
              Cmo_il.Instr.dst = None;
              callee = Printf.sprintf "extern_%s_routine_number_%d" name k;
              args = [];
              site = Func.new_site f;
              call_count = 0.0;
            })
    in
    let entry = Func.entry_block f in
    entry.Func.instrs <- calls @ entry.Func.instrs
  | [] -> ());
  m

let model_config_gen =
  QCheck.Gen.(
    pair
      (oneofl [ 4_000; 8_000; 16_000; 32_000; 64_000; 1 lsl 30 ])
      (frequency
         [
           (6, return None);
           (1, return (Some Loader.Ir_compaction));
           (1, return (Some Loader.St_compaction));
           (1, return (Some Loader.Offloading));
         ]))

let model_op_gen =
  QCheck.Gen.(
    frequency
      [
        ( 2,
          map3
            (fun n b x -> Register (n, b, x))
            (int_range 0 5) (int_range 1 3)
            (frequency [ (3, return 0); (1, int_range 20 60) ]) );
        (6, map (fun i -> Acquire i) nat);
        (5, map (fun i -> Release i) nat);
        (2, map (fun i -> Resize i) nat);
        (1, map (fun i -> Clone i) nat);
        (1, map2 (fun i j -> Remove (i, j)) nat nat);
        (1, return Unload_all);
        (1, return Reset_peak);
      ])

let model_case_gen =
  QCheck.Gen.(pair model_config_gen (list_size (int_range 1 60) model_op_gen))

let print_model_case ((mm, forced), ops) =
  Printf.sprintf "machine %d, forced %s: [%s]" mm
    (match forced with None -> "none" | Some l -> level_name l)
    (String.concat "; " (List.map print_model_op ops))

(* Replays one case on the loader and the model; [Error] names the
   first disagreement.  [seen] collects the levels the dynamic
   thresholds reached. *)
let run_model_case ?(seen = Hashtbl.create 4) ((machine_memory, forced_level), ops)
    =
  let config = tiny_config ~machine_memory ?forced_level () in
  let loader = Loader.create config (Memstats.create ()) in
  let model = Model.create config in
  let modules = ref [] in
  let pinned = ref [] in
  let fresh = ref 0 in
  let nth l i = List.nth l (i mod List.length l) in
  let rec drop_one x = function
    | [] -> []
    | y :: rest -> if y = x then rest else y :: drop_one x rest
  in
  let step = function
    | Register (funcs, blocks, externs) ->
      let il = model_module (List.length !modules) ~funcs ~blocks ~externs in
      Model.register model il;
      Loader.register_module loader il;
      modules := !modules @ [ il.Ilmod.mname ]
    | Acquire i ->
      let names = Loader.func_names loader in
      if names <> [] then begin
        let name = nth names i in
        Model.acquire model name (Loader.acquire loader name);
        pinned := name :: !pinned
      end
    | Release i ->
      if !pinned <> [] then begin
        let name = nth !pinned i in
        pinned := drop_one name !pinned;
        Loader.release loader name;
        Model.release_func model name
      end
    | Resize i -> (
      let expanded =
        List.filter
          (fun n -> Loader.residency loader n = Some `Expanded)
          (Loader.func_names loader)
      in
      if expanded <> [] then
        let p = Hashtbl.find model.Model.pools (nth expanded i) in
        let f = p.Model.func in
        if i mod 2 = 0 then
          ignore
            (Func.add_block f
               [ Cmo_il.Instr.Move (Func.new_reg f, Cmo_il.Instr.Imm 3L) ]
               (Cmo_il.Instr.Ret None))
        else
          f.Func.blocks <-
            List.filter (fun b -> b.Func.label = f.Func.entry) f.Func.blocks;
        Loader.update loader f;
        Model.update model f)
    | Clone i ->
      if !modules <> [] then begin
        incr fresh;
        let f = Helpers.make_linear_func (Printf.sprintf "clone%d" !fresh) in
        let mname = nth !modules i in
        Loader.add_func loader ~module_name:mname f;
        Model.add_func model mname f
      end
    | Remove (i, j) ->
      let unpinned =
        List.filter
          (fun n -> not (List.mem n !pinned))
          (Loader.func_names loader)
      in
      if unpinned <> [] then begin
        let names = [ nth unpinned i; nth unpinned j ] in
        Loader.remove_funcs loader names;
        Model.remove model names
      end
    | Unload_all ->
      Loader.unload_all loader;
      Model.unload_all model
    | Reset_peak ->
      Memstats.reset_peak (Loader.memstats loader);
      Memstats.reset_peak model.Model.mem
  in
  let mem = Loader.memstats loader in
  let mismatch = ref None in
  let expect what a b =
    if !mismatch = None && a <> b then mismatch := Some what
  in
  let agree () =
    let names = Loader.func_names loader in
    expect "function order" names (List.rev model.Model.order_rev);
    List.iter
      (fun n ->
        expect ("state of " ^ n)
          (Loader.residency loader n)
          (Some (Hashtbl.find model.Model.pools n).Model.state))
      names;
    expect "stats" (Loader.stats loader) model.Model.stats;
    expect "level" (Loader.level loader) (Model.level model);
    expect "peak" (Memstats.peak mem) (Memstats.peak model.Model.mem);
    expect "hlo peak" (Memstats.peak_hlo mem) (Memstats.peak_hlo model.Model.mem);
    let bytes m = List.map (Memstats.resident_of m) Memstats.all_categories in
    expect "per-category bytes" (bytes mem) (bytes model.Model.mem)
  in
  List.iteri
    (fun k op ->
      if !mismatch = None then begin
        step op;
        agree ();
        if forced_level = None then
          Hashtbl.replace seen (Loader.level loader) ();
        Option.iter
          (fun what ->
            mismatch := Some (Printf.sprintf "%s after op %d" what k))
          !mismatch
      end)
    ops;
  Loader.close loader;
  match !mismatch with None -> Ok () | Some what -> Error what

let prop_loader_matches_model =
  QCheck.Test.make ~name:"loader matches full-scan model"
    ~count:300
    (QCheck.make ~print:print_model_case model_case_gen)
    (fun case ->
      match run_model_case case with
      | Ok () -> true
      | Error what -> QCheck.Test.fail_reportf "loader and model differ: %s" what)

(* The same replay over a fixed sample: the thresholds alone must
   drive the loader through every level, so the property above is
   known to exercise each one. *)
let test_loader_model_reaches_every_level () =
  let seen = Hashtbl.create 4 in
  let rand = Random.State.make [| 42 |] in
  List.iter
    (fun case ->
      match run_model_case ~seen case with
      | Ok () -> ()
      | Error what -> Alcotest.failf "%s in %s" what (print_model_case case))
    (QCheck.Gen.generate ~rand ~n:200 model_case_gen);
  List.iter
    (fun l ->
      Alcotest.(check bool) ("reached " ^ level_name l) true (Hashtbl.mem seen l))
    [ Loader.Off; Loader.Ir_compaction; Loader.St_compaction; Loader.Offloading ]

(* [2n] modules go idle together under a forced St_compaction level
   and a budget too large to evict: the first [n], registered first,
   each grow when their symbol table compacts (their routine's extern
   names were interned by an earlier compaction); the other [n]
   shrink.  With the peak reset just before the sweep, any visiting
   order other than the full-table sweep's moves the peak.  At
   [n = 70] the module table has doubled its buckets and several
   share one. *)
let test_loader_sweep_order_keeps_peak () =
  let n = 70 in
  let grow = List.init n (fun _ -> Register (1, 1, 60)) in
  let shrink = List.init n (fun _ -> Register (1, 1, 0)) in
  let touch =
    List.concat (List.init (2 * n) (fun i -> [ Acquire i; Release 0 ]))
  in
  let remove_all = List.init n (fun _ -> Remove (0, 1)) in
  let ops =
    grow @ shrink @ [ Unload_all ] @ touch @ remove_all
    @ [ Reset_peak; Register (0, 1, 0) ]
  in
  match run_model_case ((1 lsl 30, Some Loader.St_compaction), ops) with
  | Ok () -> ()
  | Error what -> Alcotest.fail what

let suite =
  [
    ("memstats charge/release", `Quick, test_memstats_charge_release);
    ("memstats peak", `Quick, test_memstats_peak);
    ("memstats hlo vs llo", `Quick, test_memstats_hlo_excludes_llo);
    ("memstats merge empty", `Quick, test_memstats_merge_empty);
    ("memstats merge residency", `Quick, test_memstats_merge_residency);
    ("memstats underflow rejected", `Quick, test_memstats_underflow_rejected);
    ("repository in-memory", `Quick, test_repository_memory_roundtrip);
    ("repository file-backed", `Quick, test_repository_file_roundtrip);
    ("repository close removes file", `Quick, test_repository_close_removes_file);
    ("repository foreign handle", `Quick, test_repository_foreign_handle_rejected);
    ("loader register/acquire", `Quick, test_loader_register_and_acquire);
    ("loader unknown function", `Quick, test_loader_acquire_unknown);
    ("loader NAIM off", `Quick, test_loader_naim_off_keeps_expanded);
    ("loader compacts under pressure", `Quick, test_loader_compaction_under_pressure);
    ("loader compaction saves memory", `Quick, test_loader_compaction_saves_memory);
    ("loader offload discharges memory", `Quick, test_loader_offload_discharges_memory);
    ("loader roundtrip preserves code", `Quick, test_loader_roundtrip_preserves_code);
    ("loader pinned never evicted", `Quick, test_loader_pinned_never_evicted);
    ("loader update accounting", `Quick, test_loader_update_adjusts_accounting);
    ("loader update impostor rejected", `Quick, test_loader_update_requires_acquired_value);
    ("loader add/remove function", `Quick, test_loader_add_remove_func);
    ("loader symtab compaction", `Quick, test_loader_symtab_compaction);
    ("loader dynamic thresholds", `Quick, test_loader_dynamic_thresholds);
    ("loader extract modules", `Quick, test_loader_extract_modules);
    ("loader model reaches every level", `Quick, test_loader_model_reaches_every_level);
    ("loader sweep order keeps the peak", `Quick, test_loader_sweep_order_keeps_peak);
    Helpers.to_alcotest prop_loader_matches_model;
    ("loader LRU keeps hot pools", `Quick, test_loader_lru_evicts_coldest);
  ]
