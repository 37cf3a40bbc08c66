let log_src = Logs.Src.create "cmo.naim" ~doc:"NAIM loader traffic"

module Log = (val Logs.src_log log_src : Logs.LOG)

module Func = Cmo_il.Func
module Ilmod = Cmo_il.Ilmod
module Ilcodec = Cmo_il.Ilcodec
module Size = Cmo_il.Size
module Intern = Cmo_support.Intern
module Codec = Cmo_support.Codec
module Obs = Cmo_obs.Obs
module Lru = Map.Make (Int)

type level = Off | Ir_compaction | St_compaction | Offloading

type config = {
  machine_memory : int;
  ir_threshold : float;
  st_threshold : float;
  offload_threshold : float;
  cache_fraction : float;
  forced_level : level option;
}

let default_config =
  {
    machine_memory = 256 * 1024 * 1024;
    ir_threshold = 0.25;
    st_threshold = 0.45;
    offload_threshold = 0.70;
    cache_fraction = 0.30;
    forced_level = None;
  }

type stats = {
  acquires : int;
  cache_hits : int;
  uncompactions : int;
  repo_loads : int;
  compactions : int;
  offloads : int;
  symtab_compactions : int;
}

type pool_state =
  | Expanded of Func.t
  | Compacted of string
  | Offloaded of Repository.handle

type pool = {
  fname : string;
  pool_module : string;
  arity : int;  (* interface datum: readable without expanding *)
  mutable state : pool_state;
  mutable expanded_bytes : int;  (* modeled size of the expanded form *)
  mutable compact_charge : int;  (* modeled resident size when Compacted *)
  mutable pins : int;
  mutable last_touch : int;
  mutable pending : bool;  (* unpinned and expanded: eviction candidate *)
}

type module_rec = {
  mname : string;
  mindex : int;  (* registration position *)
  globals : Ilmod.global list;
  names : Intern.t;
  mutable symtab_bytes : int;
  mutable symtab_compact_bytes : int;
  mutable symtab_compacted : bool;
  mutable funcs_rev : string list;
  mutable expanded_count : int;
}

(* The unloader never scans the pool table.  Pending pools sit in
   [lru], keyed by their (unique) [last_touch], with [pending_bytes]
   their running expanded total; both change only in [set_pending]
   and, for a pending pool's size, in [update].  [idle] holds the
   modules whose symbol tables a sweep would compact: no routine
   expanded, table still expanded.  [note_idle] keeps it current. *)
type t = {
  config : config;
  mem : Memstats.t;
  repo : Repository.t;
  owns_repo : bool;
  pools : (string, pool) Hashtbl.t;
  modules : (string, module_rec) Hashtbl.t;
  globals : (string, int) Hashtbl.t;  (* global name -> size *)
  mutable lru : pool Lru.t;
  mutable pending_bytes : int;
  idle : (string, module_rec) Hashtbl.t;
  mutable module_order_rev : string list;
  mutable func_order_rev : string list;
  mutable clock : int;
  mutable s_acquires : int;
  mutable s_cache_hits : int;
  mutable s_uncompactions : int;
  mutable s_repo_loads : int;
  mutable s_compactions : int;
  mutable s_offloads : int;
  mutable s_symtab_compactions : int;
}

let modules_initial_size = 64

let create ?repo config mem =
  let owns_repo = repo = None in
  let repo = match repo with Some r -> r | None -> Repository.in_memory () in
  {
    config;
    mem;
    repo;
    owns_repo;
    pools = Hashtbl.create 512;
    modules = Hashtbl.create modules_initial_size;
    globals = Hashtbl.create 256;
    lru = Lru.empty;
    pending_bytes = 0;
    idle = Hashtbl.create 64;
    module_order_rev = [];
    func_order_rev = [];
    clock = 0;
    s_acquires = 0;
    s_cache_hits = 0;
    s_uncompactions = 0;
    s_repo_loads = 0;
    s_compactions = 0;
    s_offloads = 0;
    s_symtab_compactions = 0;
  }

let memstats t = t.mem

let tick t =
  t.clock <- t.clock + 1;
  t.clock

let level t =
  match t.config.forced_level with
  | Some l -> l
  | None ->
    let r = float_of_int (Memstats.resident t.mem) in
    let mm = float_of_int t.config.machine_memory in
    if r > t.config.offload_threshold *. mm then Offloading
    else if r > t.config.st_threshold *. mm then St_compaction
    else if r > t.config.ir_threshold *. mm then Ir_compaction
    else Off

let find_pool t fname =
  match Hashtbl.find_opt t.pools fname with
  | Some p -> p
  | None -> raise Not_found

let find_module t mname = Hashtbl.find t.modules mname

let set_pending t pool pending =
  if pool.pending <> pending then begin
    pool.pending <- pending;
    if pending then begin
      t.lru <- Lru.add pool.last_touch pool t.lru;
      t.pending_bytes <- t.pending_bytes + pool.expanded_bytes
    end
    else begin
      t.lru <- Lru.remove pool.last_touch t.lru;
      t.pending_bytes <- t.pending_bytes - pool.expanded_bytes
    end
  end

let note_idle t m =
  if m.expanded_count = 0 && not m.symtab_compacted then
    Hashtbl.replace t.idle m.mname m
  else Hashtbl.remove t.idle m.mname

let adjust_expanded t m delta =
  m.expanded_count <- m.expanded_count + delta;
  note_idle t m

(* --- symbol-table pool state transitions --- *)

let encode_symtab (m : module_rec) =
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
    m.symtab_compact_bytes <- encode_symtab m;
    Memstats.release t.mem Memstats.Symtab_expanded m.symtab_bytes;
    Memstats.charge t.mem Memstats.Symtab_compacted m.symtab_compact_bytes;
    m.symtab_compacted <- true;
    note_idle t m;
    t.s_symtab_compactions <- t.s_symtab_compactions + 1;
    Obs.tick "naim.loader" "symtab_compactions" 1
  end

let expand_symtab t m =
  if m.symtab_compacted then begin
    Memstats.release t.mem Memstats.Symtab_compacted m.symtab_compact_bytes;
    Memstats.charge t.mem Memstats.Symtab_expanded m.symtab_bytes;
    m.symtab_compacted <- false;
    note_idle t m
  end

(* --- pool state transitions --- *)

let compact_pool t pool =
  match pool.state with
  | Expanded f ->
    let m = find_module t pool.pool_module in
    expand_symtab t m;  (* encoding needs the name table live *)
    let bytes = Ilcodec.encode_func ~names:m.names f in
    (* The resident compacted form is charged at its modeled
       relocatable size, not the (much denser) serialized stream. *)
    pool.compact_charge <- Size.func_compacted_bytes f;
    Memstats.release t.mem Memstats.Ir_expanded pool.expanded_bytes;
    Memstats.charge t.mem Memstats.Ir_compacted pool.compact_charge;
    pool.state <- Compacted bytes;
    set_pending t pool false;
    adjust_expanded t m (-1);
    t.s_compactions <- t.s_compactions + 1;
    Obs.tick "naim.loader" "compactions" 1;
    Log.debug (fun log ->
        log "compacted %s (%d -> %d bytes)" pool.fname pool.expanded_bytes
          pool.compact_charge)
  | Compacted _ | Offloaded _ -> ()

let offload_pool t pool =
  compact_pool t pool;
  match pool.state with
  | Compacted bytes -> (
    match Repository.store t.repo bytes with
    | handle ->
      Memstats.release t.mem Memstats.Ir_compacted pool.compact_charge;
      pool.compact_charge <- 0;
      pool.state <- Offloaded handle;
      t.s_offloads <- t.s_offloads + 1;
      Obs.tick "naim.loader" "offloads" 1;
      Log.debug (fun log -> log "offloaded %s to the repository" pool.fname)
    | exception Sys_error m ->
      (* An unwritable repository costs memory headroom, not the
         build: the pool simply stays resident in compacted form. *)
      Obs.tick "naim.loader" "offload_skipped" 1;
      Log.warn (fun log ->
          log "repository store failed (%s); keeping %s in memory" m pool.fname))
  | Expanded _ | Offloaded _ -> ()

let expand_pool t pool =
  match pool.state with
  | Expanded f ->
    t.s_cache_hits <- t.s_cache_hits + 1;
    Obs.tick "naim.loader" "cache_hits" 1;
    f
  | Compacted bytes ->
    let m = find_module t pool.pool_module in
    expand_symtab t m;
    let f = Ilcodec.decode_func ~names:m.names bytes in
    Memstats.release t.mem Memstats.Ir_compacted pool.compact_charge;
    pool.compact_charge <- 0;
    Memstats.charge t.mem Memstats.Ir_expanded pool.expanded_bytes;
    pool.state <- Expanded f;
    adjust_expanded t m 1;
    t.s_uncompactions <- t.s_uncompactions + 1;
    Obs.tick "naim.loader" "uncompactions" 1;
    f
  | Offloaded handle ->
    let m = find_module t pool.pool_module in
    expand_symtab t m;
    let bytes = Repository.fetch t.repo handle in
    let f = Ilcodec.decode_func ~names:m.names bytes in
    Memstats.charge t.mem Memstats.Ir_expanded pool.expanded_bytes;
    pool.state <- Expanded f;
    adjust_expanded t m 1;
    t.s_repo_loads <- t.s_repo_loads + 1;
    t.s_uncompactions <- t.s_uncompactions + 1;
    Obs.tick "naim.loader" "repo_loads" 1;
    Obs.tick "naim.loader" "uncompactions" 1;
    f

(* --- the lazy unloader --- *)

let unload_pool t lvl pool =
  match lvl with
  | Off -> ()
  | Ir_compaction | St_compaction -> compact_pool t pool
  | Offloading -> offload_pool t pool

(* Compact every idle symbol table, in the order a [Hashtbl.iter] over
   [modules] would visit them: by bucket ([Hashtbl.hash] modulo the
   bucket count, which starts at [modules_initial_size] and doubles
   once the table holds more than twice as many modules), newest
   first within a bucket.  A compaction whose encoded table outgrows
   its modeled expanded size raises resident bytes, so the order can
   move the Memstats peak; this one keeps every peak equal to a walk
   over the whole module table. *)
let sweep_symtabs t =
  let rec buckets n =
    if Hashtbl.length t.modules > 2 * n then buckets (2 * n) else n
  in
  let mask = buckets modules_initial_size - 1 in
  let rank m = (Hashtbl.hash m.mname land mask, -m.mindex) in
  Hashtbl.fold (fun _ m acc -> (rank m, m) :: acc) t.idle []
  |> List.sort (fun (a, _) (b, _) -> compare a b)
  |> List.iter (fun (_, m) -> compact_symtab t m)

let evict t =
  let lvl = level t in
  if lvl <> Off then begin
    let budget =
      int_of_float (t.config.cache_fraction *. float_of_int t.config.machine_memory)
    in
    let rec drain () =
      if t.pending_bytes > budget then
        match Lru.min_binding_opt t.lru with
        | None -> ()
        | Some (_, pool) ->
          unload_pool t lvl pool;
          drain ()
    in
    drain ();
    match lvl with
    | St_compaction | Offloading -> sweep_symtabs t
    | Off | Ir_compaction -> ()
  end

(* --- public API --- *)

let add_pool t m (f : Func.t) =
  let pool =
    {
      fname = f.Func.name;
      pool_module = m.mname;
      arity = f.Func.arity;
      state = Expanded f;
      expanded_bytes = Size.func_expanded_bytes f;
      compact_charge = 0;
      pins = 0;
      last_touch = tick t;
      pending = false;
    }
  in
  Hashtbl.replace t.pools f.Func.name pool;
  t.func_order_rev <- f.Func.name :: t.func_order_rev;
  m.funcs_rev <- f.Func.name :: m.funcs_rev;
  adjust_expanded t m 1;
  Memstats.charge t.mem Memstats.Ir_expanded pool.expanded_bytes;
  set_pending t pool true

let register_module t (m : Ilmod.t) =
  if Hashtbl.mem t.modules m.Ilmod.mname then
    invalid_arg (Printf.sprintf "Loader: module %s already registered" m.Ilmod.mname);
  let names = Intern.create () in
  let rec_ =
    {
      mname = m.Ilmod.mname;
      mindex = Hashtbl.length t.modules;
      globals = m.Ilmod.globals;
      names;
      symtab_bytes = Size.module_symtab_expanded_bytes m;
      symtab_compact_bytes = 0;
      symtab_compacted = false;
      funcs_rev = [];
      expanded_count = 0;
    }
  in
  Hashtbl.replace t.modules m.Ilmod.mname rec_;
  t.module_order_rev <- m.Ilmod.mname :: t.module_order_rev;
  List.iter
    (fun (g : Ilmod.global) ->
      if not (Hashtbl.mem t.globals g.Ilmod.gname) then
        Hashtbl.add t.globals g.Ilmod.gname g.Ilmod.size)
    m.Ilmod.globals;
  Memstats.charge t.mem Memstats.Symtab_expanded rec_.symtab_bytes;
  note_idle t rec_;
  List.iter
    (fun (f : Func.t) ->
      if Hashtbl.mem t.pools f.Func.name then
        invalid_arg (Printf.sprintf "Loader: function %s already registered" f.Func.name);
      add_pool t rec_ f)
    m.Ilmod.funcs;
  m.Ilmod.funcs <- [];
  evict t

let acquire t fname =
  let pool = find_pool t fname in
  t.s_acquires <- t.s_acquires + 1;
  Obs.tick "naim.loader" "acquires" 1;
  set_pending t pool false;
  pool.last_touch <- tick t;
  let f = expand_pool t pool in
  pool.pins <- pool.pins + 1;
  f

let release t fname =
  let pool = find_pool t fname in
  if pool.pins <= 0 then
    invalid_arg (Printf.sprintf "Loader.release: %s is not pinned" fname);
  pool.pins <- pool.pins - 1;
  if pool.pins = 0 then begin
    set_pending t pool true;
    evict t
  end

let update t (f : Func.t) =
  let pool = find_pool t f.Func.name in
  (match pool.state with
  | Expanded current when current == f -> ()
  | Expanded _ ->
    invalid_arg
      (Printf.sprintf "Loader.update: %s is not the acquired value" f.Func.name)
  | Compacted _ | Offloaded _ ->
    invalid_arg (Printf.sprintf "Loader.update: %s is not expanded" f.Func.name));
  let new_bytes = Size.func_expanded_bytes f in
  if new_bytes > pool.expanded_bytes then
    Memstats.charge t.mem Memstats.Ir_expanded (new_bytes - pool.expanded_bytes)
  else
    Memstats.release t.mem Memstats.Ir_expanded (pool.expanded_bytes - new_bytes);
  if pool.pending then
    t.pending_bytes <- t.pending_bytes + new_bytes - pool.expanded_bytes;
  pool.expanded_bytes <- new_bytes

let add_func t ~module_name (f : Func.t) =
  let m = find_module t module_name in
  if Hashtbl.mem t.pools f.Func.name then
    invalid_arg (Printf.sprintf "Loader.add_func: %s already exists" f.Func.name);
  expand_symtab t m;
  add_pool t m f;
  evict t

let remove_funcs t fnames =
  List.iter
    (fun fname ->
      if (find_pool t fname).pins > 0 then
        invalid_arg (Printf.sprintf "Loader.remove_funcs: %s is pinned" fname))
    fnames;
  let doomed = Hashtbl.create 64 in
  let touched = Hashtbl.create 16 in
  List.iter
    (fun fname ->
      match Hashtbl.find_opt t.pools fname with
      | None -> ()  (* named twice *)
      | Some pool ->
        let m = find_module t pool.pool_module in
        set_pending t pool false;
        (match pool.state with
        | Expanded _ ->
          Memstats.release t.mem Memstats.Ir_expanded pool.expanded_bytes;
          adjust_expanded t m (-1)
        | Compacted _ ->
          Memstats.release t.mem Memstats.Ir_compacted pool.compact_charge
        | Offloaded _ -> ());
        Hashtbl.remove t.pools fname;
        Hashtbl.replace doomed fname ();
        Hashtbl.replace touched m.mname m)
    fnames;
  let live n = not (Hashtbl.mem doomed n) in
  Hashtbl.iter (fun _ m -> m.funcs_rev <- List.filter live m.funcs_rev) touched;
  t.func_order_rev <- List.filter live t.func_order_rev

let with_func t fname f =
  let func = acquire t fname in
  Fun.protect ~finally:(fun () -> release t fname) (fun () -> f func)

let func_names t = List.rev t.func_order_rev

let arity_of t fname =
  Option.map (fun p -> p.arity) (Hashtbl.find_opt t.pools fname)

let global_size_of t gname = Hashtbl.find_opt t.globals gname

let residency t fname =
  Option.map
    (fun p ->
      match p.state with
      | Expanded _ -> `Expanded
      | Compacted _ -> `Compacted
      | Offloaded _ -> `Offloaded)
    (Hashtbl.find_opt t.pools fname)

let module_names t = List.rev t.module_order_rev

let funcs_of_module t mname = List.rev (find_module t mname).funcs_rev

let module_of_func t fname = (find_pool t fname).pool_module

let globals_of_module t mname = (find_module t mname).globals

let all_globals t =
  List.concat_map (fun mname -> (find_module t mname).globals) (module_names t)

let extract_modules t =
  List.map
    (fun mname ->
      let m = find_module t mname in
      let il = Ilmod.create mname in
      il.Ilmod.globals <- m.globals;
      il.Ilmod.funcs <-
        List.map
          (fun fname ->
            let f = acquire t fname in
            release t fname;
            f)
          (List.rev m.funcs_rev);
      il)
    (module_names t)

let unload_all t =
  let lvl = level t in
  if lvl <> Off then begin
    Hashtbl.iter
      (fun _ pool -> if pool.pins = 0 then unload_pool t lvl pool)
      t.pools;
    match lvl with
    | St_compaction | Offloading -> sweep_symtabs t
    | Off | Ir_compaction -> ()
  end

let stats t =
  {
    acquires = t.s_acquires;
    cache_hits = t.s_cache_hits;
    uncompactions = t.s_uncompactions;
    repo_loads = t.s_repo_loads;
    compactions = t.s_compactions;
    offloads = t.s_offloads;
    symtab_compactions = t.s_symtab_compactions;
  }

let close t = if t.owns_repo then Repository.close t.repo
