module Instr = Cmo_il.Instr
module Func = Cmo_il.Func
module Ilmod = Cmo_il.Ilmod
module Intrinsics = Cmo_il.Intrinsics
module Loader = Cmo_naim.Loader

type context = {
  externally_called : string -> bool;
  externally_stored : string -> bool;
  entry : string option;
  keep_exported : bool;
}

let whole_program =
  {
    externally_called = (fun _ -> false);
    externally_stored = (fun _ -> false);
    entry = Some "main";
    keep_exported = true;
  }

let closed_world = { whole_program with keep_exported = false }

type stats = {
  const_params : int;
  const_global_loads : int;
  dead_functions : string list;
}

type arg_lattice = Top | Const of int64 | Varying

let meet a b =
  match (a, b) with
  | Top, x | x, Top -> x
  | Const x, Const y when Int64.equal x y -> Const x
  | _ -> Varying

(* One cheap pass over every routine: callee argument lattices, the
   set of stored globals, and the call-graph edges for reachability. *)
type summary = {
  args : (string, arg_lattice array) Hashtbl.t;
  stored : (string, unit) Hashtbl.t;
  callees : (string, string list) Hashtbl.t;
  exported : (string, unit) Hashtbl.t;
}

let scan loader =
  let s =
    {
      args = Hashtbl.create 256;
      stored = Hashtbl.create 64;
      callees = Hashtbl.create 256;
      exported = Hashtbl.create 256;
    }
  in
  List.iter
    (fun fname ->
      Loader.with_func loader fname (fun f ->
          if f.Func.linkage = Func.Exported then
            Hashtbl.replace s.exported fname ();
          let callees = ref [] in
          List.iter
            (fun (b : Func.block) ->
              List.iter
                (fun i ->
                  match i with
                  | Instr.Store ({ Instr.base; _ }, _) ->
                    Hashtbl.replace s.stored base ()
                  | Instr.Call { callee; args; _ }
                    when not (Intrinsics.is_intrinsic callee) ->
                    if not (List.mem callee !callees) then
                      callees := callee :: !callees;
                    let lat =
                      match Hashtbl.find_opt s.args callee with
                      | Some lat -> lat
                      | None ->
                        let lat = Array.make (List.length args) Top in
                        Hashtbl.replace s.args callee lat;
                        lat
                    in
                    List.iteri
                      (fun i a ->
                        if i < Array.length lat then
                          lat.(i) <-
                            meet lat.(i)
                              (match a with
                              | Instr.Imm c -> Const c
                              | Instr.Reg _ -> Varying))
                      args
                  | Instr.Call _ | Instr.Move _ | Instr.Unop _ | Instr.Binop _
                  | Instr.Load _ | Instr.Probe _ -> ())
                b.Func.instrs)
            f.Func.blocks;
          Hashtbl.replace s.callees fname (List.rev !callees)))
    (Loader.func_names loader);
  s

(* Whether outside code could call [fname] under this context. *)
let callable_from_outside ctx summary fname =
  ctx.externally_called fname
  || (ctx.keep_exported && Hashtbl.mem summary.exported fname)

let apply_const_params loader ctx summary =
  let count = ref 0 in
  List.iter
    (fun fname ->
      let is_entry = ctx.entry = Some fname in
      if (not is_entry) && not (callable_from_outside ctx summary fname) then
        match Hashtbl.find_opt summary.args fname with
        | None -> ()  (* no callers at all: dead, handled below *)
        | Some lat ->
          let pins =
            Array.to_list lat
            |> List.mapi (fun i v -> (i, v))
            |> List.filter_map (fun (i, v) ->
                   match v with Const c -> Some (i, c) | Top | Varying -> None)
          in
          if pins <> [] then
            Loader.with_func loader fname (fun f ->
                if List.for_all (fun (i, _) -> i < f.Func.arity) pins then begin
                  let entry = Func.entry_block f in
                  let moves =
                    List.map (fun (i, c) -> Instr.Move (i, Instr.Imm c)) pins
                  in
                  entry.Func.instrs <- moves @ entry.Func.instrs;
                  count := !count + List.length pins;
                  Loader.update loader f
                end))
    (Loader.func_names loader);
  !count

let apply_const_globals loader ctx summary =
  (* value table for never-stored globals *)
  let values = Hashtbl.create 64 in
  List.iter
    (fun (g : Ilmod.global) ->
      if
        (not (Hashtbl.mem summary.stored g.Ilmod.gname))
        && not (ctx.externally_stored g.Ilmod.gname)
      then Hashtbl.replace values g.Ilmod.gname g)
    (Loader.all_globals loader);
  let folded = ref 0 in
  if Hashtbl.length values > 0 then
    List.iter
      (fun fname ->
        Loader.with_func loader fname (fun f ->
            let changed = ref false in
            List.iter
              (fun (b : Func.block) ->
                b.Func.instrs <-
                  List.map
                    (fun i ->
                      match i with
                      | Instr.Load (d, { Instr.base; index = Instr.Imm k }) -> (
                        match Hashtbl.find_opt values base with
                        | Some g
                          when Int64.to_int k >= 0
                               && Int64.to_int k < g.Ilmod.size ->
                          let k = Int64.to_int k in
                          let v =
                            if k < Array.length g.Ilmod.init then
                              g.Ilmod.init.(k)
                            else 0L
                          in
                          incr folded;
                          changed := true;
                          Instr.Move (d, Instr.Imm v)
                        | Some _ | None -> i)
                      | other -> other)
                    b.Func.instrs)
              f.Func.blocks;
            if !changed then Loader.update loader f))
      (Loader.func_names loader);
  !folded

let remove_dead_functions loader ctx summary =
  let reachable = Hashtbl.create 256 in
  let rec visit fname =
    if not (Hashtbl.mem reachable fname) then begin
      Hashtbl.replace reachable fname ();
      List.iter visit
        (Option.value ~default:[] (Hashtbl.find_opt summary.callees fname))
    end
  in
  let names = Loader.func_names loader in
  (match ctx.entry with
  | Some e when List.mem e names -> visit e
  | Some _ | None -> ());
  List.iter
    (fun n -> if callable_from_outside ctx summary n then visit n)
    names;
  (* With no entry and nothing externally callable, removal would be
     vacuous-total; keep everything in that degenerate case. *)
  if Hashtbl.length reachable = 0 then []
  else begin
    let dead = List.filter (fun n -> not (Hashtbl.mem reachable n)) names in
    Loader.remove_funcs loader dead;
    dead
  end

let run loader ctx =
  let summary = scan loader in
  let const_params = apply_const_params loader ctx summary in
  let const_global_loads = apply_const_globals loader ctx summary in
  let dead_functions = remove_dead_functions loader ctx summary in
  { const_params; const_global_loads; dead_functions }
