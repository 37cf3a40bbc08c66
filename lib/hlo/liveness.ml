module Instr = Cmo_il.Instr
module Func = Cmo_il.Func
module Bitset = Cmo_support.Bitset

type t = {
  nregs : int;
  index : (Instr.label, int) Hashtbl.t;  (* label -> layout position *)
  live_in : Bitset.t array;
  live_out : Bitset.t array;
}

let compute (f : Func.t) =
  let nregs = f.Func.next_reg in
  let blocks = Array.of_list f.Func.blocks in
  let index = Hashtbl.create 16 in
  Array.iteri (fun k (b : Func.block) -> Hashtbl.replace index b.Func.label k) blocks;
  (* Per block, gen (read before written) and kill (written), walking
     instructions backward from the terminator. *)
  let gen = Array.map (fun _ -> Bitset.create nregs) blocks in
  let kill = Array.map (fun _ -> Bitset.create nregs) blocks in
  Array.iteri
    (fun k (b : Func.block) ->
      List.iter (Bitset.add gen.(k)) (Instr.term_uses b.Func.term);
      List.iter
        (fun i ->
          Option.iter
            (fun d ->
              Bitset.remove gen.(k) d;
              Bitset.add kill.(k) d)
            (Instr.def i);
          List.iter (Bitset.add gen.(k)) (Instr.uses i))
        (List.rev b.Func.instrs))
    blocks;
  let succs =
    Array.map
      (fun (b : Func.block) ->
        List.filter_map (Hashtbl.find_opt index) (Instr.targets b.Func.term))
      blocks
  in
  let live_in, live_out = Bitset.backward ~gen ~kill ~succs in
  { nregs; index; live_in; live_out }

let elements_of sets t label =
  match Hashtbl.find_opt t.index label with
  | Some k -> List.filter (fun r -> r < t.nregs) (Bitset.elements sets.(k))
  | None -> []

let live_out t = elements_of t.live_out t

let live_in t = elements_of t.live_in t

let mem_of sets t label r =
  match Hashtbl.find_opt t.index label with
  | Some k -> r < t.nregs && Bitset.mem sets.(k) r
  | None -> false

let live_out_mem t = mem_of t.live_out t

let live_in_mem t = mem_of t.live_in t

let bytes_for ~blocks ~nregs = 64 + (2 * blocks * ((nregs / 8) + 16))

let modeled_bytes t = bytes_for ~blocks:(Hashtbl.length t.index) ~nregs:t.nregs

let modeled_bytes_of (f : Func.t) =
  bytes_for ~blocks:(List.length f.Func.blocks) ~nregs:f.Func.next_reg
