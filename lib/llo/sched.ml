let is_barrier = function
  | Mach.Call_sym _ | Mach.Call_abs _ | Mach.Sys _ | Mach.Cnt _ | Mach.Adjsp _
  | Mach.B _ | Mach.Bz _ | Mach.Bnz _ | Mach.Ret | Mach.Halt -> true
  | Mach.Li _ | Mach.Mv _ | Mach.Op _ | Mach.Opi _ | Mach.Un _ | Mach.Ld _
  | Mach.St _ | Mach.Lga _ -> false

let is_load = function Mach.Ld _ -> true | _ -> false

(* Schedule one barrier-free segment; returns instructions in the new
   order plus how many changed relative position. *)
let schedule_segment instrs =
  let n = Array.length instrs in
  if n <= 2 then (Array.to_list instrs, 0)
  else begin
    (* Filled in place: [Array.map] seeds a long array with a young
       value, which forces a minor collection. *)
    let defs = Array.make n [] and uses = Array.make n [] in
    Array.iteri
      (fun k i ->
        defs.(k) <- Mach.defs i;
        uses.(k) <- Mach.uses i)
      instrs;
    (* Dependence edges i -> j (i before j).  Every edge into [j] is
       added while [j] is visited, so [last_succ.(i) = j] dedups. *)
    let succs = Array.make n [] in
    let preds_count = Array.make n 0 in
    let last_succ = Array.make n (-1) in
    let edge j i =
      if last_succ.(i) <> j then begin
        last_succ.(i) <- j;
        succs.(i) <- j :: succs.(i);
        preds_count.(j) <- preds_count.(j) + 1
      end
    in
    (* Per register: its last writer and the readers since; for
       memory: the last store and the loads since.  Edges from these
       alone (RAW, WAW, WAR, store->access, load->store) have the same
       transitive closure as testing every pair. *)
    let writer = Hashtbl.create 16 and readers = Hashtbl.create 16 in
    let readers_of r = Option.value ~default:[] (Hashtbl.find_opt readers r) in
    let last_store = ref None and loads = ref [] in
    for j = 0 to n - 1 do
      List.iter (fun u -> Option.iter (edge j) (Hashtbl.find_opt writer u)) uses.(j);
      List.iter
        (fun d ->
          Option.iter (edge j) (Hashtbl.find_opt writer d);
          List.iter (edge j) (readers_of d))
        defs.(j);
      (match instrs.(j) with
      | Mach.Ld _ ->
        Option.iter (edge j) !last_store;
        loads := j :: !loads
      | Mach.St _ ->
        Option.iter (edge j) !last_store;
        List.iter (edge j) !loads;
        last_store := Some j;
        loads := []
      | _ -> ());
      List.iter (fun u -> Hashtbl.replace readers u (j :: readers_of u)) uses.(j);
      List.iter
        (fun d ->
          Hashtbl.replace writer d j;
          Hashtbl.remove readers d)
        defs.(j)
    done;
    (* Critical-path height: loads weigh extra (their consumers wait). *)
    let height = Array.make n 1 in
    for i = n - 1 downto 0 do
      let weight = if is_load instrs.(i) then 2 else 1 in
      let best =
        List.fold_left (fun acc j -> max acc height.(j)) 0 succs.(i)
      in
      height.(i) <- weight + best
    done;
    (* Greedy list scheduling over a ready set (all predecessors
       emitted) kept up to date as instructions are emitted. *)
    let scheduled = ref [] in
    let emitted = Array.make n false in
    let ready = ref (List.filter (fun i -> preds_count.(i) = 0) (List.init n Fun.id)) in
    let last_load_dst = ref (-1) in
    let moved = ref 0 in
    let next_orig = ref 0 in
    let stalls i = !last_load_dst >= 0 && List.mem !last_load_dst uses.(i) in
    let better a b =
      (* Prefer non-stalling, then higher critical path, then original
         order: a strict total order, so the pick does not depend on
         the ready set's order. *)
      match (stalls a, stalls b) with
      | false, true -> true
      | true, false -> false
      | _ -> if height.(a) <> height.(b) then height.(a) > height.(b) else a < b
    in
    while !ready <> [] do
      let pick =
        match !ready with
        | [] -> assert false
        | first :: rest ->
          List.fold_left (fun best i -> if better i best then i else best) first rest
      in
      emitted.(pick) <- true;
      ready := List.filter (fun i -> i <> pick) !ready;
      List.iter
        (fun j ->
          preds_count.(j) <- preds_count.(j) - 1;
          if preds_count.(j) = 0 then ready := j :: !ready)
        succs.(pick);
      scheduled := instrs.(pick) :: !scheduled;
      last_load_dst :=
        (match instrs.(pick) with Mach.Ld (d, _, _) -> d | _ -> -1);
      if pick <> !next_orig then incr moved;
      (* Track the next original index among unemitted for the moved
         metric. *)
      while !next_orig < n && emitted.(!next_orig) do
        incr next_orig
      done
    done;
    (List.rev !scheduled, !moved)
  end

let run (vc : Isel.vcode) =
  let moved = ref 0 in
  List.iter
    (fun (b : Isel.vblock) ->
      (* Split at barriers; schedule each pure segment. *)
      let out = ref [] in
      let segment = ref [] in
      let flush () =
        (* Filled back to front: [Array.of_list] would seed a long
           array with a young value too. *)
        let instrs = Array.make (List.length !segment) Mach.Halt in
        List.iteri (fun k i -> instrs.(Array.length instrs - 1 - k) <- i) !segment;
        let ordered, m = schedule_segment instrs in
        moved := !moved + m;
        out := List.rev_append ordered !out;
        segment := []
      in
      List.iter
        (fun i ->
          if is_barrier i then begin
            flush ();
            out := i :: !out
          end
          else segment := i :: !segment)
        b.Isel.body;
      flush ();
      b.Isel.body <- List.rev !out)
    vc.Isel.vblocks;
  !moved
