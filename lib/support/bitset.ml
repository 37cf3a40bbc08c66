type t = int array

let w = Sys.int_size

let create n = Array.make ((n / w) + 1) 0

let mem s k = s.(k / w) land (1 lsl (k mod w)) <> 0

let add s k = s.(k / w) <- s.(k / w) lor (1 lsl (k mod w))

let remove s k = s.(k / w) <- s.(k / w) land lnot (1 lsl (k mod w))

let copy = Array.copy

let inter_into a b = Array.iteri (fun i x -> a.(i) <- a.(i) land x) b

let iter f s =
  Array.iteri
    (fun i word ->
      if word <> 0 then
        for b = 0 to w - 1 do
          if word land (1 lsl b) <> 0 then f ((i * w) + b)
        done)
    s

let elements s =
  let out = ref [] in
  iter (fun k -> out := k :: !out) s;
  List.rev !out

(* [into <- into + f src]; true when [into] grew. *)
let grow ~into f src =
  let grew = ref false in
  for i = 0 to Array.length into - 1 do
    let c = into.(i) lor f i src.(i) in
    if c <> into.(i) then begin
      into.(i) <- c;
      grew := true
    end
  done;
  !grew

let backward ~gen ~kill ~succs =
  let fresh () = Array.map (fun g -> Array.make (Array.length g) 0) gen in
  let live_in = fresh () and live_out = fresh () in
  let changed = ref true in
  while !changed do
    changed := false;
    for b = Array.length gen - 1 downto 0 do
      let out = live_out.(b) in
      List.iter
        (fun s -> if grow ~into:out (fun _ x -> x) live_in.(s) then changed := true)
        succs.(b);
      let gen = gen.(b) and kill = kill.(b) in
      if grow ~into:live_in.(b) (fun i x -> gen.(i) lor (x land lnot kill.(i))) out then
        changed := true
    done
  done;
  (live_in, live_out)
