module Obs = Cmo_obs.Obs

type 'k plan = {
  seed : int;
  faults : (int * 'k) list;
  ops : int Atomic.t;
  injections : int Atomic.t;
  mutable dead : bool;
}

type 'k t = {
  name : string;
  obs : string;
  kinds : (string * 'k) list;
  terminal : 'k;
  slot : 'k plan option Atomic.t;
  retry_count : int Atomic.t;
}

let create ~name ~obs ~terminal kinds =
  { name; obs; kinds; terminal; slot = Atomic.make None;
    retry_count = Atomic.make 0 }

let kinds e = List.map fst e.kinds

(* "a, b or c" *)
let want e =
  match List.rev (kinds e) with
  | [] -> ""
  | [ k ] -> k
  | last :: rest -> String.concat ", " (List.rev rest) ^ " or " ^ last

let parse e spec =
  let tokens =
    String.split_on_char ',' spec
    |> List.map String.trim
    |> List.filter (fun s -> s <> "")
  in
  let err fmt = Printf.ksprintf (fun m -> Error m) fmt in
  let rec go seed faults = function
    | [] -> Ok { seed; faults = List.rev faults; ops = Atomic.make 0;
                 injections = Atomic.make 0; dead = false }
    | "count" :: rest -> go seed faults rest
    | tok :: rest -> (
      let after i = String.sub tok (i + 1) (String.length tok - i - 1) in
      match String.index_opt tok '@' with
      | Some i -> (
        match int_of_string_opt (after i) with
        | Some k when k >= 1 -> (
          let kind = String.sub tok 0 i in
          match List.assoc_opt kind e.kinds with
          | Some f -> go seed ((k, f) :: faults) rest
          | None -> err "unknown %s kind %S (want %s)" e.name kind (want e))
        | _ -> err "bad operation index in %S (want kind@K, K >= 1)" tok)
      | None -> (
        match String.index_opt tok '=' with
        | Some i when String.sub tok 0 i = "seed" -> (
          match int_of_string_opt (after i) with
          | Some s -> go s faults rest
          | None -> err "bad seed in %S" tok)
        | _ -> err "unknown %s-plan token %S" e.name tok))
  in
  if tokens = [] then err "empty %s plan" e.name else go 0 [] tokens

let install e spec =
  match parse e spec with
  | Ok p ->
    Atomic.set e.slot (Some p);
    Ok ()
  | Error _ as err -> err

let clear e = Atomic.set e.slot None

let active e = Atomic.get e.slot <> None

let op_count e =
  match Atomic.get e.slot with Some p -> Atomic.get p.ops | None -> 0

let injected e =
  match Atomic.get e.slot with Some p -> Atomic.get p.injections | None -> 0

let retries e = Atomic.get e.retry_count

type 'k event = Pass | Dead | Fire of 'k * int

let next e =
  match Atomic.get e.slot with
  | None -> Pass
  | Some p ->
    if p.dead then Dead
    else begin
      let k = 1 + Atomic.fetch_and_add p.ops 1 in
      match List.assoc_opt k p.faults with
      | None -> Pass
      | Some f ->
        Atomic.incr p.injections;
        Obs.tick e.obs "injected" 1;
        if f = e.terminal then p.dead <- true;
        Fire (f, k)
    end

let dead e = match Atomic.get e.slot with Some p -> p.dead | None -> false

let seed e = match Atomic.get e.slot with Some p -> p.seed | None -> 0

let rng e k = Prng.create (seed e lxor ((k * 0x9e3779b9) land max_int))

let max_attempts = 3

let retry e attempt =
  Atomic.incr e.retry_count;
  Obs.tick e.obs "retries" 1;
  let g = Prng.create (seed e lxor ((attempt * 0x85ebca6b) land max_int)) in
  Unix.sleepf (0.0005 *. float_of_int (1 lsl attempt) *. (1.0 +. Prng.float g 1.0))
