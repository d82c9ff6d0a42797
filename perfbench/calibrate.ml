(* Host speed, measured with a fixed loop that shares no code with the
   program.

   The benchmark's hosts are shared: the speed of one core drifts by a
   quarter or more over minutes as other tenants come and go, and the
   simulator's host time drifts with it. [run.py] runs this loop in its
   own process between the timed repetitions and scales every host time
   by the loop's fastest round, so the reported times are in seconds of
   a host of fixed speed, while any change to the program's own cost
   still moves them.

   One round mixes what the simulator spends its time on: dependent
   integer arithmetic, and read-modify-writes scattered over a 16 MB
   array, well past a core's private cache. *)

let slots = 1 lsl 21

let round mem =
  let t0 = Unix.gettimeofday () in
  let x = ref 1 in
  for i = 1 to 5_000_000 do
    x := ((!x * 1103515245) + i) land 0x3fffffff
  done;
  let s = ref (Sys.opaque_identity !x) in
  for i = 1 to 1_000_000 do
    let j = !s land (slots - 1) in
    mem.(j) <- mem.(j) + i;
    s := ((!s * 1103515245) + 12345) land 0x3fffffff
  done;
  Unix.gettimeofday () -. t0

(* Host seconds of each of [n] rounds, after one untimed round that
   faults the array in and warms the caches. *)
let rounds n =
  let mem = Array.make slots 0 in
  ignore (round mem : float);
  List.init n (fun _ -> round mem)
