(* Host cost of single hot calls into each layer, timed in isolation.

   Each driver builds its own small state (sized from what the traced
   run observed), runs a fixed number of calls in several batches and
   returns the median host nanoseconds per call. Multiplying by the
   traced call count gives an estimated host share — an estimate, not a
   span measured inside the run. *)

module Sim = Bmcast_engine.Sim
module Time = Bmcast_engine.Time
module Timer_wheel = Bmcast_engine.Timer_wheel
module Fabric = Bmcast_net.Fabric
module Aoe = Bmcast_proto.Aoe
module Gossip = Bmcast_proto.Gossip
module Vblade = Bmcast_proto.Vblade
module Bitmap = Bmcast_core.Bitmap
module Extent_map = Bmcast_storage.Extent_map
module Disk = Bmcast_storage.Disk
module Replica_set = Bmcast_fleet.Replica_set

let batches = 5

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a.(Array.length a / 2)

let seconds f n =
  let t0 = Unix.gettimeofday () in
  f n;
  Unix.gettimeofday () -. t0

(* [f n] performs [n] calls. The batch size doubles until a batch takes
   20 ms; the result is the median ns per call over [batches] batches. *)
let time_per_call f =
  let rec calibrate n = if n >= 1 lsl 24 || seconds f n >= 0.02 then n else calibrate (2 * n) in
  let n = calibrate 1 in
  median (List.init batches (fun _ -> seconds f n *. 1e9 /. float_of_int n))

(* One pop + one push on a wheel holding [depth] events — the
   scheduler's steady state at the observed pending depth. *)
let wheel_ns ~depth =
  let depth = max 1 depth in
  let w = Timer_wheel.create ~dummy:0 () in
  let rng = Random.State.make [| depth |] in
  let horizon = Time.ms 50 in
  for _ = 1 to depth do
    ignore (Timer_wheel.push w (Random.State.int rng horizon) 0 : Timer_wheel.token)
  done;
  time_per_call (fun n ->
      for _ = 1 to n do
        let now = Timer_wheel.next_time w in
        ignore (Timer_wheel.pop_exn w : int);
        ignore
          (Timer_wheel.push w (now + 1 + Random.State.int rng horizon) 0
            : Timer_wheel.token)
      done)

let header ~tag ~lba ~count =
  { Aoe.major = 1;
    minor = 0;
    command = Aoe.Ata_read;
    tag;
    frag = 0;
    is_response = false;
    error = false;
    lba;
    count }

(* One frame through [Fabric.send]: uplink serialization, switch and
   egress delivery to the receiving port, run to completion. *)
let net_send_ns () =
  let once n =
    let sim = Sim.create ~seed:1 () in
    let fabric = Fabric.create sim () in
    let src = Fabric.attach fabric ~name:"src" (fun _ -> ()) in
    let dst = Fabric.attach fabric ~name:"dst" (fun _ -> ()) in
    let payload = Aoe.Frame { hdr = header ~tag:1 ~lba:0 ~count:16; data = [||] } in
    Sim.spawn_at sim Time.zero (fun () ->
        for _ = 1 to n do
          Fabric.send src ~dst:(Fabric.port_id dst) ~size_bytes:8192 payload
        done);
    Sim.run sim
  in
  time_per_call once

let aoe_codec_ns () =
  let h = header ~tag:0x1234 ~lba:123456 ~count:16 in
  time_per_call (fun n ->
      for i = 1 to n do
        let b = Aoe.encode_header { h with tag = i land 0xffffff } in
        ignore (Aoe.decode_header b : Aoe.header)
      done)

(* A half-held swarm summary over the image's chunks, alternating runs
   so the RLE has work to do. *)
let gossip_codec_ns ~chunks =
  let chunks = max 1 chunks in
  let s = Gossip.create ~chunks in
  for c = 0 to chunks - 1 do
    if c / 8 mod 2 = 0 then Gossip.set s c
  done;
  let msg = { Gossip.origin = 7; epoch = 1; summary = s } in
  time_per_call (fun n ->
      for _ = 1 to n do
        ignore (Gossip.decode (Gossip.encode msg) : Gossip.msg)
      done)

(* The fill-bitmap calls the copy path makes per chunk: mark a chunk
   filled, then list the chunk's still-empty sub-ranges. *)
let bitmap_ns ~sectors ~chunk =
  let chunk = max 1 chunk in
  let chunks = max 1 (sectors / chunk) in
  let b = Bitmap.create ~sectors in
  time_per_call (fun n ->
      for i = 0 to n - 1 do
        let lba = i mod chunks * chunk in
        ignore (Bitmap.fill_range b ~lba ~count:chunk : int);
        ignore (Bitmap.empty_subranges b ~lba ~count:chunk : (int * int) list)
      done)

(* Disk content map under chunked writes with a point lookup each. *)
let extent_map_ns ~sectors ~chunk =
  let chunk = max 1 chunk in
  let chunks = max 1 (sectors / chunk) in
  let m = Extent_map.create () in
  time_per_call (fun n ->
      for i = 0 to n - 1 do
        (* Stride through the image so extents do not simply coalesce. *)
        let lba = i * 7 mod chunks * chunk in
        Extent_map.set m ~lba ~count:chunk i;
        ignore (Extent_map.get m (lba + (chunk / 2)) : int option)
      done)

(* One route + response observe through a replica set of the
   workload's size. *)
let route_ns ~replicas =
  let sim = Sim.create ~seed:1 () in
  let fabric = Fabric.create sim () in
  let vblades =
    List.init (max 1 replicas) (fun i ->
        let disk = Disk.create sim Disk.hdd_constellation2 in
        Vblade.create sim ~fabric ~name:(Printf.sprintf "r%d" i) ~disk ())
  in
  let rset = Replica_set.create sim vblades in
  time_per_call (fun n ->
      for i = 1 to n do
        let h = header ~tag:i ~lba:(i * 16) ~count:16 in
        ignore (Replica_set.route rset h : int);
        Replica_set.observe rset { h with is_response = true }
      done)
