(* The four benchmark workloads and one run of each.

   Fleet workloads go through [Scaleout.deploy_fleet]; cassandra_deploy
   assembles one machine on [Stacks.make_env]. The benchmark observes
   them only through the hooks the library exposes ([?chaos], [?trace],
   [?metrics], [?profile], [Runtime.t] closures, public counters). *)

module Sim = Bmcast_engine.Sim
module Time = Bmcast_engine.Time
module Stats = Bmcast_engine.Stats
module Content = Bmcast_storage.Content
module Disk = Bmcast_storage.Disk
module Extent_map = Bmcast_storage.Extent_map
module Fabric = Bmcast_net.Fabric
module Vblade = Bmcast_proto.Vblade
module Machine = Bmcast_platform.Machine
module Runtime = Bmcast_platform.Runtime
module Mmio = Bmcast_hw.Mmio
module Params = Bmcast_core.Params
module Vmm = Bmcast_core.Vmm
module Os = Bmcast_guest.Os
module Ycsb = Bmcast_guest.Ycsb
module Ioping = Bmcast_guest.Ioping
module Trace = Bmcast_obs.Trace
module Metrics = Bmcast_obs.Metrics
module Profile = Bmcast_obs.Profile
module Analytics = Bmcast_obs.Analytics
module Scaleout = Bmcast_experiments.Scaleout
module Stacks = Bmcast_experiments.Stacks

type fleet = {
  machines : int;
  replicas : int;
  image_mb : int;
  distribution : Scaleout.distribution;
  uplink_mbps : float option;
  limit_per_server : int;
}

type cassandra = {
  image_gb : int;
  probes : int;  (** closed-loop ioping probes beside the database *)
  think : Time.span;  (** ioping think time *)
  ycsb : Time.span;  (** YCSB run length; must outlast devirt *)
}

type spec = Fleet of fleet | Cassandra of cassandra

let specs =
  [ ( "burst",
      Fleet
        { machines = 100;
          replicas = 8;
          image_mb = 4;
          distribution = `Unicast;
          uplink_mbps = None;
          limit_per_server = 4 } );
    ( "swarm",
      Fleet
        { machines = 100;
          replicas = 2;
          image_mb = 4;
          distribution = `P2p;
          uplink_mbps = Some 100.;
          limit_per_server = 8 } );
    ( "carousel",
      Fleet
        { machines = 100;
          replicas = 2;
          image_mb = 4;
          distribution = `Mcast;
          uplink_mbps = Some 100.;
          limit_per_server = 8 } );
    ( "cassandra_deploy",
      Cassandra
        { image_gb = 2; probes = 2000; think = Time.ms 50; ycsb = Time.s 600 } ) ]

let find name = List.assoc_opt name specs

(* The paper's Cassandra deploy-phase YCSB throughput (Fig. 5). *)
let paper_cassandra_kops = 51.4

(* Categories the traced run records. "sim" and "net" are left out:
   they log every sleep and frame, which would only overrun the ring. *)
let trace_categories = [ "boot"; "aoe"; "bgcopy"; "mediator"; "storage"; "fleet" ]
let trace_capacity = 1 lsl 21

type outcome = {
  sim : (string * float) list;
      (** simulated results: deterministic for a seed, equal traced or not *)
  wall_s : float;
  tick_s : float array;  (** host s per simulated tick; sums to [wall_s] *)
  peak_heap_mb : float;
  minor_words_per_event : float;
  layers : (string * float) list;  (** traced runs only *)
  attempted : int;
  failed : int;
  errors : string list;
  notes : string list;  (** human-readable lines printed before the JSON *)
}

let gb bytes = float_of_int bytes /. 1e9

(* Per-layer metrics a workload kind cannot observe or does not
   exercise; they read 0 so every traced run reports the same names. *)
let absent names = List.map (fun n -> (n, 0.0)) names
let ratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b

exception Setup_done

(* --- what the traced run folds out of the trace ring --- *)

type folded = {
  mutable retransmits : int;
  mutable escalations : int;
  mutable aoe_commands : int;
  mutable redirects : int;
  mutable fetches : int;
  fetch_ms : Stats.Histogram.t;
  mutable suspensions : int;
  mutable disk_ops : int;
  mutable disk_busy_ns : int;
  mutable disk_written : int;
}

let fold_trace tr =
  let f =
    { retransmits = 0;
      escalations = 0;
      aoe_commands = 0;
      redirects = 0;
      fetches = 0;
      fetch_ms = Stats.Histogram.create ();
      suspensions = 0;
      disk_ops = 0;
      disk_busy_ns = 0;
      disk_written = 0 }
  in
  let int_arg k args =
    match List.assoc_opt k args with Some (Trace.Int i) -> i | _ -> 0
  in
  Trace.iter tr (fun e ->
      match (e.Trace.cat, e.Trace.phase, e.Trace.name) with
      | "aoe", Trace.P_instant, "retransmit" -> f.retransmits <- f.retransmits + 1
      | "aoe", Trace.P_instant, "escalate" -> f.escalations <- f.escalations + 1
      | "aoe", Trace.P_span, _ -> f.aoe_commands <- f.aoe_commands + 1
      | "mediator", Trace.P_span, "redirect" -> f.redirects <- f.redirects + 1
      | "bgcopy", Trace.P_span, "fetch" ->
        f.fetches <- f.fetches + 1;
        Stats.Histogram.add f.fetch_ms (float_of_int e.Trace.dur /. 1e6)
      | "bgcopy", Trace.P_instant, "moderation-suspend" ->
        f.suspensions <- f.suspensions + 1
      | "storage", Trace.P_span, name ->
        f.disk_ops <- f.disk_ops + 1;
        f.disk_busy_ns <- f.disk_busy_ns + e.Trace.dur;
        if name = "disk-write" then
          f.disk_written <- f.disk_written + (512 * int_arg "count" e.Trace.args)
      | _ -> ());
  f

let p50 h = if Stats.Histogram.count h = 0 then 0.0 else Stats.Histogram.percentile h 50.0

(* Profile rows: (calls, minor words per call) over matching categories. *)
let profile_calls profile pred =
  let calls, words =
    List.fold_left
      (fun (c, w) r ->
        if pred r.Profile.row_cat then (c + r.Profile.calls, w +. r.Profile.minor_words)
        else (c, w))
      (0, 0.0) (Profile.rows profile)
  in
  (calls, if calls = 0 then 0.0 else words /. float_of_int calls)

let stage_layers analytics =
  let rows = Analytics.stage_rows analytics in
  let crit = Analytics.critical_path analytics in
  let boots = List.fold_left (fun a (_, n) -> a + n) 0 crit in
  List.concat_map
    (fun stage ->
      let p50 =
        match List.find_opt (fun r -> r.Analytics.stage = stage) rows with
        | Some r -> r.Analytics.p50_ms
        | None -> 0.0
      in
      let dominated = Option.value (List.assoc_opt stage crit) ~default:0 in
      [ (Printf.sprintf "stage.%s_ms_p50" stage, p50);
        (Printf.sprintf "stage.%s_critical_share" stage, ratio dominated boots) ])
    Analytics.stage_order

(* Layer metrics both workload kinds read the same way: trace folds,
   profile rows, fabric and vblade counters, the daemon's peaks and the
   isolated drivers. *)
let common_layers ~probe ~trace ~profile ~analytics ~fabric ~vblades ~metrics
    ~sim_ns ~image_sectors ~chunk_sectors ~replicas =
  let f = fold_trace trace in
  let mmio_calls, mmio_words =
    profile_calls profile (String.starts_with ~prefix:"mmio.")
  in
  let send_calls, send_words = profile_calls profile (String.equal "net.send") in
  let aoe_rx_calls, aoe_rx_words = profile_calls profile (String.equal "proto.aoe_rx") in
  let vb_rx_calls, vb_rx_words =
    profile_calls profile (String.equal "proto.vblade_rx")
  in
  let busy_ns =
    List.fold_left (fun a v -> a + Fabric.port_busy_ns (Vblade.port v)) 0 vblades
  in
  let redirect_ms =
    match Metrics.find metrics (Metrics.key "redirect_latency_ms" [ ("disk", "ahci") ]) with
    | Some (Metrics.V_histogram h) -> p50 h
    | _ -> 0.0
  in
  let wheel_ns = Drivers.wheel_ns ~depth:probe.Probe.pending_peak in
  let send_ns = Drivers.net_send_ns () in
  [ ("engine.pending_peak", float_of_int probe.Probe.pending_peak);
    ("engine.wheel_ns", wheel_ns);
    ("hw.mmio_calls", float_of_int mmio_calls);
    ("hw.mmio_words_per_call", mmio_words);
    ("net.frames_sent", float_of_int (Fabric.frames_sent fabric));
    ("net.frames_dropped", float_of_int (Fabric.frames_dropped fabric));
    ( "net.tier_busy_frac",
      float_of_int busy_ns
      /. float_of_int (max 1 (sim_ns * List.length vblades)) );
    ("net.tier_queue_peak", float_of_int probe.Probe.port_queue_peak);
    ("net.mcast_deliveries", float_of_int (Fabric.mcast_deliveries fabric));
    ("net.send_calls", float_of_int send_calls);
    ("net.send_words_per_call", send_words);
    ("net.send_ns", send_ns);
    ("proto.retransmits", float_of_int f.retransmits);
    ("proto.escalations", float_of_int f.escalations);
    ("proto.aoe_commands", float_of_int f.aoe_commands);
    ( "proto.vblade_requests",
      float_of_int (List.fold_left (fun a v -> a + Vblade.requests_served v) 0 vblades) );
    ("proto.vblade_queue_peak", probe.Probe.vblade_queue_peak);
    ("proto.aoe_rx_calls", float_of_int aoe_rx_calls);
    ("proto.aoe_rx_words_per_call", aoe_rx_words);
    ("proto.vblade_rx_calls", float_of_int vb_rx_calls);
    ("proto.vblade_rx_words_per_call", vb_rx_words);
    ("proto.aoe_codec_ns", Drivers.aoe_codec_ns ());
    ( "proto.gossip_codec_ns",
      Drivers.gossip_codec_ns ~chunks:(image_sectors / max 1 chunk_sectors) );
    ("core.redirects", float_of_int f.redirects);
    ("core.redirect_ms_p50", redirect_ms);
    ("core.bgcopy_fetches", float_of_int f.fetches);
    ("core.bgcopy_fetch_ms_p50", p50 f.fetch_ms);
    ("core.moderation_suspensions", float_of_int f.suspensions);
    ("core.bitmap_ns", Drivers.bitmap_ns ~sectors:image_sectors ~chunk:chunk_sectors);
    ("storage.disk_ops", float_of_int f.disk_ops);
    ("storage.disk_busy_s", float_of_int f.disk_busy_ns /. 1e9);
    ("storage.disk_bytes_written", float_of_int f.disk_written);
    ( "storage.extent_map_ns",
      Drivers.extent_map_ns ~sectors:image_sectors ~chunk:chunk_sectors );
    ("fleet.route_ns", Drivers.route_ns ~replicas);
    ("obs.trace_dropped", float_of_int (Trace.dropped trace));
    ("obs.trace_events", float_of_int (Trace.event_count trace));
    ("est.wheel_s", wheel_ns *. float_of_int (Probe.events probe) /. 1e9);
    ("est.net_send_s", send_ns *. float_of_int send_calls /. 1e9) ]
  @ stage_layers analytics

(* --- fleet workloads --- *)

let fleet_run f ~seed ~traced ~verify ?(setup_only = false) () =
  let trace =
    if traced then
      Some (Trace.create ~capacity:trace_capacity ~categories:trace_categories ())
    else None
  in
  let metrics = Metrics.create () in
  let profile = if traced then Some (Profile.create ()) else None in
  let probe = Probe.create () in
  let seen = ref None in
  let chaos sim fabric vblades =
    if setup_only then raise Setup_done;
    seen := Some (sim, fabric, vblades);
    Probe.start probe sim
      ~ports:(List.map Vblade.port vblades)
      ~metrics:(if traced then metrics else Metrics.null)
  in
  let mcast_passes = max 16 f.machines in
  match
    Scaleout.deploy_fleet ~seed ~image_mb:f.image_mb
      ~boot_profile:Os.cloud_minimal ~distribution:f.distribution
      ?uplink_mbps:f.uplink_mbps ~limit_per_server:f.limit_per_server
      ~mcast_passes ~chaos ~digest_images:verify ?trace ~metrics ?profile
      ~machines:f.machines ~replicas:f.replicas ()
  with
  | exception Failure msg ->
    let failed =
      try Scanf.sscanf msg "Scaleout.deploy_fleet: %d of %d" (fun ok n -> n - ok)
      with _ -> f.machines
    in
    { sim = [];
      wall_s = Probe.wall_s probe;
      tick_s = Probe.tick_s probe;
      peak_heap_mb = Probe.peak_heap_mb probe;
      minor_words_per_event = 0.0;
      layers = [];
      attempted = f.machines;
      failed;
      errors = [ msg ];
      notes = [] }
  | r ->
    let sim, fabric, vblades = Option.get !seen in
    let image_bytes = f.image_mb * 1024 * 1024 in
    let payload = f.machines * image_bytes in
    (* Without [verify] the images are not digested (the digest is
       O(machines x image)); [images_ok] is then [None]. *)
    let images_ok = r.Scaleout.images_ok <> Some false in
    let sim_metrics =
      [ ("ttfb_p50_s", r.Scaleout.ttfb.Scaleout.p50);
        ("ttfb_p90_s", r.Scaleout.ttfb.Scaleout.p90);
        ("ttdv_p50_s", r.Scaleout.ttdv.Scaleout.p50);
        ("ttdv_p90_s", r.Scaleout.ttdv.Scaleout.p90);
        ("tier_gb", gb (r.Scaleout.server_bytes + r.Scaleout.mcast_tx_bytes));
        ("events", float_of_int r.Scaleout.sim_events);
        ("failovers", float_of_int r.Scaleout.failovers);
        ("p2p_served_bytes", float_of_int r.Scaleout.p2p_served_bytes);
        ("mcast_fill_bytes", float_of_int r.Scaleout.mcast_fill_bytes) ]
    in
    let layers =
      match (trace, profile) with
      | Some trace, Some profile ->
        (* Bytes the clients received from any source: tier unicast,
           peers, and every multicast copy the switch delivered. *)
        let mcast_frames =
          List.fold_left (fun a v -> a + Vblade.mcast_frames_sent v) 0 vblades
        in
        let mcast_delivered =
          if mcast_frames = 0 then 0
          else
            r.Scaleout.mcast_tx_bytes / mcast_frames * Fabric.mcast_deliveries fabric
        in
        let delivered =
          r.Scaleout.server_bytes + r.Scaleout.p2p_served_bytes + mcast_delivered
        in
        let queue_p50_ms =
          match
            List.find_opt
              (fun row -> row.Analytics.stage = "queue")
              (Analytics.stage_rows r.Scaleout.analytics)
          with
          | Some row -> row.Analytics.p50_ms
          | None -> 0.0
        in
        let image_sectors = f.image_mb * 2048 in
        common_layers ~probe ~trace ~profile ~analytics:r.Scaleout.analytics
          ~fabric ~vblades ~metrics ~sim_ns:(Sim.now sim) ~image_sectors
          ~chunk_sectors:(Params.default ~image_sectors).Params.chunk_sectors
          ~replicas:f.replicas
        @ [ ("proto.overdelivery", ratio delivered payload);
            ("proto.mcast_fill_share", ratio r.Scaleout.mcast_fill_bytes payload);
            ("proto.mcast_dups", float_of_int r.Scaleout.mcast_dups);
            ("fleet.queue_s_p50", queue_p50_ms /. 1e3);
            ("fleet.failovers", float_of_int r.Scaleout.failovers);
            ("fleet.p2p_offload", ratio r.Scaleout.p2p_served_bytes payload);
            ( "fleet.p2p_failover_ratio",
              ratio r.Scaleout.p2p_failovers r.Scaleout.p2p_routed );
            ("fleet.gossip_announces", float_of_int r.Scaleout.gossip_announces) ]
        @ absent
            [ "core.multiplexed_ops"; "core.queued_commands"; "core.vm_exits";
              "storage.disk_seeks"; "guest.kops"; "guest.io_lat_p50_ms";
              "guest.io_lat_p99_ms"; "guest.write_bytes"; "guest.ioping_probes" ]
      | _ -> []
    in
    { sim = sim_metrics;
      wall_s = Probe.wall_s probe;
      tick_s = Probe.tick_s probe;
      peak_heap_mb = Probe.peak_heap_mb probe;
      minor_words_per_event = Probe.minor_words_per_event probe;
      layers;
      attempted = f.machines;
      failed = (if images_ok then 0 else f.machines);
      errors =
        (if images_ok then []
         else [ "client disks differ from the golden image after deployment" ]);
      notes =
        [ "accuracy: fleet workloads are an unvalidated model; no reference \
           measurement exists" ] }

(* --- cassandra_deploy --- *)

(* Runs of equal content in a write buffer, copied out before the
   driver may recycle it. *)
let runs_of data =
  let n = Array.length data in
  let rec go i acc =
    if i >= n then List.rev acc
    else begin
      let j = ref (i + 1) in
      while !j < n && Content.equal data.(!j) data.(i) do incr j done;
      go !j ((i, !j - i, data.(i)) :: acc)
    end
  in
  go 0 []

(* The machine disk must hold the last completed guest write on every
   written sector and the golden image on every other image sector, and
   nothing outside those. Returns (mismatched write extents, mismatched
   image sectors, stray mapped sectors). *)
let check_disk disk ~image_sectors ~written =
  let buf_len = 65536 in
  let buf = Array.make buf_len Content.Zero in
  let scan ~lba ~count expect =
    let bad = ref 0 in
    let off = ref 0 in
    while !off < count do
      let n = min buf_len (count - !off) in
      Disk.peek_into disk ~lba:(lba + !off) ~count:n buf;
      for i = 0 to n - 1 do
        if not (Content.equal buf.(i) (expect (lba + !off + i))) then incr bad
      done;
      off := !off + n
    done;
    !bad
  in
  let bad_writes =
    Extent_map.fold_range written ~lba:0 ~count:(Disk.capacity_sectors disk) ~init:0
      ~f:(fun acc ~lba ~count v ->
        match v with
        | Some c -> if scan ~lba ~count (fun _ -> c) > 0 then acc + 1 else acc
        | None -> acc)
  in
  let bad_image =
    Extent_map.fold_range written ~lba:0 ~count:image_sectors ~init:0
      ~f:(fun acc ~lba ~count v ->
        match v with
        | Some _ -> acc
        | None -> acc + scan ~lba ~count Content.image)
  in
  let beyond = Disk.capacity_sectors disk - image_sectors in
  let stray =
    Disk.mapped_sectors_in disk ~lba:image_sectors ~count:beyond
    - Extent_map.covered_range written ~lba:image_sectors ~count:beyond
  in
  (bad_writes, bad_image, stray)

let cassandra_run c ~seed ~traced ~verify ?(setup_only = false) () =
  let trace =
    if traced then
      Some (Trace.create ~capacity:trace_capacity ~categories:trace_categories ())
    else None
  in
  let metrics = if traced then Metrics.create () else Metrics.null in
  let env =
    Stacks.make_env ~seed ~image_gb:c.image_gb ~vblade_ram_cache:true ?trace
      ~metrics ()
  in
  let m = Stacks.machine env ~name:"node0" () in
  let profile =
    if traced then begin
      let p = Profile.create () in
      Mmio.set_profile m.Machine.mmio p;
      Some p
    end
    else None
  in
  if setup_only then raise Setup_done;
  let probe = Probe.create () in
  let written = Extent_map.create () in
  let write_ops = ref 0 in
  let write_bytes = ref 0 in
  let ttfb = ref nan in
  let ttdv = ref nan in
  let booted = ref Time.zero in
  let devirt = ref Time.zero in
  let samples = ref [] in
  let io = ref None in
  let vmm_ref = ref None in
  Probe.start probe env.Stacks.sim ~ports:[ Vblade.port env.Stacks.vblade ] ~metrics;
  Stacks.run env (fun () ->
      let t0 = Sim.clock () in
      let rt, vmm = Stacks.bmcast env m () in
      vmm_ref := Some vmm;
      let rt =
        { rt with
          Runtime.block_write =
            (fun ~lba ~count data ->
              let runs = runs_of data in
              rt.Runtime.block_write ~lba ~count data;
              List.iter
                (fun (off, n, v) -> Extent_map.set written ~lba:(lba + off) ~count:n v)
                runs;
              incr write_ops;
              write_bytes := !write_bytes + (count * 512)) }
      in
      Os.boot rt ();
      booted := Sim.clock ();
      ttfb := Time.to_float_s (Time.diff !booted t0);
      Sim.spawn ~name:"ioping" (fun () ->
          io := Some (Ioping.run rt ~requests:c.probes ~think_time:c.think ()));
      Sim.spawn ~name:"devirt-watch" (fun () ->
          Vmm.wait_devirtualized vmm;
          Probe.stop probe env.Stacks.sim;
          devirt := Sim.clock ();
          ttdv := Time.to_float_s (Time.diff !devirt t0));
      samples := Ycsb.run rt Ycsb.cassandra ~duration:c.ycsb ~sample_every:(Time.s 1) ());
  let image_sectors = env.Stacks.image_sectors in
  let errors = ref [] in
  let failed = ref 0 in
  let fail n fmt =
    Printf.ksprintf (fun s -> failed := !failed + n; errors := s :: !errors) fmt
  in
  let vmm = Option.get !vmm_ref in
  let deployed = Vmm.devirtualized_at vmm <> None in
  if not deployed then fail 1 "machine never de-virtualized";
  let ycsb_end = Time.add !booted c.ycsb in
  if deployed && Time.add !devirt (Time.s 5) > ycsb_end then
    fail 1 "YCSB ended before de-virtualization; lengthen the run";
  let kops, _lat_us =
    Ycsb.average !samples ~between:(Time.add !booted (Time.s 10), Time.diff !devirt (Time.s 5))
  in
  let lat p =
    match !io with
    | Some r -> Stats.Histogram.percentile r.Ioping.latencies p
    | None -> nan
  in
  (match !io with
  | Some r when Stats.Histogram.count r.Ioping.latencies = c.probes -> ()
  | _ -> fail 1 "ioping did not complete %d probes" c.probes);
  let bad_writes, bad_image, stray =
    if verify then check_disk m.Machine.disk ~image_sectors ~written else (0, 0, 0)
  in
  if bad_writes > 0 then
    fail bad_writes "%d guest write extents lost or corrupted" bad_writes;
  if bad_image > 0 then fail 1 "%d image sectors differ from the golden image" bad_image;
  if stray <> 0 then fail 1 "%d sectors mapped outside the image and guest writes" stray;
  let tot = Vmm.totals vmm in
  let sim_metrics =
    [ ("ttfb_p50_s", !ttfb);
      ("ttfb_p90_s", !ttfb);
      ("ttdv_p50_s", !ttdv);
      ("ttdv_p90_s", !ttdv);
      ("tier_gb", gb (Vblade.bytes_served env.Stacks.vblade));
      ("guest_kops", kops);
      ("io_lat_p50_ms", lat 50.0);
      ("io_lat_p99_ms", lat 99.0);
      ("events", float_of_int (Sim.events_executed env.Stacks.sim));
      ("guest_write_ops", float_of_int !write_ops);
      ("redirects", float_of_int tot.Vmm.redirects) ]
  in
  let layers =
    match (trace, profile) with
    | Some trace, Some profile ->
      let disk = m.Machine.disk in
      let chunk_sectors = (Stacks.bmcast_params env).Params.chunk_sectors in
      common_layers ~probe ~trace ~profile ~analytics:(Analytics.of_trace trace)
        ~fabric:env.Stacks.fabric ~vblades:[ env.Stacks.vblade ] ~metrics
        ~sim_ns:(Sim.now env.Stacks.sim) ~image_sectors ~chunk_sectors ~replicas:1
      @ [ ("proto.overdelivery", ratio (Vblade.bytes_served env.Stacks.vblade) (image_sectors * 512));
          ("core.multiplexed_ops", float_of_int tot.Vmm.multiplexed_ops);
          ("core.queued_commands", float_of_int tot.Vmm.queued_commands);
          ("core.vm_exits", float_of_int tot.Vmm.vm_exits);
          ("storage.disk_seeks", float_of_int (Disk.seeks disk));
          ("guest.kops", kops);
          ("guest.io_lat_p50_ms", lat 50.0);
          ("guest.io_lat_p99_ms", lat 99.0);
          ("guest.write_bytes", float_of_int !write_bytes);
          ("guest.ioping_probes", float_of_int c.probes) ]
      @ absent
          [ "proto.mcast_fill_share"; "proto.mcast_dups"; "fleet.queue_s_p50";
            "fleet.failovers"; "fleet.p2p_offload"; "fleet.p2p_failover_ratio";
            "fleet.gossip_announces" ]
    | _ -> []
  in
  { sim = sim_metrics;
    wall_s = Probe.wall_s probe;
    tick_s = Probe.tick_s probe;
    peak_heap_mb = Probe.peak_heap_mb probe;
    minor_words_per_event = Probe.minor_words_per_event probe;
    layers;
    attempted = 1 + !write_ops;
    failed = !failed;
    errors = List.rev !errors;
    notes =
      [ Printf.sprintf
          "accuracy: guest_kops %.2f kT/s vs paper Fig. 5 Cassandra deploy \
           phase %.1f kT/s (error %+.1f%%; EXPERIMENTS.md measured 53.8 at 32 GB)"
          kops paper_cassandra_kops
          (100.0 *. (kops -. paper_cassandra_kops) /. paper_cassandra_kops) ] }

let run spec ~seed ~traced ~verify =
  match spec with
  | Fleet f -> fleet_run f ~seed ~traced ~verify ()
  | Cassandra c -> cassandra_run c ~seed ~traced ~verify ()

(* Input generation and testbed build, up to the first simulated event. *)
let setup spec ~seed =
  try
    ignore
      (match spec with
       | Fleet f -> fleet_run f ~seed ~traced:false ~verify:false ~setup_only:true ()
       | Cassandra c -> cassandra_run c ~seed ~traced:false ~verify:false ~setup_only:true ()
        : outcome)
  with Setup_done -> ()
