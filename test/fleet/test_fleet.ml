(* Tests for the fleet layer: replica-set routing and failover, the
   deployment scheduler, and the end-to-end fleet experiment —
   including the determinism contract (same seed => byte-identical
   trace) with a replica crash injected mid-copy. *)

module Sim = Bmcast_engine.Sim
module Time = Bmcast_engine.Time
module Disk = Bmcast_storage.Disk
module Fabric = Bmcast_net.Fabric
module Vblade = Bmcast_proto.Vblade
module Aoe = Bmcast_proto.Aoe
module Aoe_client = Bmcast_proto.Aoe_client
module Content = Bmcast_storage.Content
module Trace = Bmcast_obs.Trace
module Analytics = Bmcast_obs.Analytics
module Metrics = Bmcast_obs.Metrics
module Timeseries = Bmcast_obs.Timeseries
module Watchdog = Bmcast_obs.Watchdog
module Replica_set = Bmcast_fleet.Replica_set
module Scheduler = Bmcast_fleet.Scheduler
module Scaleout = Bmcast_experiments.Scaleout

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* --- rig: a sim with [n] image-filled vblade targets --- *)

let small_profile =
  { Disk.hdd_constellation2 with Disk.capacity_sectors = 1 lsl 16 }

let rig ?(seed = 42) n =
  let sim = Sim.create ~seed () in
  let fabric = Fabric.create sim () in
  let vblades =
    List.init n (fun i ->
        let d = Disk.create sim small_profile in
        Disk.fill_with_image d;
        Vblade.create sim ~fabric ~name:(Printf.sprintf "v%d" i) ~disk:d ())
  in
  (sim, vblades)

let hdr ?(cmd = Aoe.Ata_read) ?(count = 8) ~tag ~lba () =
  { Aoe.major = 1;
    minor = 0;
    command = cmd;
    tag;
    frag = 0;
    is_response = false;
    error = false;
    lba;
    count }

let response h = { h with Aoe.is_response = true }

(* Map a routed port back to the replica index. *)
let idx_of_port rset port =
  let rec go i =
    if i >= Replica_set.size rset then Alcotest.fail "unknown port"
    else if Replica_set.port_of rset i = port then i
    else go (i + 1)
  in
  go 0

(* --- replica set: policies --- *)

let test_policy_strings () =
  let roundtrip s =
    match Replica_set.policy_of_string s with
    | Some p -> Replica_set.policy_to_string p
    | None -> Alcotest.failf "did not parse %S" s
  in
  Alcotest.(check string) "shard" "shard:131072" (roundtrip "shard");
  Alcotest.(check string) "shard:n" "shard:4096" (roundtrip "shard:4096");
  Alcotest.(check string) "least" "least-outstanding"
    (roundtrip "least-outstanding");
  Alcotest.(check string) "rtt" "weighted-rtt" (roundtrip "weighted-rtt");
  check_bool "junk rejected" true
    (Replica_set.policy_of_string "round-robin" = None);
  check_bool "bad shard rejected" true
    (Replica_set.policy_of_string "shard:0" = None)

let test_wave_policy_strings () =
  let roundtrip s =
    match Scheduler.wave_policy_of_string s with
    | Some p -> Scheduler.wave_policy_to_string p
    | None -> Alcotest.failf "did not parse %S" s
  in
  Alcotest.(check string) "all" "all" (roundtrip "all");
  Alcotest.(check string) "waves" "waves:4" (roundtrip "waves:4");
  Alcotest.(check string) "stagger" "stagger:250ms" (roundtrip "stagger:250");
  check_bool "junk rejected" true
    (Scheduler.wave_policy_of_string "bursty" = None);
  check_bool "waves:0 rejected" true
    (Scheduler.wave_policy_of_string "waves:0" = None)

let test_shard_routing () =
  let sim, vblades = rig 3 in
  let rset =
    Replica_set.create sim ~policy:(Replica_set.Static_shard 1000) vblades
  in
  (* lba / 1000 mod 3 picks the home replica. *)
  List.iteri
    (fun tag (lba, expect) ->
      let port = Replica_set.route rset (hdr ~tag ~lba ()) in
      check_int (Printf.sprintf "lba %d" lba) expect (idx_of_port rset port))
    [ (0, 0); (999, 0); (1000, 1); (2500, 2); (3000, 0); (4001, 1) ]

let test_shard_skips_crashed_owner () =
  let sim, vblades = rig 3 in
  let rset =
    Replica_set.create sim ~policy:(Replica_set.Static_shard 1000) vblades
  in
  Vblade.crash (List.nth vblades 1);
  let port = Replica_set.route rset (hdr ~tag:7 ~lba:1000 ()) in
  (* Home owner (1) is down: the next replica (2) takes the stripe. *)
  check_int "next live owner" 2 (idx_of_port rset port)

let test_least_outstanding_spreads () =
  let sim, vblades = rig 3 in
  let rset = Replica_set.create sim vblades in
  let where tag = idx_of_port rset (Replica_set.route rset (hdr ~tag ~lba:0 ())) in
  check_int "first -> 0" 0 (where 1);
  check_int "second -> 1" 1 (where 2);
  check_int "third -> 2" 2 (where 3);
  check_int "wraps to least" 0 (where 4);
  check_int "outstanding 0" 2 (Replica_set.outstanding rset 0);
  check_int "outstanding 1" 1 (Replica_set.outstanding rset 1);
  (* A response drains the count and frees the slot. *)
  Replica_set.observe rset (response (hdr ~tag:1 ~lba:0 ()));
  check_int "drained" 1 (Replica_set.outstanding rset 0);
  check_int "routed counts" 2 (Replica_set.requests_routed rset 0)

let test_weighted_rtt_valid_and_seeded () =
  (* Whatever the draw, the chosen replica is valid; the same seed gives
     the same sequence of choices. *)
  let choices seed =
    let sim, vblades = rig ~seed 3 in
    let rset =
      Replica_set.create sim ~policy:Replica_set.Weighted_rtt vblades
    in
    List.init 20 (fun tag ->
        idx_of_port rset (Replica_set.route rset (hdr ~tag ~lba:0 ())))
  in
  let a = choices 7 and b = choices 7 in
  check_bool "deterministic for a seed" true (a = b);
  check_bool "indices valid" true (List.for_all (fun i -> i >= 0 && i < 3) a)

let test_retransmit_fails_over () =
  let sim, vblades = rig 3 in
  let rset = Replica_set.create sim vblades in
  let h = hdr ~tag:42 ~lba:0 () in
  let first = idx_of_port rset (Replica_set.route rset h) in
  check_int "no failover yet" 0 (Replica_set.failovers rset);
  (* Same tag again = retransmission: must move off the silent replica
     (now on probation) and count a failover. *)
  let second = idx_of_port rset (Replica_set.route rset h) in
  check_bool "moved" true (first <> second);
  check_int "failover counted" 1 (Replica_set.failovers rset);
  check_int "old drained" 0 (Replica_set.outstanding rset first);
  check_int "new charged" 1 (Replica_set.outstanding rset second)

(* A client copying through a two-replica set when the replica serving
   it dies mid-copy: the RTT estimator has settled (no backoff), so the
   first retransmission must come within the capped span — 64 × the
   settled RTO — of the crash, and re-route to the survivor. *)
let test_crash_reroutes_within_capped_rto () =
  let sim = Sim.create () in
  let fabric = Fabric.create sim () in
  let vblades =
    List.init 2 (fun i ->
        let d = Disk.create sim small_profile in
        Disk.fill_with_image d;
        Vblade.create sim ~fabric ~name:(Printf.sprintf "v%d" i) ~disk:d ())
  in
  let rset = Replica_set.create sim vblades in
  let fabric_port = ref None in
  let sends = ref [] in  (* (time, tag, dst), newest first *)
  let send hdr data =
    let dst = Replica_set.route rset hdr in
    sends := (Sim.now sim, hdr.Aoe.tag, dst) :: !sends;
    Aoe.send (Option.get !fabric_port) ~dst hdr data
  in
  let client = Aoe_client.create sim ~send () in
  fabric_port :=
    Some
      (Fabric.attach fabric ~name:"client" (fun pkt ->
           match pkt.Bmcast_net.Packet.payload with
           | Aoe.Frame f ->
             Replica_set.observe rset f.Aoe.hdr;
             Aoe_client.on_frame client f
           | _ -> ()));
  let crash_at = Time.ms 100 in
  let victim = List.hd vblades in
  let settled = ref (0, 0) in
  Sim.schedule sim crash_at (fun () ->
      settled := (Aoe_client.rto client, Aoe_client.backoff client);
      Vblade.crash victim);
  let intact = ref true in
  for s = 0 to 1 do
    Sim.spawn_at sim Time.zero (fun () ->
        for i = 0 to 31 do
          let lba = ((2 * i) + s) * 1024 in
          let data = Aoe_client.read client ~lba ~count:1024 in
          if not
               (Array.for_all2 Content.equal data
                  (Content.image_sectors ~lba ~count:1024))
          then intact := false
        done)
  done;
  Sim.run sim;
  check_bool "copy completed intact" true !intact;
  let rto, backoff = !settled in
  check_int "estimator settled before the crash" 1 backoff;
  let seen = Hashtbl.create 64 in
  let first_retx =
    List.find_map
      (fun (at, tag, dst) ->
        if Hashtbl.mem seen tag then Some (at, dst)
        else begin
          Hashtbl.replace seen tag ();
          None
        end)
      (List.rev !sends)
  in
  match first_retx with
  | None -> Alcotest.fail "the crash caused no retransmission"
  | Some (at, dst) ->
    check_bool "retransmission follows the crash" true (at >= crash_at);
    check_bool "within 64 x the settled RTO" true
      (Time.diff at crash_at <= 64 * rto);
    check_bool "re-routed to the survivor" true
      (dst <> Vblade.port_id victim)

let test_crashed_replica_excluded () =
  let sim, vblades = rig 3 in
  let rset = Replica_set.create sim vblades in
  Vblade.crash (List.nth vblades 0);
  for tag = 1 to 12 do
    let i = idx_of_port rset (Replica_set.route rset (hdr ~tag ~lba:0 ())) in
    check_bool "avoids crashed" true (i <> 0)
  done

let test_all_down_still_routes () =
  (* With every replica dead the set must still return some port (the
     retransmission loop keeps the command alive until a restart). *)
  let sim, vblades = rig 2 in
  let rset = Replica_set.create sim vblades in
  List.iter Vblade.crash vblades;
  let i = idx_of_port rset (Replica_set.route rset (hdr ~tag:1 ~lba:0 ())) in
  check_bool "valid index" true (i = 0 || i = 1)

let test_rtt_estimate_updates () =
  let sim, vblades = rig 2 in
  let rset = Replica_set.create sim vblades in
  let h = hdr ~tag:5 ~lba:0 ~count:4 () in
  ignore (Replica_set.route rset h : int);
  check_bool "unmeasured" true (Replica_set.rtt_estimate_ms rset 0 = 0.0);
  (* Responses arrive instantly at t=0 here, so the sample is 0 but the
     flight completes; use a second sim-free check: count=4 read answered
     by two 2-sector fragments completes only on the second. *)
  Replica_set.observe rset (response { h with Aoe.count = 2 });
  check_int "still in flight" 1 (Replica_set.outstanding rset 0);
  Replica_set.observe rset (response { h with Aoe.count = 2 });
  check_int "completed" 0 (Replica_set.outstanding rset 0);
  ignore sim

(* --- scheduler --- *)

(* Run [f] as a process inside a fresh sim and return its result. *)
let in_sim ?(seed = 42) f =
  let sim = Sim.create ~seed () in
  let result = ref None in
  Sim.spawn_at sim ~name:"test" Time.zero (fun () -> result := Some (f sim));
  Sim.run sim;
  match !result with
  | Some r -> r
  | None -> Alcotest.fail "scenario did not complete"

(* Jobs that take their admission lease at once and hold it [span]. *)
let sleepy_jobs n span =
  List.init n (fun i ->
      ( Printf.sprintf "job%d" i,
        fun ~admit ->
          admit ();
          Sim.sleep span ))

let test_scheduler_admission_cap () =
  let stats, peak_q, peak_s, admitted =
    in_sim (fun sim ->
        let s =
          Scheduler.create sim ~servers:2 ~limit_per_server:2 ()
        in
        let stats = Scheduler.run s (sleepy_jobs 8 (Time.s 1)) in
        ( stats,
          Scheduler.peak_queue s,
          Scheduler.peak_in_service s,
          Scheduler.admitted_per_server s ))
  in
  check_int "all ran" 8 (List.length stats);
  check_bool "capacity respected" true (peak_s <= 4);
  check_bool "queue built up" true (peak_q >= 4);
  check_int "every job leased" 8 (Array.fold_left ( + ) 0 admitted);
  (* Least-loaded leasing balances a uniform fleet. *)
  check_int "balanced" 4 admitted.(0);
  (* 8 jobs of 1 s through 4 slots: the second batch queues ~1 s. *)
  let delayed =
    List.filter (fun j -> Scheduler.queue_delay_s j > 0.5) stats
  in
  check_int "second batch waited" 4 (List.length delayed)

let test_scheduler_waves () =
  let stats =
    in_sim (fun sim ->
        let s =
          Scheduler.create sim ~servers:4 ~limit_per_server:4
            ~policy:(Scheduler.Waves 2) ()
        in
        Scheduler.run s (sleepy_jobs 6 (Time.s 1)))
  in
  (* Wave w starts only after wave w-1 finished: starts come in strictly
     separated pairs. *)
  let starts =
    List.map (fun j -> Time.to_float_s j.Scheduler.admitted) stats
  in
  let sorted = List.sort compare starts in
  (match sorted with
  | [ a; b; c; d; e; f ] ->
    check_bool "pairs together" true (a = b && c = d && e = f);
    check_bool "wave 2 after wave 1 done" true (c -. a >= 1.0);
    check_bool "wave 3 after wave 2 done" true (e -. c >= 1.0)
  | _ -> Alcotest.fail "expected 6 stats");
  check_bool "no overlap beyond wave" true
    (in_sim (fun sim ->
         let s =
           Scheduler.create sim ~servers:4 ~limit_per_server:4
             ~policy:(Scheduler.Waves 2) ()
         in
         ignore (Scheduler.run s (sleepy_jobs 6 (Time.s 1)));
         Scheduler.peak_in_service s <= 2))

let test_scheduler_stagger () =
  let stats =
    in_sim (fun sim ->
        let s =
          Scheduler.create sim ~servers:4 ~limit_per_server:4
            ~policy:(Scheduler.Stagger (Time.ms 200)) ()
        in
        Scheduler.run s (sleepy_jobs 4 (Time.s 1)))
  in
  List.iteri
    (fun i j ->
      check_bool
        (Printf.sprintf "job %d released at %dms" i (i * 200))
        true
        (Time.to_float_s j.Scheduler.released
        >= (float_of_int i *. 0.2) -. 1e-9))
    stats

(* Calling [admit] again is a no-op: one slot, one lease, one queue
   wait per job, however many times the body asks. *)
let test_scheduler_admit_idempotent () =
  let stats, peak_s, admitted =
    in_sim (fun sim ->
        let s = Scheduler.create sim ~servers:1 ~limit_per_server:1 () in
        let job i =
          ( Printf.sprintf "job%d" i,
            fun ~admit ->
              admit ();
              Sim.sleep (Time.s 1);
              admit ();
              admit ();
              Sim.sleep (Time.s 1) )
        in
        let stats = Scheduler.run s [ job 0; job 1 ] in
        (stats, Scheduler.peak_in_service s, Scheduler.admitted_per_server s))
  in
  check_int "one slot in use at a time" 1 peak_s;
  check_int "one lease per job" 2 admitted.(0);
  match stats with
  | [ a; b ] ->
    check_bool "first job admitted at once" true
      (Scheduler.queue_delay_s a = 0.0);
    check_bool "second job waited the first job's whole service" true
      (Scheduler.queue_delay_s b = 2.0);
    check_bool "each held its slot 2 s" true
      (Scheduler.service_s a = 2.0 && Scheduler.service_s b = 2.0)
  | _ -> Alcotest.fail "expected 2 stats"

(* A body that never calls [admit] runs under its release policy but
   holds no slot: with a single slot, an admitted job beside it never
   waits, and the unadmitted job has no lease. Once a body has
   returned, its [admit] refuses rather than leak a slot. *)
let test_scheduler_unadmitted_holds_nothing () =
  let stats, peak_s, admitted, late =
    in_sim (fun sim ->
        let s = Scheduler.create sim ~servers:1 ~limit_per_server:1 () in
        let escaped = ref ignore in
        let stats =
          Scheduler.run s
            [ ( "free",
                fun ~admit ->
                  escaped := admit;
                  Sim.sleep (Time.s 5) );
              ( "admitted",
                fun ~admit ->
                  admit ();
                  Sim.sleep (Time.s 1) ) ]
        in
        let late =
          match !escaped () with
          | () -> false
          | exception Invalid_argument _ -> true
        in
        ( stats,
          Scheduler.peak_in_service s,
          Scheduler.admitted_per_server s,
          late ))
  in
  check_int "only the admitted job held a slot" 1 peak_s;
  check_int "one lease" 1 admitted.(0);
  check_bool "admit after the job ended raises" true late;
  match stats with
  | [ free; adm ] ->
    check_bool "unadmitted job has no lease" true
      (free.Scheduler.server = None && Scheduler.service_s free = 0.0);
    check_bool "admitted job never waited" true
      (adm.Scheduler.server = Some 0 && Scheduler.queue_delay_s adm = 0.0)
  | _ -> Alcotest.fail "expected 2 stats"

let test_scheduler_single_use () =
  check_bool "second run raises" true
    (in_sim (fun sim ->
         let s = Scheduler.create sim ~servers:1 () in
         ignore (Scheduler.run s (sleepy_jobs 1 (Time.ms 1)));
         try
           ignore (Scheduler.run s (sleepy_jobs 1 (Time.ms 1)));
           false
         with Invalid_argument _ -> true))

(* --- end-to-end: fleet deployment, failover, determinism --- *)

(* 16 machines x 3 replicas with replica 1 crashed mid-copy and never
   restarted: every deployment must still de-virtualize (deploy_fleet
   raises otherwise), surviving replicas absorb the load via failover. *)
let fleet_run ~trace () =
  Scaleout.deploy_fleet ~seed:7 ~image_mb:32 ~machines:16 ~replicas:3
    ~crashes:[ (Time.s 10, 1) ]
    ~trace ()

let test_fleet_failover_converges () =
  let r = fleet_run ~trace:Trace.null () in
  check_bool "failovers happened" true (r.Scaleout.failovers > 0);
  check_bool "devirt after boot" true
    (r.Scaleout.ttdv.Scaleout.p50 > r.Scaleout.ttfb.Scaleout.p50);
  check_int "three servers leased" 3
    (Array.length r.Scaleout.admitted_per_server)

let test_fleet_deterministic_trace () =
  let export () =
    let tr = Trace.create ~capacity:(1 lsl 20) () in
    let r = fleet_run ~trace:tr () in
    (Trace.to_chrome tr, Trace.to_jsonl tr, r)
  in
  let chrome_a, jsonl_a, ra = export () in
  let chrome_b, jsonl_b, rb = export () in
  check_bool "traces non-trivial" true (String.length chrome_a > 1000);
  check_bool "chrome export byte-identical" true (chrome_a = chrome_b);
  check_bool "jsonl export byte-identical" true (jsonl_a = jsonl_b);
  check_bool "summaries identical" true
    (ra.Scaleout.ttdv = rb.Scaleout.ttdv
    && ra.Scaleout.ttfb = rb.Scaleout.ttfb
    && ra.Scaleout.failovers = rb.Scaleout.failovers)

(* The engine-rework contract at scale: a 1,000-client cloud-burst run
   (minimal guests, small image, sampled tracer) is bit-for-bit
   reproducible — same seed gives a byte-identical JSONL trace, the
   same event count, and the same latency summaries. This is the test
   that pins the timer wheel's FIFO tie-breaking and the lazy-guest
   accounting across the whole stack. *)
let test_fleet_scale_deterministic_trace () =
  let export () =
    let tr = Trace.create ~capacity:(1 lsl 20) ~sample_every:64 () in
    let r =
      Scaleout.deploy_fleet ~seed:11 ~image_mb:4
        ~boot_profile:Bmcast_guest.Os.cloud_minimal ~machines:1000
        ~replicas:16 ~trace:tr ()
    in
    (Trace.to_jsonl tr, r)
  in
  let jsonl_a, ra = export () in
  let jsonl_b, rb = export () in
  check_bool "sampled trace non-trivial" true (String.length jsonl_a > 1000);
  check_bool "jsonl export byte-identical" true (jsonl_a = jsonl_b);
  check_int "event counts identical" ra.Scaleout.sim_events
    rb.Scaleout.sim_events;
  check_bool "summaries identical" true
    (ra.Scaleout.ttdv = rb.Scaleout.ttdv
    && ra.Scaleout.ttfb = rb.Scaleout.ttfb
    && ra.Scaleout.failovers = rb.Scaleout.failovers)

(* The report determinism contract on a seeded 250-client cloud burst:
   the analytics section of the report (stage table, critical path,
   SLO) derives from virtual-time spans only, so two same-seed runs
   must render byte-identical JSON and text. *)
let test_fleet_report_deterministic () =
  let go () =
    let r =
      Scaleout.deploy_fleet ~seed:11 ~image_mb:4
        ~boot_profile:Bmcast_guest.Os.cloud_minimal ~machines:250 ~replicas:16
        ()
    in
    r.Scaleout.analytics
  in
  let a = go () and b = go () in
  check_int "all machines folded" 250 (Analytics.machine_count a);
  check_int "slo saw every boot" 250 (Analytics.slo a).Analytics.boots;
  check_bool "json byte-identical" true
    (String.equal (Analytics.to_json a) (Analytics.to_json b));
  check_bool "text byte-identical" true
    (String.equal (Analytics.to_text a) (Analytics.to_text b))

(* Stage-sum = boot-total on a real deployment: per machine, the five
   pipeline spans (vmm_init, queue, discover, copy, devirt) must tile
   the boot timeline with no gaps or overlaps, so their durations sum
   exactly (integer ns) to last-span-end minus first-span-start. *)
let test_fleet_stage_tiling () =
  let tr = Trace.create ~capacity:(1 lsl 16) ~categories:[ "boot" ] () in
  let r =
    Scaleout.deploy_fleet ~seed:5 ~image_mb:4
      ~boot_profile:Bmcast_guest.Os.cloud_minimal ~machines:32 ~replicas:4
      ~trace:tr ()
  in
  let per_machine = Hashtbl.create 32 in
  Trace.iter tr (fun (e : Trace.event) ->
      match (e.Trace.phase, List.assoc_opt "m" e.Trace.args) with
      | Trace.P_span, Some (Trace.Str m) ->
        let spans, first, last, sum =
          Option.value
            (Hashtbl.find_opt per_machine m)
            ~default:(0, max_int, min_int, 0)
        in
        Hashtbl.replace per_machine m
          ( spans + 1,
            min first e.Trace.ts,
            max last (e.Trace.ts + e.Trace.dur),
            sum + e.Trace.dur )
      | _ -> ());
  check_int "dropped no boot spans" 0 (Trace.dropped tr);
  check_int "every machine traced" 32 (Hashtbl.length per_machine);
  Hashtbl.iter
    (fun m (spans, first, last, sum) ->
      check_int (m ^ " has the full pipeline") 5 spans;
      check_int (m ^ " stages tile the boot") (last - first) sum)
    per_machine;
  (* and the analytics fold agrees with the raw spans *)
  check_int "analytics saw the fleet" 32
    (Analytics.machine_count r.Scaleout.analytics);
  List.iter
    (fun m ->
      let _, _, _, sum = Hashtbl.find per_machine m in
      match Analytics.boot_total_ms r.Scaleout.analytics m with
      | Some total_ms ->
        check_bool (m ^ " boot total matches trace") true
          (Float.abs (total_ms -. (float_of_int sum /. 1e6)) < 1e-6)
      | None -> Alcotest.failf "machine %s missing from analytics" m)
    (Analytics.machine_names r.Scaleout.analytics)

(* The telemetry determinism contract on a seeded 250-client cloud
   burst: the sampler sweeps on virtual time and reads only
   deterministic registry state, so two same-seed runs with the same
   sampling config must export byte-identical CSV and OpenMetrics. *)
let test_fleet_timeseries_deterministic () =
  let go () =
    let metrics = Metrics.create () in
    let ts = Timeseries.create ~interval_ns:(Time.ms 500) metrics in
    let (_ : Scaleout.result) =
      Scaleout.deploy_fleet ~seed:11 ~image_mb:4
        ~boot_profile:Bmcast_guest.Os.cloud_minimal ~machines:250 ~replicas:16
        ~metrics ~timeseries:ts ()
    in
    (Timeseries.to_csv ts, Timeseries.to_openmetrics ts, Timeseries.sweeps ts)
  in
  let csv_a, om_a, sweeps_a = go () in
  let csv_b, om_b, sweeps_b = go () in
  check_bool "sampler swept" true (sweeps_a > 10);
  check_int "sweep counts identical" sweeps_a sweeps_b;
  check_bool "csv non-trivial" true (String.length csv_a > 1000);
  check_bool "csv byte-identical" true (String.equal csv_a csv_b);
  check_bool "openmetrics byte-identical" true (String.equal om_a om_b)

(* Watchdog detection latency against an injected server crash: replica
   0 dies at 4.2 s into a run sampled every 500 ms, so the server-down
   rule must fire on the next sweep after the fault — latency strictly
   positive (the crash is not sweep-aligned) and bounded by the
   sampling interval. *)
let test_fleet_watchdog_detects_crash () =
  let interval = Time.ms 500 in
  let metrics = Metrics.create () in
  let ts = Timeseries.create ~interval_ns:interval metrics in
  let wd =
    Watchdog.create
      [ Watchdog.threshold ~name:"server-down" ~key:"vblade.up" Watchdog.Below
          0.5 ]
  in
  (* Supplying both sampler and watchdog means we own the wiring. *)
  Watchdog.attach wd ts;
  let r =
    Scaleout.deploy_fleet ~seed:7 ~image_mb:32 ~machines:16 ~replicas:3
      ~crashes:[ (Time.ms 4200, 0) ]
      ~metrics ~timeseries:ts ~watchdog:wd ()
  in
  check_bool "watchdog alerted" true (Watchdog.alert_count wd >= 1);
  check_int "result mirrors alert count" (Watchdog.alert_count wd)
    r.Scaleout.alert_count;
  check_int "crash expectation resolved" 0 (Watchdog.pending_expectations wd);
  match Watchdog.detections wd with
  | [] -> Alcotest.fail "no detection recorded"
  | d :: _ ->
    check_bool "detection labelled" true
      (String.length d.Watchdog.d_label > 0);
    let lat = Watchdog.detection_latency_ns d in
    check_bool "latency positive" true (lat > 0);
    check_bool "latency bounded by sampling interval" true (lat <= interval)

(* --- distribution modes: P2P swarm + multicast carousel --- *)

let small_fleet ?(seed = 7) ?(machines = 12) ?(replicas = 2) ?uplink_mbps
    ?peer_crashes ?chaos ?crashes ?restarts ?trace ~distribution () =
  Scaleout.deploy_fleet ~seed ~image_mb:4
    ~boot_profile:Bmcast_guest.Os.cloud_minimal ~digest_images:true
    ?uplink_mbps ?peer_crashes ?chaos ?crashes ?restarts ?trace ~distribution
    ~machines ~replicas ()

let test_p2p_offloads_and_converges () =
  let r = small_fleet ~distribution:`P2p ~uplink_mbps:50. () in
  check_bool "gossip announcements folded" true
    (r.Scaleout.gossip_announces > 0);
  check_bool "commands peer-routed" true (r.Scaleout.p2p_routed > 0);
  check_bool "bytes served peer-to-peer" true
    (r.Scaleout.p2p_served_bytes > 0);
  check_bool "every image converged" true (r.Scaleout.images_ok = Some true)

let test_mcast_fills_and_converges () =
  let r = small_fleet ~distribution:`Mcast () in
  check_bool "carousel transmitted" true (r.Scaleout.mcast_tx_bytes > 0);
  check_bool "clients filled from the carousel" true
    (r.Scaleout.mcast_fill_bytes > 0);
  check_bool "every image converged" true (r.Scaleout.images_ok = Some true)

(* A de-virtualized machine has nothing left to take from the carousel:
   its VMM must leave the group, so the switch stops fanning frames out
   to its parked NIC. [deploy_fleet] stops the run when the last client
   de-virtualizes, mid-carousel; resuming it shows the server still
   sending while per-member deliveries stay flat. *)
let test_mcast_group_left_at_devirt () =
  let testbed = ref None in
  let chaos sim fabric _vblades = testbed := Some (sim, fabric) in
  let (_ : Scaleout.result) =
    Scaleout.deploy_fleet ~seed:7 ~image_mb:4
      ~boot_profile:Bmcast_guest.Os.cloud_minimal ~distribution:`Mcast
      ~mcast_passes:64 ~chaos ~machines:8 ~replicas:2 ()
  in
  let sim, fabric = Option.get !testbed in
  (* The run's one group, allocated before [chaos] runs. *)
  check_int "no members once all de-virtualized" 0
    (Fabric.mcast_members fabric ~group:(-1));
  let deliveries = Fabric.mcast_deliveries fabric in
  let sent = Fabric.mcast_sent fabric in
  Sim.run ~until:(Time.add (Sim.now sim) (Time.s 2)) sim;
  check_bool "carousel still sending" true (Fabric.mcast_sent fabric > sent);
  check_int "fan-out stopped growing" deliveries
    (Fabric.mcast_deliveries fabric)

(* The equivalence contract: whatever path delivered each sector —
   replica unicast, a peer's page cache, or the multicast carousel —
   every client disk must equal the golden image, so the three modes
   produce the same fleet-wide digest. *)
let test_cross_mode_image_equivalence () =
  let go d =
    let r = small_fleet ~distribution:d () in
    check_bool
      (Scaleout.distribution_to_string d ^ " converged")
      true
      (r.Scaleout.images_ok = Some true);
    r.Scaleout.image_digest
  in
  let u = go `Unicast and p = go `P2p and m = go `Mcast in
  check_bool "digest present" true (u <> None);
  check_bool "p2p image identical to unicast" true (p = u);
  check_bool "mcast image identical to unicast" true (m = u)

(* A peer dies mid-serve: its in-flight and queued requests vanish, the
   requesters' AoE timeouts fire, and the router fails the commands over
   to the replica set — the deployment still converges byte-for-byte. *)
let test_peer_crash_mid_serve_converges () =
  (* t=14 s lands mid second wave: wave-1 peers are actively serving
     wave-2 copy-on-read when every peer dies at once. *)
  let r =
    small_fleet ~distribution:`P2p ~uplink_mbps:25. ~machines:16
      ~peer_crashes:(List.init 16 (fun i -> (Time.s 14, i)))
      ()
  in
  check_bool "peer-routed commands" true (r.Scaleout.p2p_routed > 0);
  check_bool "failovers recorded" true (r.Scaleout.p2p_failovers > 0);
  check_bool "every image converged" true (r.Scaleout.images_ok = Some true)

(* --- QCheck: equivalence + determinism under random fault plans --- *)

(* A fault plan derived deterministically from a QCheck-drawn seed:
   uniform or Gilbert frame loss, a replica crash/restart pair, vblade
   link flaps, and peer crashes (harmless outside P2P mode). Every
   distribution mode faces the same plan. *)
type fault_plan = {
  fp_seed : int;
  loss : Fabric.loss_model;
  vblade_crash : (Time.span * int) list;
  vblade_restart : (Time.span * int) list;
  flaps : (Time.span * Time.span * int) list;  (* down at, up after, idx *)
  fp_peer_crashes : (Time.span * int) list;
}

let fault_plan_of_seed fp_seed =
  let st = Random.State.make [| fp_seed |] in
  let rnd lo hi = lo + Random.State.int st (hi - lo + 1) in
  let loss =
    if Random.State.bool st then
      Fabric.Uniform (float_of_int (rnd 0 30) /. 1000.)
    else
      Fabric.Gilbert
        { p_enter_bad = 0.01;
          p_exit_bad = 0.2;
          loss_good = 0.002;
          loss_bad = float_of_int (rnd 5 20) /. 100. }
  in
  let crash_at = Time.ms (rnd 500 4000) in
  let vblade_crash, vblade_restart =
    if Random.State.bool st then
      ([ (crash_at, 1) ], [ (Time.add crash_at (Time.ms (rnd 500 3000)), 1) ])
    else ([], [])
  in
  let flaps =
    List.init (rnd 0 2) (fun _ ->
        (Time.ms (rnd 200 5000), Time.ms (rnd 50 800), 0))
  in
  let fp_peer_crashes =
    List.init (rnd 0 3) (fun i -> (Time.ms (rnd 1000 6000), i))
  in
  { fp_seed; loss; vblade_crash; vblade_restart; flaps; fp_peer_crashes }

let chaos_of_plan plan sim fabric vblades =
  Fabric.set_loss_model fabric plan.loss;
  List.iter
    (fun (down_at, dur, i) ->
      let p = Vblade.port (List.nth vblades i) in
      let at span f = Sim.schedule sim (Time.add (Sim.now sim) span) f in
      at down_at (fun () -> Fabric.set_link_up p false);
      at (Time.add down_at dur) (fun () -> Fabric.set_link_up p true))
    plan.flaps

let faulted_fleet ?trace plan distribution =
  small_fleet ~seed:(plan.fp_seed land 0xFFFF) ~machines:8 ~distribution
    ~crashes:plan.vblade_crash ~restarts:plan.vblade_restart
    ~peer_crashes:plan.fp_peer_crashes
    ~chaos:(chaos_of_plan plan)
    ?trace ()

(* Under any fault plan, all three distribution modes converge to
   byte-identical per-client images (equal fleet digests), and each mode
   is individually deterministic: the same seed and plan reproduce the
   byte-identical JSONL trace and result summaries. *)
let prop_equivalence_under_faults =
  QCheck.Test.make ~name:"fault-plan equivalence across distribution modes"
    ~count:3
    QCheck.(map fault_plan_of_seed small_nat)
    (fun plan ->
      let u = faulted_fleet plan `Unicast in
      let p = faulted_fleet plan `P2p in
      let m = faulted_fleet plan `Mcast in
      List.for_all
        (fun r -> r.Scaleout.images_ok = Some true)
        [ u; p; m ]
      && p.Scaleout.image_digest = u.Scaleout.image_digest
      && m.Scaleout.image_digest = u.Scaleout.image_digest)

let prop_deterministic_under_faults =
  QCheck.Test.make
    ~name:"fault-plan runs are trace-deterministic per mode" ~count:2
    QCheck.(map fault_plan_of_seed small_nat)
    (fun plan ->
      List.for_all
        (fun d ->
          let export () =
            let tr = Trace.create ~capacity:(1 lsl 18) ~sample_every:16 () in
            let r = faulted_fleet ~trace:tr plan d in
            (Trace.to_jsonl tr, r)
          in
          let ja, ra = export () in
          let jb, rb = export () in
          String.equal ja jb
          && ra.Scaleout.image_digest = rb.Scaleout.image_digest
          && ra.Scaleout.ttdv = rb.Scaleout.ttdv
          && ra.Scaleout.p2p_routed = rb.Scaleout.p2p_routed
          && ra.Scaleout.mcast_fill_bytes = rb.Scaleout.mcast_fill_bytes)
        [ `Unicast; `P2p; `Mcast ])

(* The multicast analogue of the 1,000-client contract: a 250-client
   cloud burst with the carousel running is bit-for-bit reproducible —
   the carousel's unsolicited frames, the write-if-empty races and the
   dedup accounting all replay identically under the same seed. *)
let test_fleet_mcast_scale_deterministic_trace () =
  let export () =
    let tr = Trace.create ~capacity:(1 lsl 20) ~sample_every:64 () in
    let r =
      Scaleout.deploy_fleet ~seed:11 ~image_mb:4
        ~boot_profile:Bmcast_guest.Os.cloud_minimal ~distribution:`Mcast
        ~machines:250 ~replicas:4 ~trace:tr ()
    in
    (Trace.to_jsonl tr, r)
  in
  let jsonl_a, ra = export () in
  let jsonl_b, rb = export () in
  check_bool "sampled trace non-trivial" true (String.length jsonl_a > 1000);
  check_bool "jsonl export byte-identical" true (jsonl_a = jsonl_b);
  check_int "event counts identical" ra.Scaleout.sim_events
    rb.Scaleout.sim_events;
  check_bool "carousel filled bytes" true (ra.Scaleout.mcast_fill_bytes > 0);
  check_int "fill accounting identical" ra.Scaleout.mcast_fill_bytes
    rb.Scaleout.mcast_fill_bytes;
  check_int "dedup accounting identical" ra.Scaleout.mcast_dups
    rb.Scaleout.mcast_dups;
  check_bool "summaries identical" true
    (ra.Scaleout.ttdv = rb.Scaleout.ttdv && ra.Scaleout.ttfb = rb.Scaleout.ttfb)

(* --- the admission gate: machines are admitted at their first
   storage-tier access, after PXE and VMM init --- *)

(* 12 machines on 2 replicas x 2 slots: eight of them finish VMM init
   and then wait at the gate. Traces the boot pipeline and every AoE
   command, each tagged with its machine. *)
let gate_run distribution =
  let tr = Trace.create ~categories:[ "boot"; "aoe" ] () in
  let r =
    Scaleout.deploy_fleet ~seed:3 ~image_mb:4
      ~boot_profile:Bmcast_guest.Os.cloud_minimal ~distribution
      ~limit_per_server:2 ~machines:12 ~replicas:2 ~trace:tr ()
  in
  (r, tr)

let gate_modes = [ `Unicast; `P2p; `Mcast ]

(* A machine's admission is the end of its "queue" span. No machine
   sends an AoE command — to a vblade or, in P2P mode, a peer — before
   it, so no vblade receives a frame from a machine that has not been
   admitted. *)
let test_gate_no_tier_access_before_admission () =
  List.iter
    (fun mode ->
      let name = Scaleout.distribution_to_string mode in
      let _, tr = gate_run mode in
      let admitted = Hashtbl.create 16 and first_aoe = Hashtbl.create 16 in
      Trace.iter tr (fun (e : Trace.event) ->
          match (e.Trace.phase, List.assoc_opt "m" e.Trace.args) with
          | Trace.P_span, Some (Trace.Str m) ->
            if e.Trace.cat = "boot" && e.Trace.name = "queue" then
              Hashtbl.replace admitted m (e.Trace.ts + e.Trace.dur, e.Trace.dur)
            else if e.Trace.cat = "aoe" then
              let prior =
                Option.value (Hashtbl.find_opt first_aoe m) ~default:max_int
              in
              Hashtbl.replace first_aoe m (min prior e.Trace.ts)
          | _ -> ());
      check_int (name ^ ": no trace drops") 0 (Trace.dropped tr);
      check_int (name ^ ": every machine gated") 12 (Hashtbl.length admitted);
      check_int (name ^ ": every machine used the tier") 12
        (Hashtbl.length first_aoe);
      let waited =
        Hashtbl.fold (fun _ (_, dur) n -> if dur > 0 then n + 1 else n)
          admitted 0
      in
      check_bool (name ^ ": machines queued at the gate") true (waited >= 8);
      Hashtbl.iter
        (fun m (at, _) ->
          let first = Hashtbl.find first_aoe m in
          if first < at then
            Alcotest.failf "%s: %s sent AoE at %d ns, admitted at %d ns" name
              m first at)
        admitted)
    gate_modes

(* [limit_per_server] bounds the machines in service against each
   server, in every distribution mode, and the gate fills it. *)
let test_gate_per_server_limit () =
  List.iter
    (fun mode ->
      let name = Scaleout.distribution_to_string mode in
      let r, _ = gate_run mode in
      Array.iteri
        (fun i peak ->
          check_int (Printf.sprintf "%s: server %d peak in service" name i) 2
            peak)
        r.Scaleout.peak_per_server;
      check_int (name ^ ": pool peak in service") 4 r.Scaleout.peak_in_service;
      check_int (name ^ ": machines waiting at the gate") 8
        r.Scaleout.peak_queue)
    gate_modes

let test_fleet_replicas_beat_single () =
  (* The tentpole claim at test scale: 8 machines on 1 replica vs 2. *)
  let one =
    Scaleout.deploy_fleet ~image_mb:32 ~machines:8 ~replicas:1 ()
  in
  let two =
    Scaleout.deploy_fleet ~image_mb:32 ~machines:8 ~replicas:2 ()
  in
  check_bool "2 replicas faster (median ttdv)" true
    (two.Scaleout.ttdv.Scaleout.p50 < one.Scaleout.ttdv.Scaleout.p50)

let () =
  let tc = Alcotest.test_case in
  Alcotest.run "fleet"
    [ ( "replica_set",
        [ tc "policy strings" `Quick test_policy_strings;
          tc "shard routing" `Quick test_shard_routing;
          tc "shard skips crashed owner" `Quick test_shard_skips_crashed_owner;
          tc "least outstanding spreads" `Quick test_least_outstanding_spreads;
          tc "weighted rtt seeded" `Quick test_weighted_rtt_valid_and_seeded;
          tc "retransmit fails over" `Quick test_retransmit_fails_over;
          tc "crash re-routes within 64x settled rto" `Quick
            test_crash_reroutes_within_capped_rto;
          tc "crashed replica excluded" `Quick test_crashed_replica_excluded;
          tc "all down still routes" `Quick test_all_down_still_routes;
          tc "fragmented read completion" `Quick test_rtt_estimate_updates ] );
      ( "scheduler",
        [ tc "wave policy strings" `Quick test_wave_policy_strings;
          tc "admission cap" `Quick test_scheduler_admission_cap;
          tc "waves" `Quick test_scheduler_waves;
          tc "stagger" `Quick test_scheduler_stagger;
          tc "admit idempotent" `Quick test_scheduler_admit_idempotent;
          tc "unadmitted job holds no slot" `Quick
            test_scheduler_unadmitted_holds_nothing;
          tc "single use" `Quick test_scheduler_single_use ] );
      ( "fleet",
        [ tc "failover converges" `Slow test_fleet_failover_converges;
          tc "deterministic trace" `Slow test_fleet_deterministic_trace;
          tc "1000-client deterministic trace" `Slow
            test_fleet_scale_deterministic_trace;
          tc "250-client deterministic report" `Slow
            test_fleet_report_deterministic;
          tc "boot stages tile exactly" `Slow test_fleet_stage_tiling;
          tc "250-client deterministic telemetry" `Slow
            test_fleet_timeseries_deterministic;
          tc "watchdog detects injected crash" `Slow
            test_fleet_watchdog_detects_crash;
          tc "replicas beat single" `Slow test_fleet_replicas_beat_single ] );
      ( "admission",
        [ tc "no tier access before admission" `Slow
            test_gate_no_tier_access_before_admission;
          tc "per-server limit in every mode" `Slow
            test_gate_per_server_limit ] );
      ( "distribution",
        [ tc "p2p offloads and converges" `Slow test_p2p_offloads_and_converges;
          tc "mcast fills and converges" `Slow test_mcast_fills_and_converges;
          tc "mcast group left at devirt" `Slow test_mcast_group_left_at_devirt;
          tc "cross-mode image equivalence" `Slow
            test_cross_mode_image_equivalence;
          tc "peer crash mid-serve converges" `Slow
            test_peer_crash_mid_serve_converges;
          tc "250-client mcast deterministic trace" `Slow
            test_fleet_mcast_scale_deterministic_trace;
          QCheck_alcotest.to_alcotest ~long:true prop_equivalence_under_faults;
          QCheck_alcotest.to_alcotest ~long:true
            prop_deterministic_under_faults ] ) ]
