(* Golden-scalar regression tests: print the key figures of selected
   experiments at a fixed seed in a stable format. Dune diffs the output
   against the checked-in .expected files; after an intentional physics
   change, refresh them with `dune promote` (see test/README.md). *)

module Time = Bmcast_engine.Time
module Sim = Bmcast_engine.Sim
module Prng = Bmcast_engine.Prng
module Wheel = Bmcast_engine.Timer_wheel
module Profile = Bmcast_obs.Profile
module Scaleout = Bmcast_experiments.Scaleout
module Fig04 = Bmcast_experiments.Fig04_startup
module Fig14 = Bmcast_experiments.Fig14_moderation

let fig04 () =
  (* Small image so the regression stays fast; the ordering claims the
     paper makes (BMcast beats everything but bare metal post-firmware)
     hold at 2 GB too. *)
  let results = Fig04.measure ~image_gb:2 () in
  List.iter
    (fun r ->
      Printf.printf "%-12s firmware %8.3f  pre_os %8.3f  os_boot %8.3f  post_fw %8.3f\n"
        r.Fig04.label r.Fig04.firmware r.Fig04.pre_os r.Fig04.os_boot
        r.Fig04.total_post_firmware)
    results;
  let find l = List.find (fun r -> r.Fig04.label = l) results in
  Printf.printf "speedup_vs_image_copy_post_fw %.4f\n"
    ((find "Image Copy").Fig04.total_post_firmware
    /. (find "BMcast").Fig04.total_post_firmware)

let fig14 () =
  (* Three-point subset of the moderation sweep: the two extremes and a
     midpoint — enough to pin the moderation physics. *)
  let intervals = [ ("1s", Time.s 1); ("1ms", Time.ms 1); ("full-speed", 0) ] in
  List.iter
    (fun guest_op ->
      let tag = match guest_op with `Read -> "read" | `Write -> "write" in
      List.iter
        (fun p ->
          Printf.printf "%s %-10s guest %8.2f MB/s  vmm %8.2f MB/s\n" tag
            p.Fig14.interval_label p.Fig14.guest_mb_s p.Fig14.vmm_mb_s)
        (Fig14.measure ~intervals ~guest_op ()))
    [ `Read; `Write ]

(* Engine cost, measured only in host-invariant units. Event and call
   counts are printed, so any change to them is a golden diff. Minor
   words per event or per call are asserted against fixed ceilings
   instead of printed: they are exact for a given binary, but a
   compiler upgrade may shift them slightly, and that must fail here
   with a message rather than as a golden diff. Host time is gated by
   perfbench's calibrated [wall_s], never here. *)

(* Minor words [f] allocates, counted from an empty minor heap. *)
let minor_words f =
  Gc.minor ();
  let w0 = Gc.minor_words () in
  let r = f () in
  (r, Gc.minor_words () -. w0)

(* Ceilings: the figures this binary measured when the workloads were
   last baselined, plus half a word. The figures repeat exactly run to
   run, so the slack only absorbs the rounding of the committed figure;
   two words more per scheduled event breach every tier. Re-baseline
   after a compiler change or a deliberate allocation change. *)
let ceiling committed = committed +. 0.5

let breaches = ref []

let check_ceiling label ~units ~committed words =
  if words > ceiling committed then
    breaches :=
      Printf.sprintf "%s: %.4f minor %s exceeds the ceiling %.4f" label words
        units (ceiling committed)
      :: !breaches

(* Steady-state churn at fleet-scale pending counts: every pop re-arms
   a successor at a random future offset. *)
let churn_pending = 32_768
let churn_ops = 2_000_000

let wheel_churn () =
  let w = Wheel.create ~dummy:() () in
  let prng = Prng.create 11 in
  for _ = 1 to churn_pending do
    ignore (Wheel.push w (Prng.int prng 1_000_000) () : Wheel.token)
  done;
  let last, words =
    minor_words (fun () ->
        let last = ref 0 in
        for _ = 1 to churn_ops do
          let t = Wheel.next_time w in
          Wheel.pop_exn w;
          ignore (Wheel.push w (t + 1 + Prng.int prng 1_000_000) () : Wheel.token);
          last := t
        done;
        !last)
  in
  Printf.printf "wheel churn: pending %d ops %d last pop at %d\n" churn_pending
    churn_ops last;
  check_ceiling "wheel churn" ~units:"words/event" ~committed:0.0
    (words /. float_of_int churn_ops)

(* Every event crosses the full effects path: perform, park, wheel,
   resume. *)
let sim_procs = 20_000
let sim_sleeps_per_proc = 100

let full_sim () =
  let sim = Sim.create ~seed:5 () in
  let prng = Prng.create 17 in
  for i = 0 to sim_procs - 1 do
    Sim.spawn_at sim
      ~name:(if i = 0 then "worker" else "w")
      Time.zero
      (fun () ->
        for _ = 1 to sim_sleeps_per_proc do
          Sim.sleep (Time.us (1 + Prng.int prng 5_000))
        done)
  done;
  let (), words = minor_words (fun () -> Sim.run sim) in
  let events = Sim.events_executed sim in
  Printf.printf "full sim: procs %d sleeps %d events %d end at %d ns\n"
    sim_procs sim_sleeps_per_proc events (Sim.now sim);
  check_ceiling "full sim" ~units:"words/event" ~committed:4.14
    (words /. float_of_int events)

(* The full-stack hot path at cloud-burst scale. The per-event figure
   comes from an unprofiled run, since the profiler's own scope
   bookkeeping would inflate it; a profiled run then attributes the
   scoped categories. *)
let fleet_deploy ?profile () =
  Scaleout.deploy_fleet ~seed:42 ~image_mb:8
    ~boot_profile:Bmcast_guest.Os.cloud_minimal ?profile ~machines:250
    ~replicas:16 ()

let fleet () =
  let r, words = minor_words (fun () -> fleet_deploy ()) in
  let events = r.Scaleout.sim_events in
  Printf.printf "fleet 250x16: events %d\n" events;
  check_ceiling "fleet" ~units:"words/event" ~committed:19.13
    (words /. float_of_int events);
  let prof = Profile.create () in
  let r = fleet_deploy ~profile:prof () in
  Printf.printf "fleet 250x16 profiled: events %d mismatches %d\n"
    r.Scaleout.sim_events (Profile.mismatches prof);
  let category label pred ~committed =
    let calls, words =
      List.fold_left
        (fun (c, w) (row : Profile.row) ->
          if pred row.row_cat then (c + row.calls, w +. row.minor_words)
          else (c, w))
        (0, 0.0) (Profile.rows prof)
    in
    Printf.printf "%s: calls %d\n" label calls;
    if calls > 0 then
      check_ceiling label ~units:"words/call" ~committed
        (words /. float_of_int calls)
  in
  category "net.send" (String.equal "net.send") ~committed:0.055;
  category "mmio.*" (String.starts_with ~prefix:"mmio.") ~committed:0.03

let engine () =
  wheel_churn ();
  full_sim ();
  fleet ();
  List.iter prerr_endline (List.rev !breaches);
  if !breaches <> [] then exit 1

let () =
  match Sys.argv with
  | [| _; "fig04" |] -> fig04 ()
  | [| _; "fig14" |] -> fig14 ()
  | [| _; "engine" |] -> engine ()
  | _ ->
    prerr_endline "usage: golden (fig04|fig14|engine)";
    exit 2
