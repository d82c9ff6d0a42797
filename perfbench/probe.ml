(* Benchmark-side observer of one simulation run.

   Everything here sits outside the library: a recurring daemon job
   (installed through the hooks the program exposes) samples engine and
   tier state on the virtual clock and stamps the host clock, so the
   timed window is [start] -> last sample before the run goes idle (or an
   explicit [stop]). The stamps also split the window into ticks, each
   the host time of one [tick] of simulated time; repetitions of a seed
   run the same events in every tick, which lets [run.py] compare them
   tick by tick. Daemon jobs never keep a run alive and never touch
   the simulation's PRNG, so installing one leaves every simulated
   outcome unchanged; the traced-vs-untraced equality check in [bench.ml]
   holds the benchmark to that. *)

module Sim = Bmcast_engine.Sim
module Time = Bmcast_engine.Time
module Fabric = Bmcast_net.Fabric
module Metrics = Bmcast_obs.Metrics

let tick = Time.ms 10

type t = {
  mutable t_start : float;  (** host s at the first simulated event *)
  mutable t_end : float;  (** host s at the end of the timed window *)
  mutable stamps : float array;  (** host s at [start] and each sample *)
  mutable n_stamps : int;
  mutable minor_start : float;
  mutable minor_end : float;
  mutable events_start : int;
  mutable events_end : int;
  mutable top_heap_words : int;  (** major-heap high-water mark at [t_end] *)
  mutable stopped : bool;
  mutable pending_peak : int;
  mutable port_queue_peak : int;  (** deepest storage-tier egress queue *)
  mutable vblade_queue_peak : float;  (** deepest vblade request queue *)
}

let create () =
  { t_start = 0.0;
    t_end = 0.0;
    stamps = Array.make 4096 0.0;
    n_stamps = 0;
    minor_start = 0.0;
    minor_end = 0.0;
    events_start = 0;
    events_end = 0;
    top_heap_words = 0;
    stopped = false;
    pending_peak = 0;
    port_queue_peak = 0;
    vblade_queue_peak = 0.0 }

let mark_end p sim =
  p.t_end <- Unix.gettimeofday ();
  if p.n_stamps = Array.length p.stamps then begin
    let grown = Array.make (2 * p.n_stamps) 0.0 in
    Array.blit p.stamps 0 grown 0 p.n_stamps;
    p.stamps <- grown
  end;
  p.stamps.(p.n_stamps) <- p.t_end;
  p.n_stamps <- p.n_stamps + 1;
  p.minor_end <- Gc.minor_words ();
  p.events_end <- Sim.events_executed sim;
  p.top_heap_words <- (Gc.quick_stat ()).Gc.top_heap_words

let is_vblade_queue k = String.starts_with ~prefix:"vblade.queue|" k

(* [ports] are the storage tier's fabric ports; [metrics], when live,
   supplies the vblade queue gauges (read only in traced runs, so the
   untraced timed window carries no registry walks). *)
let start p sim ~ports ~metrics =
  let sample_vblades = Metrics.enabled metrics in
  let (_cancel : unit -> unit) =
    Sim.every sim tick (fun () ->
        if not p.stopped then begin
          p.pending_peak <- max p.pending_peak (Sim.pending sim);
          List.iter
            (fun port ->
              p.port_queue_peak <-
                max p.port_queue_peak (Fabric.port_queue_depth port))
            ports;
          if sample_vblades then
            p.vblade_queue_peak <-
              Metrics.fold ~filter:is_vblade_queue metrics
                (fun _ v acc -> Float.max acc (Metrics.scalar v))
                p.vblade_queue_peak;
          mark_end p sim
        end)
  in
  p.events_start <- Sim.events_executed sim;
  p.minor_start <- Gc.minor_words ();
  p.t_start <- Unix.gettimeofday ();
  mark_end p sim

(* Close the timed window now (cassandra_deploy ends it at devirt; the
   fleet workloads let the last sample close it). *)
let stop p sim =
  if not p.stopped then begin
    mark_end p sim;
    p.stopped <- true
  end

let wall_s p = p.t_end -. p.t_start

(* Host seconds of each tick of the timed window; they sum to [wall_s]. *)
let tick_s p =
  Array.init (max 0 (p.n_stamps - 1)) (fun i -> p.stamps.(i + 1) -. p.stamps.(i))
let events p = p.events_end - p.events_start

let minor_words_per_event p =
  (p.minor_end -. p.minor_start) /. float_of_int (max 1 (events p))

(* The process's high-water mark up to the end of the timed window, so
   post-run verification does not count. *)
let peak_heap_mb p = float_of_int (p.top_heap_words * (Sys.word_size / 8)) /. 1048576.0
