(** Deterministic in-run time series over the {!Metrics} registry.

    A sampler sweep scrapes every (filtered) metric key into a bounded
    per-key ring plus multi-resolution rollup tiers: tier 0 holds raw
    samples, tier [k] holds buckets aggregating [10^k] samples as
    {count, min, mean, max}. Memory is capped — O(keys × tiers ×
    capacity) — so the sampler is safe at fleet scale and for
    arbitrarily long runs; when a ring wraps, fine-grained history is
    evicted first while coarser tiers keep a proportionally longer
    horizon.

    {b Determinism contract.} Sampling is driven by the virtual clock
    (a recurring [Sim] job installed via [Sim.create ?timeseries]), and
    every sweep and export visits keys in sorted order. A fixed seed
    plus a fixed [interval_ns] therefore produces byte-identical
    {!to_csv} and {!to_openmetrics} output across runs — tests pin
    this. Timestamps are integer nanoseconds of virtual time; this
    module sits below the engine and never reads wall-clock time. *)

type t

val rollup_factor : int
(** Buckets of tier [k+1] each aggregate this many tier-[k] buckets
    (10). *)

val create :
  ?interval_ns:int ->
  ?capacity:int ->
  ?tiers:int ->
  ?max_keys:int ->
  ?filter:(string -> bool) ->
  Metrics.t ->
  t
(** [create metrics] makes an idle sampler over [metrics].

    - [interval_ns] — intended sampling period (default 1s). The
      sampler does not schedule itself; the engine reads this via
      {!interval_ns} when installing the recurring job.
    - [capacity] — ring size per tier per key (default 360).
    - [tiers] — raw tier + rollup tiers (default 3: raw, ×10, ×100).
    - [max_keys] — cap on distinct keys tracked; keys first seen after
      the cap are counted in {!dropped_keys} but not stored, so one
      per-machine label explosion cannot evict fleet-level series.
    - [filter] — key predicate applied before sampling (and before
      derived gauges are evaluated).

    @raise Invalid_argument on non-positive [interval_ns]/[tiers]/
    [max_keys] or [capacity < 10]. *)

val sample : t -> now:int -> unit
(** Run one sweep at virtual time [now]: scrape the registry, append
    to every tracked series, then invoke {!on_sample} subscribers in
    registration order. Instruments are collapsed to one float per key
    by {!Metrics.scalar} (counter/gauge value, histogram count, rate
    total). *)

val on_sample : t -> (now:int -> unit) -> unit
(** Subscribe to sweep completion (watchdog evaluation, dashboard
    refresh). Subscribers run in registration order. *)

val interval_ns : t -> int

val sweeps : t -> int
(** Number of sweeps run so far. *)

val last_sweep_at : t -> int
(** Virtual time of the most recent sweep; [0] before the first. *)

val nkeys : t -> int
(** Distinct keys currently tracked. *)

val dropped_keys : t -> int
(** Distinct keys refused because of [max_keys]. *)

val keys : t -> string list
(** Tracked keys in ascending order. *)

(** Latest state of one series, as the watchdog engine reads it. *)
type status = {
  s_count : int;  (** samples recorded ever *)
  s_last : int * float;  (** most recent (time, value) *)
  s_prev : (int * float) option;  (** previous sample, when any *)
  s_same_run : int;
      (** length of the trailing run of equal values (≥ 1) *)
  s_first_sweep : int;  (** sweep number that first saw this key *)
}

val status : t -> string -> status option
(** [None] for untracked keys. *)

val raw : ?n:int -> t -> string -> (int * float) list
(** Most recent raw samples (tier 0) oldest-first, at most [n]
    (default: whole ring). *)

val to_csv : t -> string
(** All buckets of all tiers, sorted by key then tier then time:
    [key,tier,t_ns,count,min,mean,max] rows under a [#] metadata line
    and a header row. Partially-filled rollup accumulators are not
    exported. *)

val to_openmetrics : t -> string
(** OpenMetrics text exposition: the latest sample of each key as a
    gauge, names prefixed [bmcast_] and sanitized to [[a-zA-Z0-9_:]],
    labels recovered from [|k=v] key suffixes, timestamps in seconds,
    terminated by [# EOF]. *)

val write_csv : t -> string -> unit
val write_openmetrics : t -> string -> unit

val fmt_float : float -> string
(** The byte-stable float formatting used by the exports (integers
    without a fraction, otherwise [%.9g]); shared with the watchdog's
    alert messages. *)
