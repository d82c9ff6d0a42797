(** Deployment admission control for fleet provisioning.

    A scheduler admits concurrent machine deployments against a pool of
    storage servers. Every job starts under its start-time policy
    (release everything at once, in waves of [k] where the next wave
    starts when the previous one fully completes, or staggered by a
    fixed spacing) and runs unadmitted until it calls [admit]: a
    deployment does that at its first storage-tier access, after PXE
    and VMM initialization, so those overlap the wait. Capacity is
    [servers * limit_per_server] admitted jobs; a job past capacity
    waits in [admit] (FIFO). On admission the job is leased to the
    least-loaded server — the pool only hands out a slot when some
    server has one free, so the lease never blocks a second time — and
    it holds the lease until its body returns. *)

type wave_policy =
  | All_at_once
  | Waves of int  (** batch size; next wave gated on the previous *)
  | Stagger of Bmcast_engine.Time.span  (** job [i] released at [i * span] *)

val wave_policy_to_string : wave_policy -> string

val wave_policy_of_string : string -> wave_policy option
(** ["all"], ["waves:<k>"], ["stagger:<ms>"]. *)

type job_stat = {
  name : string;
  server : int option;
      (** pool index of the admission lease; [None] if the job never
          called [admit] *)
  released : Bmcast_engine.Time.t;  (** the start-time policy ran the job *)
  queued : Bmcast_engine.Time.t;
      (** first [admit] call ([finished] if none) *)
  admitted : Bmcast_engine.Time.t;  (** lease granted ([finished] if none) *)
  finished : Bmcast_engine.Time.t;
}

val queue_delay_s : job_stat -> float
(** Time spent waiting in [admit]. *)

val service_s : job_stat -> float
(** Time the job held its lease. *)

type t

val create :
  Bmcast_engine.Sim.t ->
  servers:int ->
  ?limit_per_server:int ->
  ?policy:wave_policy ->
  unit ->
  t
(** Defaults: 4 admitted jobs per server, [All_at_once]. *)

val run : t -> (string * (admit:(unit -> unit) -> unit)) list -> job_stat list
(** [run t jobs] runs every job body under its start-time policy and
    blocks until all complete (process context). Each body receives
    [admit], which blocks until the scheduler leases the job a server
    slot; the job holds it until the body returns. [admit] is
    idempotent, must be called from the job's own process, and raises
    [Invalid_argument] once the body has returned. A body that never
    calls it holds no slot. Stats come back in submission order.
    Raises [Invalid_argument] if called twice. *)

val peak_queue : t -> int
(** High-water mark of jobs waiting in [admit]. *)

val peak_in_service : t -> int
(** High-water mark of admitted jobs, across the pool. *)

val peak_per_server : t -> int array
(** High-water mark of admitted jobs per server; never above
    [limit_per_server]. *)

val admitted_per_server : t -> int array
