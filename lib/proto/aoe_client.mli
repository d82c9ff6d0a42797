(** AoE initiator with retransmission and fragment reassembly.

    Transport-agnostic: the owner supplies a [send] function (the BMcast
    VMM sends through its polling NIC driver; tests send straight into a
    fabric port) and feeds received frames to {!on_frame}. Reads are
    issued as commands of up to [max_read_sectors]; the target streams
    the response back as MTU-sized fragments which are reassembled by
    the tag/fragment-offset extension. Lost frames are recovered by
    re-sending the whole command (commands are idempotent).

    {b Retransmission timer.} A command is re-sent once it has been
    {e silent} — no response frame since its latest transmission — for
    [RTO × backoff]. The deadline re-arms while fragments are still
    arriving, so a long read streaming in behind a busy port never
    counts as lost. The RTO adapts to the path (Jacobson/Karels): the
    client keeps one smoothed RTT and RTT variance, sampled from the
    first response frame of a command that was never retransmitted
    (Karn's rule), and RTO = max([timeout], SRTT + 4·RTTVAR) — so
    [timeout] is both the initial RTO and its floor. Each expiry doubles
    the backoff for every command of the client, up to 2^6; it persists
    across commands until the next clean sample resets it to 1. *)

type t

val create :
  Bmcast_engine.Sim.t ->
  send:(Aoe.header -> Bmcast_storage.Content.t array -> unit) ->
  ?owner:string ->
  ?mtu:int ->
  ?timeout:Bmcast_engine.Time.span ->
  ?max_read_sectors:int ->
  ?max_retries:int ->
  ?major:int ->
  ?minor:int ->
  unit ->
  t
(** Defaults: MTU 9000, timeout (initial and minimum RTO) 20 ms,
    1024-sector read commands, 10 retries, target 0.0. [owner] is the owning machine's name; when
    set, command spans carry ["m"]/["stage"] args so
    [Bmcast_obs.Analytics] folds them into its per-operation table. *)

val on_frame : t -> Aoe.frame -> unit
(** Feed a received frame (responses to other tags are ignored, so
    multiple clients can share a pipe). *)

exception Timeout of string
(** Raised when a command exhausts its retries (and the escalation hook,
    if any, declines to keep it alive). *)

val set_escalation :
  t -> (attempts:int -> Aoe.header -> [ `Retry | `Fail ]) -> unit
(** Install the retry-escalation policy consulted each time a command
    exceeds [max_retries]: [`Retry] re-sends at the capped exponential
    backoff (so a recovered or failed-over target completes the request
    instead of a {!Timeout} reaching the guest I/O path); [`Fail]
    surfaces {!Timeout} as before. [attempts] counts sends so far for
    this command. Without a hook the historical raise-on-exhaustion
    behaviour is preserved. *)

val escalations : t -> int
(** Times the escalation hook answered [`Retry]. *)

val completions : t -> int
(** Commands that completed (successfully or with a target error).
    Together with {!pending_count} this gives the no-lost /
    no-double-completed accounting the fault invariants check. *)

val pending_count : t -> int
(** Commands currently awaiting a response. *)

exception Target_error of string
(** Raised when the target answers with the AoE error flag (e.g. an
    out-of-range request). *)

val read : t -> lba:int -> count:int -> Bmcast_storage.Content.t array
(** Blocking read (process context). *)

val write : t -> lba:int -> count:int -> Bmcast_storage.Content.t array -> unit
(** Blocking write (process context). *)

val query_capacity : t -> int
(** AoE Query-Config: the target's capacity in sectors (blocking,
    process context). *)

val retransmits : t -> int
val requests_sent : t -> int

val rto : t -> Bmcast_engine.Time.span
(** Current retransmission timeout before backoff: [timeout] until the
    first RTT sample, then max([timeout], SRTT + 4·RTTVAR). *)

val backoff : t -> int
(** Current backoff multiplier, a power of two in \[1, 64\]. *)

val srtt : t -> Bmcast_engine.Time.span option
(** Smoothed RTT, [None] before the first sample. *)

val rtt_samples : t -> int
(** Clean RTT samples taken so far (Karn's rule). *)

val subscribe_mcast :
  t -> (lba:int -> count:int -> Bmcast_storage.Content.t array -> unit) -> unit
(** Install the handler for unsolicited multicast read data (responses
    tagged {!Aoe.mcast_tag}, which can never match a pending command).
    The data array is {e borrowed}: it is shared with every other group
    member, so the handler must copy what it keeps and must never
    release it to the scratch pool. Error or non-read multicast frames
    are dropped before the handler. *)

val mcast_frames : t -> int
(** Multicast data frames delivered to the subscription handler. *)
