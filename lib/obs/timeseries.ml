(* Deterministic in-run time series over the metrics registry.

   A sampler sweep ([sample ~now]) walks [Metrics.iter] in sorted key
   order, collapses every instrument to one float ([Metrics.scalar]),
   and appends (now, value) to that key's series. Storage per key is a
   bounded raw ring plus [tiers - 1] rollup tiers: tier k holds buckets
   that each aggregate [rollup_factor] buckets of tier k-1 (so
   [rollup_factor ** k] raw samples) as {start-time, count, min, sum,
   max}. Memory is O(keys * tiers * capacity) regardless of run length;
   when a ring wraps, the oldest buckets fall off the raw tier first
   while coarser tiers keep a proportionally longer horizon.

   Everything here is driven by the virtual clock and visits keys in
   sorted order, so a fixed seed plus a fixed interval yields
   byte-identical CSV/OpenMetrics exports — the determinism contract
   the tests pin. This module lives below the engine: timestamps are
   raw integer nanoseconds and the recurring sampling job is installed
   by [Sim.create ?timeseries]. *)

let default_interval_ns = 1_000_000_000
let default_capacity = 360
let default_tiers = 3
let default_max_keys = 512
let rollup_factor = 10

type bucket = { bt : int; n : int; lo : float; sum : float; hi : float }

let dummy_bucket = { bt = 0; n = 0; lo = 0.0; sum = 0.0; hi = 0.0 }

type tier = {
  ring : bucket array;
  mutable start : int; (* index of oldest bucket *)
  mutable len : int;
  mutable evicted : int; (* completed buckets dropped off this ring *)
  (* accumulator for the bucket under construction *)
  mutable acc_children : int; (* tier-(k-1) buckets absorbed so far *)
  mutable acc_t : int;
  mutable acc_n : int;
  mutable acc_lo : float;
  mutable acc_sum : float;
  mutable acc_hi : float;
}

type series = {
  skey : string;
  tiers : tier array; (* tier 0 = raw samples *)
  mutable nsamples : int; (* total samples ever recorded *)
  mutable last_t : int;
  mutable last_v : float;
  mutable prev_t : int;
  mutable prev_v : float;
  mutable same_run : int; (* consecutive trailing samples with equal value *)
  mutable first_sweep : int; (* sweep number that created this series *)
}

type t = {
  metrics : Metrics.t;
  interval_ns : int;
  capacity : int;
  ntiers : int;
  max_keys : int;
  filter : string -> bool;
  tbl : (string, series) Hashtbl.t;
  mutable sorted : series array; (* by key; rebuilt when dirty *)
  mutable dirty : bool;
  mutable sweeps : int;
  mutable last_sweep_at : int;
  dropped : (string, unit) Hashtbl.t; (* keys refused by max_keys *)
  mutable subscribers : (now:int -> unit) list; (* reversed *)
}

let create ?(interval_ns = default_interval_ns) ?(capacity = default_capacity)
    ?(tiers = default_tiers) ?(max_keys = default_max_keys)
    ?(filter = fun _ -> true) metrics =
  if interval_ns <= 0 then
    invalid_arg "Timeseries.create: interval_ns must be positive";
  if capacity < rollup_factor then
    invalid_arg "Timeseries.create: capacity must be >= 10";
  if tiers < 1 then invalid_arg "Timeseries.create: tiers must be >= 1";
  if max_keys < 1 then invalid_arg "Timeseries.create: max_keys must be >= 1";
  { metrics;
    interval_ns;
    capacity;
    ntiers = tiers;
    max_keys;
    filter;
    tbl = Hashtbl.create 64;
    sorted = [||];
    dirty = false;
    sweeps = 0;
    last_sweep_at = 0;
    dropped = Hashtbl.create 8;
    subscribers = [] }

let interval_ns t = t.interval_ns
let sweeps t = t.sweeps
let last_sweep_at t = t.last_sweep_at
let nkeys t = Hashtbl.length t.tbl
let dropped_keys t = Hashtbl.length t.dropped
let on_sample t f = t.subscribers <- f :: t.subscribers

let new_tier capacity =
  { ring = Array.make capacity dummy_bucket;
    start = 0;
    len = 0;
    evicted = 0;
    acc_children = 0;
    acc_t = 0;
    acc_n = 0;
    acc_lo = 0.0;
    acc_sum = 0.0;
    acc_hi = 0.0 }

let ring_push t tier b =
  if tier.len < t.capacity then begin
    tier.ring.((tier.start + tier.len) mod t.capacity) <- b;
    tier.len <- tier.len + 1
  end
  else begin
    tier.ring.(tier.start) <- b;
    tier.start <- (tier.start + 1) mod t.capacity;
    tier.evicted <- tier.evicted + 1
  end

(* Push a completed bucket into tier [k]'s ring and absorb it into the
   tier-[k+1] accumulator; every [rollup_factor] children the
   accumulator completes and cascades one level up. *)
let rec feed t s k b =
  ring_push t s.tiers.(k) b;
  if k + 1 < t.ntiers then begin
    let up = s.tiers.(k + 1) in
    if up.acc_children = 0 then begin
      up.acc_t <- b.bt;
      up.acc_lo <- b.lo;
      up.acc_hi <- b.hi
    end
    else begin
      if b.lo < up.acc_lo then up.acc_lo <- b.lo;
      if b.hi > up.acc_hi then up.acc_hi <- b.hi
    end;
    up.acc_children <- up.acc_children + 1;
    up.acc_n <- up.acc_n + b.n;
    up.acc_sum <- up.acc_sum +. b.sum;
    if up.acc_children = rollup_factor then begin
      let done_b =
        { bt = up.acc_t;
          n = up.acc_n;
          lo = up.acc_lo;
          sum = up.acc_sum;
          hi = up.acc_hi }
      in
      up.acc_children <- 0;
      up.acc_n <- 0;
      up.acc_sum <- 0.0;
      feed t s (k + 1) done_b
    end
  end

let push t s ~now v =
  if s.nsamples > 0 && v = s.last_v then s.same_run <- s.same_run + 1
  else s.same_run <- 1;
  s.prev_t <- s.last_t;
  s.prev_v <- s.last_v;
  s.last_t <- now;
  s.last_v <- v;
  s.nsamples <- s.nsamples + 1;
  feed t s 0 { bt = now; n = 1; lo = v; sum = v; hi = v }

let new_series t key ~sweep =
  { skey = key;
    tiers = Array.init t.ntiers (fun _ -> new_tier t.capacity);
    nsamples = 0;
    last_t = 0;
    last_v = 0.0;
    prev_t = 0;
    prev_v = 0.0;
    same_run = 0;
    first_sweep = sweep }

let sample t ~now =
  t.sweeps <- t.sweeps + 1;
  t.last_sweep_at <- now;
  Metrics.iter ~filter:t.filter t.metrics (fun key view ->
      let v = Metrics.scalar view in
      match Hashtbl.find_opt t.tbl key with
      | Some s -> push t s ~now v
      | None ->
        if Hashtbl.length t.tbl >= t.max_keys then
          Hashtbl.replace t.dropped key ()
        else begin
          let s = new_series t key ~sweep:t.sweeps in
          Hashtbl.replace t.tbl key s;
          t.dirty <- true;
          push t s ~now v
        end);
  List.iter (fun f -> f ~now) (List.rev t.subscribers)

let sorted_series t =
  if t.dirty then begin
    let a =
      Array.of_list (Hashtbl.fold (fun _ s acc -> s :: acc) t.tbl [])
    in
    Array.sort (fun a b -> compare a.skey b.skey) a;
    t.sorted <- a;
    t.dirty <- false
  end;
  t.sorted

let keys t =
  Array.to_list (Array.map (fun s -> s.skey) (sorted_series t))

(* --- reads (watchdog / dashboard) --- *)

type status = {
  s_count : int;
  s_last : int * float;
  s_prev : (int * float) option;
  s_same_run : int;
  s_first_sweep : int;
}

let status t key =
  match Hashtbl.find_opt t.tbl key with
  | None -> None
  | Some s when s.nsamples = 0 -> None
  | Some s ->
    Some
      { s_count = s.nsamples;
        s_last = (s.last_t, s.last_v);
        s_prev = (if s.nsamples >= 2 then Some (s.prev_t, s.prev_v) else None);
        s_same_run = s.same_run;
        s_first_sweep = s.first_sweep }

let iter_tier f tier =
  for i = 0 to tier.len - 1 do
    f tier.ring.((tier.start + i) mod Array.length tier.ring)
  done

let raw ?n t key =
  match Hashtbl.find_opt t.tbl key with
  | None -> []
  | Some s ->
    let tier = s.tiers.(0) in
    let want = match n with None -> tier.len | Some n -> min n tier.len in
    let cap = Array.length tier.ring in
    let rec build i acc =
      if i < tier.len - want then acc
      else
        let b = tier.ring.((tier.start + i) mod cap) in
        build (i - 1) ((b.bt, b.sum) :: acc)
    in
    build (tier.len - 1) []

(* --- exports --- *)

let fmt_float v =
  if Float.is_nan v then "nan"
  else if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.9g" v

let csv_header = "key,tier,t_ns,count,min,mean,max\n"

let to_csv t =
  let b = Buffer.create 8192 in
  Buffer.add_string b
    (Printf.sprintf "# bmcast-timeseries v1 interval_ns=%d sweeps=%d keys=%d\n"
       t.interval_ns t.sweeps (Hashtbl.length t.tbl));
  Buffer.add_string b csv_header;
  Array.iter
    (fun s ->
      Array.iteri
        (fun k tier ->
          iter_tier
            (fun bk ->
              Buffer.add_string b s.skey;
              Buffer.add_char b ',';
              Buffer.add_string b (string_of_int k);
              Buffer.add_char b ',';
              Buffer.add_string b (string_of_int bk.bt);
              Buffer.add_char b ',';
              Buffer.add_string b (string_of_int bk.n);
              Buffer.add_char b ',';
              Buffer.add_string b (fmt_float bk.lo);
              Buffer.add_char b ',';
              Buffer.add_string b (fmt_float (bk.sum /. float_of_int bk.n));
              Buffer.add_char b ',';
              Buffer.add_string b (fmt_float bk.hi);
              Buffer.add_char b '\n')
            tier)
        s.tiers)
    (sorted_series t);
  Buffer.contents b

(* OpenMetrics text exposition: one gauge sample per key (the latest
   sweep's value), metric names sanitized to [a-zA-Z0-9_:], labels
   recovered from the [|k=v] key suffixes. Everything is exported as a
   gauge — the registry snapshot is a point-in-time scrape, and
   OpenMetrics counters would force a [_total] suffix rename. *)

let sanitize_name name =
  String.map
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | ':' -> c
      | _ -> '_')
    name

let split_key key =
  match String.index_opt key '|' with
  | None -> (key, [])
  | Some i ->
    let name = String.sub key 0 i in
    let rest = String.sub key (i + 1) (String.length key - i - 1) in
    let labels =
      List.filter_map
        (fun part ->
          match String.index_opt part '=' with
          | None -> None
          | Some j ->
            Some
              ( String.sub part 0 j,
                String.sub part (j + 1) (String.length part - j - 1) ))
        (String.split_on_char '|' rest)
    in
    (name, labels)

let escape_label_value v =
  let b = Buffer.create (String.length v) in
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string b "\\\\"
      | '"' -> Buffer.add_string b "\\\""
      | '\n' -> Buffer.add_string b "\\n"
      | c -> Buffer.add_char b c)
    v;
  Buffer.contents b

let to_openmetrics t =
  let b = Buffer.create 4096 in
  let last_name = ref "" in
  Array.iter
    (fun s ->
      if s.nsamples > 0 then begin
        let name, labels = split_key s.skey in
        let om_name = "bmcast_" ^ sanitize_name name in
        if om_name <> !last_name then begin
          Buffer.add_string b (Printf.sprintf "# TYPE %s gauge\n" om_name);
          last_name := om_name
        end;
        Buffer.add_string b om_name;
        (match labels with
        | [] -> ()
        | labels ->
          Buffer.add_char b '{';
          List.iteri
            (fun i (k, v) ->
              if i > 0 then Buffer.add_char b ',';
              Buffer.add_string b (sanitize_name k);
              Buffer.add_string b "=\"";
              Buffer.add_string b (escape_label_value v);
              Buffer.add_char b '"')
            labels;
          Buffer.add_char b '}');
        Buffer.add_char b ' ';
        Buffer.add_string b (fmt_float s.last_v);
        Buffer.add_char b ' ';
        Buffer.add_string b
          (Printf.sprintf "%.9f" (float_of_int s.last_t /. 1e9));
        Buffer.add_char b '\n'
      end)
    (sorted_series t);
  Buffer.add_string b "# EOF\n";
  Buffer.contents b

let write_csv t path =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_csv t))

let write_openmetrics t path =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_openmetrics t))
