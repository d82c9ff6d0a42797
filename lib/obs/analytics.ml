(* Provisioning analytics: folds a trace stream into per-machine
   boot-stage breakdowns, fleet-wide percentile tables, critical-path
   attribution and SLO evaluation.

   Input convention (see DESIGN.md §10): instrumented subsystems emit
   complete spans in category "boot" whose [name] is a pipeline stage
   and whose args carry [("m", Str machine)]. The stages tile each
   machine's boot timeline sequentially (vmm_init → queue → discover →
   copy → devirt), so per machine the stage durations sum to the boot
   total — the invariant the test suite checks. Spans in other
   categories tagged with both "m" and "stage" args are folded into a
   per-operation table (AoE commands, copy-on-read redirects, chunk
   fetches) without entering the stage pipeline.

   Everything here derives from virtual-time trace events only, so the
   outputs — including [to_json] — are byte-identical across same-seed
   runs. *)

let stage_order = [ "vmm_init"; "queue"; "discover"; "copy"; "devirt" ]

let stage_rank s =
  let rec idx i = function
    | [] -> List.length stage_order
    | x :: _ when String.equal x s -> i
    | _ :: tl -> idx (i + 1) tl
  in
  idx 0 stage_order

let compare_stages a b =
  match compare (stage_rank a) (stage_rank b) with
  | 0 -> String.compare a b
  | c -> c

type machine = {
  mname : string;
  mutable stages : (string * int) list;  (* stage -> total ns, unordered *)
}

type op = {
  okey : string;  (* "cat.name" *)
  hist : Stats.Histogram.t;  (* durations, ms *)
  mutable ototal_ns : int;
}

type t = {
  slo_s : float;
  machines : (string, machine) Hashtbl.t;
  stage_hists : (string, Stats.Histogram.t) Hashtbl.t;  (* ms *)
  ops : (string, op) Hashtbl.t;
}

let create ?(slo_s = 120.0) () =
  { slo_s;
    machines = Hashtbl.create 64;
    stage_hists = Hashtbl.create 8;
    ops = Hashtbl.create 16 }

let ns_to_ms ns = float_of_int ns /. 1e6

let machine t name =
  match Hashtbl.find_opt t.machines name with
  | Some m -> m
  | None ->
    let m = { mname = name; stages = [] } in
    Hashtbl.add t.machines name m;
    m

let stage_hist t stage =
  match Hashtbl.find_opt t.stage_hists stage with
  | Some h -> h
  | None ->
    let h = Stats.Histogram.create () in
    Hashtbl.add t.stage_hists stage h;
    h

let op t key =
  match Hashtbl.find_opt t.ops key with
  | Some o -> o
  | None ->
    let o = { okey = key; hist = Stats.Histogram.create (); ototal_ns = 0 } in
    Hashtbl.add t.ops key o;
    o

let arg_str args k =
  match List.assoc_opt k args with
  | Some (Trace.Str s) -> Some s
  | _ -> None

let add_event t (ev : Trace.event) =
  match ev.Trace.phase with
  | Trace.P_instant | Trace.P_counter -> ()
  | Trace.P_span -> (
    match arg_str ev.Trace.args "m" with
    | None -> ()
    | Some mname ->
      if String.equal ev.Trace.cat "boot" then begin
        let m = machine t mname in
        let stage = ev.Trace.name in
        let prior =
          match List.assoc_opt stage m.stages with Some d -> d | None -> 0
        in
        m.stages <-
          (stage, prior + ev.Trace.dur) :: List.remove_assoc stage m.stages;
        Stats.Histogram.add (stage_hist t stage) (ns_to_ms ev.Trace.dur)
      end
      else
        match arg_str ev.Trace.args "stage" with
        | None -> ()
        | Some _ ->
          let o = op t (ev.Trace.cat ^ "." ^ ev.Trace.name) in
          Stats.Histogram.add o.hist (ns_to_ms ev.Trace.dur);
          o.ototal_ns <- o.ototal_ns + ev.Trace.dur)

let feed t trace = Trace.iter trace (add_event t)

let of_trace ?slo_s trace =
  let t = create ?slo_s () in
  feed t trace;
  t

let machine_count t = Hashtbl.length t.machines

let machine_names t =
  Hashtbl.fold (fun n _ l -> n :: l) t.machines []
  |> List.sort String.compare

let stage_ms t mname =
  match Hashtbl.find_opt t.machines mname with
  | None -> []
  | Some m ->
    List.map (fun (s, ns) -> (s, ns_to_ms ns)) m.stages
    |> List.sort (fun (a, _) (b, _) -> compare_stages a b)

let boot_total_ms t mname =
  match Hashtbl.find_opt t.machines mname with
  | None -> None
  | Some m ->
    Some (ns_to_ms (List.fold_left (fun acc (_, ns) -> acc + ns) 0 m.stages))

(* --- stage percentile table --- *)

type stage_row = {
  stage : string;
  count : int;
  p50_ms : float;
  p90_ms : float;
  p99_ms : float;
  max_ms : float;
}

let stage_rows t =
  Hashtbl.fold
    (fun stage h l ->
      { stage;
        count = Stats.Histogram.count h;
        p50_ms = Stats.Histogram.percentile h 50.0;
        p90_ms = Stats.Histogram.percentile h 90.0;
        p99_ms = Stats.Histogram.percentile h 99.0;
        max_ms = Stats.Histogram.max h }
      :: l)
    t.stage_hists []
  |> List.sort (fun a b -> compare_stages a.stage b.stage)

(* --- critical path: which stage dominated each boot --- *)

let dominant m =
  match
    List.sort
      (fun (sa, da) (sb, db) ->
        match compare db da with 0 -> compare_stages sa sb | c -> c)
      m.stages
  with
  | [] -> None
  | (s, _) :: _ -> Some s

let critical_path t =
  let counts = Hashtbl.create 8 in
  Hashtbl.iter
    (fun _ m ->
      match dominant m with
      | None -> ()
      | Some s ->
        Hashtbl.replace counts s
          (1 + Option.value ~default:0 (Hashtbl.find_opt counts s)))
    t.machines;
  Hashtbl.fold (fun s n l -> (s, n) :: l) counts []
  |> List.sort (fun (sa, na) (sb, nb) ->
         match compare nb na with 0 -> compare_stages sa sb | c -> c)

(* --- SLO evaluation --- *)

type slo = {
  target_s : float;
  boots : int;
  violations : int;
  wasted_ms : float;
      (* provisioning time spent beyond the target, summed over
         violating boots: server-ms the fleet burned past its budget *)
}

let slo t =
  let target_ms = t.slo_s *. 1000.0 in
  let boots = ref 0 and violations = ref 0 and wasted = ref 0.0 in
  Hashtbl.iter
    (fun _ m ->
      incr boots;
      let total =
        ns_to_ms (List.fold_left (fun acc (_, ns) -> acc + ns) 0 m.stages)
      in
      if total > target_ms then begin
        incr violations;
        wasted := !wasted +. (total -. target_ms)
      end)
    t.machines;
  { target_s = t.slo_s;
    boots = !boots;
    violations = !violations;
    wasted_ms = !wasted }

(* --- per-operation table --- *)

type op_row = {
  opname : string;
  ocount : int;
  op50_ms : float;
  op99_ms : float;
  ototal_ms : float;
}

let op_rows t =
  Hashtbl.fold
    (fun _ o l ->
      { opname = o.okey;
        ocount = Stats.Histogram.count o.hist;
        op50_ms = Stats.Histogram.percentile o.hist 50.0;
        op99_ms = Stats.Histogram.percentile o.hist 99.0;
        ototal_ms = ns_to_ms o.ototal_ns }
      :: l)
    t.ops []
  |> List.sort (fun a b -> String.compare a.opname b.opname)

(* --- rendering --- *)

(* Fixed-width decimal rendering: derived from integer virtual time, so
   deterministic (no %g rounding surprises across float paths). *)
let ms b v = Buffer.add_string b (Printf.sprintf "%.3f" v)

let to_text t =
  let b = Buffer.create 2048 in
  Buffer.add_string b
    (Printf.sprintf "boot-stage breakdown (%d machines)\n" (machine_count t));
  Buffer.add_string b
    (Printf.sprintf "  %-10s %8s %12s %12s %12s %12s\n" "stage" "boots"
       "p50_ms" "p90_ms" "p99_ms" "max_ms");
  List.iter
    (fun r ->
      Buffer.add_string b
        (Printf.sprintf "  %-10s %8d %12.3f %12.3f %12.3f %12.3f\n" r.stage
           r.count r.p50_ms r.p90_ms r.p99_ms r.max_ms))
    (stage_rows t);
  Buffer.add_string b "critical path (stage dominating each boot)\n";
  List.iter
    (fun (stage, n) ->
      Buffer.add_string b (Printf.sprintf "  %-10s %8d boots\n" stage n))
    (critical_path t);
  let s = slo t in
  Buffer.add_string b
    (Printf.sprintf
       "slo: target %.1fs, %d/%d boots in violation, wasted %.3f server-ms\n"
       s.target_s s.violations s.boots s.wasted_ms);
  (match op_rows t with
  | [] -> ()
  | ops ->
    Buffer.add_string b "per-operation latency\n";
    Buffer.add_string b
      (Printf.sprintf "  %-24s %10s %12s %12s %14s\n" "op" "count" "p50_ms"
         "p99_ms" "total_ms");
    List.iter
      (fun r ->
        Buffer.add_string b
          (Printf.sprintf "  %-24s %10d %12.3f %12.3f %14.3f\n" r.opname
             r.ocount r.op50_ms r.op99_ms r.ototal_ms))
      ops);
  Buffer.contents b

let to_json t =
  let b = Buffer.create 2048 in
  Buffer.add_string b (Printf.sprintf "{\"machines\":%d" (machine_count t));
  Buffer.add_string b ",\"stages\":[";
  List.iteri
    (fun i r ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b
        (Printf.sprintf "{\"stage\":\"%s\",\"count\":%d,\"p50_ms\":" r.stage
           r.count);
      ms b r.p50_ms;
      Buffer.add_string b ",\"p90_ms\":";
      ms b r.p90_ms;
      Buffer.add_string b ",\"p99_ms\":";
      ms b r.p99_ms;
      Buffer.add_string b ",\"max_ms\":";
      ms b r.max_ms;
      Buffer.add_char b '}')
    (stage_rows t);
  Buffer.add_string b "],\"critical_path\":[";
  List.iteri
    (fun i (stage, n) ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b
        (Printf.sprintf "{\"stage\":\"%s\",\"boots\":%d}" stage n))
    (critical_path t);
  let s = slo t in
  Buffer.add_string b
    (Printf.sprintf
       "],\"slo\":{\"target_s\":%.1f,\"boots\":%d,\"violations\":%d,\"wasted_ms\":"
       s.target_s s.boots s.violations);
  ms b s.wasted_ms;
  Buffer.add_string b "},\"ops\":[";
  List.iteri
    (fun i r ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b
        (Printf.sprintf "{\"op\":\"%s\",\"count\":%d,\"p50_ms\":" r.opname
           r.ocount);
      ms b r.op50_ms;
      Buffer.add_string b ",\"p99_ms\":";
      ms b r.op99_ms;
      Buffer.add_string b ",\"total_ms\":";
      ms b r.ototal_ms;
      Buffer.add_char b '}')
    (op_rows t);
  Buffer.add_string b "]}";
  Buffer.contents b
