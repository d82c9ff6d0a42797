(* One benchmark step per process, driven by run.py:

     bench.exe setup WORKLOAD SIM_SEED BATCHES   set-up timings per batch
     bench.exe run WORKLOAD SIM_SEED TRACED VERIFY   one full run (0|1 flags)
     bench.exe calibrate ROUNDS   host-speed rounds (see calibrate.ml)

   Each prints notes, then one JSON object as its last line. A process
   per timed run keeps [peak_heap_mb] a per-run high-water mark. *)

let json_float f =
  if Float.is_finite f then Printf.sprintf "%.17g" f else "null"

let json_obj kvs =
  "{"
  ^ String.concat ","
      (List.map (fun (k, v) -> Printf.sprintf "%S:%s" k (json_float v)) kvs)
  ^ "}"

let json_strings l = "[" ^ String.concat "," (List.map (Printf.sprintf "%S") l) ^ "]"

let usage () =
  prerr_endline
    "usage: bench.exe (setup WORKLOAD SEED BATCHES | run WORKLOAD SEED TRACED VERIFY \
     | calibrate ROUNDS)";
  exit 2

let spec_of name =
  match Workload.find name with
  | Some s -> s
  | None ->
    prerr_endline ("unknown workload: " ^ name);
    exit 2

let () =
  match Array.to_list Sys.argv with
  | [ _; "setup"; name; seed; batches ] ->
    let spec = spec_of name in
    let seed = int_of_string seed in
    (* One set-up takes tens of microseconds, a few ticks of the host
       clock; each timing is the mean over a batch that spans several
       minor collections. An untimed first batch grows the heap to its
       steady size. *)
    let batch = 256 in
    let time_batch () =
      let t0 = Unix.gettimeofday () in
      for _ = 1 to batch do
        Workload.setup spec ~seed
      done;
      (Unix.gettimeofday () -. t0) /. float_of_int batch
    in
    ignore (time_batch () : float);
    let times = List.init (int_of_string batches) (fun _ -> time_batch ()) in
    Printf.printf "{\"setup_s\":[%s]}\n"
      (String.concat "," (List.map json_float times))
  | [ _; "calibrate"; rounds ] ->
    Printf.printf "{\"cal_s\":[%s]}\n"
      (String.concat "," (List.map json_float (Calibrate.rounds (int_of_string rounds))))
  | [ _; "run"; name; seed; traced; verify ] ->
    let spec = spec_of name in
    let o =
      Workload.run spec ~seed:(int_of_string seed) ~traced:(traced = "1")
        ~verify:(verify = "1")
    in
    List.iter print_endline o.Workload.notes;
    Printf.printf
      "{\"sim\":%s,\"host\":%s,\"tick_ns\":[%s],\"layers\":%s,\"attempted\":%d,\"failed\":%d,\"errors\":%s}\n"
      (json_obj o.Workload.sim)
      (json_obj
         [ ("wall_s", o.Workload.wall_s);
           ("peak_heap_mb", o.Workload.peak_heap_mb);
           ("minor_words_per_event", o.Workload.minor_words_per_event) ])
      (String.concat ","
         (Array.to_list
            (Array.map (fun t -> string_of_int (truncate (t *. 1e9))) o.Workload.tick_s)))
      (json_obj o.Workload.layers) o.Workload.attempted o.Workload.failed
      (json_strings o.Workload.errors)
  | _ -> usage ()
