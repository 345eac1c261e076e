(* Traced in-process replay of one benchmark script.

   The replay makes the same public library calls, in the same order,
   that run_query, exec_statement, scheduler_batch, apply_ddl,
   run_xra / run_sql and with_store in bin/bagdb.ml make, with bagdb's
   default flags (optimizer on, no --stats, tracing off).  It wraps
   each call in a span of its own, so every layer is timed from outside
   through its public functions.  Work the benchmark adds for itself —
   the Eval oracle, the EXPLAIN-ANALYZE style instrumented run and the
   bookkeeping — runs inside [outside], which stops the span clock and
   keeps its counter deltas out of the request totals.

     replay.exe --lang xra|sql --retail N --jobs J --seed S
                --script FILE --out DIR [--db DIR] [--recover DIR]...
                [--instrument]

   writes DIR/replay.json (expected results, expected aborts, request
   wall times, per-layer metrics, recovery verdicts) and
   DIR/spans.jsonl (one span per line). *)

open Mxra_relational
open Mxra_core
module Xra = Mxra_xra
module Sql = Mxra_sql
module Obs = Mxra_obs
module Trace = Mxra_obs.Trace
module Store = Mxra_storage.Store
module Vfs = Mxra_storage.Vfs
module Scheduler = Mxra_concurrency.Scheduler
module Syscat = Mxra_engine.Syscat
module Exec = Mxra_engine.Exec
module Physical = Mxra_engine.Physical

(* --- clock, counters, spans ------------------------------------------- *)

(* Microseconds spent inside [outside]; the span clock skips them. *)
let paused_us = ref 0.0
let now () = (Unix.gettimeofday () *. 1e6) -. !paused_us

(* Counters the benchmark owns: scheduler outcomes, auto-commits and
   the counting VFS below. *)
let sched_steps = ref 0.0
let sched_conflicts = ref 0.0
let sched_committed = ref 0.0
let sched_attempted = ref 0.0
let auto_committed = ref 0.0
let vfs_writes = ref 0.0
let vfs_bytes = ref 0.0
let vfs_fsyncs = ref 0.0
let store_ref : Store.t option ref = ref None

let assoc0 k l = Option.value ~default:0.0 (List.assoc_opt k l)

let counters : (string * (unit -> float)) list =
  let index k () = assoc0 k (Mxra_ext.Index.telemetry ()) in
  let gc f () = float_of_int (f (Gc.quick_stat ())) in
  let store f () =
    match !store_ref with Some s -> float_of_int (f s) | None -> 0.0
  in
  [
    ("index.builds", index "index.builds");
    ("index.maintained", index "index.maintained");
    ("index.probes", index "index.probes");
    ("index.cache_hits", index "index.cache_hits");
    ("pool.maps", fun () -> assoc0 "pool.maps" (Mxra_ext.Pool.telemetry ()));
    ("gc.minor_collections", gc (fun q -> q.Gc.minor_collections));
    ("gc.major_collections", gc (fun q -> q.Gc.major_collections));
    ("scheduler.steps", fun () -> !sched_steps);
    ("scheduler.conflicts", fun () -> !sched_conflicts);
    ("scheduler.committed", fun () -> !sched_committed);
    ("scheduler.attempted", fun () -> !sched_attempted);
    ("auto.committed", fun () -> !auto_committed);
    ("store.fsyncs", store Store.fsyncs);
    ("store.log_records", store Store.log_records);
    ("vfs.writes", fun () -> !vfs_writes);
    ("vfs.write_bytes", fun () -> !vfs_bytes);
    ("vfs.fsyncs", fun () -> !vfs_fsyncs);
  ]
  @ List.concat_map
      (fun c ->
        let n = Obs.Wait.name c in
        [
          ("wait." ^ n ^ ".count", fun () -> float_of_int (Obs.Wait.count c));
          ("wait." ^ n ^ ".ms", fun () -> Obs.Wait.waited_ms c);
        ])
      Obs.Wait.all

let snapshot () = Array.of_list (List.map (fun (_, f) -> f ()) counters)
let excluded = Array.make (List.length counters) 0.0

let outside f =
  let t0 = Unix.gettimeofday () and c0 = snapshot () in
  Fun.protect f ~finally:(fun () ->
      let c1 = snapshot () in
      Array.iteri (fun i v -> excluded.(i) <- excluded.(i) +. v -. c0.(i)) c1;
      paused_us := !paused_us +. ((Unix.gettimeofday () -. t0) *. 1e6))

(* Results emitted so far.  Request k (k >= 1) runs from result k to
   result k+1; result 1 is the preamble's marker, so everything before
   it is set-up and everything after the last result is shutdown. *)
let results_seen = ref 0
let boundaries = ref []
let c_first = ref [||]
let c_last = ref [||]
let e_first = ref [||]
let e_last = ref [||]

let emit () =
  boundaries := now () :: !boundaries;
  incr results_seen;
  let t0 = Unix.gettimeofday () in
  let c = snapshot () in
  if !results_seen = 1 then begin
    c_first := c;
    e_first := Array.copy excluded
  end;
  c_last := c;
  e_last := Array.copy excluded;
  paused_us := !paused_us +. ((Unix.gettimeofday () -. t0) *. 1e6)

type span = {
  id : int;
  name : string;
  parent : int;
  req : int;
  t0 : float;
  t1 : float;
  words : float;  (** allocated on this domain, children included *)
}

let spans = ref []
let stack = ref []
let next_id = ref 0

let alloc_words () =
  let q = Gc.quick_stat () in
  q.Gc.minor_words +. q.Gc.major_words -. q.Gc.promoted_words

let span name f =
  let id = !next_id in
  incr next_id;
  let parent = match !stack with p :: _ -> p | [] -> -1 in
  let req = !results_seen in
  stack := id :: !stack;
  let w0 = alloc_words () in
  let t0 = now () in
  Fun.protect f ~finally:(fun () ->
      let t1 = now () in
      let words = alloc_words () -. w0 in
      stack := List.tl !stack;
      spans := { id; name; parent; req; t0; t1; words } :: !spans)

let obs f = span "obs" f

(* A Vfs.real that counts and times the store's I/O as child spans. *)
let counting_vfs (base : Vfs.t) =
  let write len f =
    vfs_writes := !vfs_writes +. 1.0;
    vfs_bytes := !vfs_bytes +. float_of_int len;
    span "vfs.write" f
  in
  {
    base with
    Vfs.write_file =
      (fun path data ->
        (* Vfs.real's write_file syncs the file it writes. *)
        vfs_fsyncs := !vfs_fsyncs +. 1.0;
        write (String.length data) (fun () -> base.Vfs.write_file path data));
    open_append =
      (fun path ->
        let h = base.Vfs.open_append path in
        {
          Vfs.h_write =
            (fun s -> write (String.length s) (fun () -> h.Vfs.h_write s));
          h_sync =
            (fun () ->
              vfs_fsyncs := !vfs_fsyncs +. 1.0;
              span "vfs.fsync" h.Vfs.h_sync);
          h_close = h.Vfs.h_close;
        });
  }

(* --- oracle and instrumentation ---------------------------------------- *)

type expected =
  | Text of string  (** the result as bagdb prints it, from Eval *)
  | Catalog of string * int  (** header line and row count of a sys.* result *)

let expected = ref []
let aborts = ref []
let instrument = ref false

let table r = Format.asprintf "%a@." Relation.pp_table r

(* Counts over the queries of the request phase. *)
let planned = ref 0
let index_planned = ref 0
let examined = ref 0
let returned = ref 0

let op_kinds =
  [ "SeqScan"; "IndexScan"; "IndexNestedLoopJoin"; "Filter"; "Project";
    "HashJoin"; "HashAggregate"; "HashDistinct"; "Exchange" ]

let op_ms = Hashtbl.create 16
let op_rows = Hashtbl.create 16
let add tbl k v =
  Hashtbl.replace tbl k (v +. Option.value ~default:0.0 (Hashtbl.find_opt tbl k))

let rec uses_index p =
  (match Physical.kind p with
  | "IndexScan" | "IndexNestedLoopJoin" -> true
  | _ -> false)
  || List.exists uses_index (Physical.children p)

let rec feed (r : Exec.report) =
  let kind = Physical.kind r.Exec.node in
  let children_ms =
    List.fold_left (fun acc c -> acc +. c.Exec.actual.Exec.wall_ms) 0.0 r.Exec.inputs
  in
  add op_ms kind (Float.max 0.0 (r.Exec.actual.Exec.wall_ms -. children_ms));
  add op_rows kind (float_of_int r.Exec.actual.Exec.out_rows);
  (match kind with
  | "SeqScan" | "IndexScan" | "IndexNestedLoopJoin" | "ConstScan" ->
      examined := !examined + r.Exec.actual.Exec.out_rows
  | _ -> ());
  List.iter feed r.Exec.inputs

(* Runs inside [outside], after the result is emitted.  [db] is the
   state the statement ran on, [e] the statement's own expression. *)
let check_query ~req db adb e plan r =
  expected :=
    (if Syscat.mentions e then
       let header =
         match String.split_on_char '\n' (table r) with
         | _ :: h :: _ -> h
         | _ -> ""
       in
       Catalog (header, Relation.cardinal r)
     else Text (table (Eval.eval db e)))
    :: !expected;
  if req >= 1 then begin
    incr planned;
    if uses_index plan then incr index_planned;
    if !instrument then begin
      let a = Exec.run_instrumented adb plan in
      returned := !returned + Relation.cardinal a.Exec.result;
      feed a.Exec.root
    end
  end

(* --- the replayed lifecycle (mirrors bin/bagdb.ml) ---------------------- *)

type ctx = {
  seed : int;
  isolation : Scheduler.isolation;
  jobs : int;
  store : Store.t option;
}

(* Returns the oracle check, which the caller runs [outside] once the
   statement has left the activity registry. *)
let run_query ctx ~lang db e =
  let req = !results_seen in
  let qid = obs Obs.Qid.mint in
  let text = obs (fun () -> Expr.to_string e) in
  let record ~rows ~wall_ms () =
    obs (fun () -> Obs.Stmt_stats.record ~lang ~qid ~rows ~wall_ms text)
  in
  let slot = obs (fun () -> Obs.Ash.register ~lang ~text ~qid ()) in
  Fun.protect ~finally:(fun () -> obs (fun () -> Obs.Ash.finish slot))
  @@ fun () ->
  Trace.with_context [ (Obs.Qid.attr_key, Trace.Str qid) ] @@ fun () ->
  Trace.with_span "query"
    ~attrs:[ ("lang", Trace.Str lang); ("text", Trace.Str text) ]
    (fun () ->
      let adb = span "syscat" (fun () -> Syscat.attach_for db e) in
      let oe =
        span "optimizer" (fun () -> Mxra_optimizer.Optimizer.optimize_db adb e)
      in
      let plan =
        span "planner" (fun () -> Mxra_engine.Planner.plan ~jobs:ctx.jobs adb oe)
      in
      if Obs.Ash.live slot then
        span "estimate" (fun () ->
            try
              Obs.Ash.set_estimate slot
                (Mxra_engine.Cost.estimate_cardinality
                   ~stats:(Mxra_engine.Stats.env_of_database adb)
                   ~schemas:(Typecheck.env_of_database adb)
                   oe)
            with _ -> ());
      Obs.Ash.with_slot slot @@ fun () ->
      let t0 = Trace.now_us () in
      let r = span "exec" (fun () -> Exec.run adb plan) in
      record ~rows:(Relation.cardinal r)
        ~wall_ms:((Trace.now_us () -. t0) /. 1000.0)
        ();
      Trace.add_attr "rows" (Trace.Int (Relation.cardinal r));
      ignore (span "print" (fun () -> table r));
      emit ();
      fun () -> check_query ~req db adb e plan r)

let exec_statement ctx db stmt =
  match stmt with
  | Statement.Query e ->
      outside (run_query ctx ~lang:"xra" db e);
      db
  | Statement.Insert (name, _) | Statement.Delete (name, _)
  | Statement.Update (name, _, _) | Statement.Assign (name, _)
    when Syscat.is_sys_name name ->
      raise (Syscat.Reserved name)
  | Statement.Insert _ | Statement.Delete _ | Statement.Update _
  | Statement.Assign _ ->
      let qid = obs Obs.Qid.mint in
      let slot =
        obs (fun () ->
            Obs.Ash.register ~lang:"xra" ~text:(Statement.to_string stmt) ~qid ())
      in
      Fun.protect ~finally:(fun () -> obs (fun () -> Obs.Ash.finish slot))
      @@ fun () ->
      Trace.with_context [ (Obs.Qid.attr_key, Trace.Str qid) ] @@ fun () ->
      Trace.with_span "statement"
        ~attrs:[ ("text", Trace.Str (Statement.to_string stmt)) ]
        (fun () ->
          let t0 = Trace.now_us () in
          let txn = Transaction.make [ stmt ] in
          let outcome =
            span "store.commit" (fun () ->
                match ctx.store with
                | Some s -> Store.commit ~qid s txn
                | None -> Transaction.run db txn)
          in
          obs (fun () ->
              Obs.Stmt_stats.record ~qid
                ~wall_ms:((Trace.now_us () -. t0) /. 1000.0)
                (Statement.to_string stmt));
          match outcome with
          | Transaction.Committed { state; _ } ->
              auto_committed := !auto_committed +. 1.0;
              state
          | Transaction.Aborted { state; reason } ->
              aborts := reason :: !aborts;
              state)

let apply_ddl ctx db' =
  (match ctx.store with
  | Some s ->
      span "store.absorb" (fun () -> Store.absorb_batch s [] db');
      span "store.checkpoint" (fun () -> Store.checkpoint s)
  | None -> ());
  db'

let apply_create ctx db name schema =
  Syscat.check_not_reserved name;
  apply_ddl ctx (span "ddl" (fun () -> Database.create name schema db))

let apply_create_index ctx db (d : Database.index_def) =
  Syscat.check_not_reserved d.idx_name;
  Syscat.check_not_reserved d.idx_rel;
  apply_ddl ctx
    (span "ddl" (fun () ->
         Database.create_index ~name:d.idx_name ~rel:d.idx_rel ~cols:d.idx_cols
           ~kind:d.idx_kind db))

let apply_drop_index ctx db name =
  apply_ddl ctx (span "ddl" (fun () -> Database.drop_index name db))

let scheduler_batch ctx db programs =
  let txns =
    List.mapi
      (fun i p -> Transaction.make ~name:(Printf.sprintf "txn-%d" (i + 1)) p)
      programs
  in
  let r =
    span "scheduler" (fun () ->
        Scheduler.run ~isolation:ctx.isolation ~seed:ctx.seed db txns)
  in
  let st = r.Scheduler.stats in
  sched_steps := !sched_steps +. float_of_int st.Scheduler.steps;
  sched_conflicts := !sched_conflicts +. float_of_int st.Scheduler.conflicts;
  sched_attempted := !sched_attempted +. float_of_int (List.length txns);
  sched_committed :=
    !sched_committed +. float_of_int (List.length r.Scheduler.commit_order);
  List.iter2
    (fun outcome outputs ->
      match outcome with
      | Scheduler.Committed ->
          List.iter
            (fun o ->
              let text = span "print" (fun () -> table o) in
              emit ();
              (* A transaction's output is read from its own snapshot,
                 which Eval cannot see; the replay's text stands in. *)
              expected := Text text :: !expected)
            outputs
      | Scheduler.Aborted reason -> aborts := reason :: !aborts)
    r.Scheduler.outcomes r.Scheduler.outputs;
  Option.iter
    (fun s ->
      let arr = Array.of_list txns in
      let qarr = Array.of_list r.Scheduler.query_ids in
      span "store.absorb" (fun () ->
          Store.absorb_batch s
            ~qids:(List.map (Array.get qarr) r.Scheduler.commit_order)
            (List.map (Array.get arr) r.Scheduler.commit_order)
            r.Scheduler.final))
    ctx.store;
  r.Scheduler.final

let run_xra ctx db path =
  let source = In_channel.with_open_text path In_channel.input_all in
  let rec go db = function
    | [] -> db
    | Xra.Parser.Cmd_transaction _ :: _ as cmds ->
        let rec split acc = function
          | Xra.Parser.Cmd_transaction p :: rest -> split (p :: acc) rest
          | rest -> (List.rev acc, rest)
        in
        let programs, rest = split [] cmds in
        go (scheduler_batch ctx db programs) rest
    | Xra.Parser.Cmd_statement stmt :: rest -> go (exec_statement ctx db stmt) rest
    | Xra.Parser.Cmd_create (name, schema) :: rest ->
        go (apply_create ctx db name schema) rest
    | Xra.Parser.Cmd_create_index d :: rest -> go (apply_create_index ctx db d) rest
    | Xra.Parser.Cmd_drop_index name :: rest -> go (apply_drop_index ctx db name) rest
  in
  go db (span "parse" (fun () -> Xra.Parser.script_of_string source))

let run_sql ctx db path =
  let source = In_channel.with_open_text path In_channel.input_all in
  let step db ast =
    let env = span "syscat" (fun () -> Syscat.env db) in
    match span "parse" (fun () -> Sql.Translate.translate env ast) with
    | Sql.Translate.Query e ->
        outside (run_query ctx ~lang:"sql" db e);
        db
    | Sql.Translate.Statement stmt -> exec_statement ctx db stmt
    | Sql.Translate.Create (name, schema) -> apply_create ctx db name schema
    | Sql.Translate.Create_index d -> apply_create_index ctx db d
    | Sql.Translate.Drop_index name -> apply_drop_index ctx db name
  in
  List.fold_left step db
    (span "parse" (fun () -> Sql.Sql_parser.parse_script source))

let preload retail =
  span "preload" (fun () ->
      Mxra_workload.Retail.generate
        ~rng:(Mxra_workload.Rng.make 42)
        ~customers:(max 4 (retail / 10))
        ~orders:retail ())

(* with_store: open (recovering), seed an empty store with the preload,
   run, checkpoint on the way out.  Returns the final state. *)
let with_store db_dir preloaded f =
  match db_dir with
  | None -> f None preloaded
  | Some dir ->
      let s =
        span "store.open" (fun () -> Store.open_dir ~vfs:(counting_vfs Vfs.real) dir)
      in
      store_ref := Some s;
      Fun.protect
        ~finally:(fun () -> Store.close s)
        (fun () ->
          if
            Database.persistent_names (Store.database s) = []
            && Database.persistent_names preloaded <> []
          then span "store.absorb" (fun () -> Store.absorb_batch s [] preloaded);
          ignore (f (Some s) (Store.database s));
          span "store.checkpoint" (fun () -> Store.checkpoint s);
          Store.database s)

(* --- per-layer metrics --------------------------------------------------- *)

let layer_names =
  [ "parse"; "syscat"; "optimizer"; "planner"; "estimate"; "exec"; "print";
    "obs"; "scheduler"; "store.commit"; "store.absorb"; "vfs.write";
    "vfs.fsync" ]

let median l =
  match List.sort compare l with
  | [] -> 0.0
  | s ->
      let n = List.length s in
      if n mod 2 = 1 then List.nth s (n / 2)
      else (List.nth s ((n / 2) - 1) +. List.nth s (n / 2)) /. 2.0

let layer_metrics () =
  let all = List.rev !spans in
  let bounds = Array.of_list (List.rev !boundaries) in
  let nreq = Array.length bounds - 1 in
  let req_ms =
    List.init (max 0 nreq) (fun k -> (bounds.(k + 1) -. bounds.(k)) /. 1000.0)
  in
  let wall_ms = List.fold_left ( +. ) 0.0 req_ms in
  let per_req x = if nreq > 0 then x /. float_of_int nreq else 0.0 in
  let ratio a b = if b > 0.0 then a /. b else 0.0 in
  (* self time and self allocation: minus the direct children *)
  let child_ms = Hashtbl.create 256 and child_w = Hashtbl.create 256 in
  List.iter
    (fun s ->
      if s.parent >= 0 then begin
        add child_ms s.parent (s.t1 -. s.t0);
        add child_w s.parent s.words
      end)
    all;
  let self_ms = Hashtbl.create 32 and self_w = Hashtbl.create 32 in
  let in_requests s = s.req >= 1 && s.req <= nreq in
  List.iter
    (fun s ->
      if in_requests s then begin
        let get t = Option.value ~default:0.0 (Hashtbl.find_opt t s.id) in
        add self_ms s.name ((s.t1 -. s.t0 -. get child_ms) /. 1000.0);
        add self_w s.name (s.words -. get child_w)
      end)
    all;
  let get t k = Option.value ~default:0.0 (Hashtbl.find_opt t k) in
  let attributed = Hashtbl.fold (fun _ v acc -> acc +. v) self_ms 0.0 in
  let checkpoint_ms =
    List.fold_left
      (fun acc s ->
        if s.name = "store.checkpoint" && s.req > nreq then
          acc +. ((s.t1 -. s.t0) /. 1000.0)
        else acc)
      0.0 all
  in
  let delta =
    let tbl = Hashtbl.create 64 in
    if nreq > 0 then
      List.iteri
        (fun i (name, _) ->
          Hashtbl.replace tbl name
            (!c_last.(i) -. !c_first.(i) -. (!e_last.(i) -. !e_first.(i))))
        counters;
    fun name -> get tbl name
  in
  let commits = delta "scheduler.committed" +. delta "auto.committed" in
  let alloc names =
    per_req (List.fold_left (fun acc n -> acc +. get self_w n) 0.0 names) /. 1e6
  in
  let times =
    List.concat_map
      (fun l ->
        [ (l ^ ".ms", per_req (get self_ms l));
          (l ^ ".share", ratio (get self_ms l) wall_ms) ])
      layer_names
  in
  let allocs =
    List.map
      (fun (l, names) -> (l ^ ".alloc_mw", alloc names))
      [ ("parse", [ "parse" ]); ("optimizer", [ "optimizer" ]);
        ("planner", [ "planner" ]); ("estimate", [ "estimate" ]);
        ("exec", [ "exec" ]); ("scheduler", [ "scheduler" ]);
        ("store", [ "store.commit"; "store.absorb" ]) ]
  in
  let ops =
    List.concat_map
      (fun k ->
        [ ("exec.op." ^ k ^ ".self_ms", per_req (get op_ms k));
          ("exec.op." ^ k ^ ".rows", per_req (get op_rows k)) ])
      op_kinds
  in
  let counts =
    List.map
      (fun n -> (n, per_req (delta n)))
      [ "index.probes"; "index.builds"; "index.maintained"; "pool.maps";
        "scheduler.steps"; "scheduler.conflicts"; "store.fsyncs";
        "store.log_records"; "vfs.writes"; "vfs.write_bytes";
        "gc.minor_collections"; "gc.major_collections" ]
    @ List.concat_map
        (fun c ->
          let n = "wait." ^ Obs.Wait.name c in
          [ (n ^ ".count", per_req (delta (n ^ ".count")));
            (n ^ ".ms", per_req (delta (n ^ ".ms"))) ])
        Obs.Wait.all
  in
  let metrics =
    times @ allocs @ ops @ counts
    @ [
        ("store.checkpoint.ms", checkpoint_ms);
        ( "planner.index_path_share",
          ratio (float_of_int !index_planned) (float_of_int !planned) );
        ( "exec.rows_examined_per_row",
          ratio (float_of_int !examined) (float_of_int !returned) );
        ( "index.cache_hit_ratio",
          ratio (delta "index.cache_hits")
            (delta "index.cache_hits" +. delta "index.builds") );
        ( "scheduler.commit_ratio",
          ratio (delta "scheduler.committed") (delta "scheduler.attempted") );
        ("vfs.fsyncs_per_commit", ratio (delta "vfs.fsyncs") commits);
        ("vfs.bytes_per_commit", ratio (delta "vfs.write_bytes") commits);
        ("stmt.wall_ms", median req_ms);
        ("unattributed.share", ratio (wall_ms -. attributed) wall_ms);
      ]
  in
  (req_ms, metrics)

(* --- output -------------------------------------------------------------- *)

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 -> Printf.bprintf b "\\u%04x" (Char.code c)
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let json_float f =
  if Float.is_finite f then Printf.sprintf "%.17g" f else "null"

let json_list f l = "[" ^ String.concat ", " (List.map f l) ^ "]"

let write_spans path =
  Out_channel.with_open_text path (fun oc ->
      List.iter
        (fun s ->
          Printf.fprintf oc
            "{\"id\": %d, \"name\": %s, \"parent\": %d, \"req\": %d, \
             \"start_us\": %s, \"end_us\": %s, \"alloc_words\": %s}\n"
            s.id (json_string s.name) s.parent s.req (json_float s.t0)
            (json_float s.t1) (json_float s.words))
        (List.rev !spans))

let write_report path ~req_ms ~metrics ~recovered =
  let expected_json = function
    | Text t -> Printf.sprintf "{\"kind\": \"text\", \"text\": %s}" (json_string t)
    | Catalog (h, n) ->
        Printf.sprintf "{\"kind\": \"sys\", \"header\": %s, \"rows\": %d}"
          (json_string h) n
  in
  Out_channel.with_open_text path (fun oc ->
      Printf.fprintf oc
        "{\"expected\": %s,\n \"aborts\": %s,\n \"req_ms\": %s,\n \
         \"recovered\": %s,\n \"layers\": {%s}}\n"
        (json_list expected_json (List.rev !expected))
        (json_list json_string (List.rev !aborts))
        (json_list json_float req_ms)
        (json_list
           (fun (d, ok) ->
             Printf.sprintf "{\"dir\": %s, \"ok\": %b}" (json_string d) ok)
           recovered)
        (String.concat ", "
           (List.map
              (fun (k, v) -> Printf.sprintf "%s: %s" (json_string k) (json_float v))
              metrics)))

(* --- main ------------------------------------------------------------------ *)

let () =
  let lang = ref "xra" and retail = ref 0 and jobs = ref 1 and seed = ref 42 in
  let script = ref "" and out = ref "" and db = ref None and recover = ref [] in
  Arg.parse
    [
      ("--lang", Arg.Set_string lang, "xra|sql");
      ("--retail", Arg.Set_int retail, "orders to preload");
      ("--jobs", Arg.Set_int jobs, "domains, as bagdb --jobs");
      ("--seed", Arg.Set_int seed, "scheduler seed, as bagdb --seed");
      ("--script", Arg.Set_string script, "script to replay");
      ("--out", Arg.Set_string out, "output directory");
      ("--db", Arg.String (fun d -> db := Some d), "fresh store directory");
      ("--recover", Arg.String (fun d -> recover := d :: !recover),
       "store directory of a bagdb run to check against the replay's state");
      ("--instrument", Arg.Set instrument, "per-operator figures");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "replay.exe --lang xra|sql --script FILE --out DIR [options]";
  if !script = "" || !out = "" then begin
    prerr_endline "replay: --script and --out are required";
    exit 2
  end;
  (* What bagdb's main and script_cmd do before running a script. *)
  Syscat.set_probe "sys.locks" Scheduler.telemetry;
  Trace.set_sinks [];
  Mxra_ext.Pool.set_default_size !jobs;
  let runner = if !lang = "sql" then run_sql else run_xra in
  let final =
    with_store !db (preload !retail) (fun store db0 ->
        let ctx =
          {
            seed = !seed;
            isolation = Scheduler.default_isolation ();
            jobs = !jobs;
            store;
          }
        in
        runner ctx db0 !script)
  in
  Trace.close ();
  let req_ms, metrics = layer_metrics () in
  let same a b =
    Database.equal_states a b
    && List.sort compare (Database.index_defs a)
       = List.sort compare (Database.index_defs b)
  in
  let recovered =
    List.rev_map (fun d -> (d, same (Store.recover_dir d) final)) !recover
  in
  write_spans (Filename.concat !out "spans.jsonl");
  write_report (Filename.concat !out "replay.json") ~req_ms ~metrics ~recovered
