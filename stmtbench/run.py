#!/usr/bin/env python3
"""Statement-level benchmark of the bagdb executable.

Run from the root of a checkout:

    python3 stmtbench/run.py --workload lookup|analytics|durable \
        --seed N --seconds S --trace 0|1

Builds bin/bagdb.exe and stmtbench/replay.exe with dune, generates the
workload's script from the seed, and runs the script through bagdb with
one closed-loop client (the script) in sessions of one bagdb process
each, until at least --seconds of requests and MIN_SESSIONS sessions
are done.  Every session runs the same script from the same start
state.  A request is the span between two consecutive results on
bagdb's stdout.  The replay (replay.ml) then runs the script once
in-process: it yields the oracle every printed result is checked
against and, with --trace 1, the per-layer metrics.

The last line of stdout is one JSON object: correct, attempted, failed
and metrics (end-to-end with --trace 0, per-layer with --trace 1).
Everything else (scripts, outputs, spans, the stamped record and a
reproduce file) lands in stmtbench/runs/<workload>-seed<N>-trace<T>/.
See stmtbench/README.md.
"""

import argparse
import hashlib
import json
import math
import os
import random
import re
import select
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BAGDB = os.path.join(ROOT, "_build", "default", "bin", "bagdb.exe")
REPLAY = os.path.join(ROOT, "_build", "default", "stmtbench", "replay.exe")

RETAIL = 20000  # orders; bagdb --retail makes max(4, N/10) customers
CUSTOMERS = RETAIL // 10
DAYS = 365
PRODUCTS = ["anvil", "bolt", "cog", "dynamo", "flange", "gasket", "lever",
            "pulley", "rivet", "spring", "washer", "widget"]

# Sessions hold 19 requests (38 durable rounds, whose set-up and exit
# checkpoint cost more), so six sessions give at least 114 requests,
# 11 beyond the p90, and six set-up and shutdown samples.
MIN_SESSIONS = 6
# Limits that keep a run under 180 s: no new session after the cap, every
# session done by the cap plus SESSION_GRACE_S, then the replay.
SESSION_WALL_CAP_S = 100
SESSION_GRACE_S = 20
REPLAY_TIMEOUT_S = 50

RESULT_END = re.compile(rb"^\+[-+]*\+ \((\d+) tuples, \d+ distinct\)$")


def fail(msg, code=2):
    print("stmtbench: " + msg, file=sys.stderr)
    sys.exit(code)


# --- script generation --------------------------------------------------

def mix(rng, n, counts):
    """A shuffled session plan with exactly counts[kind] requests of each
    kind, so the mix, and with it the median's cluster, is the same for
    every seed."""
    plan = [k for k, n in counts.items() for _ in range(n)]
    assert len(plan) == n
    rng.shuffle(plan)
    return plan


def gen_lookup(rng):
    """SQL point lookups, short ranges and key projections on orders."""
    lines = [
        "CREATE INDEX orders_id ON orders (id) USING HASH;",
        "CREATE INDEX orders_day ON orders (day) USING ORDERED;",
        # Marker: its result ends set-up (SQL has no literal relations).
        "SELECT id FROM orders WHERE id = -1;",
    ]
    plan = mix(rng, 19, {"point": 7, "point_key": 4, "range": 3, "day_key": 4, "sys": 1})
    plan.remove("sys")
    plan.insert(len(plan) // 2, "sys")
    for kind in plan:
        k, d = rng.randrange(RETAIL), rng.randrange(DAYS)
        lines.append({
            "point": f"SELECT id, customer, day FROM orders WHERE id = {k};",
            "point_key": f"SELECT customer FROM orders WHERE id = {k};",
            "range": f"SELECT id, customer FROM orders WHERE day >= {d} AND day < {d + 1};",
            "day_key": f"SELECT id FROM orders WHERE day = {d};",
            "sys": "SELECT * FROM sys.statements;",
        }[kind])
    return lines


def gen_analytics(rng):
    """Grouped joins and whole-lineitem aggregates with few groups.

    Join inputs are ranges on both sides so that Eval, the oracle, stays
    tractable (it evaluates a join as a nested loop)."""
    lines = [
        "create index orders_id on orders (%1) using hash;",
        "create index orders_day on orders (%3) using ordered;",
        "?rel[(m:int)]{(1)};",
    ]
    plan = mix(rng, 19, {"cust_orders": 15, "orders_lineitem": 1, "distinct": 1,
                     "by_product": 1, "whole": 1})
    for kind in plan:
        c, d = rng.randrange(CUSTOMERS - 100), rng.randrange(DAYS - 30)
        a = rng.randrange(RETAIL - 200)
        lines.append({
            "cust_orders":
                f"?groupby[%3; CNT(%4)](join[%1 = %5](select[%1 >= {c} and %1 < {c + 100}](customer), "
                f"select[%3 >= {d} and %3 < {d + 30}](orders)));",
            "orders_lineitem":
                f"?groupby[%1; SUM(%2), CNT(%2)](project[%5, %6 * %7](join[%1 = %4]("
                f"select[%1 >= {a} and %1 < {a + 200}](orders), "
                f"select[%1 >= {a} and %1 < {a + 200}](lineitem))));",
            "distinct": f"?unique(project[%2](select[%3 >= {rng.randint(1, 9)}](lineitem)));",
            "by_product":
                f"?groupby[%2; CNT(%1), SUM(%3), MAX(%4)](select[%4 >= {rng.randint(50, 4000) / 100:.2f}]"
                f"(lineitem));",
            "whole": f"?groupby[; CNT(%1), SUM(%3), AVG(%4)](select[%3 <= {rng.randint(1, 9)}](lineitem));",
        }[kind])
    return lines


def gen_durable(rng):
    """Rounds: a scheduler batch of three write transactions (two of them
    on orders, so first-committer-wins may abort one), an auto-commit
    write and a closing point read."""
    lines = [
        "create index orders_id on orders (%1) using hash;",
        "create index orders_day on orders (%3) using ordered;",
        "?rel[(m:int)]{(1)};",
    ]
    for r in range(38):
        a, b, u = (rng.randrange(RETAIL) for _ in range(3))
        new_id = RETAIL + r
        lines += [
            f"begin a := select[%1 = {a}](orders); insert(orders, rel[(id:int, customer:int, day:int)]"
            f"{{({new_id}, {rng.randrange(CUSTOMERS)}, {rng.randrange(DAYS)})}}) end;",
            f"begin b := select[%1 = {b}](lineitem); insert(lineitem, rel[(order_id:int, product:str, "
            f"qty:int, price:float)]{{({b}, '{rng.choice(PRODUCTS)}', {rng.randint(1, 9)}, "
            f"{rng.randint(50, 5000) / 100:.2f})}}) end;",
            f"begin c := select[%1 = {u}](orders); update(orders, select[%1 = {u}](orders), "
            f"[%1, %2, %3 + 1]) end;",
            f"insert(customer, rel[(id:int, segment:str, country:str)]{{({CUSTOMERS + r}, "
            f"'{rng.choice(['gold', 'silver', 'bronze'])}', '{rng.choice(['NL', 'BE', 'DE'])}')}});",
            f"?select[%1 = {new_id if rng.random() < 0.5 else u}](orders);",
        ]
    return lines


WORKLOADS = {
    # name: (generator, bagdb subcommand and script language, --jobs,
    #        operations per request, transactions per request)
    "lookup": (gen_lookup, "sql", 1, 1, 0),
    "analytics": (gen_analytics, "run", os.cpu_count() or 1, 1, 0),
    "durable": (gen_durable, "run", 1, 5, 4),
}


# --- coverage guard -------------------------------------------------------

# The bagdb functions a statement runs through; the guard also follows
# the bin/bagdb.ml functions they call.
LIFECYCLE = ["preload", "with_store", "run_xra", "run_sql", "run_query",
             "exec_statement", "scheduler_batch", "apply_ddl", "apply_create",
             "apply_create_index", "apply_drop_index"]

# Calls replay.ml makes, named as bin/bagdb.ml names them (aliases expanded).
COVERED = {
    "Mxra_workload.Retail.generate", "Mxra_workload.Rng.make",
    "Mxra_obs.Qid.mint", "Mxra_obs.Qid.attr_key", "Expr.to_string",
    "Mxra_obs.Stmt_stats.record", "Mxra_obs.Ash.register", "Mxra_obs.Ash.finish",
    "Mxra_obs.Ash.live", "Mxra_obs.Ash.set_estimate", "Mxra_obs.Ash.with_slot",
    "Mxra_obs.Trace.with_context", "Mxra_obs.Trace.with_span", "Mxra_obs.Trace.add_attr",
    "Mxra_obs.Trace.now_us", "Mxra_engine.Syscat.attach_for", "Mxra_engine.Syscat.env",
    "Mxra_engine.Syscat.is_sys_name", "Mxra_engine.Syscat.check_not_reserved",
    "Mxra_optimizer.Optimizer.optimize_db", "Mxra_engine.Planner.plan",
    "Mxra_engine.Cost.estimate_cardinality", "Mxra_engine.Stats.env_of_database",
    "Typecheck.env_of_database", "Mxra_engine.Exec.run", "Relation.cardinal",
    "Relation.pp_table", "Statement.to_string", "Transaction.make", "Transaction.run",
    "Mxra_storage.Store.commit", "Mxra_storage.Store.absorb_batch",
    "Mxra_storage.Store.checkpoint", "Mxra_storage.Store.open_dir",
    "Mxra_storage.Store.close", "Mxra_storage.Store.database",
    "Mxra_concurrency.Scheduler.run", "Database.create", "Database.create_index",
    "Database.drop_index", "Database.persistent_names",
    "Mxra_xra.Parser.script_of_string", "Mxra_sql.Sql_parser.parse_script",
    "Mxra_sql.Translate.translate",
}

# Calls bagdb makes only off the benchmark's path: other preloads,
# --stats, the metrics command and --trace.
OFF_PATH = {
    "Mxra_workload.Beer.generate", "Mxra_workload.Beer.tiny", "Database.empty",
    "Mxra_obs.Trace.enabled", "Mxra_engine.Exec.run_instrumented",
    "Mxra_engine.Metrics.count", "Mxra_engine.Metrics.counter",
    "Mxra_engine.Metrics.add", "Mxra_engine.Metrics.timer",
    "Mxra_engine.Metrics.add_ms", "Mxra_engine.Metrics.dump",
}

STDLIB = {"Array", "Atomic", "Buffer", "Filename", "Float", "Format", "Fun",
          "Hashtbl", "In_channel", "List", "Option", "Out_channel", "Printf",
          "Seq", "String", "Sys", "Unix"}


def coverage_gaps():
    """Library calls bagdb's statement path makes that the replay does not."""
    src = open(os.path.join(ROOT, "bin", "bagdb.ml"), encoding="utf-8").read()
    aliases = dict(re.findall(r"^module (\w+) = ([\w.]+)$", src, re.M))
    bodies = {}
    for m in re.finditer(r"^let (?:rec )?(\w+)(.*?)(?=^let |^type |^\(\* ---|^open |\Z)", src, re.M | re.S):
        bodies[m.group(1)] = m.group(2)
    seen, todo, calls = set(), list(LIFECYCLE), set()
    while todo:
        name = todo.pop()
        if name in seen or name not in bodies:
            continue
        seen.add(name)
        body = re.sub(r"\(\*.*?\*\)", "", bodies[name], flags=re.S)
        body = re.sub(r":\s*(?:[A-Z]\w*\.)+[a-z_]\w*", "", body)  # type annotations
        body = re.sub(r'"(?:[^"\\]|\\.)*"', '""', body)
        for path, fn in re.findall(r"(?<![\w.])((?:[A-Z]\w*\.)+)([a-z_]\w*)", body):
            head, _, rest = path.partition(".")
            if head in STDLIB:
                continue
            calls.add(aliases.get(head, head) + "." + rest + fn)
        todo += [w for w in re.findall(r"\b[a-z_]\w*\b", body) if w in bodies]
    return sorted(calls - COVERED - OFF_PATH)


# --- running bagdb ------------------------------------------------------------

def split_results(data):
    """bagdb's stdout as a list of printed results (each ends with the
    table's closing rule and tuple count)."""
    out, cur = [], []
    for line in data.split(b"\n"):
        cur.append(line)
        if RESULT_END.match(line):
            out.append(b"\n".join(cur).decode() + "\n")
            cur = []
    return out


def run_session(cmd, env, stderr_path, deadline):
    t_spawn = time.perf_counter()
    with open(stderr_path, "wb") as err:
        p = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=err, cwd=ROOT, env=env)
    fd = p.stdout.fileno()
    data, tail, stamps = bytearray(), b"", []
    try:
        while True:
            left = deadline - time.perf_counter()
            if left <= 0 or not select.select([fd], [], [], left)[0]:
                raise TimeoutError("bagdb did not finish in time")
            chunk = os.read(fd, 1 << 16)
            now = time.perf_counter()
            if not chunk:
                break
            data += chunk
            lines = (tail + chunk).split(b"\n")
            tail = lines.pop()
            stamps += [now for line in lines if RESULT_END.match(line)]
        _, status, usage = os.wait4(p.pid, 0)
        t_exit = time.perf_counter()
        p.returncode = os.waitstatus_to_exitcode(status)
    except BaseException:
        p.kill()
        p.wait()
        raise
    finally:
        p.stdout.close()
    with open(stderr_path, encoding="utf-8", errors="replace") as f:
        stderr = f.read().splitlines()
    return {
        "exit": p.returncode,
        "results": split_results(bytes(data)),
        "stderr": stderr,
        "setup_s": stamps[0] - t_spawn if stamps else math.nan,
        "latencies_ms": [(b - a) * 1000.0 for a, b in zip(stamps, stamps[1:])],
        "request_s": stamps[-1] - stamps[0] if stamps else 0.0,
        "shutdown_s": t_exit - stamps[-1] if stamps else math.nan,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
    }


def columns(header):
    """Column names of a table's header line (padding depends on values)."""
    return [c.strip() for c in header.split("|")[1:-1]]


def table(text):
    """A printed result as (column count, data rows as cells, tuple count
    line).  Column names are left out: bagdb names derived columns after
    the optimized expression (sum_(%4 * %5)), Eval after the original."""
    lines = text.rstrip("\n").split("\n")
    if len(lines) < 4:
        return None
    rows = [[c.strip() for c in l.split("|")[1:-1]] for l in lines[3:-1]]
    return len(columns(lines[1])), rows, lines[-1].rsplit(" (", 1)[-1]


def check_session(s, expected, expected_aborts):
    """Failed operations of one session against the replay's oracle."""
    failed = abs(len(s["results"]) - len(expected))
    for got, want in zip(s["results"], expected):
        if want["kind"] == "text":
            ok = table(got) == table(want["text"])
        else:
            lines = got.split("\n")
            m = RESULT_END.match(lines[-2].encode()) if len(lines) >= 2 else None
            ok = (len(lines) > 1 and columns(lines[1]) == columns(want["header"])
                  and m is not None and int(m.group(1)) == want["rows"])
        failed += 0 if ok else 1
    aborts = [l[len("aborted: "):] for l in s["stderr"] if l.startswith("aborted: ")]
    others = [l for l in s["stderr"] if not l.startswith("aborted: ")]
    failed += sum(1 for a, b in zip(aborts, expected_aborts) if a != b)
    failed += abs(len(aborts) - len(expected_aborts)) + len(others)
    if s["exit"] != 0:
        failed += 1
    return failed


def unit(name):
    """The unit of a per-layer metric, from its name."""
    if name.endswith(("_ms", ".ms")):
        return "ms"
    if name.endswith(("share", "_ratio")):
        return "ratio"
    if name.endswith("_pct"):
        return "%"
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith(".alloc_mw"):
        return "Mwords"
    if name.endswith(("bytes_per_commit", "write_bytes")):
        return "B"
    return "count"


def p90(xs):
    """Nearest-rank 90th percentile."""
    s = sorted(xs)
    return s[max(0, math.ceil(0.9 * len(s)) - 1)]


# --- stamp --------------------------------------------------------------------

def stamp(flush_policy):
    def out(cmd):
        try:
            return subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                  timeout=30).stdout.strip() or "unknown"
        except OSError:
            return "unknown"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        rev = out(["git", "rev-parse", "HEAD"])
    else:
        h = hashlib.sha256()
        for top in ("bin", "lib", "stmtbench", "dune-project"):
            for dirpath, dirnames, files in os.walk(os.path.join(ROOT, top)):
                dirnames[:] = sorted(d for d in dirnames if d != "runs")
                for f in sorted(files):
                    with open(os.path.join(dirpath, f), "rb") as fh:
                        h.update(f.encode() + fh.read())
            if os.path.isfile(os.path.join(ROOT, top)):
                with open(os.path.join(ROOT, top), "rb") as fh:
                    h.update(fh.read())
        rev = "tree-sha256:" + h.hexdigest()[:16]
    return {"nproc": os.cpu_count(), "revision": rev,
            "ocaml": out(["ocamlfind", "ocamlopt", "-version"]),
            "flush_policy": flush_policy}


# --- main -----------------------------------------------------------------------

def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    for need in ("dune-project", os.path.join("bin", "bagdb.ml"), "lib"):
        if not os.path.exists(os.path.join(ROOT, need)):
            fail(f"{need} not found: run from the root of a complete mxra checkout")
    gaps = coverage_gaps()
    if gaps:
        msg = ("the replay skips calls bin/bagdb.ml makes on the statement path: "
               + ", ".join(gaps) + " (update stmtbench/replay.ml and COVERED)")
        if args.trace:
            fail(msg, 3)
        print("stmtbench: WARNING: " + msg, file=sys.stderr)

    env = {k: v for k, v in os.environ.items() if not k.startswith("MXRA_")}
    build = subprocess.run(
        ["dune", "build", "--root", ROOT, "bin/bagdb.exe", "stmtbench/replay.exe"],
        cwd=ROOT, env=dict(env, DUNE_CACHE="disabled"), capture_output=True, text=True)
    if build.returncode != 0:
        fail("build failed:\n" + build.stdout[-4000:] + build.stderr[-4000:], 1)

    gen, subcmd, jobs, ops_per_request, txns_per_request = WORKLOADS[args.workload]
    lang = "sql" if subcmd == "sql" else "xra"
    rng = random.Random(args.seed)
    lines = gen(rng)
    bagdb_seed = rng.randrange(1, 1 << 30)
    durable = args.workload == "durable"

    out = os.path.join(HERE, "runs", f"{args.workload}-seed{args.seed}-trace{args.trace}")
    shutil.rmtree(out, ignore_errors=True)
    os.makedirs(out)
    script = os.path.join(out, "script." + lang)
    with open(script, "w") as f:
        f.write("\n".join(lines) + "\n")
    base = [BAGDB, subcmd, "--retail", str(RETAIL), "--seed", str(bagdb_seed), "--jobs", str(jobs)]
    rel = lambda p: os.path.relpath(p, ROOT)
    with open(os.path.join(out, "reproduce.txt"), "w") as f:
        f.write("# from the checkout root, with every MXRA_* variable unset\n"
                f"python3 stmtbench/run.py --workload {args.workload} --seed {args.seed} "
                f"--seconds {args.seconds:g} --trace {args.trace}\n"
                + " ".join(map(rel, base)) + (" --db <fresh dir>" if durable else "")
                + " " + rel(script) + "\n")

    # --- bagdb sessions: the end-to-end measurement
    t_start = time.perf_counter()
    sessions, request_s = [], 0.0
    while len(sessions) < MIN_SESSIONS or request_s < args.seconds:
        if sessions and time.perf_counter() - t_start > SESSION_WALL_CAP_S:
            break
        i = len(sessions)
        cmd = base + (["--db", os.path.join(out, f"s{i}-db")] if durable else []) + [script]
        try:
            s = run_session(cmd, env, os.path.join(out, f"s{i}.stderr"),
                            t_start + SESSION_WALL_CAP_S + SESSION_GRACE_S)
        except TimeoutError as e:
            fail(str(e), 1)
        with open(os.path.join(out, f"s{i}.stdout"), "w") as f:
            f.write("".join(s["results"]))
        sessions.append(s)
        request_s += s["request_s"]

    # --- the replay: oracle and per-layer metrics
    rcmd = [REPLAY, "--lang", lang, "--retail", str(RETAIL), "--seed", str(bagdb_seed),
            "--jobs", str(jobs), "--script", script, "--out", out]
    if durable:
        rcmd += ["--db", os.path.join(out, "replay-db")]
        for i in range(len(sessions)):
            rcmd += ["--recover", os.path.join(out, f"s{i}-db")]
    if args.trace:
        rcmd.append("--instrument")
    try:
        r = subprocess.run(rcmd, cwd=ROOT, env=env, capture_output=True, text=True,
                           timeout=REPLAY_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("replay timed out", 1)
    if r.returncode != 0:
        fail("replay failed: " + r.stderr[-2000:], 1)
    with open(os.path.join(out, "replay.json")) as f:
        replay = json.load(f)
    for i in range(len(sessions) if durable else 0):
        shutil.rmtree(os.path.join(out, f"s{i}-db"), ignore_errors=True)
    shutil.rmtree(os.path.join(out, "replay-db"), ignore_errors=True)

    # --- correctness
    requests = len(replay["expected"]) - 1
    attempted = sum(len(s["latencies_ms"]) for s in sessions) * ops_per_request
    failed = sum(check_session(s, replay["expected"], replay["aborts"]) for s in sessions)
    bad_recovery = [d["dir"] for d in replay["recovered"] if not d["ok"]]
    failed += len(bad_recovery)
    correct = failed == 0 and requests > 0

    # --- metrics
    lat = [x for s in sessions for x in s["latencies_ms"]]
    if len(lat) - math.ceil(0.9 * len(lat)) < 10:
        print(f"stmtbench: WARNING: only {len(lat)} requests, fewer than 10 beyond p90",
              file=sys.stderr)
    median = lambda key: statistics.median(s[key] for s in sessions)
    e2e = {
        "setup_s": (median("setup_s"), "s"),
        "req_per_s": (len(lat) / request_s if request_s > 0 else 0.0, "1/s"),
        "req_p50_ms": (statistics.median(lat) if lat else 0.0, "ms"),
        "req_p90_ms": (p90(lat) if lat else 0.0, "ms"),
        "peak_rss_mb": (median("peak_rss_mb"), "MB"),
    }
    aborted = sum(1 for s in sessions for l in s["stderr"] if l.startswith("aborted: "))
    txns = sum(len(s["latencies_ms"]) for s in sessions) * txns_per_request
    layers = dict(replay["layers"])
    bagdb_p50 = e2e["req_p50_ms"][0]
    layers["replay_gap_pct"] = (
        100.0 * (statistics.median(replay["req_ms"]) - bagdb_p50) / bagdb_p50
        if bagdb_p50 and replay["req_ms"] else 0.0)
    layers["shutdown_s"] = median("shutdown_s")
    layers["txn_commit_per_s"] = (txns - aborted) / request_s if request_s > 0 else 0.0
    layers["fail_share"] = (aborted + failed) / attempted if attempted else 0.0
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "bagdb_seed": bagdb_seed,
        "stamp": stamp("fsync per group commit and per auto-commit (Vfs.real)"
                       if durable else "none (no store)"),
        "sessions": len(sessions), "requests": len(lat),
        "requests_per_session": requests, "correct": correct,
        "attempted": attempted, "failed": failed, "bad_recovery": bad_recovery,
        "coverage_gaps": gaps,
        "per_session": [{"setup_s": s["setup_s"], "shutdown_s": s["shutdown_s"],
                         "p50_ms": statistics.median(s["latencies_ms"]) if s["latencies_ms"] else None,
                         "peak_rss_mb": s["peak_rss_mb"], "exit": s["exit"]} for s in sessions],
        "end_to_end": {k: v for k, (v, _) in e2e.items()},
        "per_layer": layers,
    }
    with open(os.path.join(out, "record.json"), "w") as f:
        json.dump(record, f, indent=1)
    print("stmtbench: " + json.dumps(record["stamp"]), file=sys.stderr)

    if args.trace:
        metrics = {k: {"value": v, "unit": unit(k)} for k, v in sorted(layers.items())}
    else:
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in e2e.items()}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
