#!/usr/bin/env python3
"""The datacite benchmark: a real datacite_server process under one
workload's traffic, measured from outside through its wire protocol.

    python3 perfbench/run.py --workload landing|lookup|curate --seed N \
        --seconds S --trace 0|1 [--repeat K]

Run from the repository root.  One run:

1. builds bin/datacite_server.exe and perfbench/pb.exe with dune;
2. generates the workload's GtoPdb dataset from the seed (CSV +
   schema.spec + the paper's views as views.spec);
3. starts the server SETUP_SPAWNS times and keeps the last one, timing
   each start from spawn to "listening" (setup_s is the median);
4. drives it for S seconds from one closed-loop load generator;
5. curate only: SIGKILLs the server, restarts it on the same data
   directory RECOVERY_SPAWNS times (recovery_s is the median) and checks
   that the head and every acknowledged version survived;
6. checks every distinct answer against the in-process engine;
7. with --trace 1, replays the same stream in-process through each
   layer's public calls (pb trace) and reports per-layer numbers.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics (end-to-end metrics with
--trace 0, per-layer metrics with --trace 1).  --repeat K instead runs
seeds N..N+K-1 and prints each end-to-end metric's median, quartiles and
(Q3-Q1)/median.  Everything is written under .perfbench/ in the
current directory.
"""

import argparse
import json
import os
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import time

sys.dont_write_bytecode = True

WORKLOADS = ("landing", "lookup", "curate")
SETUP_SPAWNS = 9
RECOVERY_SPAWNS = 3
SERVER = os.path.join("_build", "default", "bin", "datacite_server.exe")
PB = os.path.join("_build", "default", "perfbench", "pb.exe")
WORK = ".perfbench"

# Metrics the benchmark prints by name; the first five are reported on
# every workload (BENCHMARK.json's end_to_end), the rest only where the
# workload sends the operation they time.
E2E = [
    ("setup_s", "s"),
    ("cite_rps", "1/s"),
    ("cite_p50_ms", "ms"),
    ("cite_p99_ms", "ms"),
    ("server_peak_rss_mb", "MB"),
    ("commit_rps", "1/s"),
    ("commit_p50_ms", "ms"),
    ("commit_p99_ms", "ms"),
    ("recovery_s", "s"),
    ("wal_bytes_per_commit", "B"),
    ("error_rate", "ratio"),
]
GATED = ["setup_s", "cite_rps", "cite_p50_ms", "cite_p99_ms", "server_peak_rss_mb"]


class BenchError(Exception):
    pass


def nproc():
    return len(os.sched_getaffinity(0))


# landing is CPU-bound and keeps every server domain busy; lookup's point
# cites are round-trip bound, so one connection keeps the load generator,
# the reactor and the serving domain within the cores; curate has one
# writer and one reader.
CONNECTIONS = {"landing": nproc(), "lookup": 1, "curate": 2}


def env():
    e = dict(os.environ)
    # keep every byproduct inside the checkout
    e["DUNE_CACHE"] = "disabled"
    tmp = os.path.abspath(os.path.join(WORK, "tmp"))
    os.makedirs(tmp, exist_ok=True)
    e["TMPDIR"] = tmp
    return e


def check_layout():
    for f in ("dune-project", os.path.join("bin", "datacite_server.ml"),
              os.path.join("perfbench", "dune")):
        if not os.path.exists(f):
            raise BenchError(f"{f} not found: run from the root of a datacite checkout")


def build():
    r = subprocess.run(["dune", "build", "--root", ".", "./bin/datacite_server.exe",
                        "./perfbench/pb.exe"], env=env(), capture_output=True, text=True)
    if r.returncode != 0:
        raise BenchError("build failed:\n" + r.stderr)


def pb(*args, timeout=600):
    r = subprocess.run([PB, *map(str, args)], env=env(), capture_output=True,
                       text=True, timeout=timeout)
    if r.returncode != 0:
        raise BenchError(f"pb {args[0]} failed:\n{r.stderr}")
    return r.stdout


# ---------------------------------------------------------------------------
# The server process

class Server:
    def __init__(self, data, log, data_dir=None):
        args = [SERVER, "--data", data, "--views", os.path.join(data, "views.spec"),
                "--port", "0", "--domains", str(nproc())]
        if data_dir is not None:
            args += ["--data-dir", data_dir, "--fsync", "always"]
        t0 = time.monotonic()
        self.proc = subprocess.Popen(args, stdout=subprocess.PIPE, stderr=open(log, "ab"),
                                     env=env(), text=True)
        line = self.proc.stdout.readline()
        self.setup_s = time.monotonic() - t0
        if "listening on" not in line:
            self.proc.kill()
            self.proc.wait()
            raise BenchError(f"server did not start ({line.strip()!r}); see {log}")
        self.port = int(line.split(":")[1].split()[0])

    def peak_rss_mb(self):
        with open(f"/proc/{self.proc.pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise BenchError("VmHWM not found")

    def stop(self, sig=signal.SIGTERM):
        if self.proc.poll() is None:
            self.proc.send_signal(sig)
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def ask(port, lines):
    """Send request lines one at a time; return the answers."""
    with socket.create_connection(("127.0.0.1", port)) as s:
        f = s.makefile("rw")
        out = []
        for line in lines:
            f.write(line + "\n")
            f.flush()
            out.append(f.readline().rstrip("\n"))
        return out


# ---------------------------------------------------------------------------
# Measurement

def pct(sorted_values, p):
    """Nearest-rank percentile."""
    if not sorted_values:
        return float("nan")
    k = max(0, min(len(sorted_values) - 1, int(round(p / 100.0 * len(sorted_values) + 0.5)) - 1))
    return sorted_values[k]


def read_outcome(path):
    out = {}
    with open(path) as f:
        for line in f:
            k, v = line.rstrip("\n").split(" ", 1)
            out[k] = v
    return out


def read_samples(path):
    """Latencies by class (cite, commit, other), and (client, server)
    latency pairs by the finer request kind."""
    by_class, by_kind = {}, {}
    with open(path) as f:
        for line in f:
            cls, _t, ms, kind, server_ms = line.rstrip("\n").split("\t")
            by_class.setdefault(cls, []).append(float(ms))
            by_kind.setdefault(kind, []).append((float(ms), float(server_ms)))
    for v in by_class.values():
        v.sort()
    return by_class, by_kind


def check_answers(run_dir, workload, seed, acked):
    """Compare every distinct answer with the in-process engine's; returns
    (wrong answer count, expected digests by version, first mismatch)."""
    pairs = os.path.join(run_dir, "pairs.tsv")
    expected = os.path.join(run_dir, "expected.tsv")
    pb("expect", "--workload", workload, "--seed", seed, "--data",
       os.path.join(run_dir, "data"), "--pairs", pairs, "--acked", acked, "--out", expected)
    want, digests = {}, {}
    with open(expected) as f:
        for line in f:
            parts = line.rstrip("\n").split("\t")
            if parts[0] == "E":
                want[(parts[1], parts[2])] = json.loads(parts[3])
            else:
                digests[int(parts[1])] = parts[2]
    wrong, example = 0, None
    with open(pairs) as f:
        for line in f:
            req, rest = line.rstrip("\n").split("\t", 1)
            resp, count = rest.rsplit("\t", 1)
            got = json.loads(resp)
            kind = "reg" if got.get("from_registration") else "fresh"
            exp = dict(want.get((req, kind), {}))
            exp.pop("ms", None)
            if got != exp:
                wrong += int(count)
                example = example or (req, resp, json.dumps(exp))
    return wrong, digests, example


def run_once(workload, seed, seconds, trace):
    # one directory per workload: a run replaces the previous run's files
    run_dir = os.path.join(WORK, workload)
    shutil.rmtree(run_dir, ignore_errors=True)
    data = os.path.join(run_dir, "data")
    os.makedirs(data)
    log = os.path.join(run_dir, "server.log")
    pb("prepare", "--workload", workload, "--seed", seed, "--out", data)
    curate = workload == "curate"

    def spawn(i):
        d = os.path.join(run_dir, f"store{i}") if curate else None
        return Server(data, log, d)

    setups, server = [], None
    for i in range(SETUP_SPAWNS):
        server = spawn(i)
        setups.append(server.setup_s)
        if i < SETUP_SPAWNS - 1:
            server.stop()
    store = os.path.join(run_dir, f"store{SETUP_SPAWNS - 1}")
    servers = [server]
    try:
        connections = CONNECTIONS[workload]
        pb("load", "--workload", workload, "--seed", seed, "--port", server.port,
           "--seconds", seconds, "--connections", connections, "--out", run_dir,
           timeout=seconds + 300)
        out = read_outcome(os.path.join(run_dir, "outcome.txt"))
        stats = json.loads(ask(server.port, ["STATS"])[0])["stats"] if trace else None
        rss = server.peak_rss_mb()
        acked = int(out.get("acked", 0))
        wrong, digests, example = check_answers(run_dir, workload, seed, acked)
        recoveries, lost = [], 0
        if curate:
            server.stop(signal.SIGKILL)
            wal_bytes = os.path.getsize(os.path.join(store, "wal.log"))
            shutil.copytree(store, os.path.join(run_dir, "store-killed"))
            for i in range(RECOVERY_SPAWNS):
                if i:
                    server.stop(signal.SIGKILL)
                server = Server(data, log, store)
                servers.append(server)
                recoveries.append(server.setup_s)
            # every acknowledged version is still there, with the digest
            # the run saw (or, if never cited, the in-process one)
            head = json.loads(ask(server.port, ["V2 VERSIONS"])[0]).get("head")
            lost += abs(acked - head) if isinstance(head, int) else acked
            verify = [f"V2 VERIFY {v} {out.get(f'digest_{v}', digests[v])}"
                      for v in range(acked + 1)]
            for line in ask(server.port, verify):
                if '"valid":true' not in line:
                    lost += 1
    finally:
        for s in servers:
            s.stop()

    samples, by_kind = read_samples(os.path.join(run_dir, "samples.tsv"))
    cites = samples.get("cite", [])
    elapsed = float(out["elapsed_s"])
    attempted = int(out["sent"])
    failed = sum(int(out[k]) for k in ("err", "busy", "malformed", "wrong", "dropped")) \
        + wrong + lost
    m = {
        "setup_s": statistics.median(setups),
        "cite_rps": len(cites) / elapsed,
        "cite_p50_ms": pct(cites, 50),
        "cite_p99_ms": pct(cites, 99),
        "server_peak_rss_mb": rss,
        "error_rate": failed / max(1, attempted),
    }
    if curate:
        commits = samples.get("commit", [])
        m.update({
            # the writer is paced, so its rate is taken over the time it
            # spent waiting for acknowledgements
            "commit_rps": len(commits) / (sum(commits) / 1000.0),
            "commit_p50_ms": pct(commits, 50),
            "commit_p99_ms": pct(commits, 99),
            "recovery_s": statistics.median(recoveries),
            "wal_bytes_per_commit": wal_bytes / max(1, acked),
        })
    info = {
        "run_dir": run_dir, "attempted": attempted, "failed": failed,
        "wrong": wrong, "lost": lost, "example": example, "cite_samples": len(cites),
        "commit_samples": len(samples.get("commit", [])), "acked": acked,
        "counts": {k: int(out[k]) for k in ("ok", "err", "busy", "malformed", "wrong", "dropped")},
        "stats": stats, "by_kind": by_kind,
        "versions_head_ahead": int(out.get("versions_head_ahead", 0)),
    }
    with open(os.path.join(run_dir, "failed.tsv")) as f:
        first = f.readline().rstrip("\n")
        if first:
            info["example"] = info["example"] or tuple(first.split("\t", 1)) + ("",)
    return m, info


# ---------------------------------------------------------------------------
# Reporting

def print_e2e(workload, m, info):
    print(f"workload {workload}: {info['attempted']} requests, {info['failed']} failed "
          f"(ok {info['counts']['ok']}, err {info['counts']['err']}, busy "
          f"{info['counts']['busy']}, malformed {info['counts']['malformed']}, dropped "
          f"{info['counts']['dropped']}, wrong {info['counts']['wrong'] + info['wrong']}, "
          f"lost commits {info['lost']}); {info['cite_samples']} cite and "
          f"{info['commit_samples']} commit samples")
    if info["versions_head_ahead"]:
        print(f"  {info['versions_head_ahead']} VERSIONS answers gave a head newer than "
              "their version list (head and list are read apart)")
    if info["example"]:
        req, got, exp = info["example"]
        print(f"  first failure: {req}\n    got      {got[:300]}\n    expected {exp[:300]}")
    print(f"  {'kind':<14} {'samples':>8} {'p50 ms':>9} {'p99 ms':>9} {'server p50 ms':>14}")
    for kind, pairs in sorted(info["by_kind"].items()):
        client = sorted(c for c, _ in pairs)
        server = sorted(s for _, s in pairs if s >= 0)
        shown = f"{pct(server, 50):14.4g}" if server else f"{'-':>14}"
        print(f"  {kind:<14} {len(pairs):8d} {pct(client, 50):9.4g} {pct(client, 99):9.4g} {shown}")
    for name, unit in E2E:
        v = m.get(name)
        shown = f"{v:.6g}" if v is not None else "n/a (the workload sends no commits)"
        print(f"  {name:<22} {shown:>14} {unit}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--repeat", type=int, default=0)
    a = ap.parse_args()
    try:
        check_layout()
        build()
        if a.repeat:
            return repeat(a)
        m, info = run_once(a.workload, a.seed, a.seconds, a.trace)
        print_e2e(a.workload, m, info)
        if a.trace:
            metrics = trace_metrics(a, m, info)
        else:
            units = dict(E2E)
            metrics = {k: {"value": m[k], "unit": units[k]} for k in GATED}
        correct = info["failed"] == 0
        print(json.dumps({"correct": correct, "attempted": info["attempted"],
                          "failed": info["failed"], "metrics": metrics}))
        return 0 if correct else 1
    except (BenchError, subprocess.TimeoutExpired, OSError) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2


def repeat(a):
    runs = []
    for i in range(a.repeat):
        m, info = run_once(a.workload, a.seed + i, a.seconds, 0)
        print(f"seed {a.seed + i}: " + "  ".join(f"{k}={m[k]:.6g}" for k, _ in E2E if k in m)
              + f"  failed={info['failed']}", flush=True)
        runs.append(m)
    print(f"{a.workload}: {a.repeat} runs, seeds {a.seed}..{a.seed + a.repeat - 1}")
    print(f"  {'metric':<22} {'median':>12} {'q1':>12} {'q3':>12} {'(q3-q1)/median':>15}")
    for name, unit in E2E:
        vals = [r[name] for r in runs if name in r]
        if len(vals) < 2:
            continue
        q1, med, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else float("nan")
        print(f"  {name:<22} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} {spread:>15.4f}  {unit}")
    return 0


# Per-layer metrics: (name, unit, source, end-to-end metrics it should
# move, workloads it should move them on, workloads predicted flat).
# Sources: "span:X" is the p50 of the traced run's X spans, "value:X" the
# p50 of a value it recorded, "calls:X" the calls X stands for;
# "stats:", "ratio:" and "per_op:" read the server's STATS counters.
PER_LAYER = [
    ("server.decode_ms", "ms", "span:server.decode", "cite_p50_ms, cite_rps", "lookup", "landing"),
    ("server.encode_ms", "ms", "span:server.encode", "cite_p50_ms", "lookup", "landing"),
    ("server.response_bytes", "B", "value:server.response_bytes", "cite_p50_ms", "lookup", "landing"),
    ("server.unattributed_ms", "ms", "unattributed", "cite_rps, commit_p50_ms", "lookup, curate", ""),
    ("server.busy_sheds", "count", "stats:server_busy_sheds", "error_rate, cite_p99_ms", "all", ""),
    ("server.queue_depth_max", "count", "stats:server_queue_depth", "error_rate, cite_p99_ms", "all", ""),
    ("cq.parse_ms", "ms", "span:cq.parse", "cite_p50_ms", "lookup", ""),
    ("rewriting.search_ms", "ms", "span:rewriting.search", "cite_p50_ms", "lookup", "landing"),
    ("rewriting.search_calls", "count", "calls:rewriting.search", "cite_p50_ms", "lookup", "landing"),
    ("citation.plan_cache_hit_ratio", "ratio", "ratio:plan_cache_hits:plan_cache_misses", "cite_rps", "lookup", "landing"),
    ("cq.eval_ms", "ms", "span:cq.eval", "cite_p50_ms", "landing", "lookup"),
    ("cq.answer_tuples", "count", "value:cq.answer_tuples", "cite_p50_ms", "landing", "lookup"),
    ("cq.plan_compiles_per_op", "ratio", "per_op:plan_compiles", "cite_p50_ms; commit_p50_ms", "lookup; curate", ""),
    ("cq.eval_plan_hit_ratio", "ratio", "ratio:eval_plan_hits:plan_compiles", "cite_p50_ms; commit_p50_ms", "lookup; curate", ""),
    ("citation.cite_ms", "ms", "span:citation.cite", "cite_p50_ms", "landing, lookup", ""),
    ("citation.construct_ms", "ms", "span:citation.construct", "cite_p50_ms, cite_rps", "landing", "lookup"),
    ("citation.resolve_leaf_ms", "ms", "span:citation.resolve_leaf", "cite_p50_ms", "landing", "lookup"),
    ("citation.resolve_leaf_calls", "count", "calls_per_request:citation.resolve_leaf", "cite_p50_ms", "landing", "lookup"),
    ("citation.leaf_cache_hit_ratio", "ratio", "ratio:leaf_cache_hits:leaf_cache_misses", "cite_p50_ms", "landing", "lookup"),
    ("citation.engine_lock_waits", "count", "stats:engine_lock_waits", "cite_p99_ms", "landing, curate", ""),
    ("citation.materialize_ms", "ms", "span:citation.materialize", "setup_s", "all", ""),
    ("citation.commit_ms", "ms", "span:citation.commit", "commit_p50_ms", "curate", ""),
    ("citation.incremental_ms", "ms", "span:citation.incremental", "commit_p50_ms", "curate", ""),
    ("citation.shard_refresh_ms", "ms", "span:citation.shard_refresh", "commit_p50_ms, cite_p99_ms", "curate", ""),
    ("citation.version_materialize_ms", "ms", "span:citation.version_materialize", "cite_p99_ms", "curate", ""),
    ("citation.version_cache_hit_ratio", "ratio", "write:version_cache_hit_ratio", "cite_p99_ms", "curate", ""),
    ("citation.fixity_digest_ms", "ms", "span:citation.fixity_digest", "cite_p99_ms", "curate", ""),
    ("relational.apply_head_ms", "ms", "span:relational.apply_head", "commit_p50_ms", "curate", ""),
    ("storage.wal_append_ms", "ms", "span:storage.wal_append", "commit_p50_ms, wal_bytes_per_commit", "curate", "landing, lookup"),
    ("storage.fsyncs_per_commit", "ratio", "write:fsyncs_per_commit", "commit_p50_ms, wal_bytes_per_commit", "curate", "landing, lookup"),
    ("storage.recovery_replay_ms", "ms", "span:storage.recovery_replay", "recovery_s", "curate", ""),
    ("storage.replayed_deltas", "count", "value:storage.replayed_deltas", "recovery_s", "curate", ""),
]


def read_layers(path):
    out = {}
    with open(path) as f:
        next(f)
        for line in f:
            name, p50, p99, share, count = line.rstrip("\n").split("\t")
            out[name] = (float(p50), float(p99), float(share), int(count))
    return out


def trace_metrics(a, m, info):
    run_dir = info["run_dir"]
    recovery = []
    if a.workload == "curate":
        for i in range(RECOVERY_SPAWNS):
            d = os.path.join(run_dir, f"trace-recovery{i}")
            shutil.copytree(os.path.join(run_dir, "store-killed"), d)
            recovery.append(d)
    # curate: as many reader ops per commit as the server run made
    reads = round((info["attempted"] - info["acked"]) / max(1, info["acked"]))
    args = ["trace", "--workload", a.workload, "--seed", a.seed, "--data",
            os.path.join(run_dir, "data"), "--seconds", a.seconds,
            "--reads-per-commit", reads, "--out", run_dir]
    if recovery:
        args += ["--recovery", ",".join(recovery)]
    pb(*args, timeout=a.seconds + 300)
    layers = read_layers(os.path.join(run_dir, "layers.tsv"))
    counters = info["stats"]["counters"]
    extra = {k[len("trace."):]: v[0] for k, v in layers.items() if k.startswith("trace.")}
    requests = layers["request"][3]

    def ratio(hits, other):
        h, o = counters[hits], counters[other]
        return h / (h + o) if h + o else 0.0

    def get(src):
        kind, _, arg = src.partition(":")
        if kind == "span" or kind == "value":
            return layers.get(arg, (0.0, 0.0, 0.0, 0))
        if kind == "calls":
            return (float(layers.get(arg, (0, 0, 0, 0))[3]), None, None, None)
        if kind == "calls_per_request":
            return (layers.get(arg, (0, 0, 0, 0))[3] / max(1, requests), None, None, None)
        if kind == "stats":
            return (float(counters[arg]), None, None, None)
        if kind == "ratio":
            h, o = arg.split(":")
            return (ratio(h, o), None, None, None)
        if kind == "per_op":
            return (counters[arg] / max(1, counters["server_requests"]), None, None, None)
        if kind == "write":
            # the server's own counters on curate; the traced write-path
            # probe elsewhere, where the traffic sends no commits
            if a.workload == "curate":
                if arg == "version_cache_hit_ratio":
                    return (ratio("version_cache_hits", "version_cache_misses"), None, None, None)
                return (counters["wal_fsyncs"] / max(1, counters["version_commits"]), None, None, None)
            return (extra[arg], None, None, None)
        if kind == "unattributed":
            return (m["cite_p50_ms"] - extra["inproc_cite_p50_ms"], None, None, None)
        raise BenchError(f"unknown source {src}")

    print(f"traced replay of {a.workload} (seed {a.seed}): {requests} requests, "
          f"{int(extra['commits'])} commits; in-process p50: cite {extra['inproc_cite_p50_ms']:.4g} ms, "
          f"commit {extra['inproc_commit_p50_ms']:.4g} ms")
    covered = sum(layers.get(k, (0, 0, 0, 0))[2] for k in
                  ("relational.apply_head", "storage.wal_append", "citation.incremental"))
    commit_share = layers.get("citation.commit", (0, 0, 0, 0))[2]
    if commit_share:
        print(f"  apply_head + wal_append + incremental, timed beside commit_delta, "
              f"cover {100 * covered / commit_share:.1f}% of it")
    if a.workload == "curate":
        print(f"  commit unattributed (client p50 - in-process p50): "
              f"{m['commit_p50_ms'] - extra['inproc_commit_p50_ms']:.4g} ms")
    print(f"  {'metric':<34} {'p50':>11} {'p99':>11} {'share':>7}  unit   moves (on; flat on)")
    metrics = {}
    for name, unit, src, moves, on, flat in PER_LAYER:
        p50, p99, share, _ = get(src)
        if p50 != p50:  # no sample: the replay made no such call
            p50 = 0.0
        metrics[name] = {"value": p50, "unit": unit}
        p99s = f"{p99:11.4g}" if p99 is not None and p99 == p99 else f"{'':11}"
        shares = f"{100 * share:6.1f}%" if share is not None and share == share else f"{'':7}"
        print(f"  {name:<34} {p50:11.4g} {p99s} {shares}  {unit:<6} {moves} ({on}"
              + (f"; flat on {flat})" if flat else ")"))
    return metrics


if __name__ == "__main__":
    sys.exit(main())
