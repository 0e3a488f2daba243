#!/usr/bin/env python3
"""End-to-end benchmark of relmax through `relmax query`, `relmax select`
and `relmax serve`.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run it from the repository root. It builds `relmax` and the `perfbench`
helper from source (into $CARGO_TARGET_DIR, default `.bench_build`),
generates the workload's inputs from the seed (cached under
`.bench_inputs/`), measures, checks every output, and prints one JSON
object as its last stdout line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

`--trace 0` reports the end-to-end metrics, measured with tracing off.
`--trace 1` makes the separate traced run and reports the per-layer
metrics. A full report (host, every metric, every check) is written to
`.bench_out/`. See perfbench/README.md for the workloads and metrics.
"""

import argparse
import hashlib
import http.client
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))
BUILD = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))
CACHE = os.path.join(ROOT, ".bench_inputs")
OUT = os.path.join(ROOT, ".bench_out")
RELMAX = os.path.join(BUILD, "release", "relmax")
HELPER = os.path.join(BUILD, "release", "perfbench")

# Workload parameters; BENCHMARK.json says why each workload exists.
WORKLOADS = {
    "query-local": {"samples": 2000},
    "query-wide": {"samples": 1000},
    "select-be": {"samples": 1000, "k": 10, "r": 100, "l": 30},
    "serve-mixed": {"samples": 256, "threads": 2, "compact_after": 64, "conns": 2},
}

# Metric names and units come from BENCHMARK.json at the repository root.
with open(os.path.join(ROOT, "BENCHMARK.json")) as _f:
    _SPEC = json.load(_f)
END_TO_END = [(m["name"], m["unit"]) for m in _SPEC["end_to_end"]]
PER_LAYER = [(m["name"], m["unit"]) for m in _SPEC["per_layer"]]

SETUP_PROBES = 7

# The per-layer metrics each workload measures: exact names, or prefixes
# ending in "."; the others read 0 for that workload.
_QUERY_LAYERS = ("load.open_s", "load.snapshot_mb", "load.resident_mb", "index.", "plan.", "sample.",
                 "render.", "config.", "trace.")
LAYERS = {
    "query-local": _QUERY_LAYERS,
    "query-wide": _QUERY_LAYERS,
    "select-be": ("load.open_s", "load.snapshot_mb", "load.thaw_s", "select.", "render.s", "trace."),
    "serve-mixed": ("load.open_s", "load.snapshot_mb", "load.resident_mb", "index.build_s", "index.supernodes",
                    "index.components", "index.short_circuits", "index.short_circuit_ratio", "plan.",
                    "sample.s", "sample.st_s", "sample.hops_s", "sample.from_s", "sample.topk_s",
                    "sample.set_s", "render.", "serve.", "delta.", "trace."),
}

# The correctness checks each workload must make, untraced and traced. A
# check whose operation failed first is listed as unverified instead.
_QUERY = {"probe_answers", "all_queries_answered", "bytes_repeat_across_runs"}
_SELECT = {"probe_answers", "selection_within_budget", "bytes_repeat_across_runs"}
_SERVE = {"probe_generation1_equals_cli", "probe_compacted_equals_cli", "no_wrong_bytes"}
_QUERY_TRACED = {"probe_answers", "config_scalar_bytes_equal_default", "config_no_index_kernels_agree",
                 "traced_bytes_equal_cli", "scalar_bytes_equal_packed", "no_index_values_equal_index"}
EXPECTED_CHECKS = {
    "query-local": (_QUERY, _QUERY_TRACED),
    "query-wide": (_QUERY, _QUERY_TRACED),
    "select-be": (_SELECT, _SELECT | {"traced_bytes_equal_cli"}),
    "serve-mixed": (_SERVE, _SERVE | {"replay_bytes_equal_server"}),
}


def log(msg):
    print(msg, file=sys.stderr, flush=True)


class Failure(Exception):
    """The benchmark cannot produce a result (build, input or harness error)."""


# ---------------------------------------------------------------- processes

def run_proc(args, out_path, env=None):
    """Run one process to completion with stdout in `out_path`; return
    (wall_s, maxrss_mb, exit_code, stdout_bytes). The peak RSS is the
    child's own, from wait4."""
    with open(out_path, "wb") as out, open(out_path + ".err", "wb") as err:
        t0 = time.perf_counter()
        p = subprocess.Popen(args, stdout=out, stderr=err, env=env)
        _, status, ru = os.wait4(p.pid, 0)
        wall = time.perf_counter() - t0
    p.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path, "rb") as f:
        data = f.read()
    if p.returncode != 0:
        with open(out_path + ".err", "rb") as f:
            tail = f.read()[-400:].decode(errors="replace")
        log(f"[bench] {os.path.basename(args[0])} {args[1]} exited {p.returncode}: {tail}")
    return wall, ru.ru_maxrss / 1024.0, p.returncode, data


def helper(*args):
    out = os.path.join(OUT, f"helper-{os.getpid()}.out")
    _, _, status, data = run_proc([HELPER, *args], out)
    os.remove(out)
    os.remove(out + ".err")
    if status != 0:
        raise Failure(f"perfbench {args[0]} failed")
    return data.decode()


# -------------------------------------------------------------------- build

def build():
    if not os.path.isfile(os.path.join(ROOT, "crates", "cli", "Cargo.toml")):
        raise Failure("run from the root of a relmax checkout (crates/cli is missing)")
    env = dict(os.environ, CARGO_TARGET_DIR=BUILD)
    for cmd in (
        ["cargo", "build", "--release", "--quiet", "-p", "relmax-cli"],
        ["cargo", "build", "--release", "--quiet", "--manifest-path", os.path.join(HERE, "Cargo.toml")],
    ):
        if subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
            raise Failure(f"build failed: {' '.join(cmd)}")


def host_info():
    flags = json.loads(helper("host"))
    commit = "unknown"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        if r.returncode == 0:
            commit = r.stdout.strip()
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "avx512_hash_path": flags["avx512"],
        "mmap": flags["mmap"],
        "git_commit": commit,
    }


# ------------------------------------------------------------------- inputs

def inputs(workload, seed, scale):
    """The workload's input directory, generated once per seed and parameters."""
    h = hashlib.sha256()
    h.update(json.dumps([workload, WORKLOADS[workload], scale]).encode())
    with open(os.path.join(HERE, "src", "prepare.rs"), "rb") as f:
        h.update(f.read())
    d = os.path.join(CACHE, f"{workload}-s{seed}-{h.hexdigest()[:12]}")
    if os.path.isfile(os.path.join(d, "ready")):
        return d
    tmp = d + f".tmp{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(tmp)
    # The graph is the same for every seed: keep one copy, hard-linked (a
    # file system without hard links keeps one copy per seed), and let
    # `prepare` generate it only when no seed has yet.
    graph, shared = os.path.join(tmp, "graph.rgs"), os.path.join(CACHE, f"{workload}-{h.hexdigest()[:12]}.rgs")
    if os.path.exists(shared):
        try:
            os.link(shared, graph)
        except OSError:
            shutil.copyfile(shared, graph)
    helper("prepare", "--workload", workload, "--seed", str(seed), "--scale", str(scale),
           "--dir", tmp, "--relmax", RELMAX)
    if not os.path.exists(shared):
        try:
            os.link(graph, shared)
        except OSError:
            shutil.copyfile(graph, shared)
    open(os.path.join(tmp, "ready"), "w").close()
    shutil.rmtree(d, ignore_errors=True)
    os.rename(tmp, d)
    return d


def count_lines(path):
    with open(path) as f:
        return sum(1 for line in f if line.strip() and not line.startswith(("#", "%")))


# ------------------------------------------------------------------ helpers

def pct(values, q):
    """Nearest-rank percentile (q in 0..100) of a non-empty list."""
    v = sorted(values)
    k = max(0, min(len(v) - 1, int(round(q / 100.0 * len(v) + 0.5)) - 1))
    return v[k]


def parse(data):
    """A JSON object from process output, or {} when it is not one."""
    try:
        obj = json.loads(data)
    except ValueError:
        return {}
    return obj if isinstance(obj, dict) else {}


def results_part(text):
    """The `"results":[...]` array of a query response or CLI output."""
    i = text.find('"results":')
    return text[i + len('"results":'):].rstrip().rstrip("}") if i >= 0 else None


class Tally:
    """Operations attempted and failed, plus named correctness checks."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.checks = {}
        # Checks that could not run because their operation failed first
        # (counted in `failed` instead).
        self.unverified = []

    def ops(self, n, failed=0):
        self.attempted += n
        self.failed += failed

    def check(self, name, ok):
        self.checks[name] = self.checks.get(name, True) and bool(ok)


def keep_going(started, seconds, passes, min_passes):
    """Whether to run another pass: fewer than `min_passes` so far, or one
    more as long as the last would still end `seconds` after `started`."""
    if len(passes) < min_passes:
        return True
    return time.perf_counter() - started + passes[-1] <= seconds


# ------------------------------------------------------- query-* workloads

def query_cmd(d, samples, queries="queries.txt", extra=()):
    return [RELMAX, "query", os.path.join(d, "graph.rgs"), "--queries", os.path.join(d, queries),
            "--samples", str(samples), "--threads", "1", "--format", "json", *extra]


def query_workload(name, d, seconds, trace, tally, work):
    samples = WORKLOADS[name]["samples"]
    lines = count_lines(os.path.join(d, "queries.txt"))
    scratch = os.path.join(work, "out.json")

    started = time.perf_counter()
    setups = []
    for _ in range(SETUP_PROBES):
        wall, _, status, data = run_proc(query_cmd(d, samples, "probe.txt"), scratch)
        tally.ops(1, int(status != 0))
        tally.check("probe_answers", status == 0 and results_part(data.decode()) is not None)
        setups.append(wall)

    if trace:
        return query_traced(name, d, samples, lines, tally, work)

    walls, rsss, first = [], [], None
    while keep_going(started, seconds, walls, 2):
        wall, rss, status, data = run_proc(query_cmd(d, samples), scratch)
        ok = status == 0 and len(parse(data).get("results", ())) == lines
        tally.check("all_queries_answered", ok)
        first = first or data
        tally.check("bytes_repeat_across_runs", data == first)
        ok = ok and data == first
        tally.ops(lines, 0 if ok else lines)
        walls.append(wall)
        rsss.append(rss)
    wall = statistics.median(walls)
    log(f"[bench] {len(walls)} batches: " + " ".join(f"{w:.3f}" for w in walls))
    return {
        "setup_s": statistics.median(setups),
        "wall_s": wall,
        "peak_rss_mb": statistics.median(rsss),
        "throughput_qps": lines / wall,
    }


def query_traced(name, d, samples, lines, tally, work):
    """Config table through the CLI, then the traced in-process run."""
    layers = {}
    outputs = {}
    configs = [
        ("config.default_s", {}, ()),
        ("config.scalar_s", {"RELMAX_KERNEL": "scalar"}, ()),
        ("config.no_index_s", {}, ("--no-index",)),
        ("config.scalar_no_index_s", {"RELMAX_KERNEL": "scalar"}, ("--no-index",)),
    ]
    for key, env, extra in configs:
        path = os.path.join(work, key + ".json")
        wall, _, status, data = run_proc(query_cmd(d, samples, extra=extra), path, env=dict(os.environ, **env))
        tally.ops(lines, 0 if status == 0 else lines)
        layers[key] = wall
        outputs[key] = data
    best = min(layers[k] for k, _, _ in configs)
    layers["config.default_over_best"] = layers["config.default_s"] / best
    tally.check("config_scalar_bytes_equal_default", outputs["config.scalar_s"] == outputs["config.default_s"])
    tally.check("config_no_index_kernels_agree", outputs["config.scalar_no_index_s"] == outputs["config.no_index_s"])

    spans = os.path.join(OUT, f"spans-{name}.jsonl")
    rep = json.loads(helper("trace", "--workload", name, "--dir", d, "--samples", str(samples),
                            "--against", os.path.join(work, "config.default_s.json"), "--spans", spans))
    tally.ops(lines)
    for k, ok in rep["checks"].items():
        tally.check(k, ok)
    layers.update(rep["metrics"])
    log(f"[bench] spans written to {spans}")
    return layers


# --------------------------------------------------------- select workload

def select_cmd(d, s, t):
    p = WORKLOADS["select-be"]
    return [RELMAX, "select", os.path.join(d, "graph.rgs"), "--method", "BE", "--source", str(s),
            "--target", str(t), "-k", str(p["k"]), "--r", str(p["r"]), "--l", str(p["l"]),
            "--samples", str(p["samples"]), "--threads", "1", "--format", "json"]


def select_workload(d, seconds, trace, tally, work):
    with open(os.path.join(d, "pairs.txt")) as f:
        pairs = [tuple(map(int, line.split())) for line in f if line.strip()]
    scratch = os.path.join(work, "out.json")
    started = time.perf_counter()
    setups = []
    v = pairs[0][0]
    for _ in range(SETUP_PROBES):
        wall, _, status, data = run_proc(select_cmd(d, v, v), scratch)
        tally.ops(1, int(status != 0))
        tally.check("probe_answers", status == 0 and parse(data).get("gain") == 0)
        setups.append(wall)

    reps, rsss, first = [], [], {}
    while keep_going(started, seconds, reps, 1 if trace else 2):
        total = 0.0
        for i, (s, t) in enumerate(pairs):
            path = os.path.join(work, f"select-{i}.json")
            wall, rss, status, data = run_proc(select_cmd(d, s, t), path)
            ok = status == 0 and len(parse(data).get("added", range(99))) <= WORKLOADS["select-be"]["k"]
            tally.check("selection_within_budget", ok)
            first.setdefault(i, data)
            tally.check("bytes_repeat_across_runs", data == first[i])
            ok = ok and data == first[i]
            tally.ops(1, int(not ok))
            total += wall
            rsss.append(rss)
        reps.append(total)
        if trace:
            break
    wall = statistics.median(reps)
    if not trace:
        return {
            "setup_s": statistics.median(setups),
            "wall_s": wall,
            "peak_rss_mb": statistics.median(rsss),
            "throughput_qps": len(pairs) / wall,
        }
    spans = os.path.join(OUT, "spans-select-be.jsonl")
    rep = json.loads(helper("trace", "--workload", "select-be", "--dir", d,
                            "--samples", str(WORKLOADS["select-be"]["samples"]),
                            "--against", work, "--spans", spans))
    tally.ops(len(pairs))
    for k, ok in rep["checks"].items():
        tally.check(k, ok)
    layers = rep["metrics"]
    log(f"[bench] spans written to {spans}")
    return layers


# ---------------------------------------------------------- serve workload

def http_call(addr, method, path, body=b"", timeout=60):
    host, port = addr.rsplit(":", 1)
    c = http.client.HTTPConnection(host, int(port), timeout=timeout)
    try:
        c.request(method, path, body=body)
        r = c.getresponse()
        return r.status, r.read().decode()
    except http.client.HTTPException as e:
        raise OSError(f"{method} {path}: {e!r}") from e
    finally:
        c.close()


class Server:
    """One `relmax serve` process over a private copy of the snapshot."""

    def __init__(self, d, work):
        p = WORKLOADS["serve-mixed"]
        self.dir = os.path.join(work, "serve")
        shutil.rmtree(self.dir, ignore_errors=True)
        os.makedirs(self.dir)
        self.graph = os.path.join(self.dir, "graph.rgs")
        shutil.copyfile(os.path.join(d, "graph.rgs"), self.graph)
        self.err = open(os.path.join(self.dir, "serve.err"), "wb")
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            [RELMAX, "serve", self.graph, "--port", "0", "--threads", str(p["threads"]),
             "--samples", str(p["samples"]), "--compact-after", str(p["compact_after"])],
            stdout=subprocess.PIPE, stderr=self.err)
        line = self.proc.stdout.readline().decode()
        if not line.startswith("listening on http://"):
            self.stop()
            raise Failure(f"relmax serve did not start: {line!r}")
        self.addr = line.strip()[len("listening on http://"):]
        while True:
            try:
                if http_call(self.addr, "GET", "/healthz", timeout=5)[0] == 200:
                    break
            except OSError:
                pass
            if time.perf_counter() - t0 > 60:
                self.stop()
                raise Failure("relmax serve never became healthy")
        self.setup_s = time.perf_counter() - t0
        self.rss_mb = 0.0

    def _reap(self, flags):
        """wait4 on the server (reaping keeps its rusage); True once it has exited."""
        if self.proc.returncode is None:
            pid, status, ru = os.wait4(self.proc.pid, flags)
            if pid == 0:
                return False
            self.proc.returncode = os.waitstatus_to_exitcode(status)
            self.rss_mb = ru.ru_maxrss / 1024.0
        return True

    def alive(self):
        return not self._reap(os.WNOHANG)

    def stop(self):
        """Stop the server if it still runs; return its exit code (negative
        for a signal: -15 when stopped here, -7 for a SIGBUS)."""
        if self.alive():
            self.proc.send_signal(signal.SIGTERM)
            self._reap(0)
        self.proc.stdout.close()
        self.err.close()
        return self.proc.returncode


def probe(server, d, snapshot, tally, label):
    """POST the probe body; compare its results with `relmax query` on `snapshot`."""
    with open(os.path.join(d, "probe.txt"), "rb") as f:
        body = f.read()
    try:
        status, text = http_call(server.addr, "POST", "/query", body)
    except OSError:
        status, text = 0, ""
    ok = status == 200
    if not ok:
        tally.unverified.append(f"probe_{label}_equals_cli")
    else:
        samples = WORKLOADS["serve-mixed"]["samples"]
        _, _, st, data = run_proc([RELMAX, "query", snapshot, "--queries", os.path.join(d, "probe.txt"),
                                   "--samples", str(samples), "--threads", "1", "--format", "json"],
                                  os.path.join(server.dir, "probe.json"))
        ok = st == 0 and results_part(data.decode()) == results_part(text)
        tally.check(f"probe_{label}_equals_cli", ok)
    tally.ops(1, int(not ok))
    return ok


def read_metrics(addr):
    try:
        status, text = http_call(addr, "GET", "/metrics", timeout=5)
    except OSError:
        return None
    if status != 200:
        return None
    out = {}
    for line in text.splitlines():
        parts = line.split()
        if len(parts) == 2:
            try:
                out[parts[0]] = float(parts[1])
            except ValueError:
                pass
    return out


class MetricsPoller(threading.Thread):
    """Keeps the last /metrics page readable while a phase runs, so a
    server that dies mid-phase still leaves its final counters behind."""

    def __init__(self, addr):
        super().__init__(daemon=True)
        self.addr, self.last, self.done = addr, read_metrics(addr), threading.Event()

    def run(self):
        while not self.done.wait(0.25):
            m = read_metrics(self.addr)
            if m is None:
                break
            self.last = m

    def finish(self):
        self.done.set()
        self.join()
        return self.last


def client(server, d, phase, work, dump=None):
    out = os.path.join(work, f"{phase}.tsv")
    args = ["client", "--addr", server.addr, "--requests", os.path.join(d, f"{phase}.req"),
            "--conns", str(WORKLOADS["serve-mixed"]["conns"]), "--out", out]
    if dump:
        args += ["--dump", dump]
    summary = json.loads(helper(*args).strip().splitlines()[-1])
    rows = []
    with open(out) as f:
        for line in f:
            i, kind, start, end, status, ok, wrong, lines, gen = line.rstrip("\n").split("\t")
            rows.append({"kind": kind, "ms": (int(end) - int(start)) / 1e6, "ok": ok == "1",
                         "wrong": wrong == "1", "lines": int(lines)})
    return summary, rows


def serve_workload(d, trace, tally, work):
    # Set-up time: spawn until the first /healthz answers 200.
    setups = []
    for _ in range(SETUP_PROBES):
        s = Server(d, work)
        setups.append(s.setup_s)
        s.stop()

    server = Server(d, work)
    try:
        probe(server, d, os.path.join(d, "graph.rgs"), tally, "generation1")
        dump = os.path.join(work, "phase_a.results") if trace else None
        m0 = read_metrics(server.addr)
        sum_a, rows_a = client(server, d, "phase_a", work, dump)
        poller = MetricsPoller(server.addr)
        poller.start()
        sum_b, rows_b = client(server, d, "phase_b", work)
        m2 = poller.finish()
        for rows in (rows_a, rows_b):
            tally.ops(len(rows), sum(1 for r in rows if not r["ok"]))
            tally.check("no_wrong_bytes", not any(r["wrong"] for r in rows))
        # Final manual compaction, then the probe against the compacted file.
        try:
            compacted = http_call(server.addr, "POST", "/compact")[0] == 200
        except OSError:
            compacted = False
        tally.ops(1, int(not compacted))
        if compacted:
            probe(server, d, server.graph + ".compacted.rgs", tally, "compacted")
        else:
            tally.ops(1, 1)
            tally.unverified.append("probe_compacted_equals_cli")
        died = not server.alive()
    finally:
        code = server.stop()
    log(f"[bench] phase A {sum_a['wall_s']:.2f}s, phase B {sum_b['wall_s']:.2f}s, "
        f"{sum_b['failed']} of {sum_b['requests']} phase-B requests failed")
    if died:
        log(f"[bench] relmax serve died during the run (exit {code}); "
            "requests after its death count as failures (see perfbench/README.md)")

    reads_a = [r for r in rows_a if r["ok"]]
    lines_a = sum(r["lines"] for r in rows_a if r["ok"])
    if not trace:
        return {
            "setup_s": statistics.median(setups),
            "wall_s": sum_a["wall_s"],
            "peak_rss_mb": server.rss_mb,
            "throughput_qps": lines_a / sum_a["wall_s"],
        }

    layers = {}

    def delta(key, a, b):
        return (b or {}).get(key, 0.0) - (a or {}).get(key, 0.0)

    layers["serve.queries"] = delta("queries_total", m0, m2)
    layers["serve.samples"] = delta("samples_total", m0, m2)
    layers["serve.coalesced"] = delta("coalesced_queries_total", m0, m2)
    layers["serve.coalesce_ratio"] = layers["serve.coalesced"] / max(1.0, layers["serve.queries"])
    layers["serve.rejected"] = delta("rejected_total", m0, m2)
    layers["serve.updates"] = delta("updates_total", m0, m2)
    layers["serve.compactions"] = delta("compactions_total", m0, m2)
    layers["serve.compaction_failures"] = delta("compaction_failures_total", m0, m2)
    layers["index.short_circuits"] = delta("index_short_circuits_total", m0, m2)
    layers["index.short_circuit_ratio"] = layers["index.short_circuits"] / max(1.0, layers["serve.queries"])
    for kind in ("st4", "topk", "acc"):
        ms = [r["ms"] for r in reads_a if r["kind"] == kind]
        layers[f"serve.{kind}_p50_ms"] = statistics.median(ms) if ms else 0.0
    read_ms = [r["ms"] for r in reads_a]
    write_ms = [r["ms"] for r in rows_b if r["kind"] == "update" and r["ok"]]
    layers["serve.read_p50_ms"] = statistics.median(read_ms) if read_ms else 0.0
    layers["serve.read_p95_ms"] = pct(read_ms, 95) if read_ms else 0.0
    layers["serve.write_p50_ms"] = statistics.median(write_ms) if write_ms else 0.0
    layers["serve.write_p90_ms"] = pct(write_ms, 90) if write_ms else 0.0

    spans = os.path.join(OUT, "spans-serve-mixed.jsonl")
    rep = json.loads(helper("trace", "--workload", "serve-mixed", "--dir", d,
                            "--samples", str(WORKLOADS["serve-mixed"]["samples"]),
                            "--against", dump, "--spans", spans))
    for k, ok in rep["checks"].items():
        tally.check(k, ok)
    layers.update(rep["metrics"])
    layers["serve.overhead_p50_ms"] = layers["serve.read_p50_ms"] - layers["serve.compute_p50_ms"]
    log(f"[bench] spans written to {spans}")
    return layers


# --------------------------------------------------------------------- main

def measure(workload, seed, seconds, trace, scale=1.0):
    build()
    os.makedirs(OUT, exist_ok=True)
    host = host_info()
    log(f"[bench] host: {json.dumps(host)}")
    d = inputs(workload, seed, scale)
    work = os.path.join(OUT, f"work-{workload}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    tally = Tally()
    try:
        if workload in ("query-local", "query-wide"):
            values = query_workload(workload, d, seconds, trace, tally, work)
        elif workload == "select-be":
            values = select_workload(d, seconds, trace, tally, work)
        else:
            values = serve_workload(d, trace, tally, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if not trace:
        values["ok_rate"] = 1.0 - tally.failed / max(1, tally.attempted)
    names = PER_LAYER if trace else END_TO_END
    metrics = {n: {"value": float(values.get(n, 0.0)), "unit": u} for n, u in names}
    correct = bool(tally.checks) and all(tally.checks.values())
    report = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace, "host": host,
              "measured": sorted(values), "checks": tally.checks, "unverified": tally.unverified,
              "correct": correct, "attempted": tally.attempted,
              "failed": tally.failed, "metrics": metrics}
    with open(os.path.join(OUT, f"report-{workload}-s{seed}-t{int(trace)}.json"), "w") as f:
        json.dump(report, f, indent=1)
    for name, ok in sorted(tally.checks.items()):
        log(f"[bench] check {name}: {'ok' if ok else 'FAILED'}")
    for name, m in metrics.items():
        log(f"[bench] {name} = {m['value']:.6g} {m['unit']}")
    return {"correct": correct, "attempted": tally.attempted, "failed": tally.failed, "metrics": metrics}


def self_test():
    """Smoke-scale run of every workload in both modes: fails if a metric
    the workload must measure is missing, or a check failed or was skipped."""
    problems = []
    for workload in WORKLOADS:
        for trace in (0, 1):
            res = measure(workload, 1, 1, trace, scale=0.05)
            report = os.path.join(OUT, f"report-{workload}-s1-t{trace}.json")
            with open(report) as f:
                rep = json.load(f)
            if trace:
                names = {n for n, _ in PER_LAYER
                         if any(n == k or k.endswith(".") and n.startswith(k) for k in LAYERS[workload])}
            else:
                names = {n for n, _ in END_TO_END}
            missing = names - set(rep["measured"])
            checks = rep["checks"]
            if missing:
                problems.append(f"{workload} trace={trace}: missing metrics {sorted(missing)}")
            skipped = EXPECTED_CHECKS[workload][trace] - set(checks) - set(rep["unverified"])
            if skipped:
                problems.append(f"{workload} trace={trace}: checks skipped {sorted(skipped)}")
            failed = sorted(k for k, ok in checks.items() if not ok)
            if failed:
                problems.append(f"{workload} trace={trace}: checks failed {failed}")
            zero = sorted(n for n, m in res["metrics"].items() if not trace and m["value"] <= 0)
            if zero:
                problems.append(f"{workload}: end-to-end metrics at 0 {zero}")
    for p in problems:
        log(f"[self-test] {p}")
    print(json.dumps({"self_test": "failed" if problems else "passed", "problems": problems}))
    return 1 if problems else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=_SPEC["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    a = ap.parse_args()
    try:
        if a.self_test:
            return self_test()
        if not a.workload:
            ap.error("--workload is required")
        result = measure(a.workload, a.seed, a.seconds, bool(a.trace))
    except Failure as e:
        log(f"[bench] error: {e}")
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
