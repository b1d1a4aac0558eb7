"""Serving benchmark: one command, one seed, one closed-loop client.

Builds a fixed road graph and a query stream drawn from ``--seed``,
preprocesses the graph, saves the artifact, and warm-starts the
serving stack from it in a separate server process (``server.py``).  One keep-alive HTTP connection then
drives a closed loop for ``--seconds``; every answer is checked against
SciPy's Dijkstra on the input graph after the timed window.

Run from the repository root::

    python3 perfbench/run.py --workload road-hot --seed 1 --seconds 15 --trace 0

Request times, server CPU and set-up time are scaled to the host's
fast speed state by a probe timed between requests (``probe_host``;
README.md, "Host speed"); the diagnostics line keeps them as measured.
``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the
workload untraced and then again on a server whose layers are timed
from outside (``tracer.py``), and prints the per-layer metrics.  The
last stdout line is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  Any wrong answer or broken steady-state
precondition makes the exit code non-zero.  See ``README.md`` for the
workloads, the metrics and the layer map.
"""

from __future__ import annotations

import argparse
import contextlib
import http.client
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from urllib.parse import urlparse

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: preprocessing shared by every workload (the paper's k=2, rho=32)
K, RHO = 2, 32
WEIGHT_LOW, WEIGHT_HIGH = 1, 1000
#: The graph and the partition are fixed; ``--seed`` draws the queries.
#: Seeding the graph too moved the ldd boundary between 250 and 420
#: vertices, and sharded-remote's p50 with it (121 to 175 ms) — graph
#: variance, not run-to-run noise.  Seed 1 / partition seed 0 give the
#: 141+142 boundary vertices the workload is specified with.
GRAPH_SEED, PARTITION_SEED = 1, 0
#: set-up repetitions per run; setup_s is their median
SETUPS = 3
#: road-hot's boot-warmed sources
HOT_SOURCES = 32
#: untimed requests sent before the timed window
WARMUP_REQUESTS = 3
#: the road-miss hit ratio may exceed cache capacity / n by this much
MISS_HIT_SLACK = 0.03
#: latency percentiles fall back to every request below this many
#: requests free of hypervisor steal
MIN_UNSTOLEN = 20
#: The host-speed probe: a fixed pure-Python loop timed on the client
#: thread's CPU clock before the first request and after each one.  On
#: a shared host the same vCPU runs in a fast and a slow state that
#: switch within a second or hold for a minute; the slow state takes
#: ~1.5x as long for this loop and for the workloads (README.md,
#: "Host speed").  Request times are scaled to the fast state by
#: ``PROBE_REF_S`` over the probe.
PROBE_TABLE = {key: key for key in range(6000)}
#: ``probe_host`` between requests in the fast state (2.0 GHz Xeon
#: vCPU, Python 3.11); the slow state reads ~0.7 ms
PROBE_REF_S = 0.48e-3
#: probes on each side of a set-up; it is scaled by their median
SETUP_PROBES = 5
#: the whole command is cut off after this many seconds
DEADLINE_S = 170

#: preprocessing stage names of both pipelines (absent stages read 0)
STAGES = ("reorder", "ball_shortcuts", "merge", "partition", "shard_preprocess", "overlay")


@dataclass(frozen=True)
class Workload:
    name: str
    n: int
    sharded: bool
    #: ``"distances"`` (full rows) or ``"route"`` (s -> t)
    query: str
    #: planner row-cache capacity (per shard when sharded)
    cache: int


#: why each workload exists: README.md and BENCHMARK.json
WORKLOADS = {
    w.name: w
    for w in (
        Workload("road-hot", 10_000, False, "distances", 256),
        Workload("road-miss", 10_000, False, "route", 256),
        # shard caches hold every boundary row (141 + 142)
        Workload("sharded-remote", 5_000, True, "route", 512),
    )
}

E2E_UNITS = {
    "latency_p50_ms": "ms",
    "latency_p95_ms": "ms",
    "throughput_qps": "req/s",
    "server_cpu_ms_per_req": "ms",
    "setup_s": "s",
    "rss_mib": "MiB",
    "success_ratio": "ratio",
}


class BenchError(RuntimeError):
    """The run is invalid: it reports no numbers."""


# --------------------------------------------------------------------- #
# Inputs
# --------------------------------------------------------------------- #
def make_graph(w: Workload):
    from repro.graphs import generators
    from repro.graphs.weights import random_integer_weights

    graph, _coords = generators.road_network(w.n, seed=GRAPH_SEED)
    return random_integer_weights(
        graph, low=WEIGHT_LOW, high=WEIGHT_HIGH, seed=GRAPH_SEED
    )


@dataclass
class Stream:
    """The seeded query stream: boot warm-up sources plus request paths
    (the first ``WARMUP_REQUESTS`` are sent untimed)."""

    warm: list[int]
    queries: list[tuple[int, int | None]]

    def path(self, i: int) -> str:
        s, t = self.queries[i % len(self.queries)]
        return f"/distances/{s}" if t is None else f"/route/{s}/{t}"


def make_stream(w: Workload, seed: int, graph, length: int = 20_000) -> Stream:
    import numpy as np

    rng = np.random.default_rng([seed, sorted(WORKLOADS).index(w.name)])
    if w.query == "distances":
        hot = [int(s) for s in rng.choice(w.n, size=HOT_SOURCES, replace=False)]
        picks = rng.choice(hot, size=length)
        return Stream(hot, [(int(s), None) for s in picks])
    if not w.sharded:
        pairs = rng.integers(0, w.n, size=(length, 2))
        return Stream([], [(int(s), int(t)) for s, t in pairs])
    # Distinct non-boundary sources other than the boot one: the front
    # end's stitched-row cache never hits and no source row is already
    # cached as a boundary row, so every request solves exactly one row.
    from repro.graphs.partition import compute_partition

    part = compute_partition(graph, "ldd", 2, seed=PARTITION_SEED)
    boundary = np.union1d(part.boundary_of(0), part.boundary_of(1))
    order = rng.permutation(w.n)
    boot = int(order[0])
    sources = order[1:][~np.isin(order[1:], boundary)]
    targets = rng.integers(0, w.n, size=len(sources))
    return Stream([boot], [(int(s), int(t)) for s, t in zip(sources, targets)])


# --------------------------------------------------------------------- #
# Server process
# --------------------------------------------------------------------- #
class ServerProcess:
    """One ``server.py`` child: spawn, line-command it, stop it."""

    def __init__(self, w: Workload, artifact: Path, graph_file: Path,
                 warm: list[int], trace: bool) -> None:
        cmd = [
            sys.executable, str(HERE / "server.py"),
            "--mode", "sharded" if w.sharded else "single",
            "--artifact", str(artifact),
            "--graph", str(graph_file),
            "--cache", str(w.cache),
            "--warm", ",".join(map(str, warm)),
        ]
        if trace:
            cmd.append("--trace")
        self.spawn_wall = time.time()
        self.proc = subprocess.Popen(
            cmd, cwd=ROOT, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True
        )
        try:
            self.ready = self._reply("ready")
        except BaseException:
            self.close()
            raise
        self.url = self.ready["url"]
        self.boot_s = self.ready["listen_wall"] - self.spawn_wall

    @property
    def pid(self) -> int:
        return self.proc.pid

    def _reply(self, event: str) -> dict:
        line = self.proc.stdout.readline()
        if not line:
            raise BenchError(f"server exited with {self.proc.wait()} before {event!r}")
        doc = json.loads(line)
        if doc.get("event") != event:
            raise BenchError(f"server replied {doc!r}, expected {event!r}")
        return doc

    def command(self, cmd: str, event: str) -> dict:
        self.proc.stdin.write(cmd + "\n")
        self.proc.stdin.flush()
        return self._reply(event)

    def close(self) -> None:
        if self.proc.poll() is None:
            try:
                self.proc.stdin.write("quit\n")
                self.proc.stdin.close()
                self.proc.wait(timeout=30)
            except (OSError, subprocess.TimeoutExpired):
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


class Client:
    """One keep-alive HTTP/1.1 connection."""

    def __init__(self, url: str) -> None:
        parsed = urlparse(url)
        self.conn = http.client.HTTPConnection(parsed.hostname, parsed.port, timeout=60)

    def get(self, path: str) -> tuple[int, bytes]:
        self.conn.request("GET", path)
        resp = self.conn.getresponse()
        return resp.status, resp.read()

    def json(self, path: str) -> dict:
        status, body = self.get(path)
        if status != 200:
            raise BenchError(f"GET {path} returned {status}: {body[:200]!r}")
        return json.loads(body)

    def close(self) -> None:
        self.conn.close()


# --------------------------------------------------------------------- #
# Host readings
# --------------------------------------------------------------------- #
def host_jiffies() -> tuple[int, int, int]:
    """(total, busy, steal) clock ticks summed over all CPUs."""
    with open("/proc/stat") as f:
        fields = [int(x) for x in f.readline().split()[1:]]
    user, nice, system, idle, iowait, irq, softirq, steal = (fields + [0] * 8)[:8]
    total = user + nice + system + idle + iowait + irq + softirq + steal
    return total, user + nice + system + irq + softirq, steal


class StealClock:
    """Hypervisor steal ticks of the CPUs this process may run on."""

    def __init__(self) -> None:
        self._tags = tuple(f"cpu{c} ".encode() for c in os.sched_getaffinity(0))
        self._file = open("/proc/stat", "rb")

    def read(self) -> int:
        self._file.seek(0)
        return sum(
            int(line.split()[8])
            for line in self._file.read().splitlines()
            if line.startswith(self._tags)
        )

    def close(self) -> None:
        self._file.close()


def probe_host() -> float:
    """CPU seconds this thread spends on a fixed loop over
    ``PROBE_TABLE``: preemption and steal are not in it, the host's
    speed state is."""
    t0 = time.thread_time()
    total = 0
    for key in range(len(PROBE_TABLE)):
        total += PROBE_TABLE[key] & 7
    return time.thread_time() - t0


def process_cpu_clock(pid: int) -> int:
    """The clock id of another process's CPU time, all its threads
    (Linux ``MAKE_PROCESS_CPUCLOCK(pid, CPUCLOCK_SCHED)``): nanosecond
    resolution, where ``/proc/<pid>/stat`` counts 10 ms ticks."""
    return ((~pid) << 3) | 2


def proc_jiffies(pid: int | str) -> int:
    """User + system clock ticks of one process (all its threads)."""
    with open(f"/proc/{pid}/stat") as f:
        after_comm = f.read().rsplit(")", 1)[1].split()
    return int(after_comm[11]) + int(after_comm[12])


def peak_rss_mib(pid: int) -> float:
    with open(f"/proc/{pid}/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise BenchError(f"no VmHWM for pid {pid}")


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        ref_file = ROOT / ".git" / ref[5:]
        return ref_file.read_text().strip() if ref_file.is_file() else ref
    return ref


# --------------------------------------------------------------------- #
# Set-up
# --------------------------------------------------------------------- #
@dataclass
class Setup:
    #: scaled to the host's fast state, as the request times are
    setup_s: float
    measured_setup_s: float
    build_s: float
    stages: dict
    shortcut_edges: int
    save_s: float
    artifact_bytes: int
    load_s: float
    boot_s: float
    warm_s: float


def _tree_bytes(path: Path) -> int:
    if path.is_file():
        return path.stat().st_size
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def set_up(w: Workload, graph, graph_file: Path, stream: Stream,
           artifact: Path) -> tuple[ServerProcess, Setup]:
    """Preprocess, save, spawn, load, warm, first healthy ``/healthz``."""
    from repro.preprocess.pipeline import build_kr_graph, build_sharded_kr_graph
    from repro.serve import save_artifact, save_sharded_artifact

    probes = [probe_host() for _ in range(SETUP_PROBES)]
    t0 = time.perf_counter()
    if w.sharded:
        pre = build_sharded_kr_graph(
            graph, K, RHO, n_shards=2, partition="ldd",
            partition_seed=PARTITION_SEED, n_jobs=1,
        )
        edges = sum(shard.new_edges for shard in pre.shards)
    else:
        pre = build_kr_graph(graph, K, RHO, reorder="rcm", n_jobs=1)
        edges = pre.new_edges
    t1 = time.perf_counter()
    stages = dict(pre.stage_seconds)
    (save_sharded_artifact if w.sharded else save_artifact)(artifact, pre)
    t2 = time.perf_counter()
    del pre
    server = ServerProcess(w, artifact, graph_file, stream.warm, trace=False)
    try:
        client = Client(server.url)
        try:
            health = client.json("/healthz")
        finally:
            client.close()
        if health.get("status") != "ok":
            raise BenchError(f"server unhealthy after boot: {health}")
        t3 = time.perf_counter()
    except BaseException:
        server.close()
        raise
    probes += [probe_host() for _ in range(SETUP_PROBES)]
    return server, Setup(
        setup_s=(t3 - t0) * PROBE_REF_S / statistics.median(probes),
        measured_setup_s=t3 - t0,
        build_s=t1 - t0,
        stages=stages,
        shortcut_edges=int(edges),
        save_s=t2 - t1,
        artifact_bytes=_tree_bytes(artifact),
        load_s=server.ready["load_s"],
        boot_s=server.boot_s,
        warm_s=server.ready["warm_s"],
    )


# --------------------------------------------------------------------- #
# Timed phase
# --------------------------------------------------------------------- #
@dataclass
class Phase:
    latencies_s: list = field(default_factory=list)
    #: steal ticks on the client's CPU between the previous reading and
    #: the end of each request (the reading sits outside the latency)
    stolen_ticks: list = field(default_factory=list)
    body_bytes: list = field(default_factory=list)
    #: request index -> HTTP status (non-200 only)
    errors: dict = field(default_factory=dict)
    #: path -> first 200 body; later bodies that differ are kept apart
    first_body: dict = field(default_factory=dict)
    odd_bodies: list = field(default_factory=list)
    paths: list = field(default_factory=list)
    #: per request: from sending it to the client being ready for the
    #: next one, less the probe
    cycles_s: list = field(default_factory=list)
    #: server process CPU from the previous probe to the one after
    #: each request
    server_cpu_s: list = field(default_factory=list)
    #: ``probe_host`` before the first request and after each one
    probes_s: list = field(default_factory=list)
    stolen_s: float = 0.0
    host: dict = field(default_factory=dict)
    stats_before: dict = field(default_factory=dict)
    stats_after: dict = field(default_factory=dict)
    trace: dict = field(default_factory=dict)

    @property
    def attempted(self) -> int:
        return len(self.latencies_s)

    def timed(self):
        """Indices of the requests the timing metrics use: those during
        which the hypervisor stole no time from the client's CPU (all of
        them if fewer than ``MIN_UNSTOLEN`` qualify)."""
        import numpy as np

        clean = np.flatnonzero(np.asarray(self.stolen_ticks) == 0)
        return clean if len(clean) >= MIN_UNSTOLEN else np.arange(self.attempted)

    def speed_factors(self):
        """Per request: ``PROBE_REF_S`` over the mean of the probes on
        its two sides."""
        import numpy as np

        probes = np.asarray(self.probes_s)
        return 2 * PROBE_REF_S / (probes[:-1] + probes[1:])

    def timed_latencies_ms(self) -> list[float]:
        """Latencies of the timed requests, scaled to the fast state."""
        factor = self.speed_factors()
        return [1e3 * self.latencies_s[i] * factor[i] for i in self.timed()]


def drive(server: ServerProcess, stream: Stream, *, seconds: float | None,
          requests: int | None) -> Phase:
    """Closed loop on one connection for ``seconds`` (or ``requests``)."""
    tick = os.sysconf("SC_CLK_TCK")
    client = Client(server.url)
    steal = StealClock()
    phase = Phase()
    try:
        for i in range(WARMUP_REQUESTS):
            status, body = client.get(stream.path(i))
            if status != 200:
                raise BenchError(f"warm-up GET {stream.path(i)} returned {status}")
        phase.stats_before = client.json("/stats")
        server.command("start", "started")
        host0, cpu0, self0 = host_jiffies(), proc_jiffies(server.pid), proc_jiffies("self")
        load0 = os.getloadavg()
        perf, server_cpu = time.perf_counter, time.clock_gettime
        server_clock = process_cpu_clock(server.pid)
        i = WARMUP_REQUESTS
        stolen = steal.read()
        phase.probes_s.append(probe_host())
        cpu = server_cpu(server_clock)
        start = perf()
        stop_at = start + seconds if seconds is not None else float("inf")
        limit = WARMUP_REQUESTS + requests if requests is not None else 1 << 62
        while i < limit:
            path = stream.path(i)
            t0 = perf()
            status, body = client.get(path)
            t1 = perf()
            stolen, was = steal.read(), stolen
            phase.latencies_s.append(t1 - t0)
            phase.stolen_ticks.append(stolen - was)
            phase.body_bytes.append(len(body))
            phase.paths.append(path)
            if status != 200:
                phase.errors[len(phase.paths) - 1] = status
            else:
                first = phase.first_body.setdefault(path, body)
                if first is not body and first != body:
                    phase.odd_bodies.append((path, body))
            t2 = perf()
            phase.probes_s.append(probe_host())
            t3 = perf()
            cpu, was_cpu = server_cpu(server_clock), cpu
            phase.server_cpu_s.append(cpu - was_cpu)
            # the clock read and the loop back to the next request
            # are part of this cycle; the probe is not
            phase.cycles_s.append(t2 - t0 + perf() - t3)
            i += 1
            if t1 >= stop_at:
                break
        host1, cpu1, self1 = host_jiffies(), proc_jiffies(server.pid), proc_jiffies("self")
        phase.trace = server.command("stop", "trace")
        phase.stats_after = client.json("/stats")
    finally:
        client.close()
        steal.close()
    phase.stolen_s = sum(phase.stolen_ticks) / tick
    total, busy, steal = (b - a for a, b in zip(host0, host1))
    ours = (cpu1 - cpu0) + (self1 - self0)
    phase.host = {
        "steal_pct": 100.0 * steal / total if total else 0.0,
        "others_busy_pct": 100.0 * max(busy - ours, 0) / total if total else 0.0,
        "loadavg_1m_before": load0[0],
        "loadavg_1m_after": os.getloadavg()[0],
        "stolen_request_share": (
            sum(1 for st in phase.stolen_ticks if st) / phase.attempted
            if phase.attempted else 0.0
        ),
        "client_cpu_stolen_s": phase.stolen_s,
        "probe_p5_ms": 1e3 * _percentile(phase.probes_s, 5),
        "probe_p50_ms": 1e3 * _percentile(phase.probes_s, 50),
        "probe_p95_ms": 1e3 * _percentile(phase.probes_s, 95),
        # as measured, before scaling to the fast state
        "measured_latency_p50_ms": _percentile(
            [1e3 * phase.latencies_s[i] for i in phase.timed()], 50
        ),
        "measured_throughput_qps": len(phase.cycles_s) / sum(phase.cycles_s),
    }
    return phase


# --------------------------------------------------------------------- #
# Checks
# --------------------------------------------------------------------- #
def count_wrong(w: Workload, graph, phase: Phase) -> int:
    """Requests whose answer differs from SciPy Dijkstra (or non-200).

    Distances are compared bit for bit; routes also check that the path
    runs from s to t.  Only distinct bodies per request path are parsed;
    when any body of a path is wrong, every request on it counts.
    """
    import numpy as np
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import dijkstra

    bodies = list(phase.first_body.items()) + phase.odd_bodies
    sources = sorted({int(p.split("/")[2]) for p, _ in bodies})
    matrix = csr_matrix((graph.weights, graph.indices, graph.indptr), shape=(graph.n, graph.n))
    ref = dijkstra(matrix, directed=True, indices=sources) if sources else None
    row_of = {s: i for i, s in enumerate(sources)}
    bad_paths: set[str] = set()
    for path, body in bodies:
        parts = path.split("/")
        s = int(parts[2])
        want = ref[row_of[s]]
        try:
            doc = json.loads(body)
            if w.query == "distances":
                got = np.array(
                    [np.inf if d is None else d for d in doc["distances"]], dtype=np.float64
                )
                ok = got.shape == want.shape and np.array_equal(
                    got.view(np.uint64), want.view(np.uint64)
                )
            else:
                t = int(parts[3])
                d = np.inf if doc["distance"] is None else float(doc["distance"])
                route = doc["path"]
                ok = bool(
                    np.float64(d).view(np.uint64) == want[t].view(np.uint64)
                    and route
                    and route[0] == s
                    and route[-1] == t
                )
        except (ValueError, KeyError, TypeError):
            ok = False
        if not ok:
            bad_paths.add(path)
    wrong = sum(1 for p in phase.paths if p in bad_paths)
    return wrong + sum(1 for i in phase.errors if phase.paths[i] not in bad_paths)


def _delta(phase: Phase, *keys: str) -> int:
    def pick(doc):
        for key in keys:
            doc = doc[key]
        return doc

    return int(pick(phase.stats_after) - pick(phase.stats_before))


def _backend_failures(phase: Phase) -> int:
    def total(stats: dict) -> int:
        return sum(b["failures_total"] for b in stats.get("backends", []))

    return total(phase.stats_after) - total(phase.stats_before)


def check_steady_state(w: Workload, phase: Phase) -> None:
    """Preconditions on ``/stats`` deltas; raises :class:`BenchError`."""
    n_req = phase.attempted
    lookups, hits, misses = (_delta(phase, k) for k in ("lookups", "hits", "misses"))
    if w.name == "road-hot" and misses != 0:
        raise BenchError(f"road-hot: {misses} planner misses in the timed phase")
    if w.name == "road-miss":
        ceiling = w.cache / w.n + MISS_HIT_SLACK
        if lookups and hits / lookups > ceiling:
            raise BenchError(f"road-miss: hit ratio {hits / lookups:.4f} > {ceiling:.4f}")
    if w.sharded:
        solves = _delta(phase, "solves")
        stitched_misses = _delta(phase, "stitched", "misses")
        failures = _backend_failures(phase)
        if solves != n_req or stitched_misses != n_req or failures:
            raise BenchError(
                f"sharded-remote: {solves} shard solves, {stitched_misses} "
                f"stitched misses and {failures} backend failures for {n_req} "
                "requests (want one solve and one stitch per request, no failures)"
            )


# --------------------------------------------------------------------- #
# Metrics
# --------------------------------------------------------------------- #
def _percentile(values, q: float) -> float:
    import numpy as np

    return float(np.percentile(np.asarray(values), q))


def e2e_metrics(phase: Phase, setups: list[Setup], server: ServerProcess,
                failed: int) -> dict:
    """The end-to-end metrics; the three per-request times are scaled to
    the host's fast state (``Phase.speed_factors``)."""
    timed, factor = phase.timed(), phase.speed_factors()
    lat_ms = phase.timed_latencies_ms()
    k, n = len(timed), phase.attempted
    busy_s = sum(phase.cycles_s[i] * factor[i] for i in timed)
    cpu_s = sum(phase.server_cpu_s[i] * factor[i] for i in timed)
    return {
        "latency_p50_ms": (_percentile(lat_ms, 50), k),
        "latency_p95_ms": (_percentile(lat_ms, 95), k),
        "throughput_qps": (k / busy_s, k),
        "server_cpu_ms_per_req": (1e3 * cpu_s / k, k),
        "setup_s": (statistics.median(s.setup_s for s in setups), len(setups)),
        "rss_mib": (peak_rss_mib(server.pid), 1),
        "success_ratio": ((n - failed) / n, n),
    }


def layer_metrics(w: Workload, phase: Phase, untraced: Phase, setups: list[Setup]) -> dict:
    """Per-layer means per timed request (counts per solve where named)
    from the traced phase, plus per-run set-up layers."""
    sec, cnt = phase.trace["seconds"], phase.trace["counts"]
    n_req = phase.attempted
    ms = {name: 1e3 * sec.get(name, 0.0) / n_req for name in (
        "http.handler", "planner.execute", "engine.solve", "router.surface",
        "router.overlay_build", "router.overlay_solve", "backends.source_row",
        "backends.rows", "backends.route", "shard.handler",
    )}
    solves = cnt.get("engine.solve.calls", 0)
    latency_ms = 1e3 * statistics.fmean(phase.latencies_s)
    backend_ms = ms["backends.source_row"] + ms["backends.rows"] + ms["backends.route"]
    lookups, hits = _delta(phase, "lookups"), _delta(phase, "hits")
    self_ms = {
        "serve.http.encode_io_ms": latency_ms - ms["http.handler"],
        "serve.router.fold_ms": (ms["router.surface"] - backend_ms
                                 - ms["router.overlay_build"] - ms["router.overlay_solve"]),
        "serve.router.overlay_build_ms": ms["router.overlay_build"],
        "serve.router.overlay_solve_ms": ms["router.overlay_solve"],
        "serve.backends.wire_ms": backend_ms - ms["shard.handler"],
        "serve.shard.handler_self_ms": (
            ms["shard.handler"] - ms["planner.execute"] if w.sharded else 0.0
        ),
        "serve.planner.self_ms": ms["planner.execute"] - ms["engine.solve"],
        "engine.solve_ms": ms["engine.solve"],
    }
    assert tuple(self_ms) == SELF_TIMES
    residual = latency_ms - sum(self_ms.values())
    untraced_p50 = _percentile(untraced.timed_latencies_ms(), 50)
    out = {
        "serve.http.handler_ms": ms["http.handler"],
        "serve.http.response_bytes": statistics.fmean(phase.body_bytes),
        "serve.planner.hit_ratio": hits / lookups if lookups else 0.0,
        "serve.planner.misses": _delta(phase, "misses") / n_req,
        "engine.solves_per_req": solves / n_req,
        "engine.steps": cnt.get("engine.steps", 0) / solves if solves else 0.0,
        "engine.substeps": cnt.get("engine.substeps", 0) / solves if solves else 0.0,
        "engine.relaxations": cnt.get("engine.relaxations", 0) / solves if solves else 0.0,
        "serve.router.stitched_hit_ratio": (
            _delta(phase, "stitched", "hits") / n_req if w.sharded else 0.0
        ),
        "serve.backends.source_row_ms": ms["backends.source_row"],
        "serve.backends.rows_ms": ms["backends.rows"],
        "serve.backends.route_ms": ms["backends.route"],
        "serve.backends.rows_per_req": cnt.get("backends.rows", 0) / n_req,
        "serve.backends.row_bytes_per_req": cnt.get("backends.row_bytes", 0) / n_req,
        "serve.backends.failures": _backend_failures(phase),
        "serve.shard.handler_ms": ms["shard.handler"],
        **self_ms,
        "trace.latency_mean_ms": latency_ms,
        "trace.residual_ms": residual,
        "trace.overhead_pct": 100.0 * (
            _percentile(phase.timed_latencies_ms(), 50) / untraced_p50 - 1.0
        ),
    }
    med = statistics.median
    out["preprocess.build_s"] = med(s.build_s for s in setups)
    for stage in STAGES:
        out[f"preprocess.stage.{stage}_s"] = med(s.stages.get(stage, 0.0) for s in setups)
    out["preprocess.shortcut_edges"] = setups[-1].shortcut_edges
    out["serve.artifacts.save_s"] = med(s.save_s for s in setups)
    out["serve.artifacts.load_s"] = med(s.load_s for s in setups)
    out["serve.artifacts.bytes"] = setups[-1].artifact_bytes
    out["serve.boot_s"] = med(s.boot_s for s in setups)
    out["serve.warm_s"] = med(s.warm_s for s in setups)
    return out


#: Disjoint self times.  With ``trace.residual_ms`` — the front
#: handler's own code (URL parsing, validation, payload building), which
#: no public function isolates — they sum to ``trace.latency_mean_ms``.
SELF_TIMES = (
    "serve.http.encode_io_ms",
    "serve.router.fold_ms",
    "serve.router.overlay_build_ms",
    "serve.router.overlay_solve_ms",
    "serve.backends.wire_ms",
    "serve.shard.handler_self_ms",
    "serve.planner.self_ms",
    "engine.solve_ms",
)

#: per-layer metrics measured once per set-up, not per request
PER_RUN_PREFIXES = ("preprocess.", "serve.artifacts.", "serve.boot_s", "serve.warm_s")

LAYER_UNITS = {
    "serve.http.response_bytes": "bytes",
    "serve.planner.hit_ratio": "ratio",
    "serve.planner.misses": "1/req",
    "engine.solves_per_req": "1/req",
    "engine.steps": "1/solve",
    "engine.substeps": "1/solve",
    "engine.relaxations": "1/solve",
    "serve.router.stitched_hit_ratio": "ratio",
    "serve.backends.rows_per_req": "1/req",
    "serve.backends.row_bytes_per_req": "bytes",
    "serve.backends.failures": "count",
    "preprocess.shortcut_edges": "count",
    "serve.artifacts.bytes": "bytes",
    "trace.overhead_pct": "%",
}


def layer_unit(name: str) -> str:
    if name in LAYER_UNITS:
        return LAYER_UNITS[name]
    return "ms" if name.endswith("_ms") else "s"


# --------------------------------------------------------------------- #
# One run
# --------------------------------------------------------------------- #
@dataclass
class RunResult:
    workload: str
    metrics: dict
    attempted: int
    failed: int
    diagnostics: dict


def run(name: str, seed: int, *, trace: bool, seconds: float | None = None,
        requests: int | None = None, setups: int = SETUPS) -> RunResult:
    """One benchmark run; raises :class:`BenchError` when invalid."""
    import numpy as np

    w = WORKLOADS[name]
    work = ROOT / ".perfbench_work" / f"{name}-{os.getpid()}"
    servers: list[ServerProcess] = []
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        graph = make_graph(w)
        stream = make_stream(w, seed, graph)
        graph_file = work / "graph.npz"
        np.savez(graph_file, indptr=graph.indptr, indices=graph.indices, weights=graph.weights)
        done: list[Setup] = []
        for rep in range(setups):
            while servers:
                servers.pop().close()
            artifact = work / (f"bundle{rep}" if w.sharded else f"kr{rep}.npz")
            server, info = set_up(w, graph, graph_file, stream, artifact)
            servers.append(server)
            done.append(info)
        phases = [drive(servers[-1], stream, seconds=seconds, requests=requests)]
        if trace:
            traced = ServerProcess(w, artifact, graph_file, stream.warm, trace=True)
            servers.append(traced)
            phases.append(drive(traced, stream, seconds=seconds, requests=requests))
        failed = 0
        for phase in phases:
            check_steady_state(w, phase)
            failed += count_wrong(w, graph, phase)
        attempted = sum(p.attempted for p in phases)
        if trace:
            metrics = layer_metrics(w, phases[1], phases[0], done)
            units = {k: layer_unit(k) for k in metrics}
            counts = {
                k: len(done) if k.startswith(PER_RUN_PREFIXES) else phases[1].attempted
                for k in metrics
            }
        else:
            raw = e2e_metrics(phases[0], done, servers[-1], failed)
            metrics = {k: v for k, (v, _) in raw.items()}
            units = E2E_UNITS
            counts = {k: c for k, (_, c) in raw.items()}
        diagnostics = {
            "workload": name,
            "seed": seed,
            "nproc": os.cpu_count(),
            "cpu_affinity": sorted(os.sched_getaffinity(0)),
            "host": phases[-1].host,
            "git_commit": git_commit(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "requests": [p.attempted for p in phases],
            "measured_setup_s": statistics.median(s.measured_setup_s for s in done),
        }
        return RunResult(
            name,
            {k: {"value": v, "unit": units[k], "samples": counts[k]} for k, v in metrics.items()},
            attempted,
            failed,
            diagnostics,
        )
    finally:
        for server in servers:
            server.close()
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()


def _print_table(result: RunResult) -> None:
    width = max(len(k) for k in result.metrics)
    print(f"== {result.workload}: {result.attempted} requests, {result.failed} failed")
    for key, m in result.metrics.items():
        print(f"  {key:<{width}}  {m['value']:>14.4f} {m['unit']:<8} n={m['samples']}")
    if "trace.residual_ms" in result.metrics:
        parts = sum(result.metrics[k]["value"] for k in (*SELF_TIMES, "trace.residual_ms"))
        mean = result.metrics["trace.latency_mean_ms"]["value"]
        print(f"  self times + residual = {parts:.4f} ms; traced mean latency = {mean:.4f} ms")


def _timeout(_signum, _frame):
    raise TimeoutError(f"benchmark exceeded {DEADLINE_S} s")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    # Client, preprocessing and server (a child inherits the mask) share one
    # CPU.  The closed loop never overlaps client and server work, and on
    # a small VM every cross-CPU wake-up is a hypervisor round trip:
    # split over two vCPUs, steal rose from ~3% to ~18% and p95 tripled.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    signal.signal(signal.SIGALRM, _timeout)
    signal.alarm(DEADLINE_S)
    try:
        result = run(args.workload, args.seed, trace=bool(args.trace), seconds=args.seconds)
    except BenchError as exc:
        print(f"perfbench: invalid run: {exc}", file=sys.stderr)
        return 1
    finally:
        signal.alarm(0)
    _print_table(result)
    print(json.dumps({"diagnostics": result.diagnostics}))
    print(json.dumps({
        "correct": result.failed == 0,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {k: {"value": m["value"], "unit": m["unit"]} for k, m in result.metrics.items()},
    }))
    return 0 if result.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
