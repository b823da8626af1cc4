"""Measurement helpers: host description, latency summaries, closed-loop
drivers for the three serving shapes, and the per-operation check
ledger."""

from __future__ import annotations

import math
import os
import platform
import statistics
import time
from dataclasses import dataclass, field

import numpy as np

K = 10  # top-k served and checked


def affinity_width() -> int:
    return len(os.sched_getaffinity(0))


def cpu_probe_s() -> float:
    """Median of 3 timings of a fixed CPU-bound job (pure-Python loop
    plus a small float matmul).  A slower probe on the same code means a
    busier or throttled host, not a slower program."""
    a = np.random.default_rng(0).random((160, 160))
    times = []
    for _ in range(3):
        t = time.perf_counter()
        acc = 0
        for i in range(300_000):
            acc += i * i % 7
        for _ in range(20):
            a = a @ a
            a /= np.abs(a).max()
        times.append(time.perf_counter() - t)
    return statistics.median(times)


def cpu_ticks() -> list[int]:
    """The host's aggregate CPU tick counters (user, nice, system, idle,
    iowait, irq, softirq, steal) from /proc/stat."""
    with open("/proc/stat") as f:
        return [int(x) for x in f.readline().split()[1:9]]


def steal_share(before: list[int], after: list[int]) -> float:
    """Share of the ticks between two ``cpu_ticks`` readings that the
    hypervisor gave to other guests: time this VM wanted a CPU and did
    not get one."""
    d = [b - a for a, b in zip(before, after)]
    return d[7] / sum(d) if sum(d) else 0.0


def host_block() -> dict:
    import ray

    return {"affinity_width": affinity_width(),
            "omp_num_threads": os.environ.get("OMP_NUM_THREADS"),
            "loadavg": list(os.getloadavg()),
            "cpu_probe_s": cpu_probe_s(),
            "ray": ray.__version__,
            "python": platform.python_version()}


def latency_summary(lat_s: list[float]) -> dict:
    """Median, p99 and the highest percentile that still has at least
    ten samples beyond it, each with the sample count, in ms."""
    v = sorted(lat_s)
    n = len(v)
    if not n:
        return {"n": 0}

    def pct(p: float) -> float:
        return v[max(0, math.ceil(p / 100 * n) - 1)] * 1e3

    top = next((p for p in (99.9, 99.0, 95.0, 90.0, 50.0)
                if n * (1 - p / 100) >= 10), 50.0)
    return {"n": n, "p50_ms": statistics.median(v) * 1e3,
            "p99_ms": pct(99.0), "p99_samples_beyond": int(n * 0.01),
            "top_pct": top, "top_ms": pct(top)}


def topk_of(ms) -> tuple:
    return tuple((int(m.doc_id), float(m.score)) for m in ms.matches)


@dataclass
class Checks:
    """Operations attempted and failed (wrong output or exception)."""

    attempted: int = 0
    failed: int = 0
    notes: list[str] = field(default_factory=list)

    def expect(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.notes) < 20:
                self.notes.append(what)


@dataclass
class Phase:
    """One closed-loop serving shape, run in slices: per-request
    latency, stream position and served top-k, in completion order.
    ``next`` is the next stream position to send; ``wall`` sums the
    slices' wall seconds."""

    name: str
    lat: list[float] = field(default_factory=list)
    qi: list[int] = field(default_factory=list)
    top: list[tuple] = field(default_factory=list)
    totals: list[int] = field(default_factory=list)
    errors: list[str] = field(default_factory=list)
    next: int = 0
    wall: float = 0.0

    def record(self, qi: int, dt: float, ms) -> None:
        self.qi.append(qi)
        self.lat.append(dt)
        self.top.append(topk_of(ms))
        self.totals.append(int(ms.total_matches))


def run_serial(ph: Phase, search, stream: list[str], count: int) -> None:
    """One client with one outstanding request: ``search(q)`` for the
    next ``count`` queries of the stream."""
    t_start = time.perf_counter()
    stop = min(ph.next + count, len(stream))
    while ph.next < stop:
        qi = ph.next
        ph.next += 1
        t = time.perf_counter()
        try:
            ms = search(stream[qi])
        except Exception as e:  # counted as a failed operation
            ph.errors.append(repr(e))
            continue
        ph.record(qi, time.perf_counter() - t, ms)
    ph.wall += time.perf_counter() - t_start


def run_pool(ph: Phase, pool: list, stream: list[str], count: int) -> None:
    """Closed loop with one outstanding request per replica over the
    next ``count`` queries: a replica gets the next query as soon as it
    answers."""
    import ray

    t_start = time.perf_counter()
    stop = min(ph.next + count, len(stream))
    inflight: dict = {}

    def submit(replica) -> None:
        if ph.next < stop:
            ref = replica.search.remote(stream[ph.next], max_results=K,
                                        with_spans=True, method="auto")
            inflight[ref] = (replica, ph.next, time.perf_counter())
            ph.next += 1

    for replica in pool:
        submit(replica)
    while inflight:
        ready, _ = ray.wait(list(inflight), num_returns=1)
        replica, qi, t0 = inflight.pop(ready[0])
        try:
            ms = ray.get(ready[0])
        except Exception as e:  # counted as a failed operation
            ph.errors.append(repr(e))
        else:
            ph.record(qi, time.perf_counter() - t0, ms)
        submit(replica)
    ph.wall += time.perf_counter() - t_start


def check_phase(ph: Phase, stream: list[str], ref: dict, checks: Checks) -> None:
    """Each served top-k (doc_id, score) must equal the reference top-k,
    ``ref[query][0]``."""
    for qi, top in zip(ph.qi, ph.top):
        q = stream[qi]
        checks.expect(top == ref[q][0], f"{ph.name}: top-{K} differs from TAAT for {q!r}")
    for err in ph.errors:
        checks.expect(False, f"{ph.name}: request raised {err}")


def actor_rss_mb(actors: list) -> float:
    """Summed resident set size of the actors' processes, read through
    their pids."""
    import ray

    pids = ray.get([a.__ray_call__.remote(lambda self: os.getpid())
                    for a in actors])
    page = os.sysconf("SC_PAGE_SIZE")
    total = 0
    for pid in pids:
        with open(f"/proc/{pid}/statm") as f:
            total += int(f.read().split()[1]) * page
    return total / 2**20


def dir_bytes(path: str, skip: tuple[str, ...] = ()) -> int:
    total = 0
    for root, dirs, files in os.walk(path):
        dirs[:] = [d for d in dirs if d not in skip]
        total += sum(os.path.getsize(os.path.join(root, f)) for f in files)
    return total
