"""Benchmark entry point.

    python3 perfbench/run.py --workload {query_head,query_tail} \\
        --seed N --seconds S --trace {0,1}

Run from the repository root.  Starts a local Ray instance with one CPU
per core this process may run on (W), builds the workload's seeded
inputs and index inside ``.perfbench_work/`` and removes them again,
checks every operation's output, and prints a report followed, as the
last line, by one JSON object:

    {"correct": bool, "attempted": int, "failed": int, "metrics": {...}}

``--seconds`` sets the serving work: 2·S rounds of a fixed number of
queries per serving shape, about half a second each on a quiet 4-CPU
host.
``--trace 0`` reports the end-to-end metrics; ``--trace 1`` also records
spans around the engine's layers (in probes and in a traced slice
interleaved with the untraced ones) and reports the per-layer metrics.
See perfbench/README.md for the design.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

import pdfsearch_ray  # noqa: E402,F401  (fails fast outside a full checkout)

from perfbench import inputs, measure, workloads  # noqa: E402

WORK_ROOT = ROOT / ".perfbench_work"
SPEC = ROOT / "BENCHMARK.json"
OBJECT_STORE_BYTES = 768 * 2**20
# Ray's socket paths (<temp>/session_<stamp>_<pid>/sockets/plasma_store)
# must fit a 107-byte AF_UNIX address
MAX_RAY_TEMP_LEN = 43


def ray_temp_dir(work: Path) -> str:
    """Ray's temp dir: inside the work dir when that path is short
    enough for Ray's sockets, else where Ray puts it by default."""
    inside = str(work / "ray")
    if len(inside) <= MAX_RAY_TEMP_LEN:
        return inside
    base = os.environ.get("RAY_TMPDIR") or os.environ.get("TMPDIR") or "/tmp"
    return os.path.join(base, "ray")


def start_ray(work: Path, width: int) -> float:
    """Start a private local Ray instance; returns its start-up seconds."""
    ray_tmp = ray_temp_dir(work)
    for var in ("TMPDIR", "PDFSEARCH_SPILL_ROOT"):
        os.environ[var] = str(work / "tmp")
    (work / "tmp").mkdir(parents=True, exist_ok=True)
    # workers import the engine and the benchmark from this checkout
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])
    import ray
    from ray.data import DataContext

    t = time.perf_counter()
    ray.init(address="local", num_cpus=width, include_dashboard=False,
             logging_level="ERROR", log_to_driver=False,
             object_store_memory=OBJECT_STORE_BYTES, _temp_dir=ray_tmp)
    DataContext.get_current().enable_progress_bars = False
    return time.perf_counter() - t


def bounded_names() -> set[str]:
    """The end-to-end metrics ``BENCHMARK.json`` bounds; the run measures
    more, and prints the rest in its report and detail line only."""
    return {m["name"] for m in json.loads(SPEC.read_text())["end_to_end"]}


def bench(name: str, seed: int, seconds: float, traced: bool,
          scale: inputs.Scale = inputs.FULL) -> tuple[dict, dict]:
    """Run one workload; returns (result line, detail)."""
    import ray

    bounded = bounded_names()

    width = measure.affinity_width()
    work = WORK_ROOT / str(os.getpid())  # short: Ray's sockets live under it
    host = measure.host_block()
    ticks = measure.cpu_ticks()
    try:
        ray_init_s = start_ray(work, width)
        try:
            res = workloads.Run(name, seed, seconds, traced, scale, str(work),
                                ray_init_s).run()
        finally:
            ray.shutdown()
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):  # still in use by another run
            WORK_ROOT.rmdir()
    host["loadavg_after"] = list(os.getloadavg())
    host["steal_share"] = measure.steal_share(ticks, measure.cpu_ticks())
    e2e = {k: {"value": v, "unit": u} for k, (v, u) in res.metrics.items()}
    chosen = res.layers if traced else {k: m for k, m in res.metrics.items()
                                        if k in bounded}
    line = {"correct": res.checks.failed == 0,
            "attempted": res.checks.attempted,
            "failed": res.checks.failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in chosen.items()}}
    detail = {"workload": name, "seed": seed, "seconds": seconds,
              "traced": traced, "host": host,
              "end_to_end": {k: m for k, m in e2e.items() if k in bounded},
              "unbounded": {k: m for k, m in e2e.items() if k not in bounded},
              "failed_frac": res.checks.failed / max(res.checks.attempted, 1),
              "check_notes": res.checks.notes, **res.detail}
    return line, detail


def report(line: dict, detail: dict) -> str:
    rows = [f"# {detail['workload']} seed={detail['seed']} "
            f"W={detail['host']['affinity_width']} traced={detail['traced']}"]
    for k, m in detail["end_to_end"].items():
        rows.append(f"{k:28s} {m['value']:14.4f} {m['unit']}")
    for k, m in detail["unbounded"].items():
        rows.append(f"{k:28s} {m['value']:14.4f} {m['unit']} (not bounded)")
    rows.append(f"{'failed_frac':28s} {detail['failed_frac']:14.4f} ratio "
                f"({line['failed']}/{line['attempted']})")
    if detail["traced"]:
        for k, m in line["metrics"].items():
            rows.append(f"  {k:26s} {m['value']:14.4f} {m['unit']}")
    return "\n".join(rows)


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = p.parse_args(argv)
    line, detail = bench(a.workload, a.seed, a.seconds, a.trace == 1)
    print(report(line, detail))
    print(json.dumps(detail))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
