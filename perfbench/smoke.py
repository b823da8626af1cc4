"""Smoke test of the benchmark itself, on a tiny corpus.

    python3 perfbench/smoke.py

Runs every workload untraced and traced and asserts that each metric
named in BENCHMARK.json is reported with its unit, that every check
passes, and that a deliberately perturbed top-k is counted as a failed
operation.  Takes about two minutes; exits non-zero on the first
failed assertion.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import inputs, run, workloads  # noqa: E402

TINY = inputs.Scale(n_pages=600, doc_words=40, rows_per_file=200,
                    row_group_size=100, num_buckets=4, n_delta=50,
                    head_queries=600, tail_pool=300, tail_stream=900,
                    warm_queries=8, setup_reps=2)
SECONDS = 2.0
# every end-to-end measurement; those BENCHMARK.json does not bound are
# printed in the report and detail line only
MEASURED = {"setup_s", "build_docs_per_s", "append_s", "compact_s",
            "index_bytes_per_doc", "query_p50_ms", "query_p99_ms", "pool_qps",
            "pool_p99_ms", "sharded_p50_ms", "sharded_p99_ms", "segmented_p50_ms",
            "segmented_p99_ms", "serve_rss_mb"}


def expected_units() -> tuple[dict, dict]:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def check_line(line: dict, units: dict, label: str) -> None:
    assert set(line) == {"correct", "attempted", "failed", "metrics"}, label
    got = {k: m["unit"] for k, m in line["metrics"].items()}
    assert got == units, f"{label}: metrics/units differ: {sorted(set(got) ^ set(units))}"
    assert line["attempted"] > 0, label
    assert line["failed"] == 0 and line["correct"], f"{label}: {line}"


def perturbed_top_k() -> None:
    """Swap the first and last hit of every ``auto`` answer on the local
    handle: each such answer must be counted as failed."""
    from pdfsearch_ray.pipelines.query import BM25Index

    orig = BM25Index.search

    def search(self, query, max_results=10, with_spans=True, apply_best=False,
               method="taat"):
        ms = orig(self, query, max_results, with_spans, apply_best, method)
        if method == "auto" and len(ms.matches) > 1:
            ms.matches[0], ms.matches[-1] = ms.matches[-1], ms.matches[0]
        return ms

    BM25Index.search = search
    try:
        line, detail = run.bench("query_head", 7, SECONDS, False, TINY)
    finally:
        BM25Index.search = orig
    assert line["failed"] > 0 and not line["correct"], line
    assert detail["failed_frac"] > 0, detail["failed_frac"]
    print(f"perturbed top-k: {line['failed']}/{line['attempted']} failed")


def main() -> int:
    e2e, per_layer = expected_units()
    for name in workloads.WORKLOADS:
        for traced, units in ((False, e2e), (True, per_layer)):
            line, detail = run.bench(name, 3, SECONDS, traced, TINY)
            check_line(line, units, f"{name} traced={traced}")
            assert set(detail["end_to_end"]) == set(e2e), name
            assert set(detail["end_to_end"]) | set(detail["unbounded"]) == MEASURED, name
            print(run.report(line, detail))
    perturbed_top_k()
    print("smoke ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
