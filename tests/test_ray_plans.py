"""Every Ray Data plan the index lifecycle builds runs once.

``Dataset.to_arrow_refs()`` fetches the schema after running its plan,
and when Ray cannot infer it (any ``map_batches``) it runs the plan again
under ``limit(1)``.  That second run repeats the work, and its tasks can
outlive the spill directory the caller removes right after.  The test
counts plan executions in the calling process, so it does not depend on
timing."""

from __future__ import annotations

import collections

import numpy as np
import pyarrow as pa


def _op_names(op) -> list[str]:
    """``Kind[name]`` of every logical operator in the plan."""
    names = [str(op)]
    for dep in op.input_dependencies:
        names += _op_names(dep)
    return names


def test_each_ray_data_plan_runs_once(ray_session, tmp_path, monkeypatch):
    import ray.data as rd
    from ray.data._internal.plan import ExecutionPlan

    from pdfsearch_ray.fixtures.gen import generate_pages, write_pages
    from pdfsearch_ray.functions.hashing import content_hash
    from pdfsearch_ray.pipelines.build import (append_index, build_from_pages,
                                               compact_index, delete_docs)
    from pdfsearch_ray.pipelines.query import BM25Index

    runs: list[list[str]] = []
    run_iter = ExecutionPlan.execute_to_iterator
    run_all = ExecutionPlan.execute

    def counted_iter(self, *a, **k):
        runs.append(_op_names(self._logical_plan.dag))
        return run_iter(self, *a, **k)

    def counted_all(self, *a, **k):
        if not self.has_computed_output():
            runs.append(_op_names(self._logical_plan.dag))
        return run_all(self, *a, **k)

    monkeypatch.setattr(ExecutionPlan, "execute_to_iterator", counted_iter)
    monkeypatch.setattr(ExecutionPlan, "execute", counted_all)

    pages = str(tmp_path / "pages")
    write_pages(pages, 300, rows_per_file=100)
    d = str(tmp_path / "idx")
    build_from_pages(pages, d, num_buckets=4, resume=False)

    # the delta overlaps the base, and carries the same sha256(html)
    # identity as the extract checkpoint, so the known-content skip runs
    t = generate_pages(400).slice(250)
    delta = pa.table({
        "doc_id": pa.array(10**15 + np.arange(t.num_rows, dtype=np.int64)),
        "url": t["url"], "text": t["text"], "lang": t["lang"],
        "hash": pa.array([content_hash(h) for h in t["html"].to_pylist()])})
    # dedup (the loser shuffle), the known-content skip join and the
    # doc_id audit all run on an append
    added = append_index(rd.from_arrow(delta), d, lang_col="lang",
                         url_col="url", audit_unique=True)["n_added"]
    assert 0 < added < t.num_rows
    victims = [m.doc_id for m in
               BM25Index(d).search("data", max_results=3,
                                   with_spans=False).matches]
    assert delete_docs(d, doc_ids=victims)["n_new"] == len(victims)
    compact_index(d)

    probes = [r for r in runs if any(n.startswith("Limit[") for n in r)]
    assert not probes, probes
    per_udf = collections.Counter(
        n for r in runs for n in set(r)
        if n.endswith(("(_losers)]", "(_matched)]", "(_dups)]")))
    # _losers: the extract-fused dedup of the build and the append's
    # dedup shuffle; _matched: the append's skip join; _dups: its audit
    assert per_udf == {"MapBatches[MapBatches(_losers)]": 2,
                       "MapBatches[MapBatches(_matched)]": 1,
                       "MapBatches[MapBatches(_dups)]": 1}, per_udf
