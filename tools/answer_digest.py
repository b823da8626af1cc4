"""Digest of the engine's answers over fixed indexes: a change to the
scoring, posting-read or hydration path must leave it unchanged.

    PYTHONPATH=<checkout> python tools/answer_digest.py --work DIR [--bench-seed 7]

The first run builds the indexes under ``DIR`` and later runs reuse
them, so two checkouts are compared on the same files (run the build
once with either).  The indexes:

* ``plain`` / ``salted``: ``tests/test_maxscore.py``'s fixtures over
  the sf0.001 documents (``analyzer="en"``; ``analyzer="simple"`` with
  three salted hot terms);
* ``segmented``: ``tests/test_index_files.py``'s base + appended
  segment + 5 tombstones over 500 generated pages;
* ``bench`` (with ``--bench-seed S``): the ``perfbench`` index of seed
  ``S`` (``query_head`` and ``query_tail`` build the same corpus), with
  200 head and 200 tail queries of that seed.

    PYTHONPATH=<checkout> python tools/answer_digest.py --gates SF_DIR

With ``--gates`` it runs every ``__ray_entry__.queries()`` gate on
``SF_DIR`` instead and prints one sha256 per gate over its output: the
column names, the Arrow types and the rows in canonical order (sorted
by their ``repr``, so floats hash bitwise).  Two checkouts' lines must
match gate for gate.

Per query it hashes ``search`` (with spans) under taat, maxscore and
auto at k = 1, 10, 50, a 4-shard ``ShardedEngine.search`` at the same
k's, every range shard's ``topk(q, 10)``, ``score_terms`` and every
query term's ``PostingList`` (ids, tf, dl, scores, position keys of
every other doc): doc ids, urls, ``scores.tobytes()``, spans and
``total_matches``.  It prints one line per index (answers, sha256) and
one over all of them.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import sys
from pathlib import Path

# an explicit PYTHONPATH checkout wins over this file's own
sys.path.append(str(Path(__file__).resolve().parents[1]))

QUERIES = [
    "data processing pipeline",
    "the data stream",
    "information system window",
    "merge",
    "zzz_nohit",
    "data data data",
    "quick brown fox",
    "documents per second",
    "the data will set you free",
    "search index page",
]
SF = "/root/testdata/sf0.001/documents.parquet"


def build(work: Path, bench_seed: int | None) -> dict[str, str]:
    import numpy as np
    import pyarrow as pa

    import ray.data as rd

    from pdfsearch_ray.pipelines.build import (append_index, build_index,
                                               delete_docs)
    from pdfsearch_ray.pipelines.query import BM25Index

    dirs = {name: str(work / name) for name in
            ("plain", "salted", "segmented")}
    if bench_seed is not None:
        dirs["bench"] = str(work / f"bench{bench_seed}" / "index")
    if not os.path.exists(dirs["plain"]):
        build_index(SF, dirs["plain"], num_buckets=8, analyzer="en")
    if not os.path.exists(dirs["salted"]):
        build_index(SF, dirs["salted"], num_buckets=8, analyzer="simple",
                    hot_terms={"the": 4, "data": 4, "and": 4})
    if not os.path.exists(dirs["segmented"]):
        from pdfsearch_ray.fixtures.gen import generate_pages

        g = generate_pages(500)
        t = pa.table({"doc_id": pa.array(np.arange(500, dtype=np.int64)),
                      "url": g["url"], "text": g["text"], "lang": g["lang"]})
        d = dirs["segmented"]
        build_index(rd.from_arrow(t.slice(0, 300)), d, num_buckets=4,
                    analyzer="en", url_col="url", lang_col="lang")
        append_index(rd.from_arrow(t.slice(300)), d, url_col="url",
                     lang_col="lang")
        victims = [m.doc_id for m in BM25Index(d).search(
            "quick brown fox", max_results=5, with_spans=False).matches]
        delete_docs(d, doc_ids=victims)
    if bench_seed is not None and not os.path.exists(dirs["bench"]):
        from perfbench import inputs

        from pdfsearch_ray.pipelines.build import build_from_pages

        sc = inputs.FULL
        pages = str(work / f"bench{bench_seed}" / "pages")
        inputs.write_pages(inputs.pages_table(bench_seed, sc), pages, sc)
        build_from_pages(pages, dirs["bench"], resume=False, dedup=True,
                         sample_rate=0.1, auto_salt=True,
                         num_buckets=sc.num_buckets, tokenize_batch_size=2048)
    return dirs


def queries_of(name: str, bench_seed: int | None) -> list[str]:
    if name != "bench":
        return QUERIES
    from perfbench import inputs

    return (inputs.head_queries(bench_seed, 200)
            + inputs.tail_pool(bench_seed, inputs.FULL, 200))


def digest(index_dir: str, queries: list[str]) -> tuple[int, str]:
    import numpy as np

    from pdfsearch_ray.pipelines.engine import ShardedEngine
    from pdfsearch_ray.pipelines.query import BM25Index

    h = hashlib.sha256()
    n = 0

    def add(*parts) -> None:
        nonlocal n
        n += 1
        for p in parts:
            h.update(p.tobytes() if isinstance(p, np.ndarray)
                     else repr(p).encode())

    def add_set(ms) -> None:
        add(ms.total_matches,
            [(m.doc_id, m.url, m.spans, m.line_nums) for m in ms.matches],
            np.array([m.score for m in ms.matches]))

    idx = BM25Index(index_dir)
    eng = ShardedEngine(index_dir, n_shards=4, num_cpus=0.25)
    shards = [BM25Index(index_dir, doc_range=r) for r in eng.ranges]
    try:
        for q in queries:
            for method in ("taat", "maxscore", "auto"):
                for k in (1, 10, 50):
                    add_set(idx.search(q, max_results=k, method=method))
            for k in (1, 10, 50):
                add_set(eng.search(q, max_results=k))
            for s in shards:
                add(*s.topk(q, 10))
            add(*idx.score_terms(idx.query_terms(q)))
            for term, p in idx.postings(idx.query_terms(q)).items():
                cands = np.unique(p.ids)[::2]
                add(term, p.df, p.ids, p.tf, p.dl, p.scores,
                    p.position_keys(cands))
    finally:
        eng.shutdown()
    return n, h.hexdigest()


def gate_table(res):
    """A gate's result (Table, Dataset or DataFrame) as one Arrow table."""
    import pandas as pd
    import pyarrow as pa

    from pdfsearch_ray.functions.tables import block_tables

    if isinstance(res, pa.Table):
        return res
    if isinstance(res, pd.DataFrame):
        return pa.Table.from_pandas(res, preserve_index=False)
    tabs = block_tables(res)
    return pa.concat_tables(tabs) if tabs else pa.table({})


def gate_digests(sf_dir: str) -> None:
    import __ray_entry__ as entry

    for name, fn in entry.queries().items():
        t = gate_table(fn(sf_dir))
        h = hashlib.sha256()
        h.update(repr([(f.name, str(f.type)) for f in t.schema]).encode())
        for row in sorted(repr(tuple(r.values())) for r in t.to_pylist()):
            h.update(row.encode())
        print(f"{name}: {t.num_rows} rows sha256 {h.hexdigest()}",
              flush=True)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--work", type=Path)
    ap.add_argument("--bench-seed", type=int, default=None)
    ap.add_argument("--gates", metavar="SF_DIR")
    args = ap.parse_args()
    if (args.work is None) == (args.gates is None):
        ap.error("give exactly one of --work and --gates")

    import ray

    if not ray.is_initialized():
        ray.init(address="local", num_cpus=4, include_dashboard=False,
                 logging_level="ERROR")
    try:
        if args.gates:
            gate_digests(args.gates)
            return
        dirs = build(args.work, args.bench_seed)
        total = hashlib.sha256()
        count = 0
        for name, d in dirs.items():
            n, sha = digest(d, queries_of(name, args.bench_seed))
            print(f"{name}: {n} answers sha256 {sha}", flush=True)
            total.update(sha.encode())
            count += n
        print(f"all: {count} answers sha256 {total.hexdigest()}")
    finally:
        ray.shutdown()


if __name__ == "__main__":
    main()
