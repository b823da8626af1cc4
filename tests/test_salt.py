"""Hot-term salting by doc-id chunk (``stages/tokenize.salt_of``).

A hot term's postings are split over ``s`` salts by the hash of each
doc's ``BLOCK_SIZE``-id chunk, so every salted run is a union of whole
id stretches: the salts must still share the postings out evenly (even
for ids that stride by ``BLOCK_SIZE * s``), the runs must keep the
delta-coding locality of an unsalted list, and an index whose segments
were salted under different rules must answer like any other."""

import io

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import pytest

from pdfsearch_ray.index.codec import BLOCK_SIZE
from pdfsearch_ray.stages.tokenize import Tokenizer

QUERIES = ["quick brown fox", "data set free", "page index",
           "engineers measure throughput", "fast search"]


def _per_salt_postings(ids: np.ndarray, s: int) -> np.ndarray:
    """Postings per salt of one hot term in every doc of ``ids``."""
    t = pa.table({"doc_id": pa.array(ids, type=pa.int64()),
                  "text": pa.array(["zeta"] * ids.size)})
    out = Tokenizer(analyzer="simple", hot_terms={"zeta": s}, combine=True,
                    with_positions=False)(t)
    counts = np.zeros(s, dtype=np.int64)
    np.add.at(counts, out["salt"].to_numpy(),
              pc.list_value_length(out["seg_docs"]).to_numpy())
    return counts


@pytest.mark.parametrize("stride", [1, BLOCK_SIZE * 5])
def test_salts_share_a_hot_term_evenly(stride):
    """Every salt gets postings, sequential ids or not: ids that stride
    by ``BLOCK_SIZE * s`` would all land in one salt if chunks were
    dealt round-robin.  Measured max/mean: 1.09 sequential, 1.01
    strided."""
    counts = _per_salt_postings(np.arange(20_000, dtype=np.int64) * stride, 5)
    assert counts.sum() == 20_000
    assert counts.min() > 0
    assert counts.max() / counts.mean() < 1.4, counts


def _postings_bytes(pages: pa.Table, hot: dict[str, int]) -> int:
    """Bytes of the posting blocks a build of ``pages`` writes under
    the writer policy, tokenized and encoded in this process."""
    from pdfsearch_ray.index.build_blocks import encode_bucket_segments
    from pdfsearch_ray.index.codec import INDEX_WRITE_OPTIONS

    segs, dl = Tokenizer(analyzer="en", hot_terms=hot, combine=True,
                         num_buckets=16)._combine_vectorized(pages)
    ids = pages["doc_id"].to_numpy()
    avgdl = float(dl.sum()) / max(int((dl > 0).sum()), 1)
    nbytes = 0
    for b in np.unique(segs["bucket"].to_numpy()):
        g = segs.filter(pc.equal(segs["bucket"], int(b)))
        blocks = encode_bucket_segments(g, doc_dl=(ids, dl.astype(np.uint32)),
                                        k1=1.2, b=0.75, avgdl=avgdl)
        buf = io.BytesIO()
        pq.write_table(blocks, buf, row_group_size=1024,
                       **INDEX_WRITE_OPTIONS["postings"])
        nbytes += buf.tell()
    return nbytes


def test_salted_runs_keep_delta_locality():
    """Salting every head term (df >= 1/4 of the docs) 5 ways, the
    benchmark's salt spec, costs under 30 % more posting bytes than no
    salting.  A per-doc hash measured 1.57x: each salted run's doc-id
    gaps grow about s-fold; a per-chunk hash measured 1.12x."""
    from pdfsearch_ray.fixtures.gen import generate_pages

    g = generate_pages(2000)
    pages = pa.table({"doc_id": pa.array(np.arange(2000, dtype=np.int64)),
                      "text": g["text"]})
    plain = Tokenizer(analyzer="en", combine=True, with_positions=False)(pages)
    df: dict[str, int] = {}
    for term, docs in zip(plain["term"].to_pylist(),
                          pc.list_value_length(plain["seg_docs"]).to_pylist()):
        df[term] = df.get(term, 0) + docs
    hot = {t: 5 for t, n in df.items() if n >= 2000 // 4}
    assert len(hot) >= 5
    ratio = _postings_bytes(pages, hot) / _postings_bytes(pages, {})
    assert ratio <= 1.3, ratio


def _old_salt_of(doc_ids: np.ndarray, s) -> np.ndarray:
    """The per-doc salt rule of earlier builds: ``mix64(doc_id) % s``."""
    from pdfsearch_ray.functions.hashing import mix64

    return (mix64(doc_ids.astype(np.uint64))
            % np.asarray(s, dtype=np.uint64)).astype(np.int64)


def _rewrite_postings(index_dir: str, docs: pa.Table) -> None:
    """Re-encode ``index_dir``'s base posting blocks in this process,
    with whatever salt rule ``salt_of`` is at the time of the call, over
    the base's own docs catalog and manifest."""
    import glob
    import os

    from pdfsearch_ray.index.build_blocks import (catalog_doc_lengths,
                                                  encode_bucket_segments)
    from pdfsearch_ray.index.codec import INDEX_WRITE_OPTIONS
    from pdfsearch_ray.state.manifest import (IndexManifest,
                                              postings_file_name)

    m = IndexManifest.load(index_dir)
    segs = Tokenizer(analyzer=m.analyzer, num_buckets=m.num_buckets,
                     hot_terms=m.salt_spec, combine=True)(docs)
    doc_dl = catalog_doc_lengths(f"{index_dir}/docs")
    for f in glob.glob(f"{index_dir}/postings/*.parquet"):
        os.remove(f)
    for b in np.unique(segs["bucket"].to_numpy()):
        g = segs.filter(pc.equal(segs["bucket"], int(b)))
        pq.write_table(
            encode_bucket_segments(g, doc_dl=doc_dl, k1=m.k1, b=m.b,
                                   avgdl=m.avgdl, block_size=m.block_size),
            f"{index_dir}/postings/{postings_file_name(int(b))}",
            row_group_size=1024, **INDEX_WRITE_OPTIONS["postings"])


def _follows(pattern: str, hot: dict[str, int], rule) -> bool:
    """Whether every block of a hot term in the posting files matching
    ``pattern`` sits in the salt ``rule`` gives its first doc."""
    import glob

    t = pa.concat_tables(
        pq.read_table(f, columns=["term", "salt", "first_doc"])
        for f in sorted(glob.glob(pattern)))
    for term, s in hot.items():
        b = t.filter(pc.equal(t["term"], term))
        assert b.num_rows, term
        if not np.array_equal(rule(b["first_doc"].to_numpy(), s),
                              b["salt"].to_numpy()):
            return False
    return True


def _assert_answers_agree(index_dir: str) -> None:
    """``search`` under every method ranks like an exhaustive TAAT
    ``score_terms`` top-10, scores bitwise equal."""
    from pdfsearch_ray.pipelines.query import BM25Index

    idx = BM25Index(index_dir)
    for q in QUERIES:
        ids, sc = idx.score_terms(idx.query_terms(q))
        top = np.lexsort((ids, -sc))[:10]
        want = list(zip(ids[top].tolist(), sc[top].tolist()))
        assert want, q
        for method in ("taat", "maxscore", "auto"):
            ms = idx.search(q, max_results=10, with_spans=False,
                            method=method)
            assert [(h.doc_id, h.score) for h in ms.matches] == want, \
                (q, method)


def test_mixed_salt_layouts_answer_alike(ray_session, tmp_path, monkeypatch):
    """A base salted per doc (the earlier rule), an appended segment and
    then the compacted index salted per chunk: readers never recompute
    a salt, so every layout answers the same."""
    import ray.data as rd

    import pdfsearch_ray.stages.tokenize as tokenize
    from pdfsearch_ray.fixtures.gen import generate_pages
    from pdfsearch_ray.pipelines.build import (append_index, build_index,
                                               compact_index)

    g = generate_pages(900)
    t = pa.table({"doc_id": pa.array(np.arange(900, dtype=np.int64)),
                  "url": g["url"], "text": g["text"], "lang": g["lang"]})
    d = str(tmp_path / "idx")
    hot = {"page": 5, "index": 4, "search": 3}
    build_index(rd.from_arrow(t.slice(0, 600)), d, num_buckets=4,
                analyzer="en", url_col="url", lang_col="lang",
                hot_terms=hot)
    assert _follows(f"{d}/postings/*", hot, tokenize.salt_of)
    with monkeypatch.context() as mp:
        mp.setattr(tokenize, "salt_of", _old_salt_of)
        _rewrite_postings(d, t.slice(0, 600).select(["doc_id", "text"]))
    assert _follows(f"{d}/postings/*", hot, _old_salt_of)
    assert not _follows(f"{d}/postings/*", hot, tokenize.salt_of)
    _assert_answers_agree(d)

    append_index(rd.from_arrow(t.slice(600)), d, url_col="url",
                 lang_col="lang")
    assert _follows(f"{d}/segments/*/postings/*", hot, tokenize.salt_of)
    _assert_answers_agree(d)

    compact_index(d)
    assert _follows(f"{d}/postings/*", hot, tokenize.salt_of)
    _assert_answers_agree(d)
