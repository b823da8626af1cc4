"""End-to-end build→query correctness vs a brute-force oracle scorer
(SURVEY §5: the distributed engine must agree exactly with a
single-process Python scorer over the same tokens)."""

import math
import shutil

import numpy as np
import pyarrow.parquet as pq
import pytest

from pdfsearch_ray.analysis.analyzer import analyze_en_terms, analyze_simple

SF_DIR = "/root/testdata/sf0.001"
QUERIES = [
    "data processing pipeline",
    "system performance analysis",
    "the quick results",
    "nonexistentterm xyzzy",
    "information",
]


def brute_force_topk(docs, query, analyzer, k, k1=1.2, b=0.75):
    """Single-process oracle: exact BM25 disjunctive top-k."""
    analyze = analyze_en_terms if analyzer == "en" else analyze_simple
    q_terms = sorted(set(analyze(query)))
    tokenized = {did: analyze(t) for did, t in docs.items() if t}
    tokenized = {d: t for d, t in tokenized.items() if t}
    n = len(tokenized)
    avgdl = sum(len(t) for t in tokenized.values()) / max(n, 1)
    scores = {}
    for term in q_terms:
        df = sum(1 for toks in tokenized.values() if term in toks)
        if df == 0:
            continue
        idf = math.log(1.0 + (n - df + 0.5) / (df + 0.5))
        for did, toks in tokenized.items():
            tf = toks.count(term)
            if tf:
                dl = len(toks)
                w = tf / (tf + k1 * (1 - b + b * dl / avgdl))
                scores[did] = scores.get(did, 0.0) + idf * w
    ranked = sorted(scores.items(), key=lambda kv: (-kv[1], kv[0]))
    return ranked[:k]


@pytest.fixture(scope="module")
def docs():
    t = pq.read_table(f"{SF_DIR}/documents.parquet", columns=["doc_id", "text"])
    return dict(zip(t["doc_id"].to_pylist(), t["text"].to_pylist()))


@pytest.fixture(scope="module", params=["en", "simple"])
def built_index(request, ray_session, tmp_path_factory, docs):
    from pdfsearch_ray.pipelines.build import build_index

    analyzer = request.param
    index_dir = str(tmp_path_factory.mktemp(f"idx_{analyzer}"))
    shutil.rmtree(index_dir, ignore_errors=True)
    manifest = build_index(
        f"{SF_DIR}/documents.parquet",
        index_dir,
        analyzer=analyzer,
        lang_col="lang",
        num_buckets=16,
    )
    return analyzer, index_dir, manifest


def test_manifest_stats(built_index, docs, tmp_path):
    import json

    from pdfsearch_ray.state.manifest import IndexManifest

    analyzer, index_dir, manifest = built_index
    assert manifest.n_docs == len(docs)
    assert manifest.avgdl == manifest.total_dl / manifest.n_docs
    # a manifest written with the older avgdl_exact flag still loads
    with open(f"{index_dir}/manifest.json") as f:
        older = dict(json.load(f), avgdl_exact=True)
    with open(tmp_path / "manifest.json", "w") as f:
        json.dump(older, f)
    assert IndexManifest.load(str(tmp_path)) == IndexManifest.load(index_dir)
    analyze = analyze_en_terms if analyzer == "en" else analyze_simple
    expect_total = sum(len(analyze(t)) for t in docs.values() if t)
    assert manifest.total_tokens == expect_total
    assert abs(manifest.avgdl - expect_total / len([t for t in docs.values() if t and analyze(t)])) < 1e-9


def test_rank_identical_topk(built_index, docs):
    from pdfsearch_ray.pipelines.query import BM25Index

    analyzer, index_dir, _ = built_index
    idx = BM25Index(index_dir)
    for q in QUERIES:
        expected = brute_force_topk(docs, q, analyzer, k=10)
        ms = idx.search(q, max_results=10, with_spans=False)
        got = [(m.doc_id, m.score) for m in ms.matches]
        assert [d for d, _ in got] == [d for d, _ in expected], f"query={q!r}"
        np.testing.assert_allclose(
            [s for _, s in got], [s for _, s in expected], rtol=1e-12,
            err_msg=f"query={q!r}",
        )


def test_total_matches(built_index, docs):
    from pdfsearch_ray.pipelines.query import BM25Index

    analyzer, index_dir, _ = built_index
    idx = BM25Index(index_dir)
    q = "information"
    expected = brute_force_topk(docs, q, analyzer, k=10**9)
    ms = idx.search(q, max_results=5, with_spans=False)
    assert ms.total_matches == len(expected)
    assert len(ms.matches) == min(5, len(expected))


def test_spans_and_lines(built_index, docs):
    from pdfsearch_ray.pipelines.query import BM25Index

    analyzer, index_dir, _ = built_index
    idx = BM25Index(index_dir)
    ms = idx.search("data processing", max_results=5, with_spans=True)
    assert ms.matches
    for m in ms.matches:
        assert m.spans, "every OR-hit has at least one phrase span"
        text = docs[m.doc_id]
        for s, ln, line in zip(m.spans, m.line_nums, m.lines):
            assert 0 <= s["start"] <= s["end"] <= len(text)
            assert s["score"] >= 1.0
            assert line in text


def test_best_filter(built_index):
    from pdfsearch_ray.pipelines.query import BM25Index

    analyzer, index_dir, _ = built_index
    idx = BM25Index(index_dir)
    ms = idx.search("data processing pipeline", max_results=10, with_spans=True)
    best = ms.best()
    if best.matches:
        mx = max(s["score"] for m in ms.matches for s in m.spans)
        for m in best.matches:
            for s in m.spans:
                assert s["score"] >= mx


def test_salted_build_identical(ray_session, tmp_path, docs):
    """Salting hot terms must not change any result (north_rule skew):
    the same (doc_id, score) lists, scores bitwise, under every
    scoring method."""
    from pdfsearch_ray.pipelines.build import build_index
    from pdfsearch_ray.pipelines.query import BM25Index

    plain_dir = str(tmp_path / "plain")
    salted_dir = str(tmp_path / "salted")
    build_index(f"{SF_DIR}/documents.parquet", plain_dir, analyzer="simple",
                num_buckets=8)
    hot = {"the": 4, "and": 4, "data": 4, "information": 4}
    build_index(f"{SF_DIR}/documents.parquet", salted_dir, analyzer="simple",
                num_buckets=8, hot_terms=hot)
    a, b = BM25Index(plain_dir), BM25Index(salted_dir)
    for q in QUERIES + ["the and data"]:
        for method in ("taat", "maxscore", "auto"):
            ra, rb = ([(m.doc_id, m.score) for m in
                       h.search(q, 20, with_spans=False, method=method).matches]
                      for h in (a, b))
            assert ra == rb, (q, method)


def test_positional_and_federated_reads_keep_search_scores(ray_session):
    """Phrase, federated and snippet-style position reads decode posting
    blocks on the handle they are given; that handle's search() must
    stay bitwise equal to a fresh handle's.  Each reader is the first
    to touch its own terms, so each one could leave wrong memoized
    scores behind."""
    from pdfsearch_ray.pipelines.boolquery import _phrase_starts
    from pdfsearch_ray.pipelines.build import build_index_mem
    from pdfsearch_ray.pipelines.merge import federated_score_terms

    src = f"{SF_DIR}/documents.parquet"
    fresh = build_index_mem(src, analyzer="simple")
    idx = build_index_mem(src, analyzer="simple")

    def top(h, q):
        return [(m.doc_id, m.score)
                for m in h.search(q, 10, with_spans=False).matches]

    _phrase_starts(idx, ["fast", "scan"])
    assert top(idx, "fast scan") == top(fresh, "fast scan")

    federated_score_terms([idx], ["merge", "window"])
    assert top(idx, "merge window") == top(fresh, "merge window")

    posts = idx.postings(["stream", "table"])
    union = np.unique(np.concatenate([p.ids for p in posts.values()]))
    assert all(p.position_keys(union).size for p in posts.values())
    assert top(idx, "stream table") == top(fresh, "stream table")

    q = "fast scan merge window stream table"
    assert top(idx, q) == top(fresh, q)
    assert top(fresh, q)
