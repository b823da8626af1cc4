"""Block-max MaxScore scoring must be rank- and score-identical to the
exhaustive TAAT oracle path on every query shape (incl. salted builds)."""

import numpy as np
import pytest


@pytest.fixture(scope="module")
def indexes(ray_session, tmp_path_factory):
    from pdfsearch_ray.pipelines.build import build_index

    out = {}
    for name, kwargs in {
        "plain": dict(analyzer="en"),
        "salted": dict(analyzer="simple",
                       hot_terms={"the": 4, "data": 4, "and": 4}),
    }.items():
        d = str(tmp_path_factory.mktemp(f"ms_{name}"))
        build_index("/root/testdata/sf0.001/documents.parquet", d,
                    num_buckets=8, **kwargs)
        out[name] = d
    return out


QUERIES = [
    "data processing pipeline",
    "the data stream",
    "information system window",
    "merge",
    "zzz_nohit",
    "data data data",  # duplicate query terms
]


@pytest.mark.parametrize("which", ["plain", "salted"])
def test_maxscore_equals_taat(indexes, which):
    from pdfsearch_ray.pipelines.query import BM25Index

    idx = BM25Index(indexes[which])
    for q in QUERIES:
        for k in (1, 3, 10, 50):
            a = idx.search(q, max_results=k, with_spans=False, method="taat")
            b = idx.search(q, max_results=k, with_spans=False, method="maxscore")
            assert [(m.doc_id, m.score) for m in a.matches] == [
                (m.doc_id, m.score) for m in b.matches], (q, k)


def test_maxscore_prunes_decodes(ray_session, tmp_path):
    """k=1 over a rare and a common term: MaxScore decodes the rare
    term's one block, then PROBEs the common term's run only in the
    block the rare docs fall in — 2 of 126 blocks — and still answers
    exactly as TAAT does."""
    import pyarrow as pa

    import ray.data as rd

    from pdfsearch_ray.pipelines.build import build_index
    from pdfsearch_ray.pipelines.query import BM25Index

    texts = [f"common filler w{i % 13}" for i in range(2000)] + \
        ["rare rare"] * 5
    d = str(tmp_path / "idx")
    build_index(rd.from_arrow(pa.table({
        "doc_id": pa.array(range(len(texts)), pa.int64()),
        "text": pa.array(texts)})), d, analyzer="simple", num_buckets=4,
        block_size=16)
    idx = BM25Index(d)
    got = idx.search("rare common", max_results=1, with_spans=False,
                     method="maxscore")
    masks = [r["decoded"] for t in ("rare", "common")
             for r in idx._term_cache[t]]
    blocks = sum(m.size for m in masks)
    decoded = sum(int(m.sum()) for m in masks)
    assert blocks == 126 and decoded == 2, (decoded, blocks)
    want = BM25Index(d).search("rare common", max_results=1,
                               with_spans=False, method="taat")
    assert [(m.doc_id, m.score) for m in got.matches] == [
        (m.doc_id, m.score) for m in want.matches]


def test_maxscore_probe_hits_a_block_inside_an_encoded_run(ray_session,
                                                           tmp_path):
    """The rare docs sit in the middle of the common term's run and hold
    the common term too: MaxScore decodes the rare term's block and only
    the one common block they fall in, with encoded blocks on both
    sides, and the probe must still find their common postings — the
    scores equal TAAT's bit for bit."""
    import pyarrow as pa

    import ray.data as rd

    from pdfsearch_ray.pipelines.build import build_index
    from pdfsearch_ray.pipelines.query import BM25Index

    texts = [f"common filler w{i % 13}" for i in range(2000)]
    for i in range(1000, 1005):
        texts[i] = "rare rare common"
    d = str(tmp_path / "idx")
    build_index(rd.from_arrow(pa.table({
        "doc_id": pa.array(range(len(texts)), pa.int64()),
        "text": pa.array(texts)})), d, analyzer="simple", num_buckets=4,
        block_size=16)
    idx = BM25Index(d)
    for k in (1, 3):
        got = idx.search("rare common", max_results=k, with_spans=False,
                         method="maxscore")
        want = BM25Index(d).search("rare common", max_results=k,
                                   with_spans=False, method="taat")
        assert [(m.doc_id, m.score) for m in got.matches] == [
            (m.doc_id, m.score) for m in want.matches], k
    masks = [r["decoded"] for r in idx._term_cache["common"]]
    decoded = np.flatnonzero(np.concatenate(masks))
    assert decoded.size == 1 and 0 < decoded[0] < sum(m.size for m in masks) - 1


def test_bulk_decode_equals_per_block():
    """The codec's bulk block decoder (one varint pass over concatenated
    blobs, segmented cumsum for docID restarts) must reproduce a
    per-block decode bit-for-bit on every field, and a handle's
    PostingList must carry exactly those fields with scores =
    idf × bm25_wdl."""
    import pyarrow as pa

    from pdfsearch_ray.index.codec import (bm25_wdl, decode_posting_blocks,
                                           varint_decode, varint_encode)
    from pdfsearch_ray.pipelines.query import BM25Index
    from pdfsearch_ray.state.manifest import IndexManifest

    rng = np.random.default_rng(11)
    manifest = IndexManifest(n_docs=1000, avgdl=50.0, total_tokens=50000,
                             analyzer="en", analyzer_version="t", k1=1.2,
                             b=0.75, num_buckets=4, block_size=8,
                             salt_spec={})
    blocks = []
    start = 0
    for nb in (1, 3, 8, 8, 5):  # includes n==1 (empty gap stream) blocks
        ids = np.sort(rng.choice(np.arange(start, start + 5000), nb,
                                 replace=False)).astype(np.uint64)
        start += 5000
        tf = rng.integers(1, 30, nb).astype(np.uint64)
        dl = rng.integers(10, 300, nb).astype(np.uint64)
        blocks.append({
            "first_doc": int(ids[0]), "n": nb,
            "doc_blob": varint_encode(ids[1:] - ids[:-1]),
            "tf_blob": varint_encode(tf), "ids": ids, "dl": dl,
        })
    ids, tf = decode_posting_blocks(
        *([b[k] for b in blocks]
          for k in ("first_doc", "n", "doc_blob", "tf_blob")))
    ref_ids, ref_tf = [], []
    for b in blocks:
        gaps = varint_decode(b["doc_blob"], count=b["n"] - 1)
        ref_ids.append(np.uint64(b["first_doc"])
                       + np.r_[np.uint64(0), np.cumsum(gaps, dtype=np.uint64)])
        ref_tf.append(varint_decode(b["tf_blob"], count=b["n"]))
    ref_ids, ref_tf = (np.concatenate(x) for x in (ref_ids, ref_tf))
    # a doc's length lives in the docs catalog, one row per doc
    ref_dl = np.concatenate([b["dl"] for b in blocks])
    np.testing.assert_array_equal(ids, ref_ids)
    np.testing.assert_array_equal(tf, ref_tf)

    postings = pa.table({
        "term": ["t"] * len(blocks),
        "salt": pa.array([0] * len(blocks), type=pa.int32()),
        "block_id": pa.array(range(len(blocks)), type=pa.int32()),
        "first_doc": pa.array([b["first_doc"] for b in blocks], pa.int64()),
        "n": pa.array([b["n"] for b in blocks], type=pa.int32()),
        **{k: pa.array([b[k] for b in blocks], type=pa.large_binary())
           for k in ("doc_blob", "tf_blob")},
        "pos_blob": pa.array([b""] * len(blocks), type=pa.large_binary()),
        "max_wdl": pa.array([1.0] * len(blocks), type=pa.float32()),
    })
    docs = pa.table({"doc_id": pa.array(ref_ids.astype(np.int64)),
                     "url": pa.array([""] * ref_ids.size, pa.string()),
                     "dl": pa.array(ref_dl.astype(np.uint32)),
                     "text": pa.array([""] * ref_ids.size, pa.string())})
    idx = BM25Index.from_tables(manifest, postings, docs)
    post = idx.postings(["t"])["t"]
    assert post.df == ref_ids.size and post.idf == idx.idf("t") > 0
    np.testing.assert_array_equal(post.ids, ref_ids)
    np.testing.assert_array_equal(post.tf, ref_tf)
    np.testing.assert_array_equal(post.dl, ref_dl)
    np.testing.assert_array_equal(
        post.scores, post.idf * bm25_wdl(ref_tf, ref_dl, 1.2, 0.75, 50.0))


def test_auto_method_rank_identical(indexes):
    """method='auto' must return the same ranks/scores as both explicit
    methods regardless of which side of the crossover a query lands."""
    from pdfsearch_ray.pipelines.query import BM25Index

    idx = BM25Index(indexes["plain"])
    for q in QUERIES:
        a = idx.search(q, max_results=10, with_spans=False, method="taat")
        c = idx.search(q, max_results=10, with_spans=False, method="auto")
        assert [(m.doc_id, m.score) for m in a.matches] == [
            (m.doc_id, m.score) for m in c.matches], q


def _mass_tie_index(tmp_path) -> str:
    """3,000 docs that all hold "alpha beta gamma" 5 times, plus one of
    7 filler words."""
    import pyarrow as pa

    import ray.data as rd

    from pdfsearch_ray.pipelines.build import build_index

    n = 3000
    text = "alpha beta gamma " * 5
    t = pa.table({
        "doc_id": pa.array(list(range(n)), type=pa.int64()),
        "text": pa.array([text + f"w{i % 7}" for i in range(n)]),
    })
    d = str(tmp_path / "tie")
    build_index(rd.from_arrow(t), d, analyzer="simple", num_buckets=8)
    return d


def test_maxscore_mass_tie_corpus(ray_session, tmp_path):
    """Degenerate corpus: every doc contains every query term with the
    same tf, so scores mass-tie (the 1M-doc smoke's shape).  Guards the
    scale paths: unbounded tie selection in the exact-recompute tail and
    per-block probe masks were quadratic here.  MaxScore must stay
    rank/score-identical to TAAT, with ties resolved by doc_id asc."""
    from pdfsearch_ray.pipelines.query import BM25Index

    idx = BM25Index(_mass_tie_index(tmp_path))
    for q in ("alpha beta gamma", "alpha", "alpha w3"):
        a = idx.search(q, max_results=10, with_spans=False, method="taat")
        b = idx.search(q, max_results=10, with_spans=False,
                       method="maxscore")
        assert [(m.doc_id, m.score) for m in a.matches] == [
            (m.doc_id, m.score) for m in b.matches], q
    # mass tie resolves to the smallest doc_ids
    ms = idx.search("alpha beta gamma", max_results=5, with_spans=False,
                    method="maxscore")
    assert [m.doc_id for m in ms.matches] == sorted(
        m.doc_id for m in ms.matches)


def test_maxscore_fold_path_equals_taat(ray_session, tmp_path,
                                        monkeypatch):
    """MaxScore's GROW folds its pending postings into one exact
    aggregation once ``MAXSCORE_FOLD_POSTINGS`` of them are pending.
    With the constant set low the mass-tie corpus folds after its first
    run, and forced MaxScore still equals TAAT bitwise."""
    from pdfsearch_ray.pipelines import query
    from pdfsearch_ray.pipelines.query import BM25Index

    idx = BM25Index(_mass_tie_index(tmp_path))
    want = {q: [(m.doc_id, m.score) for m in idx.search(
        q, max_results=10, with_spans=False, method="taat").matches]
        for q in ("alpha beta gamma", "alpha", "alpha w3")}
    sizes = []
    agg = query.aggregate_scores
    monkeypatch.setattr(query, "MAXSCORE_FOLD_POSTINGS", 64)
    monkeypatch.setattr(query, "aggregate_scores",
                        lambda ids, sc: sizes.append(ids.size) or agg(ids, sc))
    for q, top in want.items():
        sizes.clear()
        ms = idx.search(q, max_results=10, with_spans=False,
                        method="maxscore")
        assert [(m.doc_id, m.score) for m in ms.matches] == top, q
        if q == "alpha beta gamma":
            # folded after the first run (3,000 postings): the exact
            # bound stops GROW after the second, and the third run is
            # probed.  Without the fold GROW decodes all three runs and
            # aggregates 9,000 postings once.  (The per-run scoreboard
            # merges stay under 4k + 16 + k = 66.)
            assert [n for n in sizes if n > 66] == [3000, 6000], sizes


def test_maxscore_concentrated_top_contributions(ray_session, tmp_path):
    """Regression: θ_lower must be a per-DOC bound.  When the k largest
    single-run contributions concentrate in fewer than k distinct docs
    (here: two rare high-tf terms co-occurring in the same 5 docs), a
    bound taken from raw contribution values over-estimates the true
    k-th best total and GROW stops before the low-bound-only term's
    run, silently dropping docs that match only that term."""
    import pyarrow as pa

    import ray.data as rd

    from pdfsearch_ray.pipelines.build import build_index
    from pdfsearch_ray.pipelines.query import BM25Index

    rows = []
    for i in range(200):
        if i < 5:
            # apple+orange live ONLY here, with big tf: the top 10
            # single contributions are all from these 5 docs
            rows.append("apple orange " * 8 + "filler")
        elif i < 15:
            rows.append("zebra common filler text here")
        else:
            rows.append(f"common filler text number w{i % 11}")
    t = pa.table({
        "doc_id": pa.array(list(range(200)), type=pa.int64()),
        "text": pa.array(rows),
    })
    d = str(tmp_path / "conc")
    build_index(rd.from_arrow(t), d, analyzer="simple", num_buckets=4)
    idx = BM25Index(d)
    for q in ("apple orange zebra", "apple orange zebra common"):
        for k in (8, 10, 20):
            a = idx.search(q, max_results=k, with_spans=False,
                           method="taat")
            b = idx.search(q, max_results=k, with_spans=False,
                           method="maxscore")
            assert [(m.doc_id, m.score) for m in a.matches] == [
                (m.doc_id, m.score) for m in b.matches], (q, k)
    # the specific failure: k=10 must surface zebra-only docs
    ms = idx.search("apple orange zebra", max_results=10,
                    with_spans=False, method="maxscore")
    assert len(ms.matches) == 10
    assert sum(1 for m in ms.matches if m.doc_id >= 5) == 5


def test_forced_maxscore_equals_taat_on_appended_tombstoned_index(
        ray_session, tmp_path):
    """Forced MaxScore on a segmented, tombstoned index: the fixture
    generator's pages as the base, an appended segment that repeats one
    small-vocabulary text (a mass tie that straddles the two segments'
    docID runs) plus fresh pages, and 1% of the ids deleted.  Every
    top-10 (doc_id, score) equals the TAAT top-10."""
    import random

    import pyarrow as pa

    import ray.data as rd

    from pdfsearch_ray.fixtures.gen import WORDS, generate_pages
    from pdfsearch_ray.pipelines.build import (append_index, build_index,
                                               delete_docs)
    from pdfsearch_ray.pipelines.query import BM25Index

    pages = generate_pages(2400)
    texts = pages["text"].to_pylist()
    tie = "data stream window merge join query"
    base = texts[:1600] + [tie] * 200
    delta = texts[1600:] + [tie] * 300
    n_docs = len(base) + len(delta)
    d = str(tmp_path / "idx")
    build_index(rd.from_arrow(pa.table({
        "doc_id": pa.array(range(len(base)), pa.int64()),
        "text": pa.array(base)})), d, analyzer="en", num_buckets=4)
    append_index(rd.from_arrow(pa.table({
        "doc_id": pa.array(range(len(base), n_docs), pa.int64()),
        "text": pa.array(delta)})), d)
    rng = random.Random(7)
    victims = sorted(rng.sample(range(n_docs), n_docs // 100))
    assert delete_docs(d, doc_ids=victims)["n_new"] == len(victims)

    vocab = sorted(set(WORDS))
    queries = [tie, "data", "stream window"] + [
        " ".join(rng.sample(vocab, rng.randint(2, 4))) for _ in range(40)]
    idx = BM25Index(d)
    assert len(idx.manifest.segments) >= 2 and idx.live_mask(
        np.asarray(victims, dtype=np.uint64)).sum() == 0
    for q in queries:
        ids, sc = idx.score_terms(idx.query_terms(q))
        top = np.lexsort((ids, -sc))[:10]
        want = list(zip(ids[top].tolist(), sc[top].tolist()))
        ms = idx.search(q, max_results=10, with_spans=False,
                        method="maxscore")
        assert [(m.doc_id, m.score) for m in ms.matches] == want, q


def test_aggregate_scores_equals_sequential_add_at():
    """Above 65,536 postings (4 docID-sorted runs sharing ids, as a
    4-term query concatenates them) the group-sum is bitwise equal to
    a sequential ``np.add.at`` over the postings in input order."""
    from pdfsearch_ray.index.codec import aggregate_scores

    rng = np.random.default_rng(5)
    runs = [np.sort(rng.choice(30_000, 20_000, replace=False))
            for _ in range(4)]
    ids = np.concatenate(runs).astype(np.uint64)
    sc = rng.random(ids.size) * 10.0 ** rng.integers(-3, 3, ids.size)
    assert ids.size > 65_536

    uniq, inv = np.unique(ids, return_inverse=True)
    ref = np.zeros(uniq.size)
    np.add.at(ref, inv, sc)

    got_ids, got_sc = aggregate_scores(ids, sc)
    order = np.argsort(got_ids)
    np.testing.assert_array_equal(got_ids[order], uniq)
    assert got_sc[order].tobytes() == ref.tobytes()


def test_forced_maxscore_equals_taat_above_65536_postings():
    """A query over more than 65,536 postings on an in-memory index:
    forced MaxScore gives the same top-10 (doc_id, score) as TAAT, and
    both equal a sequential ``np.add.at`` over the postings in TAAT's
    term order."""
    import pyarrow as pa

    from pdfsearch_ray.index.codec import bm25_idf, bm25_wdl, varint_encode
    from pdfsearch_ray.pipelines.query import BM25Index
    from pdfsearch_ray.state.manifest import IndexManifest

    rng = np.random.default_rng(17)
    n_docs, block = 40_000, 128
    doc_dl = rng.integers(20, 300, n_docs)
    manifest = IndexManifest(
        n_docs=n_docs, avgdl=float(doc_dl.mean()),
        total_tokens=int(doc_dl.sum()), analyzer="simple",
        analyzer_version="t", k1=1.2, b=0.75, num_buckets=1,
        block_size=block, salt_spec={})
    rows = {k: [] for k in ("term", "block_id", "first_doc", "n", "doc_blob",
                            "tf_blob", "max_wdl")}
    ref_ids, ref_sc = [], []
    # sorted term order — the order TAAT accumulates in
    for term, df, tf_hi in (("alpha", 30_000, 4), ("beta", 25_000, 6),
                            ("delta", 200, 40), ("gamma", 15_000, 9)):
        ids = np.sort(rng.choice(n_docs, df, replace=False)).astype(np.uint64)
        tf = rng.integers(1, tf_hi, df).astype(np.uint64)
        dl = doc_dl[ids.astype(np.int64)].astype(np.uint64)
        wdl = bm25_wdl(tf, dl, manifest.k1, manifest.b, manifest.avgdl)
        ref_ids.append(ids)
        ref_sc.append(float(bm25_idf(n_docs, df)) * wdl)
        for j, s in enumerate(range(0, df, block)):
            e = min(s + block, df)
            rows["term"].append(term)
            rows["block_id"].append(j)
            rows["first_doc"].append(int(ids[s]))
            rows["n"].append(e - s)
            rows["doc_blob"].append(varint_encode(np.diff(ids[s:e])))
            rows["tf_blob"].append(varint_encode(tf[s:e]))
            rows["max_wdl"].append(float(wdl[s:e].max()))
    n_blocks = len(rows["term"])
    postings = pa.table({
        "term": rows["term"],
        "salt": pa.array([0] * n_blocks, pa.int32()),
        "block_id": pa.array(rows["block_id"], pa.int32()),
        "first_doc": pa.array(rows["first_doc"], pa.int64()),
        "n": pa.array(rows["n"], pa.int32()),
        **{k: pa.array(rows[k], pa.large_binary())
           for k in ("doc_blob", "tf_blob")},
        "pos_blob": pa.array([b""] * n_blocks, pa.large_binary()),
        "max_wdl": pa.array(rows["max_wdl"], pa.float64()),
    })
    docs = pa.table({"doc_id": pa.array(np.arange(n_docs), pa.int64()),
                     "url": [f"u{i}" for i in range(n_docs)],
                     "dl": pa.array(doc_dl, pa.uint32()),
                     "text": [""] * n_docs})
    idx = BM25Index.from_tables(manifest, postings, docs)

    ids = np.concatenate(ref_ids)
    assert ids.size > 65_536
    uniq, inv = np.unique(ids, return_inverse=True)
    ref = np.zeros(uniq.size)
    np.add.at(ref, inv, np.concatenate(ref_sc))
    top = np.lexsort((uniq, -ref))[:10]
    want = list(zip(uniq[top].tolist(), ref[top].tolist()))

    q = "alpha beta gamma delta"
    for method in ("taat", "maxscore"):
        ms = idx.search(q, max_results=10, with_spans=False, method=method)
        assert [(m.doc_id, m.score) for m in ms.matches] == want, method
