"""Tiered-index cascade + impact-ordered postings (pipelines/tiering.py).

Pins: (1) the tier files PARTITION the postings multiset by the tf
thresholds; (2) the cascade is load-bearing — the fixed query set stops
at three different tiers at sf0.001; (3) a degenerate one-tier build
reproduces exhaustive TAAT ranks exactly; (4) the impact artifact's
integer quantization and ordering contract; (5) early termination is
set-exact AND actually prunes work on a head query.
"""

import numpy as np
import pyarrow.parquet as pq
import pytest

SF = "/root/testdata/sf0.001"


def _read_tier_rows(tdir, tier):
    import glob
    import os

    parts = []
    for p in sorted(glob.glob(os.path.join(tdir, f"tier={tier}",
                                           "bucket=*", "part.parquet"))):
        parts.append(pq.read_table(p))
    if not parts:
        return None
    import pyarrow as pa

    return pa.concat_tables(parts)


def _full_postings(sf_dir):
    """(term, doc_id, tf) multiset straight from the raw text."""
    import duckdb

    con = duckdb.connect()
    con.sql(f"CREATE VIEW documents AS SELECT * FROM "
            f"read_parquet('{sf_dir}/documents.parquet')")
    return con.sql("""
        SELECT term, doc_id, count(*) AS tf FROM (
          SELECT doc_id, unnest(regexp_split_to_array(lower(text),
                                '[^a-z0-9]+')) AS term FROM documents)
        WHERE term <> '' GROUP BY term, doc_id
        ORDER BY term, doc_id""").df()


def test_tiers_partition_postings(ray_session):
    from pdfsearch_ray.pipelines.tiering import (TIER_THRESHOLDS,
                                                 tiered_index_cached)

    tdir = tiered_index_cached(SF)
    n_tiers = len(TIER_THRESHOLDS) + 1
    got = []
    for ti in range(n_tiers):
        t = _read_tier_rows(tdir, ti)
        if t is None:
            continue
        tf = t["tf"].to_numpy()
        # threshold contract per tier
        if ti == 0:
            assert (tf >= TIER_THRESHOLDS[0]).all()
        elif ti < n_tiers - 1:
            assert (tf >= TIER_THRESHOLDS[ti]).all()
            assert (tf < TIER_THRESHOLDS[ti - 1]).all()
        else:
            assert (tf < TIER_THRESHOLDS[-1]).all()
        got.append(t.select(["term", "doc_id", "tf"]).to_pandas())
    import pandas as pd

    union = (pd.concat(got).sort_values(["term", "doc_id"])
             .reset_index(drop=True))
    full = _full_postings(SF).reset_index(drop=True)
    # disjoint (no duplicate (term, doc) across tiers) + complete
    assert not union.duplicated(["term", "doc_id"]).any()
    pd.testing.assert_frame_equal(
        union.astype({"doc_id": "int64", "tf": "int64"}),
        full.astype({"doc_id": "int64", "tf": "int64"}),
        check_dtype=False)


def test_cascade_is_load_bearing(ray_session):
    from pdfsearch_ray.pipelines.tiering import tiered_topk

    out = tiered_topk(SF).to_pandas()
    stop = dict(out.groupby("query")["tier"].first())
    # three different stopping tiers at sf0.001 (measured in-session)
    assert stop["scan join hash"] == 0
    assert stop["big"] == 1
    assert stop["dup"] == 2
    # OOV query contributes no rows at all
    assert "quantile histogram" not in set(out["query"])
    # per-query output is exactly K (corpus has >= K docs everywhere)
    assert (out.groupby("query").size() == 10).all()


def test_one_tier_degenerates_to_exhaustive(ray_session):
    """thresholds=(1,): tier 0 holds EVERY posting, so the cascade
    answer must equal exhaustive TAAT scoring over the same index."""
    import pyarrow as pa

    from pdfsearch_ray.analysis.analyzer import analyze_simple
    from pdfsearch_ray.index.codec import bm25_wdl
    from pdfsearch_ray.pipelines.expand import simple_index_cached
    from pdfsearch_ray.pipelines.query import BM25Index
    from pdfsearch_ray.pipelines.tiering import (TIER_K, _tier_rows,
                                                 tiered_index_cached)
    from pdfsearch_ray.pipelines.prune import term_buckets

    tdir = tiered_index_cached(SF, thresholds=(1,))
    idx = BM25Index(simple_index_cached(SF))
    m = idx.manifest
    q = "scan join hash"
    terms = sorted(set(analyze_simple(q)))
    rows = _tier_rows(tdir, term_buckets(m, terms), terms, 0)
    assert rows is not None
    assert _tier_rows(tdir, term_buckets(m, terms), terms, 1) is None
    t_arr = np.asarray(rows["term"].to_pylist(), dtype=object)
    ids = rows["doc_id"].to_numpy()
    w = bm25_wdl(rows["tf"].to_numpy().astype(np.float64),
                 rows["dl"].to_numpy().astype(np.float64),
                 m.k1, m.b, m.avgdl)
    for t in terms:
        w[t_arr == t] *= idx.idf(t)
    uniq, inv = np.unique(ids, return_inverse=True)
    agg = np.zeros(uniq.size)
    np.add.at(agg, inv, w)
    # exhaustive reference: the engine's own TAAT scorer
    ref_ids, ref_sc = idx.score_terms(terms)
    order = np.lexsort((uniq, -np.round(agg, 6)))[:TIER_K]
    r_order = np.lexsort((ref_ids.astype(np.int64),
                          -np.round(ref_sc, 6)))[:TIER_K]
    assert uniq[order].tolist() == \
        ref_ids.astype(np.int64)[r_order].tolist()
    np.testing.assert_allclose(np.round(agg, 6)[order],
                               np.round(ref_sc, 6)[r_order], atol=1e-9)


def test_impact_artifact_contract(ray_session):
    """Per term: impact-desc file order, and imp == round(idf*wdl*100)
    recomputed from raw postings + dictionary stats."""
    import glob
    import os

    import pyarrow as pa

    from pdfsearch_ray.index.codec import bm25_wdl
    from pdfsearch_ray.pipelines.expand import simple_index_cached
    from pdfsearch_ray.pipelines.query import BM25Index
    from pdfsearch_ray.pipelines.tiering import (IMPACT_SCALE,
                                                 impact_index_cached)

    idir = impact_index_cached(SF)
    idx = BM25Index(simple_index_cached(SF))
    m = idx.manifest
    full = _full_postings(SF)
    dl_map = full.groupby("doc_id")["tf"].sum()
    df_map = full.groupby("term")["doc_id"].size()
    parts = [pq.read_table(p) for p in sorted(
        glob.glob(os.path.join(idir, "bucket=*", "part.parquet")))]
    tbl = pa.concat_tables(parts)
    t_arr = np.asarray(tbl["term"].to_pylist(), dtype=object)
    ids = tbl["doc_id"].to_numpy()
    imp = tbl["imp"].to_numpy()
    # ordering contract within each (bucket file, term) run: imp desc.
    for p in parts[:4]:
        tt = np.asarray(p["term"].to_pylist(), dtype=object)
        ii = p["imp"].to_numpy()
        brk = np.flatnonzero(tt[1:] != tt[:-1]) + 1
        for s, e in zip(np.r_[0, brk], np.r_[brk, tt.size]):
            assert (np.diff(ii[s:e]) <= 0).all()
    # value contract vs raw recompute
    tf = full.set_index(["term", "doc_id"])["tf"]
    got = {(t, int(d)): int(v) for t, d, v in zip(t_arr, ids, imp)}
    assert len(got) == len(full)
    n = m.n_docs
    for (t, d), v in list(got.items())[::37]:
        df = int(df_map[t])
        idf = np.log(1.0 + (n - df + 0.5) / (df + 0.5))
        w = idf * bm25_wdl(np.array([float(tf[(t, d)])]),
                           np.array([float(dl_map[d])]),
                           m.k1, m.b, m.avgdl)[0]
        assert v == int(np.round(w * IMPACT_SCALE))


def test_impact_termination_set_exact_on_corpus(ray_session):
    from pdfsearch_ray.pipelines.tiering import (impact_topk,
                                                 impact_topk_terminated)

    gate = impact_topk(SF).to_pandas()
    for q in sorted(set(gate["query"])):
        want = gate[gate["query"] == q]["doc_id"].tolist()
        got, processed, total = impact_topk_terminated(SF, q, slab=16)
        assert sorted(got.tolist()) == sorted(want), q
        assert processed <= total


def test_impact_termination_prunes_on_skewed_lists():
    """A head-heavy impact list (the web-corpus shape: few huge
    impacts, a long flat tail) must terminate early — and still return
    exactly the exhaustive top-k."""
    from pdfsearch_ray.pipelines.tiering import saat_terminate

    rng_ids = np.arange(10_000, dtype=np.int64)
    imp = np.r_[np.arange(5000, 5000 - 20, -1),
                np.ones(10_000 - 20)].astype(np.int64)
    got, processed, total = saat_terminate([(rng_ids, imp)], k=10,
                                           slab=16)
    assert total == 10_000
    assert processed < 200          # pruned >98% of the tail
    # exhaustive reference
    order = np.lexsort((rng_ids, -imp))[:10]
    assert sorted(got.tolist()) == sorted(rng_ids[order].tolist())
    # two skewed terms, overlapping docs: still set-exact + pruned
    ids2 = np.arange(0, 20_000, 2, dtype=np.int64)
    imp2 = np.r_[np.arange(3000, 3000 - 10, -1),
                 np.ones(10_000 - 10)].astype(np.int64)
    got2, p2, t2 = saat_terminate([(rng_ids, imp), (ids2, imp2)],
                                  k=10, slab=16)
    acc = {}
    for ids_, imp_ in [(rng_ids, imp), (ids2, imp2)]:
        for d, v in zip(ids_, imp_):
            acc[int(d)] = acc.get(int(d), 0) + int(v)
    a_ids = np.fromiter(acc.keys(), dtype=np.int64)
    a_sc = np.fromiter(acc.values(), dtype=np.int64)
    ref = a_ids[np.lexsort((a_ids, -a_sc))[:10]]
    assert sorted(got2.tolist()) == sorted(ref.tolist())
    assert p2 < t2


def test_ordered_plus_reverse_equals_sloppy(ray_session):
    """Span-near decomposition: ordered(t1,t2) + ordered(t2,t1)
    accumulates exactly the unordered sloppy weights per doc."""
    from pdfsearch_ray.pipelines.boolquery import (
        ordered_span_weights_from_index, sloppy_weights_from_index)
    from pdfsearch_ray.pipelines.expand import simple_index_cached
    from pdfsearch_ray.pipelines.query import BM25Index

    idx = BM25Index(simple_index_cached(SF))
    for t1, t2 in (("fast", "merge"), ("data", "window")):
        sd, sw = sloppy_weights_from_index(idx, t1, t2)
        fd, fw = ordered_span_weights_from_index(idx, t1, t2)
        rd, rw = ordered_span_weights_from_index(idx, t2, t1)
        acc = {}
        for d, w in zip(fd.tolist(), fw.tolist()):
            acc[d] = acc.get(d, 0) + w
        for d, w in zip(rd.tolist(), rw.tolist()):
            acc[d] = acc.get(d, 0) + w
        want = dict(zip(sd.tolist(), sw.tolist()))
        assert acc == want, (t1, t2)


def test_ordered_direction_is_load_bearing(ray_session):
    """'fast merge' and 'merge fast' must rank differently somewhere
    (the unordered sibling scores them identically by construction)."""
    from pdfsearch_ray.pipelines.boolquery import ordered_span_topk

    out = ordered_span_topk(SF).to_pandas()
    a = out[out["query"] == "fast merge"]
    b = out[out["query"] == "merge fast"]
    assert len(a) and len(b)
    assert (a["doc_id"].tolist() != b["doc_id"].tolist()
            or a["span_tf_x12"].tolist() != b["span_tf_x12"].tolist())


def test_nextword_equals_positional_phrase(ray_session):
    """Cross-implementation equivalence: for every nextword query the
    artifact's (doc, tf) set equals the positions-store phrase
    evaluation (adjacency-from-tokens == adjacency-from-positions),
    and the ranked gate output is internally consistent."""
    from pdfsearch_ray.analysis.analyzer import analyze_simple
    from pdfsearch_ray.pipelines.boolquery import _phrase_starts
    from pdfsearch_ray.pipelines.expand import simple_index_cached
    from pdfsearch_ray.pipelines.nextword import (NW_QUERIES,
                                                  nextword_phrase_topk)
    from pdfsearch_ray.pipelines.query import BM25Index

    idx = BM25Index(simple_index_cached(SF))
    out = nextword_phrase_topk(SF).to_pandas()
    assert len(out)
    for q in sorted(NW_QUERIES):
        terms = analyze_simple(q)
        common, starts = _phrase_starts(idx, terms)
        if starts.size == 0:
            assert q not in set(out["query"])
            continue
        codes, tf = np.unique(starts >> np.uint64(32),
                              return_counts=True)
        pos_map = dict(zip(
            common[codes.astype(np.int64)].astype(np.int64).tolist(),
            tf.astype(int).tolist()))
        g = out[out["query"] == q]
        for d, t in zip(g["doc_id"], g["phrase_tf"]):
            assert pos_map.get(int(d)) == int(t), (q, d)


def test_span_not_degenerates_to_ordered_without_excluder(ray_session):
    """SpanNot with an exclude term absent from the corpus IS the
    ordered span query (weights identical per doc)."""
    from pdfsearch_ray.pipelines.boolquery import (
        ordered_span_weights_from_index, span_not_weights_from_index)
    from pdfsearch_ray.pipelines.expand import simple_index_cached
    from pdfsearch_ray.pipelines.query import BM25Index

    idx = BM25Index(simple_index_cached(SF))
    for t1, t2 in (("fast", "merge"), ("data", "window")):
        od, ow = ordered_span_weights_from_index(idx, t1, t2)
        nd, nw = span_not_weights_from_index(idx, t1, t2, "zzzznope")
        assert od.tolist() == nd.tolist()
        assert ow.tolist() == nw.tolist()


def test_span_not_exclusion_bites_and_matches_brute(ray_session):
    """The exclude term strictly shrinks total span mass on this
    corpus, and the surviving weights equal a brute positional
    recomputation from raw text."""
    import pyarrow.parquet as pq

    from pdfsearch_ray.analysis.analyzer import analyze_simple
    from pdfsearch_ray.pipelines.boolquery import (
        SPANNOT_SCALE, SPANNOT_W,
        ordered_span_weights_from_index, span_not_weights_from_index)
    from pdfsearch_ray.pipelines.expand import simple_index_cached
    from pdfsearch_ray.pipelines.query import BM25Index

    idx = BM25Index(simple_index_cached(SF))
    t1, t2, t3 = "fast", "merge", "scan"
    od, ow = ordered_span_weights_from_index(idx, t1, t2)
    nd, nw = span_not_weights_from_index(idx, t1, t2, t3)
    assert nw.sum() < ow.sum()          # the exclusion is load-bearing

    docs = pq.read_table(f"{SF}/documents.parquet",
                         columns=["doc_id", "text"])
    want = {}
    for did, text in zip(docs["doc_id"].to_pylist(),
                         docs["text"].to_pylist()):
        toks = analyze_simple(text or "")
        acc = 0
        for i, a in enumerate(toks):
            if a != t1:
                continue
            for d in range(1, SPANNOT_W + 1):
                j = i + d
                if j >= len(toks) or toks[j] != t2:
                    continue
                if t3 in toks[i + 1:j]:
                    continue
                acc += SPANNOT_SCALE // d
        if acc:
            want[did] = acc
    assert dict(zip(nd.astype(int).tolist(), nw.tolist())) == want
