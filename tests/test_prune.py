"""Champion-list static pruning (pipelines/prune.py): oracle
equivalence, exactness at R >= corpus (pruned scoring degenerates to
the full exhaustive TAAT ranking), and the per-term champion-set
contract (size min(R, df), max-tf posting always kept)."""

import duckdb
import numpy as np
import pytest

SF = "/root/testdata/sf0.001"


def _con():
    con = duckdb.connect()
    con.execute(
        f"CREATE VIEW documents AS SELECT * FROM '{SF}/documents.parquet'")
    return con


def test_champion_matches_oracle(ray_session):
    from pdfsearch_ray.pipelines import prune as P

    got = P.champion_topk(SF).to_pandas()
    want = _con().execute(P.champion_topk_sql()).df()
    t2 = got.sort_values(["query", "rank"]).reset_index(drop=True)
    o2 = want[t2.columns].sort_values(
        ["query", "rank"]).reset_index(drop=True)
    assert len(t2) == len(o2) > 0
    for c in t2.columns:
        a, b = t2[c].to_numpy(), o2[c].to_numpy()
        if a.dtype.kind == "f":
            assert np.allclose(a, b.astype(float), rtol=0, atol=1e-9), c
        else:
            assert (a.astype(str) == b.astype(str)).all(), c


def test_champion_set_contract(ray_session):
    """Per term: |champions| == min(R, df); the max-tf posting is in
    the champion set; all champion (doc, tf) pairs exist in the full
    postings."""
    from pdfsearch_ray.pipelines.expand import simple_index_cached
    from pdfsearch_ray.pipelines.prune import (
        CHAMP_R,
        champion_lists_cached,
        champion_rows_for_terms,
    )
    from pdfsearch_ray.pipelines.query import BM25Index

    idx = BM25Index(simple_index_cached(SF))
    champ = champion_lists_cached(SF)
    terms = ["data", "the", "fast", "scan"]
    rows = champion_rows_for_terms(champ, idx, terms)
    posts = idx.postings(terms)
    for t in terms:
        ids, tf, _dl = rows[t]
        full_ids, full_tf = posts[t].ids, posts[t].tf
        assert len(ids) == min(CHAMP_R, full_ids.size), t
        # max-tf posting kept
        assert tf.max() == full_tf.max(), t
        # champions are a sub-multiset of the full postings
        full = dict(zip(full_ids.astype(np.int64).tolist(),
                        full_tf.tolist()))
        for d, f in zip(ids.tolist(), tf.tolist()):
            assert full[int(d)] == f, t


def test_unpruned_r_equals_exhaustive(ray_session):
    """With R >= corpus size the pruned scorer must reproduce the full
    exhaustive TAAT ranking exactly (same docs, same scores)."""
    from pdfsearch_ray.analysis.analyzer import analyze_simple
    from pdfsearch_ray.index.codec import bm25_wdl
    from pdfsearch_ray.pipelines.expand import simple_index_cached
    from pdfsearch_ray.pipelines.prune import (
        champion_lists_cached,
        champion_rows_for_terms,
    )
    from pdfsearch_ray.pipelines.query import BM25Index

    idx = BM25Index(simple_index_cached(SF))
    m = idx.manifest
    big_r = 10 ** 6
    champ = champion_lists_cached(SF, r=big_r)
    for q in ("data processing pipeline", "fast scan merge"):
        terms = sorted(set(analyze_simple(q)))
        rows = champion_rows_for_terms(champ, idx, terms, r=big_r)
        all_ids, all_sc = [], []
        for t in terms:
            ids, tf, dl = rows[t]
            if not len(ids):
                continue
            all_ids.append(ids.astype(np.int64))
            all_sc.append(idx.idf(t) * bm25_wdl(
                tf.astype(np.float64), dl.astype(np.float64),
                m.k1, m.b, m.avgdl))
        ids = np.concatenate(all_ids)
        sc = np.concatenate(all_sc)
        uniq, inv = np.unique(ids, return_inverse=True)
        agg = np.zeros(uniq.size)
        np.add.at(agg, inv, sc)
        ref_ids, ref_sc = idx.score_terms(terms)
        order = np.argsort(ref_ids.astype(np.int64))
        assert (ref_ids.astype(np.int64)[order] == uniq).all()
        assert np.allclose(ref_sc[order], agg, atol=1e-9)


def test_safety_certificate_sound(ray_session):
    """The certificate's CLAIM, verified against ground truth: every
    safe==1 query's champion top-K doc set equals the exhaustive
    full-postings top-K set; the fixed query set exercises both a
    non-trivially safe query and unsafe ones."""
    import duckdb

    from pdfsearch_ray.analysis.analyzer import analyze_simple
    from pdfsearch_ray.pipelines import prune as P
    from pdfsearch_ray.pipelines.expand import simple_index_cached
    from pdfsearch_ray.pipelines.query import BM25Index

    sf = "/root/testdata/sf0.001"
    got = P.champion_safety(sf).to_pandas()
    con = duckdb.connect()
    con.execute("CREATE VIEW documents AS SELECT * FROM "
                f"'{sf}/documents.parquet'")
    want = con.execute(P.champion_safety_sql()).df()
    g = got.sort_values("query").reset_index(drop=True)
    w = want[g.columns].sort_values("query").reset_index(drop=True)
    assert len(g) == len(w) > 0
    for c in g.columns:
        a, b = g[c].to_numpy(), w[c].to_numpy()
        if a.dtype.kind == "f":
            assert np.allclose(a, b.astype(float), atol=1e-9), c
        else:
            assert (a.astype(str) == b.astype(str)).all(), c
    # both branches present, and safe includes a non-trivial query
    assert (got["safe"] == 0).any()
    assert ((got["safe"] == 1) & (got["n_candidates"] > 0)).any()

    idx = BM25Index(simple_index_cached(sf))
    champ = P.champion_lists_cached(sf)
    topk = {r["query"]: None for _, r in got.iterrows()}
    ct = P.champion_topk(sf)  # not used directly; warms caches
    for _, row in got.iterrows():
        if row["safe"] != 1 or row["n_candidates"] == 0:
            continue
        q = row["query"]
        terms = sorted(set(analyze_simple(q)))
        # ground truth: exhaustive full-postings top-K set
        ids, sc = idx.score_terms(terms)
        sc6 = np.round(sc, 6)
        order = np.lexsort((ids.astype(np.int64), -sc6))[:P.SAFE_K]
        truth = set(ids.astype(np.int64)[order].tolist())
        # champion top-K set
        rows = P.champion_rows_for_terms(champ, idx, terms)
        from pdfsearch_ray.index.codec import bm25_wdl

        m = idx.manifest
        a_ids, a_sc = [], []
        for t in terms:
            cids, tf, dl = rows.get(t, (np.empty(0),) * 3)
            if not len(cids):
                continue
            a_ids.append(cids.astype(np.int64))
            a_sc.append(idx.idf(t) * bm25_wdl(
                tf.astype(np.float64), dl.astype(np.float64),
                m.k1, m.b, m.avgdl))
        uniq, inv = np.unique(np.concatenate(a_ids), return_inverse=True)
        agg = np.zeros(uniq.size)
        np.add.at(agg, inv, np.concatenate(a_sc))
        agg6 = np.round(agg, 6)
        cut = np.lexsort((uniq, -agg6))[:P.SAFE_K]
        assert set(uniq[cut].tolist()) == truth, q
