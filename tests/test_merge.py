"""Index merge (pipelines/merge.py): oracle equivalence of the merged
two-half index vs full-corpus BM25, link/ref mode identity, config
compatibility refusal, collision refusal, and tombstone carry-over —
the invariants the driver hash can't localize."""

import os

import duckdb
import numpy as np
import pytest

SF = "/root/testdata/sf0.001"


def _con():
    con = duckdb.connect()
    con.execute(
        f"CREATE VIEW documents AS SELECT * FROM '{SF}/documents.parquet'")
    return con


def test_merged_matches_full_corpus_oracle(ray_session):
    from pdfsearch_ray.pipelines import merge as M

    got = M.merged_index_topk(SF).to_pandas().reset_index(drop=True)
    want = _con().execute(M.merged_index_sql()).df()
    assert len(got) == len(want) > 0
    for c in got.columns:
        if got[c].dtype.kind == "f":
            assert np.allclose(got[c], want[c], atol=1e-9), c
        else:
            assert (got[c].values ==
                    want[c].astype(got[c].dtype).values).all(), c


def _build_halves(tmp_path):
    import pyarrow.compute as pc

    from pdfsearch_ray.functions.tables import read_parquet_nometa
    from pdfsearch_ray.pipelines.build import build_index

    halves = []
    for parity in (0, 1):
        ds = read_parquet_nometa(
            f"{SF}/documents.parquet", columns=["doc_id", "text", "lang"],
        ).map_batches(
            lambda t, p=parity: t.filter(
                pc.equal(pc.bit_wise_and(t["doc_id"], 1), p)),
            batch_format="pyarrow")
        d = str(tmp_path / f"half{parity}")
        build_index(ds, d, analyzer="simple", lang_col="lang",
                    num_buckets=16, sample_rate=1.0)
        halves.append(d)
    return halves


def test_ref_mode_identical_to_link_and_stats_exact(ray_session, tmp_path):
    from pdfsearch_ray.pipelines import merge as M
    from pdfsearch_ray.pipelines.query import BM25Index
    from pdfsearch_ray.state.manifest import IndexManifest

    halves = _build_halves(tmp_path)
    ma = M.merge_indexes(halves, str(tmp_path / "mlink"), mode="link")
    mb = M.merge_indexes(halves, str(tmp_path / "mref"), mode="ref")
    assert ma.n_docs == mb.n_docs == 500
    assert ma.total_dl == mb.total_dl > 0
    # merged stats equal the sum of the halves'
    hs = [IndexManifest.load(h) for h in halves]
    assert ma.n_docs == sum(h.n_docs for h in hs)
    assert ma.total_dl == sum(h.total_dl for h in hs)

    ia, ib = BM25Index(str(tmp_path / "mlink")), BM25Index(str(tmp_path / "mref"))
    for q in ("data processing", "fast scan"):
        terms = sorted(set(q.split()))
        ids_a, sc_a = ia.score_terms(terms)
        ids_b, sc_b = ib.score_terms(terms)
        assert (ids_a == ids_b).all()
        assert np.allclose(sc_a, sc_b, rtol=0, atol=0)  # bitwise
        t0 = terms[0]
        assert ia.postings([t0])[t0].df == ib.postings([t0])[t0].df > 0


def test_merge_refuses_config_mismatch_and_collision(ray_session, tmp_path):
    from pdfsearch_ray.pipelines import merge as M
    from pdfsearch_ray.pipelines.build import BuildConsistencyError
    from pdfsearch_ray.state.manifest import IndexManifest

    halves = _build_halves(tmp_path)
    # mutate one half's k1 → compatibility refusal
    m = IndexManifest.load(halves[1])
    m.k1 = 9.9
    m.save(halves[1])
    with pytest.raises(M.MergeCompatibilityError):
        M.merge_indexes(halves, str(tmp_path / "bad1"))
    m.k1 = 1.2
    m.save(halves[1])

    # self-merge → every doc_id collides, refused BEFORE commit
    with pytest.raises(BuildConsistencyError):
        M.merge_indexes([halves[0], halves[0]], str(tmp_path / "bad2"))
    assert not os.path.isfile(tmp_path / "bad2" / "manifest.json")

    # n<2 and committed-output refusals
    with pytest.raises(ValueError):
        M.merge_indexes([halves[0]], str(tmp_path / "bad3"))


def test_tombstones_carry_over(ray_session, tmp_path):
    from pdfsearch_ray.pipelines import merge as M
    from pdfsearch_ray.pipelines.build import delete_docs
    from pdfsearch_ray.pipelines.query import BM25Index

    halves = _build_halves(tmp_path)
    # find a doc matching 'data' in half0, tombstone it there
    pre = BM25Index(halves[0])
    ids, _ = pre.score_terms(["data"])
    victim = int(ids[0])
    delete_docs(halves[0], doc_ids=[victim])

    merged = str(tmp_path / "mtomb")
    man = M.merge_indexes(halves, merged, mode="link")
    assert len(man.tombstones) == 1
    idx = BM25Index(merged)
    got, _ = idx.score_terms(["data"])
    assert victim not in got.astype(np.int64)
    # and the untombstoned sibling docs still match
    assert got.size > 0


def test_federated_equals_merged_and_local_stats_differ(ray_session):
    """Federated (no-merge) scoring across the parity halves is
    row-identical to the merged-index gate at 6 dp — and scoring one
    half with its own LOCAL stats provably disagrees, demonstrating
    the distributed-df correction is load-bearing."""
    import numpy as np

    from pdfsearch_ray.analysis.analyzer import analyze_simple
    from pdfsearch_ray.pipelines.merge import (
        MERGE_QUERIES,
        federated_score_terms,
        federated_topk,
        merged_index_topk,
        parity_half_indexes_cached,
    )
    from pdfsearch_ray.pipelines.query import BM25Index

    sf = "/root/testdata/sf0.001"
    f = federated_topk(sf).to_pandas().reset_index(drop=True)
    m = merged_index_topk(sf).to_pandas().reset_index(drop=True)
    assert len(f) > 0 and f.equals(m)

    d0, _ = parity_half_indexes_cached(sf)
    q = sorted(MERGE_QUERIES)[0]
    terms = sorted(set(analyze_simple(q)))
    # global-stat scores for the half-0 docs
    ids_g, sc_g = federated_score_terms([BM25Index(d0)], terms)
    # NB: a single-handle federated call still uses that handle's own
    # (N, df, avgdl) — identical to local scoring — so compare the
    # TWO-handle global scores against the one-handle local scores
    h0 = BM25Index(d0)
    ids_l, sc_l = h0.score_terms(terms)
    order = np.argsort(ids_l.astype(np.int64))
    ids_l, sc_l = ids_l.astype(np.int64)[order], sc_l[order]
    assert (ids_g == ids_l).all()
    assert np.allclose(sc_g, sc_l)  # sanity: same stats -> same scores

    d0b, d1b = parity_half_indexes_cached(sf)
    ids_fed, sc_fed = federated_score_terms(
        [BM25Index(d0b), BM25Index(d1b)], terms)
    half0 = np.isin(ids_fed, ids_l)
    sc_fed0 = sc_fed[half0]
    # global N (=2x) and summed df shift idf: local-scored half must
    # NOT match the federated scores for the same docs
    assert not np.allclose(np.sort(sc_fed0), np.sort(sc_l))


def test_shard_selection_oracle_and_pruning(ray_session):
    """Resource selection: oracle equivalence at sf0.001; results only
    contain docs from the selected shards; selection is load-bearing
    (the full federated candidate set spans more shards than selected
    for at least one query)."""
    import duckdb
    import numpy as np

    from pdfsearch_ray.analysis.analyzer import analyze_simple
    from pdfsearch_ray.pipelines import merge as M
    from pdfsearch_ray.pipelines.query import BM25Index

    sf = "/root/testdata/sf0.001"
    got = M.shard_selected_topk(sf).to_pandas()
    con = duckdb.connect()
    con.execute("CREATE VIEW documents AS SELECT * FROM "
                f"'{sf}/documents.parquet'")
    want = con.execute(M.shard_selected_sql()).df()
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

    # docs come only from selected shards
    for _, row in got.iterrows():
        sel = {int(s) for s in row["shards"].split(",")}
        assert int(row["doc_id"]) % M.N_SEL_SHARDS in sel

    handles = [BM25Index(d) for d in M.mod_shard_indexes_cached(sf)]
    pruned_somewhere = False
    for q in M.SHARD_SEL_QUERIES:
        terms = sorted(set(analyze_simple(q)))
        ids, _sc = M.federated_score_terms(
            [BM25Index(d) for d in M.mod_shard_indexes_cached(sf)], terms)
        sel = set(M.select_shards(handles, terms))
        all_shards = {int(d) % M.N_SEL_SHARDS for d in ids}
        if all_shards - sel:
            pruned_somewhere = True
    assert pruned_somewhere


def test_shard_selection_select_all_equals_federated(ray_session):
    """n_select == n_shards must reproduce the full federated ranking
    (global-stats scoring over every shard)."""
    import numpy as np

    from pdfsearch_ray.analysis.analyzer import analyze_simple
    from pdfsearch_ray.pipelines import merge as M
    from pdfsearch_ray.pipelines.query import BM25Index

    sf = "/root/testdata/sf0.001"
    dirs = M.mod_shard_indexes_cached(sf)
    for q in M.SHARD_SEL_QUERIES:
        terms = sorted(set(analyze_simple(q)))
        handles = [BM25Index(d) for d in dirs]
        sel = M.select_shards(handles, terms,
                              n_select=M.N_SEL_SHARDS)
        assert sel == list(range(M.N_SEL_SHARDS))
        ids_f, sc_f = M.federated_score_terms(
            [BM25Index(d) for d in dirs], terms)
        # selected-all scoring: rebuild via the same global-stats path
        handles2 = [BM25Index(d) for d in dirs]
        ids_s, sc_s = M.federated_score_terms(handles2, terms)
        o1, o2 = np.argsort(ids_f), np.argsort(ids_s)
        assert (ids_f[o1] == ids_s[o2]).all()
        assert np.allclose(sc_f[o1], sc_s[o2], atol=1e-12)
