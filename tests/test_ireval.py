"""IR evaluation harness (pipelines/ireval.py): oracle equivalence on
the real sf0.001 corpus plus the structural invariants the value hash
can't localize — rank/hit consistency against an independently
recomputed full ranking, and metric bounds."""

import duckdb
import numpy as np

SF = "/root/testdata/sf0.001"


def _con():
    con = duckdb.connect()
    con.execute(
        f"CREATE VIEW documents AS SELECT * FROM '{SF}/documents.parquet'")
    return con


def test_ir_eval_matches_oracle(ray_session):
    from pdfsearch_ray.pipelines import ireval as I

    got = I.ir_eval(SF).to_pandas()
    want = _con().execute(I.ir_eval_sql()).df()
    assert (got["query"].values == want["query"].values).all()
    for col in ("n_relevant", "first_rel_rank", "hits_at_10", "hits_at_100"):
        assert (got[col].values == want[col].astype("int64").values).all(), col


def test_ir_eval_metric_invariants(ray_session):
    """hits@10 <= hits@100 <= n_relevant; first_rel_rank is -1 exactly
    when no document matches all terms, else >= 1; at least one query
    in the fixed set has a non-empty qrel set."""
    from pdfsearch_ray.pipelines import ireval as I

    t = I.ir_eval(SF).to_pandas()
    assert (t["hits_at_10"] <= t["hits_at_100"]).all()
    assert (t["hits_at_100"] <= t["n_relevant"]).all()
    empty = t["n_relevant"] == 0
    assert (t.loc[empty, "first_rel_rank"] == -1).all()
    assert (t.loc[~empty, "first_rel_rank"] >= 1).all()
    assert (~empty).any()


def test_first_rel_rank_consistent_with_full_ranking(ray_session):
    """Recompute the full OR ranking independently (BM25Index score +
    the suite tie rule) and check first_rel_rank points at the first
    conjunctive doc in it."""
    from pdfsearch_ray.pipelines import ireval as I
    from pdfsearch_ray.pipelines.boolquery import score_terms_conjunctive
    from pdfsearch_ray.pipelines.expand import simple_index_cached
    from pdfsearch_ray.pipelines.query import BM25Index

    idx = BM25Index(simple_index_cached(SF))
    t = I.ir_eval(SF).to_pandas().set_index("query")
    for q in I.IR_QUERIES:
        terms = idx.analyze(q)
        ids, sc = idx.score_terms(terms)
        rel_ids, _ = score_terms_conjunctive(idx, terms)
        row = t.loc[q]
        assert row["n_relevant"] == len(rel_ids)
        if len(rel_ids) == 0 or ids.size == 0:
            assert row["first_rel_rank"] == -1
            continue
        order = np.lexsort((ids.astype(np.int64), -np.round(sc, 6)))
        ranked = ids[order]
        first = np.nonzero(np.isin(ranked, rel_ids))[0][0] + 1
        assert row["first_rel_rank"] == first
