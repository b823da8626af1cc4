"""Session-14 ES-aggregation-family gates: rare_terms (bounded hapax
report), adjacency_matrix and composite paging — semantics pinned
against brute-force pandas/numpy recomputation at sf0.001 (the SQL
oracles cover sf0.01 value hashes; these pin the ALGEBRA: plant
contract, matrix symmetry-by-construction, page offsets)."""

import numpy as np
import pandas as pd
import pyarrow.parquet as pq
import pytest

SF = "/root/testdata/sf0.001"


@pytest.fixture(scope="module", autouse=True)
def _need_testdata():
    import os

    if not os.path.isdir(SF):
        pytest.skip("testdata not available")


def test_rare_terms_plant_contract(ray_session):
    from pdfsearch_ray.pipelines.queries import (
        RARE_K,
        RARE_PLANT_MOD,
        rare_terms,
    )

    t = rare_terms(SF).to_pandas()
    ids = pq.read_table(f"{SF}/documents.parquet",
                        columns=["doc_id"])["doc_id"].to_numpy()
    n_planted = int((ids % RARE_PLANT_MOD == 0).sum())
    # the natural vocabulary has min df >> 1, so the rare tail is
    # exactly the planted doc-unique tokens
    assert (t["n_rare_total"] == n_planted).all()
    assert len(t) == min(RARE_K, n_planted)
    assert (t["df"] == 1).all()
    assert list(t["term"]) == sorted(t["term"])
    planted = {f"d{i}x" for i in ids if i % RARE_PLANT_MOD == 0}
    assert set(t["term"]).issubset(planted)


def test_query_adjacency_vs_brute(ray_session):
    from pdfsearch_ray.analysis.analyzer import analyze_simple
    from pdfsearch_ray.pipelines.searchx import ADJ_QUERIES, query_adjacency

    t = query_adjacency(SF).to_pandas()
    docs = pq.read_table(f"{SF}/documents.parquet",
                         columns=["text"])["text"].to_pylist()
    queries = sorted(ADJ_QUERIES)
    members = []
    for q in queries:
        terms = set(analyze_simple(q))
        members.append(np.array(
            [bool(terms & set(analyze_simple(x or ""))) for x in docs]))
    want = {}
    for a in range(len(queries)):
        for b in range(a, len(queries)):
            n = int((members[a] & members[b]).sum())
            if n > 0:
                want[(queries[a], queries[b])] = n
    got = {(r["query_a"], r["query_b"]): int(r["n_docs"])
           for _, r in t.iterrows()}
    assert got == want
    # diagonal dominates its row/column (intersection <= either side)
    diag = {qa: n for (qa, qb), n in got.items() if qa == qb}
    for (qa, qb), n in got.items():
        assert n <= diag.get(qa, n) and n <= diag.get(qb, n)


def test_agg_family_empty_corpus(ray_session, tmp_path):
    import os

    d = str(tmp_path)
    schema = pq.read_schema(os.path.join(SF, "documents.parquet"))
    pq.write_table(schema.empty_table(), os.path.join(d, "documents.parquet"))

    from pdfsearch_ray.pipelines.queries import rare_terms
    from pdfsearch_ray.pipelines.searchx import query_adjacency

    assert rare_terms(d).num_rows == 0
    assert query_adjacency(d).num_rows == 0


def test_composite_page2_is_offset_page(ray_session):
    from pdfsearch_ray.pipelines.queries import (
        COMPOSITE_PAGE_SIZE,
        composite_page2,
    )

    t = composite_page2(SF).to_pandas()
    docs = pq.read_table(f"{SF}/documents.parquet",
                         columns=["source", "lang"]).to_pandas()
    full = (docs.groupby(["source", "lang"]).size().reset_index(name="n")
            .sort_values(["source", "lang"]).reset_index(drop=True))
    want = full.iloc[COMPOSITE_PAGE_SIZE:2 * COMPOSITE_PAGE_SIZE]
    assert list(t["source"]) == want["source"].tolist()
    assert list(t["lang"]) == want["lang"].tolist()
    assert list(t["n_docs"]) == want["n"].astype(int).tolist()
    # page 2 starts strictly after page 1's after-key
    ak = tuple(full.iloc[COMPOSITE_PAGE_SIZE - 1][["source", "lang"]])
    assert (t["source"][0], t["lang"][0]) > ak
