"""Pins for the session-13 gates: DFR PL2 scoring and parent-child
block join."""

import numpy as np

SF = "/root/testdata/sf0.001"


# ---------------------------------------------------------------- DFR

def test_pl2_tf_monotonic_at_fixed_length(ray_session):
    """PL2 property pin on a planted corpus: with dl and stats fixed,
    more occurrences of the query term score higher (the after-effect
    dampens but never inverts growth at web-scale lambda<1)."""
    import pyarrow.parquet as pq
    import pyarrow as pa
    import tempfile, os

    from pdfsearch_ray.pipelines.dfr import dfr_pl2_topk

    # same dl (8 tokens); tf(term 'zz') = 1, 2, 4; 13 padding docs keep
    # lambda = cf/N = 7/16 < 1 (the web regime — PL2 is deliberately
    # non-monotone once a term is MORE frequent than chance, lambda>1)
    docs = [
        "zz a b c d e f g",
        "zz zz b c d e f g",
        "zz zz zz zz d e f g",
    ] + ["a b c d e f g h"] * 13
    d = tempfile.mkdtemp(prefix="pl2_")
    pq.write_table(pa.table({
        "doc_id": pa.array(range(len(docs)), type=pa.int64()),
        "text": pa.array(docs),
    }), os.path.join(d, "documents.parquet"))
    got = dfr_pl2_topk(d, queries=("zz",), k=10).to_pandas()
    got = got.sort_values("rank")
    assert got["doc_id"].tolist() == [2, 1, 0]  # tf 4 > 2 > 1
    assert (np.diff(got["score"].to_numpy()) < 0).all()


def test_pl2_length_normalization(ray_session):
    """Same tf, longer doc -> smaller tfn -> different score; the
    normalization-2 factor must be load-bearing."""
    import pyarrow.parquet as pq
    import pyarrow as pa
    import tempfile, os

    from pdfsearch_ray.pipelines.dfr import dfr_pl2_topk

    docs = [
        "zz a b c",                       # short
        "zz a b c d e f g h i j k l m",   # long, same tf=1
    ]
    d = tempfile.mkdtemp(prefix="pl2_")
    pq.write_table(pa.table({
        "doc_id": pa.array(range(len(docs)), type=pa.int64()),
        "text": pa.array(docs),
    }), os.path.join(d, "documents.parquet"))
    got = dfr_pl2_topk(d, queries=("zz",), k=10).to_pandas()
    assert got["doc_id"].tolist()[0] == 0     # short doc wins
    s = got.set_index("doc_id")["score"]
    assert s[0] != s[1]


def test_pl2_oracle_match_small(ray_session):
    """Engine vs DuckDB oracle at sf0.001 (value-level)."""
    import duckdb

    from pdfsearch_ray.pipelines.dfr import dfr_pl2_sql, dfr_pl2_topk

    got = dfr_pl2_topk(SF).to_pandas()
    con = duckdb.connect()
    con.execute(
        f"CREATE VIEW documents AS SELECT * FROM '{SF}/documents.parquet'")
    want = con.execute(dfr_pl2_sql()).fetchdf()
    g = got.sort_values(["query", "rank"]).reset_index(drop=True)
    w = want.sort_values(["query", "rank"]).reset_index(drop=True)
    assert g["doc_id"].tolist() == w["doc_id"].tolist()
    assert np.allclose(g["score"], w["score"], atol=0)


# ---------------------------------------------------------- block join

def test_blockjoin_parent_is_max_child_min_chunk(ray_session):
    """Planted corpus: the parent score must equal its best chunk's
    BM25 and best_chunk the smallest argmax index."""
    import pyarrow.parquet as pq
    import pyarrow as pa
    import tempfile, os

    from pdfsearch_ray.pipelines.blockjoin import blockjoin_topk

    # words_per_chunk=4 -> doc 0 has chunks (zz zz zz zz) and (a b c d):
    # chunk 0 dominates; doc 1 spreads zz across chunks -> weaker best
    docs = [
        "zz zz zz zz a b c d",
        "zz a b c zz d e f",
        "a b c d e f g h",
    ]
    d = tempfile.mkdtemp(prefix="bj_")
    pq.write_table(pa.table({
        "doc_id": pa.array(range(len(docs)), type=pa.int64()),
        "text": pa.array(docs),
    }), os.path.join(d, "documents.parquet"))
    got = blockjoin_topk(d, queries=("zz",), k=10,
                         words_per_chunk=4).to_pandas()
    got = got.sort_values("rank")
    assert got["doc_id"].tolist() == [0, 1]
    assert got.iloc[0]["best_chunk"] == 0
    assert got.iloc[0]["score"] > got.iloc[1]["score"]


def test_blockjoin_merge_dedupes_parent_split_across_batches():
    """One parent's chunks scored in two batches arrive as two
    candidate rows; the final merge must keep ONE row per (query,
    doc_id) — max score, then min best_chunk — before the top-k cut."""
    import pandas as pd

    from pdfsearch_ray.pipelines.blockjoin import _merge_parent_candidates

    batch_a = [("q", 7, 4, 0.9), ("q", 8, 0, 0.7), ("r", 7, 0, 0.2)]
    batch_b = [("q", 7, 1, 0.9), ("q", 9, 2, 0.8), ("q", 7, 0, 0.5)]
    cand = pd.DataFrame(batch_a + batch_b,
                        columns=["query", "doc_id", "best_chunk", "score"])
    got = _merge_parent_candidates(cand, k=2)
    assert list(got.itertuples(index=False, name=None)) == [
        ("q", 7, 1, 0.9, 1), ("q", 9, 2, 0.8, 2), ("r", 7, 0, 0.2, 1)]


def test_blockjoin_one_chunk_degenerates_to_flat_bm25(ray_session):
    """With words_per_chunk larger than every doc, the chunk corpus IS
    the doc corpus — ranks must equal the flat bm25 scan's."""
    import duckdb

    from pdfsearch_ray.pipelines.blockjoin import (
        BJ_QUERIES, blockjoin_sql, blockjoin_topk)

    got = blockjoin_topk(SF, words_per_chunk=10_000).to_pandas()
    assert (got["best_chunk"] == 0).all()
    con = duckdb.connect()
    con.execute(
        f"CREATE VIEW documents AS SELECT * FROM '{SF}/documents.parquet'")
    want = con.execute(
        blockjoin_sql(BJ_QUERIES, words_per_chunk=10_000)).fetchdf()
    g = got.sort_values(["query", "rank"]).reset_index(drop=True)
    w = want.sort_values(["query", "rank"]).reset_index(drop=True)
    assert g["doc_id"].tolist() == w["doc_id"].tolist()


def test_blockjoin_oracle_match_small(ray_session):
    import duckdb

    from pdfsearch_ray.pipelines.blockjoin import (
        blockjoin_sql, blockjoin_topk)

    got = blockjoin_topk(SF).to_pandas()
    con = duckdb.connect()
    con.execute(
        f"CREATE VIEW documents AS SELECT * FROM '{SF}/documents.parquet'")
    want = con.execute(blockjoin_sql()).fetchdf()
    g = got.sort_values(["query", "rank"]).reset_index(drop=True)
    w = want.sort_values(["query", "rank"]).reset_index(drop=True)
    assert g["doc_id"].tolist() == w["doc_id"].tolist()
    assert g["best_chunk"].tolist() == w["best_chunk"].tolist()
    assert np.allclose(g["score"], w["score"], atol=0)
