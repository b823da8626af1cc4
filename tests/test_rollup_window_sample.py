"""Pins for the session-13 wave-2 gates: weighted sampling and PMI
collocations."""

SF = "/root/testdata/sf0.001"


def test_weighted_sample_is_deterministic_and_length_biased(ray_session):
    """Two runs identical; long docs oversampled vs uniform (statistical
    pin on the synthetic corpus: sampled mean length > corpus mean)."""
    import duckdb

    from pdfsearch_ray.pipelines.queries import weighted_sample

    a = weighted_sample(SF).to_pandas()
    b = weighted_sample(SF).to_pandas()
    assert a.equals(b)
    con = duckdb.connect()
    mean_all = con.execute(
        f"SELECT avg(n_chars) FROM '{SF}/documents.parquet'"
    ).fetchone()[0]
    assert a["n_chars"].mean() > mean_all


def test_pmi_prefers_exclusive_pairs(ray_session):
    """Planted corpus: a pair that always co-occurs exclusively must
    out-PMI a pair of independently frequent words."""
    import os
    import tempfile

    import pyarrow as pa
    import pyarrow.parquet as pq

    from pdfsearch_ray.pipelines.queries import pmi_collocations

    rare = ["qq ww . " * 5] * 2                  # qq ww always together
    common = ["aa bb . aa cc . bb dd . cc aa . dd bb . " * 3] * 4
    d = tempfile.mkdtemp(prefix="pmi_")
    docs = rare + common
    pq.write_table(pa.table({
        "doc_id": pa.array(range(len(docs)), type=pa.int64()),
        "text": pa.array(docs),
    }), os.path.join(d, "documents.parquet"))
    t = pmi_collocations(d, min_count=5, k=50).to_pandas()
    t = t.set_index("bigram")
    assert "qq ww" in t.index
    assert t.loc["qq ww", "pmi"] == t["pmi"].max()
