"""Pins for the session-13 wave-2 gates: weighted sampling, PMI
collocations, distinct users per day and per-user event transitions,
plus the spill bucket-count rule (``auto_buckets``)."""

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


def test_dau_bucket_partials_sum_exactly(ray_session):
    """Distinct-per-day from the bucketed pipeline must equal a
    driver-side pandas nunique (independent of the SQL oracle), at two
    bucket counts (the partition count must not change the answer)."""
    import duckdb

    from pdfsearch_ray.pipelines.events import daily_active_users

    con = duckdb.connect()
    df = con.execute(
        f"SELECT user_id, strftime(ts, '%Y-%m-%d') AS day "
        f"FROM '{SF}/events.parquet'").fetchdf()
    want = df.groupby("day")["user_id"].nunique()
    for nb in (4, 32):
        t = daily_active_users(SF, num_buckets=nb).to_pandas()
        got = t.set_index("day")["n_users"]
        assert got.to_dict() == want.to_dict(), nb


def test_event_transitions_planted(ray_session):
    """Planted timelines: exact adjacency counts, user isolation (no
    cross-user pair), lag ties broken by event_id."""
    import os
    import tempfile

    import pyarrow as pa
    import pyarrow.parquet as pq

    from pdfsearch_ray.pipelines.events import event_transitions

    # user 1: a->b->a ; user 2: b->b ; boundary between users is not
    # a transition.  Two same-ts events (3,4) order by event_id.
    rows = [
        (1, 1, 1000, "a"), (2, 1, 2000, "b"), (3, 1, 3000, "a"),
        (4, 1, 3000, "b"),          # same ts as event 3 -> a->b
        (5, 2, 1000, "b"), (6, 2, 2000, "b"),
    ]
    d = tempfile.mkdtemp(prefix="trans_")
    pq.write_table(pa.table({
        "event_id": pa.array([r[0] for r in rows], type=pa.int64()),
        "user_id": pa.array([r[1] for r in rows], type=pa.int64()),
        "ts": pa.array([r[2] for r in rows],
                       type=pa.timestamp("us")),
        "event_type": pa.array([r[3] for r in rows], type=pa.string()),
    }), os.path.join(d, "events.parquet"))
    t = event_transitions(d, num_buckets=4).to_pandas()
    got = {(r.prev_type, r.event_type): r.n for r in t.itertuples()}
    assert got == {("a", "b"): 2, ("b", "a"): 1, ("b", "b"): 1}


def test_auto_buckets_scales_and_clamps(ray_session):
    """auto_buckets: lo at test scale, power-of-two, capped at hi."""
    from pdfsearch_ray.functions.spill import auto_buckets

    assert auto_buckets(f"{SF}/orders.parquet") == 8
    assert auto_buckets(f"{SF}/orders.parquet", lo=32) == 32
    # synthetic sizes via target_bytes: 10 "bytes" per bucket
    assert auto_buckets(f"{SF}/orders.parquet",
                        target_bytes=1, hi=64) == 64      # cap
    n = auto_buckets(f"{SF}/orders.parquet", target_bytes=1 << 12)
    assert n & (n - 1) == 0                                # pow2


def test_auto_buckets_never_exceeds_non_pow2_hi(ray_session):
    """A non-power-of-two hi rounds DOWN (3000 -> 2048), never up past
    the cap; in-range counts still round up to a power of two."""
    from pdfsearch_ray.functions.spill import auto_buckets

    assert auto_buckets(f"{SF}/orders.parquet", target_bytes=1,
                        hi=3000) == 2048
    assert auto_buckets(f"{SF}/orders.parquet", target_bytes=1 << 12,
                        hi=3000) == auto_buckets(
        f"{SF}/orders.parquet", target_bytes=1 << 12)
