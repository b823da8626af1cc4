"""Pins for the session-13 wave-2 gates: ROLLUP subtotals, per-key
running totals (window function), distributed anti-join, weighted
sampling, PMI collocations."""

import numpy as np

SF = "/root/testdata/sf0.001"


def test_rollup_levels_are_consistent(ray_session):
    """Leaf rows must sum to their region subtotal, regions to the
    grand total — the rollup invariant, independent of the oracle."""
    from pdfsearch_ray.pipelines.relational import revenue_rollup

    t = revenue_rollup(SF).to_pandas()
    leaf = t[(t["r_name"] != "ALL") & (t["n_name"] != "ALL")]
    reg = t[(t["r_name"] != "ALL") & (t["n_name"] == "ALL")]
    tot = t[(t["r_name"] == "ALL")]
    assert len(tot) == 1
    assert tot["revenue_cents"].iloc[0] == leaf["revenue_cents"].sum()
    assert tot["n_orders"].iloc[0] == leaf["n_orders"].sum()
    for _, r in reg.iterrows():
        sub = leaf[leaf["r_name"] == r["r_name"]]
        assert r["revenue_cents"] == sub["revenue_cents"].sum()
        assert r["n_orders"] == sub["n_orders"].sum()


def test_running_totals_per_key_invariants(ray_session):
    """Each customer's sequence is 1..n, the running sum is cumulative
    and its last value equals the customer's total (exact cents)."""
    import duckdb

    from pdfsearch_ray.pipelines.relational import \
        customer_running_totals

    t = customer_running_totals(SF).to_pandas()
    con = duckdb.connect()
    want_total = con.execute(
        f"SELECT o_custkey, CAST(sum(CAST(round(o_totalprice*100) AS "
        f"BIGINT)) AS BIGINT) s FROM '{SF}/orders.parquet' GROUP BY 1"
    ).fetchdf().set_index("o_custkey")["s"]
    n_orders = con.execute(
        f"SELECT count(*) FROM '{SF}/orders.parquet'").fetchone()[0]
    assert len(t) == n_orders
    for ck, g in t.groupby("o_custkey"):
        g = g.sort_values("seq")
        assert g["seq"].tolist() == list(range(1, len(g) + 1))
        assert (np.diff(g["running_cents"].to_numpy()) > 0).all() or \
            len(g) == 1
        assert g["running_cents"].iloc[-1] == want_total[ck]


def test_anti_join_matches_pandas(ray_session):
    """The bucketed anti-join must equal a driver-side set difference
    (independent of the SQL oracle)."""
    import duckdb

    from pdfsearch_ray.pipelines.relational import (
        ANTI_PRIORITY, silent_customers)

    t = silent_customers(SF).to_pandas()
    con = duckdb.connect()
    cust = con.execute(
        f"SELECT c_custkey, c_nationkey FROM '{SF}/customer.parquet'"
    ).fetchdf()
    urgent = set(con.execute(
        f"SELECT DISTINCT o_custkey FROM '{SF}/orders.parquet' "
        f"WHERE o_orderpriority = '{ANTI_PRIORITY}'"
    ).fetchdf()["o_custkey"])
    silent = cust[~cust["c_custkey"].isin(urgent)]
    assert t["n_customers"].sum() == len(silent)
    assert len(silent) > 0          # the priority filter keeps it live


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


def test_group_quantiles_match_pandas(ray_session):
    """Per-group quantile_disc semantics: smallest value whose
    cumulative count reaches ceil(p*n) — checked against a pandas
    recompute per group."""
    import duckdb

    from pdfsearch_ray.pipelines.relational import GQ_PS, group_quantiles

    t = group_quantiles(SF).to_pandas()
    con = duckdb.connect()
    df = con.execute(
        f"SELECT l_returnflag, CAST(round(l_quantity) AS BIGINT) q "
        f"FROM '{SF}/lineitem.parquet'").fetchdf()
    for (flag, p), g in t.groupby(["l_returnflag", "p"]):
        vals = np.sort(df[df["l_returnflag"] == flag]["q"].to_numpy())
        rank = int(np.ceil(p * vals.size))
        want = int(vals[max(rank, 1) - 1])
        assert int(g["l_quantity"].iloc[0]) == want, (flag, p)
    assert len(t) == len(GQ_PS) * df["l_returnflag"].nunique()


def test_above_avg_histogram_planted(ray_session):
    """Planted orders: exact per-customer above-own-mean counts,
    including the all-equal customer (0 above) and a single-order
    customer (an order never exceeds its own mean)."""
    import os
    import tempfile

    import pyarrow as pa
    import pyarrow.parquet as pq

    from pdfsearch_ray.pipelines.relational import above_avg_histogram

    rows = [
        (1, 10.0), (1, 10.0), (1, 10.0),    # all equal -> 0 above
        (2, 5.0), (2, 10.0), (2, 30.0),     # mean 15 -> 1 above
        (3, 42.0),                          # single order -> 0 above
        (4, 1.0), (4, 2.0), (4, 3.0), (4, 4.0),  # mean 2.5 -> 2 above
    ]
    d = tempfile.mkdtemp(prefix="aavg_")
    pq.write_table(pa.table({
        "o_custkey": pa.array([r[0] for r in rows], type=pa.int64()),
        "o_totalprice": pa.array([r[1] for r in rows],
                                 type=pa.float64()),
    }), os.path.join(d, "orders.parquet"))
    t = above_avg_histogram(d, num_buckets=4).to_pandas()
    got = dict(zip(t["n_above"], t["n_customers"]))
    assert got == {0: 2, 1: 1, 2: 1}


def test_basket_pairs_planted(ray_session):
    """Planted baskets: pair expansion is ordered (p1<p2), per-order
    duplicates collapse, counts are exact across buckets."""
    import os
    import tempfile

    import pyarrow as pa
    import pyarrow.parquet as pq

    from pdfsearch_ray.pipelines.relational import basket_pairs

    rows = [
        (1, 10), (1, 20), (1, 30),       # pairs: 10-20 10-30 20-30
        (2, 20), (2, 10), (2, 10),       # dup 10 collapses; 10-20
        (3, 30), (3, 10),                # 10-30
        (4, 99),                         # singleton -> no pair
    ]
    d = tempfile.mkdtemp(prefix="basket_")
    pq.write_table(pa.table({
        "l_orderkey": pa.array([r[0] for r in rows], type=pa.int64()),
        "l_partkey": pa.array([r[1] for r in rows], type=pa.int64()),
    }), os.path.join(d, "lineitem.parquet"))
    t = basket_pairs(d, num_buckets=4, min_count=1, k=10).to_pandas()
    got = {(r.p1, r.p2): r.n for r in t.itertuples()}
    assert got == {(10, 20): 2, (10, 30): 2, (20, 30): 1}


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


def test_cube_margins_consistent(ray_session):
    """CUBE invariants: both single-dimension margins and the grand
    total each sum to the same leaf total."""
    from pdfsearch_ray.pipelines.relational import revenue_cube

    t = revenue_cube(SF).to_pandas()
    leaf = t[(t["r_name"] != "ALL") & (t["o_orderstatus"] != "ALL")]
    m_r = t[(t["r_name"] != "ALL") & (t["o_orderstatus"] == "ALL")]
    m_s = t[(t["r_name"] == "ALL") & (t["o_orderstatus"] != "ALL")]
    tot = t[(t["r_name"] == "ALL") & (t["o_orderstatus"] == "ALL")]
    assert len(tot) == 1
    for margin in (m_r, m_s):
        assert margin["revenue_cents"].sum() == \
            leaf["revenue_cents"].sum()
        assert margin["n_orders"].sum() == leaf["n_orders"].sum()
    assert tot["n_orders"].iloc[0] == leaf["n_orders"].sum()


def test_histogram_bins_partition_orders(ray_session):
    """Bins are disjoint floor intervals: counts sum to the order
    count, revenue to the exact total."""
    import duckdb

    from pdfsearch_ray.pipelines.relational import order_value_histogram

    t = order_value_histogram(SF).to_pandas()
    con = duckdb.connect()
    n, s = con.execute(
        f"SELECT count(*), CAST(sum(CAST(round(o_totalprice*100) AS "
        f"BIGINT)) AS BIGINT) FROM '{SF}/orders.parquet'").fetchone()
    assert t["n_orders"].sum() == n
    assert t["revenue_cents"].sum() == s
    assert (np.diff(t["bin_lo_cents"].to_numpy()) > 0).all()
