"""Relational pipelines over the TPC-H-ish tables — the generic
aggregate/join capability of the engine, exercised on the full testdata
table set (lineitem / orders / customer / nation) and value-checked
against DuckDB.

Scale shapes on display:
* ``pricing_summary`` — the classic combiner: each batch pre-aggregates
  to one row per (returnflag, linestatus) before the groupby, so the
  shuffle moves O(groups × blocks) rows (groups = 6 here) instead of
  the table.  Derived columns (averages) are computed AFTER the global
  sums, exactly as SQL's ``avg`` decomposes into sum/count.
* ``orders_by_nation`` — the two join regimes in one pipeline: a
  distributed hash equi-join (bucket-partitioned spill, per-bucket
  Acero join — functions/joins.py) for the big⋈medium side
  (orders ⋈ customer) and a broadcast map-join (``ray.put`` once, dict
  lookup inside map_batches) for the tiny dimension (nation, 25 rows).

Money aggregation is EXACT integer arithmetic: the synthetic prices
carry 2 decimals and discounts 2 decimals, so sums are computed over
integer cents (and cent×percent = 1e-4-dollar units for discounted
revenue).  Integer sums are order-independent and rounding-mode-free,
so the driver's exact value-hash can never flake on a half-cent
boundary or a numpy-half-even vs DuckDB-half-away tie — float sums
rounded to N decimals can (summation-order noise ~1e-3 at 1e9
magnitude sits exactly at the 2-decimal boundary).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray.data as rd
from ray.data.aggregate import Sum

PRICING_CUTOFF = "1998-09-02"  # l_shipdate <= cutoff (Q1 shape)


def _group_sum_i64(inv: np.ndarray, values: np.ndarray,
                   n: int) -> np.ndarray:
    """Exact int64 grouped sum.  ``np.bincount`` converts weights to
    float64, which stays exact only while a per-group per-batch sum is
    below 2^53 (~9e6 rows of 1e9-unit values); ``np.add.at`` accumulates
    in int64, so exactness holds at any batch size."""
    out = np.zeros(n, dtype=np.int64)
    np.add.at(out, inv, values.astype(np.int64, copy=False))
    return out


def _read(sf_dir: str, table: str, columns: list[str]) -> rd.Dataset:
    from ..functions.tables import read_parquet_nometa

    return read_parquet_nometa(
        f"{sf_dir}/{table}.parquet", columns=columns)


def pricing_summary(sf_dir: str) -> pa.Table:
    """TPC-H Q1 shape: per (l_returnflag, l_linestatus) over lineitem
    rows shipped on/before the cutoff — sums, averages and row count."""
    cutoff = np.datetime64(PRICING_CUTOFF + "T23:59:59.999999")

    def partial(t: pa.Table) -> pa.Table:
        ship = t["l_shipdate"].to_numpy(zero_copy_only=False)
        keep = ship <= cutoff
        if not keep.any():
            return pa.table({
                "l_returnflag": pa.array([], type=pa.string()),
                "l_linestatus": pa.array([], type=pa.string()),
                "sum_qty": pa.array([], type=pa.int64()),
                "sum_base_price_cents": pa.array([], type=pa.int64()),
                "sum_disc_price_e4": pa.array([], type=pa.int64()),
                "n_rows": pa.array([], type=pa.int64()),
            })
        flag = np.asarray(t["l_returnflag"].to_pylist())[keep]
        status = np.asarray(t["l_linestatus"].to_pylist())[keep]
        qty = np.round(t["l_quantity"].to_numpy()[keep]).astype(np.int64)
        cents = np.round(
            t["l_extendedprice"].to_numpy()[keep] * 100).astype(np.int64)
        pct = np.round(
            (1.0 - t["l_discount"].to_numpy()[keep]) * 100).astype(np.int64)
        combo = np.char.add(np.char.add(flag, "|"), status)
        uniq, inv = np.unique(combo, return_inverse=True)
        n = uniq.size
        return pa.table({
            "l_returnflag": pa.array([u.split("|")[0] for u in uniq]),
            "l_linestatus": pa.array([u.split("|")[1] for u in uniq]),
            "sum_qty": pa.array(_group_sum_i64(inv, qty, n)),
            "sum_base_price_cents": pa.array(
                _group_sum_i64(inv, cents, n)),
            "sum_disc_price_e4": pa.array(
                _group_sum_i64(inv, cents * pct, n)),
            "n_rows": pa.array(
                np.bincount(inv, minlength=n).astype(np.int64)),
        })

    agg = (
        _read(sf_dir, "lineitem",
              ["l_returnflag", "l_linestatus", "l_quantity",
               "l_extendedprice", "l_discount", "l_shipdate"])
        .map_batches(partial, batch_format="pyarrow")
        # blocks are ≤ |groups| rows post-combiner; see region_part_revenue
        .repartition(1)
        .groupby(["l_returnflag", "l_linestatus"])
        .aggregate(Sum("sum_qty", alias_name="sum_qty"),
                   Sum("sum_base_price_cents",
                       alias_name="sum_base_price_cents"),
                   Sum("sum_disc_price_e4",
                       alias_name="sum_disc_price_e4"),
                   Sum("n_rows", alias_name="n_rows"))
        .to_pandas()
    )
    from ..functions.tables import typed_pandas
    agg = typed_pandas(agg, {
        "l_returnflag": "object", "l_linestatus": "object",
        "sum_qty": "int64", "sum_base_price_cents": "int64",
        "sum_disc_price_e4": "int64", "n_rows": "int64",
    }).sort_values(["l_returnflag", "l_linestatus"])
    # avg from identical integer inputs: both engines divide the same
    # two ints in float64, so the quotient (and its rounding) match
    return pa.table({
        "l_returnflag": pa.array(agg["l_returnflag"].tolist()),
        "l_linestatus": pa.array(agg["l_linestatus"].tolist()),
        "sum_qty": pa.array(agg["sum_qty"].astype("int64").tolist(),
                            type=pa.int64()),
        "sum_base_price_cents": pa.array(
            agg["sum_base_price_cents"].astype("int64").tolist(),
            type=pa.int64()),
        "sum_disc_price_e4": pa.array(
            agg["sum_disc_price_e4"].astype("int64").tolist(),
            type=pa.int64()),
        "avg_qty": pa.array(np.round(
            agg["sum_qty"].to_numpy() / agg["n_rows"].to_numpy(), 6)),
        "n_rows": pa.array(agg["n_rows"].astype("int64").tolist(),
                           type=pa.int64()),
    })


def orders_by_nation(sf_dir: str) -> pa.Table:
    """Orders per customer nation: orders ⋈ customer via the
    distributed hash join, then nation resolved by broadcast lookup;
    group by nation name with count + rounded revenue sum."""
    import ray

    from ..functions.joins import hash_join

    orders = _read(sf_dir, "orders", ["o_orderkey", "o_custkey",
                                      "o_totalprice"])
    cust = _read(sf_dir, "customer", ["c_custkey", "c_nationkey"])
    joined = hash_join(orders, cust, left_on="o_custkey",
                       right_on="c_custkey", num_buckets=8)

    import pyarrow.parquet as pq

    nt = pq.read_table(f"{sf_dir}/nation.parquet",
                       columns=["n_nationkey", "n_name"])
    nmap_ref = ray.put(dict(zip(nt["n_nationkey"].to_pylist(),
                                nt["n_name"].to_pylist())))

    def tag(t: pa.Table) -> pa.Table:
        # combiner: resolve nation AND pre-aggregate per batch, so the
        # groupby shuffle moves O(|nations| × blocks) rows, not the
        # joined fact table
        nmap = ray.get(nmap_ref)
        nk = t["c_nationkey"].to_numpy(zero_copy_only=False).astype(np.int64)
        cents = np.round(
            t["o_totalprice"].to_numpy() * 100).astype(np.int64)
        names = np.asarray([nmap[int(k)] for k in nk], dtype=object) \
            if nk.size else np.asarray([], dtype=object)
        uniq, inv = np.unique(names, return_inverse=True)
        n = uniq.size
        return pa.table({
            "n_name": pa.array(uniq.tolist(), type=pa.string()),
            "n_orders": pa.array(
                np.bincount(inv, minlength=n).astype(np.int64)),
            "price_cents": pa.array(_group_sum_i64(inv, cents, n)),
        })

    out = (
        joined.map_batches(tag, batch_format="pyarrow")
        .repartition(1)  # ≤ |nations| rows per block post-combiner
        .groupby("n_name")
        .aggregate(Sum("n_orders", alias_name="n_orders"),
                   Sum("price_cents", alias_name="revenue_cents"))
        .to_pandas()
    )
    from ..functions.tables import typed_pandas
    out = typed_pandas(out, {
        "n_name": "object", "n_orders": "int64",
        "revenue_cents": "int64"}).sort_values("n_name")
    return pa.table({
        "n_name": pa.array(out["n_name"].tolist(), type=pa.string()),
        "n_orders": pa.array(out["n_orders"].astype("int64").tolist(),
                             type=pa.int64()),
        "revenue_cents": pa.array(
            out["revenue_cents"].astype("int64").tolist(),
            type=pa.int64()),
    })


PART_SIZE_MAX = 20  # p_size < threshold (Q2/Q9-ish selective dim filter)


def region_part_revenue(sf_dir: str) -> pa.Table:
    """Revenue per supplier region for small parts — the Q9-ish
    multi-dimension star join done the at-scale way: the FACT table
    (lineitem) never shuffles.  part (filter → keep-set), supplier →
    nation → region (two-hop key map) are all broadcast once via
    ``ray.put``; one map_batches pass filters fact rows on the part
    keep-set, maps suppkey → region name and pre-aggregates per batch;
    the final groupby moves O(regions × blocks) rows."""
    import ray

    import pyarrow.parquet as pq

    pt = pq.read_table(f"{sf_dir}/part.parquet",
                       columns=["p_partkey", "p_size"])
    keep_parts = pt.filter(
        pc.less(pt["p_size"], PART_SIZE_MAX))["p_partkey"].to_numpy()
    st = pq.read_table(f"{sf_dir}/supplier.parquet",
                       columns=["s_suppkey", "s_nationkey"])
    nt = pq.read_table(f"{sf_dir}/nation.parquet",
                       columns=["n_nationkey", "n_regionkey"])
    rt = pq.read_table(f"{sf_dir}/region.parquet",
                       columns=["r_regionkey", "r_name"])
    n2r = dict(zip(nt["n_nationkey"].to_pylist(),
                   nt["n_regionkey"].to_pylist()))
    r2n = dict(zip(rt["r_regionkey"].to_pylist(), rt["r_name"].to_pylist()))
    supp_region = {int(s): r2n[n2r[int(n)]]
                   for s, n in zip(st["s_suppkey"].to_pylist(),
                                   st["s_nationkey"].to_pylist())}
    bc = ray.put((np.sort(keep_parts), supp_region))

    def partial(t: pa.Table) -> pa.Table:
        parts_sorted, s2r = ray.get(bc)
        pk = t["l_partkey"].to_numpy()
        pos = np.searchsorted(parts_sorted, pk)
        pos = np.minimum(pos, parts_sorted.size - 1)
        keep = parts_sorted[pos] == pk if parts_sorted.size else \
            np.zeros(pk.size, dtype=bool)
        if not keep.any():
            return pa.table({
                "r_name": pa.array([], type=pa.string()),
                "revenue_e4": pa.array([], type=pa.int64()),
                "n_items": pa.array([], type=pa.int64()),
            })
        sk = t["l_suppkey"].to_numpy()[keep]
        cents = np.round(
            t["l_extendedprice"].to_numpy()[keep] * 100).astype(np.int64)
        pct = np.round(
            (1.0 - t["l_discount"].to_numpy()[keep]) * 100).astype(np.int64)
        rnames = np.asarray([s2r[int(s)] for s in sk])
        uniq, inv = np.unique(rnames, return_inverse=True)
        return pa.table({
            "r_name": pa.array(uniq.tolist(), type=pa.string()),
            "revenue_e4": pa.array(
                _group_sum_i64(inv, cents * pct, uniq.size)),
            "n_items": pa.array(
                np.bincount(inv, minlength=uniq.size).astype(np.int64)),
        })

    out = (
        _read(sf_dir, "lineitem",
              ["l_partkey", "l_suppkey", "l_extendedprice", "l_discount"])
        .map_batches(partial, batch_format="pyarrow")
        # each block is ≤ |regions| rows after the combiner — coalesce
        # to one block so the aggregate has no empty reduce partitions
        # (empty partitions emit schema-less blocks Ray warns about)
        .repartition(1)
        .groupby("r_name")
        .aggregate(Sum("revenue_e4", alias_name="revenue_e4"),
                   Sum("n_items", alias_name="n_items"))
        .to_pandas()
    )
    from ..functions.tables import typed_pandas
    out = typed_pandas(out, {
        "r_name": "object", "revenue_e4": "int64",
        "n_items": "int64"}).sort_values("r_name")
    return pa.table({
        "r_name": pa.array(out["r_name"].tolist(), type=pa.string()),
        "revenue_e4": pa.array(out["revenue_e4"].astype("int64").tolist(),
                               type=pa.int64()),
        "n_items": pa.array(out["n_items"].astype("int64").tolist(),
                            type=pa.int64()),
    })


def revenue_rollup(sf_dir: str) -> pa.Table:
    """GROUP BY ROLLUP(region, nation) over order revenue — the OLAP
    subtotal shape (leaf rows + per-region subtotals + grand total,
    rolled-up levels labeled 'ALL').

    Scale shape: the fact (orders) flows through the SAME distributed
    hash join as orders_by_nation; nation→(region, name) is a 25-row
    broadcast.  The per-batch combiner reduces to O(|nations|) rows, so
    the driver's rollup derivation is O(25) arithmetic over the leaf
    aggregate — subtotals are DERIVED from leaves, never a second pass
    over the fact."""
    import ray

    import pyarrow.parquet as pq

    from ..functions.joins import hash_join

    orders = _read(sf_dir, "orders", ["o_orderkey", "o_custkey",
                                      "o_totalprice"])
    cust = _read(sf_dir, "customer", ["c_custkey", "c_nationkey"])
    joined = hash_join(orders, cust, left_on="o_custkey",
                       right_on="c_custkey", num_buckets=8)

    nt = pq.read_table(f"{sf_dir}/nation.parquet",
                       columns=["n_nationkey", "n_name", "n_regionkey"])
    rt = pq.read_table(f"{sf_dir}/region.parquet",
                       columns=["r_regionkey", "r_name"])
    r2n = dict(zip(rt["r_regionkey"].to_pylist(),
                   rt["r_name"].to_pylist()))
    nmap_ref = ray.put({
        int(k): (r2n[int(rk)], str(nm))
        for k, nm, rk in zip(nt["n_nationkey"].to_pylist(),
                             nt["n_name"].to_pylist(),
                             nt["n_regionkey"].to_pylist())})

    def tag(t: pa.Table) -> pa.Table:
        nmap = ray.get(nmap_ref)
        nk = t["c_nationkey"].to_numpy(zero_copy_only=False).astype(np.int64)
        cents = np.round(
            t["o_totalprice"].to_numpy() * 100).astype(np.int64)
        keys = np.asarray([nmap[int(k)][0] + "\x00" + nmap[int(k)][1]
                           for k in nk], dtype=object) \
            if nk.size else np.asarray([], dtype=object)
        uniq, inv = np.unique(keys, return_inverse=True)
        n = uniq.size
        return pa.table({
            "key": pa.array(uniq.tolist(), type=pa.string()),
            "n_orders": pa.array(
                np.bincount(inv, minlength=n).astype(np.int64)),
            "revenue_cents": pa.array(_group_sum_i64(inv, cents, n)),
        })

    leaf = (
        joined.map_batches(tag, batch_format="pyarrow")
        .repartition(1)
        .groupby("key")
        .aggregate(Sum("n_orders", alias_name="n_orders"),
                   Sum("revenue_cents", alias_name="revenue_cents"))
        .to_pandas()
    )
    if leaf.empty or "key" not in leaf.columns:      # empty corpus
        return pa.table({
            "r_name": pa.array([], type=pa.string()),
            "n_name": pa.array([], type=pa.string()),
            "n_orders": pa.array([], type=pa.int64()),
            "revenue_cents": pa.array([], type=pa.int64()),
        })
    leaf[["r_name", "n_name"]] = leaf["key"].str.split("\x00", expand=True)
    leaf = leaf[["r_name", "n_name", "n_orders", "revenue_cents"]]
    region = (leaf.groupby("r_name", as_index=False)
              [["n_orders", "revenue_cents"]].sum())
    region["n_name"] = "ALL"
    total = leaf[["n_orders", "revenue_cents"]].sum().to_frame().T
    total["r_name"] = "ALL"
    total["n_name"] = "ALL"
    import pandas as pd

    out = pd.concat([leaf, region, total], ignore_index=True)
    out = out.sort_values(["r_name", "n_name"]).reset_index(drop=True)
    return pa.table({
        "r_name": pa.array(out["r_name"].tolist(), type=pa.string()),
        "n_name": pa.array(out["n_name"].tolist(), type=pa.string()),
        "n_orders": pa.array(out["n_orders"].astype("int64").tolist(),
                             type=pa.int64()),
        "revenue_cents": pa.array(
            out["revenue_cents"].astype("int64").tolist(),
            type=pa.int64()),
    })


def rollup_sql() -> str:
    """Oracle: GROUP BY ROLLUP with COALESCE('ALL') labels, integer
    cents."""
    return """
        SELECT coalesce(r.r_name, 'ALL') AS r_name,
               coalesce(n.n_name, 'ALL') AS n_name,
               count(*) AS n_orders,
               CAST(sum(CAST(round(o.o_totalprice * 100) AS BIGINT))
                   AS BIGINT) AS revenue_cents
        FROM orders o
        JOIN customer c ON o.o_custkey = c.c_custkey
        JOIN nation n ON c.c_nationkey = n.n_nationkey
        JOIN region r ON n.n_regionkey = r.r_regionkey
        GROUP BY ROLLUP(r.r_name, n.n_name)
        ORDER BY r_name, n_name
    """


def running_totals_block(t: pa.Table) -> pa.Table:
    """Vectorized per-partition window function: for every order,
    ROW_NUMBER and the running revenue sum per customer ordered by
    (o_orderdate, o_orderkey) — one lexsort + one cumsum, no per-key
    Python."""
    if t.num_rows == 0:
        return pa.table({
            "o_custkey": pa.array([], type=pa.int64()),
            "o_orderkey": pa.array([], type=pa.int64()),
            "seq": pa.array([], type=pa.int64()),
            "running_cents": pa.array([], type=pa.int64()),
        })
    cust = t["o_custkey"].to_numpy(zero_copy_only=False).astype(np.int64)
    ok = t["o_orderkey"].to_numpy(zero_copy_only=False).astype(np.int64)
    ts = t["o_orderdate"].to_numpy(zero_copy_only=False)
    tsi = ts.astype("datetime64[us]").view(np.int64)
    cents = np.round(t["o_totalprice"].to_numpy() * 100).astype(np.int64)
    order = np.lexsort((ok, tsi, cust))
    cust, ok, cents = cust[order], ok[order], cents[order]
    starts = np.flatnonzero(np.r_[True, cust[1:] != cust[:-1]])
    cum = np.cumsum(cents, dtype=np.int64)
    base = np.zeros(starts.size, dtype=np.int64)
    base[1:] = cum[starts[1:] - 1]
    counts = np.diff(np.r_[starts, cust.size])
    running = cum - np.repeat(base, counts)
    idx = np.arange(cust.size, dtype=np.int64)
    seq = idx - np.repeat(starts, counts) + 1
    return pa.table({
        "o_custkey": pa.array(cust, type=pa.int64()),
        "o_orderkey": pa.array(ok, type=pa.int64()),
        "seq": pa.array(seq, type=pa.int64()),
        "running_cents": pa.array(running, type=pa.int64()),
    })


def customer_running_totals(sf_dir: str, *,
                            num_buckets: int | None = None) -> rd.Dataset:
    """Per-customer running order totals — SUM() OVER (PARTITION BY
    custkey ORDER BY date, orderkey) done the at-scale way: a map-side
    hash spill on mix64(custkey) % B (the user_sessions shuffle — each
    customer's orders land wholly in one bucket file, no global sort),
    then ONE vectorized lexsort+cumsum pass per bucket.  Integer cents
    keep the value hash exact."""
    import os
    import pyarrow.parquet as pq

    from ..functions.hashing import mix64
    from ..functions.spill import auto_buckets, spill_dir

    if num_buckets is None:   # scale knob: bytes-derived, not fixed
        num_buckets = auto_buckets(f"{sf_dir}/orders.parquet", lo=32)
    work_dir = spill_dir(prefix="pdfsearch_runtot_")

    def add_bucket(t: pa.Table) -> pa.Table:
        ck = t["o_custkey"].to_numpy(zero_copy_only=False).astype(np.int64)
        b = (mix64(ck.view(np.uint64))
             % np.uint64(num_buckets)).astype(np.int32)
        return t.append_column("bucket", pa.array(b))

    (
        _read(sf_dir, "orders",
              ["o_orderkey", "o_custkey", "o_orderdate", "o_totalprice"])
        .map_batches(add_bucket, batch_format="pyarrow")
        .repartition(num_buckets)
        .write_parquet(work_dir, partition_cols=["bucket"])
    )
    bucket_dirs = sorted(
        f"{work_dir}/{d}" for d in os.listdir(work_dir)
        if d.startswith("bucket="))

    def per_bucket(batch: pa.Table) -> pa.Table:
        outs = [
            running_totals_block(pq.read_table(bdir, use_threads=False))
            for bdir in batch["dir"].to_pylist()
        ]
        return pa.concat_tables(outs)

    return (
        rd.from_items([{"dir": d} for d in bucket_dirs],
                      override_num_blocks=max(1, len(bucket_dirs)))
        .map_batches(per_bucket, batch_format="pyarrow", batch_size=1)
    )


def running_totals_sql() -> str:
    return """
        SELECT o_custkey, o_orderkey,
               CAST(row_number() OVER w AS BIGINT) AS seq,
               CAST(sum(CAST(round(o_totalprice * 100) AS BIGINT))
                    OVER w AS BIGINT) AS running_cents
        FROM orders
        WINDOW w AS (PARTITION BY o_custkey
                     ORDER BY o_orderdate, o_orderkey)
    """


ANTI_PRIORITY = "1-URGENT"


def silent_customers(sf_dir: str, *, num_buckets: int | None = None,
                     priority: str = ANTI_PRIORITY) -> pa.Table:
    """Customers with NO urgent orders, aggregated per nation (count +
    exact acctbal cents) — the distributed ANTI-join: both sides
    hash-spill on custkey (the posting-build shuffle,
    functions/joins.py layout), each bucket task anti-filters its
    customers against its orders' keys with one np.isin, then the
    per-nation combiner reduces to O(|nations|) rows.  Neither side is
    ever collected on the driver; the orders side is filtered to the
    priority predicate and pre-shrunk to per-batch DISTINCT custkeys
    before the spill.  (Unfiltered, the testdata generator gives every
    customer at least one order — the priority filter keeps the
    anti-join load-bearing.)"""
    import os

    import pyarrow.parquet as pq
    import ray

    from ..functions.joins import spill_bucketed
    from ..functions.spill import auto_buckets, spill_dir

    if num_buckets is None:   # both spills must co-partition
        num_buckets = auto_buckets(
            [f"{sf_dir}/customer.parquet", f"{sf_dir}/orders.parquet"],
            lo=16)
    work = spill_dir(prefix="pdfsearch_anti_")
    cust = _read(sf_dir, "customer",
                 ["c_custkey", "c_nationkey", "c_acctbal"])

    def distinct_keys(t: pa.Table) -> pa.Table:
        t = t.filter(pc.equal(t["o_orderpriority"], priority))
        ck = np.unique(
            t["o_custkey"].to_numpy(zero_copy_only=False).astype(np.int64))
        return pa.table({"o_custkey": pa.array(ck, type=pa.int64())})

    okeys = _read(sf_dir, "orders",
                  ["o_custkey", "o_orderpriority"]).map_batches(
        distinct_keys, batch_format="pyarrow")
    cdir = spill_bucketed(cust, "c_custkey", f"{work}/cust",
                          num_buckets=num_buckets)
    odir = spill_bucketed(okeys, "o_custkey", f"{work}/orders",
                          num_buckets=num_buckets)

    nt = pq.read_table(f"{sf_dir}/nation.parquet",
                       columns=["n_nationkey", "n_name"])
    nmap_ref = ray.put(dict(zip(nt["n_nationkey"].to_pylist(),
                                nt["n_name"].to_pylist())))

    def per_bucket(batch: pa.Table) -> pa.Table:
        nmap = ray.get(nmap_ref)
        out_n, out_c, out_b = [], [], []
        for b in batch["b"].to_pylist():
            cpath = f"{cdir}/__jb={b}"
            if not os.path.isdir(cpath):
                continue
            ct = pq.read_table(cpath, use_threads=False)
            opath = f"{odir}/__jb={b}"
            have = (pq.read_table(opath, use_threads=False)
                    ["o_custkey"].to_numpy()
                    if os.path.isdir(opath)
                    else np.empty(0, dtype=np.int64))
            ck = ct["c_custkey"].to_numpy()
            anti = ~np.isin(ck, have)
            if not anti.any():
                continue
            nk = ct["c_nationkey"].to_numpy()[anti]
            bal = np.round(
                ct["c_acctbal"].to_numpy()[anti] * 100).astype(np.int64)
            uniq, inv = np.unique(nk, return_inverse=True)
            out_n.extend(nmap[int(k)] for k in uniq)
            out_c.extend(np.bincount(inv, minlength=uniq.size)
                         .astype(np.int64).tolist())
            out_b.extend(
                _group_sum_i64(inv, bal, uniq.size).tolist())
        return pa.table({
            "n_name": pa.array(out_n, type=pa.string()),
            "n_customers": pa.array(out_c, type=pa.int64()),
            "acctbal_cents": pa.array(out_b, type=pa.int64()),
        })

    out = (
        rd.from_items([{"b": b} for b in range(num_buckets)],
                      override_num_blocks=num_buckets)
        .map_batches(per_bucket, batch_format="pyarrow", batch_size=1)
        .repartition(1)
        .groupby("n_name")
        .aggregate(Sum("n_customers", alias_name="n_customers"),
                   Sum("acctbal_cents", alias_name="acctbal_cents"))
        .to_pandas()
    )
    if out.empty or "n_name" not in out.columns:
        return pa.table({
            "n_name": pa.array([], type=pa.string()),
            "n_customers": pa.array([], type=pa.int64()),
            "acctbal_cents": pa.array([], type=pa.int64()),
        })
    out = out.sort_values("n_name")
    return pa.table({
        "n_name": pa.array(out["n_name"].tolist(), type=pa.string()),
        "n_customers": pa.array(
            out["n_customers"].astype("int64").tolist(), type=pa.int64()),
        "acctbal_cents": pa.array(
            out["acctbal_cents"].astype("int64").tolist(),
            type=pa.int64()),
    })


def silent_customers_sql(*, priority: str = ANTI_PRIORITY) -> str:
    return f"""
        SELECT n.n_name,
               count(*) AS n_customers,
               CAST(sum(CAST(round(c.c_acctbal * 100) AS BIGINT))
                   AS BIGINT) AS acctbal_cents
        FROM customer c
        JOIN nation n ON c.c_nationkey = n.n_nationkey
        WHERE NOT EXISTS (SELECT 1 FROM orders o
                          WHERE o.o_custkey = c.c_custkey
                            AND o.o_orderpriority = '{priority}')
        GROUP BY n.n_name
        ORDER BY n.n_name
    """


GQ_PS = (0.25, 0.5, 0.75, 0.95)


def group_quantiles(sf_dir: str, *, ps=GQ_PS) -> pa.Table:
    """EXACT per-group discrete quantiles (quantile_disc semantics) of
    l_quantity per return flag — the grouped sibling of
    queries.doc_length_quantiles: each batch emits a sparse
    (flag, value, count) histogram partial over the bounded integer
    domain, the groupby moves O(groups × distinct values × blocks)
    rows, and the driver does one cumulative scan per group.  No
    distributed sort, no per-group collection."""

    def partial(t: pa.Table) -> pa.Table:
        flags = t["l_returnflag"].to_numpy(zero_copy_only=False)
        qty = np.round(t["l_quantity"].to_numpy()).astype(np.int64)
        uf, fi = np.unique(flags, return_inverse=True)
        key = fi * np.int64(1 << 32) + qty
        uk, counts = np.unique(key, return_counts=True)
        return pa.table({
            "flag": pa.array(uf[(uk >> np.int64(32))].tolist(),
                             type=pa.string()),
            "v": pa.array(uk & np.int64(0xFFFFFFFF), type=pa.int64()),
            "c": pa.array(counts.astype(np.int64), type=pa.int64()),
        })

    hist = (
        _read(sf_dir, "lineitem", ["l_returnflag", "l_quantity"])
        .map_batches(partial, batch_format="pyarrow")
        .repartition(1)
        .groupby(["flag", "v"])
        .aggregate(Sum("c", alias_name="c"))
        .to_pandas()
    )
    if hist.empty or "flag" not in hist.columns:     # empty corpus
        hist = hist.reindex(columns=["flag", "v", "c"])
    hist = hist.sort_values(["flag", "v"])
    out_f, out_p, out_v = [], [], []
    for flag, g in hist.groupby("flag", sort=True):
        vals = g["v"].to_numpy()
        cum = g["c"].to_numpy().cumsum()
        n = int(cum[-1])
        for p in ps:
            rank = int(np.ceil(p * n))
            j = int(np.searchsorted(cum, max(rank, 1)))
            out_f.append(flag)
            out_p.append(p)
            out_v.append(int(vals[min(j, len(vals) - 1)]))
    return pa.table({
        "l_returnflag": pa.array(out_f, type=pa.string()),
        "p": pa.array(out_p, type=pa.float64()),
        "l_quantity": pa.array(out_v, type=pa.int64()),
    })


def group_quantiles_sql(*, ps=GQ_PS) -> str:
    selects = [
        f"""SELECT l_returnflag, CAST({p} AS DOUBLE) AS p,
                   CAST(quantile_disc(CAST(round(l_quantity) AS BIGINT),
                                      {p}) AS BIGINT) AS l_quantity
            FROM lineitem GROUP BY l_returnflag"""
        for p in ps
    ]
    return (" UNION ALL ".join(selects)
            + " ORDER BY l_returnflag, p")


def above_avg_histogram(sf_dir: str, *,
                        num_buckets: int | None = None) -> pa.Table:
    """The correlated-aggregate window shape: for each customer, how
    many of their orders exceed their own average order value — output
    as the (n_above → n_customers) distribution.

    The comparison is INTEGER-exact: order > customer mean iff
    cents·n_orders > total_cents (no float average ever materializes,
    so the value hash cannot flake on a representation boundary).
    Same custkey-hash bucket spill as customer_running_totals; one
    vectorized grouped pass per bucket; the combiner reduces to
    O(distinct n_above × buckets) rows."""
    import os

    import pyarrow.parquet as pq

    from ..functions.hashing import mix64
    from ..functions.spill import auto_buckets, spill_dir

    if num_buckets is None:
        num_buckets = auto_buckets(f"{sf_dir}/orders.parquet", lo=32)
    work_dir = spill_dir(prefix="pdfsearch_aboveavg_")

    def add_bucket(t: pa.Table) -> pa.Table:
        ck = t["o_custkey"].to_numpy(zero_copy_only=False).astype(np.int64)
        b = (mix64(ck.view(np.uint64))
             % np.uint64(num_buckets)).astype(np.int32)
        return t.append_column("bucket", pa.array(b))

    (
        _read(sf_dir, "orders", ["o_custkey", "o_totalprice"])
        .map_batches(add_bucket, batch_format="pyarrow")
        .repartition(num_buckets)
        .write_parquet(work_dir, partition_cols=["bucket"])
    )
    bucket_dirs = sorted(
        f"{work_dir}/{d}" for d in os.listdir(work_dir)
        if d.startswith("bucket="))

    def per_bucket(batch: pa.Table) -> pa.Table:
        outs_v, outs_c = [], []
        for bdir in batch["dir"].to_pylist():
            t = pq.read_table(bdir, use_threads=False)
            if t.num_rows == 0:
                continue
            ck = t["o_custkey"].to_numpy(zero_copy_only=False) \
                .astype(np.int64)
            cents = np.round(
                t["o_totalprice"].to_numpy() * 100).astype(np.int64)
            order = np.argsort(ck, kind="stable")
            ck, cents = ck[order], cents[order]
            starts = np.flatnonzero(np.r_[True, ck[1:] != ck[:-1]])
            counts = np.diff(np.r_[starts, ck.size])
            totals = np.add.reduceat(cents, starts)
            n_rep = np.repeat(counts, counts)
            tot_rep = np.repeat(totals, counts)
            above = (cents * n_rep > tot_rep).astype(np.int64)
            n_above = np.add.reduceat(above, starts)
            vals, ccounts = np.unique(n_above, return_counts=True)
            outs_v.append(vals)
            outs_c.append(ccounts.astype(np.int64))
        if not outs_v:
            return pa.table({
                "n_above": pa.array([], type=pa.int64()),
                "n_customers": pa.array([], type=pa.int64()),
            })
        return pa.table({
            "n_above": pa.array(np.concatenate(outs_v), type=pa.int64()),
            "n_customers": pa.array(np.concatenate(outs_c),
                                    type=pa.int64()),
        })

    agg = (
        rd.from_items([{"dir": d} for d in bucket_dirs],
                      override_num_blocks=max(1, len(bucket_dirs)))
        .map_batches(per_bucket, batch_format="pyarrow", batch_size=1)
        .repartition(1)
        .groupby("n_above")
        .aggregate(Sum("n_customers", alias_name="n_customers"))
        .to_pandas()
    )
    if agg.empty or "n_above" not in agg.columns:    # empty corpus
        return pa.table({
            "n_above": pa.array([], type=pa.int64()),
            "n_customers": pa.array([], type=pa.int64()),
        })
    agg = agg.sort_values("n_above")
    return pa.table({
        "n_above": pa.array(agg["n_above"].astype("int64").tolist(),
                            type=pa.int64()),
        "n_customers": pa.array(
            agg["n_customers"].astype("int64").tolist(),
            type=pa.int64()),
    })


def above_avg_sql() -> str:
    return """
        SELECT n_above, count(*) AS n_customers FROM (
            SELECT o_custkey,
                   CAST(sum(CASE WHEN cents * cnt > total
                            THEN 1 ELSE 0 END) AS BIGINT) AS n_above
            FROM (
                SELECT o_custkey,
                       CAST(round(o_totalprice * 100) AS BIGINT) AS cents,
                       count(*) OVER (PARTITION BY o_custkey) AS cnt,
                       sum(CAST(round(o_totalprice * 100) AS BIGINT))
                           OVER (PARTITION BY o_custkey) AS total
                FROM orders
            ) GROUP BY o_custkey
        ) GROUP BY n_above ORDER BY n_above
    """


BASKET_MIN_COUNT = 2
BASKET_TOPK = 100


def basket_pairs(sf_dir: str, *, num_buckets: int | None = None,
                 min_count: int = BASKET_MIN_COUNT,
                 k: int = BASKET_TOPK) -> pa.Table:
    """Market-basket co-occurrence: top-k part PAIRS by the number of
    orders containing both — the within-group self-join family
    (frequent-itemset mining's first pass).

    Scale shape: (orderkey, partkey) rows hash-spill on orderkey (an
    order's items never cross a bucket), each bucket task dedups,
    expands per-order sorted items into ordered pairs with a fully
    VECTORIZED repeat/offset construction (no per-order Python), and
    counts packed int64 pair codes; the groupby then moves per-bucket
    UNIQUE pairs, the ≥min filter and local top-k run distributed
    (the bigram_counts pattern), and the driver merge sees
    O(k × blocks) rows."""
    import os

    import pyarrow.parquet as pq

    from ..functions.hashing import mix64
    from ..functions.spill import auto_buckets, spill_dir

    if num_buckets is None:
        num_buckets = auto_buckets(f"{sf_dir}/lineitem.parquet", lo=32)
    work_dir = spill_dir(prefix="pdfsearch_basket_")

    def add_bucket(t: pa.Table) -> pa.Table:
        okey = t["l_orderkey"].to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        b = (mix64(okey.view(np.uint64))
             % np.uint64(num_buckets)).astype(np.int32)
        return t.append_column("bucket", pa.array(b))

    (
        _read(sf_dir, "lineitem", ["l_orderkey", "l_partkey"])
        .map_batches(add_bucket, batch_format="pyarrow")
        .repartition(num_buckets)
        .write_parquet(work_dir, partition_cols=["bucket"])
    )
    bucket_dirs = sorted(
        f"{work_dir}/{d}" for d in os.listdir(work_dir)
        if d.startswith("bucket="))

    empty = pa.table({
        "p1": pa.array([], type=pa.int64()),
        "p2": pa.array([], type=pa.int64()),
        "n": pa.array([], type=pa.int64()),
    })

    def per_bucket(batch: pa.Table) -> pa.Table:
        outs = []
        for bdir in batch["dir"].to_pylist():
            t = pq.read_table(bdir, use_threads=False)
            if t.num_rows == 0:
                continue
            ok = t["l_orderkey"].to_numpy(zero_copy_only=False) \
                .astype(np.int64)
            pk = t["l_partkey"].to_numpy(zero_copy_only=False) \
                .astype(np.int64)
            # dedup (order, part) then sort so parts ascend per order
            key = np.unique(ok * np.int64(1 << 32) + pk)
            ok = key >> np.int64(32)
            pk = key & np.int64(0xFFFFFFFF)
            starts = np.flatnonzero(np.r_[True, ok[1:] != ok[:-1]])
            counts = np.diff(np.r_[starts, ok.size])
            # vectorized ordered-pair expansion: row i at local
            # position j pairs with the c-1-j later rows of its order
            local = np.arange(ok.size, dtype=np.int64) \
                - np.repeat(starts, counts)
            reps = np.repeat(counts, counts) - 1 - local
            total = int(reps.sum())
            if total == 0:
                continue
            first = np.repeat(np.arange(ok.size, dtype=np.int64), reps)
            csum = np.cumsum(reps, dtype=np.int64) - reps
            second = (np.arange(total, dtype=np.int64)
                      - np.repeat(csum, reps) + first + 1)
            pair = pk[first] * np.int64(1 << 32) + pk[second]
            uniq, cnt = np.unique(pair, return_counts=True)
            # ONE packed int64 groupby key (not two columns): halves
            # the shuffle width and the grouping comparisons
            outs.append(pa.table({
                "pair": pa.array(uniq, type=pa.int64()),
                "n": pa.array(cnt.astype(np.int64), type=pa.int64()),
            }))
        return (pa.concat_tables(outs) if outs
                else pa.table({"pair": pa.array([], type=pa.int64()),
                               "n": pa.array([], type=pa.int64())}))

    def local_topk(t: pa.Table) -> pa.Table:
        t = t.filter(pc.greater_equal(t["n"], min_count))
        if t.num_rows == 0:
            return pa.table({"pair": pa.array([], type=pa.int64()),
                             "n": pa.array([], type=pa.int64())})
        df = t.to_pandas().sort_values(
            ["n", "pair"], ascending=[False, True],
            kind="mergesort").head(k)
        return pa.Table.from_pandas(df, preserve_index=False)

    agg = (
        rd.from_items([{"dir": d} for d in bucket_dirs],
                      override_num_blocks=max(1, len(bucket_dirs)))
        .map_batches(per_bucket, batch_format="pyarrow", batch_size=1)
        .groupby("pair")
        .aggregate(Sum("n", alias_name="n"))
        .map_batches(local_topk, batch_format="pyarrow")
        .to_pandas()
    )
    if agg.empty or "n" not in agg.columns:
        # an all-singleton corpus yields no pairs; the empty groupby
        # drops the schema (found by the session-13 hypothesis fuzz)
        return empty
    # (n desc, pair asc) == (n desc, p1 asc, p2 asc): the packed key
    # preserves the tie order because p1 occupies the high 32 bits
    agg = agg.sort_values(["n", "pair"], ascending=[False, True],
                          kind="mergesort").head(k)
    pair = agg["pair"].to_numpy().astype(np.int64)
    return pa.table({
        "p1": pa.array(pair >> np.int64(32), type=pa.int64()),
        "p2": pa.array(pair & np.int64(0xFFFFFFFF), type=pa.int64()),
        "n": pa.array(agg["n"].astype("int64").tolist(),
                      type=pa.int64()),
    })


def basket_pairs_sql(*, min_count: int = BASKET_MIN_COUNT,
                     k: int = BASKET_TOPK) -> str:
    return f"""
        WITH p AS (SELECT DISTINCT l_orderkey, l_partkey FROM lineitem)
        SELECT a.l_partkey AS p1, b.l_partkey AS p2, count(*) AS n
        FROM p a JOIN p b
          ON a.l_orderkey = b.l_orderkey
         AND a.l_partkey < b.l_partkey
        GROUP BY 1, 2 HAVING count(*) >= {min_count}
        ORDER BY n DESC, p1, p2 LIMIT {k}
    """


def revenue_cube(sf_dir: str) -> pa.Table:
    """GROUP BY CUBE(region, orderstatus): all four grouping sets —
    leaves, each single-dimension margin, and the grand total ('ALL'
    labels).  Same shape as revenue_rollup (fact joined once, tiny
    combiner, O(groups) driver derivation) but the CUBE adds the
    status-only margin the rollup lacks — the full OLAP grouping-sets
    surface."""
    import ray

    import pyarrow.parquet as pq

    from ..functions.joins import hash_join

    orders = _read(sf_dir, "orders", ["o_orderkey", "o_custkey",
                                      "o_orderstatus", "o_totalprice"])
    cust = _read(sf_dir, "customer", ["c_custkey", "c_nationkey"])
    joined = hash_join(orders, cust, left_on="o_custkey",
                       right_on="c_custkey", num_buckets=8)

    nt = pq.read_table(f"{sf_dir}/nation.parquet",
                       columns=["n_nationkey", "n_regionkey"])
    rt = pq.read_table(f"{sf_dir}/region.parquet",
                       columns=["r_regionkey", "r_name"])
    r2n = dict(zip(rt["r_regionkey"].to_pylist(),
                   rt["r_name"].to_pylist()))
    nmap_ref = ray.put({
        int(k): r2n[int(rk)]
        for k, rk in zip(nt["n_nationkey"].to_pylist(),
                         nt["n_regionkey"].to_pylist())})

    def tag(t: pa.Table) -> pa.Table:
        nmap = ray.get(nmap_ref)
        nk = t["c_nationkey"].to_numpy(zero_copy_only=False).astype(np.int64)
        status = t["o_orderstatus"].to_numpy(zero_copy_only=False)
        cents = np.round(
            t["o_totalprice"].to_numpy() * 100).astype(np.int64)
        keys = np.asarray(
            [nmap[int(k)] + "\x00" + str(s)
             for k, s in zip(nk, status)], dtype=object) \
            if nk.size else np.asarray([], dtype=object)
        uniq, inv = np.unique(keys, return_inverse=True)
        n = uniq.size
        return pa.table({
            "key": pa.array(uniq.tolist(), type=pa.string()),
            "n_orders": pa.array(
                np.bincount(inv, minlength=n).astype(np.int64)),
            "revenue_cents": pa.array(_group_sum_i64(inv, cents, n)),
        })

    leaf = (
        joined.map_batches(tag, batch_format="pyarrow")
        .repartition(1)
        .groupby("key")
        .aggregate(Sum("n_orders", alias_name="n_orders"),
                   Sum("revenue_cents", alias_name="revenue_cents"))
        .to_pandas()
    )
    empty = pa.table({
        "r_name": pa.array([], type=pa.string()),
        "o_orderstatus": pa.array([], type=pa.string()),
        "n_orders": pa.array([], type=pa.int64()),
        "revenue_cents": pa.array([], type=pa.int64()),
    })
    if leaf.empty or "key" not in leaf.columns:
        return empty
    leaf[["r_name", "o_orderstatus"]] = leaf["key"].str.split(
        "\x00", expand=True)
    leaf = leaf[["r_name", "o_orderstatus", "n_orders",
                 "revenue_cents"]]
    import pandas as pd

    m1 = (leaf.groupby("r_name", as_index=False)
          [["n_orders", "revenue_cents"]].sum())
    m1["o_orderstatus"] = "ALL"
    m2 = (leaf.groupby("o_orderstatus", as_index=False)
          [["n_orders", "revenue_cents"]].sum())
    m2["r_name"] = "ALL"
    tot = leaf[["n_orders", "revenue_cents"]].sum().to_frame().T
    tot["r_name"] = "ALL"
    tot["o_orderstatus"] = "ALL"
    out = pd.concat([leaf, m1, m2, tot], ignore_index=True)
    out = out.sort_values(["r_name", "o_orderstatus"]) \
             .reset_index(drop=True)
    return pa.table({
        "r_name": pa.array(out["r_name"].tolist(), type=pa.string()),
        "o_orderstatus": pa.array(out["o_orderstatus"].tolist(),
                                  type=pa.string()),
        "n_orders": pa.array(out["n_orders"].astype("int64").tolist(),
                             type=pa.int64()),
        "revenue_cents": pa.array(
            out["revenue_cents"].astype("int64").tolist(),
            type=pa.int64()),
    })


def cube_sql() -> str:
    return """
        SELECT coalesce(r.r_name, 'ALL') AS r_name,
               coalesce(o.o_orderstatus, 'ALL') AS o_orderstatus,
               count(*) AS n_orders,
               CAST(sum(CAST(round(o.o_totalprice * 100) AS BIGINT))
                   AS BIGINT) AS revenue_cents
        FROM orders o
        JOIN customer c ON o.o_custkey = c.c_custkey
        JOIN nation n ON c.c_nationkey = n.n_nationkey
        JOIN region r ON n.n_regionkey = r.r_regionkey
        GROUP BY CUBE(r.r_name, o.o_orderstatus)
        ORDER BY r_name, o_orderstatus
    """


HIST_BIN_CENTS = 50_000_00          # $50k bins
HIST_MAX_BINS = 200


def order_value_histogram(sf_dir: str, *,
                          bin_cents: int = HIST_BIN_CENTS) -> pa.Table:
    """Numeric histogram facet (the ES histogram aggregation): order
    counts + exact revenue per fixed-width value bin.  Integer floor
    bins over cents — arithmetic-exact on both sides.  Per-batch
    (bin, count, sum) combiner → tiny groupby; the shuffle moves
    O(occupied bins × blocks) rows."""

    def partial(t: pa.Table) -> pa.Table:
        cents = np.round(
            t["o_totalprice"].to_numpy() * 100).astype(np.int64)
        b = cents // bin_cents
        uniq, inv = np.unique(b, return_inverse=True)
        return pa.table({
            "bin": pa.array(uniq, type=pa.int64()),
            "n_orders": pa.array(
                np.bincount(inv, minlength=uniq.size).astype(np.int64)),
            "revenue_cents": pa.array(
                _group_sum_i64(inv, cents, uniq.size)),
        })

    agg = (
        _read(sf_dir, "orders", ["o_totalprice"])
        .map_batches(partial, batch_format="pyarrow")
        .repartition(1)
        .groupby("bin")
        .aggregate(Sum("n_orders", alias_name="n_orders"),
                   Sum("revenue_cents", alias_name="revenue_cents"))
        .to_pandas()
    )
    if agg.empty or "bin" not in agg.columns:
        return pa.table({
            "bin_lo_cents": pa.array([], type=pa.int64()),
            "n_orders": pa.array([], type=pa.int64()),
            "revenue_cents": pa.array([], type=pa.int64()),
        })
    agg = agg.sort_values("bin")
    return pa.table({
        "bin_lo_cents": pa.array(
            (agg["bin"].to_numpy().astype(np.int64)
             * bin_cents).tolist(), type=pa.int64()),
        "n_orders": pa.array(agg["n_orders"].astype("int64").tolist(),
                             type=pa.int64()),
        "revenue_cents": pa.array(
            agg["revenue_cents"].astype("int64").tolist(),
            type=pa.int64()),
    })


def histogram_sql(*, bin_cents: int = HIST_BIN_CENTS) -> str:
    return f"""
        SELECT (CAST(round(o_totalprice * 100) AS BIGINT)
                // {bin_cents}) * {bin_cents} AS bin_lo_cents,
               count(*) AS n_orders,
               CAST(sum(CAST(round(o_totalprice * 100) AS BIGINT))
                   AS BIGINT) AS revenue_cents
        FROM orders
        GROUP BY bin_lo_cents ORDER BY bin_lo_cents
    """


# ---------------------------------------------------------- percentile ranks

# fixed probe values for the percentile_ranks aggregation (cents)
PCT_RANK_VALUES_CENTS = (10_000_000, 25_000_000, 40_000_000)


def order_value_pct_ranks(
        sf_dir: str, *,
        values_cents: tuple[int, ...] = PCT_RANK_VALUES_CENTS,
) -> pa.Table:
    """percentile_ranks — the inverse of the quantile aggregation (ES
    percentile_ranks): for each probe value, the share of orders with
    totalprice <= value, in integer-exact basis points
    (``rank_bp = 10000 * n_le // n_total``).  Scale shape: each batch
    emits ONE row per probe value (count below + batch total) — an
    O(values) combiner, no shuffle of order rows, O(values) driver
    state; exact at any corpus size, unlike the t-digest approximation
    ES uses (divergence documented)."""
    vals = np.asarray(sorted(values_cents), dtype=np.int64)

    def partial(t: pa.Table) -> pa.Table:
        cents = np.round(
            t["o_totalprice"].to_numpy() * 100).astype(np.int64)
        cents.sort()
        n_le = np.searchsorted(cents, vals, side="right").astype(np.int64)
        return pa.table({
            "value_cents": pa.array(vals, type=pa.int64()),
            "n_le": pa.array(n_le, type=pa.int64()),
            "n_total": pa.array(np.full(vals.size, cents.size,
                                        dtype=np.int64)),
        })

    agg = (
        _read(sf_dir, "orders", ["o_totalprice"])
        .map_batches(partial, batch_format="pyarrow")
        .repartition(1)
        .groupby("value_cents")
        .aggregate(Sum("n_le", alias_name="n_le"),
                   Sum("n_total", alias_name="n_total"))
        .to_pandas()
    )
    from ..functions.tables import typed_pandas
    agg = typed_pandas(agg, {
        "value_cents": "int64", "n_le": "int64", "n_total": "int64"})
    # one row per probe value, as the oracle gives: a probe no batch
    # reported (an empty orders table has no batches) counts 0 of 0
    agg = agg.set_index("value_cents").reindex(vals, fill_value=0)
    n_le = agg["n_le"].to_numpy().astype(np.int64)
    n_tot = agg["n_total"].to_numpy().astype(np.int64)
    return pa.table({
        "value_cents": pa.array(vals, type=pa.int64()),
        "n_le": pa.array(n_le, type=pa.int64()),
        "rank_bp": pa.array(
            10_000 * n_le // np.maximum(n_tot, 1), type=pa.int64()),
    })


def pct_ranks_sql(
        *, values_cents: tuple[int, ...] = PCT_RANK_VALUES_CENTS) -> str:
    """Oracle: one scalar-subquery count per probe value."""
    rows = ", ".join(f"({v})" for v in sorted(values_cents))
    return f"""
        WITH probes(value_cents) AS (VALUES {rows}),
        c AS (SELECT CAST(round(o_totalprice * 100) AS BIGINT) AS cents
              FROM orders)
        SELECT CAST(value_cents AS BIGINT) AS value_cents,
               (SELECT count(*) FROM c WHERE cents <= value_cents) AS n_le,
               CAST(10000 * (SELECT count(*) FROM c
                             WHERE cents <= value_cents)
                    // greatest((SELECT count(*) FROM c), 1)
                    AS BIGINT) AS rank_bp
        FROM probes ORDER BY value_cents
    """


# ------------------------------------------------------------ matrix stats

def value_matrix_stats(sf_dir: str) -> pa.Table:
    """matrix_stats — the ES multi-field numeric statistics aggregation
    over (l_quantity, l_extendedprice): count, means, population
    covariance and Pearson correlation.  All five moment sums are EXACT
    integers — per-batch int64 partials (batch_size bounds the partial
    below int64 range: 4096 rows × cents² ≈ 4e17) summed as Python
    arbitrary-precision ints on the driver, so the float divisions at
    the end start from identical integers on both engines (the DuckDB
    oracle accumulates the same moments in HUGEINT; a float-accumulated
    covar_pop would NOT hash-match, which is the point of the integer
    detour).  Scale shape: one streaming pass, O(1) partial per batch,
    O(blocks) driver rows — the textbook distributed-moments sketch."""
    import math

    def partial(t: pa.Table) -> pa.Table:
        x = np.round(t["l_quantity"].to_numpy()).astype(np.int64)
        y = np.round(t["l_extendedprice"].to_numpy() * 100) \
            .astype(np.int64)
        return pa.table({
            "n": pa.array([x.size], type=pa.int64()),
            "sx": pa.array([int(x.sum())], type=pa.int64()),
            "sy": pa.array([int(y.sum())], type=pa.int64()),
            "sxx": pa.array([int((x * x).sum())], type=pa.int64()),
            "syy": pa.array([int((y * y).sum())], type=pa.int64()),
            "sxy": pa.array([int((x * y).sum())], type=pa.int64()),
        })

    parts = (
        _read(sf_dir, "lineitem", ["l_quantity", "l_extendedprice"])
        .map_batches(partial, batch_format="pyarrow", batch_size=4096)
        .to_pandas()
    )
    from ..functions.tables import typed_pandas
    parts = typed_pandas(parts, {c: "int64" for c in
                                 ("n", "sx", "sy", "sxx", "syy", "sxy")})
    if len(parts) == 0 or int(parts["n"].sum()) == 0:
        return pa.table({
            "n_rows": pa.array([], type=pa.int64()),
            "mean_qty": pa.array([], type=pa.float64()),
            "mean_price_cents": pa.array([], type=pa.float64()),
            "covariance": pa.array([], type=pa.float64()),
            "correlation": pa.array([], type=pa.float64()),
        })
    # exact big-int totals (int64 would overflow on the y² moment)
    n, sx, sy, sxx, syy, sxy = (
        sum(int(v) for v in parts[c]) for c in
        ("n", "sx", "sy", "sxx", "syy", "sxy"))
    cov_num = n * sxy - sx * sy          # exact ints
    var_x = n * sxx - sx * sx
    var_y = n * syy - sy * sy
    corr = float(cov_num) / math.sqrt(float(var_x) * float(var_y)) \
        if var_x > 0 and var_y > 0 else 0.0
    return pa.table({
        "n_rows": pa.array([n], type=pa.int64()),
        "mean_qty": pa.array([round(float(sx) / n, 6)],
                             type=pa.float64()),
        "mean_price_cents": pa.array([round(float(sy) / n, 6)],
                                     type=pa.float64()),
        "covariance": pa.array([round(float(cov_num) / (n * n), 6)],
                               type=pa.float64()),
        "correlation": pa.array([round(corr, 6)], type=pa.float64()),
    })


def matrix_stats_sql() -> str:
    """Oracle: identical integer moments in HUGEINT, identical float
    expression order (cast-then-multiply-then-sqrt)."""
    return """
        WITH v AS (
            SELECT CAST(round(l_quantity) AS HUGEINT) AS x,
                   CAST(round(l_extendedprice * 100) AS HUGEINT) AS y
            FROM lineitem),
        m AS (SELECT count(*) AS n, sum(x) AS sx, sum(y) AS sy,
                     sum(x * x) AS sxx, sum(y * y) AS syy,
                     sum(x * y) AS sxy
              FROM v)
        SELECT CAST(n AS BIGINT) AS n_rows,
               round(CAST(sx AS DOUBLE) / n, 6) AS mean_qty,
               round(CAST(sy AS DOUBLE) / n, 6) AS mean_price_cents,
               round(CAST(n * sxy - sx * sy AS DOUBLE) / (n * n), 6)
                   AS covariance,
               round(CAST(n * sxy - sx * sy AS DOUBLE)
                     / sqrt(CAST(n * sxx - sx * sx AS DOUBLE)
                            * CAST(n * syy - sy * sy AS DOUBLE)), 6)
                   AS correlation
        FROM m
    """
