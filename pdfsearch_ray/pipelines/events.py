"""Event-stream operators: tumbling-window aggregation and gap-based
sessionization, Ray-Data-first.

The reference is strictly batch with no windowing (SURVEY §2.9); these
are the engine's window/stateful additions for log/event workloads, both
ANSI-SQL-expressible so the driver value-checks them against DuckDB.

Partitioning notes (scale):
* Tumbling windows need NO shuffle beyond the final small groupby — the
  window key is computed per batch (vectorized timestamp floor) and the
  aggregate's key cardinality is (windows × event types), tiny compared
  to rows.
* Sessionization's only correct partitioning key is ``user_id`` (a
  session never spans users).  The groupby shuffles narrow columns only;
  per-group work is a vectorized diff/cumsum, not a Python row loop.
  Hot users (bots) are the skew risk at web scale — the same salting
  machinery as head terms applies if one user exceeds a group budget,
  at the cost of splitting that user's sessions at salt boundaries.
"""

from __future__ import annotations

from ..functions.spill import bucket_exchange

import numpy as np
import pyarrow as pa

import ray.data as rd
from ray.data.aggregate import Count, Sum

WINDOW_MINUTES = 60
SESSION_GAP_MINUTES = 30


def _events(sf_dir: str, columns: list[str]) -> rd.Dataset:
    from ..functions.tables import read_parquet_nometa

    return read_parquet_nometa(
        f"{sf_dir}/events.parquet", columns=columns)


def windowed_event_counts(sf_dir: str) -> rd.Dataset:
    """Per (1-hour tumbling window, event_type): event count and value
    sum.  Window assignment is a vectorized integer floor inside
    map_batches; only the tiny (window, type) aggregate shuffles."""
    win_us = WINDOW_MINUTES * 60 * 1_000_000

    def assign(batch: pa.Table) -> pa.Table:
        ts = batch["ts"].cast(pa.int64()).to_numpy()
        win = (ts // win_us) * win_us
        # exact integer cents (the synthetic values carry 2 decimals):
        # float sums depend on Ray's nondeterministic block arrival
        # order and can flip a 6-dp rounding boundary between runs;
        # integer sums are order-independent, so the driver's exact
        # value-hash cannot flake
        cents = np.round(batch["value"].to_numpy() * 100).astype(np.int64)
        return pa.table({
            "window_start": pa.array(win).cast(pa.timestamp("us")),
            "event_type": batch["event_type"],
            "value_cents": pa.array(cents, type=pa.int64()),
        })

    return (
        _events(sf_dir, ["ts", "event_type", "value"])
        .map_batches(assign, batch_format="pyarrow")
        .groupby(["window_start", "event_type"])
        .aggregate(Count(alias_name="n_events"),
                   Sum("value_cents", alias_name="sum_value_cents"))
    )


def sessionize_block(t: pa.Table, gap_us: int) -> pa.Table:
    """ONE vectorized pass sessionizing a whole (user-complete) block:
    lexsort by (user_id, ts, event_id), session breaks at user changes or
    gaps > ``gap_us``, then reduceat over the break offsets — no
    per-user Python dispatch."""
    if t.num_rows == 0:
        return pa.table({
            "user_id": pa.array([], type=pa.int64()),
            "session_start": pa.array([], type=pa.timestamp("us")),
            "session_end": pa.array([], type=pa.timestamp("us")),
            "n_events": pa.array([], type=pa.int64()),
            "sum_value_cents": pa.array([], type=pa.int64()),
        })
    uid = t["user_id"].to_numpy(zero_copy_only=False).astype(np.int64)
    ts = t["ts"].cast(pa.int64()).to_numpy()
    eid = t["event_id"].to_numpy(zero_copy_only=False).astype(np.int64)
    val = np.round(t["value"].to_numpy(zero_copy_only=False)
                   * 100).astype(np.int64)
    order = np.lexsort((eid, ts, uid))
    uid, ts, val = uid[order], ts[order], val[order]
    new_s = np.ones(len(uid), dtype=bool)
    if len(uid) > 1:
        new_s[1:] = (uid[1:] != uid[:-1]) | ((ts[1:] - ts[:-1]) > gap_us)
    starts = np.nonzero(new_s)[0]
    ends = np.append(starts[1:], len(uid)) - 1
    return pa.table({
        "user_id": pa.array(uid[starts], type=pa.int64()),
        "session_start": pa.array(ts[starts]).cast(pa.timestamp("us")),
        "session_end": pa.array(ts[ends]).cast(pa.timestamp("us")),
        "n_events": pa.array((ends - starts + 1).astype(np.int64)),
        # reduceat over int64 is exact; cents keep the hash stable
        "sum_value_cents": pa.array(
            np.add.reduceat(val, starts).astype(np.int64), type=pa.int64()),
    })


def user_sessions(sf_dir: str, *, num_buckets: int = 32) -> rd.Dataset:
    """Gap-based sessionization: consecutive events of a user belong to
    one session while the gap stays ≤ SESSION_GAP_MINUTES.  Emits one row
    per session with start/end, count and value sum.

    Partitioning: a map-side hash spill on ``mix64(user_id) % B`` (the
    posting build's shuffle pattern — no all-to-all sort, each user's
    events land wholly in one bucket file), then ONE vectorized
    sessionize pass per bucket (``sessionize_block``).  This replaces
    the per-user ``map_groups`` call (one pandas dispatch per user —
    per-key Python at web scale); ``num_buckets`` bounds per-task memory
    at corpus_events/B rows of 4 narrow columns."""
    gap_us = SESSION_GAP_MINUTES * 60 * 1_000_000
    return bucket_exchange(
        # rows are 4 narrow columns: coalesce to num_buckets blocks
        # before the partitioned write so the spill is num_buckets²
        # files, not (input blocks × num_buckets) tiny ones (same as
        # dup_loser_ids)
        [_events(sf_dir, ["event_id", "user_id", "ts", "value"])
         .repartition(num_buckets)],
        ["user_id"], num_buckets,
        lambda _b, t: sessionize_block(t, gap_us))


ASOF_REF_TYPE = "purchase"


def asof_block(t: pa.Table, ref_type: str) -> pa.Table:
    """Vectorized per-partition as-of join: each event gets the most
    recent (ts <= event ts, inclusive) reference-type event of the SAME
    user.  Reference rows are deduped to one per (user, ts) by max
    event_id first, so ties resolve identically to the SQL oracle's
    ``max(event_id) GROUP BY user_id, ts`` pre-aggregation.

    The composite search key packs dense (user, ts) RANKS into one
    int64 (rank widths sum to <= 62 bits for any block size, so the
    packing cannot overflow for any user count or timestamp span) and
    ONE ``np.searchsorted`` resolves every row against the reference
    timeline with no per-user Python loop."""
    if t.num_rows == 0:
        return pa.table({
            "event_id": pa.array([], type=pa.int64()),
            "user_id": pa.array([], type=pa.int64()),
            "ts": pa.array([], type=pa.timestamp("us")),
            "ref_event_id": pa.array([], type=pa.int64()),
            "ref_value": pa.array([], type=pa.float64()),
        })
    eid = t["event_id"].to_numpy(zero_copy_only=False).astype(np.int64)
    uid = t["user_id"].to_numpy(zero_copy_only=False).astype(np.int64)
    ts = t["ts"].cast(pa.int64()).to_numpy(zero_copy_only=False)
    etype = np.asarray(t["event_type"].to_pylist())
    val = t["value"].to_numpy(zero_copy_only=False)

    _, udense = np.unique(uid, return_inverse=True)
    # pack (user, ts) into ONE int64 with dense ranks on BOTH fields so
    # the packing can never overflow regardless of user count or
    # timestamp span: n_users + n_distinct_ts are each <= block rows
    # (<= 2^31), so rank_bits + user_bits <= 62 always fits.  (A fixed
    # 46-bit ts field silently cross-matched users past 2^18 distinct
    # users per block.)
    _, trank = np.unique(ts, return_inverse=True)
    ts_bits = max(1, int(trank.max()).bit_length()) if trank.size else 1
    if udense.size:
        assert (int(udense.max()).bit_length() + ts_bits) <= 62, \
            "asof key packing overflow"
    key = (udense.astype(np.int64) << ts_bits) | trank.astype(np.int64)

    is_ref = etype == ref_type
    r_key = key[is_ref]
    r_eid = eid[is_ref]
    r_val = val[is_ref]
    # dedupe (user, ts): keep max event_id — sort by (key, event_id)
    # then take the LAST row of each key group
    order = np.lexsort((r_eid, r_key))
    r_key, r_eid, r_val = r_key[order], r_eid[order], r_val[order]
    last = np.ones(r_key.size, dtype=bool)
    if r_key.size > 1:
        last[:-1] = r_key[1:] != r_key[:-1]
    r_key, r_eid, r_val = r_key[last], r_eid[last], r_val[last]

    idx = np.searchsorted(r_key, key, side="right") - 1
    # a hit only counts within the same user's segment of the keyline
    ok = idx >= 0
    if r_key.size:
        same_user = np.zeros(key.size, dtype=bool)
        same_user[ok] = ((r_key[idx[ok]] >> ts_bits)
                         == (key[ok] >> ts_bits))
        ok &= same_user
    else:
        ok[:] = False
    # no-match sentinels (-1 / -1.0) instead of nulls: NaN==NaN is
    # false in every comparison layer, which makes null-bearing float
    # columns un-hash-comparable; the oracle COALESCEs identically
    ref_eid = np.where(ok, r_eid[np.clip(idx, 0, None)]
                       if r_key.size else 0, -1).astype(np.int64)
    ref_v = np.where(ok, r_val[np.clip(idx, 0, None)]
                     if r_key.size else 0.0, -1.0).astype(np.float64)
    return pa.table({
        "event_id": pa.array(eid),
        "user_id": pa.array(uid),
        "ts": t["ts"],
        "ref_event_id": pa.array(ref_eid, type=pa.int64()),
        "ref_value": pa.array(np.round(ref_v, 6), type=pa.float64()),
    })


def asof_join_events(sf_dir: str, *, ref_type: str = ASOF_REF_TYPE,
                     num_buckets: int = 32) -> rd.Dataset:
    """Distributed AS-OF JOIN (the canonical time-series enrichment the
    Dataset API lacks): every event is annotated with the most recent
    reference-type event of the same user.  Same partitioning scheme as
    sessionization — a map-side hash spill on ``mix64(user_id) % B``
    co-locates each user's full timeline in one bucket, then one
    vectorized ``asof_block`` pass per bucket.  The shuffle moves five
    narrow columns; no all-to-all sort, no per-user dispatch.  Oracle:
    DuckDB's native ``ASOF LEFT JOIN`` over the same pre-deduped
    reference table (__ray_entry__.oracle_sql)."""
    return bucket_exchange(
        [_events(sf_dir, ["event_id", "user_id", "ts", "event_type",
                          "value"]).repartition(num_buckets)],
        ["user_id"], num_buckets,
        lambda _b, t: asof_block(t, ref_type))


SLIDE_SIZE_MINUTES = 60
SLIDE_HOP_MINUTES = 15


def sliding_event_counts(sf_dir: str) -> rd.Dataset:
    """Sliding-window aggregate (size 60 min, hop 15 min): every event
    contributes to size/hop = 4 overlapping windows.  The expansion is a
    vectorized ``np.repeat`` inside map_batches — each event row fans
    out to its 4 covering window keys before the aggregate — so, as with
    the tumbling windows, the only shuffle is the tiny
    (window, event_type) groupby; the raw events never move.  Window
    starts are epoch-floor multiples of the hop, matching the SQL
    oracle's arithmetic exactly."""
    size_us = SLIDE_SIZE_MINUTES * 60 * 1_000_000
    hop_us = SLIDE_HOP_MINUTES * 60 * 1_000_000
    k = size_us // hop_us

    def expand(batch: pa.Table) -> pa.Table:
        ts = batch["ts"].cast(pa.int64()).to_numpy()
        base = (ts // hop_us) * hop_us
        offsets = np.arange(k, dtype=np.int64) * hop_us
        win = (np.repeat(base, k).reshape(-1, k) - offsets).ravel()
        cents = np.round(batch["value"].to_numpy() * 100).astype(np.int64)
        return pa.table({
            "window_start": pa.array(win).cast(pa.timestamp("us")),
            "event_type": pa.array(
                np.repeat(np.asarray(batch["event_type"].to_pylist()), k)),
            "value_cents": pa.array(np.repeat(cents, k), type=pa.int64()),
        })

    return (
        _events(sf_dir, ["ts", "event_type", "value"])
        .map_batches(expand, batch_format="pyarrow")
        .groupby(["window_start", "event_type"])
        .aggregate(Count(alias_name="n_events"),
                   Sum("value_cents", alias_name="sum_value_cents"))
    )


# ---------------------------------------------------------- funnel

FUNNEL_STEPS = ("view", "click", "purchase")
FUNNEL_HORIZON_HOURS = 24


def funnel_block(t: pa.Table, steps, horizon_us: int):
    """Per-bucket vectorized funnel pass (greedy first-match, the
    Amplitude/GA definition): step 1 = a user's FIRST `steps[0]`
    event; step k = the first `steps[k]` event strictly after the
    user's step-(k-1) time and within `horizon_us` of step 1.
    Returns per-step (n_users, sum_lag_us) partials for this bucket —
    lag measured from step 1, exact integer microseconds."""
    uid = t["user_id"].to_numpy(zero_copy_only=False).astype(np.int64)
    ts = t["ts"].to_numpy(zero_copy_only=False).view("int64")
    et = t["event_type"].to_numpy(zero_copy_only=False)

    def first_per_user(u, x):
        order = np.lexsort((x, u))
        u, x = u[order], x[order]
        keep = np.r_[True, u[1:] != u[:-1]]
        return u[keep], x[keep]

    m0 = et == steps[0]
    users, t1 = first_per_user(uid[m0], ts[m0])
    n_users = [int(users.size)]
    sum_lag = [0]
    t_prev = t1
    t_first = t1
    for k in range(1, len(steps)):
        mk = et == steps[k]
        u_k, ts_k = uid[mk], ts[mk]
        idx = np.searchsorted(users, u_k)
        ok = (idx < users.size)
        idx_c = np.minimum(idx, max(users.size - 1, 0))
        ok &= users[idx_c] == u_k
        ok &= ts_k > t_prev[idx_c]
        ok &= ts_k <= t_first[idx_c] + horizon_us
        if not ok.any():
            n_users += [0] * (len(steps) - k)
            sum_lag += [0] * (len(steps) - k)
            break
        users_k, tk = first_per_user(u_k[ok], ts_k[ok])
        # carry each surviving user's step-1 time forward
        pos = np.searchsorted(users, users_k)
        t_first_k = t_first[pos]
        n_users.append(int(users_k.size))
        sum_lag.append(int((tk - t_first_k).sum()))
        users, t_prev, t_first = users_k, tk, t_first_k
    return n_users, sum_lag


def funnel_counts(sf_dir: str, *, steps=FUNNEL_STEPS,
                  horizon_hours: int = FUNNEL_HORIZON_HOURS,
                  num_buckets: int = 32) -> pa.Table:
    """Ordered funnel conversion gate: (step, event_type, n_users,
    sum_lag_us) — integer-exact, so the value hash cannot flake.

    Partitioning: the user_sessions hash-spill shape (each user's
    events land wholly in one bucket; no all-to-all sort), one
    vectorized funnel pass per bucket, O(steps) partial rows per
    bucket to the driver."""
    horizon_us = int(horizon_hours) * 3600 * 1_000_000

    def per_bucket(_b: int, t: pa.Table) -> pa.Table:
        n, l = funnel_block(t, steps, horizon_us)
        return pa.table({
            "step": pa.array(np.arange(1, len(steps) + 1)),
            "n_users": pa.array(np.array(n, dtype=np.int64)),
            "sum_lag_us": pa.array(np.array(l, dtype=np.int64)),
        })

    part = bucket_exchange(
        [_events(sf_dir, ["user_id", "ts", "event_type"])
         .repartition(num_buckets)],
        ["user_id"], num_buckets, per_bucket).to_pandas()
    from ..functions.tables import typed_pandas
    part = typed_pandas(part, {
        "step": "int64", "n_users": "int64", "sum_lag_us": "int64"})
    agg = part.groupby("step")[["n_users", "sum_lag_us"]].sum()
    return pa.table({
        "step": pa.array([int(s) for s in agg.index], type=pa.int64()),
        "event_type": pa.array([steps[s - 1] for s in agg.index],
                               type=pa.string()),
        "n_users": pa.array(agg["n_users"].astype("int64").tolist(),
                            type=pa.int64()),
        "sum_lag_us": pa.array(agg["sum_lag_us"].astype("int64").tolist(),
                               type=pa.int64()),
    })


def funnel_sql(*, steps=FUNNEL_STEPS,
               horizon_hours: int = FUNNEL_HORIZON_HOURS) -> str:
    """Oracle: chained per-user min-after-previous CTEs with the
    step-1 horizon, integer lag sums."""
    a, b, c = steps
    h = int(horizon_hours)
    return f"""
        WITH s1 AS (
            SELECT user_id, min(ts) AS t1 FROM events
            WHERE event_type = '{a}' GROUP BY user_id
        ),
        s2 AS (
            SELECT e.user_id, min(e.ts) AS t2, any_value(s1.t1) AS t1
            FROM events e JOIN s1 USING (user_id)
            WHERE e.event_type = '{b}' AND e.ts > s1.t1
              AND e.ts <= s1.t1 + INTERVAL {h} HOUR
            GROUP BY e.user_id
        ),
        s3 AS (
            SELECT e.user_id, min(e.ts) AS t3, any_value(s2.t1) AS t1
            FROM events e JOIN s2 USING (user_id)
            WHERE e.event_type = '{c}' AND e.ts > s2.t2
              AND e.ts <= s2.t1 + INTERVAL {h} HOUR
            GROUP BY e.user_id
        )
        SELECT * FROM (
            SELECT CAST(1 AS BIGINT) AS step, '{a}' AS event_type,
                   (SELECT count(*) FROM s1) AS n_users,
                   CAST(0 AS BIGINT) AS sum_lag_us
            UNION ALL
            SELECT 2, '{b}', (SELECT count(*) FROM s2),
                   coalesce((SELECT CAST(sum(epoch_us(t2) - epoch_us(t1))
                             AS BIGINT) FROM s2), 0)
            UNION ALL
            SELECT 3, '{c}', (SELECT count(*) FROM s3),
                   coalesce((SELECT CAST(sum(epoch_us(t3) - epoch_us(t1))
                             AS BIGINT) FROM s3), 0)
        ) ORDER BY step"""


def daily_active_users(sf_dir: str, *,
                       num_buckets: int | None = None) -> pa.Table:
    """Exact DISTINCT-per-group at scale: active users per calendar
    day.  COUNT(DISTINCT) is the classic shuffle trap — the correct
    at-scale shape is the same user-hash bucket spill every other
    per-user op here uses: each user's events land wholly in ONE
    bucket, so per-bucket (day, user) dedup partials can simply be
    SUMMED per day with no cross-bucket double counting.  The driver
    sees O(days × buckets) partial rows, never user IDs."""
    from ..functions.spill import auto_buckets

    if num_buckets is None:   # scale knob: bytes-derived, not fixed
        num_buckets = auto_buckets(f"{sf_dir}/events.parquet", lo=32)

    def per_bucket(_b: int, t: pa.Table) -> pa.Table:
        uid = t["user_id"].to_numpy(zero_copy_only=False)
        day = (t["ts"].to_numpy(zero_copy_only=False)
               .astype("datetime64[D]").view(np.int64))
        pair = np.unique(day * np.int64(1 << 40) + uid)
        days, counts = np.unique(pair >> np.int64(40), return_counts=True)
        return pa.table({
            "day_i": pa.array(days, type=pa.int64()),
            "n_users": pa.array(counts.astype(np.int64), type=pa.int64()),
        })

    agg = (
        bucket_exchange(
            [_events(sf_dir, ["user_id", "ts"]).repartition(num_buckets)],
            ["user_id"], num_buckets, per_bucket)
        .repartition(1)
        .groupby("day_i")
        .aggregate(Sum("n_users", alias_name="n_users"))
        .to_pandas()
    )
    if agg.empty or "day_i" not in agg.columns:     # empty corpus
        return pa.table({
            "day": pa.array([], type=pa.string()),
            "n_users": pa.array([], type=pa.int64()),
        })
    agg = agg.sort_values("day_i")
    days = agg["day_i"].to_numpy().astype("datetime64[D]")
    return pa.table({
        "day": pa.array(np.datetime_as_string(days, unit="D").tolist(),
                        type=pa.string()),
        "n_users": pa.array(agg["n_users"].astype("int64").tolist(),
                            type=pa.int64()),
    })


def dau_sql() -> str:
    return """
        SELECT strftime(ts, '%Y-%m-%d') AS day,
               count(DISTINCT user_id) AS n_users
        FROM events GROUP BY day ORDER BY day
    """


def daily_event_deltas(sf_dir: str) -> pa.Table:
    """date_histogram + derivative — the ES pipeline-aggregation pair:
    events per calendar day, plus each day's first derivative (count
    minus the previous PRESENT day's count; 0 for the first bucket —
    gaps are not zero-filled, matching the LAG-over-present-buckets
    oracle).  Scale shape: a per-batch (day, n) combiner → one
    days-sized groupby; the derivative is an O(days) driver scan over
    the already-tiny result — pipeline aggregations never touch the
    event stream."""
    from ray.data.aggregate import Sum

    def partial(t: pa.Table) -> pa.Table:
        day = (t["ts"].to_numpy(zero_copy_only=False)
               .astype("datetime64[D]").view(np.int64))
        days, counts = np.unique(day, return_counts=True)
        return pa.table({
            "day_i": pa.array(days, type=pa.int64()),
            "n_events": pa.array(counts.astype(np.int64),
                                 type=pa.int64()),
        })

    agg = (
        _events(sf_dir, ["ts"])
        .map_batches(partial, batch_format="pyarrow")
        .repartition(1)
        .groupby("day_i")
        .aggregate(Sum("n_events", alias_name="n_events"))
        .to_pandas()
    )
    if agg.empty or "day_i" not in agg.columns:     # empty corpus
        return pa.table({
            "day": pa.array([], type=pa.string()),
            "n_events": pa.array([], type=pa.int64()),
            "delta": pa.array([], type=pa.int64()),
        })
    agg = agg.sort_values("day_i")
    n = agg["n_events"].to_numpy().astype(np.int64)
    delta = np.concatenate(([0], np.diff(n)))
    days = agg["day_i"].to_numpy().astype("datetime64[D]")
    return pa.table({
        "day": pa.array(np.datetime_as_string(days, unit="D").tolist(),
                        type=pa.string()),
        "n_events": pa.array(n, type=pa.int64()),
        "delta": pa.array(delta, type=pa.int64()),
    })


def daily_event_deltas_sql() -> str:
    """Oracle: the day histogram + one LAG window (coalesce 0 mirrors
    the first-bucket convention)."""
    return """
        WITH d AS (
            SELECT strftime(ts, '%Y-%m-%d') AS day,
                   count(*) AS n_events
            FROM events GROUP BY day
        )
        SELECT day, CAST(n_events AS BIGINT) AS n_events,
               CAST(coalesce(n_events - lag(n_events) OVER (ORDER BY day),
                             0) AS BIGINT) AS delta
        FROM d ORDER BY day
    """


def transitions_block(t: pa.Table) -> pa.Table:
    """Per-partition Markov transition counts: one lexsort by
    (user, ts, event_id), adjacent same-user pairs, packed-code
    np.unique — no per-user Python."""
    empty = pa.table({
        "prev_type": pa.array([], type=pa.string()),
        "event_type": pa.array([], type=pa.string()),
        "n": pa.array([], type=pa.int64()),
    })
    if t.num_rows < 2:
        return empty
    uid = t["user_id"].to_numpy(zero_copy_only=False).astype(np.int64)
    ts = (t["ts"].to_numpy(zero_copy_only=False)
          .astype("datetime64[us]").view(np.int64))
    eid = t["event_id"].to_numpy(zero_copy_only=False).astype(np.int64)
    et = t["event_type"].to_numpy(zero_copy_only=False)
    order = np.lexsort((eid, ts, uid))
    uid, et = uid[order], et[order]
    same = uid[1:] == uid[:-1]
    if not same.any():
        return empty
    types, codes = np.unique(et, return_inverse=True)
    k = types.size
    key = codes[:-1][same] * k + codes[1:][same]
    uniq, counts = np.unique(key, return_counts=True)
    return pa.table({
        "prev_type": pa.array(types[uniq // k].tolist(),
                              type=pa.string()),
        "event_type": pa.array(types[uniq % k].tolist(),
                               type=pa.string()),
        "n": pa.array(counts.astype(np.int64), type=pa.int64()),
    })


def event_transitions(sf_dir: str, *,
                      num_buckets: int | None = None) -> pa.Table:
    """Event-type transition matrix (the LAG() window shape): for every
    consecutive pair in a user's time-ordered stream, count
    (prev_type → event_type).  Same user-hash bucket spill as
    user_sessions — a user's timeline never crosses a bucket, so
    adjacency is exact — then one vectorized pass per bucket and an
    O(types² × buckets) combiner reduce."""
    from ..functions.spill import auto_buckets

    if num_buckets is None:
        num_buckets = auto_buckets(f"{sf_dir}/events.parquet", lo=32)
    agg = (
        bucket_exchange(
            [_events(sf_dir, ["event_id", "user_id", "ts", "event_type"])
             .repartition(num_buckets)],
            ["user_id"], num_buckets,
            lambda _b, t: transitions_block(t))
        .repartition(1)
        .groupby(["prev_type", "event_type"])
        .aggregate(Sum("n", alias_name="n"))
        .to_pandas()
    )
    if agg.empty or "prev_type" not in agg.columns:  # empty corpus
        return pa.table({
            "prev_type": pa.array([], type=pa.string()),
            "event_type": pa.array([], type=pa.string()),
            "n": pa.array([], type=pa.int64()),
        })
    agg = agg.sort_values(["prev_type", "event_type"])
    return pa.table({
        "prev_type": pa.array(agg["prev_type"].tolist(),
                              type=pa.string()),
        "event_type": pa.array(agg["event_type"].tolist(),
                               type=pa.string()),
        "n": pa.array(agg["n"].astype("int64").tolist(),
                      type=pa.int64()),
    })


def transitions_sql() -> str:
    return """
        SELECT prev_type, event_type, count(*) AS n
        FROM (
            SELECT event_type,
                   lag(event_type) OVER (
                       PARTITION BY user_id
                       ORDER BY ts, event_id) AS prev_type
            FROM events
        ) WHERE prev_type IS NOT NULL
        GROUP BY prev_type, event_type
        ORDER BY prev_type, event_type
    """
