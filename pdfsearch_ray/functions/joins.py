"""Distributed equi-join and connected-components primitives.

Ray Data has no native join; the engine's join is the classic
disk-mediated hash join, the two-side case of the one exchange
(``functions/spill.bucket_exchange``):

    both inputs --mix64(key) % B--> bucket layouts in one scoped spill
    one task per bucket: read both sides' bucket, Arrow (Acero) join

Only the join KEY decides placement; payload moves exactly once, there
is no all-to-all sort, and each bucket task's memory is bounded by the
largest bucket.  Callers join on ids (hash-distributed), so bucket skew
is bounded; non-key column names must be disjoint across sides.

``min_label_propagation`` is connected components over an edge list by
iterative min-label flooding — the scale path for near-dup clustering
(driver-side union-find only works while the verified-pair set fits one
machine).
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

import ray.data as rd

from .spill import bucket_exchange, layout_files, spill_bucketed, spill_dir


def hash_join(
    left: rd.Dataset | str,
    right: rd.Dataset | str,
    *,
    left_on: str,
    right_on: str,
    num_buckets: int = 16,
) -> rd.MaterializedDataset:
    """Distributed INNER equi-join on int64 keys: one two-side
    ``bucket_exchange`` whose per-bucket function is an Arrow join.

    Either side may be a ``spill_bucketed`` layout path instead of a
    Dataset (written with the same ``num_buckets``).

    Returns the joined rows materialized (left columns then right
    columns; when ``left_on != right_on`` both key columns survive)."""

    def join(_b: int, lt: pa.Table | None,
             rt: pa.Table | None) -> pa.Table | None:
        if lt is None or rt is None:
            return None
        return lt.join(rt, keys=left_on, right_keys=right_on,
                       join_type="inner", use_threads=False)

    return bucket_exchange([left, right], [left_on, right_on],
                           num_buckets, join)


def min_label_propagation(
    pairs: pa.Table | rd.Dataset,
    *,
    a_col: str = "doc_a",
    b_col: str = "doc_b",
    num_buckets: int = 16,
    max_iter: int = 32,
) -> pa.Table:
    """Connected components over an undirected edge list: every node ends
    with label = min(node id in its component).  Returns (doc_id,
    keep_id) sorted by doc_id.

    Iterative min-label flooding, ONE Ray job per round (the fused
    link_components shape, pipelines/webops.py): the doubled edge list
    spills bucket-partitioned by ``u`` ONCE; the evolving label state
    lives as a CO-PARTITIONED bucket layout (same mix64 % B) written as
    each round's pipeline sink, so a round is  read label buckets →
    per-bucket local searchsorted lookup of label(u) against the edge
    bucket + self rows → one narrow groupby-min → bucketed write.
    Round 0 is lookup-free (label(u) == u).  Converges in O(component
    diameter) rounds, detected by the non-increasing label sum reaching
    a fixpoint — summed driver-side straight off the small label
    parquet when it is tiny, else via a Ray aggregate.  No driver-side
    union-find: the edge set may exceed single-machine memory.
    """
    from ray.data.aggregate import Min, Sum

    empty = pa.table({
        "doc_id": pa.array([], type=pa.int64()),
        "keep_id": pa.array([], type=pa.int64()),
    })
    if isinstance(pairs, pa.Table):
        if pairs.num_rows == 0:
            return empty
        pairs_ds = rd.from_arrow(pairs)
    else:
        pairs_ds = pairs

    def _both_dirs(t: pa.Table) -> pa.Table:
        a = t[a_col].to_numpy(zero_copy_only=False).astype(np.int64)
        b = t[b_col].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table({
            "u": pa.array(np.concatenate([a, b])),
            "v": pa.array(np.concatenate([b, a])),
        })

    imax = np.iinfo(np.int64).max

    def contrib(_b: int, et: pa.Table | None,
                *labels: pa.Table | None) -> pa.Table | None:
        if et is None or labels == (None,):
            return None
        u = et["u"].to_numpy(zero_copy_only=False).astype(np.int64)
        v = et["v"].to_numpy(zero_copy_only=False).astype(np.int64)
        if not labels:
            # round 0: label(u) == u — no lookup
            nodes = np.unique(u)
            msg_lab = u
            self_n, self_c = nodes, nodes
        else:
            lt, = labels
            nid = lt["node"].to_numpy(zero_copy_only=False).astype(np.int64)
            nlab = lt["label"].to_numpy(
                zero_copy_only=False).astype(np.int64)
            order = np.argsort(nid, kind="stable")
            sid, slab = nid[order], nlab[order]
            pos = np.minimum(np.searchsorted(sid, u), max(sid.size - 1, 0))
            # co-partition invariant: every u's label is in THIS bucket
            # (labels cover all nodes, same mix64 % B) — a miss would
            # corrupt silently
            assert sid.size and (sid[pos] == u).all(), \
                "label bucket missing edge endpoints"
            msg_lab = slab[pos]
            self_n, self_c = nid, nlab
        uv, vinv = np.unique(v, return_inverse=True)
        vmin = np.full(uv.size, imax, dtype=np.int64)
        np.minimum.at(vmin, vinv, msg_lab)
        return pa.table({
            "node": pa.array(np.concatenate([uv, self_n]), type=pa.int64()),
            "cand": pa.array(np.concatenate([vmin, self_c]),
                             type=pa.int64()),
        })

    def relabel(t: pa.Table) -> pa.Table:
        return pa.table({
            "node": t["node"].cast(pa.int64()),
            "label": t["min(cand)"].cast(pa.int64()),
        })

    with spill_dir("pdfsearch_lprop_") as work:
        edges = spill_bucketed(
            pairs_ds.map_batches(_both_dirs, batch_format="pyarrow"),
            "u", f"{work}/edges", num_buckets=num_buckets)
        efiles = layout_files(edges)
        if not efiles or sum(pq.read_metadata(f).num_rows
                             for f in efiles) == 0:
            return empty

        labels = None
        prev_sum = None
        for k in range(max_iter):
            labels = spill_bucketed(
                bucket_exchange([edges] + ([labels] if labels else []),
                                [None, None], num_buckets, contrib)
                .groupby("node").aggregate(Min("cand"))
                .map_batches(relabel, batch_format="pyarrow"),
                "node", f"{work}/labels_{k}", num_buckets=num_buckets)
            lfiles = layout_files(labels)
            if sum(os.path.getsize(f) for f in lfiles) < (1 << 28):
                s = int(np.sum(pq.read_table(
                    lfiles, columns=["label"])["label"].to_numpy()
                    .astype(np.int64)))
            else:
                s = int(rd.read_parquet(lfiles).aggregate(
                    Sum("label", alias_name="s"))["s"])
            if prev_sum is not None and s == prev_sum:
                break
            prev_sum = s

        out = pq.read_table(layout_files(labels), columns=["node", "label"]) \
            .to_pandas().sort_values("node")
    return pa.table({
        "doc_id": pa.array(out["node"].astype("int64").tolist(), type=pa.int64()),
        "keep_id": pa.array(out["label"].astype("int64").tolist(), type=pa.int64()),
    })
