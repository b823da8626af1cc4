"""Shuffle-spill directory placement.

Every disk-mediated exchange in the engine (hash_join buckets, the
dedup/tfidf/knn/session spills, ephemeral ANN index layouts, the
fulltext gate builds) materializes intermediate parquet under a work
dir that BOTH the writing and the reading tasks must reach.  On the
single-node sandbox a tempdir is fine; on a real multi-node cluster the
spill root must live on shared storage (NFS / object store mount) or
the per-bucket readers land on nodes that cannot see the writers'
files.

``spill_dir(prefix)`` is the single knob: it honors
``PDFSEARCH_SPILL_ROOT`` (e.g. ``/mnt/shared/spill``) and falls back to
the system tempdir.  The root is read per call, so a driver can set it
after import; cleanup stays the caller's responsibility exactly as with
``tempfile.mkdtemp``.
"""

from __future__ import annotations

import os
import tempfile

ENV_VAR = "PDFSEARCH_SPILL_ROOT"


def spill_dir(prefix: str) -> str:
    """Create and return a fresh spill work dir (mkdtemp semantics),
    under $PDFSEARCH_SPILL_ROOT when set (created if missing)."""
    root = os.environ.get(ENV_VAR)
    if root:
        os.makedirs(root, exist_ok=True)
        return tempfile.mkdtemp(prefix=prefix, dir=root)
    return tempfile.mkdtemp(prefix=prefix)


def auto_buckets(paths, *, target_bytes: int = 256 << 20,
                 lo: int = 8, hi: int = 4096) -> int:
    """Derive a bucket count for a hash spill from the INPUT bytes so
    per-bucket task memory stays bounded at any corpus size (the
    tfidf_topk autoscale precedent, round 5): one bucket per
    ``target_bytes`` of on-disk input, clamped to [lo, hi] and rounded
    up to a power of two (stable modulo behavior across nearby sizes)
    — down instead when rounding up would pass ``hi``.

    At the test scales this returns ``lo`` (8–32 buckets); at 100 TB it
    grows to the cap instead of letting a fixed 32 force 3 TB bucket
    reads.  Callers pass an explicit ``num_buckets`` to pin layouts
    (e.g. when two spills must co-partition)."""
    import os

    if isinstance(paths, (str, os.PathLike)):
        paths = [paths]
    total = 0
    for p in paths:
        p = str(p)
        if os.path.isdir(p):
            for root, _, files in os.walk(p):
                total += sum(os.path.getsize(os.path.join(root, f))
                             for f in files)
        elif os.path.exists(p):
            total += os.path.getsize(p)
    n = max(lo, min(hi, (total + target_bytes - 1) // target_bytes))
    p2 = 1 << (int(n - 1).bit_length())
    return p2 if p2 <= hi else p2 >> 1
