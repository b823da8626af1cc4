"""Spill directories, the one bucket exchange, and fixture-artifact caches.

Every disk-mediated exchange in the engine goes through
``bucket_exchange``: each input side is hash-partitioned to parquet
(``mix64(key) % B`` under ``__jb=b``, the posting build's map-side
shuffle — only the key decides placement, payload moves once, there is
no all-to-all sort), then ONE Ray task per bucket runs the caller's
function on that bucket of every side.  The result comes back
materialized as object-store blocks, and only after the spill is gone.

``spill_dir(prefix)`` scopes every spill: it is a context manager whose
directory is removed when the block returns or raises.  It honors
``PDFSEARCH_SPILL_ROOT`` (e.g. ``/mnt/shared/spill``) and falls back to
the system tempdir.  On a real multi-node cluster the root must live on
shared storage (NFS / object store mount) or the per-bucket readers
land on nodes that cannot see the writers' files.  The root is read per
call, so a driver can set it after import.

``spill_bucketed`` writes one bucket layout without consuming it — the
iterative algorithms (min-label propagation, HITS) join a static layout
against an evolving one every round, and pass the layout path to
``bucket_exchange`` in place of a Dataset.

``cached_dir`` is the other owner of directories under the spill root:
build-once fixture artifacts (cached indexes, tiers, champion lists,
IVF layouts) under ``<root>/<tag>_cache/<key>``, committed atomically.
The key folds in the index format and analyzer versions, so a root
shared across code versions never hands an artifact written in another
format to this code.
"""

from __future__ import annotations

import contextlib
import glob
import hashlib
import os
import shutil
import tempfile
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Iterator, Sequence

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import ray.data as rd

from ..analysis.analyzer import ANALYZER_VERSION
from ..state.manifest import FORMAT_VERSION
from .hashing import mix64

ENV_VAR = "PDFSEARCH_SPILL_ROOT"
BUCKET_COL = "__jb"


def _root() -> str:
    return os.environ.get(ENV_VAR) or tempfile.gettempdir()


@contextlib.contextmanager
def spill_dir(prefix: str) -> Iterator[str]:
    """A fresh spill work dir under $PDFSEARCH_SPILL_ROOT (created if
    missing), removed when the block exits, whether it returns or
    raises."""
    root = os.environ.get(ENV_VAR)
    if root:
        os.makedirs(root, exist_ok=True)
    d = tempfile.mkdtemp(prefix=prefix, dir=root or None)
    try:
        yield d
    finally:
        shutil.rmtree(d, ignore_errors=True)


def _ensure_http_fs_importable() -> None:
    """Make Ray's lazy ``from fsspec.implementations.http import
    HTTPFileSystem`` (path_util._is_http_filesystem, called on every
    read/write path resolution) deterministic under driver threads.

    When aiohttp is absent that import FAILS — and failed imports are
    never cached, so two threads resolving paths concurrently can race
    in the import machinery and one sees a plain ImportError that Ray's
    ModuleNotFoundError guard does not catch.  Seed a sentinel module
    (HTTP filesystems are unusable without aiohttp anyway): the import
    then succeeds once, is cached, and the isinstance check is False."""
    import importlib.util
    import sys
    import types

    try:
        import fsspec.implementations.http  # noqa: F401
        return
    except ImportError:
        pass
    # only seed the sentinel when the import failure is PERMANENT
    # (aiohttp genuinely absent); a transient failure is the very race
    # being worked around, and seeding would mask real support
    if importlib.util.find_spec("aiohttp") is not None:
        return
    name = "fsspec.implementations.http"
    if name in sys.modules:
        return
    mod = types.ModuleType(name)

    class HTTPFileSystem:  # sentinel — real class unimportable here
        pass

    mod.HTTPFileSystem = HTTPFileSystem
    sys.modules[name] = mod
    try:
        import fsspec.implementations

        fsspec.implementations.http = mod
    except ImportError:
        pass


def _with_bucket(t: pa.Table, key: str, num_buckets: int) -> pa.Table:
    ids = t[key].to_numpy(zero_copy_only=False).astype(np.int64)
    b = (mix64(ids.view(np.uint64)) % np.uint64(num_buckets)).astype(np.int32)
    return t.append_column(BUCKET_COL, pa.array(b))


def bucket_path(layout: str, b: int) -> str:
    return f"{layout}/{BUCKET_COL}={b}"


def layout_buckets(layout: str) -> list[int]:
    """Bucket ids present in a layout (a bucket with no rows has no
    directory)."""
    if not os.path.isdir(layout):
        return []
    pre = f"{BUCKET_COL}="
    return sorted(int(d[len(pre):]) for d in os.listdir(layout)
                  if d.startswith(pre))


def layout_files(layout: str) -> list[str]:
    return sorted(glob.glob(f"{layout}/**/*.parquet", recursive=True))


def spill_bucketed(ds: rd.Dataset, key: str | None, out: str,
                   num_buckets: int = 16) -> str:
    """Write ``ds`` as a bucket layout under ``out``: ``__jb=b`` holds
    the rows with ``mix64(key) % num_buckets == b``.  With ``key=None``
    the rows already carry their bucket id in ``BUCKET_COL`` (a site's
    own placement rule: a string hash, a range cut, a sentinel bucket).
    ``out`` belongs to the caller's ``spill_dir`` (or artifact) scope."""
    _ensure_http_fs_importable()
    if key is not None:
        ds = ds.map_batches(lambda t: _with_bucket(t, key, num_buckets),
                            batch_format="pyarrow")
    try:
        ds.write_parquet(out, partition_cols=[BUCKET_COL])
    except KeyError:
        # a zero-row input reaches the partitioned write without a
        # schema, and Ray's partitioner raises KeyError on it
        if layout_files(out):
            raise
    return out


def bucket_exchange(
    sides: Sequence[rd.Dataset | str],
    keys: Sequence[str | None],
    num_buckets: int,
    fn: Callable[..., pa.Table | None],
) -> rd.MaterializedDataset:
    """The engine's one exchange.  Spill every side to a bucket layout
    (``spill_bucketed`` with that side's key; a side given as a layout
    path is read as is), then run ``fn(b, *tables)`` in one Ray task per
    bucket present on any side.  ``tables`` holds that bucket of each
    side, or ``None`` for a side with no rows in it.  ``fn`` returns a
    table or ``None``.

    The per-bucket stage is one Ray Data plan named after ``fn`` (so
    ``ds.stats()`` and plan counts show the site's bucket function).
    Returns its non-empty output blocks as a materialized Dataset (when
    every output is empty, one empty block whose schema ``fn`` gave).
    The spill directory is removed before this returns, and also when a
    bucket task raises."""
    with spill_dir("pdfsearch_xchg_") as work:
        layouts = [s if isinstance(s, str) else f"{work}/{i}"
                   for i, s in enumerate(sides)]
        todo = [(s, k, out) for s, k, out in zip(sides, keys, layouts)
                if not isinstance(s, str)]
        _ensure_http_fs_importable()
        # independent writes — overlap them so the smaller side's wall
        # time hides under the larger side's
        with ThreadPoolExecutor(max_workers=max(1, len(todo))) as ex:
            for f in [ex.submit(spill_bucketed, s, k, out, num_buckets)
                      for s, k, out in todo]:
                f.result()
        buckets = sorted(set().union(*map(layout_buckets, layouts)))

        def run(batch: pa.Table) -> pa.Table:
            b = batch["b"][0].as_py()
            paths = [bucket_path(lay, b) for lay in layouts]
            out = fn(b, *(pq.read_table(p, use_threads=False)
                          if os.path.isdir(p) else None for p in paths))
            return pa.table({}) if out is None else out

        run.__name__ = getattr(fn, "__name__", run.__name__)
        ds = (rd.from_items([{"b": b} for b in buckets],
                            override_num_blocks=max(1, len(buckets)))
              .map_batches(run, batch_size=1, batch_format="pyarrow")
              .materialize())
    blocks = [(ref, meta.num_rows, bundle.schema)
              for bundle in ds.iter_internal_ref_bundles()
              for ref, meta in bundle.blocks]
    keep = ([ref for ref, n, _ in blocks if n]
            or [ref for ref, _, schema in blocks
                if schema is not None and schema.names][:1])
    return rd.from_arrow_refs(keep) if keep else rd.from_items([])


def file_key(path: str) -> tuple:
    """(abspath, size, mtime_ns): a source file's identity for a cache
    key."""
    st = os.stat(path)
    return os.path.abspath(path), st.st_size, st.st_mtime_ns


def index_key(index_dir: str) -> tuple:
    """(abspath, manifest size, manifest mtime_ns): an index's identity
    for the key of an artifact derived from it."""
    mst = os.stat(os.path.join(index_dir, "manifest.json"))
    return os.path.abspath(index_dir), mst.st_size, mst.st_mtime_ns


def cached_dir(tag: str, key_parts: tuple, marker: str,
               build: Callable[[str], None]) -> str:
    """A build-once artifact directory ``<root>/<tag>_cache/<key>``,
    ``key`` = a hash of ``key_parts``, the index ``FORMAT_VERSION`` and
    the ``ANALYZER_VERSION``, shared across calls and processes.  When
    ``<key>/<marker>`` is missing, ``build(out)`` creates the artifact
    at ``out`` in a private staging dir, which is renamed into place
    atomically; a concurrent builder that lost the rename adopts the
    winner's (identical) directory.  The staging dir is removed whether
    the build returns or raises."""
    key = hashlib.sha256(repr((key_parts, FORMAT_VERSION, ANALYZER_VERSION))
                         .encode()).hexdigest()[:20]
    cdir = os.path.join(_root(), f"{tag}_cache", key)
    if os.path.isfile(os.path.join(cdir, marker)):
        return cdir
    stage = f"{cdir}.tmp.{os.getpid()}"
    shutil.rmtree(stage, ignore_errors=True)
    os.makedirs(stage)
    try:
        build(f"{stage}/out")
        os.makedirs(os.path.dirname(cdir), exist_ok=True)
        try:
            os.rename(f"{stage}/out", cdir)
        except OSError:
            if not os.path.isfile(os.path.join(cdir, marker)):
                raise
    finally:
        shutil.rmtree(stage, ignore_errors=True)
    return cdir
