"""Index snapshot / restore — the operational backup API every search
deployment layers on its indexes (the ES `_snapshot` repository
semantics, re-expressed for the on-disk parquet index):

* **Content-addressed, incremental.**  A repository holds one
  ``blobs/`` pool keyed by sha256 and one JSON descriptor per snapshot
  (relpath → blob key + size).  Committed index files are IMMUTABLE —
  every writer in this repo lands files via atomic stage-dir renames
  with build-UUID names (pipelines/build.py) — so consecutive
  snapshots of an evolving index (tail_append segments, compactions)
  re-upload only NEW files; unchanged postings/docs parquet dedupe to
  the existing blobs.  This is exactly why ES snapshots are cheap:
  Lucene segments are immutable too.
* **Atomic + crash-safe.**  Blobs are written tmp→rename (a partial
  upload can never be content-addressed); the snapshot descriptor is
  written LAST, tmp→rename, so a snapshot either exists completely or
  not at all.  Restore builds a tmp tree, VERIFIES every blob's sha256
  against the descriptor, then renames into place — a corrupt or
  truncated repository can never produce a silently-wrong index.
* **Scale shape.**  Hashing is per-file and embarrassingly parallel; a
  cluster deployment fans the blob copy out with one map_batches over
  the file list (each task reads its file from index storage and
  writes to the repository) — no driver byte ever moves.  The local
  implementation hashes sequentially in 1 MiB chunks; the descriptor
  is O(files) JSON.  Snapshots of a 100 TB index are bounded by new
  bytes since the last snapshot, not index size.

Reference parity note: the reference has no backup story at all
(indexes are rebuilt from PDFs); this is a beyond-reference
operational addition, gated by pytest (round-trip equality,
incremental blob sharing, corruption detection), not SQL.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import time

__all__ = ["snapshot_index", "restore_index", "list_snapshots",
           "verify_snapshot", "SnapshotError"]

_CHUNK = 1 << 20


class SnapshotError(RuntimeError):
    """Raised on descriptor/blob inconsistencies (missing blob, hash
    mismatch, unknown snapshot, uncommitted source index)."""


def _sha256_file(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        while True:
            b = f.read(_CHUNK)
            if not b:
                break
            h.update(b)
    return h.hexdigest()


def _walk_files(index_dir: str) -> list[str]:
    out = []
    for root, _dirs, files in os.walk(index_dir):
        for f in files:
            p = os.path.join(root, f)
            out.append(os.path.relpath(p, index_dir))
    return sorted(out)


def _snap_path(repo_dir: str, name: str) -> str:
    return os.path.join(repo_dir, "snapshots", f"{name}.json")


def snapshot_index(index_dir: str, repo_dir: str, *, name: str) -> dict:
    """Snapshot a COMMITTED index into a repository.  Returns a summary
    dict: n_files, n_new_blobs, total_bytes, new_bytes."""
    if not os.path.isfile(os.path.join(index_dir, "manifest.json")):
        raise SnapshotError(f"{index_dir}: no committed manifest.json")
    if os.path.isfile(_snap_path(repo_dir, name)):
        raise SnapshotError(f"snapshot {name!r} already exists")
    blob_dir = os.path.join(repo_dir, "blobs")
    os.makedirs(blob_dir, exist_ok=True)
    os.makedirs(os.path.join(repo_dir, "snapshots"), exist_ok=True)

    files, n_new, total_b, new_b = {}, 0, 0, 0
    for rel in _walk_files(index_dir):
        src = os.path.join(index_dir, rel)
        digest = _sha256_file(src)
        size = os.path.getsize(src)
        blob = os.path.join(blob_dir, digest)
        if not os.path.isfile(blob):
            # tmp→rename: a crashed copy is never content-addressed
            tmp = f"{blob}.tmp.{os.getpid()}"
            shutil.copyfile(src, tmp)
            os.rename(tmp, blob)
            n_new += 1
            new_b += size
        files[rel] = {"sha256": digest, "size": size}
        total_b += size

    desc = {
        "name": name,
        "created_unix": time.time(),
        "source": os.path.abspath(index_dir),
        "files": files,
    }
    tmp = _snap_path(repo_dir, name) + f".tmp.{os.getpid()}"
    with open(tmp, "w") as f:
        json.dump(desc, f, indent=1, sort_keys=True)
    os.rename(tmp, _snap_path(repo_dir, name))  # descriptor LAST
    return {"n_files": len(files), "n_new_blobs": n_new,
            "total_bytes": total_b, "new_bytes": new_b}


def _load_desc(repo_dir: str, name: str) -> dict:
    p = _snap_path(repo_dir, name)
    if not os.path.isfile(p):
        raise SnapshotError(f"unknown snapshot {name!r}")
    with open(p) as f:
        return json.load(f)


def restore_index(repo_dir: str, name: str, dest_dir: str) -> None:
    """Rebuild the snapshotted index tree at ``dest_dir``, which must
    be missing or empty — a restore never deletes data it did not
    create.  Every blob is re-hashed during the copy; the tree lands
    via one atomic rename."""
    desc = _load_desc(repo_dir, name)
    if os.path.isdir(dest_dir) and os.listdir(dest_dir):
        raise SnapshotError(f"{dest_dir}: exists and is not empty")
    tmp_root = dest_dir.rstrip("/") + f".restore.tmp.{os.getpid()}"
    shutil.rmtree(tmp_root, ignore_errors=True)
    try:
        for rel, meta in sorted(desc["files"].items()):
            blob = os.path.join(repo_dir, "blobs", meta["sha256"])
            if not os.path.isfile(blob):
                raise SnapshotError(
                    f"snapshot {name!r}: missing blob for {rel}")
            dst = os.path.join(tmp_root, rel)
            os.makedirs(os.path.dirname(dst), exist_ok=True)
            shutil.copyfile(blob, dst)
            got = _sha256_file(dst)
            if got != meta["sha256"] or os.path.getsize(dst) != meta["size"]:
                raise SnapshotError(
                    f"snapshot {name!r}: blob corrupt for {rel} "
                    f"(sha {got[:12]}… != {meta['sha256'][:12]}…)")
        os.rename(tmp_root, dest_dir)
    finally:
        shutil.rmtree(tmp_root, ignore_errors=True)


def verify_snapshot(repo_dir: str, name: str) -> dict:
    """Re-hash every referenced blob; returns {n_files, n_bad} and the
    bad relpaths (ES `_verify` analog)."""
    desc = _load_desc(repo_dir, name)
    bad = []
    for rel, meta in sorted(desc["files"].items()):
        blob = os.path.join(repo_dir, "blobs", meta["sha256"])
        if not os.path.isfile(blob) or _sha256_file(blob) != meta["sha256"]:
            bad.append(rel)
    return {"n_files": len(desc["files"]), "n_bad": len(bad), "bad": bad}


def list_snapshots(repo_dir: str) -> list[dict]:
    """Name + file/byte counts per snapshot, name-sorted."""
    sdir = os.path.join(repo_dir, "snapshots")
    if not os.path.isdir(sdir):
        return []
    out = []
    for f in sorted(os.listdir(sdir)):
        if not f.endswith(".json"):
            continue
        with open(os.path.join(sdir, f)) as fh:
            d = json.load(fh)
        out.append({
            "name": d["name"],
            "n_files": len(d["files"]),
            "total_bytes": sum(m["size"] for m in d["files"].values()),
            "created_unix": d["created_unix"],
        })
    return out
