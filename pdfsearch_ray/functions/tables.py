"""Small table/Dataset utilities shared by the pipelines."""

from __future__ import annotations

import glob
import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

import ray.data as rd


def _first_parquet_file(paths: str | list[str]) -> str:
    if isinstance(paths, (list, tuple)):
        return _first_parquet_file(paths[0])
    if os.path.isdir(paths):
        hits = sorted(glob.glob(os.path.join(paths, "**", "*.parquet"),
                                recursive=True))
        if hits:
            return hits[0]
    return paths


def read_parquet_nometa(
    paths: str | list[str],
    *,
    columns: list[str] | None = None,
    **kwargs,
) -> rd.Dataset:
    """``ray.data.read_parquet`` with a metadata-free schema.

    Parquet written by pandas embeds a ``pandas`` schema-metadata dict;
    in this pyarrow version a schema carrying that metadata is UNHASHABLE,
    so Ray's block-schema dedup inside the fused ``ReadParquet->SplitBlocks``
    operator logs "Failed to hash the schemas (for deduplication)" per read
    task — at web scale that is one warning line per input fragment.
    Passing an explicit metadata-free (column-pruned) schema to the read
    silences it at the source and removes the need for a downstream 1:1
    strip stage.  Falls back to a plain read + strip when the footer is
    unreadable (e.g. glob patterns).
    """
    try:
        schema = pq.read_schema(_first_parquet_file(paths)).remove_metadata()
        if columns is not None:
            schema = pa.schema([schema.field(c) for c in columns])
    except (OSError, KeyError, pa.ArrowInvalid):
        return strip_schema_metadata(
            rd.read_parquet(paths, columns=columns, **kwargs))
    return rd.read_parquet(paths, columns=columns, schema=schema, **kwargs)


def typed_pandas(obj, dtypes: dict[str, str]):
    """``to_pandas`` that survives Ray's empty-pipeline schema loss.

    A Dataset whose map stages received ZERO rows never calls the map
    fn, reports ``schema() is None`` and ``to_pandas()`` returns a
    column-less frame — every downstream driver merge then KeyErrors.
    A zero-row upstream is a legitimate state at scale (a filter stage
    can drop every row), so reindex such a frame to the stage's
    contract columns with the given pandas dtypes.  Frames that already
    carry columns pass through untouched (missing contract columns are
    added typed-empty only when the frame has no rows).
    """
    import pandas as pd

    df = obj if isinstance(obj, pd.DataFrame) else obj.to_pandas()
    if len(df) == 0:
        missing = [c for c in dtypes if c not in df.columns]
        for c in missing:
            df[c] = pd.Series([], dtype=dtypes[c])
    return df


def typed_table(obj, schema: pa.Schema) -> pa.Table:
    """Arrow twin of :func:`typed_pandas`: materialize a Dataset (or
    pass through a Table) and, when the pipeline lost its schema by
    seeing zero rows, substitute the typed empty table instead."""
    if isinstance(obj, pa.Table):
        tbl = obj
    else:
        df = obj.to_pandas()
        if len(df) == 0 and len(df.columns) < len(schema.names):
            return schema.empty_table()
        tbl = pa.Table.from_pandas(df, preserve_index=False)
    if tbl.num_rows == 0 and set(schema.names) - set(tbl.schema.names):
        return schema.empty_table()
    return tbl


def ranked_table(rows: list[tuple], extra_col: str | None = None,
                 extra_type=None) -> pa.Table:
    """rows of (query[, extra], doc_id, score) already in final order →
    the standard ranked gate table with a per-query 1-based rank."""
    ranks: list[int] = []
    prev = None
    for r in rows:
        ranks.append(1 if r[0] != prev else ranks[-1] + 1)
        prev = r[0]
    cols = {"query": pa.array([r[0] for r in rows], type=pa.string())}
    off = 1
    if extra_col is not None:
        cols[extra_col] = pa.array([r[1] for r in rows], type=extra_type)
        off = 2
    cols["doc_id"] = pa.array([r[off] for r in rows], type=pa.int64())
    cols["score"] = pa.array([r[off + 1] for r in rows], type=pa.float64())
    cols["rank"] = pa.array(ranks, type=pa.int64())
    return pa.table(cols)


def topk_rows(q, ids: np.ndarray, sc: np.ndarray, k: int,
              prefix: tuple = ()) -> list[tuple]:
    """The top ``k`` of (ids, sc) on the 6-dp rounded score (score desc,
    doc_id asc) as (q, *prefix, doc_id, score) rows for
    :func:`ranked_table`."""
    sc = np.round(sc, 6)
    order = np.lexsort((ids.astype(np.int64), -sc))[:k]
    return [(q, *prefix, int(ids[i]), float(sc[i])) for i in order]


def block_tables(ds: rd.Dataset) -> list[pa.Table]:
    """Run ``ds`` once and return its non-empty output blocks as Arrow
    tables.

    Use this instead of ``ray.get(ds.to_arrow_refs())``: once the plan has
    run, ``to_arrow_refs`` asks for the dataset's schema, and when the plan
    cannot infer it (any ``map_batches``) Ray runs the plan a second time
    under ``limit(1)``.  That probe repeats work, and its tasks can still be
    reading a spill directory after the caller has removed it."""
    return [t for t in ds.iter_batches(batch_size=None, batch_format="pyarrow")
            if t.num_rows > 0]


def strip_schema_metadata(ds: rd.Dataset) -> rd.Dataset:
    """Drop schema-level metadata from every block, 1:1 (zero-copy).

    Parquet written by pandas carries a ``pandas`` schema-metadata dict;
    ``pyarrow.Schema`` with metadata is UNHASHABLE, which makes Ray's
    block-schema dedup fall back with a per-batch worker-side warning
    ("Failed to hash the schemas ...") every time blocks are concatenated
    into batches.  Stripping once at the read boundary (``batch_size=None``
    → block-by-block, no concat before the strip) keeps every downstream
    stage's schemas hashable and the logs quiet.
    """
    return ds.map_batches(
        lambda t: t.replace_schema_metadata(None),
        batch_format="pyarrow",
        batch_size=None,
    )
