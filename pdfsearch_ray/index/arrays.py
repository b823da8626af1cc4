"""Arrow <-> numpy conversion, row matching and gathers through
buffers, for the serving path.

pyarrow's own converters (``Array.to_numpy``, ``pa.array`` over a list
or an ndarray, a Python scalar operand to ``pyarrow.compute``, even
``Schema.empty_table``) go through its pandas shim, and the first call
imports pandas: 31 MB and 325 modules (4-vCPU host) in every serving
process that asks for none of it.  ``pyarrow.compute`` itself (and so
``Table.take`` / ``filter`` / ``sort_by`` and ``Array.cast``, which
import it) costs another 7.4 MB per process.  These helpers touch only
numpy and the Arrow buffers, so serving imports neither.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa


def _num_dtype(t: pa.DataType) -> np.dtype:
    """The numpy dtype of an integer or floating Arrow type; any other
    type raises — variable-width, bit-packed or temporal data is never
    reinterpreted."""
    if pa.types.is_integer(t):
        kind = "i" if pa.types.is_signed_integer(t) else "u"
    elif pa.types.is_floating(t):
        kind = "f"
    else:
        raise TypeError(f"no zero-copy numpy view of Arrow type {t}")
    return np.dtype(f"{kind}{t.bit_width // 8}")


def _np(col: pa.Array | pa.ChunkedArray) -> np.ndarray:
    """Read-only numpy view over an integer or floating Arrow column
    with no nulls, sharing the column's data buffer (a column of several
    chunks is combined first).  Raises on nulls and on any other type."""
    dtype = _num_dtype(col.type)
    if col.null_count:
        raise ValueError(f"column has {col.null_count} nulls")
    if len(col) == 0:
        return np.empty(0, dtype=dtype)
    col = _chunk(col)
    return np.frombuffer(col.buffers()[1], dtype=dtype, count=len(col),
                         offset=col.offset * dtype.itemsize)


def _np_or(col: pa.Array | pa.ChunkedArray, fill) -> np.ndarray:
    """``_np(col)`` with every null read as ``fill`` (a copy when the
    column has nulls; the validity bitmap is read, never skipped)."""
    if not col.null_count:
        return _np(col)
    dtype = _num_dtype(col.type)
    col = _chunk(col)
    validity, data = col.buffers()[:2]
    out = np.full(len(col), fill, dtype=dtype)
    valid = np.unpackbits(np.frombuffer(validity, dtype=np.uint8),
                          bitorder="little")[col.offset:col.offset + len(col)]
    if data is not None:
        vals = np.frombuffer(data, dtype=dtype, count=len(col),
                             offset=col.offset * dtype.itemsize)
        out[valid == 1] = vals[valid == 1]
    return out


def _offsets_dtype(t: pa.DataType) -> np.dtype:
    """The offsets dtype of a string or binary Arrow type."""
    if pa.types.is_string(t) or pa.types.is_binary(t):
        return np.dtype(np.int32)
    if pa.types.is_large_string(t) or pa.types.is_large_binary(t):
        return np.dtype(np.int64)
    raise TypeError(f"no offsets and data buffers in Arrow type {t}")


def _chunk(col: pa.Array | pa.ChunkedArray) -> pa.Array:
    """``col`` as one Arrow array.  ``combine_chunks`` of no chunks
    would import ``pyarrow.compute``, so a string or binary column of no
    chunks is built here (the only empty kind that reaches this)."""
    if not isinstance(col, pa.ChunkedArray):
        return col
    if col.num_chunks:
        return col.chunk(0) if col.num_chunks == 1 else col.combine_chunks()
    return pa.Array.from_buffers(col.type, 0, [
        None, pa.py_buffer(np.zeros(1, dtype=_offsets_dtype(col.type))),
        pa.py_buffer(b"")])


def _bytes(col: pa.Array | pa.ChunkedArray) -> tuple[np.ndarray, np.ndarray]:
    """(offsets, data) of a string or binary Arrow column: int64 offsets
    (one more than the rows, starting at 0) and a uint8 view of the data
    buffer — row i is ``data[offsets[i]:offsets[i + 1]]`` (a null row
    spans whatever its offsets say, usually nothing); any other type
    raises."""
    off_dtype = _offsets_dtype(col.type)
    col = _chunk(col)
    _, off_buf, data_buf = col.buffers()
    if len(col) == 0:
        return np.zeros(1, dtype=np.int64), np.empty(0, dtype=np.uint8)
    offsets = np.frombuffer(off_buf, dtype=off_dtype, count=len(col) + 1,
                            offset=col.offset * off_dtype.itemsize)
    data = (np.frombuffer(data_buf, dtype=np.uint8)
            if data_buf is not None else np.empty(0, dtype=np.uint8))
    return (offsets - offsets[0]).astype(np.int64), \
        data[int(offsets[0]):int(offsets[-1])]


def _spans(starts: np.ndarray, lens: np.ndarray) -> np.ndarray:
    """The concatenation of ``arange(s, s + n)`` over every (s, n) of
    ``starts`` and ``lens`` — the index of a multi-range gather."""
    lens = np.asarray(lens, dtype=np.int64)
    heads = np.cumsum(lens, dtype=np.int64) - lens
    return (np.arange(int(lens.sum()), dtype=np.int64)
            + np.repeat(np.asarray(starts, dtype=np.int64) - heads, lens))


def _runs_of(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(first index, length) in ``rows`` of each maximal run of
    consecutive row numbers — a gather copies one slice per run."""
    heads = np.flatnonzero(np.diff(rows, prepend=rows[:1] - 2) != 1)
    return heads, np.diff(heads, append=rows.size)


def _gather_bytes(offsets: np.ndarray, data: np.ndarray,
                  rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(offsets, data) of ``rows`` of a variable-width column given as
    ``_bytes`` returns it, in the order of ``rows``: one slice of
    ``data`` per run of consecutive rows (a view when there is one
    run), never an index over every byte."""
    rows = np.asarray(rows, dtype=np.int64)
    starts, ends = offsets[rows], offsets[rows + 1]
    out = np.zeros(rows.size + 1, dtype=np.int64)
    np.cumsum(ends - starts, dtype=np.int64, out=out[1:])
    if not rows.size:
        return out, data[:0]
    heads, lens = _runs_of(rows)
    if heads.size == 1:
        return out, data[starts[0]:ends[-1]]
    return out, np.concatenate([
        data[a:b] for a, b in zip(starts[heads].tolist(),
                                  ends[heads + lens - 1].tolist())])


def _str_codes(col: pa.Array | pa.ChunkedArray,
               values: list[str]) -> np.ndarray:
    """The index in ``values`` of each row's string, -1 where it is none
    of them (``pyarrow.compute.index_in`` through buffers).  Per value,
    the rows of its byte length are narrowed by their first and last
    byte, then the rest is compared in one 2-d gather.  ``values`` must
    be distinct; a null row matches none."""
    col = _chunk(col)
    offsets, data = _bytes(col)
    starts = offsets[:-1]
    lens = np.diff(offsets)
    codes = np.full(lens.size, -1, dtype=np.int64)
    for i, v in enumerate(values):
        b = np.frombuffer(v.encode(), dtype=np.uint8)
        rows = np.flatnonzero(lens == b.size)
        if rows.size and b.size:
            at = starts[rows]
            rows = rows[(data[at] == b[0]) & (data[at + b.size - 1] == b[-1])]
            if rows.size and b.size > 2:
                mid = data[starts[rows][:, None] + np.arange(1, b.size - 1)]
                rows = rows[(mid == b[1:-1]).all(axis=1)]
        codes[rows] = i
    if col.null_count:
        valid = np.unpackbits(np.frombuffer(col.buffers()[0], dtype=np.uint8),
                              bitorder="little")
        codes[valid[col.offset:col.offset + len(col)] == 0] = -1
    return codes


def _take_table(t: pa.Table, rows: np.ndarray) -> pa.Table:
    """``t``'s ``rows`` in the order given (``Table.take`` without
    ``pyarrow.compute``): one zero-copy slice per run of consecutive
    rows, concatenated."""
    rows = np.asarray(rows, dtype=np.int64)
    if not rows.size:
        return t.slice(0, 0)
    heads, lens = _runs_of(rows)
    return pa.concat_tables([t.slice(r, n) for r, n in
                             zip(rows[heads].tolist(), lens.tolist())])
