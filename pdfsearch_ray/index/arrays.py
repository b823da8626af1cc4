"""Arrow <-> numpy conversion through buffers, for the serving path.

pyarrow's own converters (``Array.to_numpy``, ``pa.array`` over a list
or an ndarray, a Python scalar operand to ``pyarrow.compute``, even
``Schema.empty_table``) go through its pandas shim, and the first call
imports pandas: 31 MB and 325 modules (4-vCPU host) in every serving
process that asks for none of it.  These helpers touch only numpy and
pyarrow.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa


def _np(col: pa.Array | pa.ChunkedArray) -> np.ndarray:
    """Read-only numpy view over an integer or floating Arrow column
    with no nulls, sharing the column's data buffer (a column of several
    chunks is combined first).  Raises on nulls and on any other type —
    variable-width, bit-packed or temporal data is never reinterpreted."""
    t = col.type
    if pa.types.is_integer(t):
        kind = "i" if pa.types.is_signed_integer(t) else "u"
    elif pa.types.is_floating(t):
        kind = "f"
    else:
        raise TypeError(f"no zero-copy numpy view of Arrow type {t}")
    if col.null_count:
        raise ValueError(f"column has {col.null_count} nulls")
    dtype = np.dtype(f"{kind}{t.bit_width // 8}")
    if len(col) == 0:
        return np.empty(0, dtype=dtype)
    if isinstance(col, pa.ChunkedArray):
        col = col.chunk(0) if col.num_chunks == 1 else col.combine_chunks()
    return np.frombuffer(col.buffers()[1], dtype=dtype, count=len(col),
                         offset=col.offset * dtype.itemsize)


def _pa(values: np.ndarray) -> pa.Array:
    """Arrow array over a 1-d integer or floating ndarray's buffer."""
    if values.ndim != 1 or values.dtype.kind not in "iuf":
        raise TypeError(f"no Arrow buffer layout for a {values.ndim}-d "
                        f"{values.dtype} array")
    values = np.ascontiguousarray(values)
    return pa.Array.from_buffers(pa.from_numpy_dtype(values.dtype),
                                 values.size, [None, pa.py_buffer(values)])


def _pa_str(values: list[str]) -> pa.Array:
    """Arrow string array built from an offsets and a data buffer."""
    data = [v.encode() for v in values]
    offsets = np.zeros(len(data) + 1, dtype=np.int32)
    np.cumsum([len(b) for b in data], dtype=np.int32, out=offsets[1:])
    return pa.Array.from_buffers(
        pa.string(), len(data),
        [None, pa.py_buffer(offsets), pa.py_buffer(b"".join(data))])
