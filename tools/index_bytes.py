"""Where an index's bytes go: compressed bytes per column of the posting
blocks, the docs catalog and the tombstones, over the base and every
committed segment, plus each file's footer and the bytes between column
chunks, and every other file under the index dir.

    python tools/index_bytes.py INDEX_DIR
    python tools/index_bytes.py --sweep INDEX_DIR

Prints one row per (table, column) with its compressed bytes, bytes per
indexed doc (the manifest's ``n_docs``) and its uncompressed bytes
(``raw``: the encoded pages before the codec, page headers included) —
a change to what a column stores can move the two very differently —
then per table:

* ``(footer)``: the parquet footers (file metadata, length and magic),
  without the embedded Arrow schema;
* ``(footer: Arrow schema)``: the base64 Arrow schema a writer with
  ``store_schema=True`` keeps in the footer's key-value metadata;
* ``(between chunks)``: the rest, mostly the copy of each column chunk's
  metadata that the writer puts after the chunk.

The total counts every file under ``INDEX_DIR`` except an
``extracted/`` checkpoint, the way ``perfbench`` measures
``index_bytes_per_doc``.

``--sweep`` rewrites every column, one at a time and keeping its row
groups, under each candidate encoding at the table's compression in
``INDEX_WRITE_OPTIONS``, and prints the column's compressed bytes per
candidate: ``now`` is the index's own bytes, ``-`` marks an encoding
parquet does not allow on the column's type, ``!`` one that DuckDB
cannot read, and ``*`` the smallest one it can.  Run it on a new corpus
to re-derive the writer policy.
"""

from __future__ import annotations

import glob
import json
import os
import struct
import sys
import tempfile
from collections import defaultdict
from pathlib import Path

import pyarrow as pa
import pyarrow.parquet as pq

sys.path.append(str(Path(__file__).resolve().parents[1]))

TABLES = ("postings", "docs", "tombstones")
CANDIDATES = ("PLAIN", "DICTIONARY", "DELTA_BINARY_PACKED",
              "DELTA_LENGTH_BYTE_ARRAY", "DELTA_BYTE_ARRAY",
              "BYTE_STREAM_SPLIT")
SHORT = {"PLAIN": "plain", "DICTIONARY": "dict",
         "DELTA_BINARY_PACKED": "delta", "DELTA_LENGTH_BYTE_ARRAY": "dlba",
         "DELTA_BYTE_ARRAY": "dba", "BYTE_STREAM_SPLIT": "bss"}


def table_files(index_dir: str) -> dict[str, list[str]]:
    """Parquet files per table over the base and every manifest-committed
    segment; tombstones live only at the index root."""
    with open(os.path.join(index_dir, "manifest.json")) as f:
        m = json.load(f)
    dirs = [index_dir] + [os.path.join(index_dir, "segments", s["name"])
                          for s in m.get("segments", [])
                          if s["name"] != "base"]
    out = {t: [p for d in dirs
               for p in sorted(glob.glob(f"{d}/{t}/*.parquet"))]
           for t in ("postings", "docs")}
    out["tombstones"] = sorted(glob.glob(f"{index_dir}/tombstones/*.parquet"))
    return out


def footer_bytes(path: str) -> int:
    """The footer's thrift length plus its 4-byte length and magic."""
    with open(path, "rb") as f:
        f.seek(-8, os.SEEK_END)
        return struct.unpack("<i", f.read(4))[0] + 8


def file_bytes(path: str) -> tuple[dict[str, int], dict[str, int],
                                   dict[str, int]]:
    """({column: compressed bytes}, {part: bytes}, {column: uncompressed
    bytes}) for one parquet file; the parts are the footer, its Arrow
    schema and the bytes between chunks, and sum with the columns'
    compressed bytes to the file size."""
    md = pq.ParquetFile(path).metadata
    cols: dict[str, int] = defaultdict(int)
    raw: dict[str, int] = defaultdict(int)
    for rg in range(md.num_row_groups):
        for ci in range(md.num_columns):
            c = md.row_group(rg).column(ci)
            cols[c.path_in_schema] += c.total_compressed_size
            raw[c.path_in_schema] += c.total_uncompressed_size
    schema = len((md.metadata or {}).get(b"ARROW:schema", b""))
    footer = footer_bytes(path)
    rest = os.path.getsize(path) - footer - sum(cols.values())
    return cols, {"(footer)": footer - schema,
                  "(footer: Arrow schema)": schema,
                  "(between chunks)": rest}, raw


def column_bytes(index_dir: str) -> tuple[dict, dict, dict, int, dict]:
    """({table: {column: bytes}}, {table: {part: bytes}}, {table: file
    bytes}, the bytes of every file under ``index_dir`` but
    ``extracted/``, {table: {column: uncompressed bytes}})."""
    cols = {t: defaultdict(int) for t in TABLES}
    raw = {t: defaultdict(int) for t in TABLES}
    parts = {t: defaultdict(int) for t in TABLES}
    files = {t: 0 for t in TABLES}
    for table, paths in table_files(index_dir).items():
        for path in paths:
            files[table] += os.path.getsize(path)
            c, p, r = file_bytes(path)
            for k, v in c.items():
                cols[table][k] += v
                raw[table][k] += r[k]
            for k, v in p.items():
                parts[table][k] += v
    total = 0
    for root, dirs, names in os.walk(index_dir):
        dirs[:] = [x for x in dirs if x != "extracted"]
        total += sum(os.path.getsize(os.path.join(root, n)) for n in names)
    return cols, parts, files, total, raw


def _write_column(sink, t: list[pa.Table], encoding: str, table: str):
    """Write the one-column row groups ``t`` to ``sink`` under
    ``encoding`` with ``table``'s compression and statistics from the
    writer policy (page headers carry the statistics)."""
    from pdfsearch_ray.index.codec import INDEX_WRITE_OPTIONS

    opts = INDEX_WRITE_OPTIONS[table]
    name = t[0].column_names[0]
    kw = ({"use_dictionary": True} if encoding == "DICTIONARY" else
          {"use_dictionary": False, "column_encoding": {name: encoding}})
    stats = [name] if name in opts["write_statistics"] else False
    with pq.ParquetWriter(sink, t[0].schema, compression=opts["compression"],
                          compression_level=opts["compression_level"],
                          write_statistics=stats, store_schema=False,
                          **kw) as w:
        for rg in t:
            w.write_table(rg)


def _duckdb_reads(path: str) -> bool:
    import duckdb

    try:
        duckdb.sql(f"SELECT * FROM read_parquet('{path}')").fetchall()
        return True
    except duckdb.Error:
        return False


def sweep(index_dir: str) -> dict[str, dict[str, dict]]:
    """{table: {column: {candidate: (bytes, whether DuckDB reads it), or
    None if parquet does not allow it on the column's type}}}, with the
    index's own bytes as ``now``."""
    cols = column_bytes(index_dir)[0]
    out: dict = {}
    with tempfile.TemporaryDirectory() as tmp:
        for table, paths in table_files(index_dir).items():
            if not paths:
                continue
            out[table] = {}
            for name in pq.read_schema(paths[0]).names:
                groups = []
                for path in paths:
                    pf = pq.ParquetFile(path)
                    groups.append([pf.read_row_group(rg, columns=[name])
                                   for rg in range(pf.num_row_groups)])
                res: dict = {"now": cols[table][name]}
                for enc in CANDIDATES:
                    try:
                        nbytes = 0
                        for g in groups:
                            buf = pa.BufferOutputStream()
                            _write_column(buf, g, enc, table)
                            md = pq.ParquetFile(
                                pa.BufferReader(buf.getvalue())).metadata
                            nbytes += sum(
                                md.row_group(i).column(0).total_compressed_size
                                for i in range(md.num_row_groups))
                    except (pa.ArrowException, OSError, ValueError):
                        res[enc] = None
                        continue
                    probe = os.path.join(tmp, "probe.parquet")
                    _write_column(probe, groups[0], enc, table)
                    res[enc] = (nbytes, _duckdb_reads(probe))
                out[table][name] = res
    return out


def print_sweep(index_dir: str) -> None:
    res = sweep(index_dir)
    print(f"{'table':<11} {'column':<11} {'now':>9}"
          + "".join(f" {SHORT[c]:>10}" for c in CANDIDATES))
    for table, columns in res.items():
        for name, r in columns.items():
            best = min((r[c][0] for c in CANDIDATES
                        if r[c] is not None and r[c][1]), default=None)
            cells = ["-" if r[c] is None else
                     f"{r[c][0]:,}{'' if r[c][1] else '!'}"
                     f"{'*' if r[c][1] and r[c][0] == best else ''}"
                     for c in CANDIDATES]
            print(f"{table:<11} {name:<11} {r['now']:>9,}"
                  + "".join(f" {x:>10}" for x in cells))


def main(argv: list[str]) -> int:
    do_sweep = "--sweep" in argv
    argv = [a for a in argv if a != "--sweep"]
    if len(argv) != 1:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    index_dir = argv[0]
    if do_sweep:
        print_sweep(index_dir)
        return 0
    with open(os.path.join(index_dir, "manifest.json")) as f:
        n_docs = max(int(json.load(f)["n_docs"]), 1)
    cols, parts, files, total, raw = column_bytes(index_dir)

    def row(table: str, name: str, nbytes: int, nraw: str = "") -> None:
        print(f"{table:<10} {name:<22} {nbytes:>12,} {nbytes / n_docs:>9.2f}"
              f" {nraw:>12}")

    print(f"{'table':<10} {'column':<22} {'bytes':>12} {'B/doc':>9}"
          f" {'raw':>12}")
    for table in TABLES:
        if not files[table]:
            continue
        for name, nbytes in sorted(cols[table].items(), key=lambda kv: -kv[1]):
            row(table, name, nbytes, f"{raw[table][name]:,}")
        for name, nbytes in parts[table].items():
            row(table, name, nbytes)
        row(table, "(all)", files[table])
    row("other", "(other files)", total - sum(files.values()))
    row("total", f"({n_docs:,} docs)", total)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
