"""Where an index's bytes go: compressed bytes per column of the posting
blocks and of the docs catalog, over the base and every committed
segment, plus the bytes outside any column chunk (parquet footers and
page headers) and every other file under the index dir.

    python tools/index_bytes.py INDEX_DIR

Prints one row per (table, column) with its bytes and bytes per indexed
doc (the manifest's ``n_docs``), then the total.  The total counts every
file under ``INDEX_DIR`` except an ``extracted/`` checkpoint, the way
``perfbench`` measures ``index_bytes_per_doc``.
"""

from __future__ import annotations

import glob
import json
import os
import sys
from collections import defaultdict

import pyarrow.parquet as pq

TABLES = ("postings", "docs")


def table_dirs(index_dir: str) -> list[str]:
    """The base and every manifest-committed segment dir."""
    with open(os.path.join(index_dir, "manifest.json")) as f:
        m = json.load(f)
    return [index_dir] + [os.path.join(index_dir, "segments", s["name"])
                          for s in m.get("segments", [])
                          if s["name"] != "base"]


def column_bytes(index_dir: str) -> tuple[dict, dict, int]:
    """({table: {column: compressed bytes}}, {table: file bytes}, the
    bytes of every file under ``index_dir`` but ``extracted/``)."""
    cols: dict[str, dict[str, int]] = {t: defaultdict(int) for t in TABLES}
    files: dict[str, int] = {t: 0 for t in TABLES}
    for d in table_dirs(index_dir):
        for table in TABLES:
            for path in sorted(glob.glob(f"{d}/{table}/*.parquet")):
                files[table] += os.path.getsize(path)
                md = pq.ParquetFile(path).metadata
                for rg in range(md.num_row_groups):
                    for ci in range(md.num_columns):
                        c = md.row_group(rg).column(ci)
                        cols[table][c.path_in_schema] += \
                            c.total_compressed_size
    total = 0
    for root, dirs, names in os.walk(index_dir):
        dirs[:] = [x for x in dirs if x != "extracted"]
        total += sum(os.path.getsize(os.path.join(root, n)) for n in names)
    return cols, files, total


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    index_dir = argv[0]
    with open(os.path.join(index_dir, "manifest.json")) as f:
        n_docs = max(int(json.load(f)["n_docs"]), 1)
    cols, files, total = column_bytes(index_dir)

    def row(table: str, name: str, nbytes: int) -> None:
        print(f"{table:<9} {name:<22} {nbytes:>12,} {nbytes / n_docs:>9.2f}")

    print(f"{'table':<9} {'column':<22} {'bytes':>12} {'B/doc':>9}")
    for table in TABLES:
        in_cols = 0
        for name, nbytes in sorted(cols[table].items(), key=lambda kv: -kv[1]):
            row(table, name, nbytes)
            in_cols += nbytes
        row(table, "(not in a column)", files[table] - in_cols)
        row(table, "(all)", files[table])
    row("other", "(manifest, tombstones)", total - sum(files.values()))
    row("total", f"({n_docs:,} docs)", total)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
