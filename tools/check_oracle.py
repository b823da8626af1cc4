"""Local simulation of the driver's correctness gate: run each
__ray_entry__.queries() entry and its oracle_sql() on the same sf dir,
compare row count, schema (column names and each column's dtype class:
int / float / bool / string / time), and order-insensitive values.
Each line gives the gate call's wall seconds (the call and its
materialization, not the oracle), and the last lines their sum.

Usage: python tools/check_oracle.py [sf_dir] [query ...]
"""

from __future__ import annotations

import datetime
import os
import sys
import time
from pathlib import Path

ROOT = str(Path(__file__).resolve().parents[1])
sys.path.insert(0, ROOT)
# Ray's workers import the package too, and they see PYTHONPATH, not
# this process's sys.path: run from any directory
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (ROOT, os.environ.get("PYTHONPATH")) if p)

import duckdb
import numpy as np
import pandas as pd

TABLES = "documents embeddings".split()


def to_pandas(res):
    import pyarrow as pa

    import ray.data as rd

    if isinstance(res, rd.Dataset):
        return res.to_pandas()
    if isinstance(res, pa.Table):
        return res.to_pandas()
    return res


def canon(df: pd.DataFrame) -> pd.DataFrame:
    df = df.reindex(sorted(df.columns), axis=1)
    df = df.sort_values(list(df.columns), kind="mergesort").reset_index(drop=True)
    return df


def dtype_class(col: pd.Series) -> str | None:
    """int / float / bool / string / time (or another type name) for a
    column; None for an object column with no non-null value, whose
    class the frame cannot tell."""
    dt = col.dtype
    if pd.api.types.is_bool_dtype(dt):
        return "bool"
    if pd.api.types.is_integer_dtype(dt):
        return "int"
    if pd.api.types.is_float_dtype(dt):
        return "float"
    if pd.api.types.is_datetime64_any_dtype(dt) or pd.api.types.is_timedelta64_dtype(dt):
        return "time"
    if pd.api.types.is_string_dtype(dt) and not pd.api.types.is_object_dtype(dt):
        return "string"
    vals = col.dropna()
    if vals.empty:
        return None
    v = vals.iloc[0]
    if isinstance(v, (bool, np.bool_)):
        return "bool"
    if isinstance(v, (int, np.integer)):
        return "int"
    if isinstance(v, (float, np.floating)):
        return "float"
    if isinstance(v, str):
        return "string"
    if isinstance(v, (datetime.date, datetime.time, datetime.timedelta)):
        return "time"
    return type(v).__name__


def compare(name: str, ray_df: pd.DataFrame, sql_df: pd.DataFrame) -> list[str]:
    problems = []
    if len(ray_df) != len(sql_df):
        problems.append(f"row count: ray={len(ray_df)} sql={len(sql_df)}")
    if sorted(ray_df.columns) != sorted(sql_df.columns):
        problems.append(f"columns: ray={sorted(ray_df.columns)} sql={sorted(sql_df.columns)}")
        return problems
    for col in sorted(ray_df.columns):
        rc, sc = dtype_class(ray_df[col]), dtype_class(sql_df[col])
        if rc is not None and sc is not None and rc != sc:
            problems.append(f"dtype class differs in col {col!r}: "
                            f"ray={rc} ({ray_df[col].dtype}) "
                            f"sql={sc} ({sql_df[col].dtype})")
    if problems:
        return problems
    a, b = canon(ray_df), canon(sql_df)
    if len(a) == len(b):
        for col in a.columns:
            av, bv = a[col].to_numpy(), b[col].to_numpy()
            if np.issubdtype(av.dtype, np.floating) or np.issubdtype(bv.dtype, np.floating):
                ok = np.allclose(av.astype(float), bv.astype(float), rtol=0, atol=1e-9)
            else:
                ok = (pd.Series(av).astype(str) == pd.Series(bv).astype(str)).all()
            if not ok:
                mism = np.nonzero(~(pd.Series(av).astype(str) == pd.Series(bv).astype(str)).to_numpy())[0][:5]
                problems.append(f"values differ in col {col!r} at rows {mism.tolist()}; "
                                f"ray={av[mism][:3]} sql={bv[mism][:3]}")
    return problems


def main():
    sf_dir = sys.argv[1] if len(sys.argv) > 1 else "/root/testdata/sf0.01"
    only = set(sys.argv[2:])

    import ray

    if not ray.is_initialized():
        ray.init(address="local", num_cpus=8, include_dashboard=False,
                 logging_level="ERROR")

    import __ray_entry__ as entry

    con = duckdb.connect()
    for t in TABLES:
        p = f"{sf_dir}/{t}.parquet"
        if Path(p).exists():
            con.execute(f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{p}')")

    qs, sqls = entry.queries(), entry.oracle_sql()
    failed = []
    gate_s = 0.0
    for name, fn in qs.items():
        if only and name not in only:
            continue
        sql = sqls.get(name)
        print(f"== {name} ", end="", flush=True)
        t0 = time.perf_counter()
        ray_df = to_pandas(fn(sf_dir))
        dt = time.perf_counter() - t0
        gate_s += dt
        print(f"[{dt:.3f} s] ", end="", flush=True)
        if sql is None:
            print(f"[rows-only] {len(ray_df)} rows OK")
            continue
        sql_df = con.execute(sql).df()
        problems = compare(name, ray_df, sql_df)
        if problems:
            failed.append(name)
            print("FAIL")
            for p in problems:
                print("   ", p)
        else:
            print(f"OK ({len(ray_df)} rows)")
    ray.shutdown()
    print(f"gate-call time: {gate_s:.1f} s")
    if failed:
        print("FAILED:", failed)
        sys.exit(1)
    print("all OK")


if __name__ == "__main__":
    main()
