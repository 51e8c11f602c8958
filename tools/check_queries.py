"""Driver-mimic: run every queries() entry at a given sf_dir and compare
against oracle_sql() via DuckDB — row count, column names, and
order-insensitive values.  Usage:

    python tools/check_queries.py [sf_dir] [name ...]
"""

from __future__ import annotations

import os
import sys
import time

import duckdb
import numpy as np
import pandas as pd

# the checkout this script lives in: its engine is the one checked
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

TABLES = ["region", "nation", "customer", "supplier", "part", "orders",
          "lineitem", "events", "documents", "embeddings"]


def to_pandas(obj) -> pd.DataFrame:
    import pyarrow as pa
    import ray.data as rd

    if isinstance(obj, rd.Dataset):
        return obj.to_pandas()
    if isinstance(obj, pa.Table):
        return obj.to_pandas()
    return obj


def canon(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)].copy()
    for c in df.columns:
        if df[c].dtype == object and len(df) and isinstance(df[c].iloc[0], (list, np.ndarray)):
            df[c] = df[c].map(lambda v: tuple(np.asarray(v).tolist()))
    return df.sort_values(list(df.columns)).reset_index(drop=True)


def compare(name: str, ray_df: pd.DataFrame, sql_df: pd.DataFrame) -> list[str]:
    problems = []
    if sorted(ray_df.columns) != sorted(sql_df.columns):
        problems.append(f"columns ray={sorted(ray_df.columns)} sql={sorted(sql_df.columns)}")
        return problems
    if len(ray_df) != len(sql_df):
        problems.append(f"rows ray={len(ray_df)} sql={len(sql_df)}")
    a, b = canon(ray_df), canon(sql_df)
    if len(a) == len(b):
        for c in a.columns:
            av, bv = a[c].to_numpy(), b[c].to_numpy()
            if np.issubdtype(np.asarray(av).dtype, np.floating):
                ok = np.allclose(av.astype(float), bv.astype(float), atol=1e-9, equal_nan=True)
            else:
                ok = (pd.Series(av).astype(str) == pd.Series(bv).astype(str)).all()
            if not ok:
                bad = np.flatnonzero(pd.Series(av).astype(str).to_numpy()
                                     != pd.Series(bv).astype(str).to_numpy())[:3]
                problems.append(f"col {c} differs at rows {bad.tolist()}: "
                                f"ray={[av[i] for i in bad]} sql={[bv[i] for i in bad]}")
    return problems


def main():
    sf_dir = sys.argv[1] if len(sys.argv) > 1 else "/root/testdata/sf0.01"
    only = set(sys.argv[2:])

    sys.path.insert(0, ROOT)
    # Ray workers started below inherit this, so they import the same
    # checkout's package as the driver
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (ROOT, os.environ.get("PYTHONPATH")) if p)
    import ray

    if not ray.is_initialized():
        ray.init(address="local", num_cpus=8, include_dashboard=False,
                 logging_level="ERROR")
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False

    import __ray_entry__ as entrymod

    con = duckdb.connect()
    for t in TABLES:
        con.execute(f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{sf_dir}/{t}.parquet')")

    qs = entrymod.queries()
    sqls = entrymod.oracle_sql()
    n_ok = n_bad = 0
    for name, fn in qs.items():
        if only and name not in only:
            continue
        t0 = time.time()
        try:
            ray_df = to_pandas(fn(sf_dir))
        except Exception as e:
            print(f"FAIL {name}: ray raised {type(e).__name__}: {e}")
            n_bad += 1
            continue
        wall = time.time() - t0
        if name not in sqls:
            print(f"ok?  {name}: rows-only ({len(ray_df)} rows, {wall:.1f}s) "
                  f"cols={list(ray_df.columns)}")
            n_ok += 1
            continue
        try:
            sql_df = con.execute(sqls[name]).fetchdf()
        except Exception as e:
            print(f"FAIL {name}: SQL raised {e}")
            n_bad += 1
            continue
        problems = compare(name, ray_df, sql_df)
        if problems:
            print(f"FAIL {name} ({wall:.1f}s): " + "; ".join(problems))
            n_bad += 1
        else:
            print(f"PASS {name}: {len(ray_df)} rows ({wall:.1f}s)")
            n_ok += 1
    print(f"\n{n_ok} ok, {n_bad} failed")
    ray.shutdown()
    return 1 if n_bad else 0


if __name__ == "__main__":
    sys.exit(main())
