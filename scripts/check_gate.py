"""Simulate the driver's correctness gate: run every queries() entry and its
oracle_sql() side-by-side on a testdata sf dir and compare row count, schema,
and order-insensitive values.

Usage: python scripts/check_gate.py [sf_dir] [name ...]
"""

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def to_pandas(res):
    import pandas as pd
    import pyarrow as pa
    try:
        import ray.data as rd
    except ImportError:
        rd = None
    # outside the try: a failure while the Dataset runs keeps its own type
    if rd is not None and isinstance(res, rd.Dataset):
        return res.to_pandas()
    if isinstance(res, pa.Table):
        return res.to_pandas()
    if isinstance(res, pd.DataFrame):
        return res
    raise TypeError(type(res))


def canon(df):
    df = df.reindex(sorted(df.columns), axis=1)
    df = df.sort_values(list(df.columns), kind="mergesort").reset_index(drop=True)
    return df


def main():
    sf_dir = sys.argv[1] if len(sys.argv) > 1 else "/root/testdata/sf0.01"
    only = set(sys.argv[2:])
    # one line per gate as it finishes, also when stdout is a pipe
    sys.stdout.reconfigure(line_buffering=True)
    import time

    import duckdb
    import ray
    ray.init(address="local", num_cpus=8, include_dashboard=False,
             logging_level="ERROR")
    from ray.data import DataContext
    DataContext.get_current().enable_progress_bars = False

    import __ray_entry__ as e
    qs, oracles = e.queries(), e.oracle_sql()

    con = duckdb.connect()
    for t in ("region nation customer supplier part orders lineitem events "
              "documents embeddings").split():
        p = os.path.join(sf_dir, f"{t}.parquet")
        if os.path.exists(p):
            con.execute(f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{p}')")

    failures = []
    for name, fn in qs.items():
        if only and name not in only:
            continue
        t0 = time.time()
        try:
            mine = canon(to_pandas(fn(sf_dir)))
        except Exception as ex:
            failures.append(name)
            print(f"[FAIL] {name}: engine raised {type(ex).__name__}: {ex}")
            continue
        el = time.time() - t0
        if name not in oracles:
            print(f"[rows-only] {name}: {len(mine)} rows  ({el:.1f}s)")
            continue
        try:
            oracle = canon(con.execute(oracles[name]).fetchdf())
        except Exception as ex:
            failures.append(name)
            print(f"[FAIL] {name}: oracle SQL raised: {ex}")
            continue
        ok_rows = len(mine) == len(oracle)
        ok_cols = list(mine.columns) == list(oracle.columns)
        # the driver's value-hash is dtype-sensitive: int64 1 and float64
        # 1.0 hash differently even when assert_frame_equal(check_dtype=
        # False) passes — the exact blind spot that hid the round-2
        # asof_join int->float widening. Compare dtype KINDS too.
        ok_dtypes = ok_cols and all(
            mine[c].dtype.kind == oracle[c].dtype.kind for c in mine.columns)
        ok_vals = False
        if ok_rows and ok_cols:
            try:
                import pandas.testing as pdt
                pdt.assert_frame_equal(mine, oracle, check_dtype=False,
                                       check_exact=False, atol=1e-9)
                ok_vals = True
            except AssertionError as ex:
                msg = str(ex).splitlines()[0]
        status = "OK" if (ok_rows and ok_cols and ok_dtypes and ok_vals) \
            else "FAIL"
        if status == "FAIL":
            failures.append(name)
        print(f"[{status}] {name}: rows {len(mine)}/{len(oracle)} "
              f"cols_match={ok_cols} dtypes={ok_dtypes} vals={ok_vals}  "
              f"({el:.1f}s)")
        if not ok_cols:
            print(f"    engine cols: {list(mine.columns)}")
            print(f"    oracle cols: {list(oracle.columns)}")
        elif not ok_dtypes:
            bad = [c for c in mine.columns
                   if mine[c].dtype.kind != oracle[c].dtype.kind]
            for c in bad:
                print(f"    dtype kind mismatch {c}: engine "
                      f"{mine[c].dtype} vs oracle {oracle[c].dtype}")
        elif ok_rows and not ok_vals:
            print(f"    {msg}")
            diff = (mine != oracle).any(axis=1)
            print("    first engine diffs:\n", mine[diff].head(3))
            print("    first oracle diffs:\n", oracle[diff].head(3))

    ray.shutdown()
    print("\nFAILURES:", failures if failures else "none")
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
