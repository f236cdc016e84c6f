"""partition_fold / coarse_group_agg contract: every key's rows meet in
one partition; coarse_group_agg is bit-identical to a driver-side pandas
groupby (up to row order) across sum/min/max/size, multi-column
string+int keys, int64 exactness near 2^62, and many near-empty
partitions. Partition counts are pinned by monkeypatching
``fold.coarse_parts``."""

import numpy as np
import pandas as pd

from lucene_msmarco_ray.ops import fold


def _sorted(df):
    return (df.reindex(sorted(df.columns), axis=1)
            .sort_values(sorted(df.columns)).reset_index(drop=True))


def test_coarse_group_agg_matches_pandas(ray_session, monkeypatch):
    import ray.data as rd

    from lucene_msmarco_ray.ops.fold import coarse_group_agg

    monkeypatch.setattr(fold, "coarse_parts", lambda: 11)
    rng = np.random.default_rng(5)
    n = 5000
    df = pd.DataFrame({
        "k1": [f"key{i}" for i in rng.integers(0, 700, n)],
        "k2": rng.integers(0, 3, n).astype(np.int64),
        "v": rng.integers(-(2 ** 61), 2 ** 61, n).astype(np.int64),
    })
    got = coarse_group_agg(
        rd.from_pandas(df).repartition(7),
        ["k1", "k2"],
        [("s", "v", "sum"), ("lo", "v", "min"),
         ("hi", "v", "max"), ("n", "v", "size")],
    ).to_pandas()
    want = (df.groupby(["k1", "k2"], sort=False)
            .agg(s=("v", "sum"), lo=("v", "min"),
                 hi=("v", "max"), n=("v", "size")).reset_index())
    assert got["s"].dtype == np.int64 and got["n"].dtype == np.int64
    pd.testing.assert_frame_equal(_sorted(got), _sorted(want),
                                  check_dtype=False)


def test_coarse_group_agg_single_group_many_parts(ray_session, monkeypatch):
    """One group hashed to one partition must still fold exactly even
    when every other partition is empty (map_groups only sees real
    groups, so empties cost nothing)."""
    import ray.data as rd

    from lucene_msmarco_ray.ops.fold import coarse_group_agg

    monkeypatch.setattr(fold, "coarse_parts", lambda: 64)
    df = pd.DataFrame({"k": ["only"] * 100,
                       "v": np.arange(100, dtype=np.int64)})
    got = coarse_group_agg(rd.from_pandas(df).repartition(5), ["k"],
                           [("s", "v", "sum"), ("n", "v", "size")]
                           ).to_pandas()
    assert len(got) == 1
    assert got.loc[0, "s"] == 4950 and got.loc[0, "n"] == 100


def test_coarse_group_agg_null_and_dictionary_keys(ray_session, monkeypatch):
    """A null key is a group of its own, as in Ray's groupby().aggregate;
    a dictionary-encoded key emits no rows for categories absent from the
    data (or from a partition)."""
    import pyarrow as pa
    import ray.data as rd

    from lucene_msmarco_ray.ops.fold import coarse_group_agg

    monkeypatch.setattr(fold, "coarse_parts", lambda: 3)
    tbl = pa.table({"k": pa.array(["a", None, "a", None, "b"]),
                    "v": pa.array([1, 2, 3, 4, 5], pa.int64())})
    got = coarse_group_agg(rd.from_arrow(tbl), ["k"],
                           [("s", "v", "sum")]).to_pandas()
    assert sorted(((k if isinstance(k, str) else None, s)
                   for k, s in zip(got["k"], got["s"])), key=str) == \
        [("a", 4), ("b", 5), (None, 6)]

    monkeypatch.setattr(fold, "coarse_parts", lambda: 4)
    keys = pa.DictionaryArray.from_arrays(
        pa.array([0, 1, 0, 1, 0], pa.int32()), pa.array(["a", "b", "c"]))
    tbl = pa.table({"k": keys, "v": pa.array([1, 2, 3, 4, 5], pa.int64())})
    got = coarse_group_agg(rd.from_arrow(tbl), ["k"],
                           [("s", "v", "sum"), ("n", "v", "size")]
                           ).to_pandas()
    assert sorted(zip(got["k"].astype(str), got["s"], got["n"])) == \
        [("a", 9, 3), ("b", 6, 2)]


def test_partition_fold_colocates_every_key(ray_session, monkeypatch):
    """Each key's rows reach ONE call of the per-partition function, also
    when an integer key column has nulls in some blocks only and for a
    composite string+int key; the operator keeps the function's name."""
    import pyarrow as pa
    import ray.data as rd

    from lucene_msmarco_ray.ops.fold import PART_COL, partition_fold

    monkeypatch.setattr(fold, "coarse_parts", lambda: 5)
    blocks = [pa.table({"k": pa.array([1, 2, 3, 2], pa.int64()),
                        "s": pa.array(["x", "y", "x", "y"])}),
              pa.table({"k": pa.array([3, None, 1, None], pa.int64()),
                        "s": pa.array(["x", "y", "y", "x"])})]
    ds = rd.from_arrow(blocks)

    def per_key(keys):
        def count_keys(g: pd.DataFrame) -> pd.DataFrame:
            assert g[PART_COL].nunique() == 1
            return (g.groupby(keys, dropna=False).size()
                    .reset_index(name="n"))
        return count_keys

    got = partition_fold(ds, "k", per_key(["k"])).to_pandas()
    assert sorted(zip(got["k"].fillna(-1).astype(int), got["n"])) == \
        [(-1, 2), (1, 2), (2, 2), (3, 2)]
    got = partition_fold(ds, ["s", "k"], per_key(["s", "k"])).to_pandas()
    assert len(got) == 6 and got["n"].sum() == 8
    assert per_key(["k"]).__name__ == "count_keys"
