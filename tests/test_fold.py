"""coarse_group_agg contract: bit-identical to a driver-side pandas
groupby (up to row order) across sum/min/max/size, multi-column string+int
keys, int64 exactness near 2^62, and many near-empty partitions."""

import numpy as np
import pandas as pd


def _sorted(df):
    return (df.reindex(sorted(df.columns), axis=1)
            .sort_values(sorted(df.columns)).reset_index(drop=True))


def test_coarse_group_agg_matches_pandas(ray_session):
    import ray.data as rd

    from lucene_msmarco_ray.ops.fold import coarse_group_agg

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
        num_parts=11,
    ).to_pandas()
    want = (df.groupby(["k1", "k2"], sort=False)
            .agg(s=("v", "sum"), lo=("v", "min"),
                 hi=("v", "max"), n=("v", "size")).reset_index())
    assert got["s"].dtype == np.int64 and got["n"].dtype == np.int64
    pd.testing.assert_frame_equal(_sorted(got), _sorted(want),
                                  check_dtype=False)


def test_coarse_group_agg_single_group_many_parts(ray_session):
    """One group hashed to one partition must still fold exactly even
    when every other partition is empty (map_groups only sees real
    groups, so empties cost nothing)."""
    import ray.data as rd

    from lucene_msmarco_ray.ops.fold import coarse_group_agg

    df = pd.DataFrame({"k": ["only"] * 100,
                       "v": np.arange(100, dtype=np.int64)})
    got = coarse_group_agg(rd.from_pandas(df).repartition(5), ["k"],
                           [("s", "v", "sum"), ("n", "v", "size")],
                           num_parts=64).to_pandas()
    assert len(got) == 1
    assert got.loc[0, "s"] == 4950 and got.loc[0, "n"] == 100


def test_coarse_group_agg_null_and_dictionary_keys(ray_session):
    """A null key is a group of its own, as in Ray's groupby().aggregate;
    a dictionary-encoded key emits no rows for categories absent from the
    data (or from a partition)."""
    import pyarrow as pa
    import ray.data as rd

    from lucene_msmarco_ray.ops.fold import coarse_group_agg

    tbl = pa.table({"k": pa.array(["a", None, "a", None, "b"]),
                    "v": pa.array([1, 2, 3, 4, 5], pa.int64())})
    got = coarse_group_agg(rd.from_arrow(tbl), ["k"],
                           [("s", "v", "sum")], num_parts=3).to_pandas()
    assert sorted(((k if isinstance(k, str) else None, s)
                   for k, s in zip(got["k"], got["s"])), key=str) == \
        [("a", 4), ("b", 5), (None, 6)]

    keys = pa.DictionaryArray.from_arrays(
        pa.array([0, 1, 0, 1, 0], pa.int32()), pa.array(["a", "b", "c"]))
    tbl = pa.table({"k": keys, "v": pa.array([1, 2, 3, 4, 5], pa.int64())})
    got = coarse_group_agg(rd.from_arrow(tbl), ["k"],
                           [("s", "v", "sum"), ("n", "v", "size")],
                           num_parts=4).to_pandas()
    assert sorted(zip(got["k"].astype(str), got["s"], got["n"])) == \
        [("a", 9, 3), ("b", 6, 2)]
