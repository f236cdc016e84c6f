"""Coarse-partition vectorized group-fold — the repo's replacement for
``groupby(high-cardinality key).aggregate(...)``.

Ray Data's sort-based aggregate merges its per-block combined runs
ROW-BY-ROW in Python (one AggregateFn accumulate call per row at the
block-merge boundary), which is fine when group cardinality is bounded
(a vocabulary, k buckets) but O(corpus)·µs-scale-Python when the key
scales with the data — doc ids, content hashes, user ids, join keys.
Measured on this box (32 CPUs, 2M (content_hash, doc_id) rows, 864k
groups, Min+Count): **22.05 s via groupby().aggregate vs 1.41 s via
this fold — 15.7×**; at 500k docs the vocab_join per-doc fold went from
>25 min (unfinished reduce) to seconds after the same conversion.

The fold is the pattern ``topk_per_group`` already uses (execution-shape
rule #1 in ARCHITECTURE.md): ONE exchange keyed by a coarse hash of the
group key — ``coarse_parts()`` partitions, MANY groups per partition —
then one vectorized pandas groupby-agg per partition. Per-task heap is
``total_group_rows / num_parts``; num_parts scales with the cluster
(2 per core), so a bigger cluster gets proportionally smaller folds.

Exactness: int64 sums stay int64 through pandas groupby (exact), min /
max / size involve no arithmetic; the partition hash only places rows,
it never affects values — outputs are bit-identical to the aggregate
version up to row order (every gate comparison sorts rows first).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from .dedup import _mix64, coarse_parts


def coarse_group_agg(ds, keys, aggs, num_parts: int | None = None):
    """Group ``ds`` by ``keys`` and fold ``aggs`` through one coarse
    exchange.

    ``aggs``: ordered list of ``(out_col, in_col, fn)`` with ``fn`` one
    of ``"sum" | "min" | "max" | "size"`` (size counts group rows;
    ``in_col`` is ignored for it but must exist). Output columns:
    ``keys + [out for out, _, _ in aggs]``, row order arbitrary.

    Keys: a null key is a group of its own (as in ``groupby().aggregate``);
    a dictionary-encoded key yields rows only for the values present.
    """
    import pandas as pd

    keys = list(keys)
    num_parts = coarse_parts(num_parts)
    named = {out: pd.NamedAgg(column=col, aggfunc=fn)
             for out, col, fn in aggs}
    out_cols = keys + [out for out, _, _ in aggs]

    def tag(batch: pa.Table) -> pa.Table:
        kdf = batch.select(keys).to_pandas()
        h = pd.util.hash_pandas_object(kdf, index=False).to_numpy()
        part = (_mix64(h) % np.uint64(num_parts)).astype(np.int64)
        return batch.append_column("__part", pa.array(part))

    def fold(g: pd.DataFrame) -> pd.DataFrame:
        out = (g.groupby(keys, sort=False, dropna=False, observed=True)
               .agg(**named).reset_index())
        return out[out_cols]

    return (ds.map_batches(tag, batch_format="pyarrow")
            .groupby("__part").map_groups(fold, batch_format="pandas"))
