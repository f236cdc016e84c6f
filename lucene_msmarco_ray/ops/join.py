"""Bucketed hash join — the portable large×large equi-join pattern
(SURVEY.md §2.6 note: every reference join has a broadcastable small side;
this fills the general case for pipelines that don't).

Both sides get ``bucket = hash(key) % num_buckets`` in a map stage; a single
groupby co-locates matching buckets; each group joins its two sides with a
pandas merge. Skew note: a hot key lands in one bucket — raise
``num_buckets`` or pre-salt hot keys (the same discipline as the posting
merge, SURVEY.md I6).

Design notes (round-2 rewrite):
- The two sides are unioned under ONE exactly-aligned Arrow schema (each
  side appends typed-null columns for the other side's fields), so integer
  columns never widen to float64 through pandas-NaN promotion.
- Inside ``join_bucket`` each side is re-selected by its recorded column
  list (never ``dropna``), so an all-null real column survives and an empty
  side keeps its schema — left/outer joins with an empty side yield typed
  nulls instead of a pandas KeyError.
- Bucket hashing is vectorized via ``pandas.util.hash_array`` (C kernel,
  deterministic across processes for int and string keys alike).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa


def _hash_mod(arr: pa.ChunkedArray | pa.Array, num_buckets: int) -> np.ndarray:
    """Vectorized deterministic bucket assignment for an Arrow column."""
    if pa.types.is_integer(arr.type):
        np_vals = arr.combine_chunks().to_numpy(zero_copy_only=False) \
            if isinstance(arr, pa.ChunkedArray) else arr.to_numpy(zero_copy_only=False)
        h = pd.util.hash_array(np.ascontiguousarray(np_vals))
    else:
        # String/binary keys: hash_array over an object ndarray (C loop, not
        # a Python-level per-row generator).
        h = pd.util.hash_array(np.asarray(arr.to_pylist(), dtype=object))
    return (h % np.uint64(num_buckets)).astype(np.int64)


def _with_bucket(ds, key: str, num_buckets: int, side: int,
                 target: pa.Schema):
    """Tag each row with its bucket + side and align to ``target`` schema
    (missing fields become typed nulls)."""
    def f(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        cols = []
        for field in target:
            if field.name == "__bucket":
                cols.append(pa.array(_hash_mod(batch[key], num_buckets),
                                     type=pa.int64()))
            elif field.name == "__side":
                cols.append(pa.array(np.full(n, side, np.int8)))
            elif field.name in batch.column_names:
                cols.append(batch[field.name].cast(field.type))
            else:
                cols.append(pa.nulls(n, type=field.type))
        return pa.Table.from_arrays(cols, schema=target)
    f.__name__ = f"bucket_side{side}"
    return ds.map_batches(f, batch_format="pyarrow")


def bucketed_hash_join(left, right, key: str, num_buckets: int = 32,
                       how: str = "inner", suffixes=("_l", "_r"),
                       left_schema: pa.Schema | None = None,
                       right_schema: pa.Schema | None = None,
                       hot_keys=None, hot_replicas: int = 8):
    """Equi-join two Datasets on ``key``. One shuffle (the bucket groupby);
    per-bucket pandas merge with per-side dtype preservation. For
    ``how != "inner"`` unmatched rows carry typed NULLs (integer columns
    stay integers — the output is rebuilt against the declared schema).
    Pass ``left_schema``/``right_schema`` when the inputs are transformed
    datasets — ``ds.schema()`` on those executes a hidden limit-1 job per
    side just to learn the dtypes.

    **Hot-key salting** (``hot_keys``): a skewed key otherwise lands its
    entire fan-in in ONE bucket task. Passing the hot key list (from prior
    knowledge or a cheap count pass — :func:`detect_hot_keys`) splits each
    hot key's LEFT rows across ``hot_replicas`` salt buckets (any split
    works — the salt never changes WHICH pairs match, only where they are
    computed) and replicates the RIGHT rows of that key to all of them, so
    the per-task bound drops to fan-in/replicas at the cost of
    ``replicas×`` the (small) hot right side. Only valid for ``inner`` and
    ``left`` joins — replicated right rows would duplicate the unmatched
    output of right/outer joins."""
    hot = set(hot_keys) if hot_keys else None
    if hot and how not in ("inner", "left"):
        raise ValueError("hot_keys salting supports only inner/left joins "
                         "(replicated right rows would duplicate unmatched "
                         f"rows of a {how!r} join)")
    if hot and hot_replicas < 2:
        raise ValueError("hot_replicas must be >= 2")
    lschema = (left_schema if left_schema is not None
               else left.schema().base_schema)
    rschema = (right_schema if right_schema is not None
               else right.schema().base_schema)
    lcols = [n for n in lschema.names if n != key]
    rcols = [n for n in rschema.names if n != key]
    overlap = sorted(set(lcols) & set(rcols))
    if overlap:
        raise ValueError(
            f"bucketed_hash_join: non-key columns {overlap} exist on both "
            "sides; rename before joining (suffixing across the union would "
            "be ambiguous)")

    fields = [pa.field(key, lschema.field(key).type)]
    fields += [pa.field(n, lschema.field(n).type) for n in lcols]
    fields += [pa.field(n, rschema.field(n).type) for n in rcols]
    fields += [pa.field("__bucket", pa.int64()), pa.field("__side", pa.int8())]
    target = pa.schema(fields)

    if hot is None:
        lds = _with_bucket(left, key, num_buckets, 0, target)
        rds = _with_bucket(right, key, num_buckets, 1, target)
    else:
        hot_arr = pa.array(sorted(hot), type=lschema.field(key).type)
        rep = np.int64(hot_replicas)

        def salt_side(side: int):
            def f(batch: pa.Table) -> pa.Table:
                import pyarrow.compute as pc
                base = _hash_mod(batch[key], num_buckets)
                is_hot = pc.is_in(batch[key].combine_chunks()
                                  if isinstance(batch[key], pa.ChunkedArray)
                                  else batch[key], value_set=hot_arr) \
                    .to_numpy(zero_copy_only=False)
                n = batch.num_rows
                if side == 0:
                    # ANY salt split is correct (it only moves where the
                    # pairs are computed) — round-robin bounds every
                    # replica bucket at fan-in/replicas
                    salt = np.zeros(n, np.int64)
                    salt[is_hot] = np.arange(int(is_hot.sum()),
                                             dtype=np.int64) % rep
                    tbl, bucket = batch, base * rep + salt
                else:
                    # replicate hot right rows to every salt bucket
                    idx = np.concatenate(
                        [np.flatnonzero(~is_hot),
                         np.repeat(np.flatnonzero(is_hot), int(rep))])
                    salt = np.concatenate(
                        [np.zeros(int((~is_hot).sum()), np.int64),
                         np.tile(np.arange(int(rep), dtype=np.int64),
                                 int(is_hot.sum()))])
                    tbl = batch.take(pa.array(idx))
                    bucket = base[idx] * rep + salt
                out_cols = []
                for field in target:
                    if field.name == "__bucket":
                        out_cols.append(pa.array(bucket, pa.int64()))
                    elif field.name == "__side":
                        out_cols.append(pa.array(
                            np.full(tbl.num_rows, side, np.int8)))
                    elif field.name in tbl.column_names:
                        out_cols.append(tbl[field.name].cast(field.type))
                    else:
                        out_cols.append(pa.nulls(tbl.num_rows,
                                                 type=field.type))
                return pa.Table.from_arrays(out_cols, schema=target)
            f.__name__ = f"salted_bucket_side{side}"
            return f

        lds = left.map_batches(salt_side(0), batch_format="pyarrow")
        rds = right.map_batches(salt_side(1), batch_format="pyarrow")
    both = lds.union(rds)

    out_fields = [f for f in target if f.name not in ("__bucket", "__side")]
    out_schema = pa.schema(out_fields)

    def join_bucket(g: pa.Table) -> pa.Table:
        side = g["__side"].combine_chunks().to_numpy(zero_copy_only=False)
        lg = g.filter(pa.array(side == 0)).select([key] + lcols)
        rg = g.filter(pa.array(side == 1)).select([key] + rcols)
        if (lg.num_rows == 0 and how in ("inner", "left")) or \
           (rg.num_rows == 0 and how == "inner"):
            return out_schema.empty_table()
        merged = lg.to_pandas().merge(rg.to_pandas(), on=key, how=how,
                                      suffixes=suffixes)
        if merged.empty:
            return out_schema.empty_table()
        # column-wise rebuild against the declared schema: from_pandas=True
        # maps the NaN of outer/left unmatched rows to typed nulls, so
        # integer columns never widen to float64 in SOME buckets only
        # (schema-unstable blocks) — every group emits out_schema exactly
        cols = [pa.array(merged[f.name], type=f.type, from_pandas=True)
                for f in out_schema]
        return pa.Table.from_arrays(cols, schema=out_schema)

    join_bucket.__name__ = "join_bucket"
    return both.groupby("__bucket").map_groups(join_bucket,
                                               batch_format="pyarrow")


def detect_hot_keys(ds, key: str, threshold: int) -> list:
    """Keys whose row count exceeds ``threshold`` — the cheap pre-pass
    feeding ``bucketed_hash_join(hot_keys=...)``. Batch-local counts are
    pre-aggregated before the one (key, partial) exchange, so the shuffle
    is batch-vocabulary-sized; only the (tiny) over-threshold list reaches
    the driver."""
    def partial(batch: pa.Table) -> pa.Table:
        vc = batch[key].to_pandas().value_counts()
        return pa.table({key: pa.array(vc.index.to_numpy()),
                         "c": pa.array(vc.to_numpy(np.int64))})

    # coarse fold, not groupby().aggregate(): distinct-join-key
    # cardinality scales with the data (ops/fold.py, 15.7x measured)
    from .fold import coarse_group_agg
    hot = (coarse_group_agg(
        ds.select_columns([key])
        .map_batches(partial, batch_format="pyarrow"),
        [key], [("c", "c", "sum")])
        .filter(expr=f"c > {int(threshold)}")
        .to_pandas())
    return sorted(hot[key].tolist())


def bucketed_semi_join(left, right, key: str, how: str = "semi",
                       num_buckets: int = 32, right_key: str | None = None,
                       left_schema: pa.Schema | None = None):
    """Semi / anti join: left rows whose ``key`` does (semi) or does not
    (anti) appear in ``right``'s key column — SQL ``WHERE [NOT] EXISTS``.

    Scale shape: the right side ships ONLY its key column, deduplicated
    per batch before the exchange (so a foreign-key side with massive
    fan-in shrinks to its distinct keys in the map stage); the left rows
    cross the same one bucket exchange as :func:`bucketed_hash_join`, and
    each bucket filters with one vectorized ``isin``. Output schema is
    exactly the left schema — no padding columns survive."""
    if how not in ("semi", "anti"):
        raise ValueError(f"how must be 'semi' or 'anti', got {how!r}")
    rkey = right_key or key
    lschema = (left_schema if left_schema is not None
               else left.schema().base_schema)

    fields = [pa.field(n, lschema.field(n).type) for n in lschema.names]
    fields += [pa.field("__bucket", pa.int64()),
               pa.field("__side", pa.int8())]
    target = pa.schema(fields)
    out_schema = pa.schema(
        [pa.field(n, lschema.field(n).type) for n in lschema.names])

    def right_keys(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc
        keys = pc.unique(batch[rkey].combine_chunks()
                         if isinstance(batch[rkey], pa.ChunkedArray)
                         else batch[rkey]).cast(lschema.field(key).type)
        n = len(keys)
        cols = []
        for field in target:
            if field.name == "__bucket":
                cols.append(pa.array(_hash_mod(keys, num_buckets),
                                     type=pa.int64()))
            elif field.name == "__side":
                cols.append(pa.array(np.full(n, 1, np.int8)))
            elif field.name == key:
                cols.append(keys)
            else:
                cols.append(pa.nulls(n, type=field.type))
        return pa.Table.from_arrays(cols, schema=target)

    lds = _with_bucket(left, key, num_buckets, 0, target)
    rds = right.select_columns([rkey]) \
        .map_batches(right_keys, batch_format="pyarrow")

    keep_match = how == "semi"

    def filter_bucket(g: pa.Table) -> pa.Table:
        side = g["__side"].combine_chunks().to_numpy(zero_copy_only=False)
        lg = g.filter(pa.array(side == 0))
        if lg.num_rows == 0:
            return out_schema.empty_table()
        rk = np.unique(g.filter(pa.array(side == 1))[key]
                       .to_numpy(zero_copy_only=False))
        lk = lg[key].to_numpy(zero_copy_only=False)
        mask = np.isin(lk, rk)
        keep = lg.filter(pa.array(mask if keep_match else ~mask))
        return pa.Table.from_arrays(
            [keep[n] for n in out_schema.names], schema=out_schema)

    filter_bucket.__name__ = f"{how}_join_bucket"
    return lds.union(rds).groupby("__bucket") \
        .map_groups(filter_bucket, batch_format="pyarrow")


def bucketed_range_join(left, right, *, lo_col: str, hi_col: str,
                        point_col: str, key: str | None = None,
                        bucket_width: int = 3_600_000_000,
                        max_span_buckets: int = 1024,
                        left_schema: pa.Schema | None = None,
                        right_schema: pa.Schema | None = None):
    """Range (interval) join: every (L, R) pair with
    ``L.lo <= R.point <= L.hi`` (inclusive) and, when ``key`` is given,
    ``L.key == R.key`` — the prompt's §custom-operators "range join",
    expressed as a composition (no all-pairs, no broadcast).

    Physical plan: each left interval replicates to its covering buckets
    ``lo // bucket_width .. hi // bucket_width``; each right point lands in
    exactly ONE bucket (so no output dedup is needed); one coarse
    :func:`~.fold.partition_fold` on (key, bucket) co-locates candidates;
    each partition merges its sides on (key, bucket) and filters the exact
    range — all vectorized C kernels.

    Partitioning assumption (documented per the prompt): interval length is
    bounded — replication factor per left row is ``span/bucket_width + 1``,
    capped at ``max_span_buckets`` (longer intervals raise, telling the
    caller to grow ``bucket_width``). Skewed (key, bucket) pairs land in one
    partition; shrink ``bucket_width`` for hot keys.

    Column contract mirrors :func:`bucketed_hash_join`: non-key columns must
    not overlap across sides; output = [key?] + left cols + right cols.
    ``left_schema``/``right_schema`` skip the hidden limit-1 ``ds.schema()``
    jobs on transformed inputs."""
    from .fold import partition_fold
    w = int(bucket_width)
    lschema = (left_schema if left_schema is not None
               else left.schema().base_schema)
    rschema = (right_schema if right_schema is not None
               else right.schema().base_schema)
    keys = [key] if key else []
    lcols = [n for n in lschema.names if n not in keys]
    rcols = [n for n in rschema.names if n not in keys]
    overlap = sorted(set(lcols) & set(rcols))
    if overlap:
        raise ValueError(
            f"bucketed_range_join: non-key columns {overlap} exist on both "
            "sides; rename before joining")

    fields = [pa.field(key, lschema.field(key).type)] if key else []
    fields += [pa.field(n, lschema.field(n).type) for n in lcols]
    fields += [pa.field(n, rschema.field(n).type) for n in rcols]
    out_schema = pa.schema(fields)
    target = pa.schema(list(out_schema) + [pa.field("__bucket", pa.int64()),
                                           pa.field("__side", pa.int8())])

    def _aligned(batch: pa.Table, n: int, bucket, side,
                 take: np.ndarray | None) -> pa.Table:
        cols = []
        for field in target:
            if field.name == "__bucket":
                cols.append(pa.array(bucket, type=pa.int64()))
            elif field.name == "__side":
                cols.append(pa.array(np.full(n, side, np.int8)))
            elif field.name in batch.column_names:
                col = batch[field.name].cast(field.type)
                cols.append(col.take(pa.array(take)) if take is not None
                            else col)
            else:
                cols.append(pa.nulls(n, type=field.type))
        return pa.Table.from_arrays(cols, schema=target)

    def expand_left(batch: pa.Table) -> pa.Table:
        lo = batch[lo_col].to_numpy(zero_copy_only=False).astype(np.int64)
        hi = batch[hi_col].to_numpy(zero_copy_only=False).astype(np.int64)
        b0, b1 = lo // w, hi // w
        span = b1 - b0 + 1
        bad = span > max_span_buckets
        if bad.any():
            raise ValueError(
                f"bucketed_range_join: {int(bad.sum())} interval(s) span "
                f"> max_span_buckets={max_span_buckets} buckets of width "
                f"{w}; raise bucket_width")
        idx = np.repeat(np.arange(lo.size, dtype=np.int64), span)
        # bucket of each replica: b0[i] + offset within the row's span
        off = np.arange(idx.size, dtype=np.int64) - np.repeat(
            np.cumsum(span) - span, span)
        return _aligned(batch, idx.size, b0[idx] + off, 0, idx)

    def tag_right(batch: pa.Table) -> pa.Table:
        p = batch[point_col].to_numpy(zero_copy_only=False).astype(np.int64)
        return _aligned(batch, p.size, p // w, 1, None)

    expand_left.__name__ = "range_expand_left"
    tag_right.__name__ = "range_tag_right"
    lds = left.map_batches(expand_left, batch_format="pyarrow")
    rds = right.map_batches(tag_right, batch_format="pyarrow")

    on = keys + ["__bucket"]

    def join_part(g: pa.Table) -> pa.Table:
        side = g["__side"].combine_chunks().to_numpy(zero_copy_only=False)
        lg = g.filter(pa.array(side == 0)).select(on + lcols).to_pandas()
        rg = g.filter(pa.array(side == 1)).select(on + rcols).to_pandas()
        if lg.empty or rg.empty:
            return out_schema.empty_table()
        merged = lg.merge(rg, on=on)
        merged = merged[(merged[lo_col] <= merged[point_col])
                        & (merged[point_col] <= merged[hi_col])]
        cols = [pa.array(merged[f.name], type=f.type, from_pandas=True)
                for f in out_schema]
        return pa.Table.from_arrays(cols, schema=out_schema)

    join_part.__name__ = "range_join_part"
    return partition_fold([lds, rds], on, join_part, batch_format="pyarrow")


def _bloom_positions(keys: np.ndarray, m_bits: int,
                     k_hashes: int) -> np.ndarray:
    """(k_hashes, n) bit positions via double hashing: two mix64 streams
    h1 + j·h2 mod m (h2 forced odd) — the standard Kirsch–Mitzenmacher
    construction, deterministic across processes."""
    from .fold import _mix64
    u = keys.astype(np.uint64)
    h1 = _mix64(u)
    h2 = _mix64(u ^ np.uint64(0x9E3779B97F4A7C15)) | np.uint64(1)
    pos = np.empty((k_hashes, u.size), np.uint64)
    for j in range(k_hashes):
        pos[j] = (h1 + np.uint64(j) * h2) % np.uint64(m_bits)
    return pos


def _build_bloom(right, rkey: str, m_bits: int, k_hashes: int) -> np.ndarray:
    """Distributed Bloom build → int64 word array of length m_bits/64.

    Per batch: the touched (word, or-value) partials (≤ m/64 rows each);
    ONE coarse word-range exchange or-folds them vectorized
    (lexsort + bitwise_or.reduceat across groups), so the reduced table —
    the only thing the driver materializes — is ≤ m/64 rows total."""
    n_words = m_bits // 64
    n_parts = 32

    empty = pa.table({"__part": pa.array([], pa.int64()),
                      "w": pa.array([], pa.int64()),
                      "v": pa.array([], pa.int64())})

    def partial(batch: pa.Table) -> pa.Table:
        keys = batch[rkey].to_numpy(zero_copy_only=False)
        if keys.size == 0:
            # reduceat on a zero-key batch would gather starts=[0] into a
            # size-0 array; empty blocks are routine when the right side
            # is itself a filtered dataset
            return empty
        pos = _bloom_positions(keys, m_bits, k_hashes).ravel()
        words = (pos >> np.uint64(6)).astype(np.int64)
        vals = (np.uint64(1) << (pos & np.uint64(63))).view(np.int64)
        order = np.argsort(words, kind="stable")
        words, vals = words[order], vals[order]
        starts = np.flatnonzero(
            np.concatenate(([True], words[1:] != words[:-1])))
        folded = np.bitwise_or.reduceat(vals, starts)
        uw = words[starts]
        return pa.table({"__part": pa.array(uw * n_parts // n_words),
                         "w": pa.array(uw), "v": pa.array(folded)})

    def fold(g: pd.DataFrame) -> pd.DataFrame:
        w = g["w"].to_numpy(np.int64)
        v = g["v"].to_numpy(np.int64)
        if w.size == 0:
            return pd.DataFrame({"w": w, "v": v})
        order = np.argsort(w, kind="stable")
        w, v = w[order], v[order]
        starts = np.flatnonzero(np.concatenate(([True], w[1:] != w[:-1])))
        return pd.DataFrame({"w": w[starts],
                             "v": np.bitwise_or.reduceat(v, starts)})

    fold.__name__ = "bloom_or_fold"
    red = (right.select_columns([rkey])
           .map_batches(partial, batch_format="pyarrow")
           .groupby("__part").map_groups(fold, batch_format="pandas")
           .to_pandas())
    filt = np.zeros(n_words, np.int64)
    if len(red):   # an empty right side yields a column-less frame
        filt[red["w"].to_numpy(np.int64)] = red["v"].to_numpy(np.int64)
    return filt


class _BloomTestStage:
    """Keeps (semi) / drops-into-survivors (anti) batch rows whose key
    tests positive on the broadcast filter; the words array is a zero-copy
    plasma view bound once per actor."""

    def __init__(self, fref, key: str, m_bits: int, k_hashes: int,
                 keep_positive: bool):
        import ray
        self.words = ray.get(fref)
        self.key, self.m, self.k = key, m_bits, k_hashes
        self.keep_positive = keep_positive

    def __call__(self, batch: pa.Table) -> pa.Table:
        keys = batch[self.key].to_numpy(zero_copy_only=False)
        if keys.size == 0:
            return batch
        pos = _bloom_positions(keys, self.m, self.k)
        w = self.words.view(np.uint64)[(pos >> np.uint64(6)).astype(np.int64)]
        hit = ((w >> (pos & np.uint64(63))) & np.uint64(1)).all(axis=0)
        return batch.filter(pa.array(hit if self.keep_positive else ~hit))


def bloom_semi_join(left, right, key: str, how: str = "semi",
                    m_bits: int = 1 << 20, k_hashes: int = 4,
                    num_buckets: int = 32, right_key: str | None = None,
                    left_schema: pa.Schema | None = None):
    """Semi / anti join with a Bloom pre-filter — EXACT results (identical
    to :func:`bucketed_semi_join`; same SQL oracle), but the left rows that
    cross the bucket exchange shrink to the Bloom survivors first.

    When to use over the plain bucketed semi join: the right side's
    distinct keys are too many to be cheap in the exchange but a bit-set
    summary still fits a broadcast — m_bits ≈ 10 bits per distinct right
    key gives ~1% false positives (size the filter to the KEY COUNT, not
    the data volume: 1 G keys → 1.25 GB filter, one object-store copy per
    node; the sizing hint is rounded up to a multiple of 64). Bloom has NO
    false negatives, so: semi = exact semi join over the positive rows;
    anti = the definite negatives pass through freely ∪ exact anti join
    over the positives. Build cost is one coarse word-range or-fold
    exchange, ≤ m/64 reduced rows. Anti-path cost note: the two branches
    are independent Ray pipelines, so the left source is scanned (and
    Bloom-hashed) twice — a second cheap columnar read in exchange for
    keeping the bulk negatives OUT of the shuffle; prefer the plain
    :func:`bucketed_semi_join` for anti when the left read itself, not
    the exchange, is the bottleneck."""
    import ray

    if how not in ("semi", "anti"):
        raise ValueError(f"how must be 'semi' or 'anti', got {how!r}")
    if m_bits < 1 or k_hashes < 1:
        raise ValueError("m_bits and k_hashes must be positive")
    # the filter is stored as int64 words: round the sizing hint UP to a
    # multiple of 64 ('~10 bits per key' naturally produces odd sizes)
    m_bits = max(64, -(-int(m_bits) // 64) * 64)
    lschema = (left_schema if left_schema is not None
               else left.schema().base_schema)
    fref = ray.put(_build_bloom(right, right_key or key, m_bits, k_hashes))
    kw = dict(fn_constructor_kwargs=dict(
        fref=fref, key=key, m_bits=m_bits, k_hashes=k_hashes,
        keep_positive=True), batch_format="pyarrow", concurrency=(1, 8))
    survivors = left.map_batches(_BloomTestStage, **kw)
    exact = bucketed_semi_join(survivors, right, key=key, how=how,
                               num_buckets=num_buckets, right_key=right_key,
                               left_schema=lschema)
    if how == "semi":
        return exact
    kw_neg = dict(kw)
    kw_neg["fn_constructor_kwargs"] = dict(
        kw["fn_constructor_kwargs"], keep_positive=False)
    definite = left.map_batches(_BloomTestStage, **kw_neg)
    return definite.union(exact)
