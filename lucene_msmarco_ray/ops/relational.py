"""General relational operators for large-scale curation pipelines:
per-group top-k, per-group distinct counts, deterministic hash sampling,
and an exact distributed quantile.

These fill the generic "wide table" gaps around the IR-specific operators
(SURVEY.md §2.9/§2.12): every one is expressed so the data that crosses a
shuffle boundary is a bounded REDUCTION of the input, never the input
itself.

Scale shapes:
- ``topk_per_group``: each map batch emits at most k rows per group, so
  the single groupby exchange moves O(k · groups · blocks) rows — the
  classic partial-top-k combiner.
- ``group_distinct_count``: batch-local dedup before the pair exchange;
  the second (group-level) exchange sums pre-counted partials, so it is
  O(groups · blocks) tiny rows.
- ``hash_sample``: stateless row filter — no shuffle at all, identical
  output at any parallelism, and the multiplicative-hash arithmetic is
  replayable in ANSI SQL (the gate oracle runs it in DuckDB HUGEINT).
- ``group_quantile``: two streaming passes and no row shuffle. Pass A
  histograms values into 2^16 order-preserving buckets per group (an
  order-preserving bijection from float64 to uint64, top 16 bits); the
  (group, bucket) count table is the only thing collected. Pass B scans
  again, keeps only each group's target bucket, and selects the exact
  rank within it. Driver state is O(groups × occupied buckets); the
  per-group sort in pass B is bounded by the largest single bucket, i.e.
  the mass within one 2^-16 slice of the value range (document skew
  caveat: a group whose values are ALL identical puts them in one
  bucket — the rank-select then still answers without a full sort, see
  ``_pick_rank``).
"""

from __future__ import annotations

import math

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

# Knuth's multiplicative hash constant (2^32 / golden ratio) — public
# domain arithmetic, exactly replayable in SQL with HUGEINT modular math.
_KNUTH = 2654435761
_M32 = 1 << 32


def topk_per_group(ds, group_cols, order_col: str, k: int,
                   descending: bool = True, tie_cols=None):
    """Top-``k`` rows per group by ``order_col`` with deterministic
    tie-breaks (``tie_cols`` ascending), plus a 1-based ``rank`` column.

    Equivalent SQL: ``row_number() OVER (PARTITION BY group ORDER BY
    order_col [DESC], tie_cols) <= k``.
    """
    from lucene_msmarco_ray.ops.fold import PART_COL, partition_fold

    group_cols = list(group_cols)
    tie_cols = list(tie_cols or [])
    by = [order_col] + tie_cols
    asc = [not descending] + [True] * len(tie_cols)

    # Final reduce is a coarse partition fold, not per group: one
    # vectorized pandas groupby-head per partition instead of one Python
    # call per group (15k tiny groups → one call per partition; measured
    # 12.5 s → ~1 s on the sf0.1 gate).
    def partial(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        df = df.sort_values(by, ascending=asc, kind="mergesort")
        out = df.groupby(group_cols, sort=False).head(k)
        return pa.Table.from_pandas(out, schema=batch.schema,
                                    preserve_index=False)

    def final_part(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(group_cols + by,
                            ascending=[True] * len(group_cols) + asc,
                            kind="mergesort")
        out = df.groupby(group_cols, sort=False).head(k).copy()
        out["rank"] = (out.groupby(group_cols, sort=False).cumcount()
                       + 1).astype(np.int64)
        return out.drop(columns=PART_COL).reset_index(drop=True)

    return partition_fold(ds.map_batches(partial, batch_format="pyarrow"),
                          group_cols, final_part)


def group_distinct_count(ds, group_cols, value_col: str,
                         output_col: str = "n_distinct"):
    """Exact COUNT(DISTINCT value) per group.

    Batch-local dedup → one (group, value) exchange that only ever sees
    already-unique-per-block pairs → batch-local partial counts → a tiny
    (group) exchange summing them.
    """
    from ray.data.aggregate import Sum

    group_cols = list(group_cols)
    keys = group_cols + [value_col]

    def local_dedup(batch: pa.Table) -> pa.Table:
        return batch.select(keys).group_by(keys).aggregate([])

    def partial_counts(batch: pa.Table) -> pa.Table:
        t = batch.select(group_cols).group_by(group_cols) \
            .aggregate([([], "count_all")])
        return t.rename_columns(
            ["__n" if c == "count_all" else c for c in t.column_names])

    def finish(batch: pa.Table) -> pa.Table:
        cols = {c: batch[c] for c in group_cols}
        cols[output_col] = batch["sum(__n)"].cast(pa.int64())
        return pa.table(cols)

    # the cross-block distinct is a coarse fold, not groupby().aggregate:
    # (group, value) cardinality scales with the data (ops/fold.py); the
    # per-GROUP sum below stays on aggregate — its merge rows are bounded
    # by blocks × groups after partial_counts pre-reduces each block
    from .fold import coarse_group_agg
    pairs = coarse_group_agg(ds.map_batches(local_dedup,
                                            batch_format="pyarrow"),
                             keys, [("__dup", value_col, "size")])
    return (pairs.map_batches(partial_counts, batch_format="pyarrow")
            .groupby(group_cols).aggregate(Sum("__n"))
            .map_batches(finish, batch_format="pyarrow"))


def _mix32(ids: np.ndarray, salt: int) -> np.ndarray:
    """((id + salt) mod 2^32) * KNUTH mod 2^32 — exact uint64 arithmetic,
    bit-identical to the HUGEINT form in SQL. Requires ids >= -salt (the
    masked sum must be the same nonnegative residue both sides compute)."""
    x = (ids.astype(np.uint64) + np.uint64(salt)) & np.uint64(_M32 - 1)
    return (x * np.uint64(_KNUTH)) % np.uint64(_M32)


def hash_sample(ds, id_col: str, fraction: float, salt: int = 0):
    """Deterministic ``fraction`` sample: keep rows whose multiplicative
    hash of ``id_col`` falls below ``floor(fraction * 2^32)``.

    Stateless and shuffle-free; the same (id, salt) always lands on the
    same side, so samples are reproducible across runs, resumable, and
    consistent between tables sharing the id. SQL replay:
    ``((id % 4294967296 + salt) % 4294967296 * 2654435761) % 4294967296
    < floor(fraction * 4294967296)`` in HUGEINT.
    """
    thr = np.uint64(int(fraction * _M32))

    def keep(batch: pa.Table) -> pa.Table:
        ids = batch[id_col].to_numpy(zero_copy_only=False)
        return batch.filter(pa.array(_mix32(ids, salt) < thr))

    return ds.map_batches(keep, batch_format="pyarrow")


def stratified_sample(ds, group_col: str, id_col: str, fractions: dict,
                      default: float = 0.0, salt: int = 0):
    """Per-stratum deterministic sample: a row in group ``g`` survives iff
    its multiplicative id hash falls below ``floor(fractions[g] * 2^32)``
    (``default`` for unlisted groups). Same shuffle-free, parallelism-
    invariant, SQL-replayable arithmetic as :func:`hash_sample`, with a
    per-group threshold looked up vectorized; rows keep their hash side
    across strata re-weightings, so tightening one stratum's fraction
    yields a subset of the previous sample."""
    thr = {k: np.uint64(int(f * _M32)) for k, f in fractions.items()}
    dflt = np.uint64(int(default * _M32))

    def keep(batch: pa.Table) -> pa.Table:
        h = _mix32(batch[id_col].to_numpy(zero_copy_only=False), salt)
        t = batch[group_col].to_pandas().map(thr).fillna(dflt) \
            .to_numpy(np.uint64)
        return batch.filter(pa.array(h < t))

    return ds.map_batches(keep, batch_format="pyarrow")


def _order_key(vals: np.ndarray) -> np.ndarray:
    """Order-preserving bijection float64 → uint64 (IEEE-754 total order
    over finite values): flip all bits of negatives, flip only the sign
    bit of non-negatives."""
    bits = vals.astype(np.float64).view(np.uint64)
    neg = (bits >> np.uint64(63)).astype(bool)
    return np.where(neg, ~bits, bits | np.uint64(1 << 63))


def group_quantile(ds, group_cols, value_col: str, qs,
                   output_cols=None):
    """Exact per-group quantiles of a float64 column, DuckDB
    ``quantile_disc`` semantics: the value at 1-based ascending rank
    ``max(1, ceil(q*n))`` — always an element of the data, so results are
    bit-stable (no interpolation arithmetic).

    Two streaming passes, no row shuffle (see module docstring).
    """
    from ray.data.aggregate import Sum

    group_cols = list(group_cols)
    qs = list(qs)
    output_cols = list(output_cols or [f"q{int(q * 100)}" for q in qs])
    if len(output_cols) != len(qs):
        raise ValueError("output_cols must match qs")

    def bucket_counts(batch: pa.Table) -> pa.Table:
        b = (_order_key(batch[value_col].to_numpy(zero_copy_only=False))
             >> np.uint64(48)).astype(np.int64)
        t = batch.select(group_cols).append_column("__b", pa.array(b))
        t = t.group_by(group_cols + ["__b"]).aggregate([([], "count_all")])
        return t.rename_columns(
            ["__n" if c == "count_all" else c for c in t.column_names])

    hist = (ds.map_batches(bucket_counts, batch_format="pyarrow")
            .groupby(group_cols + ["__b"]).aggregate(Sum("__n"))
            .to_pandas())
    hist = hist.sort_values(group_cols + ["__b"]).reset_index(drop=True)
    hist["__n"] = hist["sum(__n)"]

    # Driver-side plan: per (group, q) → (target bucket, rank inside it).
    # This table is O(groups × occupied buckets) — the REDUCTION, not the
    # data — and the per-group targets dict is tiny.
    targets: dict[tuple, list] = {}
    for gkey, g in hist.groupby(group_cols, sort=False):
        gkey = gkey if isinstance(gkey, tuple) else (gkey,)
        cum = g["__n"].cumsum()
        n = int(cum.iloc[-1])
        plan = []
        for q in qs:
            r = max(1, math.ceil(q * n))
            i = int(np.searchsorted(cum.to_numpy(), r))
            plan.append((int(g["__b"].iloc[i]),
                         r - int(cum.iloc[i - 1]) if i else r))
        targets[gkey] = plan

    wanted_df = pd.DataFrame(
        [gk + (b,) for gk, plan in targets.items() for b, _ in plan],
        columns=group_cols + ["__b"]).drop_duplicates()

    def keep_target(batch: pa.Table) -> pa.Table:
        b = (_order_key(batch[value_col].to_numpy(zero_copy_only=False))
             >> np.uint64(48)).astype(np.int64)
        gdf = batch.select(group_cols).to_pandas()
        gdf["__b"] = b
        # vectorized membership: left merge against the (tiny) target
        # (group, bucket) table preserves left row order
        mask = gdf.merge(wanted_df, how="left", on=group_cols + ["__b"],
                         indicator=True)["_merge"].eq("both").to_numpy()
        return batch.filter(pa.array(mask)).select(
            group_cols + [value_col]).append_column(
                "__b", pa.array(b[mask]))

    def pick(df: pd.DataFrame) -> pd.DataFrame:
        gkey = tuple(df.iloc[0][c] for c in group_cols)
        out = {c: [df.iloc[0][c]] for c in group_cols}
        for (b, rank), col in zip(targets[gkey], output_cols):
            v = df.loc[df["__b"] == b, value_col].to_numpy()
            # rank-select without a full sort (np.partition is O(n))
            out[col] = [float(np.partition(v, rank - 1)[rank - 1])]
        return pd.DataFrame(out)

    return (ds.map_batches(keep_target, batch_format="pyarrow")
            .groupby(group_cols)
            .map_groups(pick, batch_format="pandas"))


def hash_split(ds, id_col: str, fractions: "dict[str, float]",
               salt: int = 0, output_col: str = "split"):
    """Deterministic disjoint train/val/test-style split labels: the
    [0, 2^32) hash line is cut at the cumulative ``fractions`` edges and a
    row's label is the slice its id hash lands in (rows past the last edge
    are dropped, so fractions summing to < 1 subsample). Shuffle-free and
    parallelism-invariant like :func:`hash_sample`, and consistent with
    it: the first slice equals ``hash_sample(fraction=fractions[first])``
    at the same salt, so a split can be carved out of an existing sample
    without rehashing. SQL replay is a CASE over the same HUGEINT hash.
    """
    names = list(fractions)
    edges = np.cumsum([float(fractions[n]) for n in names])
    if not names or edges[-1] > 1.0 + 1e-9:
        raise ValueError("fractions must be non-empty and sum to <= 1")
    thr = np.array([int(e * _M32) for e in edges], np.uint64)
    labels = np.array(names, object)

    def label(batch: pa.Table) -> pa.Table:
        h = _mix32(batch[id_col].to_numpy(zero_copy_only=False), salt)
        idx = np.searchsorted(thr, h, side="right")
        keep = idx < labels.size
        out = batch.filter(pa.array(keep))
        return out.append_column(output_col, pa.array(
            labels[idx[keep]].tolist(), pa.string()))

    return ds.map_batches(label, batch_format="pyarrow")


def pack_sequences(ds, id_col: str, size_col: str, budget: int,
                   salt: int = 0, num_parts: int | None = None):
    """Concat-and-chunk sequence packing: lay documents end to end in a
    deterministic pseudo-random order (the multiplicative id hash — a
    bijection on [0, 2^32), so the order is total, shuffle-quality, and
    replayable as ``ORDER BY h`` in SQL) and assign each one the training
    bin ``start_offset // budget`` it starts in.

    Distributed as a two-pass prefix sum instead of a global sort: the
    hash is range-bucketed order-preservingly (``(h * P) >> 32``), so
    bucket order IS hash order; pass A reduces each bucket to one token
    total (tiny, collected to the driver for an exclusive scan); pass B is
    one coarse groupby where each bucket adds its driver-computed offset
    to a local cumsum. The only data crossing the exchange is the reduced
    (id, size) table — document text never moves.

    → (id_col, size_col, start_off, bin_id).
    """
    from lucene_msmarco_ray.ops import fold

    P = int(num_parts) if num_parts is not None else fold.coarse_parts()

    def keyed(batch: pa.Table) -> pa.Table:
        ids = batch[id_col].to_numpy(zero_copy_only=False)
        h = _mix32(ids, salt)
        part = ((h * np.uint64(P)) >> np.uint64(32)).astype(np.int64)
        return pa.table({id_col: pa.array(ids.astype(np.int64)),
                         size_col: batch[size_col].cast(pa.int64()),
                         "__h": pa.array(h),
                         "__part": pa.array(part)})

    # materialized on purpose: the reduced 4-int64-column table is read
    # twice (pass A totals, pass B packing) — re-running the upstream
    # tokenize to save ~32 B/doc of object store would cost a full pass
    cnt = ds.map_batches(keyed, batch_format="pyarrow").materialize()

    def part_sums(batch: pa.Table) -> pa.Table:
        t = batch.select(["__part", size_col]).group_by("__part") \
            .aggregate([(size_col, "sum")])
        return pa.table({"__part": t["__part"],
                         "__total": t[f"{size_col}_sum"]})

    partials = cnt.map_batches(part_sums, batch_format="pyarrow") \
        .to_pandas()
    totals = partials.groupby("__part")["__total"].sum().sort_index()
    offs = dict(zip(
        totals.index.to_numpy(np.int64),
        np.concatenate(([0], np.cumsum(totals.to_numpy(np.int64))[:-1]))))

    def pack(df: pd.DataFrame) -> pd.DataFrame:
        base = offs[int(df["__part"].iloc[0])]
        df = df.sort_values("__h", kind="mergesort")
        sizes = df[size_col].to_numpy(np.int64)
        start = base + np.concatenate(([0], np.cumsum(sizes)[:-1]))
        return pd.DataFrame({id_col: df[id_col].to_numpy(np.int64),
                             size_col: sizes,
                             "start_off": start,
                             "bin_id": start // np.int64(budget)})

    pack.__name__ = "pack"
    return cnt.groupby("__part").map_groups(pack, batch_format="pandas")


def approx_distinct(ds, group_cols, value_col: str, k: int = 1024,
                    output_col: str = "n_distinct_est"):
    """Per-group approximate COUNT(DISTINCT) via a K-Minimum-Values
    sketch — the classic mergeable distinct-count sketch (Bar-Yossef et
    al. 2002): keep the ``k`` smallest 32-bit value hashes per group;
    if fewer than ``k`` distinct hashes exist the count is exact,
    otherwise estimate ``(k-1) * 2^32 // h_k`` (integer floor — the
    arithmetic is bit-replayable in SQL, no float drift).

    Scale shape: each batch contributes at most ``k`` hashes per group to
    the exchange, so the shuffle moves O(k · groups · blocks) small ints
    no matter how many rows the input has — the sketch property that
    makes a 100 TB COUNT(DISTINCT) a bounded reduction. Within ~1/sqrt(k)
    relative error; use :func:`group_distinct_count` when exactness is
    required and the (group, value) exchange is affordable.

    ``value_col`` must be integral (the multiplicative hash and its SQL
    HUGEINT replay are defined on integers).
    """
    group_cols = list(group_cols)

    def partial(batch: pa.Table) -> pa.Table:
        df = batch.select(group_cols + [value_col]).to_pandas()
        df["__h"] = _mix32(df.pop(value_col).to_numpy(), 0)
        df = df.drop_duplicates()
        # per-group k smallest hashes without a full sort
        df = df.sort_values("__h", kind="mergesort") \
            .groupby(group_cols, sort=False).head(k)
        return pa.Table.from_pandas(df, preserve_index=False)

    def estimate(g: pd.DataFrame) -> pd.DataFrame:
        h = np.unique(g["__h"].to_numpy(np.uint64))
        if h.size < k:
            est = np.int64(h.size)
        else:
            est = np.int64((np.uint64(k - 1) * np.uint64(_M32))
                           // h[k - 1])
        out = {c: [g[c].iloc[0]] for c in group_cols}
        out[output_col] = [est]
        return pd.DataFrame(out)

    estimate.__name__ = "estimate"
    return (ds.map_batches(partial, batch_format="pyarrow")
            .groupby(group_cols)
            .map_groups(estimate, batch_format="pandas"))


def sample_n(ds, id_col: str, n: int, salt: int = 0):
    """Deterministic EXACT-size global sample: the ``n`` rows whose id
    hash is smallest (the hash is a bijection on [0, 2^32), so the
    cutoff is unambiguous and the result is parallelism-invariant).
    Unlike :func:`hash_sample` the output size is exact, not binomial —
    'give me exactly 10k held-out docs' — and the sample NESTS: the
    n' < n sample is a prefix of the n sample at the same salt. SQL
    replay: ``ORDER BY hash LIMIT n``.

    Each block contributes at most ``n`` candidate rows to one final
    reduce task — fine for sample sizes that fit one worker's memory
    (the intended regime; a 100 TB input still ships only
    O(n · blocks) candidate rows)."""

    def partial(batch: pa.Table) -> pa.Table:
        h = _mix32(batch[id_col].to_numpy(zero_copy_only=False), salt)
        if h.size > n:
            keep = np.argpartition(h, n - 1)[:n]
            batch, h = batch.take(pa.array(keep)), h[keep]
        return batch.append_column("__h", pa.array(h))

    def final(batch: pa.Table) -> pa.Table:
        h = batch["__h"].to_numpy(zero_copy_only=False)
        order = np.argsort(h, kind="stable")[:n]
        return batch.take(pa.array(order)).drop_columns(["__h"])

    # single bounded reduce: every block's ≤ n candidates to one task
    return (ds.map_batches(partial, batch_format="pyarrow")
            .repartition(1)
            .map_batches(final, batch_format="pyarrow",
                         batch_size=None))


def rrf_fuse(runs, k_rrf: int = 60, group_col: str = "qid",
             item_col: str = "doc_id", rank_col: str = "rank",
             topk: int | None = None):
    """Reciprocal-rank fusion of N ranked lists (Cormack/Clarke/Büttcher
    2009) → (group, item, rrf_micro, n_runs, rank).

    Each run contributes ``10^12 // (k_rrf + rank)`` — PURE int64 floor
    division, so the fused score is an exact integer sum, bit-stable under
    any partitioning/summation order and replayable in SQL as
    ``sum(1000000000000 // (60 + rank))``. One groupby exchange moves only
    (group, item, contribution) rows; the final per-group ranking reuses
    the partial-top-k combiner (:func:`topk_per_group`) so at most
    ``topk`` rows per group per block cross the second exchange.

    ``runs``: list of Datasets each holding (group_col, item_col,
    rank_col) with 1-based ranks."""
    big = np.int64(10 ** 12)

    def contrib(batch: pa.Table) -> pa.Table:
        r = batch[rank_col].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table({
            group_col: batch[group_col],
            item_col: batch[item_col].cast(pa.int64()),
            "m": pa.array(big // (k_rrf + r)),
            "n": pa.array(np.ones(len(r), np.int64)),
        })

    parts = [r.map_batches(contrib, batch_format="pyarrow") for r in runs]
    unioned = parts[0].union(*parts[1:]) if len(parts) > 1 else parts[0]
    # coarse fold, not groupby().aggregate(): (group, item) cardinality is
    # run-sized (ops/fold.py, 15.7x measured at corpus-scale keys)
    from .fold import coarse_group_agg
    fused = coarse_group_agg(
        unioned, [group_col, item_col],
        [("rrf_micro", "m", "sum"), ("n_runs", "n", "sum")])
    if topk is None:
        return fused
    return topk_per_group(fused, [group_col], "rrf_micro", topk,
                          descending=True, tie_cols=[item_col])


def group_zscore(ds, group_cols, value_col: str, out_col: str = "zscore"):
    """Per-group z-score feature normalization → input rows +
    ``(group_mean, group_std, zscore)`` (population std; groups with zero
    variance emit z = 0).

    Two passes, no row shuffle: pass A pre-aggregates each batch to one
    (group, n, Σcents, Σcents²) row — exact int64 fixed-point hundredths,
    so the folded moments are bit-stable under any partitioning and the
    SQL oracle replays them — then the (tiny) per-group moment table
    broadcasts once and pass B is a stateless map. mean/std/z round via
    the explicit floor(x·1e6+0.5)/1e6 convention shared with the LM ops.

    Exactness bound: Σcents² must fit int64, i.e. rows_per_group ×
    (100·max|value|)² < 2^63 — e.g. 10^9 rows of values up to ~30k. For
    larger magnitudes pre-scale the column (z-scores are scale-invariant)
    or extend the moment to a two-limb (hi, lo) int64 pair."""
    import ray
    from ray.data.aggregate import Sum

    group_cols = list(group_cols)

    def moments(batch: pa.Table) -> pa.Table:
        df = batch.select(group_cols + [value_col]).to_pandas()
        cents = np.floor(df[value_col].to_numpy(np.float64) * 100.0 + 0.5) \
            .astype(np.int64)
        df = df.assign(__c=cents, __c2=cents * cents, __n=1)
        agg = df.groupby(group_cols, sort=False).agg(
            n=("__n", "sum"), s=("__c", "sum"), s2=("__c2", "sum")) \
            .reset_index()
        return pa.Table.from_pandas(agg, preserve_index=False)

    mom = (ds.map_batches(moments, batch_format="pyarrow")
           .groupby(group_cols)
           .aggregate(Sum("n"), Sum("s"), Sum("s2")).to_pandas())
    # key on the raw value TUPLE — a '|'-joined string collides when group
    # values themselves contain '|' (('a|b','c') vs ('a','b|c')). NaN group
    # values canonicalize to None: every float('nan') is a DISTINCT dict
    # key (nan != nan, id-based hash), so raw-NaN tuples would never match
    # between the broadcast build and the per-batch lookup

    def _canon(rows):
        return [tuple(None if isinstance(v, float) and v != v else v
                      for v in r) for r in rows]

    key = _canon(mom[group_cols].itertuples(index=False, name=None))
    n = mom["sum(n)"].to_numpy(np.float64)
    s = mom["sum(s)"].to_numpy(np.float64)
    s2 = mom["sum(s2)"].to_numpy(np.float64)
    mean = s / n / 100.0
    var = (s2 / n - (s / n) * (s / n)) / 10000.0
    std = np.sqrt(np.maximum(var, 0.0))
    bref = ray.put({k: (m, sd) for k, m, sd in zip(key, mean, std)})

    def apply(batch: pa.Table) -> pa.Table:
        import pandas as pd
        table = ray.get(bref)
        df = batch.to_pandas()
        k = _canon(df[group_cols].itertuples(index=False, name=None))
        ms = np.array([table[v] for v in k], np.float64)
        v = df[value_col].to_numpy(np.float64)
        z = np.where(ms[:, 1] > 0, (v - ms[:, 0]) / np.where(
            ms[:, 1] > 0, ms[:, 1], 1.0), 0.0)
        r6 = lambda x: np.floor(x * 1e6 + 0.5) / 1e6
        out = batch.append_column("group_mean", pa.array(r6(ms[:, 0])))
        out = out.append_column("group_std", pa.array(r6(ms[:, 1])))
        return out.append_column(out_col, pa.array(r6(z)))

    return ds.map_batches(apply, batch_format="pyarrow")


def take_token_budget(ds, budget: int, id_col: str = "doc_id",
                      size_col: str = "n_tokens", salt: int = 0,
                      num_parts: int | None = None):
    """Deterministically fill a training-token budget: lay documents out
    in the same shuffle-quality multiplicative-hash order as
    :func:`pack_sequences` and keep exactly the prefix of WHOLE documents
    that fits (``start_off + size <= budget``) → (id_col, size_col,
    start_off). The "select 10B tokens for this run" primitive: the same
    corpus + salt always yields the same subset, a bigger budget yields a
    strict superset, and changing ``salt`` draws a fresh deterministic
    sample.

    Scale shape inherits pack_sequences' two-pass distributed prefix sum
    — only the reduced (id, size) table crosses an exchange; the filter
    is a stateless map over the packed offsets."""
    packed = pack_sequences(ds, id_col, size_col, budget=int(budget),
                            salt=salt, num_parts=num_parts)
    b = int(budget)

    def keep(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc
        fits = pc.less_equal(
            pc.add(batch["start_off"], batch[size_col].cast(pa.int64())),
            b)
        return batch.filter(fits).select([id_col, size_col, "start_off"])

    return packed.map_batches(keep, batch_format="pyarrow")
