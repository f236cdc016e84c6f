"""Bucketed vocab-join fallback for the textstats LM/tf-idf family.

The broadcast paths in :mod:`.textstats` ship the REDUCED (term -> int64
micro-stat) table to every scoring actor via ``ray.put`` — the right call
while the vocabulary fits a node, and the wrong one on corpora (source
code, web junk) whose token vocabulary is effectively unbounded. This
module is the detect-and-switch escape hatch those ops flip to when the
reduced vocab row count crosses ``MAX_BROADCAST_VOCAB``: the vocab STAYS
a distributed Dataset and scoring becomes a bucketed hash join, the same
shape :mod:`.join` uses for large×large equi-joins.

Exactness contract: outputs are bit-identical to the broadcast path.
All per-unit stats are int64 micro-nats, per-doc sums are exact integer
folds (order-independent under any bucketing), and empty documents ride
sentinel rows (key ``""``, tf 0 — whitespace tokenization can never
produce an empty token) so they survive the join that would otherwise
drop them.

Scale shape per call: ONE coarse key fold (:func:`.fold.partition_fold`)
over the batch-locally pre-aggregated (doc_id, key, tf) unit stream + ONE
doc_id fold over per-(doc, partition) partial sums. No side is ever
materialized on the driver or broadcast whole; a partition task holds
1/:func:`~.fold.coarse_parts` of the vocab plus its matching unit rows.

Alignment note (mirrors ops/join.py's round-2 lesson): the two union
sides are zero-FILLED, not null-padded, into one int64 schema — pandas
would promote a nullable int64 column to float64 and silently truncate
doc ids / micro values past 2^53.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from .fold import partition_fold

#: broadcast-vs-join switch point for the reduced vocabulary, in rows.
#: 4M (term, int64) entries is ~a few hundred MB as a per-actor pandas
#: hash index — comfortably inside one worker's heap; beyond it the
#: textstats family flips to the bucketed join in this module.
MAX_BROADCAST_VOCAB = 4_000_000

_UNIT_SCHEMA = pa.schema([
    pa.field("__side", pa.int8()),
    pa.field("key", pa.string()),
    pa.field("doc_id", pa.int64()),
    pa.field("tf", pa.int64()),
    pa.field("micro", pa.int64()),
])


def _tag_units(units):
    """(doc_id, key, tf) -> aligned union rows, side 0, micro zero-fill."""
    def f(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        zeros = pa.array(np.zeros(n, np.int64))
        return pa.Table.from_arrays([
            pa.array(np.zeros(n, np.int8)),
            batch["key"].cast(pa.string()),
            batch["doc_id"].cast(pa.int64()),
            batch["tf"].cast(pa.int64()),
            zeros,
        ], schema=_UNIT_SCHEMA)
    f.__name__ = "tag_units"
    return units.map_batches(f, batch_format="pyarrow")


def _tag_vocab(vocab):
    """(key, micro) -> aligned union rows, side 1, doc/tf zero-fill."""
    def f(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        zeros = pa.array(np.zeros(n, np.int64))
        return pa.Table.from_arrays([
            pa.array(np.ones(n, np.int8)),
            batch["key"].cast(pa.string()),
            zeros,
            zeros,
            batch["micro"].cast(pa.int64()),
        ], schema=_UNIT_SCHEMA)
    f.__name__ = "tag_vocab"
    return vocab.map_batches(f, batch_format="pyarrow")


def _resolve_in_partition(g: pd.DataFrame, default_micro: int):
    """Split one partition's union rows and look units up in its vocab
    slice. A key absent from THIS partition's vocab is absent globally
    (both sides partition by the same key hash), so ``default_micro`` is
    the correct global out-of-vocabulary value."""
    side = g["__side"].to_numpy()
    vm = g[side == 1]
    um = g[side == 0]
    if not len(um):
        return None, None
    pos = pd.Index(vm["key"]).get_indexer(um["key"])
    micro = np.where(
        pos >= 0,
        vm["micro"].to_numpy(np.int64)[np.clip(pos, 0, None)]
        if len(vm) else np.int64(0),
        np.int64(default_micro))
    return um, micro


def bucketed_micro_sum(units, vocab, default_micro: int):
    """Exact per-doc ``(s = Σ tf·micro(key), n = Σ tf)`` via a bucketed
    join — the huge-vocab twin of the broadcast ``_LmScoreStage`` path.

    ``units``: Dataset (doc_id int64, key string, tf int64), batch-locally
    pre-aggregated, with a (key="", tf=0) sentinel per empty doc.
    ``vocab``: Dataset (key string, micro int64). Keys absent from
    ``vocab`` cost ``default_micro`` each. Returns (doc_id, s, n).

    The final per-doc fold is a second :func:`~.fold.partition_fold`, on
    doc_id, with one vectorized pandas groupby-sum per partition — NOT ``groupby(doc_id).aggregate(Sum)``: Ray's aggregate
    merges combined blocks row-by-row in Python, which is O(corpus)
    Python at doc-id cardinality (measured: the aggregate version sat
    >25 min in its reduce at 500k docs / 50M unit rows while every other
    stage of this pipeline finished in seconds; the coarse fold is the
    same exchange volume at C speed)."""
    both = [_tag_units(units), _tag_vocab(vocab)]

    def partial_sums(g: pd.DataFrame) -> pd.DataFrame:
        um, micro = _resolve_in_partition(g, default_micro)
        if um is None:
            return pd.DataFrame({"doc_id": np.empty(0, np.int64),
                                 "s_part": np.empty(0, np.int64),
                                 "n_part": np.empty(0, np.int64)})
        tf = um["tf"].to_numpy(np.int64)
        out = pd.DataFrame({"doc_id": um["doc_id"].to_numpy(np.int64),
                            "s_part": tf * micro, "n_part": tf})
        return out.groupby("doc_id", sort=False, as_index=False).sum()

    def final_sums(g: pd.DataFrame) -> pd.DataFrame:
        out = g.groupby("doc_id", sort=False, as_index=False)[
            ["s_part", "n_part"]].sum()
        return out.rename(columns={"s_part": "s", "n_part": "n"})

    red = partition_fold(partition_fold(both, "key", partial_sums),
                         "doc_id", final_sums)

    def cast(batch: pa.Table) -> pa.Table:
        return pa.table({"doc_id": batch["doc_id"].cast(pa.int64()),
                         "s": batch["s"].cast(pa.int64()),
                         "n": batch["n"].cast(pa.int64())})
    return red.map_batches(cast, batch_format="pyarrow")


def resolve_micro(units, vocab, default_micro: int = 0):
    """Per-unit resolve: (doc_id, key, tf) × (key, micro) -> (doc_id,
    key, tf, micro) rows — for consumers that need the joined rows
    themselves (tf-idf top-k) rather than per-doc sums. Same one-key-fold
    shape; unmatched keys get ``default_micro``."""
    both = [_tag_units(units), _tag_vocab(vocab)]

    def resolve(g: pd.DataFrame) -> pd.DataFrame:
        um, micro = _resolve_in_partition(g, default_micro)
        if um is None:
            return pd.DataFrame({
                "doc_id": np.empty(0, np.int64),
                "key": pd.array([], dtype=object),
                "tf": np.empty(0, np.int64),
                "micro": np.empty(0, np.int64)})
        return pd.DataFrame({"doc_id": um["doc_id"].to_numpy(np.int64),
                             "key": um["key"].to_numpy(object),
                             "tf": um["tf"].to_numpy(np.int64),
                             "micro": micro.astype(np.int64)})

    return partition_fold(both, "key", resolve)


def vocab_diff(src, tgt, tgt_oov_micro: int):
    """Distributed DSIR fold: for every SOURCE-vocab key emit
    ``micro = tgt_micro(key) − src_micro(key)``, with source keys absent
    from the target costing its ``tgt_oov_micro`` floor — the huge-vocab
    twin of the driver-side reindex in ``importance_weights``. Both
    inputs are (key, micro) Datasets; output is the same shape."""
    # reuse the unit tagger for the target so the two sides carry
    # distinct side ids; the target's micro rides the tf slot
    both = [_tag_vocab(src), _retag_as_units(tgt)]

    def fold(g: pd.DataFrame) -> pd.DataFrame:
        side = g["__side"].to_numpy()
        sv = g[side == 1]
        tv = g[side == 0]
        if not len(sv):
            return pd.DataFrame({"key": pd.array([], dtype=object),
                                 "micro": np.empty(0, np.int64)})
        pos = pd.Index(tv["key"]).get_indexer(sv["key"])
        tgt_m = np.where(
            pos >= 0,
            tv["tf"].to_numpy(np.int64)[np.clip(pos, 0, None)]
            if len(tv) else np.int64(0),
            np.int64(tgt_oov_micro))
        return pd.DataFrame({
            "key": sv["key"].to_numpy(object),
            "micro": tgt_m - sv["micro"].to_numpy(np.int64)})

    return partition_fold(both, "key", fold)


def _retag_as_units(vocab):
    """Tag a (key, micro) table as side 0 with micro in the tf slot —
    lets ``vocab_diff`` distinguish its two vocab inputs in one union."""
    def f(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        zeros = pa.array(np.zeros(n, np.int64))
        return pa.Table.from_arrays([
            pa.array(np.zeros(n, np.int8)),
            batch["key"].cast(pa.string()),
            zeros,
            batch["micro"].cast(pa.int64()),
            zeros,
        ], schema=_UNIT_SCHEMA)
    f.__name__ = "tag_tgt_vocab"
    return vocab.map_batches(f, batch_format="pyarrow")


def lookup_micro(rows, key_col: str, vocab, out_col: str = "micro",
                 default_micro: int = 0,
                 rows_schema: pa.Schema | None = None):
    """Generic broadcast-free lookup join: append ``vocab``'s int64
    ``micro`` value for ``rows[key_col]`` to every row of ``rows``
    (``default_micro`` on a miss) through ONE coarse key fold —
    the large-table twin of a ``ray.put`` dict broadcast, for lookups
    whose table can outgrow a worker heap (the two-level bigram-LM
    path resolves per-pair c(w1) and c(w2) with two of these).

    ``rows`` may carry any mix of string / large_string / integer /
    float columns (both union sides are zero-filled into one explicit
    schema — same no-null-padding rule as the unit path above);
    ``key_col`` must be a string column. ``vocab`` is (key string,
    micro int64). Output: ``rows``' columns plus ``out_col`` (int64),
    row order arbitrary. Each partition task holds a
    1/:func:`~.fold.coarse_parts` slice of the vocab plus its matching
    rows — neither side is ever whole anywhere.
    Pass ``rows_schema`` when it is statically known — ``.schema()`` on
    a lazy plan may otherwise trigger a partial execution just to infer
    it.
    """
    base = rows_schema if rows_schema is not None \
        else rows.schema().base_schema
    names = list(base.names)
    if out_col in names:
        raise ValueError(f"rows already has a {out_col!r} column")
    fields = [pa.field("__side", pa.int8())]
    fields += [base.field(n) for n in names]
    fields.append(pa.field("__lkm", pa.int64()))
    schema = pa.schema(fields)
    # every partition emits this declared schema: a zero-row pandas frame
    # would reach Arrow with null-typed string columns
    out_schema = pa.schema([base.field(n) for n in names]
                           + [pa.field(out_col, pa.int64())])

    def _pad(n: int, typ: pa.DataType) -> pa.Array:
        if pa.types.is_string(typ) or pa.types.is_large_string(typ):
            return pa.array(np.full(n, "", object), typ)
        return pa.array(np.zeros(n, np.int64)).cast(typ)

    def tag_rows(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        cols = [pa.array(np.zeros(n, np.int8))]
        cols += [batch[c].combine_chunks() for c in names]
        cols.append(pa.array(np.zeros(n, np.int64)))
        return pa.Table.from_arrays(cols, schema=schema)

    def tag_lookup(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        cols = [pa.array(np.ones(n, np.int8))]
        for c in names:
            if c == key_col:
                cols.append(batch["key"].cast(base.field(c).type))
            else:
                cols.append(_pad(n, base.field(c).type))
        cols.append(batch["micro"].cast(pa.int64()))
        return pa.Table.from_arrays(cols, schema=schema)

    both = [rows.map_batches(tag_rows, batch_format="pyarrow"),
            vocab.map_batches(tag_lookup, batch_format="pyarrow")]

    def resolve(g: pd.DataFrame) -> pa.Table:
        side = g["__side"].to_numpy()
        vm = g[side == 1]
        rm = g[side == 0]
        if not len(rm):
            return out_schema.empty_table()
        pos = pd.Index(vm[key_col]).get_indexer(rm[key_col])
        micro = np.where(
            pos >= 0,
            vm["__lkm"].to_numpy(np.int64)[np.clip(pos, 0, None)]
            if len(vm) else np.int64(0),
            np.int64(default_micro))
        out = rm[names].copy()
        out[out_col] = micro.astype(np.int64)
        return pa.Table.from_pandas(out, schema=out_schema,
                                    preserve_index=False)

    return partition_fold(both, key_col, resolve)
