"""Event-stream operators (beyond-reference; prompt §custom-operators:
"windowed aggregate" / sessionization over the testdata ``events`` table).

* sessionize — gap-based sessions per user: consecutive events of a user
  belong to one session while the inter-event gap is ≤ ``gap_seconds``.
  Expressed as a composition (the prompt's option (a)): one coarse
  int-keyed exchange co-locates each user's events (``fold.partition_fold``
  on user_id — users are numerous and small, so partitions batch many
  users and the session detection is ONE vectorized pass per partition),
  no per-user pandas groups.
* windowed_agg — tumbling time windows per event type: a pure
  pre-aggregated groupby (window id computed in the map stage; the shuffle
  moves only (type, window, partial) rows).

Partitioning assumptions (documented per the prompt): sessionize requires
each user's events co-located (hash on user_id — skew means one hot user
lands in one partition; ``hot_user_events`` bounds are ENFORCED by
detection + logging in ``check_hot_users``, since gap sessions cannot be
split across partitions without a boundary-merge pass); windowed_agg has no
co-location requirement at all.
"""

from __future__ import annotations

import logging

import numpy as np
import pandas as pd
import pyarrow as pa

from .fold import coarse_group_agg, partition_fold

logger = logging.getLogger(__name__)


def check_hot_users(user_ids: np.ndarray, counts: np.ndarray,
                    threshold: int, op: str = "sessionize") -> list[tuple[int, int]]:
    """Users whose event count exceeds ``threshold`` — the sessionize skew
    bound. Gap-based sessions need ALL of a user's events co-located, so a
    hot user cannot be sub-partitioned without a boundary-merge pass; the
    enforced mitigation is detection + logging (the caller sizes
    ``hot_user_events`` to what one task's heap can sort)."""
    hot = np.flatnonzero(counts > threshold)
    out = [(int(user_ids[i]), int(counts[i])) for i in hot]
    for uid, n in out:
        logger.warning(
            "%s: user %d has %d events (> hot_user_events=%d); "
            "this partition's sort is bounded by that user — consider "
            "pre-splitting the user upstream or raising the bound", op,
            uid, n, threshold)
    return out


def _ts_us(col) -> np.ndarray:
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    if pa.types.is_timestamp(col.type):
        col = col.cast(pa.timestamp("us"))    # normalize unit before int cast
    return col.cast(pa.int64()).to_numpy(zero_copy_only=False)


def sessionize(ds, gap_seconds: int = 1800, user_col: str = "user_id",
               ts_col: str = "ts", value_col: str = "value",
               id_col: str = "event_id", hot_user_events: int = 5_000_000):
    """→ (user_id, session_id, n_events, start_us, end_us, total_value).

    session_id is the user's 0-based session ordinal by time; event order
    within equal timestamps breaks on event_id (deterministic, matches the
    SQL oracle's window ORDER BY ts, event_id)."""
    gap_us = int(gap_seconds) * 1_000_000

    def event_rows(batch: pa.Table) -> pa.Table:
        return pa.table({
            "user_id": batch[user_col].cast(pa.int64()),
            "ts_us": pa.array(_ts_us(batch[ts_col])),
            "event_id": batch[id_col].cast(pa.int64()),
            "value": batch[value_col].cast(pa.float64()),
        })

    def sessions(g: pd.DataFrame) -> pd.DataFrame:
        u = g["user_id"].to_numpy()
        ts = g["ts_us"].to_numpy()
        eid = g["event_id"].to_numpy()
        val = g["value"].to_numpy()
        order = np.lexsort((eid, ts, u))
        u, ts, eid, val = u[order], ts[order], eid[order], val[order]
        new_user = np.concatenate(([True], u[1:] != u[:-1]))
        gap = np.concatenate(([0], ts[1:] - ts[:-1]))
        new_sess = new_user | (gap > gap_us)
        sid_global = np.cumsum(new_sess) - 1          # global session index
        # per-user ordinal: subtract the user's first global session index
        ustarts = np.flatnonzero(new_user)
        ulens = np.diff(np.concatenate((ustarts, [u.size])))
        check_hot_users(u[ustarts], ulens, hot_user_events)
        sid = sid_global - np.repeat(sid_global[ustarts], ulens)
        starts = np.flatnonzero(new_sess)
        sizes = np.diff(np.concatenate((starts, [u.size])))
        return pd.DataFrame({
            "user_id": u[starts],
            "session_id": sid[starts].astype(np.int64),
            "n_events": sizes.astype(np.int64),
            "start_us": ts[starts],
            "end_us": ts[starts + sizes - 1],
            "total_value": np.round(np.add.reduceat(val, starts), 6),
        })

    sessions.__name__ = "sessionize"
    return partition_fold(ds.map_batches(event_rows, batch_format="pyarrow"),
                          "user_id", sessions)


def sessionize_chunked(ds, gap_seconds: int = 1800,
                       chunk_seconds: int = 86_400,
                       user_col: str = "user_id", ts_col: str = "ts",
                       value_col: str = "value"):
    """Skew-proof sessionize: identical output to :func:`sessionize`, but no
    partition ever holds more than one (user, time-chunk) of events — the
    scale path for hot users that plain sessionize can only detect and log.

    Two-level composition:

    1. events partition on hash(user, ts // chunk) → per-chunk sessions
       (same vectorized gap pass, additionally split at chunk boundaries);
       the shuffle unit is bounded by one user's events per ``chunk_seconds``
       regardless of total skew.
    2. the per-chunk session summaries (≪ events: one row per session
       fragment) shuffle once on hash(user); consecutive fragments of a user
       merge when the inter-fragment gap ≤ ``gap_seconds`` — exactly the
       global gap rule, since fragments are time-disjoint and within-chunk
       splits already honored it.

    Partitioning assumption: one user's events within one chunk fit a task
    (bound = rate × chunk_seconds; lower ``chunk_seconds`` for hotter
    streams). No assumption on events per user overall."""
    gap_us = int(gap_seconds) * 1_000_000
    chunk_us = int(chunk_seconds) * 1_000_000

    def chunk_rows(batch: pa.Table) -> pa.Table:
        ts = _ts_us(batch[ts_col])
        return pa.table({
            "user_id": batch[user_col].cast(pa.int64()),
            "chunk": pa.array(ts // chunk_us),
            "ts_us": pa.array(ts),
            "value": batch[value_col].cast(pa.float64()),
        })

    def chunk_sessions(g: pd.DataFrame) -> pd.DataFrame:
        u = g["user_id"].to_numpy()
        c = g["chunk"].to_numpy()
        ts = g["ts_us"].to_numpy()
        val = g["value"].to_numpy()
        order = np.lexsort((ts, c, u))
        u, c, ts, val = u[order], c[order], ts[order], val[order]
        new_grp = np.concatenate(
            ([True], (u[1:] != u[:-1]) | (c[1:] != c[:-1])))
        gap = np.concatenate(([0], ts[1:] - ts[:-1]))
        new_sess = new_grp | (gap > gap_us)
        starts = np.flatnonzero(new_sess)
        sizes = np.diff(np.concatenate((starts, [u.size])))
        return pd.DataFrame({
            "user_id": u[starts],
            "n_events": sizes.astype(np.int64),
            "start_us": ts[starts],
            "end_us": ts[starts + sizes - 1],
            "total_value": np.add.reduceat(val, starts),
        })

    def merge_fragments(g: pd.DataFrame) -> pd.DataFrame:
        u = g["user_id"].to_numpy()
        s = g["start_us"].to_numpy()
        e = g["end_us"].to_numpy()
        n = g["n_events"].to_numpy()
        v = g["total_value"].to_numpy()
        order = np.lexsort((s, u))
        u, s, e, n, v = u[order], s[order], e[order], n[order], v[order]
        new_user = np.concatenate(([True], u[1:] != u[:-1]))
        # fragments are time-disjoint per user, so e is nondecreasing within
        # a user and the inter-fragment gap is next.start - prev.end
        gap = np.concatenate(([0], s[1:] - e[:-1]))
        new_sess = new_user | (gap > gap_us)
        starts = np.flatnonzero(new_sess)
        sizes = np.diff(np.concatenate((starts, [u.size])))
        sid_global = np.cumsum(new_sess) - 1
        ustarts = np.flatnonzero(new_user)
        ulens = np.diff(np.concatenate((ustarts, [u.size])))
        sid = sid_global - np.repeat(sid_global[ustarts], ulens)
        return pd.DataFrame({
            "user_id": u[starts],
            "session_id": sid[starts].astype(np.int64),
            "n_events": np.add.reduceat(n, starts).astype(np.int64),
            "start_us": s[starts],
            "end_us": e[starts + sizes - 1],
            "total_value": np.round(np.add.reduceat(v, starts), 6),
        })

    chunk_sessions.__name__ = "sessionize_chunks"
    merge_fragments.__name__ = "merge_session_fragments"
    frags = partition_fold(ds.map_batches(chunk_rows, batch_format="pyarrow"),
                           ["user_id", "chunk"], chunk_sessions)
    return partition_fold(frags, "user_id", merge_fragments)


def asof_join(left_ds, right_ds, by_col: str, ts_col: str,
              right_cols: dict[str, str], left_cols: list[str],
              left_schema: pa.Schema | None = None,
              right_schema: pa.Schema | None = None):
    """Backward as-of join (prompt §custom-operators): for every left row,
    the LATEST right row of the same ``by_col`` with right.ts <= left.ts.

    Composition: both sides align under one Arrow schema (typed nulls for
    the other side's fields, same discipline as ops.join), ONE coarse
    int-keyed exchange co-locates each by-key's rows, and each partition
    runs pandas ``merge_asof`` (C kernel) over its many keys at once.
    Tie discipline: among right rows sharing the exact timestamp, the one
    latest in (ts, original order) wins — deterministic, matching DuckDB's
    ASOF JOIN on the gate data (exact-tie ambiguity is noted; synthetic
    microsecond timestamps make collisions measure-zero).

    ``right_cols``: {right column → output name}; ``left_cols``: left
    columns to carry through. Unmatched left rows keep nulls.

    Pass ``left_schema``/``right_schema`` (e.g. from parquet metadata) when
    the inputs are transformed datasets — ``ds.schema()`` on those executes
    a hidden limit-1 job per side just to learn the dtypes."""
    out_right = list(right_cols.values())
    lschema = (left_schema if left_schema is not None
               else left_ds.schema().base_schema)
    rschema = (right_schema if right_schema is not None
               else right_ds.schema().base_schema)

    fields = [pa.field(by_col, pa.int64()), pa.field("__ts", pa.int64()),
              pa.field("__side", pa.int8())]
    fields += [pa.field(c, lschema.field(c).type) for c in left_cols]
    fields += [pa.field(o, rschema.field(c).type)
               for c, o in right_cols.items()]
    target = pa.schema(fields)

    def align(side: int, colmap: dict[str, str]):
        def f(batch: pa.Table) -> pa.Table:
            n = batch.num_rows
            inv = {v: k for k, v in colmap.items()}
            cols = []
            for field in target:
                if field.name == by_col:
                    cols.append(batch[by_col].cast(pa.int64()))
                elif field.name == "__ts":
                    cols.append(pa.array(_ts_us(batch[ts_col])))
                elif field.name == "__side":
                    cols.append(pa.array(np.full(n, side, np.int8)))
                elif side == 0 and field.name in left_cols:
                    cols.append(batch[field.name].cast(field.type))
                elif side == 1 and field.name in inv:
                    cols.append(batch[inv[field.name]].cast(field.type))
                else:
                    cols.append(pa.nulls(n, type=field.type))
            return pa.Table.from_arrays(cols, schema=target)
        f.__name__ = f"asof_side{side}"
        return f

    lds = left_ds.map_batches(align(0, {}), batch_format="pyarrow")
    rds = right_ds.map_batches(align(1, right_cols), batch_format="pyarrow")

    # Declared output schema: merge_asof runs in pandas, where unmatched
    # left rows put NaN into right-side int columns and widen them to
    # float64 (partition-dependent dtypes → schema-unstable blocks). Every
    # partition therefore rebuilds its output against THIS schema, with
    # NaN→null (same typed-null discipline as ops.join.bucketed_hash_join).
    out_fields = [pa.field(by_col, pa.int64())]
    out_fields += [pa.field(c, lschema.field(c).type) for c in left_cols]
    out_fields += [pa.field(o, rschema.field(c).type)
                   for c, o in right_cols.items()]
    out_schema = pa.schema(out_fields)

    def join_part(g: pd.DataFrame) -> pa.Table:
        lg = g[g["__side"] == 0][[by_col, "__ts"] + left_cols] \
            .sort_values(["__ts", by_col], kind="mergesort")
        rg = g[g["__side"] == 1][[by_col, "__ts"] + out_right] \
            .sort_values(["__ts", by_col], kind="mergesort")
        if lg.empty:
            return out_schema.empty_table()
        merged = pd.merge_asof(lg, rg, on="__ts", by=by_col,
                               direction="backward",
                               allow_exact_matches=True)
        # from_pandas=True maps NaN→null, un-widening float64 back to the
        # declared integer types.
        cols = [pa.array(merged[f.name], type=f.type, from_pandas=True)
                for f in out_schema]
        return pa.Table.from_arrays(cols, schema=out_schema)

    join_part.__name__ = "asof_join"
    return partition_fold([lds, rds], by_col, join_part)


def cumulative_agg(ds, key_col: str = "user_id", ts_col: str = "ts",
                   value_col: str = "value", id_col: str = "event_id",
                   hot_user_events: int = 5_000_000):
    """Per-key running aggregates ordered by (ts, id) — one output row per
    event: (event_id, user_id, ts_us, cum_events, cum_value).

    Composition: ONE coarse int-keyed exchange co-locates each key's events
    (``partition_fold`` on the key, many keys per partition),
    then a single vectorized pass per partition: lexsort + segmented cumsum.
    Values sum as exact int64 hundredths (the sliding_window fixed-point
    discipline) so the running totals are bit-stable under any partitioning
    — and the SQL oracle's window cumsum replays the same integers.

    Partitioning assumption: one key's events fit a task (same bound as
    sessionize, enforced by ``hot_user_events`` detection + logging); use
    :func:`cumulative_agg_chunked` for pathologically hot keys — identical
    output with a per-chunk offset scan like ``pack_sequences``."""

    def event_rows(batch: pa.Table) -> pa.Table:
        v = batch[value_col].to_numpy(zero_copy_only=False)
        cents = np.floor(v * 100.0 + 0.5).astype(np.int64)
        return pa.table({
            "user_id": batch[key_col].cast(pa.int64()),
            "ts_us": pa.array(_ts_us(batch[ts_col])),
            "event_id": batch[id_col].cast(pa.int64()),
            "cents": pa.array(cents),
        })

    def running(g: pd.DataFrame) -> pd.DataFrame:
        u = g["user_id"].to_numpy()
        ts = g["ts_us"].to_numpy()
        eid = g["event_id"].to_numpy()
        cents = g["cents"].to_numpy()
        order = np.lexsort((eid, ts, u))
        u, ts, eid, cents = u[order], ts[order], eid[order], cents[order]
        new_user = np.concatenate(([True], u[1:] != u[:-1]))
        ustarts = np.flatnonzero(new_user)
        ulens = np.diff(np.concatenate((ustarts, [u.size])))
        check_hot_users(u[ustarts], ulens, hot_user_events, op="cumulative_agg")
        cs = np.cumsum(cents)
        base = np.repeat(cs[ustarts] - cents[ustarts], ulens)
        cnt = np.arange(u.size, dtype=np.int64) - np.repeat(ustarts, ulens) + 1
        return pd.DataFrame({
            "event_id": eid,
            "user_id": u,
            "ts_us": ts,
            "cum_events": cnt,
            "cum_value": np.round((cs - base) / 100.0, 6),
        })

    running.__name__ = "cumulative_agg"
    return partition_fold(ds.map_batches(event_rows, batch_format="pyarrow"),
                          "user_id", running)


def cumulative_agg_chunked(ds, chunk_seconds: int = 86_400,
                           key_col: str = "user_id", ts_col: str = "ts",
                           value_col: str = "value",
                           id_col: str = "event_id"):
    """Skew-proof :func:`cumulative_agg`: identical output, but no
    partition ever holds more than one (key, time-chunk) of events — the
    scale path for hot keys that plain cumulative_agg can only detect.

    Two-pass distributed prefix sum (the ``pack_sequences`` discipline):

    1. a column-pruned pre-aggregation pass reduces each batch to partial
       (key, chunk, n, cents) rows; one tiny groupby sums them into
       per-(key, chunk) totals, and a key-hash exchange of THOSE summaries
       computes each chunk's exclusive prefix (events before this chunk,
       cents before this chunk) per key — O(keys x chunks) rows, never
       event-sized.
    2. events and offset rows share ONE hash(key, chunk) exchange; each
       partition merges its offsets in (vectorized pandas merge) and runs
       the same lexsort + segmented-cumsum pass as the plain op, shifted
       by the offsets. Fixed-point int64 cents keep the running totals
       bit-identical to the single-pass op under any chunking.

    Partitioning assumption: one key's events within one ``chunk_seconds``
    window fit a task. No assumption on events per key overall."""
    chunk_us = int(chunk_seconds) * 1_000_000

    def _cents_of(batch: pa.Table) -> np.ndarray:
        v = batch[value_col].to_numpy(zero_copy_only=False)
        return np.floor(v * 100.0 + 0.5).astype(np.int64)

    # ---- pass 1: per-(key, chunk) totals -> per-chunk exclusive prefix
    def chunk_partials(batch: pa.Table) -> pa.Table:
        df = pd.DataFrame({
            "user_id": batch[key_col].to_numpy(zero_copy_only=False)
            .astype(np.int64),
            "chunk": _ts_us(batch[ts_col]) // chunk_us,
            "cents": _cents_of(batch)})
        agg = df.groupby(["user_id", "chunk"], sort=False).agg(
            n=("cents", "size"), c=("cents", "sum")).reset_index()
        return pa.Table.from_pandas(agg, preserve_index=False)

    def exclusive_prefix(g: pd.DataFrame) -> pd.DataFrame:
        u = g["user_id"].to_numpy()
        c = g["chunk"].to_numpy()
        n = g["sum(n)"].to_numpy(np.int64)
        cents = g["sum(c)"].to_numpy(np.int64)
        order = np.lexsort((c, u))
        u, c, n, cents = u[order], c[order], n[order], cents[order]
        new_user = np.concatenate(([True], u[1:] != u[:-1]))
        csn, csc = np.cumsum(n), np.cumsum(cents)
        ustarts = np.flatnonzero(new_user)
        ulens = np.diff(np.concatenate((ustarts, [u.size])))
        base_n = np.repeat(csn[ustarts] - n[ustarts], ulens)
        base_c = np.repeat(csc[ustarts] - cents[ustarts], ulens)
        return pd.DataFrame({
            "user_id": u, "chunk": c,
            "off_n": csn - n - base_n,
            "off_cents": csc - cents - base_c})

    exclusive_prefix.__name__ = "chunk_exclusive_prefix"
    # coarse fold, not groupby().aggregate(): (user, chunk) cardinality
    # scales with the event stream (ops/fold.py, 15.7x measured)
    totals = coarse_group_agg(
        ds.map_batches(chunk_partials, batch_format="pyarrow"),
        ["user_id", "chunk"],
        [("sum(n)", "n", "sum"), ("sum(c)", "c", "sum")])
    offsets = partition_fold(totals, "user_id", exclusive_prefix)

    # ---- pass 2: events + offsets share one hash(key, chunk) exchange
    def event_rows(batch: pa.Table) -> pa.Table:
        u = batch[key_col].to_numpy(zero_copy_only=False).astype(np.int64)
        ts = _ts_us(batch[ts_col])
        c = ts // chunk_us
        return pa.table({
            "__kind": pa.array(np.zeros(u.size, np.int8)),
            "user_id": pa.array(u),
            "chunk": pa.array(c),
            "ts_us": pa.array(ts),
            "event_id": batch[id_col].cast(pa.int64()),
            "cents": pa.array(_cents_of(batch)),
            "off_n": pa.array(np.zeros(u.size, np.int64)),
            "off_cents": pa.array(np.zeros(u.size, np.int64))})

    def offset_rows(batch: pa.Table) -> pa.Table:
        u = batch["user_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        c = batch["chunk"].to_numpy(zero_copy_only=False).astype(np.int64)
        z = np.zeros(u.size, np.int64)
        return pa.table({
            "__kind": pa.array(np.ones(u.size, np.int8)),
            "user_id": pa.array(u),
            "chunk": pa.array(c),
            "ts_us": pa.array(z),
            "event_id": pa.array(z - 1),
            "cents": pa.array(z),
            "off_n": batch["off_n"].cast(pa.int64()),
            "off_cents": batch["off_cents"].cast(pa.int64())})

    def running_shifted(g: pd.DataFrame) -> pd.DataFrame:
        ev = g[g["__kind"] == 0]
        off = g[g["__kind"] == 1][["user_id", "chunk", "off_n", "off_cents"]]
        if ev.empty:
            return pd.DataFrame({
                "event_id": pd.Series([], dtype=np.int64),
                "user_id": pd.Series([], dtype=np.int64),
                "ts_us": pd.Series([], dtype=np.int64),
                "cum_events": pd.Series([], dtype=np.int64),
                "cum_value": pd.Series([], dtype=np.float64)})
        m = ev[["user_id", "chunk", "ts_us", "event_id", "cents"]].merge(
            off, on=["user_id", "chunk"], how="left")
        u = m["user_id"].to_numpy()
        c = m["chunk"].to_numpy()
        ts = m["ts_us"].to_numpy()
        eid = m["event_id"].to_numpy()
        cents = m["cents"].to_numpy()
        off_n = m["off_n"].to_numpy(np.int64)
        off_c = m["off_cents"].to_numpy(np.int64)
        order = np.lexsort((eid, ts, c, u))
        u, c, ts, eid = u[order], c[order], ts[order], eid[order]
        cents, off_n, off_c = cents[order], off_n[order], off_c[order]
        new_seg = np.concatenate(
            ([True], (u[1:] != u[:-1]) | (c[1:] != c[:-1])))
        sstarts = np.flatnonzero(new_seg)
        slens = np.diff(np.concatenate((sstarts, [u.size])))
        cs = np.cumsum(cents)
        base = np.repeat(cs[sstarts] - cents[sstarts], slens)
        cnt_in = (np.arange(u.size, dtype=np.int64)
                  - np.repeat(sstarts, slens) + 1)
        return pd.DataFrame({
            "event_id": eid,
            "user_id": u,
            "ts_us": ts,
            "cum_events": off_n + cnt_in,
            "cum_value": np.round((off_c + (cs - base)) / 100.0, 6)})

    running_shifted.__name__ = "cumulative_agg_chunked"
    return partition_fold(
        [ds.map_batches(event_rows, batch_format="pyarrow"),
         offsets.map_batches(offset_rows, batch_format="pyarrow")],
        ["user_id", "chunk"], running_shifted)


def windowed_agg(ds, window_seconds: int = 3600, key_col: str = "event_type",
                 ts_col: str = "ts", value_col: str = "value"):
    """Tumbling-window aggregate → (event_type, window_id, n_events,
    total_value). The window id is computed in the map stage so the groupby
    only shuffles (key, window, partial-count, partial-sum) rows — the
    pre-aggregation discipline for wide aggregations."""
    win_us = int(window_seconds) * 1_000_000

    def partial(batch: pa.Table) -> pa.Table:
        w = _ts_us(batch[ts_col]) // win_us
        key = batch[key_col].to_pandas()
        df = pd.DataFrame({"k": key, "w": w,
                           "v": batch[value_col].to_numpy(
                               zero_copy_only=False)})
        agg = df.groupby(["k", "w"], sort=True).agg(
            n=("v", "size"), s=("v", "sum")).reset_index()
        return pa.table({key_col: pa.array(agg["k"].astype(str)),
                         "window_id": pa.array(agg["w"].astype(np.int64)),
                         "n": pa.array(agg["n"].astype(np.int64)),
                         "s": pa.array(agg["s"].astype(np.float64))})

    from ray.data.aggregate import Sum

    def finish(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc
        return pa.table({
            key_col: batch[key_col],
            "window_id": batch["window_id"],
            "n_events": batch["sum(n)"].cast(pa.int64()),
            "total_value": pc.round(batch["sum(s)"], ndigits=6),
        })

    return (ds.map_batches(partial, batch_format="pyarrow")
            .groupby([key_col, "window_id"])
            .aggregate(Sum("n"), Sum("s"))
            .map_batches(finish, batch_format="pyarrow"))


def sliding_window_agg(ds, window_seconds: int = 3600,
                       hop_seconds: int = 900,
                       key_col: str = "event_type", ts_col: str = "ts",
                       value_col: str = "value"):
    """Sliding/hopping-window aggregate → (event_type, window_id, n_events,
    total_value); window ``w`` covers ``[w*hop, w*hop + window)``.

    Pane optimization (the published panes/slices technique for overlapping
    windows): events are first aggregated into hop-sized CELLS inside the
    map stage — one partial row per (key, cell) — and only those cell
    partials are replicated to the ``window/hop`` windows they feed. Shuffle
    volume is therefore O(keys × cells × window/hop) partial rows; the
    events themselves are never replicated, which is what makes a 10×
    overlap affordable at 100 TB. Requires ``window_seconds`` divisible by
    ``hop_seconds`` (cells must tile windows exactly)."""
    if window_seconds % hop_seconds:
        raise ValueError("window_seconds must be a multiple of hop_seconds")
    hop_us = int(hop_seconds) * 1_000_000
    nrep = window_seconds // hop_seconds

    def cell_partials(batch: pa.Table) -> pa.Table:
        c = _ts_us(batch[ts_col]) // hop_us
        # fixed-point cents: value sums must be bit-identical regardless of
        # the (engine- and partitioning-dependent) addition order, so sum
        # exact int64 hundredths and divide once at the end.
        v = batch[value_col].to_numpy(zero_copy_only=False)
        cents = np.floor(v * 100.0 + 0.5).astype(np.int64)
        df = pd.DataFrame({"k": batch[key_col].to_pandas(), "c": c,
                           "v": cents})
        agg = df.groupby(["k", "c"], sort=True).agg(
            n=("v", "size"), s=("v", "sum")).reset_index()
        # replicate CELL PARTIALS (not events) to every window they feed:
        # cell c covers [c*hop, (c+1)*hop) -> windows w = c-nrep+1 .. c
        rep = np.repeat(np.arange(len(agg)), nrep)
        w = agg["c"].to_numpy(np.int64)[rep] \
            - np.tile(np.arange(nrep, dtype=np.int64), len(agg))
        return pa.table({key_col: pa.array(agg["k"].astype(str)[rep]),
                         "window_id": pa.array(w),
                         "n": pa.array(agg["n"].to_numpy(np.int64)[rep]),
                         "s": pa.array(agg["s"].to_numpy(np.int64)[rep])})

    from ray.data.aggregate import Sum

    def finish(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc
        return pa.table({
            key_col: batch[key_col],
            "window_id": batch["window_id"],
            "n_events": batch["sum(n)"].cast(pa.int64()),
            "total_value": pc.divide(
                batch["sum(s)"].cast(pa.float64()), 100.0),
        })

    return (ds.map_batches(cell_partials, batch_format="pyarrow")
            .groupby([key_col, "window_id"])
            .aggregate(Sum("n"), Sum("s"))
            .map_batches(finish, batch_format="pyarrow"))


def funnel_counts(ds, steps, within_seconds: int = 86_400,
                  user_col: str = "user_id", ts_col: str = "ts",
                  type_col: str = "event_type",
                  hot_user_events: int = 5_000_000):
    """Ordered-funnel analysis → (step, event_type, n_users): how many
    users complete the first k steps in order, each step within
    ``within_seconds`` of the previous one (greedy earliest-completion —
    the standard funnel semantic, and the one a min()-based SQL oracle
    replays exactly).

    Composition: ONE coarse exchange co-locates each user's events, each
    partition resolves its users' step times with k vectorized
    per-step groupby-mins (k = funnel length, tiny), and only the
    per-partition (step, count) partials cross the second (k-row)
    exchange.

    Skew bound: one user's STEP events must fit a task (non-step events
    are pruned before the exchange, so only funnel-relevant rows move);
    ``hot_user_events`` enforces detection + logging via
    :func:`check_hot_users`, as in sessionize. Measured (r5 forced-skew
    probe, 16 CPUs): one user holding 2M of 4M step events costs nothing
    over the balanced case (1.84 s vs 1.85 s) — resolution is k
    partition-wide vectorized groupby-mins, so a hot user's bound is
    HEAP, not compute; no chunked variant is warranted (parity test:
    test_funnel_counts_forced_skew_parity)."""
    steps = list(steps)
    win_us = int(within_seconds) * 1_000_000

    def step_rows(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc
        # prune non-step events BEFORE the exchange — at scale most rows
        # are funnel-irrelevant and must not cross the all-to-all
        batch = batch.filter(pc.is_in(batch[type_col].cast(pa.string()),
                                      value_set=pa.array(steps)))
        return pa.table({
            "user_id": batch[user_col].cast(pa.int64()),
            "ts_us": pa.array(_ts_us(batch[ts_col])),
            "etype": batch[type_col].cast(pa.string()),
        })

    def resolve(g: pd.DataFrame) -> pd.DataFrame:
        uid, ucnt = np.unique(g["user_id"].to_numpy(), return_counts=True)
        check_hot_users(uid, ucnt, hot_user_events, op="funnel_counts")
        # bound: per-user completion time of the previous step (NaN = out)
        bound = None
        counts = []
        for j, s in enumerate(steps):
            sub = g[g["etype"] == s]
            if bound is not None:
                # int64-exact window compare — pandas Series.map would
                # upcast the WHOLE result to float64 the moment any user
                # is absent (NaN), silently truncating bounds past 2^53;
                # positional get_indexer keeps present users' bounds in
                # int64 end to end and masks absentees explicitly
                if bound.empty:
                    # nobody completed the previous step in this
                    # partition — the gather below would index a size-0
                    # array; every later step is empty by definition
                    sub = sub.iloc[0:0]
                else:
                    pos = bound.index.get_indexer(sub["user_id"])
                    present = pos >= 0
                    lo = bound.to_numpy(np.int64)[np.clip(pos, 0, None)]
                    t = sub["ts_us"].to_numpy(np.int64)
                    sub = sub[present & (t > lo) & (t <= lo + win_us)]
            tmin = sub.groupby("user_id")["ts_us"].min()
            bound = tmin
            counts.append(len(tmin))
        return pd.DataFrame({
            "step": np.arange(1, len(steps) + 1, dtype=np.int64),
            "event_type": steps,
            "n": np.asarray(counts, np.int64),
        })

    resolve.__name__ = "funnel_resolve"
    from ray.data.aggregate import Sum

    def finish(batch: pa.Table) -> pa.Table:
        return pa.table({
            "step": batch["step"],
            "event_type": batch["event_type"],
            "n_users": batch["sum(n)"].cast(pa.int64()),
        })

    return (partition_fold(ds.map_batches(step_rows, batch_format="pyarrow"),
                           "user_id", resolve)
            .groupby(["step", "event_type"]).aggregate(Sum("n"))
            .map_batches(finish, batch_format="pyarrow"))


def cohort_retention(ds, period_seconds: int = 604_800,
                     user_col: str = "user_id", ts_col: str = "ts",
                     hot_user_periods: int = 1_000_000):
    """Cohort retention → (cohort, offset, n_users): users whose FIRST
    activity falls in period ``cohort`` and who are also active in period
    ``cohort + offset`` (offset 0 = the cohort size itself).

    Composition: each batch reduces to its distinct (user, period) pairs
    (events collapse before anything moves), ONE user-hash exchange
    co-locates a user's periods, each partition computes cohorts +
    offsets vectorized, and only (cohort, offset, partial-count) rows
    cross the final reduce.

    Skew bound: event-count skew collapses in the map stage (a user with
    10^9 events in one period ships ONE pair); the residual bound is
    DISTINCT PERIODS per user — timeline / period_seconds, e.g. ~522 for
    a decade of weekly cohorts — enforced by detection + logging via
    ``hot_user_periods`` for degenerate period choices."""
    per_us = int(period_seconds) * 1_000_000

    def distinct_pairs(batch: pa.Table) -> pa.Table:
        u = batch[user_col].to_numpy(zero_copy_only=False)
        p = _ts_us(batch[ts_col]) // per_us
        df = pd.DataFrame({"u": u, "p": p}).drop_duplicates()
        return pa.table({"user_id": pa.array(df["u"].to_numpy(np.int64)),
                         "period": pa.array(df["p"].to_numpy(np.int64))})

    def offsets(g: pd.DataFrame) -> pd.DataFrame:
        df = g.drop_duplicates(["user_id", "period"])
        uid, ucnt = np.unique(df["user_id"].to_numpy(), return_counts=True)
        check_hot_users(uid, ucnt, hot_user_periods, op="cohort_retention")
        cohort = df.groupby("user_id")["period"].transform("min")
        out = pd.DataFrame({"cohort": cohort.to_numpy(np.int64),
                            "offset": (df["period"] - cohort)
                            .to_numpy(np.int64)})
        agg = out.groupby(["cohort", "offset"], sort=True) \
            .size().reset_index(name="n")
        agg["n"] = agg["n"].astype(np.int64)
        return agg

    offsets.__name__ = "cohort_offsets"
    from ray.data.aggregate import Sum

    def finish(batch: pa.Table) -> pa.Table:
        return pa.table({"cohort": batch["cohort"],
                         "offset": batch["offset"],
                         "n_users": batch["sum(n)"].cast(pa.int64())})

    return (partition_fold(
                ds.map_batches(distinct_pairs, batch_format="pyarrow"),
                "user_id", offsets)
            .groupby(["cohort", "offset"]).aggregate(Sum("n"))
            .map_batches(finish, batch_format="pyarrow"))


def time_deltas(ds, user_col: str = "user_id", ts_col: str = "ts",
                id_col: str = "event_id", hot_user_events: int = 5_000_000):
    """Per-user inter-arrival deltas — the lag-window primitive for
    behavioral / inter-event-time features → (event_id, user_id, ts_us,
    delta_us) with ``delta_us = -1`` for a user's first event, else the
    microseconds since that user's previous event ordered by
    (ts, event_id) (event_id breaks timestamp ties deterministically,
    like SQL ``lag() OVER (PARTITION BY user ORDER BY ts, event_id)``).

    Composition: ONE coarse exchange co-locates each user's events
    (:func:`~.fold.partition_fold` on the user), then one vectorized
    lexsort + diff per partition — no per-user groups, no window shuffle.
    Skew bound: one user's events must fit a task; ``hot_user_events``
    enforces detection + logging via :func:`check_hot_users`, as in
    sessionize."""

    def event_rows(batch: pa.Table) -> pa.Table:
        return pa.table({
            "event_id": batch[id_col].cast(pa.int64()),
            "user_id": batch[user_col].cast(pa.int64()),
            "ts_us": pa.array(_ts_us(batch[ts_col])),
        })

    def deltas(g: pd.DataFrame) -> pd.DataFrame:
        e = g["event_id"].to_numpy(np.int64)
        u = g["user_id"].to_numpy(np.int64)
        t = g["ts_us"].to_numpy(np.int64)
        uid, ucnt = np.unique(u, return_counts=True)
        check_hot_users(uid, ucnt, hot_user_events, op="time_deltas")
        order = np.lexsort((e, t, u))
        e, u, t = e[order], u[order], t[order]
        d = np.empty(t.size, np.int64)
        if t.size:
            d[0] = -1
            d[1:] = np.where(u[1:] == u[:-1], t[1:] - t[:-1], -1)
        return pd.DataFrame({"event_id": e, "user_id": u, "ts_us": t,
                             "delta_us": d})

    deltas.__name__ = "time_deltas"
    return partition_fold(ds.map_batches(event_rows, batch_format="pyarrow"),
                          "user_id", deltas)
