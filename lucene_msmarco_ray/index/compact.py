"""Segment compaction — the Lucene merge-policy analog for appended
indexes.

Every :func:`~.append.append_documents` adds new pid-prefixed parquet
files to the live ``segments/shard=S/salt=K`` tree, so a term
accumulates one posting RUN per append that touched its salt bucket; the
reader stitches them lazily with ``codec.concat_runs`` on every load.
Compaction folds that debt back to ONE row per (term, shard, salt) — a
pure zero-decode concatenating merge (byte concat + block-metadata
offset shift, exactly what the reader computes lazily, persisted), so
search results are bit-identical before and after, block-max metadata
included. The (shard, salt) directory layout is PRESERVED: doc-sharded
search topology, stats, and future appends are unaffected, and a later
compaction folds those appends again.

Cost model: one ``build.write_segment_dir`` task per (shard, salt)
directory — the segment writer build and append use; no Ray Data plan,
no exchange. Each reads its directory, decodes it with
``codec.segment_runs`` (the reader's columnar decoder), concatenates each
term's runs and writes ONE ``compacted.parquet`` under the same
``shard=S/salt=K`` path; rows before come from Parquet footers. The cost
is the per-directory work plus one task dispatch each. Crash safety:
the new tree is fully written to ``segments.compact.tmp`` first, the
live tree is moved to ``segments.pre-compact``, the new tree renamed in,
then the backup removed; a crash between the renames is auto-recovered on the next
compact/open by restoring the backup. Compaction is SINGLE-WRITER: the
non-atomic swap is bracketed by a ``segments.compact.inprogress``
sentinel (pid + host), and a reader that opens inside the swap window
raises while the sentinel's process is alive instead of restoring the
backup out from under the live writer.
"""

from __future__ import annotations

import json
import os
import shutil
from functools import partial

import numpy as np
import pyarrow as pa
import pyarrow.dataset as pads
import pyarrow.parquet as pq
import ray

from .build import (distinct_terms_per_dir, rows_to_segment_table,
                    write_segment_dir)
from .codec import concat_runs, segment_runs
from .manifest import Manifest, _recover_interrupted, _sentinel_path


def fragmentation(seg_dir: str) -> tuple[int, int]:
    """(segment rows, distinct (term, shard, salt) rows) — the exact
    fold compaction would perform. Rows come from Parquet footers
    (metadata only); distinct counts scan ONLY the term column, one
    task per (shard, salt) dir, so the cost is O(vocab · runs)
    like the vocab recount every append already pays — never O(corpus).
    ``rows / unique`` is the mean posting-run count per term the reader
    must concat lazily: the auto-compaction trigger ratio."""
    dirs = []
    rows = 0
    for root, _, fs in os.walk(seg_dir):
        pfs = [os.path.join(root, f) for f in fs if f.endswith(".parquet")]
        if pfs:
            dirs.append(root)
            rows += sum(pq.read_metadata(p).num_rows for p in pfs)
    return rows, sum(distinct_terms_per_dir(dirs))


def _merged_rows(d: str, shard: int, salt: int) -> pa.Table:
    """One segment row per term of the directory ``d``: every term's runs
    concatenated, terms in sorted order."""
    by_term = segment_runs(pads.dataset(d).to_table())
    terms = sorted(by_term)
    n = len(terms)
    return rows_to_segment_table(
        terms, np.full(n, shard, np.int32),
        [concat_runs(by_term[t]) for t in terms],
        salts=np.full(n, salt, np.int32))


def compact_index(index_dir: str) -> dict:
    """Compact all (shard, salt) segment directories; returns a summary
    {dirs, rows_before, rows_after}. Idempotent — a second run is a
    cheap no-op rewrite (every term already has one row per dir)."""
    _recover_interrupted(index_dir, writer=True)
    man = Manifest.at(index_dir)
    if not man.params or not man.merge_done:
        raise ValueError(f"{index_dir} is not a completed index build")
    seg_dir = os.path.join(index_dir, "segments")

    plan = [(int(sh.split("=", 1)[1]), int(sa.split("=", 1)[1]))
            for sh in sorted(os.listdir(seg_dir)) if sh.startswith("shard=")
            for sa in sorted(os.listdir(os.path.join(seg_dir, sh)))
            if sa.startswith("salt=")]
    if not plan:
        return {"dirs": 0, "rows_before": 0, "rows_after": 0}

    tmp = seg_dir + ".compact.tmp"
    shutil.rmtree(tmp, ignore_errors=True)
    rows_before = sum(
        pq.read_metadata(os.path.join(root, f)).num_rows
        for root, _, fs in os.walk(seg_dir) for f in fs
        if f.endswith(".parquet"))
    rows_after = sum(ray.get([write_segment_dir.remote(
        tmp, sh, sa, "compacted.parquet",
        partial(_merged_rows,
                os.path.join(seg_dir, f"shard={sh}", f"salt={sa}"), sh, sa))
        for sh, sa in plan]))

    bak = seg_dir + ".pre-compact"
    shutil.rmtree(bak, ignore_errors=True)
    # sentinel brackets the non-atomic swap: readers opening inside the
    # window fail loud instead of restoring bak under the live writer
    import socket
    with open(_sentinel_path(index_dir), "w") as f:
        json.dump({"pid": os.getpid(), "host": socket.gethostname()}, f)
    os.replace(seg_dir, bak)
    os.replace(tmp, seg_dir)
    os.remove(_sentinel_path(index_dir))
    shutil.rmtree(bak, ignore_errors=True)

    summary = {"dirs": len(plan), "rows_before": rows_before,
               "rows_after": rows_after}
    man.data.setdefault("compactions", []).append(dict(summary))
    man.save()
    return summary
