"""Segment compaction — the Lucene merge-policy analog for appended
indexes.

Every :func:`~.append.append_documents` adds new files to the live
``segments/shard=S/salt=K`` tree, so a term accumulates one posting RUN
per append that touched its salt bucket; the reader stitches them lazily
with ``codec.concat_runs`` on every load. Compaction folds that debt back
to ONE row per (term, shard, salt) — a pure zero-decode concatenating
merge (byte concat + block-metadata offset shift, exactly what the reader
computes lazily, persisted), so search results are bit-identical before
and after, block-max metadata included. The (shard, salt) directory
layout is PRESERVED: doc-sharded search topology, stats, and future
appends are unaffected, and a later compaction folds those appends again.

Cost model: one ``build.write_segment_dir`` task (the segment writer
build and append use; no Ray Data plan, no exchange) per (shard, salt)
directory holding more than one committed file — a directory with one
file already has one row per term. Each decodes the directory's committed
files with ``codec.segment_runs`` (the reader's columnar decoder),
concatenates each term's runs and writes ONE file under the next
generation's name, which readers do not see until
:meth:`~.manifest.Manifest.commit` publishes it in place of the files it
folds (and deletes those). A compaction that crashes before its commit
leaves the previous generation whole; its re-run writes the same files.
"""

from __future__ import annotations

import os
from functools import partial

import numpy as np
import pyarrow as pa
import pyarrow.dataset as pads
import pyarrow.parquet as pq
import ray

from .build import (distinct_terms_per_group, rows_to_segment_table,
                    write_segment_dir)
from .codec import concat_runs, segment_runs
from .manifest import Commit, Manifest, segment_dir_key


def _by_dir(files: list[str]) -> dict[str, list[str]]:
    out: dict[str, list[str]] = {}
    for f in files:
        out.setdefault(os.path.dirname(f), []).append(f)
    return out


def fragmentation(seg_dir: str) -> tuple[int, int]:
    """(segment rows, distinct (term, shard, salt) rows) of the committed
    segment files under ``seg_dir`` — the exact fold compaction would
    perform. Rows come from Parquet footers (metadata only); distinct
    counts scan ONLY the term column, one task per (shard, salt) dir, so
    the cost is O(vocab · runs) like the vocab recount every append
    already pays — never O(corpus). ``rows / unique`` is the mean
    posting-run count per term the reader must concat lazily: the
    auto-compaction trigger ratio."""
    files = Commit(os.path.dirname(seg_dir)).segment_files()
    rows = sum(pq.read_metadata(f).num_rows for f in files)
    return rows, sum(distinct_terms_per_group(list(_by_dir(files).values())))


def _merged_rows(files: list[str], shard: int, salt: int) -> pa.Table:
    """One segment row per term of the segment files ``files`` (one
    (shard, salt) dir): every term's runs concatenated, terms in sorted
    order."""
    by_term = segment_runs(pads.dataset(files).to_table())
    terms = sorted(by_term)
    n = len(terms)
    return rows_to_segment_table(
        terms, np.full(n, shard, np.int32),
        [concat_runs(by_term[t]) for t in terms],
        salts=np.full(n, salt, np.int32))


def compact_index(index_dir: str) -> dict:
    """Compact every (shard, salt) segment directory that holds more than
    one committed file; returns a summary {dirs (compacted), rows_before,
    rows_after} over the whole index. Idempotent — a second run writes
    nothing (every dir already holds one file) and commits the same
    generation."""
    man = Manifest.at(index_dir)
    if not man.committed:
        raise ValueError(f"{index_dir} is not a completed index build")
    seg_dir = os.path.join(index_dir, "segments")
    rows = {f: pq.read_metadata(os.path.join(seg_dir, f)).num_rows
            for f in man.segments}
    by_dir = _by_dir(man.segments)
    plan = sorted(d for d, fs in by_dir.items() if len(fs) > 1)
    name = man.segment_name()
    tasks = []
    for d in plan:
        shard, salt = segment_dir_key(d)
        tasks.append(write_segment_dir.remote(
            seg_dir, shard, salt, name, partial(
                _merged_rows, [os.path.join(seg_dir, f) for f in by_dir[d]],
                shard, salt)))
    written = sum(ray.get(tasks))
    folded = {f for d in plan for f in by_dir[d]}
    summary = {"dirs": len(plan), "rows_before": sum(rows.values()),
               "rows_after": sum(rows.values()) + written
               - sum(rows[f] for f in folded)}
    if plan:
        man.data.setdefault("compactions", []).append(dict(summary))
    man.commit(man.stats,
               [f for f in man.segments if f not in folded]
               + [f"{d}/{name}" for d in plan], man.parts)
    return summary
