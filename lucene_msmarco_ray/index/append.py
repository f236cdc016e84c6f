"""Incremental index append: add new documents to an existing index in
O(new docs) — the old segments are never read, re-encoded, or rewritten.

This is the additive-segment contract of the reference's indexing path
(reference: src/main/java/indexing/MsMarcoIndexer.java:67-90 drives a
Lucene IndexWriter, which appends new segments without touching committed
ones). Here the (shard, salt) layout makes it natural: appended docs have
doc ids in a fresh dense range, so their postings land in salt buckets
whose doc ranges are disjoint from every existing run, and the reader's
zero-decode run concat (``codec.concat_runs`` — which orders runs by
first doc id) already merges old and new runs per term at read time. A
full rebuild and a build+append produce bit-identical search results:
postings, document stats (num_docs / total_len / avgdl) and BM25/LM
scores all match (test-enforced).

Cost model at scale: tokenize + staged write + encode of the NEW docs
only, plus a vocabulary recount (a term-column scan of the segment
metadata — O(vocab), not O(corpus)). The encode is one
``build.write_segment_dir`` task (the writer build and compaction share)
per (shard, salt) group the new docs touched; each writes one file into
the live tree under the next generation's name, which no commit lists.
Nothing existing is rewritten, so appending 1% of a 100-TB corpus costs
~1% of a build. Readers see none of the append — its staged partition or
its segment files — until :meth:`~.manifest.Manifest.commit` publishes the
generation that lists them. The append is checkpointed exactly like a
build partition (manifest + input lineage): a crashed append resumes, and
a re-run writes the same files again (the commit deletes any leftover it
does not list); a re-run of a committed append with unchanged inputs only
commits again.

Contract: appended ``id_col`` values must be dense and contiguous right
after the existing docs (``[num_docs, num_docs + n_new)``) — verified
from Parquet footer min/max statistics before any segment is touched.
"""

from __future__ import annotations

import os

import pyarrow.parquet as pq

from .build import (
    count_distinct_terms,
    encode_segments,
    expand_parquet_files,
    stage_tokenize_partition,
)
from .manifest import Manifest, config_from_params


def _id_bounds(meta_files: list[str], id_col: str) -> tuple[int, int]:
    """(min, max) of ``id_col`` across files from footer statistics only."""
    lo, hi = None, None
    for f in meta_files:
        md = pq.ParquetFile(f).metadata
        idx = {md.schema.column(i).name: i
               for i in range(len(md.schema))}[id_col]
        for rg in range(md.num_row_groups):
            st = md.row_group(rg).column(idx).statistics
            if st is None or not st.has_min_max:   # pragma: no cover
                t = pq.read_table(f, columns=[id_col])[id_col]
                v = t.to_numpy(zero_copy_only=False)
                smin, smax = int(v.min()), int(v.max())
            else:
                smin, smax = int(st.min), int(st.max)
            lo = smin if lo is None else min(lo, smin)
            hi = smax if hi is None else max(hi, smax)
    if lo is None:
        raise ValueError("append dataset produced no documents")
    return lo, hi


def append_documents(index_dir: str, ds, *, text_col: str = "text",
                     id_col: str = "doc_id", key_col: str | None = None,
                     input_lineage: str | None = None,
                     pid: str | None = None,
                     auto_compact_ratio: float | None = 4.0) -> dict:
    """Append ``ds``'s documents to the index at ``index_dir``.

    Returns the updated stats dict (also persisted to ``stats.json``).

    Auto-compaction (the Lucene merge-policy analog): after the encode,
    when the mean posting-run count per (term, shard, salt) — measured
    exactly by :func:`~.compact.fragmentation` at O(vocab · runs) cost —
    exceeds ``auto_compact_ratio``, :func:`~.compact.compact_index` runs
    in place, so continuous ingestion is self-maintaining instead of
    accruing unbounded read-time run-concat debt. Compaction is
    bit-identical for search, so the only observable effect is the fold.
    Pass ``None`` to disable (manual compaction only).
    """
    man = Manifest.at(index_dir)
    if not man.committed:
        raise ValueError(f"{index_dir} is not a completed index build")
    cfg = config_from_params(man.params)

    if pid is None:
        seq = sum(1 for p in man.data["partitions"] if p.startswith("append"))
        pid = f"append{seq:03d}"
    elif pid in man.parts:
        if not man.partition_done(pid, input_lineage):
            raise ValueError(f"append {pid!r} is already committed from "
                             "another input; append under a new pid")
        # this exact append already committed: commit it again, so a
        # crash after its commit heals on the re-run
        return man.commit(man.stats, man.segments, man.parts)

    # ---- stage A: tokenize + staged write (same checkpoint machinery as a
    # build partition; a re-run with unchanged input lineage skips this) ----
    stage_tokenize_partition(index_dir, man, pid, ds, cfg,
                             text_col=text_col, id_col=id_col,
                             key_col=key_col, in_sha=input_lineage)

    # ---- dense-id contract: this partition must cover exactly
    # [total - n_new, total) where total = Σ rows over the committed
    # partitions and this one ----
    parts = man.parts + [pid]
    n_new = int(man.data["partitions"][pid]["rows"])
    total = sum(int(man.data["partitions"][p]["rows"]) for p in parts)
    part_dir = os.path.join(index_dir, "staged", f"part={pid}")
    meta_files = expand_parquet_files([os.path.join(part_dir, "kind=m")])
    lo, hi = _id_bounds(meta_files, "doc_id")
    if (lo, hi) != (total - n_new, total - 1):
        raise ValueError(
            f"append ids must be dense [{total - n_new}, {total}); got "
            f"[{lo}, {hi + 1}) — assign ids starting at the index's "
            "current num_docs")

    # ---- stage C: encode ONLY this partition's gkey groups; old segment
    # files are untouched (their salt-bucket doc ranges are disjoint, so
    # the reader's concat_runs stitches per-term runs at load time) ----
    seg_dir = os.path.join(index_dir, "segments")
    segments = list(man.segments)
    pdir = os.path.join(part_dir, "kind=p")
    if os.path.isdir(pdir):
        segments += encode_segments([pdir], seg_dir, man.segment_name(),
                                    cfg.block_size)

    # ---- stats: exact integer folds from the manifest + a vocab recount
    # (O(vocab) term-column scan — never O(corpus)) ----
    stats = man.commit(man.fold_stats(
        count_distinct_terms(seg_dir, segments), parts), segments, parts)

    if auto_compact_ratio is not None:
        from .compact import compact_index, fragmentation
        rows, unique = fragmentation(seg_dir)
        if unique and rows / unique > auto_compact_ratio:
            compact_index(index_dir)
    return stats
