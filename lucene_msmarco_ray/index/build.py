"""Index build pipeline — the Ray-Data-native equivalent of the reference's
``IndexWriter.addDocument`` internals (reference:
src/main/java/indexing/MsMarcoIndexer.java:48-90, where tokenization,
in-memory segment build, flush and merge all happen inside Lucene).

Dataflow (SURVEY.md §3.1, operators I1-I7)::

    corpus row group ──read → TokenizeStage → write, ONE fused task──►
        staged/part=<pid>/kind={p,f,m,l}   (ONE pass, ONE partitioned
        write: p = postings keyed by gkey=shard·2^20+salt, f = forward-index
        copy keyed by doc bucket, m = doc metadata + sha, l = lineage)
    staged kind=p ──one plain ray.remote task per gkey (write_segment_dir)──►
        segments/shard=S/salt=B/g<N>.parquet (varbyte + block-max)
    manifest partitions ──fold──► stats (N, total_len → avgdl), published
        with the segment list as generation N by Manifest.commit

Ray Data runs only the tokenize stage, as one task per input block (one
row group for the corpus readers): the stage takes whole blocks and cuts
its own passes, so the read fuses with it, and every task of the build on
a worker shares that worker's warm analysis cache (``stages.tokenize``).
The encode reads each group's staged ``term`` column as dictionary codes
and orders its postings by one argsort of (term rank, doc). Every segment
file — build, append and compaction — is written by
:func:`write_segment_dir`: one file per (shard, salt) dir, named for the
generation that publishes it, terms sorted, so a build is byte-stable.

Shuffle inventory: exactly ONE exchange over the postings, realized as the
partitioned staged write (no all-to-all operator). A salted term's runs
stay as SEPARATE segment rows — the reader concatenates them at load time
(codec.concat_runs, zero decode), and the (shard, salt) directory layout
doubles as the doc-partitioned search path's pruning structure. Skew: heavy
terms are split across salt buckets — the per-group memory bound is
``(vocab slice) × salt_docs_per_bucket`` postings, independent of any one
term's df (SURVEY.md I6).

Resumability: tokenize partitions are skipped when their lineage sha matches
(manifest); the encode is skipped when the committed generation already
holds exactly the build's partitions. Segment files are written into the
live tree under the next generation's name, which no commit lists, so a
crashed encode is invisible to readers and its re-run rewrites the same
files; the commit deletes whatever it does not list.
"""

from __future__ import annotations

import os
import shutil
from functools import partial
from typing import Callable
from zlib import crc32

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.dataset as pads
import pyarrow.parquet as pq
import ray
from ray.data.datasource import FilenameProvider, SaveMode

from ..config import EngineConfig
from ..stages.tokenize import GKEY_SALT_SPAN, TokenizeStage
from .codec import TermPostings, encode_group_postings
from .manifest import (Manifest, config_params, gkey_dirs, segment_dir_key,
                       staged_dirs)

SEGMENT_SCHEMA = pa.schema([
    ("term", pa.string()),
    ("shard", pa.int32()),
    ("salt", pa.int32()),          # doc-range bucket of this run (I6); the
                                   # doc-partitioned search path prunes on it
    ("df", pa.int64()),
    ("cf", pa.int64()),
    ("doc_bytes", pa.large_binary()),
    ("tf_bytes", pa.large_binary()),
    ("b_count", pa.list_(pa.int32())),
    ("b_first", pa.list_(pa.int64())),
    ("b_last", pa.list_(pa.int64())),
    ("b_max_tf", pa.list_(pa.int32())),
    ("b_min_dl", pa.list_(pa.int32())),
    ("b_doc_off", pa.list_(pa.int64())),
    ("b_tf_off", pa.list_(pa.int64())),
])


def term_shard(term: str, num_shards: int) -> int:
    return crc32(term.encode("utf-8")) % num_shards


def _list_array(arrays: list[np.ndarray], dtype: pa.DataType) -> pa.ListArray:
    lens = np.fromiter((len(a) for a in arrays), dtype=np.int64, count=len(arrays))
    return _list_from_flat(np.concatenate(arrays) if arrays else np.empty(0),
                           lens, dtype)


def rows_to_segment_table(terms: list[str], shards: np.ndarray,
                          tps: list[TermPostings],
                          salts: np.ndarray | None = None) -> pa.Table:
    if salts is None:
        salts = np.zeros(len(terms), np.int32)
    return pa.Table.from_arrays([
        pa.array(terms, type=pa.string()),
        pa.array(shards.astype(np.int32)),
        pa.array(salts.astype(np.int32)),
        pa.array(np.fromiter((t.df for t in tps), np.int64, len(tps))),
        pa.array(np.fromiter((t.cf for t in tps), np.int64, len(tps))),
        pa.array([t.doc_bytes for t in tps], type=pa.large_binary()),
        pa.array([t.tf_bytes for t in tps], type=pa.large_binary()),
        _list_array([t.b_count for t in tps], pa.int32()),
        _list_array([t.b_first for t in tps], pa.int64()),
        _list_array([t.b_last for t in tps], pa.int64()),
        _list_array([t.b_max_tf for t in tps], pa.int32()),
        _list_array([t.b_min_dl for t in tps], pa.int32()),
        _list_array([t.b_doc_off for t in tps], pa.int64()),
        _list_array([t.b_tf_off for t in tps], pa.int64()),
    ], schema=SEGMENT_SCHEMA)


def _large_binary_slices(data: bytes, offsets: np.ndarray) -> pa.Array:
    """Zero-copy large_binary array: per-row slices of ONE byte buffer."""
    return pa.LargeBinaryArray.from_buffers(
        pa.large_binary(), len(offsets) - 1,
        [None, pa.py_buffer(np.ascontiguousarray(offsets, np.int64)),
         pa.py_buffer(data)])


def _list_from_flat(values: np.ndarray, counts: np.ndarray,
                    dtype: pa.DataType) -> pa.ListArray:
    offsets = np.zeros(counts.size + 1, np.int32)
    np.cumsum(counts, out=offsets[1:])
    return pa.ListArray.from_arrays(pa.array(offsets, type=pa.int32()),
                                    pa.array(values, type=dtype))


def group_segment_table(terms: pa.Array | np.ndarray, shard: int, enc: dict,
                        salt: int = 0) -> pa.Table:
    """Segment rows for one encoded group (see codec.encode_group_postings)
    — all columns built from flat arrays, no per-term Python."""
    bpt = enc["blocks_per_term"]
    return pa.Table.from_arrays([
        pa.array(terms, type=pa.string()),
        pa.array(np.full(enc["n_terms"], shard, np.int32)),
        pa.array(np.full(enc["n_terms"], salt, np.int32)),
        pa.array(enc["df"]),
        pa.array(enc["cf"]),
        _large_binary_slices(enc["doc_bytes"], enc["doc_byte_offsets"]),
        _large_binary_slices(enc["tf_bytes"], enc["tf_byte_offsets"]),
        _list_from_flat(enc["b_count"], bpt, pa.int32()),
        _list_from_flat(enc["b_first"], bpt, pa.int64()),
        _list_from_flat(enc["b_last"], bpt, pa.int64()),
        _list_from_flat(enc["b_max_tf"], bpt, pa.int32()),
        _list_from_flat(enc["b_min_dl"], bpt, pa.int32()),
        _list_from_flat(enc["b_doc_off"], bpt, pa.int64()),
        _list_from_flat(enc["b_tf_off"], bpt, pa.int64()),
    ], schema=SEGMENT_SCHEMA)


class _EncodeGkeyTask:
    """One (shard, salt) group — all postings files of one gkey directory —
    → encoded term-run rows, terms in sorted order (the order compaction
    writes). The 'shuffle' already happened in the staged partitioned
    write; this just reads its group's files. The encode itself is ONE
    vectorized pass over the whole group (no per-term loop — round-1's
    merge hot spot, 14.2s of a 28.6s 2M-doc build)."""

    def __init__(self, block_size: int):
        self.block_size = block_size

    def __call__(self, batch: pd.DataFrame) -> pa.Table:
        out = []
        for _, row in batch.iterrows():
            gkey = int(row["gkey"])
            shard = gkey // GKEY_SALT_SPAN
            salt = gkey % GKEY_SALT_SPAN
            tbl = pa.concat_tables([
                pq.read_table(f, columns=["term", "doc_id", "tf", "dl"],
                              read_dictionary=["term"])
                for f in row["files"]])
            if tbl.num_rows == 0:
                continue
            # rank the group's one dictionary (UTF-8 byte order is code
            # point order, as ``sorted()``), then order the postings by
            # (rank, doc) with one argsort: (term, doc) is unique in a
            # group, and rank × doc span stays far below 2^63
            term = tbl["term"].unify_dictionaries()
            words = term.chunk(0).dictionary
            by_rank = pc.array_sort_indices(words).to_numpy()
            rank = np.empty(len(words), np.int64)
            rank[by_rank] = np.arange(len(words))
            codes = rank[np.concatenate([c.indices.to_numpy(
                zero_copy_only=False) for c in term.chunks])]
            doc = tbl["doc_id"].to_numpy(zero_copy_only=False)
            lo = doc.min()
            order = np.argsort(codes * (doc.max() - lo + 1) + (doc - lo))
            codes, doc = codes[order], doc[order]
            tf = tbl["tf"].to_numpy(zero_copy_only=False)[order]
            dl = tbl["dl"].to_numpy(zero_copy_only=False)[order]
            enc = encode_group_postings(codes, doc, tf, dl, self.block_size)
            terms = words.take(by_rank[codes[enc["term_starts"]]])
            out.append(group_segment_table(terms, shard, enc, salt))
        if not out:
            return rows_to_segment_table([], np.empty(0), [])
        return pa.concat_tables(out)


@ray.remote
def write_segment_dir(root: str, shard: int, salt: int, name: str,
                      rows: Callable[[], pa.Table]) -> int:
    """The one segment writer of build, append and compaction: writes
    ``rows()`` — one (shard, salt) directory's encoded or merged rows — as
    ONE file ``<root>/shard=S/salt=K/<name>``; the hive path carries shard
    and salt, the file neither. It lands through a dot-prefixed temp file
    (readers skip it) and ``os.replace``. Returns the row count."""
    tbl = rows().drop(["shard", "salt"])
    d = os.path.join(root, f"shard={shard}", f"salt={salt}")
    os.makedirs(d, exist_ok=True)
    tmp = os.path.join(d, f".{name}.tmp")
    pq.write_table(tbl, tmp)
    os.replace(tmp, os.path.join(d, name))
    return tbl.num_rows


def encode_segments(pdirs: list[str], root: str, name: str,
                    block_size: int) -> dict[int, int]:
    """Encode every gkey group of the staged ``kind=p`` dirs ``pdirs`` —
    one :func:`write_segment_dir` task per (shard, salt), no exchange.
    Returns each written file's path under ``root`` → its row count."""
    groups = sorted(gkey_dirs(pdirs).items())
    rows = ray.get([write_segment_dir.remote(
        root, k // GKEY_SALT_SPAN, k % GKEY_SALT_SPAN, name,
        partial(_EncodeGkeyTask(block_size), pd.DataFrame(
            [{"gkey": k, "files": expand_parquet_files(ds)}])))
        for k, ds in groups])
    return {f"shard={k // GKEY_SALT_SPAN}/salt={k % GKEY_SALT_SPAN}/{name}": n
            for (k, _), n in zip(groups, rows)}


def expand_parquet_files(dirs: list[str]) -> list[str]:
    """List of dirs → flat sorted list of parquet files (ray.data.read_parquet
    accepts a single dir but not a list of dirs)."""
    out: list[str] = []
    for d in dirs:
        for root, _, fs in os.walk(d):
            out.extend(os.path.join(root, f) for f in fs if f.endswith(".parquet"))
    return sorted(out)


def file_lineage(paths: list[str]) -> str:
    """Cheap input-lineage digest for resume invalidation: (path, size,
    mtime_ns) per file — no content read. Callers pass this alongside a
    partition so a changed input re-tokenizes instead of resuming stale."""
    import hashlib
    h = hashlib.sha256()
    for p in sorted(paths):
        st = os.stat(p)
        h.update(f"{p}|{st.st_size}|{st.st_mtime_ns}\n".encode())
    return h.hexdigest()


class _FirstDocName(FilenameProvider):
    """Names a staged file after the first ``doc_id`` of the block it is
    written from, not the write's uuid: the staged tree's paths follow from
    its content, so two builds of the same corpus write the same paths.
    Blocks of one partition hold disjoint docs, so names do not collide."""

    def get_filename_for_block(self, block, write_uuid, task_index,
                               block_index) -> str:
        return f"doc{block['doc_id'][0].as_py()}.parquet"


def stage_tokenize_partition(out_dir: str, man: Manifest, pid: str, ds,
                             cfg: EngineConfig, *, text_col: str,
                             id_col: str, key_col: str | None,
                             in_sha: str | None) -> bool:
    """Stage A for ONE build partition (shared by :func:`build_index` and
    :func:`append.append_documents`): tokenize → partitioned staged write →
    lineage fold. Returns True if the partition was (re)built, False if the
    manifest checkpoint was reused."""
    if man.partition_done(pid, in_sha):
        return False
    part_dir = os.path.join(out_dir, "staged", f"part={pid}")
    tmp_dir = part_dir + ".tmp"
    shutil.rmtree(tmp_dir, ignore_errors=True)
    shutil.rmtree(part_dir, ignore_errors=True)
    # batch_size=None: each input block (one row group, for the corpus
    # readers) is one call, which cuts its own passes; a batch size would
    # keep the read from fusing with this stage (Ray fuses no map whose
    # batch size needs rows that its upstream map may have reshaped)
    tok = ds.map_batches(
        TokenizeStage(cfg, text_col=text_col, id_col=id_col, key_col=key_col),
        batch_format="pyarrow", batch_size=None)
    # batches form from input blocks in arrival order; fixing that order
    # fixes the staged files' names and rows (the context is the one ``ds``
    # was made with, so this also orders any later run of ``ds``)
    tok.context.execution_options.preserve_order = True
    # NOTE: no min_rows_per_file here — it makes the Write operator
    # coalesce blocks into a couple of giant single-threaded parquet
    # encodes (measured 40s vs 6s at 200k docs); file granularity is
    # already governed by the upstream block size (one per row group)
    # OVERWRITE only allows names without the write uuid: ``tmp_dir`` was
    # just removed, so there is nothing for it to replace
    tok.write_parquet(tmp_dir, partition_cols=["kind", "gkey"],
                      filename_provider=_FirstDocName(),
                      mode=SaveMode.OVERWRITE)
    os.replace(tmp_dir, part_dir)
    # lineage + partition stats from the kind=l summary rows the
    # tokenize stage emitted (one per batch): the driver folds a few
    # hundred tiny rows — no re-scan of kind=m. XOR of batch XORs ==
    # XOR of the per-row hashes (associative/commutative), so the
    # resulting sha is identical to a row-level fold.
    lin_files = expand_parquet_files([os.path.join(part_dir, "kind=l")])
    acc = np.zeros(32, dtype=np.uint8)
    nrows = 0
    dl_total = 0
    for f in lin_files:
        t = pq.read_table(f, columns=["sha256", "doc_id", "tf"])
        for h in t["sha256"].to_pylist():
            acc ^= np.frombuffer(bytes.fromhex(h), dtype=np.uint8)
        dl_total += int(t["doc_id"].to_numpy(zero_copy_only=False).sum())
        nrows += int(t["tf"].to_numpy(zero_copy_only=False)
                     .astype(np.int64).sum())
    import hashlib as _hashlib
    sha = _hashlib.sha256(acc.tobytes()).hexdigest()
    man.mark_partition(pid, sha, nrows, dl_total, input_sha=in_sha)
    man.save()
    return True


@ray.remote
def _distinct_terms(files: list[str]) -> int:
    return pc.count_distinct(
        pads.dataset(files).to_table(columns=["term"])["term"]).as_py()


def distinct_terms_per_group(groups: list[list[str]]) -> list[int]:
    """Distinct terms of each group of segment files: one plain task per
    group that scans ONLY the term column, so one task's memory is that
    group's vocab slice. Shared by :func:`count_distinct_terms` (shards)
    and ``compact.fragmentation`` ((shard, salt) dirs)."""
    return ray.get([_distinct_terms.remote(g) for g in groups])


def count_distinct_terms(seg_dir: str, segments: list[str]) -> int:
    """Vocabulary size of the segment files ``segments`` (paths under
    ``seg_dir``): distinct terms counted per shard — terms never cross
    shards (at extreme vocab sizes swap in a sketch)."""
    by_shard: dict[int, list[str]] = {}
    for rel in segments:
        by_shard.setdefault(segment_dir_key(rel)[0], []).append(
            os.path.join(seg_dir, rel))
    return sum(distinct_terms_per_group(list(by_shard.values())))


def build_index(
    source,
    out_dir: str,
    cfg: EngineConfig = EngineConfig(),
    *,
    text_col: str = "text",
    id_col: str = "doc_id",
    key_col: str | None = None,
    partitions: list[tuple] | None = None,
    resume: bool = True,
    input_lineage: str | None = None,
) -> dict:
    """Build an inverted index under ``out_dir``.

    ``source``: a ``ray.data.Dataset`` (single build partition) — or pass
    ``partitions`` as ``[(partition_id, dataset), ...]`` for per-partition
    resumable builds (one entry per input shard; SURVEY.md I7).
    Returns the stats dict (also persisted to ``stats.json``).
    """
    import time as _time
    stage_secs: dict[str, float] = {}
    _t0 = _time.monotonic()
    os.makedirs(out_dir, exist_ok=True)
    man = Manifest.at(out_dir)
    if not resume:
        # give up the committed generation before its staged files go
        man.reset()
        man.save()
        shutil.rmtree(os.path.join(out_dir, "staged"), ignore_errors=True)
    man.set_params(config_params(cfg, text_col, id_col))

    if partitions is None:
        partitions = [("all", source, input_lineage)]
    # accept (pid, ds) or (pid, ds, input_sha); see file_lineage()
    partitions = [(p[0], p[1], p[2] if len(p) > 2 else None)
                  for p in partitions]

    # ---- stage A: tokenize per partition (resumable) ----
    any_rebuilt = False
    for pid, ds, in_sha in partitions:
        any_rebuilt |= stage_tokenize_partition(
            out_dir, man, pid, ds, cfg, text_col=text_col, id_col=id_col,
            key_col=key_col, in_sha=in_sha)

    stage_secs["tokenize"] = round(_time.monotonic() - _t0, 3)
    _t0 = _time.monotonic()

    # ---- stage C/D: shuffle-merge postings into segments, unless the
    # committed generation already holds exactly these partitions ----
    parts = sorted(man.data["partitions"])
    if any_rebuilt or parts != man.parts:
        # the staged write already partitioned postings by gkey: the merge is
        # one independent task per (shard, salt) group — no all-to-all
        # operator (Ray's sort shuffle showed 2x run-to-run wall variance
        # here). NO second exchange for salted terms either: a term's salt
        # runs stay as separate segment ROWS and the reader concats them at
        # load time (codec.concat_runs, zero decode). Round-1's eager
        # groupby(shard) merge cost 6.5s of the 2M-doc build for nothing.
        seg_dir = os.path.join(out_dir, "segments")
        rows = encode_segments(staged_dirs(out_dir, parts, "p"), seg_dir,
                               man.segment_name(), cfg.block_size)
        segments = list(rows)
        # one salt bucket: one row per (term, shard), so the rows written
        # ARE the vocabulary; otherwise count distinct terms per shard
        n_terms = sum(rows.values()) \
            if len({segment_dir_key(f)[1] for f in rows}) <= 1 \
            else count_distinct_terms(seg_dir, segments)
    else:
        segments, n_terms = man.segments, man.stats["num_terms"]
    stage_secs["merge"] = round(_time.monotonic() - _t0, 3)

    # ---- global stats (I4): folded from the manifest's per-partition
    # (rows, total_len), recorded by the lineage pass — no re-read of the
    # meta files ----
    stats = man.fold_stats(n_terms, parts)
    stats["stage_secs"] = stage_secs
    return man.commit(stats, segments, parts)
