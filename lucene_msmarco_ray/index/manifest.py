"""An index's config and commit record: the one module that knows how
they are stored.

The reference's whole resume story is "refuse if the index dir is non-empty"
(reference: src/main/java/indexing/MsMarcoIndexer.java:49-52) and "reuse
model.tsv if present" (src/main/java/retrieval/SupervisedRLM.java:378-386).
Per the north rule we do real checkpointing (SURVEY.md I7):

* every build partition (a group of input row-groups) records the
  order-independent sha256 of its rows' content hashes, its row count, and a
  status; a rerun skips partitions whose lineage sha and build params match;
* the merge (shuffle) stage records completion; it is idempotent — outputs
  land in a temp dir and are renamed into place;
* the manifest (``manifest.json``) holds the build params — the
  ``EngineConfig`` fields that shape the index (:func:`config_params`) —
  and the stats; :meth:`Manifest.commit` saves it and then writes the same
  stats to ``stats.json``, the file readers open (:func:`read_stats`).
  Both land through a temp file and ``os.replace``, so a crash leaves the
  previous version of each.

Build, append and compaction write through :class:`Manifest`; readers use
:func:`read_stats` and :func:`term_totals`.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict, fields
from typing import Any

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.dataset as pads

from ..config import EngineConfig

MANIFEST_FILE = "manifest.json"
STATS_FILE = "stats.json"
# bump to invalidate indexes whose on-disk layout predates a change
# (2: segments partitioned by (shard, salt) + salt column;
#  3: kind=l per-batch lineage summary rows in the staged write)
SEGMENT_LAYOUT = 3
# config fields that tune how a build runs, not what it writes
_RUN_ONLY = ("tokenize_batch_size",)


def config_params(cfg: EngineConfig, text_col: str, id_col: str) -> dict:
    """The manifest ``params`` of a build: every config field that shapes
    the index, the input columns and the layout version."""
    params = {k: v for k, v in asdict(cfg).items() if k not in _RUN_ONLY}
    return {**params, "text_col": text_col, "id_col": id_col,
            "segment_layout": SEGMENT_LAYOUT}


def config_from_params(params: dict) -> EngineConfig:
    """The config a manifest's ``params`` were made from, so an append can
    never tokenize with a different analysis chain than the build."""
    return EngineConfig(**{f.name: params[f.name] for f in fields(EngineConfig)
                           if f.name in params})


def _write_json(path: str, obj: Any, **kw) -> None:
    tmp = path + ".tmp"
    with open(tmp, "w") as f:
        json.dump(obj, f, **kw)
    os.replace(tmp, path)


def _empty() -> dict[str, Any]:
    return {"params": None, "partitions": {},
            "merge": {"status": "pending"}, "stats": None}


class Manifest:
    def __init__(self, path: str):
        self.path = path
        self.data = _empty()
        if os.path.exists(path):
            with open(path) as f:
                self.data = json.load(f)

    @classmethod
    def at(cls, index_dir: str) -> "Manifest":
        return cls(os.path.join(index_dir, MANIFEST_FILE))

    def save(self) -> None:
        _write_json(self.path, self.data, indent=1, sort_keys=True)

    # --- params ---
    @property
    def params(self) -> dict | None:
        return self.data.get("params")

    def reset(self) -> None:
        self.data = _empty()

    def set_params(self, params: dict) -> None:
        if self.params not in (None, params):
            # params changed → all prior work is invalid
            self.reset()
        self.data["params"] = params

    # --- tokenize partitions ---
    def partition_done(self, pid: str, input_sha: str | None = None) -> bool:
        """Done AND (when given) built from the same input lineage — a
        partition whose input changed re-runs instead of silently serving
        stale output (round-1 review: resume skipped on status alone)."""
        p = self.data["partitions"].get(pid)
        if p is None or p.get("status") != "done":
            return False
        return input_sha is None or p.get("input_sha") == input_sha

    def mark_partition(self, pid: str, sha: str, rows: int, total_len: int,
                       input_sha: str | None = None) -> None:
        self.data["partitions"][pid] = {
            "status": "done", "sha": sha, "rows": rows,
            "input_sha": input_sha, "total_len": int(total_len)}

    # --- merge stage ---
    @property
    def merge_done(self) -> bool:
        return self.data["merge"].get("status") == "done"

    def mark_merge(self, done: bool = True) -> None:
        self.data["merge"] = {"status": "done" if done else "pending"}

    # --- stats + commit ---
    @property
    def stats(self) -> dict | None:
        return self.data.get("stats")

    def fold_stats(self, num_terms: int) -> dict:
        """The index's stats: document totals summed over EVERY partition
        (build and append alike — a resumed build must not shrink them back
        to its own inputs) plus the layout fields readers need."""
        p = self.params
        parts = self.data["partitions"].values()
        ndocs = sum(int(x["rows"]) for x in parts)
        total_len = sum(int(x["total_len"]) for x in parts)
        bucket = int(p["salt_docs_per_bucket"])
        return {
            "num_docs": ndocs, "total_len": total_len,
            "avgdl": (total_len / ndocs) if ndocs else 0.0,
            "num_shards": p["num_shards"],
            "n_salt": max(1, -(-ndocs // bucket)),
            "salt_docs_per_bucket": bucket, "block_size": p["block_size"],
            "analyzer": p["analyzer"],
            "normalize_numbers": p["normalize_numbers"],
            "stopword_file": p["stopword_file"],
            "num_terms": int(num_terms),
            "fwd_bucket_docs": int(p["fwd_docs_per_bucket"]),
        }

    def commit(self, stats: dict) -> dict:
        """Save the manifest with ``stats``, then write them to
        ``stats.json`` — the one writer of that file. Returns ``stats``."""
        self.data["stats"] = stats
        self.save()
        _write_json(os.path.join(os.path.dirname(self.path), STATS_FILE),
                    stats, indent=1)
        return stats


def _sentinel_path(index_dir: str) -> str:
    return os.path.join(index_dir, "segments.compact.inprogress")


def _sentinel_live(path: str) -> bool:
    """True iff the sentinel names a compaction that may still be
    running. Same-host pids are probed with kill(0); a sentinel written
    on ANOTHER host can't be probed, so it is conservatively treated as
    live (fail loud rather than race a cross-node writer)."""
    import socket
    try:
        with open(path) as f:
            info = json.load(f)
    except (OSError, ValueError):
        return False
    if info.get("host") != socket.gethostname():
        return True
    try:
        os.kill(int(info["pid"]), 0)
        return True
    except (OSError, ValueError, TypeError):
        return False


def _recover_interrupted(index_dir: str, writer: bool = False) -> None:
    """Restore a crashed compaction's backup so a reader never serves a
    missing/empty segments dir. The seg→bak→tmp swap in
    ``compact.compact_index`` is not atomic, so a reader that opens inside
    the swap window would otherwise restore the backup out from under
    the LIVE writer (whose final ``os.replace`` then fails on a
    non-empty dir). Recovery is therefore gated on the writer's
    sentinel: while it names a live process, readers raise instead of
    recovering; once the process is dead (or the sentinel absent — a
    hard kill before the swap), recovery proceeds. ``writer=True``
    (only ``compact_index``, which holds the single-writer contract)
    recovers unconditionally."""
    seg = os.path.join(index_dir, "segments")
    bak = seg + ".pre-compact"
    if os.path.isdir(bak) and not os.path.isdir(seg):
        sent = _sentinel_path(index_dir)
        if not writer and os.path.exists(sent) and _sentinel_live(sent):
            raise RuntimeError(
                f"compaction of {index_dir} is in progress (sentinel "
                f"{sent}); readers must not open mid-swap — retry after "
                "it completes, or remove the sentinel if the writer is "
                "known dead")
        os.replace(bak, seg)
    if writer:
        try:
            os.remove(_sentinel_path(index_dir))
        except OSError:
            pass


def read_stats(index_dir: str) -> dict:
    """The committed stats of the index at ``index_dir`` — the one reader
    of ``stats.json``. A compaction that crashed between its two renames
    is recovered first, so a reader never opens a missing segment tree."""
    _recover_interrupted(index_dir)
    with open(os.path.join(index_dir, STATS_FILE)) as f:
        return json.load(f)


def term_totals(index_dir: str, terms=None) -> pa.Table:
    """(term, df, cf) summed over a term's runs, sorted by term — a term's
    salt and append runs are separate segment rows. ``terms`` limits the
    read to those terms (a term-filtered read of the metadata columns; no
    posting bytes leave storage)."""
    flt = None if terms is None else pc.field("term").isin(list(terms))
    return pads.dataset(os.path.join(index_dir, "segments")).to_table(
        columns=["term", "df", "cf"], filter=flt) \
        .group_by("term").aggregate([("df", "sum"), ("cf", "sum")]) \
        .rename_columns(["term", "df", "cf"]).sort_by("term")
