"""An index's config and commit record: the one module that knows how
they are stored and which files a reader may open.

The reference's whole resume story is "refuse if the index dir is non-empty"
(reference: src/main/java/indexing/MsMarcoIndexer.java:49-52) and "reuse
model.tsv if present" (src/main/java/retrieval/SupervisedRLM.java:378-386).
Per the north rule we do real checkpointing (SURVEY.md I7): every build
partition (a group of input row-groups) records the order-independent
sha256 of its rows' content hashes, its row count, and a status; a rerun
skips partitions whose lineage sha and build params match.

The manifest (``manifest.json``) is the index's one commit record, like
Lucene's ``segments_N``: the build params (:func:`config_params`), the
partition checkpoints and the current generation — its number, the
segment files and staged partitions it lists, and its stats. Build,
append and compaction write new segment files into the live
``segments/shard=S/salt=K/`` tree under the next generation's name
(:meth:`Manifest.segment_name`), which no commit lists; then
:meth:`Manifest.commit` publishes them with ONE ``os.replace`` of the
manifest, deletes the segment files the generation does not list and
writes ``stats.json``, a view of the stats. A crash at any write leaves
the previous generation or the new one, and a re-run finishes the step.
Readers open a :class:`Commit` and read exactly what it lists, so files
written after it are invisible to them. One writer at a time per index.
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
#  3: kind=l per-batch lineage summary rows in the staged write;
#  4: the manifest lists the committed segment files and partitions)
SEGMENT_LAYOUT = 4
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


def _empty(generation: int = 0) -> dict[str, Any]:
    return {"params": None, "partitions": {}, "generation": generation,
            "segments": [], "parts": [], "stats": None}


def segment_dir_key(rel: str) -> tuple[int, int]:
    """(shard, salt) of a segment path ``shard=S/salt=K[/<name>]``."""
    shard, salt = rel.split("/")[:2]
    return int(shard.split("=", 1)[1]), int(salt.split("=", 1)[1])


def staged_dirs(index_dir: str, parts, kind: str) -> list[str]:
    """The ``kind=`` dirs of the staged partitions ``parts`` that hold
    rows of that kind."""
    dirs = (os.path.join(index_dir, "staged", f"part={p}", f"kind={kind}")
            for p in sorted(parts))
    return [d for d in dirs if os.path.isdir(d)]


def pads_dirs(dirs: list[str]) -> pads.Dataset:
    """pyarrow dataset over a list of directories (pads.dataset() itself only
    accepts one dir, or a list of files/datasets)."""
    if len(dirs) == 1:
        return pads.dataset(dirs[0])
    return pads.dataset([pads.dataset(d) for d in dirs])


def gkey_dirs(pdirs: list[str]) -> dict[int, list[str]]:
    """gkey → its ``gkey=K`` directories across the staged ``kind=`` dirs
    ``pdirs`` (one per build partition that wrote the key)."""
    out: dict[int, list[str]] = {}
    for pdir in pdirs:
        for entry in sorted(os.listdir(pdir)):
            if entry.startswith("gkey="):
                out.setdefault(int(entry.split("=", 1)[1]), []).append(
                    os.path.join(pdir, entry))
    return out


class Manifest:
    """The writers' view of the manifest: checkpoints and commits."""

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
        # the generation count goes on: a new file never takes an old name
        self.data = _empty(self.data.get("generation", 0))

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

    # --- the committed generation ---
    @property
    def stats(self) -> dict | None:
        return self.data.get("stats")

    @property
    def segments(self) -> list[str]:
        return self.data["segments"]

    @property
    def parts(self) -> list[str]:
        return self.data["parts"]

    @property
    def committed(self) -> bool:
        """True iff a generation of the current layout is committed."""
        return self.stats is not None and (self.params or {}).get(
            "segment_layout") == SEGMENT_LAYOUT

    def segment_name(self) -> str:
        """The name a writer gives the segment files its commit will
        publish: the next generation's number, which no commit lists."""
        return f"g{self.data['generation'] + 1}.parquet"

    def fold_stats(self, num_terms: int, parts: list[str]) -> dict:
        """The stats of a generation holding the partitions ``parts``:
        document totals summed over them (build and append alike — a
        resumed build must not shrink them back to its own inputs) plus
        the layout fields readers need."""
        p = self.params
        rows = [self.data["partitions"][pid] for pid in parts]
        ndocs = sum(int(x["rows"]) for x in rows)
        total_len = sum(int(x["total_len"]) for x in rows)
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

    def commit(self, stats: dict, segments: list[str],
               parts: list[str]) -> dict:
        """Publish the generation holding the segment files ``segments``
        (paths under ``segments/``) and the staged partitions ``parts``,
        with ``stats``: one atomic save of the manifest. Its number goes
        up when the files differ from the current generation's. Then
        delete the segment files it does not list and write the
        ``stats.json`` view. Returns ``stats``."""
        segments, parts = sorted(segments), sorted(parts)
        if (segments, parts) != (self.segments, self.parts):
            self.data["generation"] += 1
        self.data.update(stats=stats, segments=segments, parts=parts)
        self.save()
        index_dir = os.path.dirname(self.path)
        seg_dir = os.path.join(index_dir, "segments")
        keep = set(segments)
        for root, _, fs in os.walk(seg_dir):
            for f in fs:
                path = os.path.join(root, f)
                if os.path.relpath(path, seg_dir) not in keep:
                    os.remove(path)
        _write_json(os.path.join(index_dir, STATS_FILE), stats, indent=1)
        return stats


class Commit:
    """The committed generation of an index as a reader sees it, read
    once: every later read of the reader opens only what it lists, so a
    reader sees one generation whatever a writer does meanwhile."""

    def __init__(self, index_dir: str):
        man = Manifest.at(index_dir)
        if man.stats is None:
            raise FileNotFoundError(f"{index_dir} holds no committed index")
        if not man.committed:
            raise ValueError(f"{index_dir} was written in an older index "
                             "layout; rebuild it")
        self.index_dir = index_dir
        self.params = man.params
        self.stats = man.stats
        self.parts = man.parts
        self._segments = man.segments

    def segment_files(self, shards=None, salt: int | None = None
                      ) -> list[str]:
        """Paths of the listed segment files — only those of the shards
        ``shards`` and the salt bucket ``salt`` when given."""
        seg_dir = os.path.join(self.index_dir, "segments")
        keys = map(segment_dir_key, self._segments)
        return [os.path.join(seg_dir, rel)
                for rel, (sh, sa) in zip(self._segments, keys)
                if (shards is None or sh in shards) and salt in (None, sa)]

    def read_segments(self, shards=None, salt: int | None = None,
                      **kw) -> pa.Table:
        """The listed segment rows (of ``shards``/``salt`` when given;
        an empty table when no file is listed there); ``kw`` goes to
        ``Dataset.to_table`` (``columns``, ``filter``)."""
        files = self.segment_files(shards, salt)
        return pads.dataset(files).to_table(**kw) if files else pa.table({})

    def doc_meta(self, filter=None) -> pa.Table:
        """(doc_id, dl) rows of the listed partitions."""
        return pads_dirs(staged_dirs(self.index_dir, self.parts, "m")) \
            .to_table(columns=["doc_id", "dl"], filter=filter)

    def term_totals(self, terms=None) -> pa.Table:
        """(term, df, cf) summed over a term's runs, sorted by term — a
        term's salt and append runs are separate segment rows. ``terms``
        limits the read to those terms (a term-filtered read of the
        metadata columns; no posting bytes leave storage)."""
        flt = None if terms is None else pc.field("term").isin(list(terms))
        return self.read_segments(columns=["term", "df", "cf"], filter=flt) \
            .group_by("term").aggregate([("df", "sum"), ("cf", "sum")]) \
            .rename_columns(["term", "df", "cf"]).sort_by("term")

    def fwd_bucket_dirs(self) -> dict[int, list[str]]:
        """doc-bucket → directories of the forward index (kind=f rows)
        across the listed partitions. A bucket's term vectors are the
        union of its dirs (one per partition that saw docs of that
        range)."""
        out = gkey_dirs(staged_dirs(self.index_dir, self.parts, "f"))
        if not out and self.params.get("emit_fwd") is False:
            raise RuntimeError(
                f"index {self.index_dir} was built with emit_fwd=False — "
                "term-vector / feedback operators need a forward index; "
                "rebuild with EngineConfig(emit_fwd=True)")
        return out


def read_stats(index_dir: str) -> dict:
    """The committed stats of the index at ``index_dir``."""
    return Commit(index_dir).stats


def term_totals(index_dir: str, terms=None) -> pa.Table:
    """(term, df, cf) of the committed index: :meth:`Commit.term_totals`."""
    return Commit(index_dir).term_totals(terms)
