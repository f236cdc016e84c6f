"""Code-corpus source with deterministic dense doc-id assignment.

The reference relies on Lucene doc offsets == insertion order ("In MSMARCO,
Lucene doc offsets and ids are identical", reference:
src/main/java/retrieval/SupervisedRLM.java:74). Our equivalent (SURVEY.md I1)
assigns ``doc_id = file_base_offset + row_position`` where file base offsets
are a prefix sum of per-file row counts taken from **Parquet footer metadata
only** (no data read) over the lexicographically sorted file list. This is:

* deterministic across runs and across parallelism levels (no Date/random);
* scalable: the driver touches only footers; each task reads one row group
  (a Read operator, so a downstream map that takes whole blocks — the
  tokenize stage — fuses with it into one task per row group, while a
  batch-sized one cannot bundle row groups into one read task);
* dense: ids are [0, N) so doc-length lookups are plain array indexing.

Input schema per BASELINE.json input_hint:
``(repo:string, path:string, commit:string, lang:string, content:string)``.
Adds ``doc_id:int64`` and ``doc_key = repo || "/" || path || "@" || commit``.
"""

from __future__ import annotations

import glob
import os
from functools import partial

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import ray.data as rd
from ray.data.block import BlockMetadata
from ray.data.datasource import Datasource, ReadTask


def _expand(paths: str | list[str]) -> list[str]:
    if isinstance(paths, str):
        paths = [paths]
    files: list[str] = []
    for p in paths:
        if os.path.isdir(p):
            files.extend(glob.glob(os.path.join(p, "**", "*.parquet"), recursive=True))
        else:
            files.append(p)
    return sorted(files)


def corpus_file_plan(paths: str | list[str]) -> list[dict]:
    """One descriptor per parquet row group, with its global row offset."""
    files = _expand(paths)
    plan = []
    base = 0
    for f in files:
        md = pq.read_metadata(f)
        for rg in range(md.num_row_groups):
            nrows = md.row_group(rg).num_rows
            plan.append({"file": f, "row_group": rg, "base": base, "rows": nrows})
            base += nrows
    return plan


def _read_one(reader, desc: dict) -> list[pa.Table]:
    return [reader(pa.Table.from_pylist([desc]))]


class _PlanDatasource(Datasource):
    """One read task per descriptor of ``plan`` (a row group, or a file),
    which runs ``reader`` on it. A read, unlike a map, may change the row
    count, so Ray never fuses a batch-sized map behind it (which would
    bundle descriptors into one task to fill a batch), yet it does fuse a
    map that takes whole blocks: with the tokenize stage behind it, one
    task reads and tokenizes a descriptor, with no object-store hop."""

    def __init__(self, plan: list[dict], reader, name: str) -> None:
        self._plan, self._reader, self._name = plan, reader, name

    def get_name(self) -> str:
        return self._name

    def estimate_inmemory_data_size(self) -> None:
        return None

    def get_read_tasks(self, parallelism: int, **_) -> list[ReadTask]:
        return [ReadTask(partial(_read_one, self._reader, p), BlockMetadata(
            num_rows=p["rows"], size_bytes=None, input_files=[p["file"]],
            exec_stats=None)) for p in self._plan]


def _read_plan(plan: list[dict], reader, name: str) -> rd.Dataset:
    return rd.read_datasource(_PlanDatasource(plan, reader, name),
                              override_num_blocks=len(plan))


class _ReadRowGroup:
    """Reads one row group and attaches doc_id / doc_key columns."""

    def __init__(self, columns: list[str] | None, key_cols: tuple[str, ...]):
        self.columns = columns
        self.key_cols = key_cols

    def __call__(self, batch: pa.Table) -> pa.Table:
        out = []
        for row in batch.to_pylist():
            t = pq.ParquetFile(row["file"]).read_row_group(
                row["row_group"], columns=self.columns)
            doc_id = pa.array(row["base"] + np.arange(t.num_rows, dtype=np.int64))
            t = t.append_column("doc_id", doc_id)
            if all(c in t.column_names for c in self.key_cols):
                r, p, c = self.key_cols
                # repo + "/" + path + "@" + commit
                key = pc.binary_join_element_wise(
                    pc.binary_join_element_wise(
                        pc.cast(t[r], pa.string()), pc.cast(t[p], pa.string()), "/"),
                    pc.cast(t[c], pa.string()), "@")
                t = t.append_column("doc_key", key)
            out.append(t)
        return pa.concat_tables(out)


def tsv_file_plan(paths: str | list[str]) -> list[dict]:
    """One descriptor per TSV file with its global line offset. Line counts
    come from one parallel counting pass (newline scan per file) — the
    price of dense deterministic ids over a format with no row metadata;
    Parquet corpora get this from footers for free (corpus_file_plan)."""
    if isinstance(paths, str):
        paths = [paths]
    files: list[str] = []
    for p in paths:
        if os.path.isdir(p):
            files.extend(glob.glob(os.path.join(p, "**", "*.tsv"),
                                   recursive=True))
        else:
            files.append(p)
    files = sorted(files)

    def count_lines(batch: pa.Table) -> pa.Table:
        ns = []
        for f in batch["file"].to_pylist():
            n = 0
            last = b""          # reset per file: an empty file counts 0
            with open(f, "rb") as fh:
                while chunk := fh.read(1 << 22):
                    n += chunk.count(b"\n")
                    last = chunk
            if last and not last.endswith(b"\n"):
                n += 1                          # unterminated final line
            ns.append(n)
        return pa.table({"file": batch["file"], "rows": pa.array(ns)})

    counts = rd.from_items([{"file": f} for f in files],
                           override_num_blocks=max(1, len(files))) \
        .map_batches(count_lines, batch_format="pyarrow", batch_size=1) \
        .to_pandas().set_index("file")["rows"]
    plan, base = [], 0
    for f in files:
        n = int(counts[f])
        plan.append({"file": f, "base": base, "rows": n})
        base += n
    return plan


class _ReadTsvFile:
    """One TSV file (``docid \\t text``, the reference's MSMARCO format —
    MsMarcoIndexer.java:67-80) → (docid, content, doc_id, doc_key)."""

    def __call__(self, batch: pa.Table) -> pa.Table:
        out = []
        for row in batch.to_pylist():
            with open(row["file"], encoding="utf-8") as fh:
                lines = fh.read().splitlines()
            pairs = [ln.split("\t", 1) for ln in lines]
            docid = pa.array([p[0] for p in pairs], pa.string())
            text = pa.array([p[1] if len(p) > 1 else "" for p in pairs],
                            pa.string())
            ids = pa.array(row["base"]
                           + np.arange(len(lines), dtype=np.int64))
            out.append(pa.table({"docid": docid, "content": text,
                                 "doc_id": ids, "doc_key": docid}))
        return pa.concat_tables(out)


def read_tsv_corpus(paths: str | list[str]) -> rd.Dataset:
    """S1's TSV side: the reference's ``docid \\t text`` collection files →
    Dataset(docid, content, doc_id, doc_key) with deterministic dense ids
    (global line order over the lexicographically sorted file list) —
    identical at any parallelism, like the parquet reader."""
    plan = tsv_file_plan(paths)
    if not plan:
        raise FileNotFoundError(f"no TSV files under {paths!r}")
    return _read_plan(plan, _ReadTsvFile(), "TsvFile")


def read_code_corpus(paths: str | list[str], columns: list[str] | None = None,
                     key_cols: tuple[str, str, str] = ("repo", "path", "commit"),
                     id_offset: int = 0) -> rd.Dataset:
    """Dataset over the code corpus with deterministic ``doc_id``/``doc_key``.

    ``columns`` prunes at the read (pass only what the stage needs, e.g.
    ``["content"]`` + key cols for an index build). ``id_offset`` shifts
    every doc_id — an incremental append reads its delta corpus with
    ``id_offset = index num_docs`` so ids stay dense across appends.
    """
    plan = corpus_file_plan(paths)
    if not plan:
        raise FileNotFoundError(f"no parquet files under {paths!r}")
    if id_offset:
        plan = [{**p, "base": p["base"] + int(id_offset)} for p in plan]
    cols = columns
    if cols is not None:
        cols = sorted(set(cols) | set(key_cols))
    return _read_plan(plan, _ReadRowGroup(cols, key_cols), "RowGroup")
