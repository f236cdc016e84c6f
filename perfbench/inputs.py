"""Seeded benchmark inputs: the synthetic corpus as Parquet files, and the
query sets drawn from its own term statistics.

The corpus comes from ``synth.generate_corpus`` at the workload seed and is
cached on disk under the benchmark's work directory, keyed by
``(SYNTH_VERSION, seed, sizes)``; the program only ever receives the
written files. Every file is identified by its sha256 in the result, so a
change to the generator cannot silently change a workload.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq


def _sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


class Corpus:
    """``n_base`` documents split over ``n_files`` base files, then
    ``n_slices`` append slices of ``slice_docs`` documents each. Row order
    is doc-id order: base file rows first, then slice 0, slice 1, ..."""

    def __init__(self, root: str, meta: dict, table: pa.Table):
        self.root = root
        self.meta = meta
        self.table = table
        self.base_files = [os.path.join(root, f) for f in meta["base_files"]]
        self.slice_files = [os.path.join(root, f) for f in meta["slice_files"]]

    def input_bytes(self, n_slices: int = 0) -> int:
        return sum(os.path.getsize(f)
                   for f in self.base_files + self.slice_files[:n_slices])

    def identity(self) -> dict:
        return {"seed": self.meta["seed"],
                "synth_version": self.meta["synth_version"],
                "sha256": self.meta["sha256"]}


def make_corpus(cache_dir: str, seed: int, n_base: int, n_files: int,
                n_slices: int = 0, slice_docs: int = 0) -> Corpus:
    from lucene_msmarco_ray.synth import SYNTH_VERSION, generate_corpus

    name = (f"corpus-v{SYNTH_VERSION}-s{seed}-n{n_base}x{n_files}"
            f"-a{n_slices}x{slice_docs}")
    root = os.path.join(cache_dir, name)
    meta_path = os.path.join(root, "meta.json")
    if not os.path.exists(meta_path):
        tmp = root + ".tmp"
        shutil.rmtree(tmp, ignore_errors=True)
        os.makedirs(tmp)
        tbl = generate_corpus(n_base + n_slices * slice_docs, seed=seed)
        per = -(-n_base // n_files)
        base_files, slice_files = [], []
        for i in range(n_files):
            f = f"base-{i:04d}.parquet"
            pq.write_table(tbl.slice(i * per, min(per, n_base - i * per)),
                           os.path.join(tmp, f), row_group_size=8192)
            base_files.append(f)
        for i in range(n_slices):
            f = f"slice-{i:04d}.parquet"
            pq.write_table(tbl.slice(n_base + i * slice_docs, slice_docs),
                           os.path.join(tmp, f), row_group_size=8192)
            slice_files.append(f)
        meta = {"seed": seed, "synth_version": SYNTH_VERSION,
                "n_base": n_base, "slice_docs": slice_docs,
                "base_files": base_files, "slice_files": slice_files,
                "sha256": {f: _sha256(os.path.join(tmp, f))
                           for f in base_files + slice_files}}
        with open(os.path.join(tmp, "meta.json"), "w") as f:
            json.dump(meta, f, indent=1)
        shutil.rmtree(root, ignore_errors=True)
        os.replace(tmp, root)
    with open(meta_path) as f:
        meta = json.load(f)
    files = [os.path.join(root, f)
             for f in meta["base_files"] + meta["slice_files"]]
    for f in files:
        if _sha256(f) != meta["sha256"][os.path.basename(f)]:
            raise RuntimeError(f"cached input {f} does not match its sha256")
    table = pa.concat_tables(pq.read_table(f) for f in files)
    return Corpus(root, meta, table)


# queries drawn per query kept. Over ten seeds of the serve set, the total
# df of the middle query varied by 23% (coefficient of variation) with 20,
# and by 9% with 100.
POOL_FACTOR = 100


def make_queries(oracle, n_docs: int, n_queries: int, seed: int,
                 selective_share: float) -> pa.Table:
    """``selective_share`` of the queries hold 2-4 distinct rare terms
    (1 <= df < 1% of ``n_docs``), the rest 2-8 terms drawn with replacement
    in proportion to corpus frequency. Each term is written as one raw
    corpus token that analyzes to it, so every query matches documents.

    Query cost grows with the postings a query touches, and a handful of
    expensive queries would otherwise decide a run's throughput. Each kind
    is therefore drawn as a pool ``POOL_FACTOR`` times larger, sorted by
    total df, and sampled at evenly spaced ranks: every seed gets the same
    mix of cheap and expensive queries, and only which terms varies."""
    rng = np.random.default_rng([seed, 7])
    df, cf = oracle.term_df_cf(n_docs)
    rare = np.flatnonzero((df >= 1) & (df < 0.01 * n_docs))
    live = np.flatnonzero(df >= 1)
    p = cf[live] / cf[live].sum()
    n_sel = int(round(n_queries * selective_share))
    chosen = []
    for kind, count in (("selective", n_sel), ("broad", n_queries - n_sel)):
        pool = []
        for _ in range(count * POOL_FACTOR):
            if kind == "selective":
                codes = rng.choice(rare, int(rng.integers(2, 5)),
                                   replace=False)
            else:
                codes = rng.choice(live, int(rng.integers(2, 9)), p=p)
            pool.append((int(df[np.unique(codes)].sum()), len(pool), codes))
        pool.sort(key=lambda t: t[:2])
        step = len(pool) / max(count, 1)
        chosen += [(kind, pool[int((i + 0.5) * step)][2])
                   for i in range(count)]
    order = rng.permutation(n_queries)
    return pa.table({
        "qid": pa.array([f"q{i}" for i in range(n_queries)], pa.string()),
        "text": pa.array([" ".join(oracle.raw_form[c]
                                   for c in chosen[j][1]) for j in order],
                         pa.string()),
        "kind": pa.array([chosen[j][0] for j in order], pa.string()),
    })
