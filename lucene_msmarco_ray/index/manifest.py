"""Build manifest: per-partition sha256 lineage + resumable checkpoints.

The reference's whole resume story is "refuse if the index dir is non-empty"
(reference: src/main/java/indexing/MsMarcoIndexer.java:49-52) and "reuse
model.tsv if present" (src/main/java/retrieval/SupervisedRLM.java:378-386).
Per the north rule we do real checkpointing (SURVEY.md I7):

* every build partition (a group of input row-groups) records the
  order-independent sha256 of its rows' content hashes, its row count, and a
  status; a rerun skips partitions whose lineage sha and build params match;
* the merge (shuffle) stage records completion per segment directory; it is
  idempotent — outputs land in a temp dir and are renamed into place;
* the manifest itself is written atomically (tmp + rename).
"""

from __future__ import annotations

import json
import os
from typing import Any


class Manifest:
    def __init__(self, path: str):
        self.path = path
        self.data: dict[str, Any] = {"params": None, "partitions": {},
                                     "merge": {"status": "pending"},
                                     "stats": None}
        if os.path.exists(path):
            with open(path) as f:
                self.data = json.load(f)

    def save(self) -> None:
        tmp = self.path + ".tmp"
        with open(tmp, "w") as f:
            json.dump(self.data, f, indent=1, sort_keys=True)
        os.replace(tmp, self.path)

    # --- params ---
    def set_params(self, params: dict) -> None:
        if self.data.get("params") not in (None, params):
            # params changed → all prior work is invalid
            self.data = {"params": params, "partitions": {},
                         "merge": {"status": "pending"}, "stats": None}
        else:
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

    def mark_partition(self, pid: str, sha: str, rows: int,
                       files: list[str], total_len: int,
                       input_sha: str | None = None) -> None:
        self.data["partitions"][pid] = {
            "status": "done", "sha": sha, "rows": rows, "files": files,
            "input_sha": input_sha, "total_len": int(total_len)}

    # --- merge stage ---
    @property
    def merge_done(self) -> bool:
        return self.data["merge"].get("status") == "done"

    def mark_merge(self, num_shards: int, metrics: dict | None = None) -> None:
        self.data["merge"] = {"status": "done", "num_shards": num_shards,
                              "metrics": metrics or {}}

    def set_stats(self, stats: dict) -> None:
        self.data["stats"] = stats
