"""Engine configuration: the options that shape an index build.

Mirrors the index-side part of the reference's properties-file surface
(reference: src/main/java/experiments/SettingsLoader.java:52-64 — index.dir
and the analysis knobs) as a single dataclass. The build records these
fields in the index manifest (``index.manifest.config_params``) and an
append rebuilds its config from there.

Scorer parameters are not config: BM25 ``k1``/``b`` and LM-Dirichlet ``mu``
are call arguments to ``search.service.retrieve`` and ``SearcherPool``
(BASELINE.json uses k1=0.7, b=0.3; the reference's only explicit constants
are k1=1.2, b=0.75 — reference: src/main/java/indexing/SparseVecWriter.java:157),
and so is the retrieval depth ``k``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace


@dataclass(frozen=True)
class EngineConfig:
    # --- analysis chain (reference: indexing/MsMarcoIndexer.java:25-46) ---
    analyzer: str = "english"          # "english" | "whitespace" | "simple"
    normalize_numbers: bool = True     # the _NUM_ rule (MsMarcoIndexer.java:62-64)
    stopword_file: str | None = None   # custom stop list (reference ships stop.txt)

    # --- index layout ---
    num_shards: int = 8                # term shards: hash(term) % num_shards
    block_size: int = 128              # postings per block-max block
    # Salted two-stage posting merge: terms whose df exceeds this many docs in
    # one build partition are split into doc-range salt buckets (SURVEY.md I6).
    salt_docs_per_bucket: int = 1 << 18

    # Forward index (per-doc term vectors) partitioned by doc-id range:
    # bucket = doc_id // fwd_docs_per_bucket. Sized so one bucket's rows are
    # a comfortable single read (~65k docs × ~60 terms ≈ 4M small rows).
    fwd_docs_per_bucket: int = 1 << 16
    # Emit the forward index during the build (kind=f rows in the same
    # tokenize pass / partitioned write). It roughly doubles the staged
    # write volume; indexes that never run the feedback/QPP family
    # (term_vectors readers) can turn it off.
    emit_fwd: bool = True

    # --- build (not recorded in the manifest: it changes no output) ---
    tokenize_batch_size: int = 1024

    def with_(self, **kw) -> "EngineConfig":
        return replace(self, **kw)
