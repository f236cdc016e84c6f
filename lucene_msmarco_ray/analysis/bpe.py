"""Byte-pair-encoding tokenization (T7) — the reference trains a YouTokenToMe
BPE model, encodes the corpus/queries to subwords, strips the ▁ word markers,
and indexes the encoded text with the whitespace analyzer
(reference: tokenization/bpe_msmarco.sh:1-45). Rebuilt here from the public
algorithm (Sennrich, Haddow & Birch 2016, "Neural Machine Translation of Rare
Words with Subword Units") with the YTTM ▁ word-start convention:

* word → symbols: characters, first character prefixed with ▁;
* training: repeatedly merge the most frequent adjacent symbol pair, with a
  deterministic (-freq, pair) tie-break (the reference's yttm ties are
  implementation-defined — flagged deviation);
* encoding: apply learned merges lowest-rank-first, memoized per word;
* ``strip_marker=True`` (default) reproduces the reference's ``sed 's/▁//g'``
  so the downstream whitespace analyzer sees bare subwords; markers kept
  make ``decode(encode(x))`` the exact whitespace-normalized input (the
  property the gate oracle checks in SQL).

Word-frequency collection is a Ray pipeline (vectorized per-batch counts →
one (word, freq) groupby); merge learning is inherently sequential and runs
on the driver over the bounded word-frequency table (cap via ``max_words``).
Application is an actor-pool ``map_batches`` stage — the model loads once per
actor, per-word encodings are memoized.
"""

from __future__ import annotations

import json

import numpy as np
import pandas as pd
import pyarrow as pa

MARKER = "▁"   # ▁ — YTTM word-start marker


class BpeModel:
    def __init__(self, merges: list[tuple[str, str]]):
        self.merges = [tuple(m) for m in merges]
        self.ranks = {pair: i for i, pair in enumerate(self.merges)}
        self._cache: dict[str, tuple[str, ...]] = {}

    # --- encode ---
    def encode_word(self, word: str) -> tuple[str, ...]:
        hit = self._cache.get(word)
        if hit is not None:
            return hit
        syms = [MARKER + word[0]] + list(word[1:]) if word else []
        ranks = self.ranks
        while len(syms) > 1:
            best, best_rank = -1, None
            for i in range(len(syms) - 1):
                r = ranks.get((syms[i], syms[i + 1]))
                if r is not None and (best_rank is None or r < best_rank):
                    best, best_rank = i, r
            if best_rank is None:
                break
            merged = syms[best] + syms[best + 1]
            # merge every occurrence of this exact pair, left to right
            out = []
            i = 0
            pair = (syms[best], syms[best + 1])
            while i < len(syms):
                if i < len(syms) - 1 and (syms[i], syms[i + 1]) == pair:
                    out.append(merged)
                    i += 2
                else:
                    out.append(syms[i])
                    i += 1
            syms = out
        res = tuple(syms)
        if len(self._cache) < 1_000_000:
            self._cache[word] = res
        return res

    def encode(self, text: str, strip_marker: bool = True) -> list[str]:
        toks: list[str] = []
        for w in text.split():
            toks.extend(self.encode_word(w))
        if strip_marker:
            toks = [t.replace(MARKER, "") for t in toks]
            toks = [t for t in toks if t]
        return toks

    @staticmethod
    def decode(tokens: list[str]) -> str:
        """Inverse of encode(strip_marker=False): whitespace-normalized
        original text."""
        return "".join(tokens).replace(MARKER, " ").strip()

    # --- persistence (S11-style round-trip) ---
    def save(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as f:
            json.dump({"merges": [list(m) for m in self.merges]}, f)

    @classmethod
    def load(cls, path: str) -> "BpeModel":
        with open(path, encoding="utf-8") as f:
            return cls(json.load(f)["merges"])


def train_bpe(word_freqs: dict[str, int], num_merges: int) -> BpeModel:
    """Sequential merge learning over a word-frequency table. Deterministic:
    ties on pair frequency break lexicographically."""
    seqs: list[list[str]] = []
    freqs: list[int] = []
    for w, c in sorted(word_freqs.items()):
        if not w:
            continue
        seqs.append([MARKER + w[0]] + list(w[1:]))
        freqs.append(int(c))
    merges: list[tuple[str, str]] = []
    for _ in range(num_merges):
        counts: dict[tuple[str, str], int] = {}
        for syms, c in zip(seqs, freqs):
            for a, b in zip(syms, syms[1:]):
                counts[(a, b)] = counts.get((a, b), 0) + c
        if not counts:
            break
        pair = min(counts.items(), key=lambda e: (-e[1], e[0]))[0]
        if counts[pair] < 2:
            break
        merges.append(pair)
        merged = pair[0] + pair[1]
        for syms in seqs:
            i = 0
            while i < len(syms) - 1:
                if syms[i] == pair[0] and syms[i + 1] == pair[1]:
                    syms[i:i + 2] = [merged]
                else:
                    i += 1
    return BpeModel(merges)


def word_frequencies(ds, text_col: str = "text",
                     max_words: int = 100_000) -> dict[str, int]:
    """Distributed word counts: vectorized per-batch aggregation → ONE
    (word, freq) groupby → driver collects the ``max_words`` most frequent
    (ties: lexicographic) — the only data that reaches the driver is the
    bounded vocabulary table."""
    from ray.data.aggregate import Sum

    def batch_counts(batch: pa.Table) -> pa.Table:
        flat: list[str] = []
        for t in batch[text_col].to_pylist():
            flat.extend(t.split())
        if not flat:
            return pa.table({"word": pa.array([], pa.string()),
                             "freq": pa.array([], pa.int64())})
        s = pd.Series(flat)
        vc = s.value_counts()
        return pa.table({"word": pa.array(vc.index.astype(str)),
                         "freq": pa.array(vc.to_numpy().astype(np.int64))})

    agg = ds.map_batches(batch_counts, batch_format="pyarrow") \
        .groupby("word").aggregate(Sum("freq", alias_name="freq")).to_pandas()
    agg = agg.sort_values(["freq", "word"], ascending=[False, True],
                          kind="mergesort").head(max_words)
    return dict(zip(agg["word"], agg["freq"].astype(int)))


def learn_bpe(ds, text_col: str = "text", num_merges: int = 200,
              max_words: int = 100_000) -> BpeModel:
    return train_bpe(word_frequencies(ds, text_col, max_words), num_merges)


class BpeApplyStage:
    """Actor-pool stage: text → BPE-encoded text (space-joined subwords).
    The model deserializes ONCE per actor; per-word encodings memoize."""

    def __init__(self, merges_ref=None, model_path: str | None = None,
                 text_col: str = "text", out_col: str = "text",
                 strip_marker: bool = True):
        import ray
        if model_path is not None:
            self.model = BpeModel.load(model_path)
        else:
            self.model = BpeModel(ray.get(merges_ref))
        self.text_col, self.out_col = text_col, out_col
        self.strip_marker = strip_marker

    def __call__(self, batch: pa.Table) -> pa.Table:
        enc = [" ".join(self.model.encode(t, self.strip_marker))
               for t in batch[self.text_col].to_pylist()]
        if self.out_col in batch.column_names:
            batch = batch.drop_columns([self.out_col])
        return batch.append_column(self.out_col, pa.array(enc, pa.string()))


def bpe_pretokenize(ds, model: BpeModel, text_col: str = "text",
                    out_col: str = "text", strip_marker: bool = True,
                    concurrency=(1, 8)):
    """Corpus → BPE-subword corpus (reference ENCODED_COLL step). The merge
    table is broadcast once via ``ray.put``."""
    import ray
    mref = ray.put(model.merges)
    return ds.map_batches(
        BpeApplyStage, fn_constructor_kwargs=dict(
            merges_ref=mref, text_col=text_col, out_col=out_col,
            strip_marker=strip_marker),
        batch_format="pyarrow", concurrency=concurrency)


def bpe_mu_sweep(corpus_ds, queries: dict[str, str], index_dir: str,
                 mus=(50, 100, 200, 500, 1000, 2000), num_merges: int = 200,
                 text_col: str = "text", id_col: str = "doc_id", k: int = 100):
    """The bpe_msmarco.sh loop: train BPE → encode corpus AND queries →
    whitespace-analyzer index → LM-Dirichlet retrieval per mu.
    Returns {mu: run Dataset}."""
    from ..config import EngineConfig
    from ..index.build import build_index
    from ..search.service import retrieve
    model = learn_bpe(corpus_ds, text_col, num_merges)
    enc = bpe_pretokenize(corpus_ds, model, text_col)
    cfg = EngineConfig(analyzer="whitespace", num_shards=8)
    build_index(enc, index_dir, cfg, text_col=text_col, id_col=id_col)
    import ray.data as rd
    enc_queries = [{"qid": q, "text": " ".join(model.encode(t))}
                   for q, t in queries.items()]
    out = {}
    for mu in mus:
        qs = rd.from_items(enc_queries,
                           override_num_blocks=max(1, len(enc_queries)))
        out[mu] = retrieve(qs, index_dir, scorer="lmdir", mu=float(mu), k=k)
    return out
