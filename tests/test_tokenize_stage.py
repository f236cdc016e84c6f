"""TokenizeStage batch path == the per-doc loop it replaced, byte for byte.

The oracle below is the stage's earlier ``__call__``: analyze each doc,
count its terms in a dict (first-occurrence order), crc32-shard each
posting. The batch path must give an equal table for every analyzer, with
and without a key column, at any batch size, with its term cache carried
across batches, shared by the pickled copies Ray Data's tasks run, and
reset when it outgrows its cap."""

import hashlib
import pickle
import sys
import threading
from collections import Counter
from zlib import crc32

import numpy as np
import pyarrow as pa
import pytest

from lucene_msmarco_ray.config import EngineConfig
from lucene_msmarco_ray.stages import tokenize as tokenize_mod
from lucene_msmarco_ray.stages.tokenize import (
    FWD_KIND,
    GKEY_SALT_SPAN,
    LINEAGE_KIND,
    META_KIND,
    POSTINGS_KIND,
    STAGED_SCHEMA,
    TokenizeStage,
)
from lucene_msmarco_ray.synth import generate_corpus

from test_analyzer import NEUTRALITY_FUZZ


def per_doc_oracle(stage: TokenizeStage, batch: pa.Table) -> pa.Table:
    texts = batch[stage.text_col].to_pylist()
    ids = batch[stage.id_col].to_numpy(zero_copy_only=False)
    keys = (batch[stage.key_col].to_pylist() if stage.key_col
            else [str(i) for i in ids])

    analyzer = stage.analyzer
    n_docs = len(texts)
    p_terms: list[str] = []
    p_docs: list[np.ndarray] = []
    p_tfs: list[np.ndarray] = []
    p_dls: list[np.ndarray] = []
    m_dl = np.empty(n_docs, dtype=np.int32)
    m_sha: list[str] = []

    for i, text in enumerate(texts):
        terms = analyzer(text)
        counts: dict[str, int] = {}
        for t in terms:
            counts[t] = counts.get(t, 0) + 1
        dl = len(terms)
        m_dl[i] = dl
        m_sha.append(hashlib.sha256(text.encode("utf-8")).hexdigest())
        if counts:
            k = len(counts)
            p_terms.extend(counts.keys())
            p_tfs.append(np.fromiter(counts.values(), dtype=np.int32, count=k))
            p_docs.append(np.full(k, ids[i], dtype=np.int64))
            p_dls.append(np.full(k, dl, dtype=np.int32))

    np_docs = np.concatenate(p_docs) if p_docs else np.empty(0, np.int64)
    np_tfs = np.concatenate(p_tfs) if p_tfs else np.empty(0, np.int32)
    np_dls = np.concatenate(p_dls) if p_dls else np.empty(0, np.int32)
    npost = len(p_terms)

    shards = np.array([crc32(t.encode("utf-8")) % stage.num_shards
                       for t in p_terms], np.int64)
    gkey = shards * GKEY_SALT_SPAN + np_docs // stage.salt_bucket
    nf = npost if stage.emit_fwd else 0
    fkey = (np_docs // stage.fwd_bucket)[:nf]

    digests = np.frombuffer(bytes.fromhex("".join(m_sha)),
                            dtype=np.uint8).reshape(n_docs, 32)
    xor_hex = np.bitwise_xor.reduce(digests, axis=0).tobytes().hex()
    l_dlsum = int(m_dl.astype(np.int64).sum())

    return pa.Table.from_arrays(
        [
            pa.array([POSTINGS_KIND] * npost + [FWD_KIND] * nf
                     + [META_KIND] * n_docs + [LINEAGE_KIND]),
            pa.array(np.concatenate([gkey, fkey,
                                     np.full(n_docs + 1, -1, np.int64)])),
            pa.array(p_terms + p_terms[:nf] + [""] * (n_docs + 1),
                     type=pa.string()),
            pa.array(np.concatenate([np_docs, np_docs[:nf],
                                     ids.astype(np.int64),
                                     np.array([l_dlsum], np.int64)])),
            pa.array(np.concatenate([np_tfs, np_tfs[:nf],
                                     np.zeros(n_docs, np.int32),
                                     np.array([n_docs], np.int32)])),
            pa.array(np.concatenate([np_dls, np_dls[:nf], m_dl,
                                     np.zeros(1, np.int32)])),
            pa.array([""] * (npost + nf) + keys + [""], type=pa.string()),
            pa.array([""] * (npost + nf) + m_sha + [xor_hex],
                     type=pa.string()),
        ],
        schema=STAGED_SCHEMA,
    )


def _edge_docs() -> list[str]:
    """Fuzz strings and their joins (adjacent docs must not merge: "a"
    then "b" is two docs, not "ab"), empty docs, docs of separators only,
    and docs that start or end inside a word."""
    fuzz = NEUTRALITY_FUZZ
    docs = list(fuzz)
    docs += [a + sep + b for a in fuzz[::3] for b in fuzz[1::4]
             for sep in (" ", ",\n", "(", ":", ".", "-", "\x1c")]
    docs += ["", "", " ", "\t\n ,;", "", "Dog's dog DOG dogs.", "x", "x",
             "  leading and trailing  ", "Σ", "", "3.14-2.5 ΑΣ:Β a^b`c"]
    return docs


@pytest.fixture(scope="module")
def corpus() -> pa.Table:
    synth = generate_corpus(2048, seed=42)
    text = synth["content"].to_pylist()
    edge = _edge_docs()
    # interleave edge docs through the corpus so every batch size mixes them
    step = len(text) // len(edge) + 1
    docs: list[str] = []
    for i, t in enumerate(text):
        if i % step == 0 and edge:
            docs.append(edge.pop())
        docs.append(t)
    docs += edge
    n = len(docs)
    return pa.table({
        "content": pa.array(docs, pa.large_string()),
        "doc_id": pa.array(np.arange(n, dtype=np.int64) * 3 + 5),
        "doc_key": pa.array([f"k{i}" for i in range(n)]),
    })


@pytest.mark.parametrize("analyzer", ["english", "simple", "whitespace"])
@pytest.mark.parametrize("batch_size", [1, 7, 1024])
def test_batch_path_equals_per_doc_loop(corpus, analyzer, batch_size):
    cfg = EngineConfig(analyzer=analyzer, num_shards=5,
                       salt_docs_per_bucket=97, fwd_docs_per_bucket=41)
    stages = [TokenizeStage(cfg, text_col="content", key_col="doc_key")]
    if batch_size > 1:    # keys come from doc ids: one path, fewer calls
        stages.append(TokenizeStage(cfg, text_col="content"))
    assert corpus.num_rows >= 2048
    # one stage after the other: the cache follows one stage at a time
    for stage in stages:
        for b in corpus.to_batches(max_chunksize=batch_size):
            batch = pa.Table.from_batches([b])
            got = stage(batch)
            want = per_doc_oracle(stage, batch)
            assert got.equals(want), (analyzer, batch["content"].to_pylist())


def _copies(stage: TokenizeStage, n: int = 2) -> list[TokenizeStage]:
    """What ``n`` Ray Data tasks of one build run: unpickled copies."""
    return [pickle.loads(pickle.dumps(stage)) for _ in range(n)]


def test_copies_of_one_stage_share_one_cache(corpus):
    """Two tasks of one build in one worker analyze each distinct piece
    once between them; a newly built stage starts with an empty cache."""
    cfg = EngineConfig(analyzer="english")
    stage = TokenizeStage(cfg, text_col="content", key_col="doc_key")
    seen: Counter = Counter()

    def counting(piece):
        seen[piece] += 1
        return stage.analyzer(piece)

    copies = _copies(stage)
    for c in copies:
        c.analyzer = counting
    batches = [pa.Table.from_batches([b])
               for b in corpus.to_batches(max_chunksize=300)]
    for i, batch in enumerate(batches):
        assert copies[i % 2](batch).equals(per_doc_oracle(stage, batch))
        if i == 0:
            first = set(seen)
    assert first and len(seen) > len(first)
    assert set(seen.values()) == {1}

    fresh = TokenizeStage(cfg, text_col="content", key_col="doc_key")
    fresh.analyzer = counting
    assert fresh(batches[0]).equals(per_doc_oracle(stage, batches[0]))
    assert {p for p, n in seen.items() if n == 2} == first


@pytest.mark.parametrize("analyzer", ["english", "simple", "whitespace"])
def test_cache_cap_starts_a_fresh_entry(corpus, analyzer, monkeypatch):
    """With a tiny cap the cache is replaced after almost every pass; the
    rows stay equal to the oracle's, and a block larger than
    ``tokenize_batch_size`` gives the rows of its passes fed one by one."""
    monkeypatch.setattr(tokenize_mod, "CACHE_MAX_PIECES", 40)
    cfg = EngineConfig(analyzer=analyzer, num_shards=5,
                       salt_docs_per_bucket=97, fwd_docs_per_bucket=41,
                       tokenize_batch_size=64)
    stage = TokenizeStage(cfg, text_col="content", key_col="doc_key")
    copies = _copies(stage)
    entries = []
    for i, b in enumerate(corpus.slice(0, 640).to_batches(max_chunksize=64)):
        batch = pa.Table.from_batches([b])
        assert copies[i % 2](batch).equals(per_doc_oracle(stage, batch))
        entries.append(tokenize_mod._worker_vocab)
    assert len({id(e) for e in entries}) > 1

    block = corpus.slice(100, 300)
    whole = _copies(stage)[0](block)
    other = TokenizeStage(cfg, text_col="content", key_col="doc_key")
    passes = pa.concat_tables([other(block.slice(i, 64))
                               for i in range(0, block.num_rows, 64)])
    assert whole.num_rows > 0 and whole.equals(passes)
    assert whole["kind"].to_pylist().count(LINEAGE_KIND) == 5


def test_string_column_and_empty_batch():
    """A plain ``string`` text column, and a batch with no rows."""
    cfg = EngineConfig(analyzer="english")
    stage = TokenizeStage(cfg)
    batch = pa.table({"text": pa.array(["The dogs' dog", "", "dog 42"]),
                      "doc_id": pa.array([7, 8, 9], pa.int64())})
    assert stage(batch).equals(per_doc_oracle(stage, batch))
    empty = batch.slice(0, 0)
    assert stage(empty).equals(per_doc_oracle(stage, empty))


def test_copies_in_threads_share_the_cache_safely(corpus):
    """Copies called from more threads than cores at once (a worker that
    ran tasks in threads) still give the oracle's rows."""
    cfg = EngineConfig(analyzer="english", tokenize_batch_size=50)
    stage = TokenizeStage(cfg, text_col="content", key_col="doc_key")
    blocks = [corpus.slice(i, 200) for i in range(0, 1600, 200)]
    got: dict[int, pa.Table] = {}

    def run(i, copy):
        got[i] = copy(blocks[i])

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=run, args=(i, c))
                   for i, c in enumerate(_copies(stage, len(blocks)))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(switch)
    assert not any(t.is_alive() for t in threads)
    for i, block in enumerate(blocks):
        want = pa.concat_tables([per_doc_oracle(stage, block.slice(j, 50))
                                 for j in range(0, block.num_rows, 50)])
        assert got[i].equals(want), i
