"""Secondary sources/sinks (SURVEY.md S2-S3, S8-S16).

* read_jsonl_corpus (S2): TREC-Fair JSONL {id, title, plain} → content =
  title + " " + plain (reference: src/main/java/indexing/
  JSONDataIndexer.java:19-45).
* convert_msmarco_v2_jsonl (S3): gz JSONL {doc_id, text}, newlines/tabs
  stripped (src/main/java/indexing/MsMarcoV2JsonToTsvConverter.java:13-48);
  output Parquet instead of TSV (the Ray-native interchange format).
* sparse-vec writers (S8/S9, src/main/java/indexing/SparseVecWriter.java):
  per-doc `term:tf` vectors + `vocab.txt` (term \\t id); top-docs variant
  weights each term with the reference's OWN bm25 helper (k1=1.2, b=0.75,
  idf inside the denominator, MSMARCO avgdl — SparseVecWriter.java:29-38,
  reproduced verbatim as `sparsevec_bm25_weight`).
* write_preprocessed (S10): docid \\t analyzed-text TSV (indexing/
  Preprocessor.java:9-30).
* vocab dump (S14): term \\t df over all index terms (indexing/
  IndexTester.java:59-84).
* pre-evaluated metrics reader (S15): header + `qid ndcg awrf` rows
  (qrels/PreEvaluatedResults.java:16-28, qrels/FairnessMetrics.java:9-15).
* metadata JSONL reader (S16): {page_id, gender:"['male']"} first 1000
  lines → docid → is_male (stochastic_qpp/Metadata.java:16-41; the double
  bracket-strip quirk reproduced: entries with an empty gender list are
  dropped).
* permutation-map writer (S13): `qid \\t r0>r1,…` per stochastic sample
  (qpp/PreComputedPredictor.java:67-99).
* few-shot JSON writer (S12): nested query + related-query + rel/nonrel doc
  examples (retrieval/KNNRelModel.java:412-441).
"""

from __future__ import annotations

import json
import os

import pyarrow as pa

from ..index.manifest import term_totals


def read_jsonl_corpus(paths, id_field: str = "id", title_field: str = "title",
                      body_field: str = "plain"):
    """S2 → Dataset(docid, content)."""
    import ray.data as rd

    def proj(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc
        content = pc.binary_join_element_wise(
            pc.cast(batch[title_field], pa.string()),
            pc.cast(batch[body_field], pa.string()), " ")
        return pa.table({"docid": pc.cast(batch[id_field], pa.string()),
                         "content": content})

    return rd.read_json(paths).map_batches(proj, batch_format="pyarrow")


def convert_msmarco_v2_jsonl(paths, out_dir: str):
    """S3: gz JSONL {doc_id, text} → cleaned Parquet (tabs/newlines → space)."""
    import ray.data as rd

    def clean(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc
        txt = pc.replace_substring_regex(
            pc.cast(batch["text"], pa.string()), "[\\n\\t]", " ")
        return pa.table({"docid": pc.cast(batch["doc_id"], pa.string()),
                         "text": txt})

    ds = rd.read_json(paths).map_batches(clean, batch_format="pyarrow")
    ds.write_parquet(out_dir)
    return out_dir


def sparsevec_bm25_weight(tf: float, N: int, df: int, doc_len: float,
                          k: float = 1.2, b: float = 0.75,
                          avgdl: float = 57.25) -> float:
    """Verbatim reference SparseVecWriter.TermWt.bm25Weight (incl. its idf-in-
    denominator bug and the MSMARCO avgdl constant)."""
    import math
    idf = math.log(1 + (N - df + 0.5) / (df + 0.5))
    return tf * (k + 1) / (tf + k * (1 - b + b * doc_len / avgdl) * idf)


def write_sparse_vecs(index_dir: str, out_dir: str) -> tuple[str, str]:
    """S8: every doc's `term:tf` line + vocab.txt (term \\t id, insertion
    order = term order of first appearance per the reference's word2id map;
    here: sorted vocab order for determinism). Runs shuffle-FREE over the
    build-time forward index: each doc-bucket partition already co-locates a
    doc's rows, so one task per bucket groups in memory (vectorized)."""
    import ray.data as rd

    from ..index.manifest import Commit
    os.makedirs(out_dir, exist_ok=True)
    vocab_path = os.path.join(out_dir, "vocab.txt")
    with open(vocab_path, "w", encoding="utf-8") as f:
        for i, t in enumerate(term_totals(index_dir)["term"].to_pylist()):
            f.write(f"{t}\t{i}\n")

    buckets = Commit(index_dir).fwd_bucket_dirs()
    if not buckets:
        raise FileNotFoundError(f"no forward index under {index_dir}")

    def per_bucket(b):
        import numpy as np
        import pandas as pd

        from ..index.manifest import pads_dirs as _pads_dirs
        out = []
        for dirs in b["dirs"]:
            t = _pads_dirs(list(dirs)).to_table(
                columns=["doc_id", "term", "tf"])
            doc = t["doc_id"].to_numpy(zero_copy_only=False)
            term = np.asarray(t["term"].to_pylist(), dtype=object)
            tf = t["tf"].to_numpy(zero_copy_only=False)
            order = np.lexsort((term, doc))
            doc, term, tf = doc[order], term[order], tf[order]
            starts = np.flatnonzero(np.concatenate(([True],
                                                    doc[1:] != doc[:-1])))
            ends = np.concatenate((starts[1:], [doc.size]))
            pieces = np.array([f"{t_}:{f_}" for t_, f_ in zip(term, tf)],
                              dtype=object)
            out.append(pd.DataFrame({
                "doc_id": doc[starts].astype("int64"),
                "sparse_vec": [" ".join(pieces[s:e])
                               for s, e in zip(starts, ends)]}))
        return pd.concat(out, ignore_index=True)

    per_bucket.__name__ = "per_bucket_sparse_vec"
    desc = rd.from_items([{"dirs": d} for _, d in sorted(buckets.items())],
                         override_num_blocks=len(buckets))
    vec_dir = os.path.join(out_dir, "vecs")
    desc.map_batches(per_bucket, batch_format="pandas", batch_size=1) \
        .write_parquet(vec_dir)
    return vec_dir, vocab_path


def dump_vocab_df(index_dir: str, out_path: str) -> str:
    """S14: `term \\t df` for every index term (df summed across salt runs)."""
    t = term_totals(index_dir)
    with open(out_path, "w", encoding="utf-8") as f:
        for term, d in zip(t["term"].to_pylist(), t["df"].to_pylist()):
            f.write(f"{term}\t{d}\n")
    return out_path


def write_preprocessed(ds, out_path: str, analyzer_name: str = "english",
                       text_col: str = "text", id_col: str = "doc_id") -> str:
    """S10: docid \\t analyzed-text TSV (single file, streamed)."""
    from ..analysis import get_analyzer

    def analyze_batch(batch: pa.Table) -> pa.Table:
        an = get_analyzer(analyzer_name)
        out = [" ".join(an(t)) for t in batch[text_col].to_pylist()]
        return pa.table({"docid": pa.array([str(x) for x in
                                            batch[id_col].to_pylist()]),
                         "analyzed": pa.array(out)})

    with open(out_path, "w", encoding="utf-8") as f:
        for batch in ds.map_batches(analyze_batch, batch_format="pyarrow") \
                       .iter_batches(batch_format="pyarrow"):
            for d, a in zip(batch["docid"].to_pylist(),
                            batch["analyzed"].to_pylist()):
                f.write(f"{d}\t{a}\n")
    return out_path


def read_preevaluated(path: str):
    """S15 → DataFrame(qid, ndcg, awrf); first line is a header."""
    import pandas as pd
    rows = []
    with open(path, encoding="utf-8") as f:
        next(f, None)
        for line in f:
            t = line.split()
            if len(t) >= 3:
                rows.append({"qid": t[0], "ndcg": float(t[1]),
                             "awrf": float(t[2])})
    return pd.DataFrame(rows, columns=["qid", "ndcg", "awrf"])


def read_metadata_jsonl(path: str, max_lines: int = 1000) -> dict[str, bool]:
    """S16 → docid → is_male. Gender arrives as the string "['male', …]";
    the reference strips brackets twice and keeps only non-empty lists."""
    out: dict[str, bool] = {}
    with open(path, encoding="utf-8") as f:
        for count, line in enumerate(f):
            if count >= max_lines:
                break
            obj = json.loads(line)
            docid = str(obj["page_id"])
            gender = str(obj["gender"])
            gender = gender[1:-1]                  # strip [ ]
            if gender:
                first = gender.split(",")[0].strip()
                first = first[1:-1]                # strip quotes
                if first:
                    out[docid] = first[0] == "m"
    return out


def write_permutation_map(path: str, pivot_runs: dict[str, list[int]],
                          permuted_runs: dict[str, list[int]],
                          sample_id: int) -> str:
    """S13: `qid \\t r0>r1,…` — pre-permutation rank vs current rank; for
    sample 0 the identity map is written (reference:
    qpp/PreComputedPredictor.java:67-99)."""
    with open(path, "w", encoding="utf-8") as f:
        for qid, permuted in permuted_runs.items():
            pivot_rank = {d: i + 1 for i, d in enumerate(pivot_runs[qid])}
            parts = []
            for rank, doc in enumerate(permuted, start=1):
                pre = pivot_rank[doc] if sample_id > 0 else rank
                parts.append(f"{pre}>{rank}")
            f.write(f"{qid}\t{','.join(parts)},\n")
    return path


def write_fewshot_json(path: str, examples: list[dict]) -> str:
    """S12: nested JSON array of {query, related queries, rel/nonrel docs}
    (reference: retrieval/KNNRelModel.java:412-441)."""
    with open(path, "w", encoding="utf-8") as f:
        json.dump(examples, f, indent=1)
    return path
