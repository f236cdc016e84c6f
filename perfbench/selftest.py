"""Self-test of the benchmark, on the tiny configuration.

    python3 perfbench/selftest.py

1. Runs every workload end to end, untraced and traced, and asserts that
   each run is correct and reports exactly the metrics BENCHMARK.json names,
   each with its unit; a traced run must also pass the identity check
   (layer self times per operation not above the wall).
2. Negative check: a perturbed ranking and a perturbed postings list are
   both rejected by the oracle, and the unperturbed ones are accepted.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEED = 5


def run(workload: str, trace: int) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(SEED), "--seconds", "3", "--trace",
           str(trace), "--config", "tiny"]
    p = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                       timeout=180)
    if p.returncode != 0:
        raise AssertionError(f"{cmd} exited {p.returncode}:\n{p.stderr[-3000:]}")
    return json.loads(p.stdout.strip().splitlines()[-1])


def check_metrics() -> None:
    from workloads import WORKLOADS

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    assert {w["name"] for w in spec["workloads"]} <= set(WORKLOADS)
    # every workload, also one BENCHMARK.json does not list (ingest)
    for name in WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            res = run(name, trace)
            assert res["correct"] and res["failed"] == 0, (name, trace, res)
            assert res["attempted"] >= 1
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {m: v["unit"] for m, v in res["metrics"].items()}
            assert got == want, (name, trace, set(got) ^ set(want))
            for m, v in res["metrics"].items():
                assert isinstance(v["value"], (int, float)), (m, v)
            if trace:
                with open(os.path.join(ROOT, ".perfbench", "results",
                                       f"{name}-s{SEED}-trace1.json")) as f:
                    full = json.load(f)
                assert full["identity"]["ok"], full["errors"]
            print(f"ok: {name} trace={trace}: {len(got)} metrics")


def check_negative() -> None:
    sys.path.insert(0, ROOT)
    from inputs import make_corpus
    from lucene_msmarco_ray.analysis import get_analyzer
    from oracle import Oracle, ranking_errors
    from workloads import CONFIGS, K, SCORER

    size = CONFIGS["tiny"]
    n = size["build_docs"]
    corpus = make_corpus(os.path.join(ROOT, ".perfbench", "inputs"), SEED, n,
                         size["files"], 1, size["extra_docs"])
    oracle = Oracle(corpus.table["content"], get_analyzer("english"))

    # rankings: the oracle's own ranking passes; a swap or a shifted score
    # does not
    text = " ".join(oracle.raw_form[:3])
    docs, scores, _ = oracle.bm25_topk(text, n, K, **SCORER)
    assert len(docs) >= 2
    assert ranking_errors((docs, scores), docs, scores) is None
    swapped = docs.copy()
    swapped[[0, 1]] = swapped[[1, 0]]
    assert ranking_errors((docs, scores), swapped, scores) is not None
    nudged = scores.copy()
    nudged[-1] *= 1 + 1e-6
    assert ranking_errors((docs, scores), docs, nudged) is not None
    print("ok: perturbed rankings are rejected")

    # postings: the tiny build workload left its index behind; a copy
    # passes, and a copy with one term frequency changed does not
    src = os.path.join(ROOT, ".perfbench", "index", "build")
    dst = os.path.join(ROOT, ".perfbench", "selftest-index")
    shutil.rmtree(dst, ignore_errors=True)
    shutil.copytree(src, dst)
    try:
        with open(os.path.join(dst, "stats.json")) as f:
            n = json.load(f)["num_docs"]      # the traced run appended
        assert oracle.check_index(dst, n) == []
        seg = sorted(os.path.join(r, f)
                     for r, _, fs in os.walk(os.path.join(dst, "segments"))
                     for f in fs if f.endswith(".parquet"))[0]
        tbl = pq.read_table(seg)
        tf = tbl["tf_bytes"].to_pylist()
        row = int(np.argmax([len(b) for b in tf]))
        b = bytearray(tf[row])
        b[0] = b[0] + 1 if b[0] < 127 else b[0] - 1
        tf[row] = bytes(b)
        tbl = tbl.set_column(tbl.schema.get_field_index("tf_bytes"),
                             "tf_bytes", pa.array(tf, pa.large_binary()))
        pq.write_table(tbl, seg)
        errs = oracle.check_index(dst, n)
        assert errs, "a changed term frequency went unnoticed"
        print(f"ok: perturbed postings are rejected ({errs[0]})")
    finally:
        shutil.rmtree(dst, ignore_errors=True)


if __name__ == "__main__":
    sys.path.insert(0, HERE)
    check_metrics()
    check_negative()
    print("selftest passed")
