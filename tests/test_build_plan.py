"""A build reads and tokenizes each row group in ONE fused Ray Data task,
and a batch-sized map behind the corpus reader still gets one read task
per row group — at 1 and at 4 logical CPUs."""

import json
import os
import subprocess
import sys

import pytest

from lucene_msmarco_ray.synth import generate_corpus

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

_SCRIPT = """
import json
import ray
ray.init(address="local", num_cpus={n}, include_dashboard=False,
         logging_level="ERROR")
import ray.data as rd
rd.DataContext.get_current().enable_progress_bars = False
from lucene_msmarco_ray.config import EngineConfig
from lucene_msmarco_ray.index.build import build_index
from lucene_msmarco_ray.sources.corpus import read_code_corpus

written = []
write = rd.Dataset.write_parquet

def capture(self, *a, **k):
    write(self, *a, **k)
    written.append(self.stats())

rd.Dataset.write_parquet = capture
build_index(read_code_corpus({files!r}), {idx!r}, EngineConfig(num_shards=2),
            text_col="content", id_col="doc_id", key_col="doc_key")
batched = read_code_corpus({files!r}).map_batches(
    lambda b: b, batch_size=1024).materialize()
ops = lambda s: [l for l in s.splitlines() if l.startswith("Operator")]
print(json.dumps({{"build": ops(written[0]), "batched": ops(batched.stats())}}))
ray.shutdown()
"""


@pytest.mark.parametrize("n_cpus", [1, 4])
def test_build_fuses_read_and_tokenize_per_row_group(tmp_path, n_cpus):
    files = generate_corpus(400, seed=9, n_files=8, out_dir=str(tmp_path))
    code = _SCRIPT.format(n=n_cpus, files=files, idx=str(tmp_path / "idx"))
    r = subprocess.run([sys.executable, "-c", code], capture_output=True,
                       text=True, env=dict(os.environ, PYTHONPATH=REPO),
                       cwd=REPO, timeout=420)
    assert r.returncode == 0, r.stderr[-2000:]
    ops = json.loads(r.stdout.strip().splitlines()[-1])

    fused = [op for op in ops["build"] if "TokenizeStage" in op]
    assert len(fused) == 1, ops["build"]
    assert ("ReadRowGroup->MapBatches(TokenizeStage)->Write: "
            "8 tasks executed") in fused[0]

    read = [op for op in ops["batched"] if "ReadRowGroup" in op]
    assert len(read) == 1, ops["batched"]
    assert "ReadRowGroup: 8 tasks executed" in read[0]
