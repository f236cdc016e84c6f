"""User-facing gate counts must match the registry (VERDICT r3 #7: the
README/ARCHITECTURE numbers went stale twice when hand-maintained — this
test fails whenever docs and `queries()` diverge)."""

import re
import sys

sys.path.insert(0, "/root/repo")

import __ray_entry__ as entrymod

REPO = "/root/repo"


def _registry_counts():
    q = entrymod.queries()
    o = entrymod.oracle_sql()
    assert set(o) <= set(q), "oracle without a gate"
    return len(q), len(o)


def test_architecture_md_counts():
    n_gates, n_oracles = _registry_counts()
    text = open(f"{REPO}/ARCHITECTURE.md").read()
    m = re.search(r"queries\(\) \((\d+) gates\)", text)
    assert m and int(m.group(1)) == n_gates, (
        f"ARCHITECTURE.md says {m and m.group(1)} gates, registry has {n_gates}")
    m = re.search(r"oracle_sql\(\) \((\d+) DuckDB oracles\)", text)
    assert m and int(m.group(1)) == n_oracles, (
        f"ARCHITECTURE.md says {m and m.group(1)} oracles, registry has {n_oracles}")


def test_readme_counts():
    n_gates, n_oracles = _registry_counts()
    text = open(f"{REPO}/README.md").read()
    m = re.search(r"(\d+) gates, (\d+)\nwith an independent DuckDB", text)
    assert m, "README gate-count sentence not found (update the regex too)"
    assert int(m.group(1)) == n_gates, (
        f"README says {m.group(1)} gates, registry has {n_gates}")
    assert int(m.group(2)) == n_oracles, (
        f"README says {m.group(2)} SQL-oracled gates, registry has {n_oracles}")


def test_rows_only_gates_are_named_in_readme():
    q = entrymod.queries()
    o = entrymod.oracle_sql()
    text = open(f"{REPO}/README.md").read()
    for name in set(q) - set(o):
        assert name in text, f"rows-only gate {name!r} undocumented in README"


# the paper's engine: build, append, compaction, BM25/LM-Dirichlet top-1000,
# term statistics and the evaluation metrics; plus the feedback gates kept
# in tier (a), whose per-query stage is shared by the whole feedback/QPP
# family
PAPER_CORE_GATES = {
    "index_compact", "index_append", "bm25_topk", "bm25_topk_sharded",
    "bm25_topk_ref_params", "lmdir_topk", "term_stats", "eval_metrics",
    "fdbk_term_stats", "fdbk_rerank", "rm3_expand", "rocchio_expand",
}


def test_paper_core_gates_lead_the_registry():
    """Correctness rounds check a prefix of the registry; the paper-core
    gates must always be inside the first 50."""
    q = entrymod.queries()
    assert PAPER_CORE_GATES <= set(q), PAPER_CORE_GATES - set(q)
    missing = PAPER_CORE_GATES - set(list(q)[:50])
    assert not missing, f"paper-core gates past position 50: {missing}"
