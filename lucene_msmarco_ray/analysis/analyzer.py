"""Analysis chain: text → terms.

Reproduces the reference's term identity (SURVEY.md §1.2):

1. number normalization: regex ``(-)?\\d+(\\.\\d*)?`` → `` _NUM_ ``
   (reference: src/main/java/indexing/MsMarcoIndexer.java:62-64, test at
   src/main/java/retrieval/NumberReplacementTest.java:8);
2. "english": standard-tokenize → lowercase → possessive strip → stop-word
   removal → Porter stem (reference: indexing/MsMarcoIndexer.java:25-46,
   analyze() helper :112-135, duplicated utils/IndexUtils.java:64-86);
3. "whitespace": plain whitespace split, no lowercase/stop/stem — the BPE
   pre-tokenized path (reference: indexing/MsMarcoIndexer.java:27-28,
   tokenization/bpe_msmarco.sh);
4. "simple": lowercase + word-regex split (no stop/stem) — our SQL-oracle
   friendly analyzer used by the DuckDB correctness gate.

Analyzers are plain callables ``str -> list[str]``; construct once per worker
(module-level singletons via :func:`get_analyzer` or in an actor ``__init__``,
SURVEY.md T6) so regexes/stem caches are reused across batches.

Each analyzer also declares ``separators``: the ASCII chars ``c`` at which a
split provably cannot change its output, ``an(a + c + b) == an(a) + an(b)``
for all ``a``, ``b`` (checked in ``tests/test_analyzer.py``). The tokenize
stage splits a batch's text bytes at these chars and analyzes each distinct
piece once.
"""

from __future__ import annotations

import re
from collections.abc import Callable

from .porter import CachingStemmer
from .stopwords import load_stopwords

# Exactly the reference regex (MsMarcoIndexer.java:62-64): optional leading
# minus, digits, optional decimal tail → replaced with " _NUM_ ".
_NUM_RE = re.compile(r"(-)?\d+(\.\d*)?")
NUM_TOKEN = "_NUM_"

# Standard-tokenizer approximation: runs of word chars (Unicode-aware, like
# Lucene's UAX#29 StandardTokenizer), keeping word-internal apostrophes (so
# the possessive filter has something to strip).
_WORD_RE = re.compile(r"\w+(?:'\w+)*", re.UNICODE)
_POSSESSIVE_RE = re.compile(r"'s$")


def _ascii_except(pattern: str) -> str:
    """The ASCII chars that do not match ``pattern``."""
    return "".join(c for c in map(chr, range(128)) if not re.match(pattern, c))


def normalize_numbers(text: str) -> str:
    return _NUM_RE.sub(" _NUM_ ", text)


class EnglishAnalyzer:
    """lowercase → tokenize → strip possessive → stop-remove → Porter stem."""

    # Not neutral: word chars and ``'`` (tokens span them), ``-`` and ``.``
    # (the number regex spans them), and the case-ignorable ``:``, ``^``
    # and backtick: ``str.lower`` looks across those for a final sigma
    # (``"ΑΣ:Β"`` → ``ασ``, but ``"ΑΣ"`` alone → ``ας``).
    separators = _ascii_except(r"[\w'\-.:^`]")

    def __init__(self, stopword_file: str | None = None,
                 normalize_nums: bool = True) -> None:
        self.stops = load_stopwords(stopword_file)
        self.stem = CachingStemmer()
        self.normalize_nums = normalize_nums

    def __call__(self, text: str) -> list[str]:
        if self.normalize_nums:
            text = normalize_numbers(text)
        text = text.lower()
        out = []
        stops = self.stops
        stem = self.stem
        for tok in _WORD_RE.findall(text):
            if tok.endswith("'s"):      # possessive filter, no regex per token
                tok = tok[:-2]
            if tok in stops:
                continue
            if tok == "_num_":
                out.append(NUM_TOKEN)
                continue
            out.append(stem(tok))
        return out


class WhitespaceAnalyzer:
    """Pure whitespace split; no case folding (Lucene WhitespaceAnalyzer
    semantics — the reference's fallback path, MsMarcoIndexer.java:27-28)."""

    separators = "".join(c for c in map(chr, range(128)) if c.isspace())

    def __call__(self, text: str) -> list[str]:
        return text.split()


class SimpleAnalyzer:
    """lowercase + word split — semantics expressible in ANSI SQL, used for
    the DuckDB oracle gate (string_split on single spaces matches because the
    fixture corpus is single-space separated; general text uses the regex)."""

    # lowercasing maps no char outside [0-9A-Za-z_] into the token class
    separators = _ascii_except(r"[0-9A-Za-z_]")

    def __init__(self) -> None:
        self._re = re.compile(r"[0-9a-z_]+")

    def __call__(self, text: str) -> list[str]:
        return self._re.findall(text.lower())


_REGISTRY: dict[str, Callable[..., Callable[[str], list[str]]]] = {
    "english": EnglishAnalyzer,
    "whitespace": WhitespaceAnalyzer,
    "simple": SimpleAnalyzer,
}

_SINGLETONS: dict[tuple, Callable[[str], list[str]]] = {}


def get_analyzer(name: str, stopword_file: str | None = None,
                 normalize_nums: bool = True) -> Callable[[str], list[str]]:
    """Per-process analyzer singleton (state — stem cache, stop set, compiled
    regexes — built once per worker, reused across batches). The stop list
    and number normalization are steps of the "english" chain only; the
    other analyzers ignore both arguments, so callers pass an index's
    settings through unchanged."""
    if name not in _REGISTRY:
        raise ValueError(f"unknown analyzer {name!r}; options: {sorted(_REGISTRY)}")
    key = ((name, stopword_file, normalize_nums) if name == "english"
           else (name,))
    if key not in _SINGLETONS:
        _SINGLETONS[key] = (EnglishAnalyzer(stopword_file, normalize_nums)
                            if name == "english" else _REGISTRY[name]())
    return _SINGLETONS[key]
