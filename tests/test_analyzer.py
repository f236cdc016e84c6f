"""Analyzer goldens — mirrors the reference's embedded smoke tests
(reference: src/main/java/retrieval/NumberReplacementTest.java:4-13) plus
Porter-spec examples from the published paper."""

import pytest

from lucene_msmarco_ray.analysis import (
    EnglishAnalyzer,
    SimpleAnalyzer,
    WhitespaceAnalyzer,
    get_analyzer,
    normalize_numbers,
    stem,
)
from lucene_msmarco_ray.analysis.analyzer import _REGISTRY


def test_normalize_numbers_rule():
    # exercises the reference regex (-)?\d+(\.\d*)? → " _NUM_ "
    assert normalize_numbers("abc 123 def") == "abc  _NUM_  def"
    assert normalize_numbers("-42") == " _NUM_ "
    assert normalize_numbers("3.14 rad") == " _NUM_  rad"
    assert normalize_numbers("v2") == "v _NUM_ "
    assert normalize_numbers("no digits") == "no digits"


PORTER_GOLDENS = {
    # examples straight from the Porter 1980 paper
    "caresses": "caress", "ponies": "poni", "ties": "ti", "caress": "caress",
    "cats": "cat", "feed": "feed", "agreed": "agre", "plastered": "plaster",
    "bled": "bled", "motoring": "motor", "sing": "sing", "conflated": "conflat",
    "troubled": "troubl", "sized": "size", "hopping": "hop", "tanned": "tan",
    "falling": "fall", "hissing": "hiss", "fizzed": "fizz", "failing": "fail",
    "filing": "file", "happy": "happi", "sky": "sky", "relational": "relat",
    "conditional": "condit", "rational": "ration", "valenci": "valenc",
    "hesitanci": "hesit", "digitizer": "digit", "conformabli": "conform",
    "radicalli": "radic", "differentli": "differ", "vileli": "vile",
    "analogousli": "analog", "vietnamization": "vietnam", "predication": "predic",
    "operator": "oper", "feudalism": "feudal", "decisiveness": "decis",
    "hopefulness": "hope", "callousness": "callous", "formaliti": "formal",
    "sensitiviti": "sensit", "sensibiliti": "sensibl", "triplicate": "triplic",
    "formative": "form", "formalize": "formal", "electriciti": "electr",
    "electrical": "electr", "hopeful": "hope", "goodness": "good",
    "revival": "reviv", "allowance": "allow", "inference": "infer",
    "airliner": "airlin", "gyroscopic": "gyroscop", "adjustable": "adjust",
    "defensible": "defens", "irritant": "irrit", "replacement": "replac",
    "adjustment": "adjust", "dependent": "depend", "adoption": "adopt",
    "homologou": "homolog", "communism": "commun", "activate": "activ",
    "angulariti": "angular", "homologous": "homolog", "effective": "effect",
    "bowdlerize": "bowdler", "probate": "probat", "rate": "rate",
    "cease": "ceas", "controll": "control", "roll": "roll",
}


def test_porter_goldens():
    bad = {w: (stem(w), want) for w, want in PORTER_GOLDENS.items() if stem(w) != want}
    assert not bad, bad


def test_english_analyzer_chain():
    an = EnglishAnalyzer()
    # stop removal + stemming + _NUM_ + possessive
    assert an("The running dogs and 42 cats") == ["run", "dog", "_NUM_", "cat"]
    assert an("john's books") == ["john", "book"]
    # all-stop query → empty (FIXTURES.md F2 edge)
    assert an("the and of") == []


def test_whitespace_and_simple():
    assert WhitespaceAnalyzer()("Foo bar  baz") == ["Foo", "bar", "baz"]
    assert SimpleAnalyzer()("Foo bar-baz 7x") == ["foo", "bar", "baz", "7x"]
    assert get_analyzer("simple") is get_analyzer("simple")
    # stop list and number normalization are english-only: an index's
    # settings pass through unchanged and do not alter the other chains
    assert get_analyzer("simple", None, True) is get_analyzer("simple")
    assert get_analyzer("whitespace", "x.txt", True)("a 7") == ["a", "7"]


# Strings that probe every context an analyzer step looks at: final sigma,
# lowercasing that changes length (İ) or maps into ASCII (Kelvin sign),
# non-ASCII whitespace (NBSP) and str.split's \x1c, Unicode digits for the
# number regex, apostrophes, number shapes, combining marks and emoji.
NEUTRALITY_FUZZ = [
    "", "a", "Dog", "\u0391\u03a3", "\u03a3\u0391", "\u03a3", "\u03c3",
    "\u0130", "\u0130x", "\u212a", "x\u212a", "a\xa0b", "\xa0", "\x1c",
    "a\x1cb", "\u0663", "\u0663.\u0665", "''", "'", "it's", "dog's", "'s",
    "3.14", "-5.", "-", ".", "1e5", "e\u0301", "\u0301", "\U0001f642",
    "a\U0001f642b", "the", "running", "_NUM_", "x_y", "Stra\xdfe", "\u01c5",
]


@pytest.mark.parametrize("name", sorted(_REGISTRY))
def test_separators_are_neutral(name):
    """Splitting at any declared separator never changes the analyzer's
    output: the tokenize stage analyzes the pieces between separators and
    concatenates their terms."""
    an = get_analyzer(name)
    assert an.separators and all(ord(c) < 128 for c in an.separators)
    bad = [(a, c, b) for c in an.separators
           for a in NEUTRALITY_FUZZ for b in NEUTRALITY_FUZZ
           if an(a + c + b) != an(a) + an(b)]
    assert not bad, bad[:10]


def test_english_separators_exclude_context_chars():
    """``:`` (case-ignorable: final sigma looks across it) and ``.`` (the
    number regex spans it) are not neutral for english, so neither may be
    added to its separator class."""
    an = get_analyzer("english")
    assert an("ΑΣ:Β") != an("ΑΣ") + an("Β")
    assert an("3.14") != an("3") + an("14")
    assert ":" not in an.separators and "." not in an.separators
