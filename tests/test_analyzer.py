"""Analyzer goldens — mirrors the reference's embedded smoke tests
(reference: src/main/java/retrieval/NumberReplacementTest.java:4-13) plus
Porter-spec examples from the published paper."""

from lucene_msmarco_ray.analysis import (
    EnglishAnalyzer,
    SimpleAnalyzer,
    WhitespaceAnalyzer,
    get_analyzer,
    normalize_numbers,
    stem,
)


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
