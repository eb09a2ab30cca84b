"""Fuzzing the text parsers: every input either parses or is refused with
ValueError (the CLI's ConfigError is one), never another exception.  Only
the parsers run; no command computes on what they return."""

from hypothesis import given, settings
from hypothesis import strategies as st

from affkl import rootdata, weyl
from affkl.cli import _parse_elem, _parse_weight

DATA = {label: rootdata.build_root_datum(label)
        for label in ("A1", "A3", "B2", "G2")}
LABEL = st.sampled_from(sorted(DATA))
# Pieces of the element and weight syntax, glued at random, next to
# arbitrary text: most inputs come close to valid ones.
PIECES = st.sampled_from([
    "w:", "t:", "omega:", "|", "(", ")", ",", "-", " ", "\t", ":", "e", "s0",
    "s1", "s2", "s3", "s9", "s0_1", "0", "1", "3", "99999999999", "x", "1.5",
])
TEXT = st.one_of(st.text(max_size=40),
                 st.lists(PIECES, max_size=14).map("".join))


@settings(max_examples=300, deadline=None)
@given(LABEL, TEXT)
def test_from_text_parses_or_refuses(label, text):
    d = DATA[label]
    try:
        x = weyl.from_text(d, text)
    except ValueError:
        return
    assert x.datum is d
    assert weyl.from_text(d, weyl.to_text(x)) == x


@settings(max_examples=300, deadline=None)
@given(LABEL, TEXT)
def test_parse_elem_parses_or_refuses(label, text):
    d = DATA[label]
    try:
        x = _parse_elem(d, text)
    except ValueError:
        return
    assert x.datum is d
    assert weyl.from_text(d, weyl.to_text(x)) == x


@settings(max_examples=300, deadline=None)
@given(LABEL, TEXT)
def test_parse_weight_parses_or_refuses(label, text):
    d = DATA[label]
    try:
        lam = _parse_weight(d, text)
    except ValueError:
        return
    assert len(lam) == d.lattice_rank
    assert all(isinstance(c, int) for c in lam)
