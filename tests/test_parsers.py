"""Fuzzing the parsers and document loaders: every input either parses or
is refused with ValueError (the CLI's ConfigError and the loader's
TableValidationError are ones; all exit 2), never another exception.  Only
the parsers and loaders run; no command computes on what they return.  The
KL disk cache loader never raises: a damaged file answers with the right
column or with None."""

import json
import os
import re
import struct
import tempfile
import zlib

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from affkl import hecke, rootdata, weyl
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
    # an accepted text is integer tokens between separators and parentheses
    tokens = [t for t in re.split(r"[\s,()]+", text) if t]
    assert all(re.fullmatch(r"-?\d+", t) for t in tokens), text
    assert tuple(int(t) for t in tokens) == lam


# -- JSON documents ------------------------------------------------------------

SMALL = st.integers(-3, 3)
JSON = st.recursive(
    st.one_of(st.none(), st.booleans(), SMALL, st.text(max_size=4)),
    lambda kids: st.one_of(st.lists(kids, max_size=3),
                           st.dictionaries(st.text(max_size=6), kids,
                                           max_size=3)),
    max_leaves=8)
MATRIX = st.one_of(st.lists(st.lists(SMALL, max_size=3), max_size=3), JSON)
TYPE = st.one_of(st.sampled_from(["A1", "A2", "B3", "G2", "a2", "C2~", "Q9",
                                  "A", ""]), JSON)
DATUM_DOC = st.one_of(TYPE, JSON, st.fixed_dictionaries({}, optional={
    "schema": st.one_of(st.just(1), JSON),
    "type": TYPE,
    "cartan": MATRIX,
    "lattice": st.one_of(st.just("simply_connected"), JSON,
                         st.fixed_dictionaries({}, optional={
                             "roots": MATRIX, "coroots": MATRIX,
                             "embedding": JSON})),
}))
# Short element texts only: a far-away translation would run the alcove
# walk to its step guard on every example.
ELEM = st.one_of(st.sampled_from([
    "e", "s0", "s1", "s2", "s1 s0", "w: s1", "w: s0 s1", "t: (1)",
    "t: (2,-1)", "omega: 1", "w: s1 | t: (0,2)", "s9", "t: (1,2,3)", "x"]),
    st.text(max_size=5))
PAIRS = st.one_of(st.lists(st.lists(st.integers(-4, 4), min_size=2,
                                    max_size=2), max_size=3), JSON)
TABLE_DATA = {label: DATA[label] for label in ("A1", "B2")}
TABLE_DOC = st.one_of(JSON, st.fixed_dictionaries({}, optional={
    "schema": st.one_of(st.just(1), JSON),
    "datum": st.one_of(st.sampled_from(
        ["", "A1:" + DATA["A1"].datum_hash, "B2:" + DATA["B2"].datum_hash]),
        JSON),
    "p": st.one_of(st.just("infinity"), st.integers(-1, 7), JSON),
    "basis": st.one_of(st.sampled_from(["H", "N", "M"]), JSON),
    "entries": st.one_of(st.dictionaries(
        ELEM, st.one_of(st.dictionaries(ELEM, PAIRS, max_size=3), JSON),
        max_size=3), JSON),
    "label": JSON,
}))


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(DATUM_DOC)
def test_build_root_datum_builds_or_refuses(spec):
    try:
        d = rootdata.build_root_datum(spec)
    except ValueError:
        return
    assert d.rank == d.lattice_rank == len(d.simple_roots)


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.sampled_from(sorted(TABLE_DATA)), TABLE_DOC)
def test_table_from_json_loads_or_refuses(label, doc):
    d = TABLE_DATA[label]
    try:
        table = hecke.table_from_json(doc, d)
    except ValueError:  # TableValidationError included
        return
    assert table.datum is d


# -- the KL disk cache loader --------------------------------------------------

KL_DATUM = rootdata.build_root_datum("A2")
KL_WINDOW = weyl.enumerate_W(KL_DATUM, 3)
_KL_FILE = {}


def _kl_file():
    """(header, bytes, columns) of a real A2 cache file holding the column
    of every element of KL_WINDOW, built once."""
    if not _KL_FILE:
        columns = {w: hecke.kl_basis(w) for w in KL_WINDOW}
        with tempfile.TemporaryDirectory() as tmp:
            cache = hecke.KLCache(os.path.join(tmp, "a2.klcache"), KL_DATUM)
            for w, column in columns.items():
                cache.put(KL_DATUM, w, column)
            with open(cache.path, "rb") as fh:
                _KL_FILE["file"] = cache._header(), fh.read(), columns
    return _KL_FILE["file"]


def _load_and_check(blob):
    """Every get on a cache loaded from blob is the right column or None."""
    columns = _kl_file()[2]
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "a2.klcache")
        with open(path, "wb") as fh:
            fh.write(blob)
        cache = hecke.KLCache(path, KL_DATUM)
        for w, column in columns.items():
            got = cache.get(KL_DATUM, w)
            assert got is None or got == column, weyl.to_text(w)


EDIT = st.tuples(st.sampled_from(["truncate", "flip", "insert"]),
                 st.integers(0, 1 << 20), st.integers(0, 7),
                 st.binary(min_size=1, max_size=8))


@settings(max_examples=150, deadline=None)
@given(st.lists(EDIT, min_size=1, max_size=3))
def test_klcache_loader_survives_damaged_files(edits):
    blob = bytearray(_kl_file()[1])
    for kind, at, bit, extra in edits:
        at %= len(blob) + 1
        if kind == "truncate":
            del blob[at:]
        elif kind == "flip" and blob:
            blob[at % len(blob)] ^= 1 << bit
        elif kind == "insert":
            blob[at:at] = extra
    _load_and_check(bytes(blob))


# Random JSON values only: a real column with terms dropped or exponents
# moved inside the shape bounds still passes get's shape check.
@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.lists(st.tuples(st.sampled_from(KL_WINDOW).map(weyl.to_text),
                          JSON), min_size=1, max_size=3),
       st.booleans())
def test_klcache_loader_drops_crc_valid_records_of_random_values(records,
                                                                 after_real):
    header, blob, _ = _kl_file()
    out = bytearray(blob if after_real else header)
    for key, value in records:
        kb, vb = key.encode(), json.dumps(value).encode()
        out += (struct.pack("<I", len(kb)) + kb + struct.pack("<I", len(vb))
                + vb + struct.pack("<I", zlib.crc32(kb + vb)))
    _load_and_check(bytes(out))
