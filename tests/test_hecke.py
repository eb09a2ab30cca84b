"""Hecke algebra: Laurent arithmetic, bar involution, canonical basis,
table validation, and the binary disk cache."""

import json
import os
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from affkl import hecke, parabolic, rootdata, weyl
from affkl.cli import main
from affkl.hecke import (
    KLCache, LaurentPoly, PCanonicalTable, TableValidationError,
    builtin_kl_table, one, v, vinv,
)
from oracles import bar, box_normalizer, kl_bar_fixed_point

poly_strategy = st.builds(
    lambda pairs: LaurentPoly(dict(pairs)),
    st.lists(st.tuples(st.integers(-4, 4), st.integers(-5, 5)), max_size=5),
)


# -- Laurent polynomials -----------------------------------------------------


@settings(max_examples=25, deadline=None)
@given(poly_strategy, poly_strategy)
def test_poly_ring_laws(p, q):
    assert p + q == q + p
    assert p * q == q * p
    assert (p - q) + q == p


@settings(max_examples=25, deadline=None)
@given(poly_strategy)
def test_bar_is_an_involution(p):
    assert p.bar().bar() == p


@settings(max_examples=25, deadline=None)
@given(poly_strategy, poly_strategy)
def test_divide_exact_inverts_multiplication(p, q):
    if q.is_zero():
        return
    r = (p * q).divide_exact(q)
    assert r == p


def test_divide_exact_refuses_inexact():
    assert (v + one).divide_exact(v - one) is None


def test_evaluate_at_one():
    assert (v + vinv + LaurentPoly.term(3)).evaluate_at_one() == 5


# -- algebra structure -------------------------------------------------------


def test_quadratic_relation(a1):
    for s in weyl.all_generators(a1):
        hs = hecke.standard(s)
        sq = hecke.act(hs, hs)
        expected = hecke.unit(a1) + hs.scale(vinv - v)
        assert sq == expected


def test_standard_basis_multiplication_is_associative(a2):
    elems = weyl.enumerate_W(a2, 2)
    for x in elems[:4]:
        for y in elems[:4]:
            for z in elems[:4]:
                lhs = hecke.act(hecke.act(hecke.standard(x),
                                          hecke.standard(y)),
                                hecke.standard(z))
                rhs = hecke.act(hecke.standard(x),
                                hecke.act(hecke.standard(y),
                                          hecke.standard(z)))
                assert lhs == rhs


def test_bar_fixes_generators_shifted(a1):
    s = weyl.all_generators(a1)[0]
    hs = hecke.standard(s)
    assert bar(hs) == hs + hecke.unit(a1).scale(v - vinv)


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_bar_is_ring_involution(a1, data):
    elems = weyl.enumerate_W(a1, 4)
    x = data.draw(st.sampled_from(elems))
    hx = hecke.standard(x)
    assert bar(bar(hx)) == hx


# -- canonical basis ---------------------------------------------------------


def test_kl_dihedral_coefficients_are_single_powers(a1):
    # in the infinite dihedral case every KL polynomial is 1
    for w in weyl.enumerate_W(a1, 8):
        el = hecke.kl_basis(w)
        for y, p in el.support.items():
            assert list(p.coeffs.values()) == [1]
            assert p.max_exp() == w.length() - y.length() or y == w


def test_kl_of_a_long_element_needs_no_deep_recursion(low_recursion_limit):
    """t_(200) in A1 has length 200, twice the frames left to spare: the
    infinite dihedral closed form h_{y,w} = v^{l(w) - l(y)} on every y
    of length < 200 and at w itself."""
    d = rootdata.build_root_datum("A1")
    w = weyl.translation(d, (200,))
    el = hecke.kl_basis(w)
    assert set(el.support) == set(weyl.enumerate_W(d, 199)) | {w}
    for y, p in el.support.items():
        assert p == LaurentPoly.term(1, w.length() - y.length()), y


def test_kl_matches_bar_fixed_point_oracle(a1, c2):
    memo = {}
    for d, bound in ((a1, 6), (c2, 4)):
        for w in weyl.enumerate_W(d, bound):
            assert hecke.kl_basis(w).support == kl_bar_fixed_point(d, w), \
                weyl.to_text(w)


def test_kl_is_bar_invariant(c2):
    for w in weyl.enumerate_W(c2, 4):
        el = hecke.kl_basis(w)
        assert bar(el) == el


def test_extended_kl_is_twist_shift(a1):
    om = weyl.omega_elements(a1)[1]
    s0 = weyl.all_generators(a1)[0]
    w = weyl.multiply(s0, om)
    shifted = hecke.kl_basis(w)
    base = hecke.kl_basis(s0)
    assert shifted.support == {
        weyl.multiply(y, om): p for y, p in base.support.items()
    }


def test_absorption(a1):
    s0, s1 = weyl.all_generators(a1)
    w = weyl.multiply(s0, s1)
    assert hecke.act(hecke.kl_basis(w), hecke.kl_basis(s1)) \
        == hecke.kl_basis(w).scale(v + vinv)


def test_box_normalizer_frozen_values(a1, c2):
    assert box_normalizer(a1) == v + vinv
    assert box_normalizer(c2) == LaurentPoly(
        {-4: 1, -2: 2, 0: 2, 2: 2, 4: 1})


# -- tables ------------------------------------------------------------------


def test_builtin_table_roundtrips_through_json(a1):
    table = builtin_kl_table(a1)
    w = weyl.all_generators(a1)[0]
    doc = hecke.dump_pcanonical(
        PCanonicalTable(a1, "infinity", "H",
                        {w: table.column(w)}))
    again = hecke.table_from_json(doc, a1)
    assert again.column(w) == table.column(w)
    hecke.validate_table(again)
    doc["label"] = "file"  # a key no reader uses: loaded and ignored
    assert hecke.table_from_json(doc, a1).table_hash == again.table_hash


@pytest.mark.parametrize("label, bound", [("A1", 6), ("A2", 3), ("C2", 3)])
@pytest.mark.parametrize("kind, column_of", [("N", parabolic.p_N),
                                             ("M", parabolic.p_M)])
def test_module_tables_are_validated_against_their_canonical_family(
        label, bound, kind, column_of):
    d = rootdata.build_root_datum(label)
    builtin = builtin_kl_table(d)
    cols = {w: dict(column_of(builtin, w).support)
            for w in weyl.enumerate_fWext(d, bound)}
    doc = hecke.dump_pcanonical(PCanonicalTable(d, 7, kind, cols))
    assert hecke.table_from_json(doc, d).entries == cols
    # negate one coefficient below the diagonal of the longest column
    top = max(cols, key=weyl.sort_key)
    y = max((k for k in cols[top] if k != top), key=weyl.sort_key)
    doc["entries"][weyl.to_text(top)][weyl.to_text(y)] = \
        (-cols[top][y]).to_pairs()
    with pytest.raises(TableValidationError,
                       match=re.escape("self-duality fails at (%s, %s)"
                                       % (weyl.to_text(y), weyl.to_text(top)))):
        hecke.table_from_json(doc, d)


def test_table_hashes_are_stable(a1, a1_table):
    h = PCanonicalTable(a1, "infinity", "H", {
        w: a1_table.column(w) for w in weyl.enumerate_W(a1, 3)})
    n = PCanonicalTable(a1, 5, "N", {
        w: dict(parabolic.p_N(a1_table, w).support)
        for w in weyl.enumerate_fWext(a1, 4)})
    assert h.table_hash \
        == "4d032bc59dc877b6e56f9630037cf941705b35d123c7448c2d9dd5cc763ef353"
    assert n.table_hash \
        == "24a6efb18755e616edf70bdd98a0ec34a7d4be8845dfd7d655ab0c578e0eaad2"


def test_table_rejects_wrong_datum_hash(a1, a2):
    w = weyl.all_generators(a1)[0]
    doc = hecke.dump_pcanonical(
        PCanonicalTable(a1, "infinity", "H",
                        {w: builtin_kl_table(a1).column(w)}))
    with pytest.raises(ValueError):
        hecke.table_from_json(doc, a2)


@pytest.mark.parametrize("pair", [[0], [0, 1, 2], ["x", 1]])
def test_table_names_the_entry_of_a_malformed_pair(a1, pair):
    doc = {"schema": 1, "p": 5, "entries": {"e": {"e": [pair]}}}
    with pytest.raises(TableValidationError) as err:
        hecke.table_from_json(doc, a1)
    assert "(e, e) is not a list" in str(err.value)


def test_validation_names_offending_column(a1):
    w = weyl.all_generators(a1)[0]
    col = dict(builtin_kl_table(a1).column(w))
    col[weyl.identity(a1)] = col[weyl.identity(a1)] + vinv  # breaks symmetry
    bad = PCanonicalTable(a1, 2, "H", {w: col})
    with pytest.raises(TableValidationError) as err:
        hecke.validate_table(bad)
    assert weyl.to_text(w) in str(err.value)


def test_validation_rejects_negative_change_of_basis(a1):
    w = weyl.all_generators(a1)[0]
    col = dict(builtin_kl_table(a1).column(w))
    # subtract 2 * KL(e): stays bar-symmetric and unitriangular but the
    # change-of-basis coefficient at e becomes negative
    col[weyl.identity(a1)] = col[weyl.identity(a1)] - LaurentPoly.term(2)
    bad = PCanonicalTable(a1, 2, "H", {w: col})
    with pytest.raises(TableValidationError) as err:
        hecke.validate_table(bad)
    assert weyl.to_text(weyl.identity(a1)) in str(err.value)


# -- disk cache --------------------------------------------------------------


def test_cache_roundtrip(tmp_path, a1):
    path = tmp_path / "a1.klcache"
    cache = KLCache(str(path), a1)
    w = weyl.multiply(*weyl.all_generators(a1))
    el = hecke.kl_basis(w)
    cache.put(a1, w, el)
    again = KLCache(str(path), a1)
    assert again.get(a1, w) == el


def test_cache_skips_corrupted_record(tmp_path, a1):
    path = tmp_path / "a1.klcache"
    cache = KLCache(str(path), a1)
    w = weyl.all_generators(a1)[0]
    cache.put(a1, w, hecke.kl_basis(w))
    raw = bytearray(path.read_bytes())
    raw[-1] ^= 0xFF  # flip a byte in the last record's payload/crc
    path.write_bytes(bytes(raw))
    again = KLCache(str(path), a1)
    assert again.get(a1, w) is None  # corrupted record dropped, not trusted


def test_disk_cache_never_answers_for_another_datum(tmp_path):
    # element texts such as "w: s1 | t: (1,0)" name elements of both A2 and
    # C2, so a cache shared between data would hand A2 columns to C2
    a2 = rootdata.build_root_datum("A2")
    cache = KLCache(str(tmp_path / "a2.klcache"), a2)
    hecke.set_disk_cache(cache)
    for w in weyl.enumerate_W(a2, 5):
        hecke.kl_basis(w)
    assert cache.mem
    c2 = rootdata.build_root_datum("C2")
    cache_free = rootdata.build_root_datum("C2")
    elems = weyl.enumerate_W(c2, 5)
    assert len(elems) == 41
    for w, same in zip(elems, weyl.enumerate_W(cache_free, 5)):
        assert hecke.kl_basis(w) == hecke.kl_basis(same), weyl.to_text(w)


def _a1_kl_s0s1(a1):
    """u = s0 s1 and its KL element H_u + v H_s0 + v H_s1 + v^2 H_e."""
    s0, s1 = weyl.all_generators(a1)
    u = weyl.multiply(s0, s1)
    return u, {u: one, s0: v, s1: v, weyl.identity(a1): v * v}


@pytest.mark.parametrize("case", [
    "top-not-1", "top-missing", "key-outside-W", "key-not-shorter",
    "constant-term", "degree-too-high", "wrong-parity",
])
def test_cache_drops_records_not_shaped_like_kl(tmp_path, a1, case):
    u, support = _a1_kl_s0s1(a1)
    s0, s1 = weyl.all_generators(a1)
    e = weyl.identity(a1)
    if case == "top-not-1":
        support[u] = one + one
    elif case == "top-missing":
        del support[u]
    elif case == "key-outside-W":  # length 0, so only W membership fails
        support[weyl.omega_elements(a1)[1]] = v * v
    elif case == "key-not-shorter":
        support[weyl.multiply(s1, s0)] = v
    elif case == "constant-term":
        support[e] = one
    elif case == "degree-too-high":
        support[s0] = v * v * v
    else:
        support[e] = v
    path = str(tmp_path / "a1.klcache")
    KLCache(path, a1).put(a1, u, hecke.HeckeElem(a1, support))
    again = KLCache(path, a1)  # the record's CRC is valid
    assert weyl.to_text(u) in again.mem
    assert again.get(a1, u) is None
    assert weyl.to_text(u) not in again.mem  # dropped, to be recomputed


def test_cache_keeps_a_record_shaped_like_kl(tmp_path, a1):
    u, support = _a1_kl_s0s1(a1)
    path = str(tmp_path / "a1.klcache")
    KLCache(path, a1).put(a1, u, hecke.HeckeElem(a1, support))
    assert KLCache(path, a1).get(a1, u) == hecke.HeckeElem(a1, support)


def test_tampered_record_of_e_is_recomputed(tmp_path, capsys, monkeypatch):
    # A CRC-valid record claiming KL(e) = v^2 H_e was once printed as is.
    a1 = rootdata.build_root_datum("A1")
    e = weyl.identity(a1)
    path = tmp_path / ("A1-%s.klcache" % a1.datum_hash[:16])
    KLCache(str(path), a1).put(a1, e, hecke.HeckeElem(a1, {e: v * v}))
    size = path.stat().st_size
    monkeypatch.setenv("AFFKL_CACHE_DIR", str(tmp_path))
    assert main(["compute", "kl", "--type", "A1", "--elem", "e"]) == 0
    result = json.loads(capsys.readouterr().out)["result"]
    assert result == [{"coefficient": [[0, 1]], "index": "e"}]
    assert path.stat().st_size > size  # the true record was re-appended
    assert KLCache(str(path), a1).get(a1, e) == hecke.unit(a1)


def test_warm_cache_round_trip(tmp_path):
    cold = rootdata.build_root_datum("C2")
    path = str(tmp_path / "c2.klcache")
    hecke.set_disk_cache(KLCache(path, cold))
    elems = weyl.enumerate_W(cold, 4)
    expected = [hecke.kl_basis(w) for w in elems]
    size = os.path.getsize(path)
    warm = rootdata.build_root_datum("C2")
    cache = KLCache(path, warm)
    hecke.set_disk_cache(cache)
    loaded = len(cache.mem)
    for w, want in zip(weyl.enumerate_W(warm, 4), expected):
        got = hecke.kl_basis(w)
        assert {weyl.to_text(k): p for k, p in got.support.items()} \
            == {weyl.to_text(k): p for k, p in want.support.items()}
    # every column came from the file: nothing dropped, nothing re-appended
    assert len(cache.mem) == loaded
    assert os.path.getsize(path) == size


@pytest.mark.parametrize("raw", [
    {"w: s9": [[0, 1]]}, {"e": [[0]]}, {"e": "x"}, [["e", [[0, 1]]]],
], ids=["unknown-generator", "short-pair", "not-pairs", "not-a-map"])
def test_cache_drops_records_it_cannot_decode(tmp_path, a1, raw):
    cache = KLCache(str(tmp_path / "a1.klcache"), a1)
    cache.mem["e"] = raw
    assert cache.get(a1, weyl.identity(a1)) is None
    assert "e" not in cache.mem
