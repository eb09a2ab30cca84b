"""Alcove geometry: actions, box representatives, hat/check, generic order."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from affkl import alcoves, rootdata, weyl
from affkl.rootdata import neg_weight, pair
from oracles import (act_left_by_products, conjugated_longest_by_products,
                     generic_leq_by_stepping, generic_leq_by_two_walks,
                     set_stabilized_by_conjugation)

LABELS = ["A1", "A2", "A3", "B2", "B3", "C2", "C3", "G2"]


def _alcove_strategy(datum, max_word=5):
    n_gens = len(weyl.all_generators(datum))

    def build(indices):
        gens = weyl.all_generators(datum)
        x = weyl.identity(datum)
        for i in indices:
            x = weyl.multiply(x, gens[i])
        return alcoves.from_weyl(x)

    return st.builds(build,
                     st.lists(st.integers(0, n_gens - 1), max_size=max_word))


def test_fundamental_alcove_is_dominant(a1, c2):
    for d in (a1, c2):
        fund = alcoves.fundamental_alcove(d)
        assert alcoves.is_dominant(fund)
        q, h = alcoves._point(fund), d.coxeter_number
        for c in d.positive_coroots:
            assert 0 < pair(q, c) < h


def test_dominant_iff_coset_minimal(c2):
    for a in alcoves.enumerate_alcoves(c2, 6):
        assert alcoves.is_dominant(a) == weyl.is_fW(a.elem)


def test_from_weyl_rejects_non_lattice_translation(a1):
    with pytest.raises(ValueError):
        alcoves.from_weyl(weyl.translation(a1, (1,)))


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_left_action_composes(c2, data):
    a = data.draw(_alcove_strategy(c2))
    x = data.draw(_alcove_strategy(c2, max_word=3)).elem
    y = data.draw(_alcove_strategy(c2, max_word=3)).elem
    assert act_left_by_products(weyl.multiply(x, y), a) \
        == act_left_by_products(x, act_left_by_products(y, a))


@pytest.mark.parametrize("label", LABELS)
def test_set_stabilized_matches_conjugation(label):
    """y omega^{-1} equals omega w omega^{-1} for y = omega * w, on elements
    twisted by every omega from either side and on bare translations."""
    d = rootdata.build_root_datum(label)
    rng = random.Random(label)
    twisted = 0
    for w in weyl.enumerate_W(d, 3):
        for om in weyl.omega_elements(d):
            mu = tuple(rng.randint(-3, 3) for _ in range(d.lattice_rank))
            for y in (weyl.multiply(w, om), weyl.multiply(om, w),
                      weyl.translation(d, mu)):
                z = alcoves._set_stabilized(y)
                assert z == set_stabilized_by_conjugation(y), y
                assert d.in_root_lattice(z.trans)
                twisted += not weyl.omega_decompose(y)[0].is_identity()
    assert twisted or len(weyl.omega_elements(d)) == 1


@pytest.mark.parametrize("label", LABELS)
def test_conjugated_longest_matches_products(label):
    d = rootdata.build_root_datum(label)
    span = range(-2, 3) if d.rank < 3 else range(-1, 2)
    for mu in itertools.product(span, repeat=d.lattice_rank):
        x = alcoves._conjugated_longest(d, mu)
        assert x == conjugated_longest_by_products(d, mu), mu
        assert d.in_root_lattice(x.trans)


@pytest.mark.parametrize("label", LABELS)
def test_translation_moves_the_point_by_h_mu(label):
    """Omega fixes b0, so the translate by mu of an alcove has the point
    h (x(b0) + mu), for mu in every Omega class; and it is the alcove that
    the group product t_mu x gives under the left action."""
    d = rootdata.build_root_datum(label)
    h = d.coxeter_number
    rng = random.Random(label)
    for a in alcoves.enumerate_alcoves(d, 2):
        for rep in d.quotient_representatives():
            mu = tuple(m + rng.randint(-2, 2) * h for m in rep)
            b = alcoves.translate(a, mu)
            assert weyl._alcove_point(b.elem) \
                == tuple(q + h * m for q, m in
                         zip(weyl._alcove_point(a.elem), mu)), (a, mu)
            assert b == act_left_by_products(weyl.translation(d, mu), a), \
                (a, mu)


def test_box_representatives(a1, c2):
    # below: A - mu lies in the unit box below zero; above: in the box above
    fund = alcoves.fundamental_alcove(a1)
    assert alcoves.box_rep_below(fund) == (1,)
    assert alcoves.box_rep_above(fund) == (0,)
    for d in (a1, c2):
        h = d.coxeter_number
        for a in alcoves.enumerate_alcoves(d, 4):
            below = alcoves.translate(a, neg_weight(alcoves.box_rep_below(a)))
            above = alcoves.translate(a, neg_weight(alcoves.box_rep_above(a)))
            for c in d.simple_coroots:
                assert -h < pair(alcoves._point(below), c) < 0
                assert 0 < pair(alcoves._point(above), c) < h


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_hat_check_are_inverse(a2, data):
    a = data.draw(_alcove_strategy(a2))
    assert alcoves.check(alcoves.hat(a)) == a
    assert alcoves.hat(alcoves.check(a)) == a


def test_hat_is_translation_equivariant(a1):
    for a in alcoves.enumerate_alcoves(a1, 4):
        shifted = alcoves.translate(a, a1.varsigma)
        assert alcoves.hat(shifted) \
            == alcoves.translate(alcoves.hat(a), a1.varsigma)


# -- generic order -----------------------------------------------------------


def test_generic_order_examples(a1):
    fund = alcoves.fundamental_alcove(a1)
    s0, s1 = weyl.all_generators(a1)
    assert alcoves.generic_leq(alcoves.act_right(fund, s1), fund) \
        == "less-equal"
    assert alcoves.generic_leq(fund, alcoves.act_right(fund, s0)) \
        == "less-equal"


def test_generic_order_reflexive_and_antisymmetric(c2):
    window = alcoves.enumerate_alcoves(c2, 4)
    for a in window:
        assert alcoves.generic_leq(a, a) == "equal"
    for a in window[:8]:
        for b in window[:8]:
            if a == b:
                continue
            if alcoves.generic_leq(a, b) == "less-equal":
                assert alcoves.generic_leq(b, a) != "less-equal"


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_generic_order_translation_invariant(a2, data):
    a = data.draw(_alcove_strategy(a2, max_word=4))
    b = data.draw(_alcove_strategy(a2, max_word=4))
    base = alcoves.generic_leq(a, b)
    shifted = alcoves.generic_leq(
        alcoves.translate(a, a2.varsigma),
        alcoves.translate(b, a2.varsigma),
    )
    assert base == shifted


def test_wall_neighbors_always_comparable(c2):
    for a in alcoves.enumerate_alcoves(c2, 3):
        for s in weyl.all_generators(c2):
            b = alcoves.act_right(a, s)
            assert alcoves.generic_leq(a, b) in ("less-equal",
                                                 "greater-equal")


@pytest.mark.parametrize("label, bound, sample", [
    ("A1", 8, None), ("A2", 4, None), ("C2", 4, None), ("B2", 3, None),
    ("G2", 3, 150), ("A3", 2, 150), ("B3", 2, 150), ("C3", 2, 150)])
def test_generic_leq_matches_stepping_oracle(label, bound, sample):
    """The closed-form dominant shift gives the stepping verdict on every
    ordered pair of the window (a seeded sample of pairs on G2 and rank 3).
    The oracle runs on a second datum, so no memo is shared."""
    d = rootdata.build_root_datum(label)
    d_oracle = rootdata.build_root_datum(label)
    window = alcoves.enumerate_alcoves(d, bound)
    pairs = [(a, b) for a in window for b in window]
    if sample is not None:
        pairs = random.Random(label).sample(pairs, sample)

    def on_oracle(a):
        return alcoves.Alcove(weyl.ExtElem(d_oracle, a.elem.fin, a.elem.trans))

    for a, b in pairs:
        assert alcoves.generic_leq(a, b) \
            == generic_leq_by_stepping(on_oracle(a), on_oracle(b)), (a, b)


@pytest.mark.parametrize("label, bound", [
    ("A1", 8), ("A2", 4), ("C2", 3), ("B2", 4), ("G2", 4), ("A3", 3),
    ("B3", 3), ("C3", 3)])
def test_generic_leq_matches_two_walks(label, bound):
    """Gating the Bruhat walk on the closed-form lengths gives the verdict
    of the two walks on every ordered pair of the window."""
    d = rootdata.build_root_datum(label)
    window = alcoves.enumerate_alcoves(d, bound)
    for a in window:
        for b in window:
            assert alcoves.generic_leq(a, b) \
                == generic_leq_by_two_walks(a, b), (a, b)


@pytest.mark.parametrize("label", LABELS)
def test_point_length_matches_length(label):
    """The closed-form length that generic_leq compares before it shifts
    the points moves with the shift as weyl.length does: for m = the
    smallest dominant shift and the one after it, _floor_length of x's
    point plus m times the sum of <varsigma, a^vee> over a > 0 is the
    length of the translate of x(A_fund) by m varsigma, on every element
    of length <= 5 (<= 3 on B3 and C3)."""
    d = rootdata.build_root_datum(label)
    bound = 3 if label in ("B3", "C3") else 5
    height = sum(pair(d.varsigma, c) for c in d.positive_coroots)
    for x in weyl.enumerate_W(d, bound):
        q = weyl._alcove_point(x)
        m0 = alcoves._dominant_shift(d, q)
        for m in (m0, m0 + 1):
            t = alcoves.translate(alcoves.Alcove(x),
                                  tuple(m * c for c in d.varsigma))
            assert alcoves.is_dominant(t), (x, m)
            assert alcoves._floor_length(d, q) + m * height \
                == weyl.length(t.elem), (x, m)


def _dominant_translates(a, b):
    """a and b translated by m * varsigma for the smallest m >= 0 that
    makes both dominant, found by stepping m."""
    for m in range(10000):
        mu = tuple(m * c for c in a.datum.varsigma)
        ta, tb = alcoves.translate(a, mu), alcoves.translate(b, mu)
        if alcoves.is_dominant(ta) and alcoves.is_dominant(tb):
            return ta, tb
    raise AssertionError("no dominant translate found")


@pytest.mark.parametrize("label, bound", [("A2", 4), ("C2", 3), ("G2", 3)])
def test_equal_shifted_lengths_are_incomparable(label, bound):
    """Distinct alcoves whose dominant translates have equal length (by
    weyl.length on the translated elements) are incomparable."""
    d = rootdata.build_root_datum(label)
    window = alcoves.enumerate_alcoves(d, bound)
    seen = 0
    for a, b in itertools.permutations(window, 2):
        ta, tb = _dominant_translates(a, b)
        if ta.elem.length() == tb.elem.length():
            assert alcoves.generic_leq(a, b) == "incomparable", (a, b)
            seen += 1
    assert seen
