"""Extended affine Weyl group: lengths, words, decompositions, orders."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from affkl import rootdata, weyl
from affkl.rootdata import pair
from oracles import (affine_coroots, bfs_lengths, bruhat_leq_by_stripping,
                     dot_p, finite_word_by_inversions, is_restricted,
                     is_restricted_by_dot_action,
                     longest_element_by_bfs, reduced_word_by_products,
                     walk_to_fundamental_by_fractions)

LABELS = ["A1", "A2", "A3", "B2", "B3", "C2", "C3", "G2"]


def _elem_strategy(datum, max_word=6):
    """Random extended elements: a generator word times a length-zero twist."""
    n_gens = len(weyl.all_generators(datum))
    n_omega = len(weyl.omega_elements(datum))

    def build(indices, om):
        gens = weyl.all_generators(datum)
        x = weyl.identity(datum)
        for i in indices:
            x = weyl.multiply(x, gens[i])
        return weyl.multiply(x, weyl.omega_elements(datum)[om])

    return st.builds(
        build,
        st.lists(st.integers(0, n_gens - 1), max_size=max_word),
        st.integers(0, n_omega - 1),
    )


# -- length ------------------------------------------------------------------


def test_length_matches_bfs_small(a1, c2):
    for d, bound in ((a1, 8), (c2, 6)):
        depth = bfs_lengths(d, bound)
        for x, dep in depth.items():
            assert x.length() == dep


def test_translation_lengths(a1, c2):
    alpha = a1.simple_roots[0]
    assert weyl.translation(a1, alpha).length() == 2
    assert weyl.translation(c2, c2.varsigma).length() == 7  # = bounds baseline


def test_generators_have_length_one(a1, a2, c2):
    for d in (a1, a2, c2):
        for g in weyl.all_generators(d):
            assert g.length() == 1


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_length_of_inverse(a2, data):
    x = data.draw(_elem_strategy(a2))
    assert weyl.invert(x).length() == x.length()


# -- omega -------------------------------------------------------------------


def test_omega_elements_have_length_zero(a1, a2, c2):
    for d in (a1, a2, c2):
        for om in weyl.omega_elements(d):
            assert om.length() == 0


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_omega_decompose_reassembles(a2, data):
    x = data.draw(_elem_strategy(a2))
    omega, w = weyl.omega_decompose(x)
    assert omega.length() == 0
    assert a2.in_root_lattice(w.trans)
    assert weyl.multiply(omega, w) == x


def test_tau_preserves_generator_length(a2):
    lam = a2.varsigma
    for s in weyl.all_generators(a2):
        assert weyl.tau(a2, lam, s).length() == 1


# -- words and text ----------------------------------------------------------


def test_reduced_word_has_length_many(a2):
    gens = weyl.all_generators(a2)
    for x in weyl.enumerate_W(a2, 5):
        word = weyl.reduced_word(x)
        assert len(word) == x.length()
        rebuilt = weyl.identity(a2)
        for i in word:
            rebuilt = weyl.multiply(rebuilt, gens[i])
        assert rebuilt == x


@pytest.mark.parametrize("label, bound", [("A1", 8), ("A2", 5), ("C2", 5),
                                          ("G2", 4), ("B3", 3)])
def test_reduced_word_of_prefix_drops_the_last_letter(label, bound):
    """The lex-minimal reduced word of y s, for s the last letter of the
    lex-minimal reduced word of y, is that word without its last letter."""
    d = rootdata.build_root_datum(label)
    gens = weyl.all_generators(d)
    for y in weyl.enumerate_W(d, bound)[1:]:
        word = weyl.reduced_word(y)
        assert weyl.reduced_word(weyl.multiply(y, gens[word[-1]])) \
            == word[:-1], weyl.to_text(y)


@pytest.mark.parametrize("label", LABELS)
def test_reduced_words_match_the_product_search(label):
    """The wall walk gives the words that stripping the first shortening
    generator by products gives, on a small window and on all of W_f; an
    element outside W is refused by both."""
    d = rootdata.build_root_datum(label)
    for x in weyl.enumerate_W(d, 3 if d.rank < 3 else 2):
        assert weyl.reduced_word(x) == reduced_word_by_products(x), x
    shift = len(weyl.all_generators(d)) - d.rank - 1
    for x in weyl.finite_elements(d):
        assert weyl.finite_word(d, x.fin) \
            == tuple(i - shift for i in reduced_word_by_products(x)), x
    for om in weyl.omega_elements(d)[1:]:
        for word in (weyl.reduced_word, reduced_word_by_products):
            with pytest.raises(ValueError, match="not in the affine Weyl"):
                word(om)


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_text_roundtrip(c2, data):
    x = data.draw(_elem_strategy(c2, max_word=5))
    assert weyl.from_text(c2, weyl.to_text(x)) == x


def test_text_examples(a1):
    assert weyl.to_text(weyl.identity(a1)) == "e"
    t = weyl.translation(a1, (2,))
    assert weyl.from_text(a1, weyl.to_text(t)) == t


# -- Bruhat order ------------------------------------------------------------


def test_bruhat_examples(a1):
    s0, s1 = weyl.all_generators(a1)
    s0s1s0 = weyl.multiply(weyl.multiply(s0, s1), s0)
    assert weyl.bruhat_leq(s0, s0s1s0) is True
    assert weyl.bruhat_leq(s0, s1) is False
    assert weyl.bruhat_leq(s1, s0) is False


def test_bruhat_cross_coset_incomparable(a1):
    om = weyl.omega_elements(a1)[1]
    e = weyl.identity(a1)
    assert weyl.bruhat_leq(e, om) is None


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_bruhat_respects_length(a2, data):
    x = data.draw(_elem_strategy(a2, max_word=4))
    y = data.draw(_elem_strategy(a2, max_word=4))
    if weyl.bruhat_leq(x, y) is True and x != y:
        assert x.length() < y.length()


@pytest.mark.parametrize("label", LABELS)
def test_bruhat_leq_matches_stripping(label):
    """Elements of W are compared without stripping omega, others with: both
    agree with stripping omega from every pair, Omega-twisted pairs and
    pairs across Omega-cosets included."""
    d = rootdata.build_root_datum(label)
    rng = random.Random(label)
    ws = weyl.enumerate_W(d, 3)
    gens = weyl.all_generators(d)
    omegas = weyl.omega_elements(d)
    verdicts = set()
    for _ in range(400):
        ox = rng.choice(omegas)
        x = weyl.multiply(ox, rng.choice(ws))
        if rng.random() < 0.5:  # a wall neighbour: always comparable
            y = weyl.multiply(x, rng.choice(gens))
        else:
            y = weyl.multiply(rng.choice(omegas), rng.choice(ws))
        got = weyl.bruhat_leq(x, y)
        assert got == bruhat_leq_by_stripping(x, y), (x, y)
        verdicts.add((got, ox.is_identity()))
    assert (True, True) in verdicts and (False, True) in verdicts
    if len(weyl.omega_elements(d)) > 1:
        assert None in {v for v, _ in verdicts}
        assert (True, False) in verdicts and (False, False) in verdicts


@pytest.mark.parametrize("label", LABELS)
def test_point_descents_match_lengths(label):
    """The wall of a generator g separates the point of x from A_fund
    exactly when l(g x) < l(x), and g moves the point as its wall entry
    says, on elements twisted by every omega from either side."""
    d = rootdata.build_root_datum(label)
    walls = weyl._walls(d)
    for w in weyl.enumerate_W(d, 3 if d.rank < 3 else 2):
        for om in weyl.omega_elements(d):
            for x in (weyl.multiply(w, om), weyl.multiply(om, w)):
                q = weyl._alcove_point(x)
                for g, (c, level, r) in zip(weyl.all_generators(d), walls):
                    gx = weyl.multiply(g, x)
                    assert (pair(q, c) < level) \
                        == (gx.length() < x.length()), (x, g)
                    k = pair(q, c) - level
                    assert weyl._alcove_point(gx) \
                        == tuple(a - k * b for a, b in zip(q, r)), (x, g)


# -- coset minimality, dot action, restriction --------------------------------


def test_enumerate_fW_is_coset_minimal(c2):
    for w in weyl.enumerate_fW(c2, 5):
        assert weyl.is_fW(w)
        assert weyl.is_fWext(w)


def test_dot_action_example(a1):
    om = weyl.omega_elements(a1)[1]
    # the nontrivial twist sends 0 to (p-2) * rho under the dilated dot action
    assert dot_p(om, (0,), 5) == (3,)


def test_restricted_verdicts(a1):
    om = weyl.omega_elements(a1)[1]
    assert is_restricted(om)
    assert is_restricted(weyl.identity(a1))
    assert not is_restricted(weyl.translation(a1, (2,)))


def test_restricted_box_membership_is_p_independent(a1):
    # spot-check: verdict computed at the reference prime matches p = 11
    for w in weyl.enumerate_fWext(a1, 4):
        lam = dot_p(w, (0,), 11)
        in_box = all(0 <= weyl.pair(lam, c) <= 10 for c in a1.simple_coroots)
        assert is_restricted(w) == in_box


@pytest.mark.parametrize("label", LABELS)
def test_restricted_matches_the_dot_action(label):
    d = rootdata.build_root_datum(label)
    verdicts = set()
    for w in weyl.enumerate_W(d, 5 if d.rank <= 2 else 3):
        for om in weyl.omega_elements(d):
            for x in (weyl.multiply(om, w), weyl.multiply(w, om)):
                got = is_restricted(x)
                assert got == is_restricted_by_dot_action(x), x
                verdicts.add(got)
    assert verdicts == {True, False}


@pytest.mark.parametrize("label", LABELS)
def test_walk_to_fundamental_matches_fraction_walk(label):
    """The integer alcove walk takes the rational walk's path: same y on
    seeded random rational points, and y(point) in the closed alcove."""
    d = rootdata.build_root_datum(label)
    rng = random.Random(label)
    coroots = affine_coroots(d)
    for _ in range(300):
        point = tuple(Fraction(rng.randint(-20, 20), rng.randint(1, 12))
                      for _ in range(d.lattice_rank))
        scale = math.lcm(*(c.denominator for c in point))
        y = weyl.walk_to_fundamental(
            d, tuple(int(c * scale) for c in point), scale)
        assert y == walk_to_fundamental_by_fractions(d, point), point
        image = y.apply(point)
        assert all(pair(image, c) >= 0 for c in d.simple_coroots)
        assert all(pair(image, c) <= 1 for c in coroots)


@pytest.mark.parametrize("label", LABELS)
def test_finite_group_words_and_longest_element_match_oracles(label):
    d = rootdata.build_root_datum(label)
    finite = weyl.finite_elements(d)
    wf = longest_element_by_bfs(d)
    assert finite[0].is_identity() and finite[-1] == wf
    members = set(finite)  # without repeats and closed under s_1 .. s_n
    assert len(members) == len(finite)
    assert all(weyl.multiply(x, g) in members
               for x in finite for g in weyl.finite_generators(d))
    assert finite == tuple(sorted(finite, key=weyl.sort_key))
    assert weyl.longest_element(d) == wf
    assert wf.length() == len(d.positive_roots)
    for x in finite:
        word = finite_word_by_inversions(d, x.fin)
        expected = "w: " + " ".join("s%d" % i for i in word) if word else "e"
        assert weyl.to_text(x) == expected
        assert weyl.from_text(d, weyl.to_text(x)) == x


def test_enumerate_W_refuses_a_negative_length(a1):
    assert weyl.enumerate_W(a1, 0) == [weyl.identity(a1)]
    with pytest.raises(ValueError):
        weyl.enumerate_W(a1, -1)
