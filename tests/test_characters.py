"""Character-level consequences: baby Verma multiplicities of projectives
against the multiplicity theorem's column route, simple characters against
the closed rank-1 form and the whole-window reciprocity inversion, and the
hypotheses of the multiplicity theorem."""

from itertools import product

import pytest

from affkl import alcoves, characters as ch, hecke, rootdata, weyl
from oracles import (block_position, block_position_by_products,
                     coset_constancy, dot_p, is_restricted, label_violation,
                     lower_block_candidates_by_walk, projective_row_by_column,
                     projective_row_by_q_of_alcove,
                     simple_characters_by_reciprocity, sl2_simple_character)


# -- the two routes to the baby Verma multiplicities of an alcove -------------


def test_q_routes_agree(a1, a1_table, a2, a2_table, c2, c2_table):
    cases = [(a1, a1_table, 6), (a2, a2_table, 4), (c2, c2_table, 4)]
    for label, bound in (("G2", 4), ("A3", 3), ("B2", 4)):
        d = rootdata.build_root_datum(label)
        cases.append((d, hecke.builtin_kl_table(d), bound))
    for d, table, bound in cases:
        for a in alcoves.enumerate_alcoves(d, bound):
            assert ch.q_of_alcove(table, a) == ch.q_via_coset_sum(table, a), a


def test_coset_constancy(a1, a1_table, a2, a2_table, c2, c2_table):
    g2 = rootdata.build_root_datum("G2")
    for d, table, bound in ((a1, a1_table, 5), (a2, a2_table, 4),
                            (c2, c2_table, 4),
                            (g2, hecke.builtin_kl_table(g2), 4)):
        for w in weyl.enumerate_fW(d, bound):
            assert coset_constancy(table, w), weyl.to_text(w)


# -- block combinatorics -------------------------------------------------------


def test_block_position_roundtrip(a1):
    for lam in range(-6, 12):
        if (lam + 1) % 5 == 0:
            with pytest.raises(ValueError):
                block_position(a1, (lam,), 5)
            continue
        base, w = block_position(a1, (lam,), 5)
        assert dot_p(w, base, 5) == (lam,)
        # the base weight lies in the interior of the fundamental p-alcove
        assert 0 < base[0] + 1 < 5


@pytest.mark.parametrize("label", ["A1", "A2", "A3", "B2", "B3", "C2", "C3",
                                   "G2"])
def test_block_walk_matches_products(label):
    """The point walk gives the block position and the hat of the block
    alcove that group products give, for every regular weight of
    [0, 2p)^rank, p the least prime >= 2h - 1."""
    d = rootdata.build_root_datum(label)
    p = 2 * d.coxeter_number - 1
    while any(p % q == 0 for q in range(2, p)):
        p += 1
    zero = (0,) * d.lattice_rank
    checked = 0
    for lam in product(range(2 * p), repeat=d.rank):
        if not ch._is_regular(d, lam, p):
            continue
        base, w, x = block_position_by_products(d, lam, p)
        assert block_position(d, lam, p) == (base, w), lam
        assert ch._block_hat(d, lam, p) == (base, x.fin, x.apply(zero)), lam
        checked += 1
    assert checked


def test_finite_by_image_holds_one_entry_per_finite_element():
    """The image-to-element table of the block walk has |W_f| entries per
    datum, however many weights are asked."""
    for label in ("A2", "G2"):
        d = rootdata.build_root_datum(label)
        for lam in product(range(-11, 22), repeat=2):
            if ch._is_regular(d, lam, 11):
                block_position(d, lam, 11)
        entry = d.memo.entry("characters_finite_by_image")
        assert len(entry) == len(weyl.finite_elements(d))
        assert set(entry.values()) \
            == {x.fin for x in weyl.finite_elements(d)}


@pytest.mark.parametrize("label, p, weights", [
    ("A1", 5, [(lam,) for lam in range(-3, 15) if (lam + 1) % 5]),
    ("A1", 7, [(lam,) for lam in range(-3, 21) if (lam + 1) % 7]),
    ("A2", 5, [(0, 0), (1, 1), (3, 1), (2, 0), (7, 2), (8, 6), (-3, -2)]),
    ("A2", 7, [(0, 0), (5, 5), (9, 2), (1, 3), (-2, -3)]),
    ("B2", 7, [(0, 0), (1, 2), (9, 2), (-2, 1)]),
    ("B2", 11, [(1, 2), (13, 0)]),
    ("C2", 7, [(0, 0), (2, 1), (3, 8), (-4, 1)]),
    ("C2", 11, [(2, 1), (0, 14)]),
    ("G2", 11, [(1, 1)]),
    ("G2", 13, [(13, 2)]),
])
def test_lower_block_candidates_match_walk_filter(label, p, weights):
    """The directly enumerated block equals the box scan filtered by alcove
    walks, on regular weights inside and outside the restricted box."""
    d = rootdata.build_root_datum(label)
    for lam in weights:
        assert ch._is_regular(d, lam, p), lam
        assert ch._lower_block_candidates(d, lam, p) \
            == lower_block_candidates_by_walk(d, lam, p), lam


def test_steinberg_detection(a1):
    assert ch.is_steinberg_type(a1, (4,), 5)
    assert ch.is_steinberg_type(a1, (14,), 5)
    assert not ch.is_steinberg_type(a1, (2,), 5)


# -- projective multiplicities -------------------------------------------------


def test_steinberg_row_is_single_entry(a1, a1_table):
    assert ch.projective_multiplicities_weight(a1_table, (4,), 5) == {(4,): 1}
    assert ch.projective_multiplicities_weight(a1_table, (14,), 5) \
        == {(14,): 1}


def test_projective_rows_sl2(a1, a1_table):
    # classical rank-1 answer: Q-hat(lam) = Z-hat(lam) + Z-hat(2p-2-lam)
    for p in (5, 7):
        for lam in range(0, p - 1):
            row = ch.projective_multiplicities_weight(a1_table, (lam,), p)
            assert row == {(lam,): 1, (2 * p - 2 - lam,): 1}, (p, lam)


def test_projective_dimension_sums(a1, a1_table):
    # dim Q-hat = 2p = sum of baby Verma dimensions (each p in rank 1)
    for lam in range(0, 4):
        row = ch.projective_multiplicities_weight(a1_table, (lam,), 5)
        dim = sum(m * sum(ch.baby_verma_character(a1, nu, 5).values())
                  for nu, m in row.items())
        assert dim == 10


@pytest.mark.parametrize("label, p, lo, hi", [
    ("A1", 5, -10, 15), ("A1", 7, -14, 21), ("A1", 11, -22, 33),
    ("A1", 13, -26, 39), ("A2", 5, -5, 10), ("A2", 7, -7, 14),
    ("B2", 7, -7, 14), ("C2", 7, -7, 14), ("G2", 11, 0, 11), ("A3", 7, 0, 7),
])
def test_rows_match_column_route(label, p, lo, hi):
    """The row shifted from the finite base's row equals the row of the
    multiplicity theorem, one table column at a p X-shifted label, and q_A
    of the block alcove relabelled key by key (on a second datum, so that
    no memo is shared), on every regular or Steinberg-type weight of the
    window [lo, hi)^rank."""
    d = rootdata.build_root_datum(label)
    table = hecke.builtin_kl_table(d)
    other = hecke.builtin_kl_table(rootdata.build_root_datum(label))
    seen = 0
    for lam in product(range(lo, hi), repeat=d.lattice_rank):
        if not (ch._is_regular(d, lam, p) or ch.is_steinberg_type(d, lam, p)):
            continue
        row = ch.projective_multiplicities_weight(table, lam, p)
        assert row == projective_row_by_column(table, lam, p), lam
        assert row == projective_row_by_q_of_alcove(other, lam, p), lam
        seen += 1
    assert seen


@pytest.mark.parametrize("kind", ["N", "M"])
def test_rows_need_an_algebra_table(a1, kind):
    with pytest.raises(ValueError) as err:
        ch.projective_multiplicities_weight(
            hecke.builtin_kl_table(a1, kind), (1,), 5)
    assert str(err.value) == "periodic canonical elements need an algebra table"


def test_singular_non_steinberg_refused(c2, c2_table):
    # (6,0) + varsigma pairs to 7 with the first coroot: on a p-wall for
    # p = 7, and not congruent to (p-1) * varsigma
    assert not ch.is_steinberg_type(c2, (6, 0), 7)
    with pytest.raises(ValueError):
        ch.projective_multiplicities_weight(c2_table, (6, 0), 7)


# -- characters ----------------------------------------------------------------


def test_baby_verma_mass(a1, c2):
    for d, p in ((a1, 5), (a1, 7), (c2, 7)):
        char = ch.baby_verma_character(d, (0,) * d.lattice_rank, p)
        assert sum(char.values()) == p ** len(d.positive_roots)


def test_simple_characters_match_closed_form(a1, a1_table):
    for p in (5, 7):
        for lam in range(0, 2 * p - 1):
            got = ch.simple_character(a1_table, (lam,), p)
            assert got == sl2_simple_character(lam, p), (p, lam)


def test_simple_character_at_large_p(a1, a1_table):
    """The block is enumerated without a walk per box point, so a large p
    costs only the baby Verma character."""
    assert ch.simple_character(a1_table, (3,), 10007) \
        == sl2_simple_character(3, 10007)


def test_simple_character_refuses_small_p(a1, a1_table):
    with pytest.raises(ValueError):
        ch.simple_character(a1_table, (0,), 2)


@pytest.mark.parametrize("query", [
    lambda d, t: ch.simple_character(t, (1, 2), 5),
    lambda d, t: ch.projective_multiplicities_weight(t, (1, 2, 3), 5),
    lambda d, t: ch.baby_verma_character(d, (1, 2), 5),
    lambda d, t: block_position(d, (1, 2), 5),
], ids=["simple_character", "projective_multiplicities_weight",
        "baby_verma_character", "block_position"])
def test_wrong_dimension_weight_is_refused(a1, a1_table, query):
    with pytest.raises(ValueError, match="lattice has rank 1"):
        query(a1, a1_table)


@pytest.mark.parametrize("query, message", [
    (lambda t: ch.simple_character(t, (6, 0), 7),
     "singular non-Steinberg weights are not supported"),
    (lambda t: ch.simple_character(t, (1, 1), 9), "p must be a prime, got 9"),
    (lambda t: ch.simple_character(t, (1,), 7),
     "weight (1,) has 1 coordinates; the lattice has rank 2"),
    (lambda t: ch.projective_multiplicities_weight(t, (6, 0), 7),
     "weight lies on a p-wall; its block is singular"),
    (lambda t: ch.projective_multiplicities_weight(t, (1, 1), 9),
     "p must be a prime, got 9"),
    (lambda t: ch.projective_multiplicities_weight(t, (1,), 7),
     "weight (1,) has 1 coordinates; the lattice has rank 2"),
], ids=["simple-singular", "simple-non-prime", "simple-wrong-rank",
        "table-singular", "table-non-prime", "table-wrong-rank"])
def test_character_refusals(c2_table, query, message):
    with pytest.raises(ValueError) as err:
        query(c2_table)
    assert str(err.value) == message


def test_table_for_another_prime_is_refused(a1):
    """A table made for p = 7 answers p = 7 and refuses p = 5, also at the
    Steinberg weight (4,), whose row needs no column."""
    table = hecke.PCanonicalTable(a1, 7, "H", builtin=True)
    assert ch.simple_character(table, (1,), 7) == sl2_simple_character(1, 7)
    for query in (ch.simple_character, ch.projective_multiplicities_weight):
        for lam in ((1,), (4,)):
            with pytest.raises(ValueError) as err:
                query(table, lam, 5)
            assert str(err.value) == "the table was made for p = 7, not p = 5"


# -- reciprocity ----------------------------------------------------------------


def test_reciprocity_inversion_consistent(a1, a1_table):
    for p in (5, 7, 11):
        labels = [(lam,) for lam in range(0, 2 * p - 1, 2)]
        chars = simple_characters_by_reciprocity(a1_table, labels, p)
        for lam in labels:
            assert chars[lam] == ch.simple_character(a1_table, lam, p), \
                (p, lam)


def test_reciprocity_window_not_closed(a1, a1_table):
    with pytest.raises(ch.WindowError) as err:
        simple_characters_by_reciprocity(a1_table, [(6,), (8,)], 5)
    assert "(0,)" in str(err.value) and "(2,)" in str(err.value)


# -- the hypotheses of the multiplicity theorem -------------------------------


@pytest.mark.parametrize("label", ["A1", "A2", "A3", "B2", "B3", "C2", "C3",
                                   "G2"])
def test_label_violation_matches_coset_minimality_and_restrictedness(label):
    """The hypotheses read off the alcove point of t_varsigma * w are those
    weyl.is_fWext and is_restricted give on the product, for labels
    w = t omega x omega' over a window with Omega twists on either side,
    t = t_{-varsigma} or e, so that every verdict occurs."""
    d = rootdata.build_root_datum(label)
    shifts = (weyl.translation(d, tuple(-c for c in d.varsigma)),
              weyl.identity(d))
    omegas = weyl.omega_elements(d)
    seen = set()
    for x in weyl.enumerate_W(d, 4 - d.rank):
        for t, om, om2 in product(shifts, omegas, omegas):
            w = weyl.multiply(t, weyl.multiply(weyl.multiply(om, x), om2))
            shifted = weyl.multiply(weyl.translation(d, d.varsigma), w)
            if not weyl.is_fWext(shifted):
                want = "coset-minimal"
            else:
                want = None if is_restricted(shifted) else "restricted"
            assert label_violation(w) == want, (label, w)
            seen.add(want)
    assert seen == {None, "coset-minimal", "restricted"}
