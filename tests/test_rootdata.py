"""Root data: positive systems, constants, lattices, hashes, JSON schema."""

import random
from fractions import Fraction

import pytest

from affkl import rootdata
from affkl.rootdata import build_root_datum, complexity_bounds, pair


def test_positive_root_counts(a1, a2, c2):
    assert len(a1.positive_roots) == 1
    assert len(a2.positive_roots) == 3
    assert len(c2.positive_roots) == 4


def test_simple_pairings_reproduce_cartan(a2, c2):
    for d in (a2, c2):
        for i in range(d.rank):
            for j in range(d.rank):
                assert pair(d.simple_roots[j], d.simple_coroots[i]) \
                    == d.cartan[i][j]


def test_rho_and_coxeter_number(a1, a2, c2):
    assert a1.coxeter_number == 2
    assert a2.coxeter_number == 3
    assert c2.coxeter_number == 4
    # rho, the half-sum of the positive roots, is varsigma
    for d in (a1, a2, c2):
        rho = tuple(Fraction(sum(col), 2) for col in zip(*d.positive_roots))
        assert rho == d.varsigma


def test_varsigma_pairs_to_one(a1, a2, c2):
    for d in (a1, a2, c2):
        for c in d.simple_coroots:
            assert pair(d.varsigma, c) == 1


def test_complexity_bounds_frozen_values(a1, a2, c2):
    assert complexity_bounds(a1) == (1, 1, 0)
    assert complexity_bounds(a2) == (4, 5, 1)
    assert complexity_bounds(c2) == (7, 10, 3)


def test_bounds_consistency(a1, a2, c2):
    for d in (a1, a2, c2):
        lo, hi, improved = complexity_bounds(d)
        npos = len(d.positive_roots)
        assert hi == 2 * lo - npos
        assert improved == lo - npos
        assert lo == sum(d.root_heights)


def test_root_lattice_membership(a1, a2):
    alpha = a1.simple_roots[0]
    assert a1.in_root_lattice(alpha)
    assert not a1.in_root_lattice((1,))  # the fundamental weight
    assert a2.in_root_lattice(tuple(
        x + y for x, y in zip(a2.simple_roots[0], a2.simple_roots[1])))


def test_quotient_representatives_sizes(a1, a2, c2):
    assert len(a1.quotient_representatives()) == 2
    assert len(a2.quotient_representatives()) == 3
    assert len(c2.quotient_representatives()) == 2


def test_datum_hash_stable_and_distinct(a1, a2):
    assert a1.datum_hash == build_root_datum("A1").datum_hash
    assert a1.datum_hash != a2.datum_hash


def test_json_schema_roundtrip():
    d = build_root_datum({"schema": 1, "type": "A2",
                          "lattice": "simply_connected"})
    assert d.rank == 2


def test_json_schema_rejects_garbage():
    with pytest.raises((ValueError, KeyError)):
        build_root_datum({"schema": 99})
    with pytest.raises(ValueError):
        build_root_datum("Z9")


def test_cartan_validation_rejects_asymmetric_zero_pattern():
    with pytest.raises(ValueError):
        build_root_datum({"schema": 1, "type": None,
                          "cartan": [[2, -1], [0, 2]],
                          "lattice": "simply_connected"})


def test_weight_arithmetic_matches_the_zip_forms():
    """pair, add_weights, sub_weights, neg_weight and scale_weight equal
    their generator-expression forms, value and type, on integer and
    Fraction vectors of lengths 0 to 3, mixed too."""
    rng = random.Random(7)

    def coordinate():
        n = rng.randint(-9, 9)
        return n if rng.random() < 0.5 else Fraction(n, rng.randint(1, 6))

    for _ in range(500):
        size = rng.randint(0, 3)
        x = tuple(coordinate() for _ in range(size))
        y = tuple(coordinate() for _ in range(size))
        c = coordinate()
        cases = [
            (rootdata.pair(x, y), sum(a * b for a, b in zip(x, y))),
            (rootdata.add_weights(x, y), tuple(a + b for a, b in zip(x, y))),
            (rootdata.sub_weights(x, y), tuple(a - b for a, b in zip(x, y))),
            (rootdata.neg_weight(x), tuple(-a for a in x)),
            (rootdata.scale_weight(c, x), tuple(c * a for a in x)),
        ]
        for got, want in cases:
            assert got == want and type(got) is type(want), (x, y, c)
            if isinstance(want, tuple):
                assert list(map(type, got)) == list(map(type, want))
