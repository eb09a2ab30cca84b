"""Exact linear algebra helpers: the inverse over Q and Smith normal form."""

from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from affkl._intlinalg import inverse, smith_normal_form

small_ints = st.integers(min_value=-4, max_value=4)


def _det(a):
    """Leibniz expansion: independent of any elimination."""
    n = len(a)
    total = 0
    for perm in permutations(range(n)):
        sign = 1
        for i in range(n):
            for j in range(i + 1, n):
                if perm[i] > perm[j]:
                    sign = -sign
        term = sign
        for i in range(n):
            term *= a[i][perm[i]]
        total += term
    return total


def test_inverse_of_a_diagonal_matrix():
    assert inverse([[2, 0], [0, 3]]) == [[Fraction(1, 2), 0], [0, Fraction(1, 3)]]


def test_inverse_of_a_unimodular_matrix_is_integral():
    assert inverse([[1, 1], [0, 1]]) == [[1, -1], [0, 1]]


def test_inverse_rejects_a_singular_matrix():
    with pytest.raises(ValueError, match="singular"):
        inverse([[1, 2], [2, 4]])


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=1, max_value=3).flatmap(
    lambda n: st.lists(st.lists(small_ints, min_size=n, max_size=n),
                       min_size=n, max_size=n)))
def test_inverse_times_matrix_is_identity_or_matrix_is_singular(a):
    n = len(a)
    try:
        inv = inverse(a)
    except ValueError:
        assert _det(a) == 0
        return
    assert _det(a) != 0
    for i in range(n):
        for j in range(n):
            assert sum(inv[i][k] * a[k][j] for k in range(n)) == int(i == j)


def test_smith_normal_form_membership():
    d, p = smith_normal_form([[2, 0], [0, 3]])
    vec = [4, 3]
    img = [sum(p[i][j] * vec[j] for j in range(2)) for i in range(2)]
    assert all(img[i] % d[i] == 0 for i in range(2))
