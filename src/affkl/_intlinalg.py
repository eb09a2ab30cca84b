"""Exact linear algebra helpers.

Everything in this package works over Z (or Q, via fractions.Fraction); this
module collects the two generic routines needed more than once:

* the exact inverse of a square matrix over Q (Gauss-Jordan elimination on
  fractions), the one matrix inversion of the package,
* Smith normal form of a square integer matrix (used to enumerate finite
  lattice quotients).

All matrices are lists of rows (lists of ints); vectors are tuples or lists
of ints.
"""

from __future__ import annotations

from fractions import Fraction

__all__ = [
    "inverse",
    "smith_normal_form",
]


def inverse(a):
    """The exact inverse of the square matrix ``a`` as a list of rows of
    Fractions; ``ValueError`` if ``a`` is singular."""
    n = len(a)
    m = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(a)]
    for col in range(n):
        piv = next((r for r in range(col, n) if m[r][col] != 0), None)
        if piv is None:
            raise ValueError("the matrix is singular")
        m[col], m[piv] = m[piv], m[col]
        f = m[col][col]
        m[col] = [x / f for x in m[col]]
        for r in range(n):
            if r != col and m[r][col] != 0:
                g = m[r][col]
                m[r] = [x - g * y for x, y in zip(m[r], m[col])]
    return [row[n:] for row in m]


def smith_normal_form(a):
    """Smith normal form of a square integer matrix.

    Returns ``(d, p)`` where ``d`` is the list of diagonal entries (with
    divisibility ``d[0] | d[1] | ...``) and ``p`` is a unimodular row
    transform such that a vector v lies in the column span of ``a`` iff
    ``(p @ v)[i] % d[i] == 0`` for all i (``d[i] == 0`` requiring equality).
    """
    n = len(a)
    h = [list(row) for row in a]
    p = [[1 if i == j else 0 for j in range(n)] for i in range(n)]

    def row_op_add(i, k, c):
        for j in range(n):
            h[i][j] += c * h[k][j]
            p[i][j] += c * p[k][j]

    def row_swap(i, k):
        h[i], h[k] = h[k], h[i]
        p[i], p[k] = p[k], p[i]

    def col_op_add(j, k, c):
        for i in range(n):
            h[i][j] += c * h[i][k]

    def col_swap(j, k):
        for i in range(n):
            h[i][j], h[i][k] = h[i][k], h[i][j]

    for t in range(n):
        while True:
            nz = [(i, j) for i in range(t, n) for j in range(t, n) if h[i][j] != 0]
            if not nz:
                break
            i0, j0 = min(nz, key=lambda ij: abs(h[ij[0]][ij[1]]))
            row_swap(t, i0)
            col_swap(t, j0)
            clean = True
            for i in range(t + 1, n):
                if h[i][t] != 0:
                    row_op_add(i, t, -(h[i][t] // h[t][t]))
                    if h[i][t] != 0:
                        clean = False
            for j in range(t + 1, n):
                if h[t][j] != 0:
                    col_op_add(j, t, -(h[t][j] // h[t][t]))
                    if h[t][j] != 0:
                        clean = False
            if clean and all(h[i][t] == 0 for i in range(t + 1, n)) \
                    and all(h[t][j] == 0 for j in range(t + 1, n)):
                # enforce divisibility d[t] | h[i][j]
                bad = None
                for i in range(t + 1, n):
                    for j in range(t + 1, n):
                        if h[i][j] % h[t][t] != 0:
                            bad = (i, j)
                            break
                    if bad:
                        break
                if bad is None:
                    break
                row_op_add(t, bad[0], 1)
        if h[t][t] < 0:
            for j in range(n):
                h[t][j] = -h[t][j]
                p[t][j] = -p[t][j]
    d = [h[i][i] for i in range(n)]
    return d, p
