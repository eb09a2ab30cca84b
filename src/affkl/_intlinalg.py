"""Exact integer linear algebra helpers.

Everything in this package works over Z (or Q, via fractions.Fraction); this
module collects the few generic routines needed more than once:

* solving an integer linear system together with an integer kernel basis,
* Smith normal form of a square integer matrix (used to enumerate finite
  lattice quotients),
* a canonical minimizer picking one integer solution of an underdetermined
  system deterministically.

All matrices are lists of rows (lists of ints); vectors are tuples or lists
of ints.
"""

from __future__ import annotations

from itertools import product

__all__ = [
    "solve_int",
    "smith_normal_form",
    "canonical_solution",
]


def _deepcopy_mat(a):
    return [list(row) for row in a]


def solve_int(a, b):
    """Solve ``a @ x == b`` over the integers.

    Returns ``(x0, kernel)`` where ``x0`` is one integer solution (a list)
    and ``kernel`` is a list of integer vectors spanning the kernel of ``a``
    over Z, or ``None`` if no integer solution exists.
    """
    m = len(a)
    n = len(a[0]) if m else 0
    h = _deepcopy_mat(a)
    # Column operations bring h to column echelon form; u tracks them so that
    # (original a) @ u == h.
    u = [[1 if i == j else 0 for j in range(n)] for i in range(n)]

    def col_op_add(j, k, c):  # col_j += c * col_k
        for i in range(m):
            h[i][j] += c * h[i][k]
        for i in range(n):
            u[i][j] += c * u[i][k]

    def col_swap(j, k):
        for i in range(m):
            h[i][j], h[i][k] = h[i][k], h[i][j]
        for i in range(n):
            u[i][j], u[i][k] = u[i][k], u[i][j]

    def col_neg(j):
        for i in range(m):
            h[i][j] = -h[i][j]
        for i in range(n):
            u[i][j] = -u[i][j]

    pivots = []  # (row, col) of echelon pivots
    col = 0
    for row in range(m):
        if col >= n:
            break
        # gcd-reduce the entries h[row][col:] into position col
        while True:
            nz = [j for j in range(col, n) if h[row][j] != 0]
            if not nz:
                break
            jmin = min(nz, key=lambda j: abs(h[row][j]))
            col_swap(col, jmin)
            done = True
            for j in range(col + 1, n):
                if h[row][j] != 0:
                    q = h[row][j] // h[row][col]
                    col_op_add(j, col, -q)
                    if h[row][j] != 0:
                        done = False
            if done:
                break
        if col < n and h[row][col] != 0:
            if h[row][col] < 0:
                col_neg(col)
            pivots.append((row, col))
            col += 1

    # Forward-substitute to solve h @ y == b.
    y = [0] * n
    used_rows = {r for r, _ in pivots}
    for r, c in pivots:
        acc = b[r] - sum(h[r][j] * y[j] for j in range(c))
        if acc % h[r][c] != 0:
            return None
        y[c] = acc // h[r][c]
    for r in range(m):
        if r in used_rows:
            continue
        if sum(h[r][j] * y[j] for j in range(n)) != b[r]:
            return None

    x0 = [sum(u[i][j] * y[j] for j in range(n)) for i in range(n)]
    pivot_cols = {c for _, c in pivots}
    kernel = [[u[i][j] for i in range(n)] for j in range(n) if j not in pivot_cols]
    return x0, kernel


def smith_normal_form(a):
    """Smith normal form of a square integer matrix.

    Returns ``(d, p)`` where ``d`` is the list of diagonal entries (with
    divisibility ``d[0] | d[1] | ...``) and ``p`` is a unimodular row
    transform such that a vector v lies in the column span of ``a`` iff
    ``(p @ v)[i] % d[i] == 0`` for all i (``d[i] == 0`` requiring equality).
    """
    n = len(a)
    h = _deepcopy_mat(a)
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


def canonical_solution(a, b):
    """A deterministic integer solution of ``a @ x == b``.

    Among integer solutions reachable from one particular solution by kernel
    vectors with coefficients in a finite search box, picks the one with
    minimal ``(max(|x_i|), x)`` (lexicographic tie-break).  Returns ``None``
    if the system has no integer solution.
    """
    sol = solve_int(a, b)
    if sol is None:
        return None
    x0, kernel = sol
    if not kernel:
        return list(x0)
    radius = max(abs(c) for c in x0) + 2
    best = None
    for coeffs in product(range(-radius, radius + 1), repeat=len(kernel)):
        x = list(x0)
        for c, k in zip(coeffs, kernel):
            for i in range(len(x)):
                x[i] += c * k[i]
        key = (max(abs(v) for v in x) if x else 0, tuple(x))
        if best is None or key < best[0]:
            best = (key, x)
    return best[1]
