"""A fixed piece of pure-Python work, independent of affkl, that the
benchmark times during a run to gauge how fast the host runs.

On a shared host the same Python code runs up to a third slower or faster
from one ten-minute stretch to the next, and no summary taken inside a 40 s
run removes that.  So a run takes a reference sample before each CLI
invocation or query-mix pass, on the one core that the run and its children
are pinned to, and scales its time metrics by ``REFERENCE_S`` over the
interquartile mean of its samples: they read as on a host that runs one
sample in ``REFERENCE_S``.  The reference imports nothing from affkl and runs
in the benchmark process, so a change to the library cannot move it.

The work is in the style of the library's hot loops: small integer matrices
as tuples, their products and actions on vectors, slotted objects, dict
counts and frozenset membership.
"""

from __future__ import annotations

import time

# nominal seconds of one sample; the scale the time metrics are read in
REFERENCE_S = 0.05
UNITS = 60  # units of work in one sample
_POSITIVE = frozenset((a, b, c) for a in range(3) for b in range(3) for c in range(3))


class _Elem:
    __slots__ = ("mat", "vec")

    def __init__(self, mat, vec):
        self.mat = mat
        self.vec = vec


def _mul(x, y):
    cols = tuple(zip(*y.mat))
    mat = tuple(tuple(sum(a * b for a, b in zip(row, col)) for col in cols)
                for row in x.mat)
    vec = tuple(sum(a * b for a, b in zip(row, y.vec)) + v
                for row, v in zip(x.mat, x.vec))
    return _Elem(mat, vec)


def _unit():
    gens = [_Elem(((0, 1, 0), (1, 0, 0), (0, 0, 1)), (1, 0, 0)),
            _Elem(((1, 0, 0), (0, 0, 1), (0, 1, 0)), (0, -1, 0)),
            _Elem(((-1, 0, 0), (0, 1, 0), (0, 0, 1)), (0, 0, 1))]
    counts = {}
    x = gens[0]
    for i in range(60):
        x = _mul(x, gens[i % 3])
        key = x.vec
        counts[key] = counts.get(key, 0) + 1
        if tuple(abs(v) % 3 for v in key) in _POSITIVE:
            counts[key] += 1
    return len(counts)


def sample():
    """Wall seconds of one reference sample."""
    start = time.perf_counter()
    for _ in range(UNITS):
        _unit()
    return time.perf_counter() - start
