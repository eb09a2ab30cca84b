"""Root data: Cartan matrices, weights, pairings and related constants.

A :class:`RootDatum` packages a finite crystallographic root system embedded
in a character lattice X = Z^rank.  Only the setting of the character
formula is supported: simply-connected semisimple data, whose simple
coroots form a basis of the cocharacter lattice.

* ``simple_roots`` are vectors in lattice coordinates,
* ``simple_coroots`` are covectors (pairing is the plain dot product),
* positive roots/coroots are enumerated by reflection closure, ordered by
  height then lexicographically (stable IDs for caches and output).

Weights are plain integer tuples, and so are points of the alcove
geometry: a rational point is carried as an integer point and a positive
integer scale (see ``weyl._alcove_point``).  All arithmetic is exact.  On
simply-connected data the half-sum of the positive roots is the integer
weight ``varsigma``, pairing to 1 with every simple coroot.
"""

from __future__ import annotations

import hashlib
import json
import re
from itertools import product

from ._intlinalg import inverse, smith_normal_form

__all__ = [
    "RootDatum",
    "MemoStore",
    "build_root_datum",
    "pair",
    "add_weights",
    "sub_weights",
    "neg_weight",
    "scale_weight",
]

# Cartan matrices of the supported named types, indexed by (letter, rank).
_NAMED_CARTAN = {
    ("A", 1): [[2]],
    ("A", 2): [[2, -1], [-1, 2]],
    ("A", 3): [[2, -1, 0], [-1, 2, -1], [0, -1, 2]],
    ("B", 2): [[2, -2], [-1, 2]],
    ("C", 2): [[2, -1], [-2, 2]],
    ("G", 2): [[2, -1], [-3, 2]],
    ("B", 3): [[2, -1, 0], [-1, 2, -2], [0, -1, 2]],
    ("C", 3): [[2, -1, 0], [-1, 2, -1], [0, -2, 2]],
}


def pair(weight, covector):
    """Exact pairing <weight, covector> (dot product; works for Fractions)."""
    return sum(a * b for a, b in zip(weight, covector))


def add_weights(x, y):
    return tuple(a + b for a, b in zip(x, y))


def sub_weights(x, y):
    return tuple(a - b for a, b in zip(x, y))


def neg_weight(x):
    return tuple(-a for a in x)


def scale_weight(c, x):
    return tuple(c * a for a in x)


_WEIGHT_COORDS = re.compile(r"(?:-?\d+(?:\s*,\s*|\s+))*-?\d+|")


def _parse_weight(datum, text):
    """Integers separated by commas or whitespace, optionally inside one
    pair of parentheses: '1,2', '1 2' or '(1, 2)'.  The one weight grammar:
    the CLI's --weight and box(mu), and the 't:' field of weyl.from_text.
    Private, so the benchmark's layer tracer leaves it unwrapped: KLCache
    reads parse a 't:' field per stored term, and a span costs more."""
    body = text.strip()
    if body[:1] == "(" and body[-1:] == ")":
        body = body[1:-1].strip()
    if not _WEIGHT_COORDS.fullmatch(body):
        raise ValueError(
            "weight %r is not integers separated by commas or spaces" % text)
    nums = body.replace(",", " ").split()
    if len(nums) != datum.lattice_rank:
        raise ValueError(
            "weight needs %d coordinates, got %r" % (datum.lattice_rank, text))
    return tuple(map(int, nums))


class MemoStore:
    """The memo tables of one root datum.

    Every layer keeps what it computes for a datum here, under its own
    entry name.  Each datum owns its store, so nothing computed for one
    datum can answer for another, and the memos go when the datum goes.
    """

    __slots__ = ("_entries",)

    def __init__(self):
        self._entries = {}

    def entry(self, name, build=dict):
        """The entry ``name``, made by ``build()`` on first use (by default
        an empty dict to memoize into)."""
        try:
            return self._entries[name]
        except KeyError:
            entry = self._entries[name] = build()
            return entry

    def put(self, name, value):
        self._entries[name] = value


class RootDatum:
    """Immutable root datum; see module docstring.

    Positive roots are stored as parallel lists ``positive_roots`` /
    ``positive_coroots`` (the coroot at index i corresponds to the root at
    index i), together with their heights.  ``memo`` holds everything the
    library memoizes for this datum.
    """

    def __init__(self, cartan, simple_roots, simple_coroots, lattice_rank, label=""):
        self.rank = len(cartan)
        self.cartan = tuple(tuple(row) for row in cartan)
        self.lattice_rank = lattice_rank
        self.simple_roots = tuple(tuple(r) for r in simple_roots)
        self.simple_coroots = tuple(tuple(c) for c in simple_coroots)
        self.label = label
        self._validate_cartan()
        self._close_positive_roots()
        self._compute_constants()
        self._hash_cache = None
        self.memo = MemoStore()

    # -- construction -----------------------------------------------------

    def _validate_cartan(self):
        n = self.rank
        c = self.cartan
        for i in range(n):
            if c[i][i] != 2:
                raise ValueError("Cartan matrix diagonal must be 2")
            for j in range(n):
                if i != j:
                    if c[i][j] > 0:
                        raise ValueError("Cartan off-diagonal entries must be <= 0")
                    if (c[i][j] == 0) != (c[j][i] == 0):
                        raise ValueError("Cartan zero pattern must be symmetric")
        if len(self.simple_roots) != n or len(self.simple_coroots) != n:
            raise ValueError("need one simple root and coroot per Cartan row")
        for i in range(n):
            for j in range(n):
                # <alpha_j, alpha_i^vee> must equal cartan[i][j]
                if pair(self.simple_roots[j], self.simple_coroots[i]) != c[i][j]:
                    raise ValueError(
                        "pairing of simple roots and coroots does not match "
                        "the Cartan matrix at (%d, %d)" % (i, j)
                    )

    def _close_positive_roots(self):
        """Enumerate positive (root, coroot) pairs by reflection closure.

        Each root carries its coefficient vector over the simple roots, so
        positivity and height need no linear solving.
        """
        n = self.rank
        # state: (root, coroot, root_coeffs, coroot_coeffs)
        seen = {}
        frontier = []
        for i in range(n):
            rc = tuple(1 if k == i else 0 for k in range(n))
            item = (self.simple_roots[i], self.simple_coroots[i], rc, rc)
            seen[item[0]] = item
            frontier.append(item)
        steps = 0
        while frontier:
            steps += 1
            if steps > 10000:
                raise ValueError("root closure does not terminate: not finite type")
            root, coroot, rc, cc = frontier.pop()
            for i in range(n):
                a = pair(root, self.simple_coroots[i])
                b = pair(self.simple_roots[i], coroot)
                nroot = sub_weights(root, scale_weight(a, self.simple_roots[i]))
                ncoroot = sub_weights(coroot, scale_weight(b, self.simple_coroots[i]))
                nrc = tuple(rc[k] - (a if k == i else 0) for k in range(n))
                ncc = tuple(cc[k] - (b if k == i else 0) for k in range(n))
                if all(v >= 0 for v in nrc) and any(v > 0 for v in nrc):
                    if nroot not in seen:
                        item = (nroot, ncoroot, nrc, ncc)
                        seen[nroot] = item
                        frontier.append(item)
        items = sorted(
            seen.values(), key=lambda it: (sum(it[2]), it[2], it[0])
        )
        self.positive_roots = tuple(it[0] for it in items)
        self.positive_coroots = tuple(it[1] for it in items)
        self.positive_root_set = frozenset(self.positive_roots)
        self.root_heights = tuple(sum(it[2]) for it in items)
        self.coroot_heights = tuple(sum(it[3]) for it in items)
        self.root_coeffs = tuple(it[2] for it in items)

    def _compute_constants(self):
        n = self.rank
        if self.lattice_rank != n:
            raise ValueError("only semisimple data are supported: the lattice "
                             "has rank %d, the root system %d"
                             % (self.lattice_rank, n))
        # The coroots form a basis of the cocharacter lattice exactly when
        # their matrix has an integral inverse; then every pairing vector is
        # the pairings of one integer weight.
        inv = inverse(self.simple_coroots)
        if any(x.denominator != 1 for row in inv for x in row):
            raise ValueError("the lattice is not simply connected: the simple "
                             "coroots do not span the cocharacter lattice")
        self._coroot_inverse = tuple(tuple(int(x) for x in row) for row in inv)
        # Coxeter number: 1 + height of the highest root.
        self.coxeter_number = 1 + max(self.root_heights)
        # varsigma: the weight pairing to 1 with every simple coroot.
        self.varsigma = self.weight_with_pairings([1] * n)
        root_cols = [[r[i] for r in self.simple_roots] for i in range(n)]
        self._snf_d, self._snf_p = smith_normal_form(root_cols)

    # -- queries -----------------------------------------------------------

    def in_root_lattice(self, weight):
        """True iff the integer weight lies in the lattice spanned by the roots."""
        return not any(self.root_lattice_class(weight))

    def root_lattice_class(self, weight):
        """A hashable key identifying weight + (root lattice)."""
        return tuple(
            sum(pij * wj for pij, wj in zip(row, weight)) % di
            for row, di in zip(self._snf_p, self._snf_d)
        )

    def quotient_representatives(self):
        """Representatives of the finite group X / (root lattice), ordered by
        their class keys."""
        # p is unimodular: p^{-1} @ residues has the class key residues
        p_inv = inverse(self._snf_p)
        return [
            tuple(int(pair(row, residues)) for row in p_inv)
            for residues in product(*[range(d) for d in self._snf_d])
        ]

    def weight_with_pairings(self, targets):
        """The integer weight whose pairing with the i-th simple coroot is
        targets[i]."""
        return tuple(pair(row, targets) for row in self._coroot_inverse)

    @property
    def datum_hash(self):
        if self._hash_cache is None:
            payload = json.dumps(
                {
                    "cartan": self.cartan,
                    "roots": self.simple_roots,
                    "coroots": self.simple_coroots,
                    "lattice_rank": self.lattice_rank,
                },
                sort_keys=True,
                separators=(",", ":"),
            )
            self._hash_cache = hashlib.sha256(payload.encode()).hexdigest()
        return self._hash_cache

    def __repr__(self):
        return "RootDatum(%s)" % (self.label or self.datum_hash[:8])


def complexity_bounds(datum):
    """(lo, hi, improved) word-length bounds for the datum.

    lo = sum of positive-root heights = 2 <rho^vee, rho>; hi = 2*lo - N and
    improved = lo - N where N is the number of positive roots.
    """
    lo = sum(datum.root_heights)
    n_pos = len(datum.positive_roots)
    return (lo, 2 * lo - n_pos, lo - n_pos)


def _simply_connected(cartan, label):
    n = len(cartan)
    # lattice = weight lattice: coroots are the standard covectors, so the
    # j-th simple root has coordinates (cartan[0][j], ..., cartan[n-1][j]).
    coroots = [[1 if k == i else 0 for k in range(n)] for i in range(n)]
    roots = [[cartan[i][j] for i in range(n)] for j in range(n)]
    return RootDatum(cartan, roots, coroots, n, label=label)


def _int_matrix(field, rows, width=None):
    """rows, if it is a non-empty list of integer lists of length ``width``
    (by default the length of the first); else a ValueError naming field."""
    if not (isinstance(rows, list) and rows and isinstance(rows[0], list)):
        raise ValueError("%s must be a non-empty list of integer lists" % field)
    width = len(rows[0]) if width is None else width
    if not all(isinstance(row, list) and len(row) == width
               and all(type(x) is int for x in row) for row in rows):
        raise ValueError("%s must be a list of lists of %d integers"
                         % (field, width))
    return rows


def build_root_datum(spec):
    """Build a RootDatum from a config mapping.

    Schema: ``{"schema": 1, "type": "C2" | null, "cartan": [[...]] | null,
    "lattice": "simply_connected" | {"roots": [[...]], "coroots": [[...]]}}``.
    A bare type string is also accepted.
    """
    if isinstance(spec, str):
        spec = {"type": spec, "lattice": "simply_connected"}
    if not isinstance(spec, dict):
        raise ValueError("a datum config must be a JSON object or a type name")
    if spec.get("schema", 1) != 1:
        raise ValueError("unsupported config schema version")
    type_name = spec.get("type")
    cartan = spec.get("cartan")
    if type_name:
        name = type_name.rstrip("~") if isinstance(type_name, str) else ""
        parts = re.fullmatch(r"([A-Za-z])([0-9]+)", name)
        key = parts and (parts[1].upper(), int(parts[2]))
        if key not in _NAMED_CARTAN:
            raise ValueError("unknown type %r" % type_name)
        named = _NAMED_CARTAN[key]
        if cartan is not None and cartan != named:
            raise ValueError("explicit Cartan matrix contradicts the named type")
        cartan = named
        label = name[0].upper() + name[1:]
    elif cartan is not None:
        if len(_int_matrix("cartan", cartan)[0]) != len(cartan):
            raise ValueError("cartan must be a square matrix")
        label = "custom"
    else:
        raise ValueError("config must give a type or a Cartan matrix")
    lattice = spec.get("lattice", "simply_connected")
    if lattice == "simply_connected":
        return _simply_connected(cartan, label)
    if isinstance(lattice, dict):
        body = lattice.get("embedding", lattice)
        if not isinstance(body, dict) or not body.get("roots"):
            raise ValueError("the lattice lists no simple roots")
        roots, coroots = body["roots"], body.get("coroots")
        m = len(_int_matrix("roots", roots)[0])
        _int_matrix("coroots", coroots, m)
        return RootDatum(cartan, roots, coroots, m, label=label)
    raise ValueError("unsupported lattice description %r" % (lattice,))
