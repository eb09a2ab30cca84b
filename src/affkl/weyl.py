"""Finite, affine, and extended affine Weyl groups.

An element of the extended group W_ext = W_f x X (semidirect product) is
stored in the normal form ``w * t_lambda``: a finite-part matrix acting on
the lattice and an integer translation.  The affine group W is the subgroup
with translation in the root lattice; the length-zero elements form Omega,
canonically isomorphic to X / (root lattice).

Lengths come from the closed formula

    l(w t_lambda) = sum_{a > 0, w(a) > 0} |<lambda, a^vee>|
                  + sum_{a > 0, w(a) < 0} |1 + <lambda, a^vee>|

Everything else is alcove geometry on the integer point h x(b0) inside
x(A_fund) (b0 the interior point of A_fund pairing to 1/h with every
wall, h the Coxeter number): a generator of S is a left descent of x
exactly when its wall separates that point from A_fund.  One wall table
and one walk that crosses separating walls serve the reduced words
(lexicographically minimal, with the affine generator named s0 sorting
first; used by the text form and the Hecke-algebra recursions), the walk
of a point into the fundamental alcove, and the Bruhat order.
"""

from __future__ import annotations

from ._intlinalg import inverse
from .rootdata import _parse_weight, add_weights, neg_weight, pair, sub_weights

__all__ = [
    "ExtElem",
    "identity",
    "translation",
    "from_finite_matrix",
    "multiply",
    "invert",
    "length",
    "finite_generators",
    "finite_elements",
    "affine_generators",
    "all_generators",
    "generator_names",
    "omega_decompose",
    "omega_of_weight",
    "omega_elements",
    "tau",
    "reduced_word",
    "finite_word",
    "bruhat_leq",
    "is_min_in_coset",
    "is_fW",
    "is_fWext",
    "longest_element",
    "enumerate_W",
    "enumerate_fW",
    "enumerate_fWext",
    "to_text",
    "from_text",
    "sort_key",
]


# ---------------------------------------------------------------------------
# matrices


def _identity_matrix(m):
    return tuple(tuple(1 if i == j else 0 for j in range(m)) for i in range(m))


def _mat_apply(mat, vec):
    return tuple(sum(row[c] * vec[c] for c in range(len(vec))) for row in mat)


def _mat_mul(a, b):
    n = len(a)
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n))
        for i in range(n)
    )


def _mat_inv(datum, mat):
    cache = datum.memo.entry("matrix_inverse")
    if mat in cache:
        return cache[mat]
    inv = tuple(tuple(int(x) for x in row) for row in inverse(mat))
    cache[mat] = inv
    cache[inv] = mat
    return inv


def _reflection_matrix(datum, root, coroot):
    m = datum.lattice_rank
    return tuple(
        tuple((1 if r == c else 0) - root[r] * coroot[c] for c in range(m))
        for r in range(m)
    )


# ---------------------------------------------------------------------------
# elements


class ExtElem:
    """Element w * t_lambda of W_ext, acting on V by v -> w(v + lambda)."""

    __slots__ = ("datum", "fin", "trans", "_len", "_hash")

    def __init__(self, datum, fin, trans):
        self.datum = datum
        self.fin = fin
        self.trans = tuple(trans)
        self._len = None
        self._hash = None

    def key(self):
        return (self.fin, self.trans)

    def __eq__(self, other):
        return (
            isinstance(other, ExtElem)
            and self.fin == other.fin
            and self.trans == other.trans
        )

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.fin, self.trans))
        return self._hash

    def apply(self, point):
        """Action on a (possibly rational) point: v -> fin(v + trans)."""
        return _mat_apply(self.fin, add_weights(point, self.trans))

    def is_identity(self):
        return self.trans == (0,) * self.datum.lattice_rank and \
            self.fin == _identity_matrix(self.datum.lattice_rank)

    def length(self):
        if self._len is None:
            self._len = length(self)
        return self._len

    def __repr__(self):
        return "ExtElem(%s)" % to_text(self)


def identity(datum):
    return ExtElem(datum, _identity_matrix(datum.lattice_rank),
                   (0,) * datum.lattice_rank)


def translation(datum, weight):
    return ExtElem(datum, _identity_matrix(datum.lattice_rank), weight)


def from_finite_matrix(datum, mat):
    return ExtElem(datum, mat, (0,) * datum.lattice_rank)


def multiply(x, y):
    """(w t_l)(w' t_m) = (w w') t_{w'^{-1}(l) + m}."""
    if x.datum is not y.datum:
        raise ValueError("elements over different root data")
    winv = _mat_inv(x.datum, y.fin)
    return ExtElem(
        x.datum,
        _mat_mul(x.fin, y.fin),
        add_weights(_mat_apply(winv, x.trans), y.trans),
    )


def invert(x):
    """(w t_l)^{-1} = w^{-1} t_{-w(l)}."""
    return ExtElem(
        x.datum, _mat_inv(x.datum, x.fin), neg_weight(_mat_apply(x.fin, x.trans))
    )


def length(x):
    """Closed length formula on W_ext (see module docstring)."""
    d = x.datum
    total = 0
    for root, coroot in zip(d.positive_roots, d.positive_coroots):
        n = pair(x.trans, coroot)
        image = _mat_apply(x.fin, root)
        if image in d.positive_root_set:
            total += abs(n)
        else:
            total += abs(1 + n)
    return total


# ---------------------------------------------------------------------------
# generators


def finite_generators(datum):
    """The simple reflections s_1 .. s_n as ExtElems (trivial translation)."""
    return [
        from_finite_matrix(
            datum, _reflection_matrix(datum, datum.simple_roots[i], datum.simple_coroots[i])
        )
        for i in range(datum.rank)
    ]


def _components(datum):
    """Connected components of the Cartan graph, as sorted index lists."""
    n = datum.rank
    seen = [False] * n
    comps = []
    for i in range(n):
        if seen[i]:
            continue
        comp, stack = [], [i]
        seen[i] = True
        while stack:
            j = stack.pop()
            comp.append(j)
            for k in range(n):
                if not seen[k] and datum.cartan[j][k] != 0:
                    seen[k] = True
                    stack.append(k)
        comps.append(sorted(comp))
    return comps


def affine_generators(datum):
    """One affine reflection t_theta s_theta per irreducible component.

    theta is the root whose coroot is the highest coroot of the component;
    in pair form the generator is (matrix of s_theta, -theta).
    """
    gens = []
    for comp in _components(datum):
        best = None
        for idx in range(len(datum.positive_roots)):
            if any(datum.root_coeffs[idx][i] for i in comp):
                h = datum.coroot_heights[idx]
                if best is None or h > datum.coroot_heights[best]:
                    best = idx
        root = datum.positive_roots[best]
        coroot = datum.positive_coroots[best]
        mat = _reflection_matrix(datum, root, coroot)
        gens.append(ExtElem(datum, mat, neg_weight(root)))
    return gens


def all_generators(datum):
    """The full generating set S, affine generators first (index order)."""
    return datum.memo.entry(
        "generators",
        lambda: tuple(affine_generators(datum) + finite_generators(datum)))


def generator_names(datum):
    n_aff = len(_components(datum))
    if n_aff == 1:
        names = ["s0"]
    else:
        names = ["s0_%d" % k for k in range(n_aff)]
    names += ["s%d" % (i + 1) for i in range(datum.rank)]
    return names


# ---------------------------------------------------------------------------
# Omega and decompositions


def _fundamental_walk(datum, q, scale):
    """The indices of the walls crossed by the walk of the integer point q,
    taken at the positive integer scale, into the closed fundamental
    alcove: the wall levels of _walls are scaled from h to scale, so every
    wall test is an integer comparison.  The simple walls are crossed
    before the affine ones."""
    h = datum.coxeter_number
    walls = [(c, level // h * scale, r) for c, level, r in _walls(datum)]
    n_aff = len(walls) - datum.rank
    order = list(range(n_aff, len(walls))) + list(range(n_aff))
    return _walk(walls, q, order)


def walk_to_fundamental(datum, q, scale):
    """Return y in W with y(q / scale) inside the closed fundamental alcove,
    for an integer point q and a positive integer scale: the product of the
    generators of the walls _fundamental_walk crosses, the first rightmost."""
    gens = all_generators(datum)
    y = identity(datum)
    for i in _fundamental_walk(datum, q, scale):
        y = multiply(gens[i], y)
    return y


def omega_of_weight(datum, weight):
    """(omega_lambda, x_lambda): x_lambda(A_fund) = lambda + A_fund in W,
    and omega_lambda = x_lambda^{-1} t_lambda has length zero."""
    weight = tuple(weight)
    memo = datum.memo.entry("omega_of_weight")
    if weight not in memo:
        h = datum.coxeter_number
        y = walk_to_fundamental(datum, tuple(
            h * c + r for c, r in zip(weight, datum.varsigma)), h)
        x_lambda = invert(y)
        omega = multiply(invert(x_lambda), translation(datum, weight))
        memo[weight] = (omega, x_lambda)
    return memo[weight]


def _omega_part(x):
    """The length-zero factor omega of x = omega * w, memoized per class of
    trans(x) in X / (root lattice), on which it only depends."""
    datum = x.datum
    cache = datum.memo.entry("omega_by_class")
    cls = datum.root_lattice_class(x.trans)
    omega = cache.get(cls)
    if omega is None:
        omega, _ = omega_of_weight(datum, x.trans)
        if omega.length() != 0:
            raise RuntimeError("omega part has nonzero length")
        cache[cls] = omega
    return omega


def omega_decompose(x):
    """x = omega * w with l(omega) = 0 and w in W (trans in the root lattice)."""
    omega = _omega_part(x)
    return omega, multiply(invert(omega), x)


def omega_elements(datum):
    """The finite group Omega, ordered by quotient-class key."""
    return datum.memo.entry("omega_elements", lambda: tuple(
        omega_of_weight(datum, rep)[0]
        for rep in datum.quotient_representatives()
    ))


def tau(datum, lam, w):
    """Conjugation by omega_lambda: a length-preserving permutation of S."""
    omega, _ = omega_of_weight(datum, lam)
    return multiply(multiply(omega, w), invert(omega))


# ---------------------------------------------------------------------------
# words, Bruhat order, enumeration


def reduced_word(x):
    """Lexicographically minimal reduced word of x in W over the names of S:
    the walls the walk of x's alcove point crosses, taking each time the
    first separating wall in all_generators order (a left descent).

    Returns a tuple of generator indices into all_generators(x.datum).
    """
    datum = x.datum
    cache = datum.memo.entry("reduced_word")
    key = x.key()
    word = cache.get(key)
    if word is None:
        if not datum.in_root_lattice(x.trans):
            raise ValueError("element is not in the affine Weyl group")
        walls = _walls(datum)
        word = cache[key] = tuple(
            _walk(walls, _alcove_point(x), range(len(walls))))
    return word


def finite_word(datum, mat):
    """Reduced word of a finite Weyl group element over s_1 .. s_n (indices
    are 1-based simple-reflection numbers), memoized per matrix.

    It is the reduced word of the element in W shifted to these numbers: no
    affine generator is a left descent of an element of W_f, so its
    lex-minimal reduced word uses none."""
    cache = datum.memo.entry("finite_word")
    if mat not in cache:
        shift = len(all_generators(datum)) - datum.rank - 1
        cache[mat] = tuple(
            i - shift for i in reduced_word(from_finite_matrix(datum, mat)))
    return cache[mat]


def _alcove_point(x):
    """h x(b0) = x.fin(varsigma + h x.trans), an integer point inside
    x(A_fund): h b0 = varsigma on simply-connected data."""
    h = x.datum.coxeter_number
    return _mat_apply(x.fin, tuple(r + h * t for r, t
                                   in zip(x.datum.varsigma, x.trans)))


def _walls(datum):
    """Per generator of S, in all_generators order, (c, level, r): on points
    q scaled by h, the generator's wall is <q, c> = level, A_fund lies on
    the side <q, c> > level, and the generator sends q to
    q - (<q, c> - level) r.  A simple wall is (alpha_i^vee, 0, alpha_i); the
    affine wall <., theta^vee> = 1 of the generator t_{-theta} s_theta is
    (-theta^vee, -h, -theta)."""
    def build():
        h = datum.coxeter_number
        affine = []
        for g in affine_generators(datum):
            idx = datum.positive_roots.index(neg_weight(g.trans))
            affine.append((neg_weight(datum.positive_coroots[idx]), -h, g.trans))
        return tuple(affine) + tuple(
            (c, 0, r) for r, c in zip(datum.simple_roots, datum.simple_coroots))
    return datum.memo.entry("alcove_walls", build)


def _walk(walls, q, order):
    """Cross, from the integer point q, the first wall in order (indices
    into walls) with <q, c> < level until none is left; return the crossed
    indices.  ValueError after 100000 crossings."""
    crossed = []
    for _ in range(100000):
        for i in order:
            c, level, r = walls[i]
            k = pair(q, c) - level
            if k < 0:
                break
        else:
            return crossed
        crossed.append(i)
        q = tuple(a - k * b for a, b in zip(q, r))
    raise ValueError("the alcove walk passed its 100000-step guard: "
                     "the point is too far from the fundamental alcove")


def _bruhat_points(walls, u, w):
    """u <= w for the W-elements whose alcoves hold the scaled points u, w.

    Lifting property (Bjorner-Brenti, Prop. 2.2.7): for a left descent s of
    w, u <= w iff su <= sw when s is a left descent of u, else iff u <= sw.
    So walk w's point to A_fund, crossing each wall with u's point too if
    it separates that one; then u <= w iff u's point is in A_fund as well."""
    for i in _walk(walls, w, range(len(walls))):
        c, level, r = walls[i]
        k = pair(u, c) - level
        if k < 0:
            u = tuple(a - k * b for a, b in zip(u, r))
    return all(pair(u, c) > level for c, level, _ in walls)


def bruhat_leq(x, y):
    """Bruhat order on W_ext.

    Returns True/False for elements in the same Omega-coset and None
    ("incomparable") otherwise.  x = omega u and y = omega w compare as u
    and w do, so as omega u omega^{-1} and omega w omega^{-1} (conjugation
    by omega permutes S), whose alcoves hold the points of x and y.
    """
    d = x.datum
    if d.root_lattice_class(x.trans) != d.root_lattice_class(y.trans):
        return None
    return _bruhat_points(_walls(d), _alcove_point(x), _alcove_point(y))


def is_min_in_coset(w, parabolic):
    """True iff l(g w) > l(w) for every generator g in the parabolic set."""
    lw = w.length()
    return all(multiply(g, w).length() > lw for g in parabolic)


def is_fW(w):
    """Minimal in W_f w and a member of W."""
    if not w.datum.in_root_lattice(w.trans):
        return False
    return is_min_in_coset(w, finite_generators(w.datum))


def is_fWext(w):
    """Minimal in W_f w inside W_ext."""
    return is_min_in_coset(w, finite_generators(w.datum))


def finite_elements(datum):
    """The finite Weyl group W_f in sort_key order, so the identity comes
    first and the longest element last."""
    def build():
        gens = finite_generators(datum)
        seen = {identity(datum)}
        frontier = list(seen)
        while frontier:
            nxt = []
            for x in frontier:
                for g in gens:
                    y = multiply(x, g)
                    if y not in seen:
                        seen.add(y)
                        nxt.append(y)
            frontier = nxt
        return tuple(sorted(seen, key=sort_key))
    return datum.memo.entry("finite_elements", build)


def longest_element(datum):
    """The longest element w_f of the finite Weyl group."""
    return finite_elements(datum)[-1]


def enumerate_W(datum, max_len):
    """All W-elements of length <= max_len in (length, lex word) order."""
    if max_len < 0:
        raise ValueError("max_len must be >= 0, got %d" % max_len)
    gens = all_generators(datum)
    out = [identity(datum)]
    level = {identity(datum): ()}
    for ln in range(1, max_len + 1):
        nxt = {}
        for x, word in level.items():
            for i, g in enumerate(gens):
                y = multiply(x, g)
                if y.length() == ln and y not in nxt:
                    nxt[y] = None
        ordered = sorted(nxt, key=reduced_word)
        out.extend(ordered)
        level = {y: None for y in ordered}
    return out


def enumerate_fW(datum, max_len):
    return [w for w in enumerate_W(datum, max_len) if is_fW(w)]


def enumerate_fWext(datum, max_len):
    """Elements w*omega, w in fW with l(w) <= max_len, omega in Omega."""
    out = []
    for w in enumerate_fW(datum, max_len):
        for om in omega_elements(datum):
            out.append(multiply(w, om))
    return out


def sort_key(x):
    """Deterministic total order key on W_ext elements."""
    omega, w = omega_decompose(x)
    return (x.length(), reduced_word(w), omega_elements(x.datum).index(omega))


# ---------------------------------------------------------------------------
# text encoding: "w: s1 s2 | t: (a,b) | omega: k"


def to_text(x):
    """Canonical text form: finite word of the finite part plus translation."""
    parts = []
    fw = finite_word(x.datum, x.fin)
    if fw:
        parts.append("w: " + " ".join("s%d" % i for i in fw))
    if any(x.trans):
        parts.append("t: (%s)" % ",".join(str(v) for v in x.trans))
    if not parts:
        return "e"
    return " | ".join(parts)


def from_text(datum, text):
    """Parse the element text encoding (inverse of to_text; also accepts
    affine generators inside the word and an 'omega: k' factor).  A 't:'
    field is a weight in the grammar of rootdata._parse_weight."""
    text = text.strip()
    if text == "e" or not text:
        return identity(datum)
    names = generator_names(datum)
    by_name = dict(zip(names, all_generators(datum)))
    result = identity(datum)
    for field in text.split("|"):
        field = field.strip()
        if field.startswith("w:"):
            for tok in field[2:].split():
                if tok not in by_name:
                    raise ValueError("unknown generator %r (have %s)"
                                     % (tok, " ".join(names)))
                result = multiply(result, by_name[tok])
        elif field.startswith("t:"):
            mu = _parse_weight(datum, field[2:].lstrip())
            result = multiply(result, translation(datum, mu))
        elif field.startswith("omega:"):
            index = field[6:].strip()
            if not index.removeprefix("-").isdecimal():
                raise ValueError("omega index %r is not an integer" % index)
            k = int(index)
            omegas = omega_elements(datum)
            if not 0 <= k < len(omegas):
                raise ValueError("omega index %d out of range 0..%d"
                                 % (k, len(omegas) - 1))
            result = multiply(result, omegas[k])
        else:
            raise ValueError("unknown field %r" % field)
    return result
