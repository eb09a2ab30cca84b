"""The periodic module: a free Z[v, v^{-1}]-module on alcoves.

The right action of the non-extended Hecke algebra is governed by the
generic order on alcoves: for a KL generator attached to s,

    A . (H_s + v) = As + v A      if A is generically below As,
    A . (H_s + v) = As + v^{-1} A if As is generically below A.

Wall neighbours need no general comparison: A lies generically below As
exactly when As is on the positive side of their common wall.  The alcove
points of A and As differ by a multiple of the wall's root, so the side is
the sign of that difference paired with the sum of the positive coroots.

Translation by a weight acts on alcoves directly; it is not linear over the
algebra action but twists it by the conjugation automorphism of the
generating set (tested as a law in the suite).  For lam in the root lattice,
t_lam lies in W and commutes with the action, and so with Lusztig's formula
below, for any table: the box above A + lam is mu + lam and x_{mu + lam} =
t_lam x_mu, so A + lam has A's column index, twist and coset tops, and the
box star shifted by lam.

The canonical basis element attached to an alcove A is computed from
Lusztig's closed formula: take the box representative mu above A and act on
the explicit canonical element of the box by the KL basis element of the
translated-longest-element times the alcove label (the table-driven variant
substitutes the table column).  Each coset of the twisted finite parabolic
in that column would act as the box normalizer (a Poincare polynomial in
v^2) times its top term, so the formula acts by the coset tops alone and
divides by nothing (see _lusztig_formula).
"""

from __future__ import annotations

from . import alcoves, hecke, weyl
from .hecke import Combination, HeckeElem, LaurentPoly, one
from .rootdata import add_weights, pair, scale_weight, sub_weights

__all__ = [
    "PeriodicElem",
    "periodic_standard",
    "per_act",
    "per_translate",
    "canonical_P_fund",
    "canonical_P",
    "p_canonical_P",
    "positivity_check",
    "PositivityWindowError",
]


class PositivityWindowError(ValueError):
    """The expansion window is too small to triangulate; not guessed."""


class PeriodicElem(Combination):
    """Finitely supported map Alcove -> Laurent polynomial."""

    __slots__ = ()
    symbol = ""
    key_text = staticmethod(repr)

    @staticmethod
    def sort_key(a):
        return weyl.sort_key(a.elem)

    def step(self, s):
        """Right action of H_s = (H_s + v) - v: the alcove A goes to As,
        plus (v^{-1} - v) A when As is generically below A."""
        out = {}
        for a, p in self.support.items():
            b, below = _wall_step(self.datum, a, s)
            _accumulate(out, b, p)
            if not below:  # (v^{-1} - v) p
                _accumulate(out, a, p, -1)
                _accumulate(out, a, p, 1, -1)
        return _from_accumulated(self.datum, out)


def _accumulate(out, key, p, shift=0, sign=1):
    """Add sign * v^shift * p into the exponent -> int map out[key]."""
    acc = out.get(key)
    if acc is None:
        acc = out[key] = {}
    for e, c in p.coeffs.items():
        e += shift
        acc[e] = acc.get(e, 0) + sign * c


def _from_accumulated(datum, out):
    """The PeriodicElem of an alcove -> (exponent -> int) map, building each
    coefficient polynomial once."""
    return PeriodicElem(datum, {a: LaurentPoly(acc) for a, acc in out.items()})


def periodic_standard(alcove):
    return PeriodicElem(alcove.datum, {alcove: one})


def _wall_step(datum, a, s):
    """(neighbor alcove As, True iff A is generically below it), memoized.

    The side comes from the closed form in the module docstring.  For
    A = x(A_fund), x s lies in the non-extended group, so As = x s(A_fund)
    needs no set-stabilizing rewrite.
    """
    cache = datum.memo.entry("periodic_wall_step")
    key = (a.elem, s)
    if key not in cache:
        b = alcoves.Alcove(weyl.multiply(a.elem, s))
        shift = sub_weights(alcoves._point(b), alcoves._point(a))
        side = sum(pair(shift, c) for c in datum.positive_coroots)
        if side == 0:
            raise RuntimeError(
                "barycenter shift lies on a wall; internal consistency "
                "failure at %r" % a
            )
        cache[key] = (b, side > 0)
    return cache[key]


def _act_standard_alcove(datum, a, word):
    """a . H_u for a single alcove, u given by its reduced word (as from
    weyl.reduced_word), memoized along prefixes: dropping the last letter
    s of the lex-minimal reduced word of u gives that of u s.  Built in a
    loop from the longest memoized prefix."""
    cache = datum.memo.entry("periodic_standard_action")
    k = len(word)
    while (a.elem, word[:k]) not in cache:
        if not k:
            cache[a.elem, ()] = periodic_standard(a)
            break
        k -= 1
    out = cache[a.elem, word[:k]]
    for j in range(k, len(word)):
        s = weyl.all_generators(datum)[word[j]]
        out = cache[a.elem, word[:j + 1]] = out.step(s)
    return out


def per_act(x, h):
    """Right action of an algebra element supported on the affine group."""
    if x.datum is not h.datum:
        raise ValueError("periodic element and algebra element disagree on datum")
    out = {}
    for y, q in h.support.items():
        if not x.datum.in_root_lattice(y.trans):  # y not in W
            raise ValueError(
                "the periodic action is defined for the non-extended algebra"
            )
        word = weyl.reduced_word(y)
        for a, p in x.support.items():
            pq = (p * q).coeffs.items()
            for b, r in _act_standard_alcove(x.datum, a, word).support.items():
                acc = out.get(b)
                if acc is None:
                    acc = out[b] = {}
                for e2, c2 in r.coeffs.items():
                    for e1, c1 in pq:
                        e = e1 + e2
                        acc[e] = acc.get(e, 0) + c1 * c2
    return _from_accumulated(x.datum, out)


def per_translate(x, mu):
    """Shift every alcove key by the weight mu.  For mu in the root lattice,
    t_mu (w t_m) = w t_{m + w^{-1}(mu)} stays in W, so each key is rebuilt
    from w^{-1}(mu), computed once per finite part w, with no
    set-stabilizing rewrite; any other mu goes through alcoves.translate."""
    d = x.datum
    if not d.in_root_lattice(mu):
        return PeriodicElem(
            d, {alcoves.translate(a, mu): p for a, p in x.support.items()})
    shift = {w: weyl._mat_apply(weyl._mat_inv(d, w), mu)
             for w in {a.elem.fin for a in x.support}}
    return PeriodicElem(d, {alcoves.Alcove(weyl.ExtElem(
        d, a.elem.fin, add_weights(a.elem.trans, shift[a.elem.fin]))): p
        for a, p in x.support.items()})


def canonical_P_fund(datum, mu):
    """The canonical element at the translated fundamental alcove:
    sum over the finite Weyl group of v^{l(x)} (x(A_fund) + mu), memoized
    per box weight mu."""
    cache = datum.memo.entry("periodic_canonical_fund")
    mu = tuple(mu)
    if mu not in cache:
        out = {}
        for x in weyl.finite_elements(datum):
            a = alcoves.translate(alcoves.from_weyl(x), mu)
            out[a] = LaurentPoly.term(1, x.length())
        cache[mu] = PeriodicElem(datum, out)
    return cache[mu]


def _twisted_finite(datum, mu):
    """(twisted, walls): [(tau_mu(x), l(x)) for x in W_f] in finite_elements
    order, so tau_mu(w_f) comes last, and the weyl._walls entries of the
    twisted simple reflections tau_mu(s_i), which lie in S as Omega permutes
    S.  tau_mu is conjugation by omega_mu, so the pair is memoized per
    omega_mu: at most |Omega| pairs per datum."""
    omega, _ = weyl.omega_of_weight(datum, mu)
    cache = datum.memo.entry("periodic_twisted_finite")
    if omega not in cache:
        twisted = [(weyl.tau(datum, mu, x), x.length())
                   for x in weyl.finite_elements(datum)]
        gens = weyl.all_generators(datum)
        cache[omega] = twisted, [weyl._walls(datum)[gens.index(s)]
                                 for s, ls in twisted if ls == 1]
    return cache[omega]


def _twisted_descents(walls, x):
    """Per twisted wall, True iff its reflection is a left descent of x."""
    q = weyl._alcove_point(x)
    return [pair(q, c) < level for c, level, _ in walls]


def _coset_tops(datum, mu, column):
    """{w_mu k: col[k]} over the keys k that top their coset W_f' k, where
    W_f' = tau_mu(W_f), w_mu = tau_mu(w_f), and k is a top exactly when
    every twisted simple reflection is a left descent of it; W_f', w_mu and
    their walls come from _twisted_finite.  The column must be the sum of
    its cosets, col[z w_mu k] = v^{l(w_f) - l(z)} col[k] for z in W_f',
    with no other key; _coset_sums_hold checks that on alcove points.  If
    it fails, the column is rebuilt from its tops by group products, and a
    RuntimeError names the first key (in sort order) where the two differ."""
    twisted, walls = _twisted_finite(datum, mu)
    w_mu, lf = twisted[-1]
    column = {k: p for k, p in column.items() if not p.is_zero()}
    points, tops = {}, {}
    for k, p in column.items():
        q = weyl._alcove_point(k)
        points[q] = p.coeffs
        if all(pair(q, c) < level for c, level, _ in walls):
            tops[weyl.multiply(w_mu, k)] = p
    if _coset_sums_hold(datum, twisted, tops, points, column):
        return tops
    expected = {weyl.multiply(z, y): p * LaurentPoly.term(1, lf - lz)
                for y, p in tops.items() for z, lz in twisted}
    if expected != column:
        bad = min((k for k in expected.keys() | column.keys()
                   if expected.get(k) != column.get(k)), key=weyl.sort_key)
        raise RuntimeError(
            "the column does not have the twisted finite coset structure at "
            "%s; internal consistency failure" % weyl.to_text(bad)
        )
    return tops  # keys outside W, which per_act refuses


def _coset_sums_hold(datum, twisted, tops, points, column):
    """True iff the column (nonzero coefficients; points maps the alcove
    point of each key to its coefficients) is the map
    z y -> v^{l(w_f) - l(z)} col[y] over its tops y and z in W_f', checked
    with no group product: every key lies in W, where the point h x(b0)
    names x, and the point of z y is z's image fin(q + h trans) of the
    point q of y, for z = fin t_trans.  Distinct pairs (z, y) give
    distinct elements, as the tops lie in distinct cosets, so the column
    has exactly |tops| |W_f'| keys."""
    if len(column) != len(tops) * len(twisted) or not all(
            datum.in_root_lattice(k.trans) for k in column):
        return False
    h, lf = datum.coxeter_number, twisted[-1][1]
    images = [(z.fin, scale_weight(h, z.trans), lf - lz) for z, lz in twisted]
    for y, p in tops.items():
        q = weyl._alcove_point(y)
        for fin, trans, shift in images:
            if points.get(weyl._mat_apply(fin, add_weights(q, trans))) \
                    != {e + shift: c for e, c in p.coeffs.items()}:
                return False
    return True


def _lusztig_formula(alcove, column):
    """Shared body of canonical_P / p_canonical_P, from the column
    (y -> LaurentPoly) at _column_index(alcove).

    The box star canonical_P_fund(mu) is a v^{-1}-eigenvector of every
    H_{s'}, s' in W_f', so star . H_{z y'} = v^{-l(z)} star . H_{y'} for y'
    minimal in its coset.  Under the structure _coset_tops checks, a coset
    then acts as the box normalizer times its top term at y', which cancels
    the division."""
    datum = alcove.datum
    mu = alcoves.box_rep_above(alcove)
    tops = _coset_tops(datum, mu, column)
    return per_act(canonical_P_fund(datum, mu), HeckeElem(datum, tops))


def _column_index(alcove):
    """(w_mu-bar * w) for A = (mu + A_fund) . w, with mu above A."""
    datum = alcove.datum
    mu = alcoves.box_rep_above(alcove)
    _, x_mu = weyl.omega_of_weight(datum, mu)
    w = weyl.multiply(weyl.invert(x_mu), alcove.elem)
    # w must be minimal in its coset under the twisted finite parabolic:
    # no twisted simple reflection is a left descent of it
    twisted, walls = _twisted_finite(datum, mu)
    if any(_twisted_descents(walls, w)):
        raise RuntimeError(
            "alcove label is not coset-minimal; internal consistency failure"
        )
    return weyl.multiply(twisted[-1][0], w)


def canonical_P(alcove):
    """Lusztig's canonical basis element attached to an alcove."""
    return _lusztig_formula(alcove, hecke.kl_basis(_column_index(alcove)).support)


def p_canonical_P(table, alcove):
    """Table-driven canonical basis element attached to an alcove, memoized
    per (table, alcove); a table is not changed once loaded.  The formula
    runs only at bases w(A_fund), w in W_f, kept in the same entry: A =
    (w t_m)(A_fund) gets its base's result translated by the root-lattice
    weight lam = w(m) (module docstring).  A refusal is never kept."""
    if table.basis_kind != "H":
        raise ValueError("periodic canonical elements need an algebra table")
    cache = alcove.datum.memo.entry("periodic_p_canonical_P")
    elem = cache.get((table, alcove))
    if elem is None:
        x = alcove.elem
        base = alcoves.Alcove(weyl.from_finite_matrix(x.datum, x.fin))
        elem = cache.get((table, base))
        if elem is None:
            elem = cache[table, base] = _lusztig_formula(
                base, table.column(_column_index(base)))
        lam = x.apply((0,) * x.datum.lattice_rank)
        if any(lam):
            elem = cache[table, alcove] = per_translate(elem, lam)
    copy = PeriodicElem.__new__(PeriodicElem)
    copy.datum, copy.support = elem.datum, dict(elem.support)
    return copy  # the caller's own copy, with no zero filter to rerun


def _maximal_key(support):
    """A generically-maximal alcove among the keys, deterministically."""
    keys = sorted(support, key=lambda a: weyl.sort_key(a.elem))
    maximal = []
    for a in keys:
        if not any(
            alcoves.generic_leq(a, b) == "less-equal" for b in keys if b != a
        ):
            maximal.append(a)
    return maximal[0]


def positivity_check(table, window_alcoves):
    """Expand each table-driven canonical element over the window in the
    KL-canonical alcove family and report any negative coefficient.

    Returns a report dict; raises PositivityWindowError when the expansion
    needs alcoves outside the given window.
    """
    window = set(window_alcoves)
    report = {"checked": 0, "negative": []}
    for a in window_alcoves:
        target = p_canonical_P(table, a)
        rem = target
        steps = 0
        while not rem.is_zero():
            steps += 1
            if steps > 2000:
                raise PositivityWindowError(
                    "window too small: expansion of the element at %r does "
                    "not terminate within the step budget" % a
                )
            b = _maximal_key(rem.support)
            if b not in window:
                raise PositivityWindowError(
                    "window too small: expansion of the element at %r needs "
                    "the alcove %r outside the window" % (a, b)
                )
            c = rem.coeff(b)
            if any(coef < 0 for coef in c.coeffs.values()):
                report["negative"].append(
                    {"A": repr(a), "B": repr(b), "coefficient": repr(c)}
                )
            rem = rem - canonical_P(b).scale(c)
        report["checked"] += 1
    report["ok"] = not report["negative"]
    return report
