"""The alcove model for the affine Weyl group.

Alcoves are the connected components of the complement of the affine
reflection hyperplanes; ``x -> x(A_fund)`` is a bijection from W to alcoves.
An :class:`Alcove` stores the W-element and caches the integer point
h x(b0) inside it (b0 = varsigma / h, an interior point of A_fund that has
pairing 1/h with every wall; see ``weyl._alcove_point``).  Dominance, the
box representatives and the generic order are sign and rounding tests on
that point, in integers.

A product z = omega*w in W_ext of an alcove's element with an extended
element (a translation on the left in ``translate``, any element on the
right in ``act_right``) gives the alcove (z omega^{-1})(A_fund), where
z omega^{-1} = omega w omega^{-1} lies in W, all in exact integer
arithmetic.
"""

from __future__ import annotations

from . import weyl
from .rootdata import add_weights, pair, scale_weight, sub_weights

__all__ = [
    "Alcove",
    "fundamental_alcove",
    "from_weyl",
    "act_right",
    "translate",
    "is_dominant",
    "box_rep_below",
    "box_rep_above",
    "hat",
    "check",
    "generic_leq",
    "enumerate_alcoves",
]

class Alcove:
    """An alcove x(A_fund), keyed by its W-element x."""

    __slots__ = ("elem", "_point")

    def __init__(self, elem):
        self.elem = elem
        self._point = None

    @property
    def datum(self):
        return self.elem.datum

    def __eq__(self, other):
        return isinstance(other, Alcove) and self.elem == other.elem

    def __hash__(self):
        return hash(self.elem)

    def __repr__(self):
        return "Alcove(%s)" % weyl.to_text(self.elem)


def from_weyl(x):
    """Alcove of x; requires x in W (translation in the root lattice)."""
    if not x.datum.in_root_lattice(x.trans):
        raise ValueError("alcoves are labelled by the non-extended group")
    return Alcove(x)


def fundamental_alcove(datum):
    return Alcove(weyl.identity(datum))


def _set_stabilized(y):
    """Rewrite y in W_ext as an element of W with the same alcove image:
    y = omega * w gives y(A_fund) = (omega w omega^{-1})(A_fund), and
    omega w omega^{-1} = y omega^{-1}; y itself when omega is the identity."""
    omega = weyl._omega_part(y)
    if omega.is_identity():
        return y
    return weyl.multiply(y, weyl.invert(omega))


def act_right(a, y):
    """Right multiplication under the W <-> alcoves bijection."""
    return Alcove(_set_stabilized(weyl.multiply(a.elem, y)))


def translate(a, mu):
    """t_mu x = x t_{w^{-1}(mu)} for x = w t_m: one matrix-vector product
    with the memoized inverse of w."""
    x = a.elem
    winv = weyl._mat_inv(a.datum, x.fin)
    return Alcove(_set_stabilized(weyl.ExtElem(
        a.datum, x.fin, add_weights(weyl._mat_apply(winv, mu), x.trans))))


def _point(a):
    """h x(b0) for a = x(A_fund), computed once per alcove."""
    if a._point is None:
        a._point = weyl._alcove_point(a.elem)
    return a._point


def is_dominant(a):
    q = _point(a)
    return all(pair(q, c) > 0 for c in a.datum.simple_coroots)


def _box_rep(a, rounder):
    """The weight pairing to rounder(<q, c>, h) with each simple coroot c,
    for q = h x(b0); q lies on no wall, so <q, c> / h is never an integer."""
    d = a.datum
    q = _point(a)
    return d.weight_with_pairings([rounder(pair(q, c), d.coxeter_number)
                                   for c in d.simple_coroots])


def box_rep_below(a):
    """mu with <mu, a_i> - 1 < <b, a_i> <= <mu, a_i> on all simple coroots."""
    return _box_rep(a, lambda n, h: -(-n // h))


def box_rep_above(a):
    """mu with <mu, a_i> <= <b, a_i> < <mu, a_i> + 1 on all simple coroots."""
    return _box_rep(a, lambda n, h: n // h)


def _conjugated_longest(datum, mu):
    """t_mu w_f t_{-mu} = w_f t_{w_f(mu) - mu}, an element of W."""
    wf = weyl.longest_element(datum).fin
    return weyl.ExtElem(datum, wf, sub_weights(weyl._mat_apply(wf, mu), mu))


def hat(a):
    """(t_mu w_f t_{-mu})(A) for mu = box_rep_below(A); lands in the box
    above mu."""
    return Alcove(weyl.multiply(_conjugated_longest(a.datum, box_rep_below(a)),
                                a.elem))


def check(a):
    """Inverse of hat: uses mu = box_rep_above(A)."""
    return Alcove(weyl.multiply(_conjugated_longest(a.datum, box_rep_above(a)),
                                a.elem))


def _dominant_shift(datum, q):
    """The smallest m >= 0 with q + h m varsigma dominant: varsigma pairs
    to 1 with every simple coroot, and the scaled point q to a non-multiple
    of h, so <q + h m varsigma, c> > 0 exactly when m > -<q, c> / h."""
    h = datum.coxeter_number
    return max(0, max(-pair(q, c) // h + 1 for c in datum.simple_coroots))


def _floor_length(datum, q):
    """The sum over a > 0 of <q, a^vee> // h for the scaled point q.  On a
    dominant q every pairing n is positive, and the sum is l(x) for the
    W-element x whose alcove holds q: the affine walls <., a^vee> = k
    between q / h and A_fund are those with k = 1 .. n // h.  A shift of q
    by h m varsigma adds m <varsigma, a^vee> to each term whatever the
    point, so two points differ in it as their dominant translates differ
    in length."""
    h = datum.coxeter_number
    return sum(pair(q, c) // h for c in datum.positive_coroots)


def generic_leq(a, b):
    """The translation-invariant generic order on alcoves.

    Returns one of "less-equal", "greater-equal", "equal", "incomparable".
    Both alcoves are translated by m * varsigma for the smallest m >= 0 that
    makes both dominant, and the verdict is the Bruhat order of the
    translates.  The translate by mu holds the point q + h mu, so every step
    runs on the points alone: the lengths compare in closed form before
    the shift (_floor_length), distinct elements of equal length are
    incomparable, and otherwise one weyl._bruhat_points walk runs from the
    shorter translate to the longer.  On dominant alcoves the verdict no
    longer depends on m; the test suite re-checks that against a stepping
    oracle.
    """
    if a == b:
        return "equal"
    d = a.datum
    la, lb = _floor_length(d, _point(a)), _floor_length(d, _point(b))
    if la == lb:
        return "incomparable"
    m = max(_dominant_shift(d, _point(a)), _dominant_shift(d, _point(b)))
    shift = scale_weight(d.coxeter_number * m, d.varsigma)
    qa, qb = add_weights(_point(a), shift), add_weights(_point(b), shift)
    walls = weyl._walls(d)
    if la < lb:
        return "less-equal" if weyl._bruhat_points(walls, qa, qb) \
            else "incomparable"
    return "greater-equal" if weyl._bruhat_points(walls, qb, qa) \
        else "incomparable"


def enumerate_alcoves(datum, max_len):
    """Alcoves of W-elements with length <= max_len, in BFS order."""
    return [Alcove(x) for x in weyl.enumerate_W(datum, max_len)]
