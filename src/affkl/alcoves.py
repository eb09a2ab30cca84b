"""The alcove model for the affine Weyl group.

Alcoves are the connected components of the complement of the affine
reflection hyperplanes; ``x -> x(A_fund)`` is a bijection from W to alcoves.
An :class:`Alcove` stores the W-element and derives an exact rational
barycenter (the image of b0 = rho / h, an interior point of A_fund that has
pairing 1/h with every wall).

Left multiplication by any extended element y acts on alcoves via the
decomposition y*x = omega*w: the image alcove is (y x omega^{-1})(A_fund),
where y x omega^{-1} = omega w omega^{-1} lies in W, all in exact integer
arithmetic.
"""

from __future__ import annotations

import math

from . import weyl
from .rootdata import pair, scale_weight, sub_weights

__all__ = [
    "Alcove",
    "fundamental_alcove",
    "from_weyl",
    "to_weyl",
    "act_left",
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

    __slots__ = ("elem", "_bary")

    def __init__(self, elem):
        self.elem = elem
        self._bary = None

    @property
    def datum(self):
        return self.elem.datum

    @property
    def barycenter(self):
        if self._bary is None:
            self._bary = self.elem.apply(weyl._b0(self.elem.datum))
        return self._bary

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


def to_weyl(a):
    return a.elem


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


def act_left(y, a):
    """The W_ext-action on V restricted to alcoves."""
    return Alcove(_set_stabilized(weyl.multiply(y, a.elem)))


def act_right(a, y):
    """Right multiplication under the W <-> alcoves bijection."""
    return Alcove(_set_stabilized(weyl.multiply(a.elem, y)))


def translate(a, mu):
    return act_left(weyl.translation(a.datum, mu), a)


def is_dominant(a):
    b = a.barycenter
    d = a.datum
    return all(pair(b, c) > 0 for c in d.simple_coroots)


def _box_rep(a, rounder):
    d = a.datum
    b = a.barycenter
    targets = []
    for c in d.simple_coroots:
        val = pair(b, c)
        if val.denominator == 1:
            raise RuntimeError("barycenter lies on a wall")  # pragma: no cover
        targets.append(rounder(val))
    return d.weight_with_pairings(targets)


def box_rep_below(a):
    """mu with <mu, a_i> - 1 < <b, a_i> <= <mu, a_i> on all simple coroots."""
    return _box_rep(a, lambda v: math.ceil(v))


def box_rep_above(a):
    """mu with <mu, a_i> <= <b, a_i> < <mu, a_i> + 1 on all simple coroots."""
    return _box_rep(a, lambda v: math.floor(v))


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


def _dominant_shift(a):
    """The smallest m >= 0 with a + m varsigma dominant.

    varsigma pairs to 1 with every simple coroot, and the barycenter pairs
    to a non-integer with every wall, so <b + m varsigma, c> > 0 exactly
    when m > -<b, c>.
    """
    b = a.barycenter
    return max(0, max(math.floor(-pair(b, c)) + 1
                      for c in a.datum.simple_coroots))


def generic_leq(a, b):
    """The translation-invariant generic order on alcoves.

    Returns one of "less-equal", "greater-equal", "equal", "incomparable".
    Both alcoves are translated by m * varsigma for the smallest m >= 0 that
    makes both dominant (read off their barycenters), and the verdict is
    the Bruhat order of the translates.  On dominant alcoves the verdict no
    longer depends on m; the test suite re-checks that against a stepping
    oracle.
    """
    if a == b:
        return "equal"
    mu = scale_weight(max(_dominant_shift(a), _dominant_shift(b)),
                      a.datum.varsigma)
    ta, tb = translate(a, mu), translate(b, mu)
    if not (is_dominant(ta) and is_dominant(tb)):
        raise RuntimeError(
            "translates are not dominant; internal consistency failure at "
            "%r, %r" % (a, b)
        )
    if weyl.bruhat_leq(ta.elem, tb.elem):
        return "less-equal"
    if weyl.bruhat_leq(tb.elem, ta.elem):
        return "greater-equal"
    return "incomparable"


def enumerate_alcoves(datum, max_len):
    """Alcoves of W-elements with length <= max_len, in BFS order."""
    return [Alcove(x) for x in weyl.enumerate_W(datum, max_len)]
