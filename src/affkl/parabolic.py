"""Antispherical and spherical right modules over the extended Hecke algebra.

Both modules have standard bases indexed by the elements that are minimal in
their finite-Weyl-group coset.  The right action on a standard basis vector
indexed by w is, for a simple generator s:

* index ws (lengths add) if ws is still coset-minimal,
* index ws plus (v^{-1} - v) times the old vector if ws is shorter,
* multiplication by -v (antispherical) or +v^{-1} (spherical) if ws leaves
  the coset-minimal set.

These are Soergel's rules (Represent. Theory 1, 1997); the arithmetic and
the step live in :class:`affkl.hecke.Combination`.  Actions keep the keys
coset-minimal by construction, so the index set is checked only where keys
come from outside: the standard vectors and the table-driven columns.

The module also houses the comparison maps: xi (algebra onto antispherical),
zeta (spherical into the algebra, injective), the distinguished antispherical
canonical element attached to the translation by varsigma, and the central
morphism phi built from it.
"""

from __future__ import annotations

from . import hecke, weyl
from .hecke import Combination, HeckeElem, LaurentPoly, one, v, vinv

__all__ = [
    "ParabolicElem",
    "AsphElem",
    "SphElem",
    "asph_standard",
    "sph_standard",
    "xi",
    "zeta",
    "zeta_preimage",
    "p_N",
    "p_M",
    "uN_varsigma",
    "phi",
    "verify_main",
    "NotInImageError",
]


class NotInImageError(ValueError):
    """An element is not in the image of the relevant module map."""


class ParabolicElem(Combination):
    """Finitely supported map (coset-minimal W_ext element) -> poly."""

    __slots__ = ()

    def as_hecke(self):
        return HeckeElem(self.datum, dict(self.support))


class AsphElem(ParabolicElem):
    __slots__ = ()
    symbol = "N"
    leave_factor = -v


class SphElem(ParabolicElem):
    __slots__ = ()
    symbol = "M"
    leave_factor = vinv


def _check_minimal(keys):
    for w in keys:
        if not weyl.is_fWext(w):
            raise ValueError(
                "standard basis is indexed by coset-minimal elements; "
                "%s is not" % weyl.to_text(w)
            )


def asph_standard(w):
    _check_minimal([w])
    return AsphElem(w.datum, {w: one})


def sph_standard(w):
    _check_minimal([w])
    return SphElem(w.datum, {w: one})


# ---------------------------------------------------------------------------
# comparison maps


def xi(h):
    """Projection of the algebra onto the antispherical module: N_e . h."""
    return hecke.act(asph_standard(weyl.identity(h.datum)), h)


def zeta(m):
    """Embedding of the spherical module into the algebra:
    the image of the standard vector at w is KL(w_f) * H_w."""
    return hecke.act(hecke.kl_basis(weyl.longest_element(m.datum)), m.as_hecke())


def zeta_preimage(h):
    """Inverse of zeta on its image; raises NotInImageError with a witness."""
    datum = h.datum
    wf = weyl.longest_element(datum)
    wf_inv = weyl.invert(wf)
    rem = h
    out = SphElem(datum)
    guard = 0
    while not rem.is_zero():
        guard += 1
        if guard > 100000:  # pragma: no cover
            raise NotInImageError("preimage extraction does not terminate")
        y = max(rem.support, key=weyl.sort_key)
        c = rem.coeff(y)
        w = weyl.multiply(wf_inv, y)
        if not weyl.is_fWext(w) or wf.length() + w.length() != y.length():
            raise NotInImageError(
                "not in the image of zeta: offending term H[%s] with "
                "coefficient %r" % (weyl.to_text(y), c)
            )
        term = SphElem(datum, {w: c})
        out = out + term
        rem = rem - zeta(term)
    return out


# ---------------------------------------------------------------------------
# canonical bases


def p_N(table, w):
    """Table-driven antispherical canonical element; on the built-in table,
    the Kazhdan-Lusztig one, xi(KL(w))."""
    if not weyl.is_fWext(w):
        raise ValueError("index must be coset-minimal")
    if table.basis_kind == "N":
        col = table.column(w)
        _check_minimal(col)
        return AsphElem(table.datum, col)
    if table.basis_kind == "H":
        return xi(HeckeElem(table.datum, table.column(w)))
    raise ValueError("table of kind M cannot produce antispherical columns")


def p_M(table, w):
    """Table-driven spherical canonical element; on the built-in table, the
    Kazhdan-Lusztig one, the zeta preimage of KL(w_f * w)."""
    if not weyl.is_fWext(w):
        raise ValueError("index must be coset-minimal")
    if table.basis_kind == "M":
        col = table.column(w)
        _check_minimal(col)
        return SphElem(table.datum, col)
    if table.basis_kind == "H":
        wf = weyl.longest_element(table.datum)
        return zeta_preimage(HeckeElem(
            table.datum, table.column(weyl.multiply(wf, w))))
    raise ValueError("table of kind N cannot produce spherical columns")


def uN_varsigma(datum, omega=None):
    """The canonical antispherical element at t_varsigma * omega.

    Asserts the closed form: the standard coefficients are v^{l(z)} over the
    finite Weyl group (right-translated by omega), and for omega trivial the
    element absorbs (v + v^{-1}) under every finite KL generator.
    """
    if omega is None:
        omega = weyl.identity(datum)
    if omega.length() != 0:
        raise ValueError("twist must have length zero")
    t_vs = weyl.translation(datum, datum.varsigma)
    elem = p_N(hecke.builtin_kl_table(datum), weyl.multiply(t_vs, omega))
    expected = {}
    for z in weyl.finite_elements(datum):
        key = weyl.multiply(weyl.multiply(t_vs, z), omega)
        expected[key] = LaurentPoly.term(1, z.length())
    if elem.support != expected:
        raise AssertionError(
            "canonical element at t_varsigma does not have the predicted "
            "finite-orbit shape"
        )
    if omega.is_identity():
        for s in weyl.finite_generators(datum):
            lhs = hecke.act(elem, hecke.kl_basis(s))
            if lhs != elem.scale(v + vinv):
                raise AssertionError(
                    "absorption fails for a finite generator"
                )
    return elem


def phi(m):
    """The central morphism from the spherical to the antispherical module:
    the spherical generator maps to the canonical element at t_varsigma."""
    if not isinstance(m, SphElem):
        raise TypeError("phi is defined on spherical elements")
    base = m.datum.memo.entry("uN_varsigma", lambda: uN_varsigma(m.datum))
    return hecke.act(base, m.as_hecke())


def verify_main(table, w):
    """Compare phi of the spherical canonical column at w with the
    antispherical canonical column at t_varsigma * w; returns a report dict."""
    datum = table.datum
    t_vs = weyl.translation(datum, datum.varsigma)
    lhs = phi(p_M(table, w))
    rhs = p_N(table, weyl.multiply(t_vs, w))
    diff = lhs - rhs
    report = {
        "w": weyl.to_text(w),
        "status": "equal" if diff.is_zero() else "DIFFERENT",
        "lhs_terms": len(lhs.support),
        "rhs_terms": len(rhs.support),
    }
    if not diff.is_zero():
        report["diff"] = {
            weyl.to_text(y): repr(p) for y, p in diff.items_sorted()
        }
    return report
