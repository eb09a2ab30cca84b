"""Antispherical/spherical modules, comparison maps, the central morphism."""

import re

import pytest

from affkl import hecke, parabolic, weyl
from affkl.hecke import LaurentPoly, one, v, vinv
from oracles import asph_bar_fixed_point


def test_standard_action_cases(a1):
    s0, s1 = weyl.all_generators(a1)
    e = weyl.identity(a1)
    n_e = parabolic.asph_standard(e)
    # lengths add: N_e . H_s0 = N_s0
    assert hecke.act(n_e, hecke.standard(s0)) \
        == parabolic.asph_standard(s0)
    # leaving the coset-minimal set: N_e . H_s1 = -v N_e
    assert hecke.act(n_e, hecke.standard(s1)) == n_e.scale(-v)
    # spherical sign differs on the same case
    m_e = parabolic.sph_standard(e)
    assert hecke.act(m_e, hecke.standard(s1)) == m_e.scale(vinv)
    # going back down: N_s0 . H_s0 = N_e + (v^-1 - v) N_s0
    n_s0 = parabolic.asph_standard(s0)
    assert hecke.act(n_s0, hecke.standard(s0)) \
        == n_e + n_s0.scale(vinv - v)


def test_indices_must_be_coset_minimal(a1):
    s1 = weyl.all_generators(a1)[1]
    with pytest.raises(ValueError):
        parabolic.asph_standard(s1)


def test_xi_example(a1):
    s0, s1 = weyl.all_generators(a1)
    w = weyl.multiply(s0, s1)
    el = parabolic.xi(hecke.kl_basis(w))
    assert el.support == {
        w: one,
        s0: LaurentPoly.term(1, 1),
    }


def test_zeta_examples(a1, a1_table):
    e = weyl.identity(a1)
    s0, s1 = weyl.all_generators(a1)
    # zeta(M_e) = KL(w_f) = H_s1 + v H_e
    z = parabolic.zeta(parabolic.sph_standard(e))
    assert z.support == {s1: one, e: LaurentPoly.term(1, 1)}
    # zeta(canonical M at s0) = KL(s1 s0)
    z2 = parabolic.zeta(parabolic.p_M(a1_table, s0))
    assert z2 == hecke.kl_basis(weyl.multiply(s1, s0))


def test_zeta_preimage_roundtrip_and_witness(a1, a1_table):
    s0 = weyl.all_generators(a1)[0]
    m = parabolic.p_M(a1_table, s0) + parabolic.sph_standard(s0).scale(v)
    assert parabolic.zeta_preimage(parabolic.zeta(m)) == m
    with pytest.raises(parabolic.NotInImageError) as err:
        parabolic.zeta_preimage(hecke.unit(a1))
    assert "e" in str(err.value)


def test_zeta_is_right_linear(a1):
    s0 = weyl.all_generators(a1)[0]
    m = parabolic.sph_standard(s0)
    h = hecke.kl_basis(s0)
    assert parabolic.zeta(hecke.act(m, h)) \
        == hecke.act(parabolic.zeta(m), h)


def test_xi_is_right_linear(a1):
    s0 = weyl.all_generators(a1)[0]
    h1 = hecke.kl_basis(s0)
    h2 = hecke.standard(weyl.omega_elements(a1)[1])
    assert parabolic.xi(hecke.act(h1, h2)) \
        == hecke.act(parabolic.xi(h1), h2)


def test_canonical_asph_matches_bar_fixed_point_oracle(a1, c2):
    for d, bound in ((a1, 6), (c2, 4)):
        for w in weyl.enumerate_fWext(d, bound):
            assert parabolic.p_N(hecke.builtin_kl_table(d), w).support \
                == asph_bar_fixed_point(d, w), \
                weyl.to_text(w)


def test_canonical_asph_coefficient_cancellation(a1, a1_table):
    s0, s1 = weyl.all_generators(a1)
    w = weyl.multiply(weyl.multiply(s0, s1), s0)
    el = parabolic.p_N(a1_table, w)
    # all algebra KL coefficients die in the module except the one at s0 s1
    assert el.support == {
        w: one,
        weyl.multiply(s0, s1): LaurentPoly.term(1, 1),
    }


def test_distinguished_element_shape(a1, a2, c2):
    for d in (a1, a2, c2):
        for om in weyl.omega_elements(d):
            el = parabolic.uN_varsigma(d, om)  # raises on shape mismatch
            assert len(el.support) == len(weyl.finite_elements(d))


def test_central_morphism_on_canonical_columns(a1, a1_table):
    t_vs = weyl.translation(a1, a1.varsigma)
    for w in weyl.enumerate_fWext(a1, 6):
        rep = parabolic.verify_main(a1_table, w)
        assert rep["status"] == "equal", rep


def test_verify_main_reports_diff_on_tampered_table(a1, a1_table):
    # a synthetic wrong column must yield a DIFFERENT verdict with a diff
    w = weyl.all_generators(a1)[0]
    wf = weyl.longest_element(a1)
    cols = {}
    for y in weyl.enumerate_fWext(a1, 6):
        t_vs = weyl.translation(a1, a1.varsigma)
        for idx in (weyl.multiply(wf, y), weyl.multiply(t_vs, y)):
            cols[idx] = a1_table.column(idx)
    idx = weyl.multiply(weyl.translation(a1, a1.varsigma), w)
    bad_col = dict(cols[idx])
    bad_col[weyl.identity(a1)] = bad_col.get(
        weyl.identity(a1), LaurentPoly()) + LaurentPoly.term(1, 2)
    cols[idx] = bad_col
    tampered = hecke.PCanonicalTable(a1, 2, "H", cols)
    rep = parabolic.verify_main(tampered, w)
    assert rep["status"] == "DIFFERENT"
    assert rep["diff"]


@pytest.mark.parametrize("kind, column_of", [("N", parabolic.p_N),
                                             ("M", parabolic.p_M)])
def test_table_column_keys_must_be_coset_minimal(a1, kind, column_of):
    # a hand-built table is not validated, so the module map must refuse a
    # key outside the coset-minimal set itself
    e = weyl.identity(a1)
    s1 = weyl.all_generators(a1)[1]
    table = hecke.PCanonicalTable(a1, 7, kind, {e: {e: one, s1: v}})
    with pytest.raises(ValueError, match=re.escape(weyl.to_text(s1) + " is not")):
        column_of(table, e)
