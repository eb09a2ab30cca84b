"""Acceptance checks: every headline requirement, one test (= one report
line under ``pytest -v``) each, with its stated tolerance or time budget."""

import json
import random
import subprocess
import sys
import time

import pytest

from affkl import alcoves, characters as ch, hecke, parabolic, periodic, weyl
from affkl.hecke import LaurentPoly
from affkl.rootdata import build_root_datum, complexity_bounds
from oracles import (bfs_lengths, coset_constancy, kl_bar_fixed_point,
                     sl2_simple_character)


def test_criterion_01_length_formula_matches_bfs_oracle():
    """Closed length formula == generator-graph distance, three types, l<=10."""
    start = time.monotonic()
    for typ in ("A1", "A2", "C2"):
        d = build_root_datum(typ)
        for x, depth in bfs_lengths(d, 10).items():
            assert x.length() == depth, (typ, weyl.to_text(x))
    assert time.monotonic() - start < 10.0


def test_criterion_02_kl_matches_bar_fixed_point_solver():
    """Rank-1 affine canonical basis == independent bar-invariance solve,
    l<=14, under 5 seconds."""
    start = time.monotonic()
    d = build_root_datum("A1")
    memo = {}
    for w in weyl.enumerate_W(d, 14):
        assert hecke.kl_basis(w).support == kl_bar_fixed_point(d, w, memo), \
            weyl.to_text(w)
    assert time.monotonic() - start < 5.0


def test_criterion_03_distinguished_element_and_absorption():
    """The canonical antispherical element at the varsigma translation has
    the finite-orbit shape and absorbs every finite KL generator; all types
    and twists, under 30 seconds."""
    start = time.monotonic()
    for typ in ("A1", "A2", "C2"):
        d = build_root_datum(typ)
        for om in weyl.omega_elements(d):
            parabolic.uN_varsigma(d, om)  # raises on either failure
    assert time.monotonic() - start < 30.0


def test_criterion_04_central_morphism_identity():
    """phi maps each spherical canonical element to the antispherical one at
    the shifted index: full sweeps l<=8 (rank 1 and A2) and l<=6 (C2),
    under 10 minutes."""
    start = time.monotonic()
    for typ, bound in (("A1", 8), ("A2", 8), ("C2", 6)):
        d = build_root_datum(typ)
        table = hecke.builtin_kl_table(d)
        for w in weyl.enumerate_fWext(d, bound):
            rep = parabolic.verify_main(table, w)
            assert rep["status"] == "equal", rep
    assert time.monotonic() - start < 600.0


def test_criterion_05_comparison_map_laws():
    """xi and zeta intertwine the right action on the criterion-4 windows,
    and zeta of a length-zero standard vector is the predicted coset sum."""
    for typ, bound in (("A1", 6), ("A2", 4)):
        d = build_root_datum(typ)
        wf = weyl.longest_element(d)
        sample = weyl.enumerate_fWext(d, bound)[:6]
        gens = weyl.all_generators(d)
        for w in sample:
            h = hecke.kl_basis(w)
            for s in gens[: 2]:
                hs = hecke.kl_basis(s)
                assert parabolic.xi(hecke.act(h, hs)) \
                    == hecke.act(parabolic.xi(h), hs)
        for w in sample:
            m = parabolic.sph_standard(w)
            for s in gens[: 2]:
                hs = hecke.kl_basis(s)
                assert parabolic.zeta(hecke.act(m, hs)) \
                    == hecke.act(parabolic.zeta(m), hs)
        for om in weyl.omega_elements(d):
            z = parabolic.zeta(parabolic.sph_standard(om))
            expected = {
                weyl.multiply(x, om): LaurentPoly.term(
                    1, wf.length() - x.length())
                for x in weyl.finite_elements(d)
            }
            assert z.support == expected


def test_criterion_06_periodic_module_properties():
    """Exact normalizer division (C2 l<=6, rank 1 l<=10), translation
    equivariance and the twisted translation-action law (100 instances
    each), and nonnegativity of the table-driven elements over the
    canonical family."""
    rng = random.Random(0)
    for typ, bound in (("A1", 10), ("C2", 6)):
        d = build_root_datum(typ)
        table = hecke.builtin_kl_table(d)
        for a in alcoves.enumerate_alcoves(d, bound):
            periodic.p_canonical_P(table, a)  # raises off the coset structure

    d = build_root_datum("A1")
    window = alcoves.enumerate_alcoves(d, 8)
    for _ in range(100):
        a = rng.choice(window)
        lhs = periodic.canonical_P(alcoves.translate(a, d.varsigma))
        rhs = periodic.per_translate(periodic.canonical_P(a), d.varsigma)
        assert lhs == rhs

    gens = weyl.finite_generators(d)
    for _ in range(100):
        a = rng.choice(window)
        s = rng.choice(gens)
        lam = d.varsigma
        x = periodic.periodic_standard(a)
        twisted = weyl.tau(d, lam, s)
        lhs = periodic.per_act(periodic.per_translate(x, lam),
                               hecke.standard(twisted))
        rhs = periodic.per_translate(
            periodic.per_act(x, hecke.standard(s)), lam)
        assert lhs == rhs

    table = hecke.builtin_kl_table(d)
    report = periodic.positivity_check(table,
                                       alcoves.enumerate_alcoves(d, 6))
    assert report["ok"]


def test_criterion_07_q_routes_and_coset_constancy():
    """Both routes to the baby Verma multiplicities of an alcove agree
    (>= 20 rank-1 alcoves, >= 12 for C2) and the v = 1 column values are
    constant on finite cosets."""
    for typ, bound, minimum in (("A1", 10, 20), ("C2", 4, 12)):
        d = build_root_datum(typ)
        table = hecke.builtin_kl_table(d)
        window = alcoves.enumerate_alcoves(d, bound)
        assert len(window) >= minimum
        for a in window:
            assert ch.q_of_alcove(table, a) == ch.q_via_coset_sum(table, a)
        for w in weyl.enumerate_fW(d, bound if typ == "A1" else 4):
            assert coset_constancy(table, w)


def test_criterion_08_complexity_bounds_c2():
    """The three symbolic count bounds for C2 are exactly (7, 10, 3)."""
    assert complexity_bounds(build_root_datum("C2")) == (7, 10, 3)


def test_criterion_09_sl2_simple_characters():
    """Rank-1 simple characters for p = 5, 7 match the closed form, and
    baby Verma characters have mass p per positive root; under 10 s."""
    start = time.monotonic()
    d = build_root_datum("A1")
    table = hecke.builtin_kl_table(d)
    for p in (5, 7):
        for lam in range(0, 2 * p - 1):
            assert ch.simple_character(table, (lam,), p) \
                == sl2_simple_character(lam, p), (p, lam)
        for lam in (0, 1, 3):
            char = ch.baby_verma_character(d, (lam,), p)
            assert sum(char.values()) == p ** len(d.positive_roots)
    assert time.monotonic() - start < 10.0


def test_criterion_10_steinberg_row():
    """The projective row of a Steinberg-type weight is the single entry 1
    at the weight itself."""
    d = build_root_datum("A1")
    table = hecke.builtin_kl_table(d)
    for p in (5, 7):
        st = (p - 1,)
        assert ch.projective_multiplicities_weight(table, st, p) == {st: 1}
        shifted = (p - 1 + 2 * p,)
        assert ch.projective_multiplicities_weight(table, shifted, p) \
            == {shifted: 1}


def test_criterion_11_fault_injection():
    """A corrupted table is rejected naming the offending (row, column),
    and an injected negative coefficient is localized to the right pair of
    alcoves by the positivity check."""
    d = build_root_datum("A1")
    table = hecke.builtin_kl_table(d)

    w = weyl.all_generators(d)[0]
    col = dict(table.column(w))
    e = weyl.identity(d)
    col[e] = col[e] + LaurentPoly.term(1, -1)  # v^-1: not self-dual
    bad = hecke.PCanonicalTable(d, 2, "H", {w: col})
    with pytest.raises(hecke.TableValidationError) as err:
        hecke.validate_table(bad)
    assert weyl.to_text(e) in str(err.value)
    assert weyl.to_text(w) in str(err.value)

    # synthetic periodic fault (bypasses validation): subtract twice a valid
    # same-box column so the division stays exact but the expansion dips
    target = alcoves.from_weyl(w)
    mu = alcoves.box_rep_above(target)
    omega, x_mu = weyl.omega_of_weight(d, mu)
    twisted = [weyl.multiply(weyl.multiply(omega, s), weyl.invert(omega))
               for s in weyl.finite_generators(d)]
    wprime = next(u for u in weyl.enumerate_W(d, 2)
                  if not u.is_identity()
                  and weyl.is_min_in_coset(u, twisted))
    partner = alcoves.from_weyl(weyl.multiply(x_mu, wprime))
    w_mu_bar = weyl.multiply(
        weyl.multiply(omega, weyl.longest_element(d)), weyl.invert(omega))
    pidx = weyl.multiply(w_mu_bar, wprime)
    idx = periodic._column_index(target)
    col = dict(table.column(idx))
    for y, p in table.column(pidx).items():
        col[y] = col.get(y, LaurentPoly()) - p * LaurentPoly.term(2)
    cols = {idx: col}
    for a in alcoves.enumerate_alcoves(d, 8):
        other = periodic._column_index(a)
        if other != idx:
            cols[other] = table.column(other)
    faulty = hecke.PCanonicalTable(d, 2, "H", cols)
    report = periodic.positivity_check(faulty, alcoves.enumerate_alcoves(d, 6))
    assert not report["ok"]
    assert any(rec["A"] == repr(target) and rec["B"] == repr(partner)
               for rec in report["negative"])


def test_criterion_12_concurrent_verification_is_deterministic(tmp_path):
    """Two concurrent full verification runs on C2 produce byte-identical
    reports."""
    out1 = tmp_path / "r1.json"
    out2 = tmp_path / "r2.json"
    cmd = [sys.executable, "-m", "affkl.cli", "verify", "all", "--type", "C2"]
    procs = [
        subprocess.Popen(cmd + ["--output", str(out)],
                         stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        for out in (out1, out2)
    ]
    for proc in procs:
        _, err = proc.communicate(timeout=300)
        assert proc.returncode == 0, err.decode()
    assert out1.read_bytes() == out2.read_bytes()
    doc = json.loads(out1.read_text())
    assert doc["ok"] is True
