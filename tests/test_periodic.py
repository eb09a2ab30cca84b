"""Periodic module: wall-crossing action, canonical elements, positivity."""

import random
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from affkl import alcoves, hecke, periodic, rootdata, weyl
from affkl.hecke import LaurentPoly, one, v
from oracles import (canonical_P_by_division, column_index_by_lengths,
                     coset_tops_by_lengths, p_canonical_P_direct,
                     per_translate_by_alcoves, twisted_finite_by_tau)


def _alcove_strategy(datum, max_word=4):
    n_gens = len(weyl.all_generators(datum))

    def build(indices):
        gens = weyl.all_generators(datum)
        x = weyl.identity(datum)
        for i in indices:
            x = weyl.multiply(x, gens[i])
        return alcoves.from_weyl(x)

    return st.builds(build,
                     st.lists(st.integers(0, n_gens - 1), max_size=max_word))


def test_action_case_split(a1):
    s0, s1 = weyl.all_generators(a1)
    fund = alcoves.fundamental_alcove(a1)
    below = alcoves.act_right(fund, s1)  # the alcove below the origin wall
    # A_fund . (KL generator at s1): neighbor plus v^{-1} A_fund
    acted = periodic.per_act(periodic.periodic_standard(fund),
                             hecke.kl_basis(s1))
    assert acted.coeff(below) == one
    assert acted.coeff(fund) == LaurentPoly.term(1, -1)
    # from the lower alcove the same wall is crossed upward: coefficient v
    acted2 = periodic.per_act(periodic.periodic_standard(below),
                              hecke.kl_basis(s1))
    assert acted2.coeff(fund) == one
    assert acted2.coeff(below) == LaurentPoly.term(1, 1)



@pytest.mark.parametrize("label, bound", [("A1", 8), ("A2", 4), ("C2", 4),
                                          ("G2", 3), ("B3", 2)])
def test_wall_step_matches_generic_order(label, bound):
    """The closed-form wall side agrees with the generic order for every
    alcove of the window and every generator.  Fresh data, so that no memo
    is shared with other tests."""
    d = rootdata.build_root_datum(label)
    for a in alcoves.enumerate_alcoves(d, bound):
        for s in weyl.all_generators(d):
            b, below = periodic._wall_step(d, a, s)
            assert b == alcoves.act_right(a, s)
            assert below == (alcoves.generic_leq(a, b) == "less-equal"), (a, s)


def test_wall_step_refuses_a_shift_on_the_wall(monkeypatch):
    d = rootdata.build_root_datum("A1")
    monkeypatch.setattr(alcoves, "_point", lambda a: (0,) * d.lattice_rank)
    fund = alcoves.fundamental_alcove(d)
    with pytest.raises(RuntimeError):
        periodic._wall_step(d, fund, weyl.all_generators(d)[0])

def test_action_satisfies_quadratic_relation(a2):
    fund = alcoves.fundamental_alcove(a2)
    x = periodic.periodic_standard(fund)
    for s in weyl.all_generators(a2):
        hs = hecke.standard(s)
        lhs = periodic.per_act(periodic.per_act(x, hs), hs)
        rhs = x + periodic.per_act(x, hs).scale(
            LaurentPoly.term(1, -1) - v)
        assert lhs == rhs


def test_action_rejects_extended_support(a1):
    om = weyl.omega_elements(a1)[1]
    x = periodic.periodic_standard(alcoves.fundamental_alcove(a1))
    with pytest.raises(ValueError):
        periodic.per_act(x, hecke.standard(om))


def test_action_along_a_long_word_needs_no_deep_recursion(low_recursion_limit):
    """A_fund . H_{t_(200)} in A1 folds a 200-letter word, twice the frames
    left to spare; along a dominant translation every step goes
    generically up, so only the translated alcove is left."""
    d = rootdata.build_root_datum("A1")
    fund = alcoves.fundamental_alcove(d)
    x = periodic.per_act(periodic.periodic_standard(fund),
                         hecke.standard(weyl.translation(d, (200,))))
    assert x.support == {alcoves.translate(fund, (200,)): one}


def test_canonical_fund_is_finite_orbit(a1, c2):
    for d in (a1, c2):
        el = periodic.canonical_P_fund(d, (0,) * d.lattice_rank)
        assert len(el.support) == len(weyl.finite_elements(d))
        for a, p in el.support.items():
            assert p == LaurentPoly.term(1, a.elem.length())


def test_canonical_P_examples(a1):
    fund = alcoves.fundamental_alcove(a1)
    s1 = weyl.all_generators(a1)[1]
    below = alcoves.act_right(fund, s1)
    assert periodic.canonical_P(fund) \
        == periodic.canonical_P_fund(a1, (0,))
    el = periodic.canonical_P(below)
    alpha = a1.simple_roots[0]
    shifted = alcoves.translate(fund, tuple(-c for c in alpha))
    assert el.support == {below: one, shifted: v}


def test_normalizer_division_exact_on_window(a1, c2, a1_table, c2_table):
    for d, table, bound in ((a1, a1_table, 8), (c2, c2_table, 5)):
        for a in alcoves.enumerate_alcoves(d, bound):
            periodic.p_canonical_P(table, a)  # raises off the coset structure


@settings(max_examples=20, deadline=None)
@given(st.data())
def test_canonical_P_translation_equivariance(a1, data):
    a = data.draw(_alcove_strategy(a1, max_word=6))
    lhs = periodic.canonical_P(alcoves.translate(a, a1.varsigma))
    rhs = periodic.per_translate(periodic.canonical_P(a), a1.varsigma)
    assert lhs == rhs


@settings(max_examples=20, deadline=None)
@given(st.data())
def test_translation_twists_the_action(a2, data):
    """Translating then acting equals acting by the twisted generator then
    translating (conjugation by the length-zero element of the weight)."""
    a = data.draw(_alcove_strategy(a2, max_word=3))
    lam = a2.varsigma
    x = periodic.periodic_standard(a)
    for s in weyl.finite_generators(a2)[:1]:
        twisted = weyl.tau(a2, lam, s)
        lhs = periodic.per_act(periodic.per_translate(x, lam),
                               hecke.standard(twisted))
        rhs = periodic.per_translate(
            periodic.per_act(x, hecke.standard(s)), lam)
        assert lhs == rhs


@pytest.mark.parametrize("label", ["A1", "A2", "A3", "B2", "B3", "C2", "C3",
                                   "G2"])
def test_per_translate_matches_per_key_route(label):
    """per_translate equals alcoves.translate key by key on an element over
    a window, with distinct coefficients, for the weights with coordinates
    in {-1, 0, 1} and the roots: inside the root lattice (keys rebuilt) and
    outside it (Omega-twisted), wherever X is larger than the root lattice
    (every type but G2)."""
    d = rootdata.build_root_datum(label)
    window = alcoves.enumerate_alcoves(d, 4 if d.rank < 3 else 3)
    x = periodic.PeriodicElem(d, {a: LaurentPoly.term(k + 1, k % 5)
                                  for k, a in enumerate(window)})
    roots = [r for root in d.positive_roots
             for r in (root, tuple(-c for c in root))]
    lattice_classes = set()
    for mu in list(product((-1, 0, 1), repeat=d.lattice_rank)) + roots:
        assert periodic.per_translate(x, mu) \
            == per_translate_by_alcoves(x, mu), mu
        lattice_classes.add(d.in_root_lattice(mu))
    assert lattice_classes == ({True} if label == "G2" else {True, False})


def test_positivity_check_passes_on_builtin(a1, a1_table):
    window = alcoves.enumerate_alcoves(a1, 6)
    report = periodic.positivity_check(a1_table, window)
    assert report["ok"] and report["checked"] == len(window)


def _tampered_table(datum, table, target):
    """Synthetic table (bypasses validation): subtract twice another valid
    column of the same box family from the target's column.  Division by
    the normalizer stays exact, but the expansion in the canonical family
    acquires a negative coefficient at the partner alcove (returned too)."""
    idx = periodic._column_index(target)
    mu = alcoves.box_rep_above(target)
    omega, x_mu = weyl.omega_of_weight(datum, mu)
    twisted = [weyl.multiply(weyl.multiply(omega, s), weyl.invert(omega))
               for s in weyl.finite_generators(datum)]
    wprime = next(w for w in weyl.enumerate_W(datum, 2)
                  if not w.is_identity()
                  and weyl.is_min_in_coset(w, twisted))
    partner = alcoves.from_weyl(weyl.multiply(x_mu, wprime))
    w_mu_bar = weyl.multiply(
        weyl.multiply(omega, weyl.longest_element(datum)),
        weyl.invert(omega))
    pidx = weyl.multiply(w_mu_bar, wprime)
    col = dict(table.column(idx))
    for y, p in table.column(pidx).items():
        col[y] = col.get(y, LaurentPoly()) - p * LaurentPoly.term(2)
    cols = {idx: col}
    for a in alcoves.enumerate_alcoves(datum, 8):
        other = periodic._column_index(a)
        if other != idx:
            cols[other] = table.column(other)
    return hecke.PCanonicalTable(datum, 2, "H", cols), partner


def _assert_column_routes_agree(table, a):
    """The sign tests on alcove points find the column index and coset
    tops that products and lengths find."""
    d = a.datum
    idx = periodic._column_index(a)
    assert idx == column_index_by_lengths(a), a
    mu = alcoves.box_rep_above(a)
    column = table.column(idx)
    assert periodic._coset_tops(d, mu, column) \
        == coset_tops_by_lengths(d, mu, column), a


@pytest.mark.parametrize("label, bound", [("A1", 8), ("A2", 4), ("C2", 4),
                                          ("G2", 3)])
def test_coset_tops_match_act_then_divide(label, bound):
    """Both production routes equal the act-then-divide oracle on every
    alcove of the window, box weights outside the root lattice included,
    and the column index and coset tops equal their length routes.
    Fresh data, so that no memo is shared with other tests."""
    d = rootdata.build_root_datum(label)
    table = hecke.builtin_kl_table(d)
    window = alcoves.enumerate_alcoves(d, bound)
    outside = 0
    for a in window:
        _assert_column_routes_agree(table, a)
        expected = canonical_P_by_division(
            a, table.column(periodic._column_index(a)))
        assert periodic.p_canonical_P(table, a) == expected, a
        assert periodic.canonical_P(a) == expected, a
        outside += not d.in_root_lattice(alcoves.box_rep_above(a))
    if label != "G2":  # G2's root lattice is its whole weight lattice
        assert outside


@pytest.mark.parametrize("label", ["A1", "A2", "A3", "B2", "B3", "C2", "C3",
                                   "G2"])
def test_twisted_finite_matches_tau(label):
    """The per-omega memo of tau_mu on W_f equals tau_mu taken element by
    element, for box weights of every Omega class, and holds one entry per
    omega.  The point test of each twisted simple reflection s' says
    l(s' x) < l(x), on elements twisted by every omega.  A fresh datum, so
    that the memo starts empty."""
    d = rootdata.build_root_datum(label)
    rng = random.Random(label)
    xs = [weyl.multiply(w, om) for w in weyl.enumerate_W(d, 3 - d.rank // 2)
          for om in weyl.omega_elements(d)]
    for rep in d.quotient_representatives() * 3:
        mu = rep
        for root in d.simple_roots:  # another weight of the same class
            mu = tuple(m + rng.randint(-3, 3) * r for m, r in zip(mu, root))
        twisted, walls = periodic._twisted_finite(d, mu)
        assert twisted == twisted_finite_by_tau(d, mu), mu
        simple = [s for s, ls in twisted if ls == 1]
        assert len(walls) == len(simple) == d.rank
        for x in xs:
            assert periodic._twisted_descents(walls, x) \
                == [weyl.multiply(s, x).length() < x.length()
                    for s in simple], (mu, x)
    omegas = weyl.omega_elements(d)
    assert set(d.memo.entry("periodic_twisted_finite")) == set(omegas)


def test_coset_tops_match_act_then_divide_on_tampered_columns(a1, a1_table):
    target = alcoves.from_weyl(weyl.all_generators(a1)[0])
    bad, _ = _tampered_table(a1, a1_table, target)
    for a in alcoves.enumerate_alcoves(a1, 8):
        _assert_column_routes_agree(bad, a)
        expected = canonical_P_by_division(
            a, bad.column(periodic._column_index(a)))
        assert periodic.p_canonical_P(bad, a) == expected, a


def test_column_off_its_coset_structure_is_refused(a2, a2_table):
    """Multiplying the coefficient at one non-top key by v (here the
    bottom of the column index's own coset) is refused by name."""
    a = alcoves.from_weyl(weyl.multiply(*weyl.all_generators(a2)[:2]))
    idx = periodic._column_index(a)
    mu = alcoves.box_rep_above(a)
    bottom = weyl.multiply(weyl.tau(a2, mu, weyl.longest_element(a2)), idx)
    col = a2_table.column(idx)
    col[bottom] = col[bottom] * v
    bad = hecke.PCanonicalTable(a2, 2, "H", {idx: col})
    with pytest.raises(RuntimeError) as err:
        periodic.p_canonical_P(bad, a)
    assert weyl.to_text(bottom) in str(err.value)


@pytest.mark.parametrize("label, bound", [("A1", 6), ("A2", 3), ("C2", 3),
                                          ("G2", 2)])
def test_coset_check_of_a_well_formed_column_runs_on_points(label, bound,
                                                           monkeypatch):
    """On the built-in columns of a window the coset check passes on alcove
    points: _coset_tops makes one group product per top, for its key, and
    none to rebuild the column."""
    d = rootdata.build_root_datum(label)
    table = hecke.builtin_kl_table(d)
    multiply = weyl.multiply
    calls = []

    def counted(x, y):
        calls.append((x, y))
        return multiply(x, y)

    for a in alcoves.enumerate_alcoves(d, bound):
        mu = alcoves.box_rep_above(a)
        column = table.column(periodic._column_index(a))
        periodic._twisted_finite(d, mu)  # fill the memo outside the count
        calls.clear()
        with monkeypatch.context() as m:
            m.setattr(weyl, "multiply", counted)
            tops = periodic._coset_tops(d, mu, column)
        assert tops and len(calls) == len(tops), a


def test_coset_check_on_keys_outside_W(a2, a2_table):
    """A key outside W holds the alcove point of a key of W, so points
    alone do not decide it: a column moved off W by omega on the right
    keeps its coset structure, with the same tops as by products and
    lengths, and a column with one non-top key so moved loses it."""
    a = alcoves.from_weyl(weyl.multiply(*weyl.all_generators(a2)[:2]))
    idx = periodic._column_index(a)
    mu = alcoves.box_rep_above(a)
    col = a2_table.column(idx)
    omega = weyl.omega_elements(a2)[1]
    moved = {weyl.multiply(k, omega): p for k, p in col.items()}
    tops = periodic._coset_tops(a2, mu, moved)
    assert tops and tops == coset_tops_by_lengths(a2, mu, moved)
    bottom = weyl.multiply(weyl.tau(a2, mu, weyl.longest_element(a2)), idx)
    one_moved = dict(col)
    one_moved[weyl.multiply(bottom, omega)] = one_moved.pop(bottom)
    for route in (periodic._coset_tops, coset_tops_by_lengths):
        with pytest.raises(RuntimeError):
            route(a2, mu, one_moved)


def _base(a):
    """The base alcove w(A_fund) of a = (w t_m)(A_fund)."""
    return alcoves.Alcove(weyl.from_finite_matrix(a.datum, a.elem.fin))


@pytest.mark.parametrize("label, bound, hats", [
    ("A1", 6, True), ("A2", 3, True), ("A3", 2, True), ("B2", 3, True),
    ("C2", 3, True), ("G2", 2, True),
    # in rank 3 the hat alcoves' columns have length up to 22: seconds each
    ("B3", 1, False), ("C3", 1, False)])
def test_translate_route_matches_direct_formula(label, bound, hats):
    """p_canonical_P, which translates the result at the base alcove,
    equals Lusztig's formula at the alcove asked on every alcove of the
    window (and its hat), asked in either order.  Fresh data, so that the
    memo starts empty."""
    d = rootdata.build_root_datum(label)
    table = hecke.builtin_kl_table(d)
    window = alcoves.enumerate_alcoves(d, bound)
    asked = window + [alcoves.hat(a) for a in window if hats]
    for a in asked + asked[::-1]:
        assert periodic.p_canonical_P(table, a) \
            == p_canonical_P_direct(table, a), a
    assert any(a != _base(a) for a in asked)


def test_translate_route_matches_direct_formula_on_a_json_table():
    """The same on a partial table read back from JSON: an alcove whose
    column the table holds gets the formula's answer, and one whose column
    is missing gets the same KeyError as its base, asked before or after
    it, and leaves no memo item."""
    d = rootdata.build_root_datum("A2")
    builtin = hecke.builtin_kl_table(d)
    # the columns of the bases of length <= 1: every alcove has the column
    # index of its base
    columns = {periodic._column_index(alcoves.from_weyl(x))
               for x in weyl.finite_elements(d) if x.length() <= 1}
    table = hecke.table_from_json(hecke.dump_pcanonical(hecke.PCanonicalTable(
        d, "infinity", "H", {w: builtin.column(w) for w in columns})), d)
    held = missing = 0
    for a in alcoves.enumerate_alcoves(d, 4):
        if periodic._column_index(a) in columns:
            held += 1
            assert periodic.p_canonical_P(table, a) \
                == p_canonical_P_direct(table, a), a
            continue
        missing += 1
        messages = []
        for b in (a, _base(a), a):
            before = len(d.memo.entry("periodic_p_canonical_P"))
            with pytest.raises(KeyError) as err:
                periodic.p_canonical_P(table, b)
            messages.append(str(err.value))
            assert len(d.memo.entry("periodic_p_canonical_P")) == before
        with pytest.raises(KeyError) as err:
            p_canonical_P_direct(table, a)
        assert messages == [str(err.value)] * 3, a
    assert held and missing


def test_off_structure_refusal_is_the_same_for_a_translate(a2, a2_table):
    """A column without the coset structure is refused with the same text
    whether the alcove asked is its base or a translate, every time."""
    a = alcoves.from_weyl(weyl.multiply(*weyl.all_generators(a2)[:2]))
    idx = periodic._column_index(a)
    col = a2_table.column(idx)
    top = max(col, key=weyl.sort_key)
    col[top] = col[top] * v
    bad = hecke.PCanonicalTable(a2, 2, "H", {idx: col})
    lam = a2.simple_roots[0]
    asked = [alcoves.translate(a, lam), a, _base(a)]
    assert len({b.elem for b in asked}) == 3
    messages = []
    for b in asked + asked:
        assert periodic._column_index(b) == idx
        with pytest.raises(RuntimeError) as err:
            periodic.p_canonical_P(bad, b)
        messages.append(str(err.value))
    assert len(set(messages)) == 1 and "coset structure" in messages[0]
    assert not any(t is bad for t, _ in
                   a2.memo.entry("periodic_p_canonical_P"))


def test_positivity_check_window_too_small(a1, a1_table):
    target = alcoves.from_weyl(weyl.all_generators(a1)[0])
    bad, partner = _tampered_table(a1, a1_table, target)
    with pytest.raises(periodic.PositivityWindowError) as err:
        periodic.positivity_check(bad, [target])  # expansion escapes
    assert repr(partner) in str(err.value)


def test_positivity_check_localizes_injected_negative(a1, a1_table):
    target = alcoves.from_weyl(weyl.all_generators(a1)[0])
    bad, partner = _tampered_table(a1, a1_table, target)
    window = alcoves.enumerate_alcoves(a1, 6)
    report = periodic.positivity_check(bad, window)
    assert not report["ok"]
    assert any(rec["A"] == repr(target) and rec["B"] == repr(partner)
               for rec in report["negative"])
