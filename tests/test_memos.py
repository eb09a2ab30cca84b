"""The per-datum result memos of the periodic and character layers: they
never answer for another table, never hand out their own dicts, never keep
a refusal, and a warm datum answers as a fresh one does."""

import itertools

import pytest

from affkl import alcoves, characters as ch, hecke, periodic, rootdata, weyl


def _pcan_form(elem):
    return [(weyl.to_text(a.elem), p.to_pairs()) for a, p in elem.items_sorted()]


def _q_form(q):
    return sorted((weyl.to_text(a.elem), m) for a, m in q.items())


def test_partial_table_still_refuses_after_builtin_answer(a1, a1_table):
    a = alcoves.from_weyl(weyl.all_generators(a1)[0])
    assert not periodic.p_canonical_P(a1_table, a).is_zero()
    partial = hecke.PCanonicalTable(a1, "infinity", "H", {})
    with pytest.raises(KeyError):
        periodic.p_canonical_P(partial, a)


def test_mutating_a_periodic_answer_leaves_the_memo(a1, a1_table):
    a = alcoves.from_weyl(weyl.all_generators(a1)[1])
    first = periodic.p_canonical_P(a1_table, a)
    expected = _pcan_form(first)
    first.support.clear()
    assert _pcan_form(periodic.p_canonical_P(a1_table, a)) == expected


def test_mutating_a_character_answer_leaves_the_memo(a1, a1_table, c2_table):
    for query in (lambda: ch.simple_character(a1_table, (6,), 5),
                  lambda: ch.simple_character(a1_table, (4,), 5),  # Steinberg
                  lambda: ch.projective_multiplicities_weight(a1_table, (2,), 5),
                  lambda: ch.projective_multiplicities_weight(c2_table, (1, 3), 7)):
        first = query()
        expected = dict(first)
        first.clear()
        first[(99,)] = 1
        assert query() == expected


def test_window_error_is_raised_again(c2_table):
    messages = []
    for _ in range(2):
        with pytest.raises(ch.WindowError) as err:
            ch.simple_character(c2_table, (0, 0), 7)
        messages.append(str(err.value))
    assert messages[0] == messages[1]
    assert messages[0].startswith(
        "simple character at (0, 0) for p = 7: cannot decide")


def test_warm_datum_answers_equal_fresh_datum_answers(a1_table, a2_table,
                                                      c2_table):
    warm_tables = {"A1": a1_table, "A2": a2_table, "C2": c2_table}
    for label, bound in (("A1", 6), ("A2", 3), ("C2", 3)):
        fresh = rootdata.build_root_datum(label)
        fresh_table = hecke.builtin_kl_table(fresh)
        warm_table = warm_tables[label]
        warm = warm_table.datum
        for a_warm, a_fresh in zip(alcoves.enumerate_alcoves(warm, bound),
                                   alcoves.enumerate_alcoves(fresh, bound)):
            want_p = _pcan_form(periodic.p_canonical_P(fresh_table, a_fresh))
            want_q = _q_form(ch.q_of_alcove(fresh_table, a_fresh))
            for _ in range(2):
                assert _pcan_form(periodic.p_canonical_P(warm_table, a_warm)) \
                    == want_p, a_warm
                assert _q_form(ch.q_of_alcove(warm_table, a_warm)) \
                    == want_q, a_warm
    fresh_a1 = hecke.builtin_kl_table(rootdata.build_root_datum("A1"))
    for p in (5, 7):
        for lam in range(2 * p - 1):
            want = ch.simple_character(fresh_a1, (lam,), p)
            for _ in range(2):
                assert ch.simple_character(a1_table, (lam,), p) == want
    fresh_c2 = hecke.builtin_kl_table(rootdata.build_root_datum("C2"))
    for lam in ((0, 0), (1, 3), (0, 9), (6, 6)):
        want = ch.projective_multiplicities_weight(fresh_c2, lam, 7)
        for _ in range(2):
            assert ch.projective_multiplicities_weight(c2_table, lam, 7) == want


def test_repeated_builtin_table_queries_hit_one_memo_entry():
    """The query memos are keyed by table, and builtin_kl_table hands out
    one table per datum and kind, so repeating a query through a new
    builtin_kl_table call hits the entry the first call left."""
    d = rootdata.build_root_datum("A1")
    a = alcoves.from_weyl(weyl.all_generators(d)[0])
    table = hecke.builtin_kl_table(d)
    ch.q_of_alcove(table, a)
    # the alcove asked, hat(a) = t_(2)(A_fund), and its base A_fund, whose
    # result it translates
    keys = {(table, alcoves.hat(a)), (table, alcoves.fundamental_alcove(d))}
    assert weyl.to_text(alcoves.hat(a).elem) == "t: (2)"
    assert set(d.memo.entry("periodic_p_canonical_P")) == keys
    for _ in range(50):
        ch.q_of_alcove(hecke.builtin_kl_table(d), a)
    assert set(d.memo.entry("periodic_p_canonical_P")) == keys
    for _ in range(20):
        ch.simple_character(hecke.builtin_kl_table(d), (6,), 5)
    assert len(d.memo.entry("characters_simple_character")) == 1
    assert hecke.builtin_kl_table(d, "N").basis_kind == "N"


def test_periodic_memo_holds_the_window_and_at_most_its_bases():
    """p_canonical_P on every alcove of an A2/4 window memoizes the
    alcoves asked plus at most one base alcove per finite Weyl element."""
    d = rootdata.build_root_datum("A2")
    table = hecke.builtin_kl_table(d)
    window = alcoves.enumerate_alcoves(d, 4)
    for a in window:
        periodic.p_canonical_P(table, a)
    entry = d.memo.entry("periodic_p_canonical_P")
    assert {a for _, a in entry} >= set(window)
    assert len(entry) <= len(window) + len(weyl.finite_elements(d))


def test_canonical_P_leaves_the_table_memo_empty():
    """canonical_P evaluates the formula at the alcove asked and memoizes
    nothing in p_canonical_P's entry, so the translation check of verify
    periodic compares two evaluations, not a memo with itself."""
    d = rootdata.build_root_datum("A2")
    for a in alcoves.enumerate_alcoves(d, 3):
        periodic.canonical_P(a)
        periodic.canonical_P(alcoves.translate(a, d.varsigma))
    assert not d.memo.entry("periodic_p_canonical_P")


def test_generic_order_leaves_no_memo_keyed_by_pairs():
    """generic_leq on every ordered pair of a window memoizes nothing per
    pair: no memo entry outgrows the window times the generating set."""
    d = rootdata.build_root_datum("A2")
    window = alcoves.enumerate_alcoves(d, 4)
    for a in window:
        for b in window:
            alcoves.generic_leq(a, b)
    bound = len(window) * len(weyl.all_generators(d))
    sizes = {name: len(entry) for name, entry in d.memo._entries.items()}
    assert max(sizes.values()) <= bound, sizes


def test_reduced_word_memo_holds_only_the_elements_asked():
    """Every element of an A2/5 window, longest first, on a datum whose
    memo starts empty: the reduced_word entry holds one word per element
    asked, none of the shorter elements its walk passes."""
    window = weyl.enumerate_W(rootdata.build_root_datum("A2"), 5)
    d = rootdata.build_root_datum("A2")
    for n, x in enumerate(reversed(window), 1):
        weyl.reduced_word(weyl.ExtElem(d, x.fin, x.trans))
        assert len(d.memo.entry("reduced_word")) == n


def test_reduced_word_of_a_far_element_stops_at_the_walk_guard():
    d = rootdata.build_root_datum("A1")
    assert len(weyl.reduced_word(weyl.translation(d, (60000,)))) == 60000
    with pytest.raises(ValueError, match="100000-step guard"):
        weyl.reduced_word(weyl.translation(d, (120000,)))


def test_projective_row_memo_holds_one_row_per_finite_base_and_table():
    """Every regular weight of a C2/7 window, asked of two tables, fills
    the row entry with at most |W_f| rows per table; a caller that mutates
    a returned row leaves the entry as it was."""
    d = rootdata.build_root_datum("C2")
    builtin = hecke.builtin_kl_table(d)
    for_p = hecke.PCanonicalTable(d, 7, "H", builtin=True)
    weights = [lam for lam in itertools.product(range(-7, 14), repeat=2)
               if ch._is_regular(d, lam, 7)]
    for table in (builtin, for_p):
        for lam in weights:
            ch.projective_multiplicities_weight(table, lam, 7)
    entry = d.memo.entry("characters_projective_rows")
    per_table = [sum(t is table for t, _ in entry)
                 for table in (builtin, for_p)]
    assert sum(per_table) == len(entry)
    assert all(0 < n <= len(weyl.finite_elements(d)) for n in per_table)
    kept = {key: list(row) for key, row in entry.items()}
    for lam in weights[:20]:
        row = ch.projective_multiplicities_weight(builtin, lam, 7)
        row.clear()
        row[(99, 99)] = 1
    assert entry == kept


def test_projective_row_memo_never_answers_for_another_table():
    """After the built-in table answered, a partial table still refuses, a
    table with doubled columns answers doubled rows, and the N- and M-kind
    and other-prime tables keep their refusal messages; no refusal leaves
    a row."""
    d = rootdata.build_root_datum("A1")
    builtin = hecke.builtin_kl_table(d)
    lams = [(lam,) for lam in range(-10, 15) if (lam + 1) % 5]
    rows = {lam: ch.projective_multiplicities_weight(builtin, lam, 5)
            for lam in lams}
    bases = [alcoves.Alcove(x) for x in weyl.finite_elements(d)]
    indices = {periodic._column_index(b) for b in bases}
    double = hecke.LaurentPoly.term(2)
    doubled = hecke.PCanonicalTable(d, "infinity", "H", {
        w: {y: poly * double for y, poly in builtin.column(w).items()}
        for w in indices})
    partial = hecke.PCanonicalTable(d, "infinity", "H", {})
    for lam in lams:
        assert ch.projective_multiplicities_weight(doubled, lam, 5) \
            == {nu: 2 * m for nu, m in rows[lam].items()}
        with pytest.raises(KeyError):
            ch.projective_multiplicities_weight(partial, lam, 5)
        for kind in ("N", "M"):
            with pytest.raises(ValueError) as err:
                ch.projective_multiplicities_weight(
                    hecke.builtin_kl_table(d, kind), lam, 5)
            assert str(err.value) \
                == "periodic canonical elements need an algebra table"
        with pytest.raises(ValueError) as err:
            ch.projective_multiplicities_weight(
                hecke.PCanonicalTable(d, 7, "H", builtin=True), lam, 5)
        assert str(err.value) == "the table was made for p = 7, not p = 5"
    entry = d.memo.entry("characters_projective_rows")
    assert {t for t, _ in entry} == {builtin, doubled}
