"""Independent oracles used by the test suite.

Each oracle recomputes a quantity by a route disjoint from the library's
production algorithm, so agreement is evidence rather than tautology:

* ``bfs_lengths`` measures word length by breadth-first search over the
  generating set, never consulting the closed length formula.
* ``bar`` is the bar involution of the Hecke algebra, by products of the
  inverted generators bar(H_s) = H_s + (v - v^{-1}) in the algebra; the
  library computes no bar images.
* ``kl_bar_fixed_point`` solves for the canonical basis directly from its
  defining fixed-point property (bar-invariance + positive-degree
  unitriangularity), using only standard-basis multiplication.
* ``asph_bar_fixed_point`` does the same inside the antispherical module.
* ``sl2_simple_character`` is the closed-form rank-1 simple character.
* ``simple_characters_by_reciprocity`` inverts the whole reciprocity
  matrix of the projective rows over a downward-closed weight window at
  once, exactly over Q, where ``characters.simple_character`` recurses
  down from one weight.
* ``bruhat_leq_by_lifting`` is the Bruhat order on W by the lifting
  recursion, with the left descent read off a reduced word and every step
  a group product; ``bruhat_leq_by_stripping`` and
  ``generic_leq_by_stepping`` compare through it, never through the
  library's walk on alcove points.
* ``generic_leq_by_stepping`` finds the dominant translate of two alcoves
  by stepping m = 0, 1, 2, ... and re-checks the verdict two steps further.
* ``walk_to_fundamental_by_fractions`` walks a point into the fundamental
  alcove in exact rational arithmetic, with walls of its own.
* ``reduced_word_by_products`` strips the first generator that shortens an
  element, by group products and lengths, where the library walks the
  element's alcove point.
* ``finite_word_by_inversions`` strips simple reflections off a finite
  Weyl group matrix by counting the positive roots it makes negative.
* ``longest_element_by_bfs`` takes the longest element of a breadth-first
  search of the finite Weyl group.
* ``canonical_P_by_division`` is Lusztig's periodic formula as written: act
  on the box star by every term of the column and divide by the box
  normalizer, with no use of the column's coset structure.
* ``p_canonical_P_direct`` evaluates Lusztig's formula at the alcove asked,
  where ``periodic.p_canonical_P`` translates the memoized result at the
  alcove's base w(A_fund) by a root-lattice weight.
* ``coset_constancy`` checks that the v = 1 values of a column of
  w_f * w are constant on finite cosets, finding each coset's shortest
  element by brute force over W_f.
* ``act_left_by_products`` is the left action of W_ext on alcoves by a
  group product and ``set_stabilized_by_conjugation``, where
  ``alcoves.translate`` moves the translation part of a single element.
* ``set_stabilized_by_conjugation``, ``conjugated_longest_by_products``,
  ``bruhat_leq_by_stripping`` and ``twisted_finite_by_tau`` build by group
  products what the alcove, Weyl-group and periodic layers read off in
  closed form or from a memo: omega w omega^{-1}, t_mu w_f t_{-mu}, the
  Bruhat order after stripping omega, and tau_mu on W_f element by element.
* ``coset_tops_by_lengths`` and ``column_index_by_lengths`` find the
  twisted-coset tops of a column and check the coset-minimality of a
  column index by products and lengths, where the periodic layer reads
  signs off alcove points.
* ``projective_row_by_column`` reads the projective row of a weight off
  one table column by the multiplicity theorem, after a p X translation
  into its hypotheses (checked by ``label_violation`` on the alcove point),
  where ``characters.projective_multiplicities_weight`` reads q_A of the
  weight's block alcove, a periodic canonical element, off its finite
  base's row.
* ``block_position_by_products`` finds the block position of a weight as
  the product of the generators its alcove walk crosses, inverted, with
  base = y dot_p lam, and the hat of its block alcove by a group product,
  where ``characters`` reflects two points back along the crossed walls.
* ``projective_row_by_q_of_alcove`` relabels q_A of the weight's block
  alcove key by key with ``dot_p``, where
  ``characters.projective_multiplicities_weight`` shifts the memoized row
  of the finite base of hat(A) by p times a root-lattice weight.
* ``per_translate_by_alcoves`` shifts every key of a periodic element by
  ``alcoves.translate``, where ``periodic.per_translate`` rebuilds the
  keys of a root-lattice shift from one w^{-1}(mu) per finite part.
* ``generic_leq_by_two_walks`` decides the generic order by up to two
  Bruhat walks on the shifted points, where ``alcoves.generic_leq`` first
  compares their lengths in closed form and walks at most once.
* ``lower_block_candidates_by_walk`` scans the box below a weight and keeps
  the points whose alcove walk ends at the weight's own base weight.
* ``is_restricted_by_dot_action`` tests restrictedness by the dilated dot
  action at p = 2h + 1, where ``is_restricted`` reads the integer alcove
  point.
* ``in_box_by_barycenter`` tests box membership on the rational
  barycenter, where the library reads the integer alcove point.

Three helpers have no caller in the library and serve the oracles and the
tests only: ``dot_p`` (the dilated dot action), ``block_position`` (the
block position of a weight, read off the library's block walk) and
``is_restricted`` (the restricted-box test of an element).
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product

from affkl import alcoves, characters, hecke, parabolic, periodic, weyl
from affkl._intlinalg import inverse
from affkl.hecke import LaurentPoly
from affkl.rootdata import add_weights, pair, scale_weight, sub_weights


def dot_p(w, lam, p):
    """Dilated dot action: (u t_mu) dot_p lam = u(lam + p mu + varsigma) - varsigma."""
    d = w.datum
    inner = add_weights(add_weights(lam, scale_weight(p, w.trans)), d.varsigma)
    return sub_weights(weyl._mat_apply(w.fin, inner), d.varsigma)


def is_restricted(w):
    """True iff w dot_p 0 lies in the restricted box 0 <= <., a^vee> <= p-1,
    for any p > h: w dot_p 0 + varsigma = p w(varsigma / p) lies in the
    alcove w(A_fund), so the box test reads its point h x(b0), on no wall."""
    q, h = weyl._alcove_point(w), w.datum.coxeter_number
    return all(0 < pair(q, c) < h for c in w.datum.simple_coroots)


def block_position(datum, lam, p):
    """(base, w): the unique weight of the block inside the fundamental
    p-alcove and the element with w dot_p base == lam.  Regular weights
    only.  Read off the library's alcove walk (characters._block_walk),
    with no group product."""
    characters._check_weight(datum, lam)
    base, fin, w0 = characters._block_walk(datum, tuple(lam), p)
    return base, weyl.ExtElem(
        datum, fin, weyl._mat_apply(weyl._mat_inv(datum, fin), w0))


def bfs_lengths(datum, max_len):
    """Map element -> distance from the identity in the generator graph."""
    gens = weyl.all_generators(datum)
    depth = {weyl.identity(datum): 0}
    frontier = [weyl.identity(datum)]
    for level in range(1, max_len + 1):
        nxt = []
        for x in frontier:
            for g in gens:
                y = weyl.multiply(x, g)
                if y not in depth:
                    depth[y] = level
                    nxt.append(y)
        frontier = nxt
    return depth


# (datum, w) -> bar(H_w); a cache of values fixed by their key, so no test
# can change what another reads
_BAR_STANDARD = {}


def _bar_standard(datum, w):
    """bar(H_w) = H_omega bar(H_{s_1}) ... bar(H_{s_k}) for w = omega u and
    a reduced word s_1 ... s_k of u, memoized per standard element along
    the word."""
    got = _BAR_STANDARD.get((datum, w))
    if got is None:
        omega, u = weyl.omega_decompose(w)
        gens = weyl.all_generators(datum)
        got, prefix = hecke.standard(omega), omega
        for i in weyl.reduced_word(u):
            prefix = weyl.multiply(prefix, gens[i])
            if (datum, prefix) not in _BAR_STANDARD:
                bar_s = hecke.standard(gens[i]) \
                    + hecke.unit(datum).scale(hecke.v - hecke.vinv)
                _BAR_STANDARD[datum, prefix] = hecke.act(got, bar_s)
            got = _BAR_STANDARD[datum, prefix]
    return got


def bar(a):
    """The bar involution on the Hecke algebra: bar(sum p_w H_w) =
    sum bar(p_w) bar(H_w)."""
    out = hecke.HeckeElem(a.datum)
    for w, p in a.support.items():
        out = out + _bar_standard(a.datum, w).scale(p.bar())
    return out


def _positive_part(poly):
    return LaurentPoly({e: c for e, c in poly.coeffs.items() if e > 0})


def _negative_part(poly):
    return LaurentPoly({e: c for e, c in poly.coeffs.items() if e < 0})


def kl_bar_fixed_point(datum, w, _memo=None):
    """Coefficients of the canonical element at w in the standard basis,
    solved from bar-invariance and the degree constraint alone.

    Works down the Bruhat interval [e, w]: the coefficient at y satisfies
    h_y - bar(h_y) = sum over z > y of bar(h_z) * (bar(H_z) at y), whose
    right side is known once longer coefficients are; the degree constraint
    (h_y has only positive exponents for y < w) then pins h_y as the
    positive part.  Only standard-basis bar images are consumed.
    """
    memo = {} if _memo is None else _memo
    key = w
    if key in memo:
        return memo[key]
    ys = [y for y in weyl.enumerate_W(datum, w.length())
          if bruhat_leq_by_lifting(y, w)]
    ys.sort(key=lambda y: -y.length())
    assert ys[0] == w
    bar_std = {y: bar(hecke.standard(y)) for y in ys}
    h = {w: LaurentPoly.term(1)}
    for y in ys[1:]:
        rhs = LaurentPoly()
        for z, hz in h.items():
            if z == y:
                continue
            rhs = rhs + hz.bar() * bar_std[z].coeff(y)
        assert rhs.coeff(0) == 0, "fixed-point equation has a constant term"
        pos = _positive_part(rhs)
        assert _negative_part(rhs) == -pos.bar(), \
            "fixed-point equation is not antisymmetric"
        if not pos.is_zero():
            h[y] = pos
    memo[key] = h
    return h


def asph_bar_fixed_point(datum, w):
    """Antispherical analogue of ``kl_bar_fixed_point``: coefficients of the
    canonical antispherical element at a coset-minimal w, from bar-invariance
    in the module (bar of a standard vector = projection of the algebra bar
    of the standard basis element)."""
    ys = [y for y in weyl.enumerate_fWext(datum, w.length())
          if bruhat_leq_by_stripping(y, w)]
    ys.sort(key=lambda y: -y.length())
    assert ys[0] == w
    bar_std = {y: parabolic.xi(bar(hecke.standard(y))) for y in ys}
    h = {w: LaurentPoly.term(1)}
    for y in ys[1:]:
        rhs = LaurentPoly()
        for z, hz in h.items():
            if z == y:
                continue
            rhs = rhs + hz.bar() * bar_std[z].coeff(y)
        assert rhs.coeff(0) == 0
        pos = _positive_part(rhs)
        if not pos.is_zero():
            h[y] = pos
    return h


def sl2_simple_character(lam, p):
    """Dominant weights of the rank-1 simple module at lam >= 0, from the
    closed form: for lam <= p-1 the Weyl module is simple; beyond that (up
    to 2p-2) the simple is a twisted tensor product with weights
    (lam - p) +/- p."""
    assert 0 <= lam <= 2 * p - 2
    if lam <= p - 1:
        full = {lam - 2 * i: 1 for i in range(lam + 1)}
    else:
        r = lam - p
        full = {}
        for w in range(-r, r + 1, 2):
            for s in (p, -p):
                full[w + s] = full.get(w + s, 0) + 1
    return {(w,): m for w, m in full.items() if w >= 0}


def generic_leq_by_stepping(a, b):
    """The generic order from its definition: translate both alcoves by
    m * varsigma for m = 0, 1, 2, ... until both are dominant and compare
    the Bruhat images there.  The verdict must not change at m + 1 and
    m + 2; a change raises AssertionError."""
    if a == b:
        return "equal"
    datum = a.datum

    def verdict(m):
        mu = scale_weight(m, datum.varsigma)
        ta, tb = alcoves.translate(a, mu), alcoves.translate(b, mu)
        if not (alcoves.is_dominant(ta) and alcoves.is_dominant(tb)):
            return None
        if bruhat_leq_by_lifting(ta.elem, tb.elem):
            return "less-equal"
        if bruhat_leq_by_lifting(tb.elem, ta.elem):
            return "greater-equal"
        return "incomparable"

    m, v = 0, verdict(0)
    while v is None:
        m += 1
        assert m <= 10000, "no dominant translate found"
        v = verdict(m)
    assert verdict(m + 1) == v and verdict(m + 2) == v, \
        "generic order changed past the first dominant translate"
    return v


def affine_coroots(datum):
    """theta^vee for each affine generator t_{-theta} s_theta, in order."""
    return [datum.positive_coroots[datum.positive_roots.index(
        tuple(-t for t in g.trans))] for g in weyl.affine_generators(datum)]


def walk_to_fundamental_by_fractions(datum, point):
    """y in W with y(point) in the closed fundamental alcove: repeatedly
    reflect in the first simple wall with <q, c> < 0, else in the first
    affine wall with <q, c> > 1, all on the rational point itself."""
    gens = weyl.all_generators(datum)
    n_aff = len(gens) - datum.rank
    simple = [(c, gens[n_aff + i]) for i, c in enumerate(datum.simple_coroots)]
    affine = list(zip(affine_coroots(datum), gens))
    y = weyl.identity(datum)
    q = tuple(Fraction(c) for c in point)
    for _ in range(100000):
        crossed = next((g for c, g in simple if pair(q, c) < 0), None)
        if crossed is None:
            crossed = next((g for c, g in affine if pair(q, c) > 1), None)
        if crossed is None:
            return y
        q = crossed.apply(q)
        y = weyl.multiply(crossed, y)
    raise AssertionError("alcove walk does not terminate")


def reduced_word_by_products(x):
    """The lex-minimal reduced word of x in W: strip, each time, the first
    generator g of S with l(g x) < l(x), until the length is zero."""
    gens = weyl.all_generators(x.datum)
    word = []
    while x.length():
        i = next(i for i, g in enumerate(gens)
                 if weyl.multiply(g, x).length() < x.length())
        word.append(i)
        x = weyl.multiply(gens[i], x)
    if not x.is_identity():
        raise ValueError("element is not in the affine Weyl group")
    return tuple(word)


def _inversions(datum, mat):
    """Number of positive roots that the matrix sends to negative roots."""
    return sum(1 for r in datum.positive_roots
               if weyl._mat_apply(mat, r) not in datum.positive_root_set)


def finite_word_by_inversions(datum, mat):
    """Reduced word of a finite Weyl group element over s_1 .. s_n (1-based
    indices): take off the first simple reflection s_i on the left that
    lowers the inversion count, until none is left."""
    gens = weyl.finite_generators(datum)
    word = []
    cur = mat
    while _inversions(datum, cur):
        i = next(i for i, g in enumerate(gens)
                 if _inversions(datum, weyl._mat_mul(g.fin, cur))
                 < _inversions(datum, cur))
        word.append(i + 1)
        cur = weyl._mat_mul(gens[i].fin, cur)
    return tuple(word)


def longest_element_by_bfs(datum):
    """The longest element among all products of simple reflections, found
    by breadth-first search from the identity."""
    gens = weyl.finite_generators(datum)
    seen = {weyl.identity(datum)}
    frontier = list(seen)
    while frontier:
        frontier = [y for y in {weyl.multiply(x, g) for x in frontier for g in gens}
                    if y not in seen]
        seen.update(frontier)
    return max(seen, key=lambda e: e.length())


def box_normalizer(datum):
    """v^{-l(w_f)} * sum over W_f of v^{2 l(x)}: the exact divisor of the
    act-then-divide form of Lusztig's periodic formula."""
    out = LaurentPoly()
    for x in weyl.finite_elements(datum):
        out = out + LaurentPoly.term(1, 2 * x.length())
    return LaurentPoly.term(1, -weyl.longest_element(datum).length()) * out


def canonical_P_by_division(alcove, column):
    """The periodic canonical element at the alcove from its column
    (y -> LaurentPoly, the column of ``periodic._column_index(alcove)``):
    the box star canonical_P_fund(mu) acted on by every term of the column,
    each coefficient divided exactly by ``box_normalizer``."""
    datum = alcove.datum
    mu = alcoves.box_rep_above(alcove)
    acted = periodic.per_act(periodic.canonical_P_fund(datum, mu),
                             hecke.HeckeElem(datum, column))
    norm = box_normalizer(datum)
    out = {}
    for a, p in acted.support.items():
        q = p.divide_exact(norm)
        assert q is not None, "normalizer division is not exact at %r" % (a,)
        out[a] = q
    return periodic.PeriodicElem(datum, out)


def p_canonical_P_direct(table, alcove):
    """The table-driven periodic canonical element by Lusztig's formula at
    the alcove itself, never memoized; a missing column raises the table's
    KeyError."""
    return periodic._lusztig_formula(
        alcove, table.column(periodic._column_index(alcove)))


def coset_constancy(table, w):
    """True iff the v = 1 values of the column of w_f * w are constant on
    finite-Weyl-group cosets (including zeros in the coset closure)."""
    datum = w.datum
    if not weyl.is_fW(w):
        raise ValueError("index must be minimal in its finite coset")
    wf = weyl.longest_element(datum)
    col = table.column(weyl.multiply(wf, w))
    values = {z: p.evaluate_at_one() for z, p in col.items()}
    finite = weyl.finite_elements(datum)
    seen_reps = set()
    for z in values:
        # the shortest element of the coset W_f * z
        rep = min((weyl.multiply(x, z) for x in finite), key=weyl.length)
        if rep in seen_reps:
            continue
        seen_reps.add(rep)
        coset_vals = {values.get(weyl.multiply(x, rep), 0) for x in finite}
        if len(coset_vals) > 1:
            return False
    return True


def set_stabilized_by_conjugation(y):
    """The element of W with the alcove image of y in W_ext:
    omega w omega^{-1} for y = omega * w, by two products."""
    omega, w = weyl.omega_decompose(y)
    return weyl.multiply(weyl.multiply(omega, w), weyl.invert(omega))


def act_left_by_products(y, a):
    """The alcove y(A) for y in W_ext: the alcove of y x, for a = x(A_fund)."""
    return alcoves.Alcove(set_stabilized_by_conjugation(
        weyl.multiply(y, a.elem)))


def conjugated_longest_by_products(datum, mu):
    """t_mu w_f t_{-mu} as a product of three group elements."""
    t = weyl.translation(datum, mu)
    return weyl.multiply(weyl.multiply(t, weyl.longest_element(datum)),
                         weyl.invert(t))


def bruhat_leq_by_lifting(u, w):
    """u <= w for u, w in W by the lifting property: take the first letter
    s of the reduced word of w (a left descent); then u <= w iff
    su <= sw when l(su) < l(u), and iff u <= sw otherwise."""
    gens = weyl.all_generators(u.datum)
    while True:
        if u.length() > w.length():
            return False
        if w.length() == 0:
            return u.length() == 0
        s = gens[weyl.reduced_word(w)[0]]
        su = weyl.multiply(s, u)
        if su.length() < u.length():
            u = su
        w = weyl.multiply(s, w)


def bruhat_leq_by_stripping(x, y):
    """The Bruhat order on W_ext with omega stripped off both sides,
    whatever omega is: None across Omega-cosets."""
    ox, wx = weyl.omega_decompose(x)
    oy, wy = weyl.omega_decompose(y)
    if ox != oy:
        return None
    return bruhat_leq_by_lifting(wx, wy)


def coset_tops_by_lengths(datum, mu, column):
    """The twisted-coset tops of a column as _coset_tops defines them, with
    W_f' from ``twisted_finite_by_tau``: k is a top exactly when
    l(w_mu k) = l(k) - l(w_f), and the column must equal the coset sums
    of its tops (else RuntimeError naming the first bad key)."""
    twisted = twisted_finite_by_tau(datum, mu)
    w_mu, lf = twisted[-1]
    column = {k: p for k, p in column.items() if not p.is_zero()}
    tops = {}
    for k, p in column.items():
        y = weyl.multiply(w_mu, k)
        if y.length() == k.length() - lf:
            tops[y] = p
    expected = {weyl.multiply(z, y): p * LaurentPoly.term(1, lf - lz)
                for y, p in tops.items() for z, lz in twisted}
    if expected != column:
        bad = min((k for k in expected.keys() | column.keys()
                   if expected.get(k) != column.get(k)), key=weyl.sort_key)
        raise RuntimeError("no twisted finite coset structure at %s"
                           % weyl.to_text(bad))
    return tops


def column_index_by_lengths(alcove):
    """w_mu * w for A = (mu + A_fund) . w, mu above A, after checking by
    products and lengths that w is minimal in W_f' w."""
    datum = alcove.datum
    mu = alcoves.box_rep_above(alcove)
    _, x_mu = weyl.omega_of_weight(datum, mu)
    w = weyl.multiply(weyl.invert(x_mu), alcove.elem)
    twisted = twisted_finite_by_tau(datum, mu)
    assert weyl.is_min_in_coset(w, [s for s, ls in twisted if ls == 1]), \
        "alcove label is not coset-minimal"
    return weyl.multiply(twisted[-1][0], w)


def twisted_finite_by_tau(datum, mu):
    """[(tau_mu(x), l(x)) for x in W_f], one weyl.tau call per element."""
    return [(weyl.tau(datum, mu, x), x.length())
            for x in weyl.finite_elements(datum)]


def simple_characters_by_reciprocity(table, labels, p):
    """{label: dominant part of ch L-hat(label)} over a weight window.

    Reciprocity gives [Z-hat(c) : L-hat(r)] = (Q-hat(r) : Z-hat(c)), so the
    projective rows of the labels form a matrix whose exact inverse writes
    each simple class in baby-Verma classes.  The window must be downward
    closed: a lower weight of a label's block whose row meets the label,
    and whose simple module has a dominant weight, must be a label too;
    WindowError names the missing ones.  The inverse must be integral.
    """
    datum = table.datum
    labels = [tuple(lam) for lam in labels]
    rows = {lam: characters.projective_multiplicities_weight(table, lam, p)
            for lam in labels}
    missing = {
        x for c in labels if not characters.is_steinberg_type(datum, c, p)
        for x in characters._lower_block_candidates(datum, c, p)
        if x not in rows
        and characters.projective_multiplicities_weight(table, x, p).get(c)
        and characters._simple_has_dominant_weight(datum, x, p)
    }
    if missing:
        raise characters.WindowError(
            "window is not downward closed; missing labels: %s"
            % sorted(missing))
    # d[j][i] = [Z-hat_j : L-hat_i]; its inverse gives [L-hat_i] in [Z-hat_j]
    inv = inverse([[rows[r].get(c, 0) for r in labels] for c in labels])
    out = {}
    for r, coeffs in zip(labels, inv):
        char = {}
        for c, coeff in zip(labels, coeffs):
            if coeff.denominator != 1:
                raise ValueError("inverse is not integral")
            for wt, m in characters.baby_verma_character(datum, c, p).items():
                char[wt] = char.get(wt, 0) + int(coeff) * m
        out[r] = characters.dominant_part(datum, char)
    return out


def label_violation(w):
    """The first hypothesis of the multiplicity theorem that t_varsigma * w
    breaks, "coset-minimal" or "restricted"; None when it keeps both.  Its
    alcove point, h varsigma plus w's, pairs > 0 with every simple coroot
    when coset-minimal, and also < h when restricted (is_restricted)."""
    d = w.datum
    q = add_weights(scale_weight(d.coxeter_number, d.varsigma),
                    weyl._alcove_point(w))
    pairs = [pair(q, c) for c in d.simple_coroots]
    if min(pairs) <= 0:
        return "coset-minimal"
    return None if max(pairs) < d.coxeter_number else "restricted"


def projective_row_by_column(table, lam, p):
    """{nu: (Q-hat(lam) : Z-hat(nu))} by the multiplicity theorem: for w
    with t_varsigma * w coset-minimal and restricted, the row of
    w dot_p base is y dot_p base -> (column of w at y)(1).  A regular lam =
    w dot_p base (block_position) is moved there by the translation t_mu
    that puts the pairings of w dot_p 0 + p mu in [-p, -1], and the row is
    moved back by -p mu.  Steinberg-type weights give {lam: 1}."""
    datum = table.datum
    lam = tuple(lam)
    if characters.is_steinberg_type(datum, lam, p):
        return {lam: 1}
    base, w = block_position(datum, lam, p)
    lam0 = dot_p(w, (0,) * datum.lattice_rank, p)
    mu = datum.weight_with_pairings(
        [-(pair(lam0, c) // p) - 1 for c in datum.simple_coroots])
    w = weyl.multiply(weyl.translation(datum, mu), w)
    violation = label_violation(w)
    if violation:
        raise ValueError("t_varsigma * w is not " + violation)
    shift = scale_weight(p, mu)
    row = {}
    for y, poly in table.column(w).items():
        val = poly.evaluate_at_one()
        if val:
            row[sub_weights(dot_p(y, base, p), shift)] = val
    return row


def block_position_by_products(datum, lam, p):
    """(base, w, x) for a regular lam: y = weyl.walk_to_fundamental of
    lam + varsigma at scale p (one group product per crossed wall),
    base = y dot_p lam, w = y^{-1} and x the element of
    alcoves.hat(w(A_fund))."""
    y = weyl.walk_to_fundamental(datum, add_weights(lam, datum.varsigma), p)
    w = weyl.invert(y)
    return dot_p(y, lam, p), w, alcoves.hat(alcoves.from_weyl(w)).elem


def projective_row_by_q_of_alcove(table, lam, p):
    """{nu: (Q-hat(lam) : Z-hat(nu))} for a regular or Steinberg-type lam:
    q_A of the block alcove A = w(A_fund), lam = w dot_p base, each key B
    relabelled by the weight B dot_p base."""
    datum = table.datum
    lam = tuple(lam)
    if characters.is_steinberg_type(datum, lam, p):
        return {lam: 1}
    base, w = block_position(datum, lam, p)
    return {dot_p(b.elem, base, p): m for b, m
            in characters.q_of_alcove(table, alcoves.from_weyl(w)).items()}


def per_translate_by_alcoves(x, mu):
    """The periodic element x with every key shifted by the weight mu
    through ``alcoves.translate``, whatever lattice class mu has."""
    return periodic.PeriodicElem(
        x.datum, {alcoves.translate(a, mu): p for a, p in x.support.items()})


def generic_leq_by_two_walks(a, b):
    """The generic order on the dominant translates by m * varsigma (m the
    smallest that makes both dominant): "less-equal" if the Bruhat walk
    from b's point takes a's point to A_fund, else "greater-equal" if the
    walk the other way does, else "incomparable"."""
    if a == b:
        return "equal"
    d = a.datum
    m = max(alcoves._dominant_shift(d, alcoves._point(a)),
            alcoves._dominant_shift(d, alcoves._point(b)))
    shift = scale_weight(d.coxeter_number * m, d.varsigma)
    qa = add_weights(alcoves._point(a), shift)
    qb = add_weights(alcoves._point(b), shift)
    walls = weyl._walls(d)
    if weyl._bruhat_points(walls, qa, qb):
        return "less-equal"
    if weyl._bruhat_points(walls, qb, qa):
        return "greater-equal"
    return "incomparable"


def lower_block_candidates_by_walk(datum, lam, p):
    """Regular weights x = lam - sum k_i alpha_i, k != 0 in the box
    0 <= k_i <= (p-1) c_i, whose block_position (an alcove walk) has the
    base weight of lam; sorted by descending height, then by weight."""
    base = block_position(datum, lam, p)[0]
    bound = [(p - 1) * sum(cf[i] for cf in datum.root_coeffs)
             for i in range(datum.rank)]
    out = []
    for ks in product(*[range(b + 1) for b in bound]):
        if not any(ks):
            continue
        x = lam
        for k, root in zip(ks, datum.simple_roots):
            x = sub_weights(x, scale_weight(k, root))
        if not characters._is_regular(datum, x, p):
            continue
        if block_position(datum, x, p)[0] == base:
            out.append(x)
    return sorted(out, key=lambda w: (
        -sum(pair(w, c) for c in datum.positive_coroots), w))


def is_restricted_by_dot_action(w):
    """is_restricted by its definition: w dot_p 0 lies in the
    restricted box 0 <= <., a_i^vee> <= p - 1, at p = 2h + 1."""
    d = w.datum
    p = 2 * d.coxeter_number + 1
    lam = dot_p(w, (0,) * d.lattice_rank, p)
    return all(0 <= pair(lam, c) <= p - 1 for c in d.simple_coroots)


def in_box_by_barycenter(a, mu):
    """The alcove a lies in the box above the weight mu: its rational
    barycenter x(b0), b0 = varsigma / h, pairs into (<mu, c>, <mu, c> + 1)
    with every simple coroot c."""
    d = a.datum
    bary = a.elem.apply(tuple(Fraction(r, d.coxeter_number)
                              for r in d.varsigma))
    return all(0 < pair(bary, c) - pair(mu, c) < 1 for c in d.simple_coroots)
