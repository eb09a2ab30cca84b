"""Multiplicity and character combinatorics for the first Frobenius kernel.

Everything here is a numerical shadow: baby Verma modules enter through
their (easy) characters, projective covers through their multiplicity rows,
and simple modules through the unitriangular inversion of those rows.  The
row of a weight is q_A of its block alcove, relabelled by weights: the
v = 1 specialization of the periodic canonical element that an algebra
(H-kind) table gives at hat(A).  hat(A) is its finite base translated by
a root-lattice weight lam, so a row is its finite base's row shifted by
p lam.  All operations refuse inputs outside their hypotheses (singular
weights, N- or M-kind tables, windows too small to triangulate) instead of
extrapolating.

Weights are integer tuples in lattice coordinates; formal characters are
maps weight -> multiplicity.
"""

from __future__ import annotations

import math
from itertools import product

from . import alcoves, periodic, weyl
from ._intlinalg import inverse
from .rootdata import add_weights, neg_weight, pair, scale_weight, sub_weights

__all__ = [
    "q_of_alcove",
    "q_via_coset_sum",
    "projective_multiplicities_weight",
    "baby_verma_character",
    "simple_character",
    "dominant_part",
    "block_position",
    "is_steinberg_type",
    "WindowError",
]


class WindowError(ValueError):
    """A triangular computation needs labels outside the given window."""


# ---------------------------------------------------------------------------
# the two routes to q_A


def q_of_alcove(table, a):
    """Baby-Verma multiplicities of the projective attached to an alcove:
    the v = 1 specialization of the table-driven canonical element at hat(A)."""
    return periodic.p_canonical_P(table, alcoves.hat(a)).specialize_v1()


def q_via_coset_sum(table, a):
    """The same multiplicities via the finite-coset sum over the column of
    w_f * w, after normalizing A into the box below zero.  The benchmark's
    query mix cross-checks q_of_alcove against it."""
    datum = a.datum
    nu = alcoves.box_rep_below(a)
    a0 = alcoves.translate(a, neg_weight(nu))
    x0 = a0.elem
    wf = weyl.longest_element(datum)
    w = weyl.multiply(weyl.invert(wf), x0)
    if not weyl.is_fW(w):
        raise RuntimeError(
            "normalized alcove label is not coset-minimal"
        )  # pragma: no cover
    col = table.column(x0)
    out = {}
    for z, poly in col.items():
        val = poly.evaluate_at_one()
        if val:
            key = alcoves.translate(alcoves.from_weyl(z), nu)
            out[key] = out.get(key, 0) + val
    return out


# ---------------------------------------------------------------------------
# block combinatorics


def _check_prime(p):
    if any(p % d == 0 for d in range(2, math.isqrt(p) + 1)):
        raise ValueError("p must be a prime, got %d" % p)


def _check_table_prime(table, p):
    """Refuse a table made for another prime; the built-in table, whose p
    is "infinity", serves every prime."""
    if isinstance(table.p, int) and table.p != p:
        raise ValueError(
            "the table was made for p = %d, not p = %d" % (table.p, p))


def _check_weight(datum, lam):
    """Refuse a weight whose length is not the lattice rank (zip would
    silently truncate it)."""
    if len(lam) != datum.lattice_rank:
        raise ValueError(
            "weight %s has %d coordinates; the lattice has rank %d"
            % (tuple(lam), len(lam), datum.lattice_rank)
        )


def _check_query(table, lam, p):
    """lam as a tuple, once it passes the checks of the two table queries:
    its length, p >= 2h - 1, p prime, and the table's own prime."""
    lam = tuple(lam)
    _check_weight(table.datum, lam)
    if p < 2 * table.datum.coxeter_number - 1:
        raise ValueError("needs p >= 2h - 1")
    _check_prime(p)
    _check_table_prime(table, p)
    return lam


def is_steinberg_type(datum, lam, p):
    """True iff lam is congruent to (p-1) * varsigma modulo p * X."""
    diff = sub_weights(lam, scale_weight(p - 1, datum.varsigma))
    return all(c % p == 0 for c in diff)


def _is_regular(datum, lam, p):
    shifted = add_weights(lam, datum.varsigma)
    return all(pair(shifted, c) % p != 0 for c in datum.positive_coroots)


def block_position(datum, lam, p):
    """(base, w): the unique weight of the block inside the fundamental
    p-alcove and the element with w dot_p base == lam.  Regular weights
    only.  Read off one alcove walk (_block_walk), with no group product."""
    _check_weight(datum, lam)
    base, fin, w0 = _block_walk(datum, tuple(lam), p)
    return base, weyl.ExtElem(
        datum, fin, weyl._mat_apply(weyl._mat_inv(datum, fin), w0))


def _finite_by_image(datum):
    """{f(varsigma): f} over the finite Weyl group, memoized per datum:
    varsigma is regular, so its image names f (|W_f| entries)."""
    return datum.memo.entry("characters_finite_by_image", lambda: {
        weyl._mat_apply(x.fin, datum.varsigma): x.fin
        for x in weyl.finite_elements(datum)})


def _block_walk(datum, lam, p):
    """(base, fin, w0) for a regular lam = w dot_p base, base in the
    fundamental p-alcove: fin is the finite part of w and w0 = w(0).

    One walk (weyl._fundamental_walk) takes lam + varsigma into the
    fundamental p-alcove across the walls of s_1, ..., s_k, so the walk's
    y is s_k ... s_1 and w = y^{-1} = s_1 ... s_k.  Reflecting the h-scaled
    points 0 and varsigma = h b0 along the crossed walls in reverse order
    gives h w(0) and h w(b0), whose difference is fin(varsigma), which
    names fin (_finite_by_image).  base + varsigma = y dot_p (lam +
    varsigma) = fin^{-1}(lam + varsigma - p w0)."""
    if not _is_regular(datum, lam, p):
        raise ValueError("weight lies on a p-wall; its block is singular")
    top = add_weights(lam, datum.varsigma)
    walls = weyl._walls(datum)
    zero, point = (0,) * datum.lattice_rank, datum.varsigma
    for i in reversed(weyl._fundamental_walk(datum, top, p)):
        c, level, r = walls[i]
        zero = sub_weights(zero, scale_weight(pair(zero, c) - level, r))
        point = sub_weights(point, scale_weight(pair(point, c) - level, r))
    fin = _finite_by_image(datum)[sub_weights(point, zero)]
    w0 = tuple(z // datum.coxeter_number for z in zero)
    base = weyl._mat_apply(weyl._mat_inv(datum, fin),
                           sub_weights(top, scale_weight(p, w0)))
    return sub_weights(base, datum.varsigma), fin, w0


def _block_hat(datum, lam, p):
    """(base, x.fin, x(0)) for hat(A) = x(A_fund), A = w(A_fund) the block
    alcove of the regular lam = w dot_p base (_block_walk).  hat(A) is
    (t_mu w_f t_{-mu})(A) for mu = box_rep_below(A); lam + varsigma lies in
    p A, on no wall, so mu pairs to the ceiling of <lam + varsigma, c> / p
    with each simple coroot c.  Then x.fin = w_f fin and
    x(0) = mu + w_f(w(0) - mu)."""
    base, fin, w0 = _block_walk(datum, lam, p)
    top = add_weights(lam, datum.varsigma)
    mu = datum.weight_with_pairings(
        [-(-pair(top, c) // p) for c in datum.simple_coroots])
    wf = weyl.longest_element(datum).fin
    return base, weyl._mat_mul(wf, fin), add_weights(
        mu, weyl._mat_apply(wf, sub_weights(w0, mu)))


def projective_multiplicities_weight(table, lam, p):
    """Baby-Verma multiplicities of the projective cover of a weight:
    map (weight nu) -> (Q-hat(lam) : Z-hat(nu)).

    Steinberg-type weights give the single-entry row {lam: 1} (there the
    projective cover, the baby Verma and the simple module all coincide).
    A regular weight lam = w dot_p base, with base in the fundamental
    p-alcove and w in W, gets q_A of the alcove A = w(A_fund), its keys B
    relabelled by the weights B dot_p base.  One alcove walk gives base and
    hat(A) = x(A_fund) as x.fin and x(0) (_block_hat), with no group
    product.  hat(A) = t_mu f(A_fund) with f = x.fin and mu = x(0) in the
    root lattice, and dot_p(t_mu B, base, p) = dot_p(B, base, p) + p mu,
    so the row is read off the finite base's row (_finite_base_row): the
    key (f', f'(t), m) becomes f'(base + varsigma) + p mu - varsigma +
    p f'(t).  Other singular weights are refused, and so is an N- or
    M-kind table ("periodic canonical elements need an algebra table").
    """
    lam = _check_query(table, lam, p)
    datum = table.datum
    if is_steinberg_type(datum, lam, p):
        return {lam: 1}
    base, fin, x0 = _block_hat(datum, lam, p)
    shift = sub_weights(scale_weight(p, x0), datum.varsigma)
    top = add_weights(base, datum.varsigma)
    row = _finite_base_row(table, fin)
    corner = {f: add_weights(weyl._mat_apply(f, top), shift)
              for f in {f for f, _, _ in row}}
    return {tuple(c + p * t for c, t in zip(corner[f], ft)): m
            for f, ft, m in row}


def _finite_base_row(table, fin):
    """The v = 1 specialization of p_canonical_P at the finite base
    fin(A_fund), as triples (f, f(t), m) for its keys B = (f t)(A_fund)
    with value m, memoized per (table, fin): at most |W_f| rows per table.
    A refusal of p_canonical_P is never kept."""
    entry = table.datum.memo.entry("characters_projective_rows")
    row = entry.get((table, fin))
    if row is None:
        zero = (0,) * table.datum.lattice_rank
        base = alcoves.Alcove(weyl.from_finite_matrix(table.datum, fin))
        values = periodic.p_canonical_P(table, base).specialize_v1()
        row = entry[table, fin] = [(b.elem.fin, b.elem.apply(zero), m)
                                   for b, m in values.items()]
    return row


# ---------------------------------------------------------------------------
# characters


def baby_verma_character(datum, lam, p):
    """ch Z-hat(lam): e(lam) times the product over positive roots of
    (1 + e(-a) + ... + e(-(p-1)a)); total mass p^(number of positive roots)."""
    _check_weight(datum, lam)
    if p < 2:
        raise ValueError("p must be at least 2")
    _check_prime(p)
    char = {tuple(lam): 1}
    for root in datum.positive_roots:
        nxt = {}
        for wt, m in char.items():
            for k in range(p):
                nw = sub_weights(wt, scale_weight(k, root))
                nxt[nw] = nxt.get(nw, 0) + m
        char = nxt
    return char


def dominant_part(datum, char):
    return {
        wt: m for wt, m in char.items()
        if m and all(pair(wt, c) >= 0 for c in datum.simple_coroots)
    }


def _restricted_decomposition(datum, lam, p):
    """lam = lam'' + p mu with lam'' restricted dominant; regular weights."""
    mu = datum.weight_with_pairings(
        [pair(lam, c) // p for c in datum.simple_coroots])
    core = sub_weights(lam, scale_weight(p, mu))
    return core, mu


def _simple_has_dominant_weight(datum, lam, p):
    """Decide whether the simple module at lam has any dominant weight.

    True when some extremal weight (finite orbit of the restricted core,
    shifted by p mu) is dominant; False when the whole convex hull lies
    strictly below a dominant wall.  Anything in between is refused
    honestly (only arises beyond the tested ranks).
    """
    core, mu = _restricted_decomposition(datum, lam, p)
    shift = scale_weight(p, mu)
    orbit = [add_weights(weyl._mat_apply(x.fin, core), shift)
             for x in weyl.finite_elements(datum)]
    if any(all(pair(w, c) >= 0 for c in datum.simple_coroots) for w in orbit):
        return True
    for c in datum.simple_coroots:
        if max(pair(w, c) for w in orbit) < 0:
            return False
    raise WindowError(
        "cannot decide whether the simple module at %s has dominant weights"
        % (lam,)
    )


def simple_character(table, lam, p):
    """Dominant part of the character of the G₁T-simple module L-hat(lam).

    Implements the unitriangular inversion of the projective rows:
    ch L-hat(lam) = ch Z-hat(lam) - sum over lower block weights x of
    (Q-hat(x) : Z-hat(lam)) * ch L-hat(x), restricted pointwise to dominant
    weights; corrections whose simple module has no dominant weight drop out.
    For a non-restricted lam this is in general not the character of the
    simple G-module L(lam).  Results are memoized per (table, p) and weight;
    a table is not changed once loaded.
    """
    datum = table.datum
    lam = _check_query(table, lam, p)
    steinberg = is_steinberg_type(datum, lam, p)
    if not steinberg and not _is_regular(datum, lam, p):
        raise ValueError("singular non-Steinberg weights are not supported")
    memo = datum.memo.entry("characters_simple_character").setdefault(
        (table, p), {})
    if lam not in memo:
        if steinberg:
            memo[lam] = dominant_part(datum, baby_verma_character(datum, lam, p))
        else:
            try:
                _simple_character(table, lam, p, memo, set())
            except WindowError as exc:
                raise WindowError("simple character at %s for p = %d: %s"
                                  % (lam, p, exc)) from None
    return dict(memo[lam])  # the caller's own copy


def _simple_character(table, lam, p, memo, stack):
    """The inversion for a regular weight; ``memo`` keeps the results
    (lam -> character), ``stack`` the weights being computed in this call."""
    datum = table.datum
    if lam in memo:
        return memo[lam]
    if lam in stack:
        raise WindowError(
            "correction recursion cycles at %s; window insufficient" % (lam,)
        )
    stack.add(lam)
    out = dominant_part(datum, baby_verma_character(datum, lam, p))
    for x in _lower_block_candidates(datum, lam, p):
        mult = projective_multiplicities_weight(table, x, p).get(lam, 0)
        if not mult:
            continue
        if not _simple_has_dominant_weight(datum, x, p):
            continue
        sub = _simple_character(table, x, p, memo, stack)
        for wt, m in sub.items():
            out[wt] = out.get(wt, 0) - mult * m
    out = {wt: m for wt, m in out.items() if m}
    stack.discard(lam)
    memo[lam] = out
    return out


def _weight_height(datum, lam):
    return sum(pair(lam, c) for c in datum.positive_coroots)


def _lower_block_candidates(datum, lam, p):
    """Regular weights of the block of the regular weight lam strictly
    below lam within the weight support of the baby Verma at lam.

    These are the x = lam - sum k_i alpha_i, k != 0, with
    0 <= k_i <= (p-1) * c_i, c_i the coefficient of alpha_i in the sum of
    the positive roots.  Such an x is in the block (the dot_p-orbit of lam
    under W) iff x + varsigma = z(lam + varsigma) + p beta for some z in W_f
    and beta in the root lattice, that is k = d_z - p beta, d_z the root
    coordinates of (lam + varsigma) - z(lam + varsigma).  So the block is
    enumerated directly: per z, only the beta that keep k in the box."""
    top = add_weights(lam, datum.varsigma)
    cartan_inv = datum.memo.entry("characters_cartan_inverse",
                                  lambda: inverse(datum.cartan))
    bound = [(p - 1) * sum(cf[i] for cf in datum.root_coeffs)
             for i in range(datum.rank)]
    out = []
    for z in weyl.finite_elements(datum):
        diff = sub_weights(top, weyl._mat_apply(z.fin, top))
        pairings = [pair(diff, c) for c in datum.simple_coroots]
        d = [int(pair(row, pairings)) for row in cartan_inv]
        for beta in product(*[range(-((b - di) // p), di // p + 1)
                              for di, b in zip(d, bound)]):
            ks = [di - p * bi for di, bi in zip(d, beta)]
            if not any(ks):
                continue
            x = lam
            for k, root in zip(ks, datum.simple_roots):
                x = sub_weights(x, scale_weight(k, root))
            if _is_regular(datum, x, p):
                out.append(x)
    return sorted(out, key=lambda w: (-_weight_height(datum, w), w))
