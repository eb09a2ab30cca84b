"""Command-line interface: verification suites, basis computations, and
rank-2 alcove diagrams.

Determinism contract: with the same flags, output is byte-identical across
runs (including concurrent ones).  Reports therefore carry no timestamps or
timings unless ``--timings`` is passed, JSON keys are sorted, and all sweeps
iterate in the library's canonical (length, word) order.  Exit codes: 0 all
checks pass, 1 a mathematical check is falsified, 2 configuration or data
error, 3 internal error (an exception the library does not map to 2).

Only ``rootdata`` is imported with this module.  Every function that calls
another layer imports it where it runs, so a command compiles only the
layers it uses (``compute bounds`` none but ``rootdata``).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys
import time
from fractions import Fraction

from . import __version__, rootdata
from .rootdata import pair

__all__ = ["main"]


class ConfigError(ValueError):
    """Bad flags, files, or schema; maps to exit code 2."""


# ---------------------------------------------------------------------------
# input plumbing


def _build_datum(args):
    if args.datum_json:
        try:
            with open(args.datum_json, "r", encoding="utf-8") as fh:
                spec = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError("cannot read datum file: %s" % exc)
        try:
            return rootdata.build_root_datum(spec)
        except (ValueError, KeyError, TypeError) as exc:
            raise ConfigError("invalid datum: %s" % exc)
    if not args.type:
        raise ConfigError("need --type or --datum-json")
    try:
        return rootdata.build_root_datum(args.type)
    except ValueError as exc:
        raise ConfigError(str(exc))


def _attach_cache(datum):
    from . import hecke
    cache_dir = os.environ.get("AFFKL_CACHE_DIR")
    if cache_dir:
        path = os.path.join(cache_dir, "%s-%s.klcache" % (
            datum.label or "datum", datum.datum_hash[:16]))
        try:
            hecke.set_disk_cache(hecke.KLCache(path, datum))
        except OSError as exc:
            raise ConfigError("cannot use AFFKL_CACHE_DIR %s: %s"
                              % (cache_dir, exc.strerror or exc))


def _build_table(datum, args):
    """The --table table, after attaching the KL disk cache: only the
    queries that read a table compute KL columns."""
    from . import hecke
    _attach_cache(datum)
    source = args.table or "builtin"
    if source == "builtin":
        return hecke.builtin_kl_table(datum)
    try:
        table = hecke.load_pcanonical(source, datum)
    except OSError as exc:
        raise ConfigError("cannot read table: %s" % exc)
    except (ValueError, KeyError) as exc:
        raise ConfigError("invalid table: %s" % exc)
    return table


def _parse_elem(datum, text):
    """Accept the canonical text form or a bare generator word 's0 s1',
    which weyl.from_text reads as the word field 'w: s0 s1'."""
    from . import weyl
    text = text.strip()
    if text and text != "e" and ":" not in text:
        text = "w: " + text
    return weyl.from_text(datum, text)


def _parse_alcove(datum, text):
    from . import alcoves
    return alcoves.from_weyl(_parse_elem(datum, text))


def _base_report(datum, table=None):
    rep = {
        "schema": 1,
        "tool": "affkl",
        "version": __version__,
        "datum": datum.label,
        "datum_hash": datum.datum_hash,
    }
    if table is not None:
        rep["table_hash"] = table.table_hash
    return rep


def _emit(args, doc):
    """Write a report (a dict, as sorted JSON) or a drawing (text) to
    --output, or else to stdout."""
    if not isinstance(doc, str):
        doc = json.dumps(doc, sort_keys=True, indent=2) + "\n"
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(doc)
    else:
        sys.stdout.write(doc)


# ---------------------------------------------------------------------------
# verify suites


def _check(name, ok, **fields):
    """One verify check; a field that is None or empty text is left out."""
    chk = {"name": name, "status": "pass" if ok else "FAIL"}
    chk.update((k, v) for k, v in fields.items() if v not in (None, ""))
    return chk


def _first_pair(pairs, bad):
    """The element texts of the first alcove pair on which bad holds."""
    from . import weyl
    for a, b in pairs:
        if bad(a, b):
            return [weyl.to_text(a.elem), weyl.to_text(b.elem)]
    return None


def _suite_lemma_rho(datum, table, args):
    from . import parabolic, weyl
    for omega in weyl.omega_elements(datum):
        detail = None
        try:
            parabolic.uN_varsigma(datum, omega)
        except AssertionError as exc:
            detail = str(exc)
        yield _check("canonical-element-at-varsigma-translation",
                     detail is None, twist=weyl.to_text(omega), detail=detail)


def _suite_main(datum, table, args):
    from . import parabolic, weyl
    for w in weyl.enumerate_fWext(datum, args.max_len):
        rep = parabolic.verify_main(table, w)
        yield _check("central-morphism-matches-canonical-column",
                     rep["status"] == "equal", w=rep["w"],
                     terms=rep["lhs_terms"], diff=rep.get("diff"))


def _suite_periodic(datum, table, args):
    from . import alcoves, periodic, weyl
    window = alcoves.enumerate_alcoves(datum, args.max_len)
    detail = None
    try:
        for a in window:
            periodic.p_canonical_P(table, a)
    except RuntimeError as exc:
        detail = str(exc)
    yield _check("normalizer-division-exact", detail is None,
                 alcoves=len(window), detail=detail)

    bad = next((weyl.to_text(a.elem) for a in window[:25]
                if periodic.canonical_P(alcoves.translate(a, datum.varsigma))
                != periodic.per_translate(periodic.canonical_P(a),
                                          datum.varsigma)), None)
    yield _check("canonical-element-translation-equivariance", bad is None,
                 alcove=bad)


def _suite_orders(datum, table, args):
    from . import alcoves, weyl
    window = alcoves.enumerate_alcoves(datum, args.max_len)
    fund = alcoves.fundamental_alcove(datum)
    leq = alcoves.generic_leq

    yield _check("generic-order-reflexive",
                 all(leq(a, a) == "equal" for a in window))

    pairs = [(a, b) for a in window for b in window if a != b][:400]
    bad = _first_pair(pairs, lambda a, b: (leq(a, b), leq(b, a))
                      == ("less-equal", "less-equal"))
    yield _check("generic-order-antisymmetric", bad is None, pair=bad)

    def shift(a):
        return alcoves.translate(a, datum.varsigma)

    bad = _first_pair(pairs[:100],
                      lambda a, b: leq(a, b) != leq(shift(a), shift(b)))
    yield _check("generic-order-translation-invariant", bad is None, pair=bad)

    yield _check("wall-neighbors-comparable", all(
        leq(a, alcoves.act_right(a, s)) in ("less-equal", "greater-equal")
        for a in window[:25] for s in weyl.all_generators(datum)))

    yield _check("fundamental-alcove-dominant",
                 alcoves.is_dominant(fund) and fund.elem.is_identity())


_SUITES = {
    "lemma-rho": _suite_lemma_rho,
    "main": _suite_main,
    "periodic": _suite_periodic,
    "orders": _suite_orders,
}


def cmd_verify(args):
    if args.max_len < 0:
        raise ConfigError("--max-len must be >= 0, got %d" % args.max_len)
    datum = _build_datum(args)
    table = _build_table(datum, args)
    names = list(_SUITES) if args.suite == "all" else [args.suite]
    report = _base_report(datum, table)
    report["suite"] = args.suite
    report["checks"] = []
    for name in names:
        # each check is timed from the end of the one before it
        t0 = time.monotonic()
        for chk in _SUITES[name](datum, table, args):
            chk["suite"] = name
            if args.timings:
                t1 = time.monotonic()
                chk["seconds"] = round(t1 - t0, 6)
                t0 = t1
            report["checks"].append(chk)
    report["ok"] = all(c["status"] == "pass" for c in report["checks"])
    _emit(args, report)
    return 0 if report["ok"] else 1


# ---------------------------------------------------------------------------
# compute


def _coefficients(datum, el):
    """The terms of a basis element in its order; a term of the periodic
    module is an alcove, named by its element."""
    from . import weyl
    rows = []
    for k, p in el.items_sorted():
        field, x = (("index", k) if isinstance(k, weyl.ExtElem)
                    else ("alcove", k.elem))
        rows.append({field: weyl.to_text(x), "coefficient": p.to_pairs()})
    return rows


def _alcove_multiplicities(datum, q):
    from . import weyl
    return [{"alcove": weyl.to_text(a.elem), "multiplicity": m}
            for a, m in sorted(q.items(),
                               key=lambda kv: weyl.sort_key(kv[0].elem))]


def _weight_rows(datum, char):
    from . import characters
    return [{"weight": list(w), "multiplicity": m}
            for w, m in sorted(char.items(), key=lambda kv: (
                characters._weight_height(datum, kv[0]), kv[0]))]


# The flags some compute kinds read, in the parser's order: the reader of
# each value and its argparse settings.
_COMPUTE_FLAGS = {
    "elem": (_parse_elem, {"help": "group element: 's0 s1' or canonical "
                                   "text"}),
    "alcove": (_parse_alcove, {"help": "alcove label: word or canonical "
                                       "text"}),
    "weight": (rootdata._parse_weight,
               {"help": "weight coordinates, e.g. '1,2'"}),
    "p": (lambda datum, p: p, {"type": int, "help": "the prime"}),
}

# The compute kinds that reach a layer other than rootdata, each loading
# its layer when it runs.


def _asph(table, w):
    from . import parabolic
    return parabolic.p_N(table, w)


def _sph(table, w):
    from . import parabolic
    return parabolic.p_M(table, w)


def _periodic(table, a):
    from . import periodic
    return periodic.p_canonical_P(table, a)


def _qa(table, a):
    from . import characters
    return characters.q_of_alcove(table, a)


def _simplechar(table, p, lam):
    from . import characters
    return characters.simple_character(table, lam, p)


def _projmult(table, p, lam):
    from . import characters
    return characters.projective_multiplicities_weight(table, lam, p)


def _babyverma(datum, p, lam):
    from . import characters
    return characters.baby_verma_character(datum, lam, p)


# kind: (the flags it needs, read and passed in this order; whether it reads
# a table, which is then passed first, else the datum is; the function; the
# formatter of its result, or None for a result printed as it is).  The
# functions look the library up at call time, so a wrapped or patched entry
# point is the one called.
_COMPUTE = {
    "kl": (("elem",), True, lambda t, w: t.as_hecke(w), _coefficients),
    "asph": (("elem",), True, _asph, _coefficients),
    "sph": (("elem",), True, _sph, _coefficients),
    "periodic": (("alcove",), True, _periodic, _coefficients),
    "qa": (("alcove",), True, _qa, _alcove_multiplicities),
    "simplechar": (("p", "weight"), True, _simplechar, _weight_rows),
    "projmult": (("p", "weight"), True, _projmult, _weight_rows),
    "babyverma": (("p", "weight"), False, _babyverma, _weight_rows),
    "bounds": ((), False, lambda d: dict(zip(
        ("baseline", "upper", "improved"), rootdata.complexity_bounds(d))),
        None),
}


def cmd_compute(args):
    datum = _build_datum(args)
    flags, reads_table, compute, shape = _COMPUTE[args.kind]
    table = _build_table(datum, args) if reads_table else None
    if any(getattr(args, f) is None for f in flags):
        raise ConfigError("%s needs %s" % (
            args.kind, " and ".join("--" + f for f in flags)))
    unread = ["--" + f for f in _COMPUTE_FLAGS
              if f not in flags and getattr(args, f) is not None]
    if not reads_table and (args.table or "builtin") != "builtin":
        unread.append("--table")
    if unread:
        raise ConfigError("%s does not read %s" % (
            args.kind, " or ".join(unread)))
    values = [_COMPUTE_FLAGS[f][0](datum, getattr(args, f)) for f in flags]
    result = compute(datum if table is None else table, *values)
    report = _base_report(datum, table)
    report["kind"] = args.kind
    report["result"] = result if shape is None else shape(datum, result)
    _emit(args, report)
    return 0


# ---------------------------------------------------------------------------
# draw (rank 2)


def _fund_vertices(datum):
    """Vertices of the closed fundamental alcove as exact Fractions, from
    the wall table (simple walls first): <v, c> >= level / h on each."""
    from . import weyl
    table = weyl._walls(datum)
    n_aff = len(table) - datum.rank
    walls = [(c, Fraction(level, datum.coxeter_number))
             for c, level, _ in table[n_aff:] + table[:n_aff]]
    verts = []
    for i in range(len(walls)):
        for j in range(i + 1, len(walls)):
            (c1, r1), (c2, r2) = walls[i], walls[j]
            det = Fraction(c1[0]) * c2[1] - Fraction(c1[1]) * c2[0]
            if det == 0:
                continue
            x = (r1 * c2[1] - r2 * c1[1]) / det
            y = (r2 * c1[0] - r1 * c2[0]) / det
            v = (x, y)
            if all(pair(v, c) >= r for c, r in walls) and v not in verts:
                verts.append(v)
    return verts


def _embedding(datum):
    """Map lattice coordinates to the Euclidean plane via an invariant form."""
    g = [[0, 0], [0, 0]]
    for c in datum.positive_coroots:
        for i in range(2):
            for j in range(2):
                g[i][j] += c[i] * c[j]
    a = math.sqrt(g[0][0])
    b = g[0][1] / a
    c = math.sqrt(g[1][1] - b * b)

    def embed(v):
        x, y = float(v[0]), float(v[1])
        return (a * x + b * y, c * y)

    return embed


def _window_alcoves(datum, bound):
    from . import alcoves, weyl
    fund = alcoves.fundamental_alcove(datum)
    limit = datum.coxeter_number * bound

    def inside(a):  # |<x(b0), c>| <= bound, on the point h x(b0)
        q = alcoves._point(a)
        return all(abs(pair(q, c)) <= limit for c in datum.positive_coroots)

    if not inside(fund):  # then the window holds no alcove at all
        raise ConfigError("--bound %d holds no alcove" % bound)
    seen = {fund.elem.key(): fund}
    frontier = [fund]
    gens = weyl.all_generators(datum)
    while frontier:
        nxt = []
        for a in frontier:
            for s in gens:
                b = alcoves.act_right(a, s)
                if b.elem.key() in seen or not inside(b):
                    continue
                seen[b.elem.key()] = b
                nxt.append(b)
        frontier = sorted(nxt, key=lambda x: weyl.sort_key(x.elem))
    return sorted(seen.values(), key=lambda x: weyl.sort_key(x.elem))


def _shading(datum, expr):
    """(predicate(alcove) -> bool, labels dict keyed by alcove element)."""
    from . import alcoves
    labels = {}
    expr = (expr or "").strip()
    if not expr or expr == "none":
        return (lambda a: False), labels
    m = re.fullmatch(r"box\(([-\d,\s]+)\)", expr)
    if m or expr == "restricted":  # restricted: the box above the weight 0
        mu = (rootdata._parse_weight(datum, m.group(1)) if m
              else (0,) * datum.lattice_rank)
        return (lambda a: alcoves.box_rep_above(a) == mu), labels
    m = re.fullmatch(r"fW-window\((\d+)\)", expr)
    if m:
        n = int(m.group(1))
        def pred(a):
            return alcoves.is_dominant(a) and a.elem.length() <= n
        return pred, labels
    if expr.startswith("list:"):
        keys = set()
        for part in expr[5:].split(";"):
            part = part.strip()
            if not part:
                continue
            if "=" in part:
                name, word = part.split("=", 1)
            else:
                name, word = part, part
            a = _parse_alcove(datum, word.strip())
            keys.add(a.elem)
            labels[a.elem] = name.strip()
        return (lambda a: a.elem in keys), labels
    raise ConfigError(
        "unknown shading %r (use restricted, fW-window(n), box(mu), "
        "list:NAME=word;...)" % expr
    )


def _draw_svg(polys, labels_at):
    xs = [p[0] for poly, _, _ in polys for p in poly]
    ys = [p[1] for poly, _, _ in polys for p in poly]
    scale = 90.0
    pad = 12.0
    x0, y0, x1, y1 = min(xs), min(ys), max(xs), max(ys)

    def pt(p):
        return (pad + scale * (p[0] - x0), pad + scale * (y1 - p[1]))

    width = 2 * pad + scale * (x1 - x0)
    height = 2 * pad + scale * (y1 - y0)
    out = [
        '<svg xmlns="http://www.w3.org/2000/svg" width="%.1f" height="%.1f" '
        'viewBox="0 0 %.1f %.1f">' % (width, height, width, height)
    ]
    for poly, shaded, _ in polys:
        pts = " ".join("%.3f,%.3f" % pt(p) for p in poly)
        fill = "#9ecae1" if shaded else "#ffffff"
        out.append(
            '<polygon points="%s" fill="%s" stroke="#000000" '
            'stroke-width="1"/>' % (pts, fill)
        )
    for (cx, cy), text in labels_at:
        x, y = pt((cx, cy))
        out.append(
            '<text x="%.3f" y="%.3f" font-family="sans-serif" '
            'font-size="12" text-anchor="middle" '
            'dominant-baseline="middle">%s</text>' % (x, y, text)
        )
    out.append("</svg>")
    return "\n".join(out) + "\n"


def _draw_tikz(polys, labels_at):
    out = [
        "\\documentclass[tikz]{standalone}",
        "\\begin{document}",
        "\\begin{tikzpicture}[scale=1.6]",
    ]
    for poly, shaded, _ in polys:
        path = " -- ".join("(%.3f,%.3f)" % p for p in poly) + " -- cycle"
        if shaded:
            out.append("\\fill[blue!25] %s;" % path)
        out.append("\\draw %s;" % path)
    for (cx, cy), text in labels_at:
        out.append("\\node at (%.3f,%.3f) {%s};" % (cx, cy, text))
    out.append("\\end{tikzpicture}")
    out.append("\\end{document}")
    return "\n".join(out) + "\n"


def cmd_draw(args):
    if args.bound < 0:
        raise ConfigError("--bound must be >= 0, got %d" % args.bound)
    datum = _build_datum(args)
    if datum.rank != 2:
        raise ConfigError("drawing needs a rank-2 semisimple datum")
    pred, labels = _shading(datum, args.shade)
    embed = _embedding(datum)
    fund_verts = _fund_vertices(datum)
    polys = []
    labels_at = []
    for a in _window_alcoves(datum, args.bound):
        verts = [a.elem.apply(v) for v in fund_verts]
        pts = [embed(v) for v in verts]
        cx = sum(p[0] for p in pts) / len(pts)
        cy = sum(p[1] for p in pts) / len(pts)
        pts.sort(key=lambda p: math.atan2(p[1] - cy, p[0] - cx))
        polys.append((pts, bool(pred(a)), a))
        if a.elem in labels:
            labels_at.append(((cx, cy), labels[a.elem]))
    _emit(args, (_draw_tikz if args.format == "tikz" else _draw_svg)(
        polys, labels_at))
    return 0


# ---------------------------------------------------------------------------
# argument parsing


def _add_common(p, table=True):
    p.add_argument("--type", help="named Cartan type, e.g. A1, A2, C2")
    p.add_argument("--datum-json", help="root-datum JSON file (schema 1)")
    if table:
        p.add_argument("--table", default="builtin",
                       help="canonical-basis table: 'builtin' or a JSON path")
    p.add_argument("--output", help="write the report here instead of stdout")


def build_parser():
    top = argparse.ArgumentParser(
        prog="affkl",
        description="Exact alcove/Hecke-algebra combinatorics and the "
                    "character-formula verification suites built on it.",
        epilog="exit codes: 0 all checks pass / result computed, 1 a "
               "mathematical check is falsified, 2 configuration or input "
               "error, 3 internal error",
    )
    top.add_argument("--version", action="version",
                     version="affkl %s" % __version__)
    sub = top.add_subparsers(dest="command", required=True)

    pv = sub.add_parser("verify", help="run a verification suite")
    pv.add_argument("suite", choices=list(_SUITES) + ["all"])
    _add_common(pv)
    pv.add_argument("--max-len", dest="max_len", type=int, default=4,
                    help="length bound for element/alcove sweeps")
    pv.add_argument("--timings", action="store_true",
                    help="give each check the seconds it took "
                         "(non-deterministic)")
    pv.set_defaults(func=cmd_verify)

    pc = sub.add_parser("compute", help="print one basis element or table")
    pc.add_argument("kind", choices=list(_COMPUTE),
                    help="what to print; simplechar is the dominant part of "
                         "the character of the G₁T-simple module at "
                         "--weight")
    _add_common(pc)
    for flag, (_, settings) in _COMPUTE_FLAGS.items():
        pc.add_argument("--" + flag, **settings)
    pc.set_defaults(func=cmd_compute)

    pd = sub.add_parser("draw", help="rank-2 alcove diagram (SVG or TikZ)")
    _add_common(pd, table=False)
    pd.add_argument("--bound", type=int, default=3,
                    help="window: max |pairing| of barycenters with "
                         "positive coroots")
    pd.add_argument("--shade", default="",
                    help="restricted | fW-window(n) | box(mu) | "
                         "list:NAME=word;... | none")
    pd.add_argument("--format", choices=["svg", "tikz"], default="svg")
    pd.set_defaults(func=cmd_draw)
    return top


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, KeyError, OSError) as exc:  # ConfigError included
        # str() of a KeyError is the repr of its argument; print the text
        msg = exc.args[0] if isinstance(exc, KeyError) and exc.args else exc
        print("error: %s" % msg, file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - never let a traceback exit 1
        print("internal error: %s: %s" % (type(exc).__name__, exc),
              file=sys.stderr)
        return 3


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
