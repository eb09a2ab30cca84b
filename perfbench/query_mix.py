"""The ``query-mix`` workload: one client in a closed loop, sending seeded
queries to the public library API.

A pass sends a fixed number of queries of each kind.  Where a kind's input
pool is smaller than its count, every input is sent at least once, so the
cold work of a pass is the same for every seed; the seed and the pass
number pick the rest of the inputs and the order.  Inputs recur within a pass, where the per-datum
memos can reuse earlier work; the share of such repeats is reported.
Every weight in the pool is regular or Steinberg-type, which the library
accepts, so any refusal is a failure.  The workload never touches
``affkl.parabolic``.
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
import os
import random
import time

from affkl import alcoves, characters, hecke, periodic, rootdata, weyl

WINDOWS = (("A1", 6), ("A2", 3), ("C2", 3))  # alcove windows: type, max length
SIMPLE_PRIMES = (5, 7, 11, 13)  # A1 simple characters, weights 0..2p-2
PROJ_ROWS = (("A1", (5, 7, 11, 13)), ("C2", (7,)))  # weights in [0, 2p)^rank
COUNTS = (("pcan", 150), ("qa", 100), ("leq", 150), ("simple", 100), ("proj", 100))


class Context:
    """The set-up: root data, builtin tables and alcove windows."""

    def __init__(self):
        self.data = {t: rootdata.build_root_datum(t) for t, _ in WINDOWS}
        self.tables = {t: hecke.builtin_kl_table(d) for t, d in self.data.items()}
        self.windows = {t: alcoves.enumerate_alcoves(self.data[t], n)
                        for t, n in WINDOWS}


def _accepted(datum, lam, p):
    shifted = rootdata.add_weights(lam, datum.varsigma)
    regular = all(rootdata.pair(shifted, c) % p for c in datum.positive_coroots)
    return regular or characters.is_steinberg_type(datum, lam, p)


def make_pool(ctx):
    """Every input a query may take, by kind, in a fixed order."""
    pool = {kind: [] for kind, _ in COUNTS}
    for t, _ in WINDOWS:
        size = len(ctx.windows[t])
        pool["pcan"] += [("pcan", t, i) for i in range(size)]
        pool["qa"] += [("qa", t, i) for i in range(size)]
        pool["leq"] += [("leq", t, i, j)
                        for i in range(size) for j in range(size) if i != j]
    pool["simple"] = [("simple", p, lam)
                      for p in SIMPLE_PRIMES for lam in range(2 * p - 1)]
    for t, primes in PROJ_ROWS:
        datum = ctx.data[t]
        for p in primes:
            for k in range((2 * p) ** datum.lattice_rank):
                lam = tuple((k // (2 * p) ** r) % (2 * p)
                            for r in range(datum.lattice_rank))
                if _accepted(datum, lam, p):
                    pool["proj"].append(("proj", t, p, lam))
    return pool


def make_stream(seed, pool, pass_index=0):
    """The queries of one pass, made from ``seed`` and the pass number
    alone.  Each pass of a run gets its own order, so that a run's medians
    average over orders instead of resting on one."""
    rng = random.Random("%d/%d" % (seed, pass_index))
    out = []
    for kind, count in COUNTS:
        inputs = pool[kind]
        full, rest = divmod(count, len(inputs))
        out += inputs * full + rng.sample(inputs, rest)
    rng.shuffle(out)
    return out


def spec_key(spec):
    return ":".join(",".join(map(str, x)) if isinstance(x, tuple) else str(x)
                    for x in spec)


def execute(ctx, spec):
    kind = spec[0]
    if kind == "pcan":
        _, t, i = spec
        return periodic.p_canonical_P(ctx.tables[t], ctx.windows[t][i])
    if kind == "qa":
        _, t, i = spec
        return characters.q_of_alcove(ctx.tables[t], ctx.windows[t][i])
    if kind == "leq":
        _, t, i, j = spec
        return alcoves.generic_leq(ctx.windows[t][i], ctx.windows[t][j])
    if kind == "simple":
        _, p, lam = spec
        return characters.simple_character(ctx.tables["A1"], (lam,), p)
    if kind == "proj":
        _, t, p, lam = spec
        return characters.projective_multiplicities_weight(ctx.tables[t], lam, p)
    raise ValueError("unknown query kind %r" % (kind,))


def canonical(spec, result):
    """A JSON-ready form of a query result, independent of memo state."""
    kind = spec[0]
    if kind == "pcan":
        return [[weyl.to_text(a.elem), p.to_pairs()] for a, p in result.items_sorted()]
    if kind == "qa":
        return sorted([weyl.to_text(a.elem), m] for a, m in result.items())
    if kind == "leq":
        return result
    return sorted([list(w), m] for w, m in result.items())


def result_digest(spec, result):
    body = json.dumps([spec_key(spec), canonical(spec, result)],
                      separators=(",", ":"))
    return hashlib.sha256(body.encode()).hexdigest()[:16]


def stream_digest(query_digests):
    return hashlib.sha256("\n".join(query_digests).encode()).hexdigest()


def run_pass(ctx, specs):
    """Send ``specs`` one after another.  Returns the results (an exception
    stands for a failed query) and each query's latency in seconds."""
    results, latencies = [], []
    for spec in specs:
        start = time.perf_counter()
        try:
            result = execute(ctx, spec)
        except Exception as exc:  # noqa: BLE001 - a refused query is a failure
            result = exc
        latencies.append(time.perf_counter() - start)
        results.append(result)
    return results, latencies


def check_pass(specs, results, golden):
    """Per-query failure flags against the golden input digests, and the
    digest of the ordered result stream."""
    bad, digests = [], []
    for spec, result in zip(specs, results):
        if isinstance(result, Exception):
            digests.append("error:%s" % type(result).__name__)
            bad.append(True)
            continue
        d = result_digest(spec, result)
        digests.append(d)
        bad.append(golden["inputs"].get(spec_key(spec)) != d)
    return bad, stream_digest(digests)


def _load_oracles(root):
    path = os.path.join(root, "tests", "oracles.py")
    spec = importlib.util.spec_from_file_location("affkl_test_oracles", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def cross_check(root, ctx, specs, results):
    """Keys of inputs whose result disagrees with an independent route:
    ``q_via_coset_sum`` for ``q_of_alcove``, and the rank-1 closed form of
    the test oracles for ``simple_character``."""
    oracles = _load_oracles(root)
    bad = set()
    seen = set()
    for spec, result in zip(specs, results):
        key = spec_key(spec)
        if key in seen or isinstance(result, Exception):
            continue
        seen.add(key)
        if spec[0] == "qa":
            _, t, i = spec
            other = characters.q_via_coset_sum(ctx.tables[t], ctx.windows[t][i])
            if canonical(spec, other) != canonical(spec, result):
                bad.add(key)
        elif spec[0] == "simple":
            _, p, lam = spec
            if result != oracles.sl2_simple_character(lam, p):
                bad.add(key)
    return bad
