"""The affkl benchmark.

    python3 perfbench/run.py --workload main-cold --seed 1 --seconds 40 --trace 0

Run it from the root of a checkout.  Workloads: ``main-cold``, ``main-warm``
and ``query-mix`` (see ``perfbench/NOTES.md`` for why each exists).  With
``--trace 0`` it measures the end-to-end metrics with tracing off; with
``--trace 1`` it alternates untraced and traced passes in fresh processes
and reports the per-layer metrics.  Every output is checked against the
golden digests in ``perfbench/golden.json``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
give the stamp of the run and every metric by name with its unit.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import sys
import tempfile
import time
from collections import defaultdict
from statistics import median

import cli_sweep as cs
import reference
from stats import (fail_ratio, interquartile_mean, invocation_failures, percentile,
                   repeat_share, tail)
from tracer import LAYERS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
GOLDEN = os.path.join(HERE, "golden.json")
WORK = os.path.join(HERE, "_work")
WORKLOADS = ("main-cold", "main-warm", "query-mix")
# end-to-end metrics read at the reference speed (see reference.py)
TIMES = ("wall_s", "query_p50_ms", "query_tail_ms", "setup_s")
RATES = ("ops_per_s",)
# Largest share of a traced pass's wall time that the layer self times may
# leave unattributed.  When the benchmark was defined the share was about
# 0.05 on the CLI workloads (mostly the import of affkl, which the trace
# root covers) and 0.001 on query-mix (the client loop).
UNATTRIBUTED_LIMIT = 0.1

# per-layer count metrics and the wrapped call each one counts
COUNTED = (
    ("weyl.multiply.calls", "weyl.multiply"),
    ("weyl.length.calls", "weyl.length"),
    ("weyl.is_fWext.calls", "weyl.is_fWext"),
    ("weyl.reduced_word.calls", "weyl.reduced_word"),
    ("weyl.finite_generators.calls", "weyl.finite_generators"),
    ("parabolic.elem_init.calls", "parabolic.ParabolicElem.__init__"),
    ("hecke.kl_basis.calls", "hecke._kl_w"),  # every step of the KL recursion
    ("hecke.laurent_mul.calls", "hecke.LaurentPoly.__mul__"),
    ("hecke.divide_exact.calls", "hecke.LaurentPoly.divide_exact"),
    ("hecke.klcache.get.calls", "hecke.KLCache.get"),
    ("hecke.klcache.put.calls", "hecke.KLCache.put"),
    ("periodic.p_canonical_P.calls", "periodic.p_canonical_P"),
    ("periodic.per_act.calls", "periodic.per_act"),
    ("alcoves.generic_leq.calls", "alcoves.generic_leq"),
    ("characters.simple_character.calls", "characters.simple_character"),
    ("characters.projective_multiplicities_weight.calls",
     "characters.projective_multiplicities_weight"),
)


def load_golden():
    with open(GOLDEN, encoding="utf-8") as fh:
        return json.load(fh)


class Run:
    """What one benchmark run found: metrics, op counts and problems."""

    def __init__(self):
        self.metrics = {}
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.notes = {}
        self.reference = []  # reference samples, seconds

    def put(self, name, value, unit):
        self.metrics[name] = (value, unit)

    def sample_reference(self):
        self.reference.append(reference.sample())

    def scale_to_reference(self):
        """Read the time metrics as on a host that runs one reference sample
        in ``reference.REFERENCE_S``.  The measured values stay in the
        notes."""
        measured = interquartile_mean(self.reference)
        scale = reference.REFERENCE_S / measured
        self.notes.update(reference_s=measured, reference_samples=len(self.reference),
                          measured={name: self.metrics[name][0] for name in TIMES + RATES})
        for name in TIMES:
            value, unit = self.metrics[name]
            self.metrics[name] = (value * scale, unit)
        for name in RATES:
            value, unit = self.metrics[name]
            self.metrics[name] = (value / scale, unit)


def elapsed_allows_another(start, passes, seconds):
    """Closed-loop stop rule: start another pass only when the mean pass
    time says it ends within ``seconds``; always make at least one."""
    if passes == 0:
        return True
    elapsed = time.perf_counter() - start
    return elapsed + elapsed / passes <= seconds


# ---------------------------------------------------------------------------
# per-layer metrics


def merge_traces(traces):
    out = {"self_s": defaultdict(float), "calls": defaultdict(int),
           "durations": defaultdict(list), "klcache_hits": 0, "wall": 0.0}
    for tr in traces:
        for k, v in tr["self_s"].items():
            out["self_s"][k] += v
        for k, v in tr["calls"].items():
            out["calls"][k] += v
        for k, v in tr["durations"].items():
            out["durations"][k] += v
        out["klcache_hits"] += tr["klcache_hits"]
        out["wall"] += tr["wall"]
    return out


def layer_metrics(trace, traced_pass_wall, untraced_wall, cache_bytes, import_s):
    """The per-layer metrics of one traced pass.  ``trace["wall"]`` is the
    in-process wall time of the trace roots, which the layer self times
    split; ``traced_pass_wall`` and ``untraced_wall`` are the pass's wall
    time with and without tracing, each taken as the end-to-end ``wall_s``
    takes it."""
    calls = trace["calls"]
    layer_calls = defaultdict(int)
    for name, n in calls.items():
        layer_calls[name.split(".", 1)[0]] += n
    m = {}
    for layer in LAYERS:
        m[layer + ".self_s"] = (trace["self_s"].get(layer, 0.0), "s")
        m[layer + ".calls"] = (layer_calls[layer], "count")
    for metric, name in COUNTED:
        m[metric] = (calls.get(name, 0), "count")
    spans = trace["durations"].get("parabolic.verify_main", [])
    m["parabolic.verify_main.p50_ms"] = (median(spans) * 1e3 if spans else 0.0, "ms")
    m["parabolic.verify_main.tail_ms"] = (tail(spans)[0] * 1e3 if spans else 0.0, "ms")
    gets = calls.get("hecke.KLCache.get", 0)
    m["hecke.klcache.load_s"] = (
        sum(trace["durations"].get("hecke.KLCache.__init__", [])), "s")
    m["hecke.klcache.hit_ratio"] = (trace["klcache_hits"] / gets if gets else 0.0, "ratio")
    m["hecke.klcache.bytes"] = (cache_bytes, "B")
    m["setup.import_s"] = (import_s, "s")
    attributed = sum(trace["self_s"].get(layer, 0.0) for layer in LAYERS)
    m["trace.wall_s"] = (trace["wall"], "s")
    m["trace.untraced_wall_s"] = (untraced_wall, "s")
    m["trace.overhead_s"] = (traced_pass_wall - untraced_wall, "s")
    m["trace.unattributed_s"] = (trace["wall"] - attributed, "s")
    m["trace.unattributed_share"] = (
        m["trace.unattributed_s"][0] / trace["wall"] if trace["wall"] else 1.0, "ratio")
    return m


def accounting_problem(m):
    """A problem when the layer self times leave more than
    ``UNATTRIBUTED_LIMIT`` of the traced wall time unattributed."""
    share = m["trace.unattributed_share"][0]
    if share > UNATTRIBUTED_LIMIT:
        return ("layer self times leave %.1f%% of the traced wall time "
                "unattributed (limit %.0f%%)" % (100 * share, 100 * UNATTRIBUTED_LIMIT))
    return None


def median_metrics(per_pass):
    return {name: (median([p[name][0] for p in per_pass]), unit)
            for name, (_, unit) in per_pass[0].items()}


# ---------------------------------------------------------------------------
# CLI workloads


def bench_cli(run, args, work, warm):
    golden = load_golden()["cli"]
    err = os.path.join(work, "stderr.txt")

    def score(records):
        for rec in records:
            want = golden[rec["name"]]
            lost = invocation_failures(want["checks"], rec["exit"],
                                       rec["sha256"] == want["sha256"],
                                       rec["statuses"])
            run.attempted += want["checks"]
            run.failed += lost
            if lost:
                run.problems.append("%s: exit %s, %d of %d checks failed"
                                    % (rec["name"], rec["exit"], lost, want["checks"]))

    def fresh_dirs():
        if warm:
            return [warm_dir] * len(cs.INVOCATIONS)
        return [tempfile.mkdtemp(dir=work) for _ in cs.INVOCATIONS]

    def drop(dirs):
        if not warm:
            for d in dirs:
                shutil.rmtree(d)

    def setup_sample(index):
        """Wall time of a trivial ``compute bounds`` process; the type
        cycles over those of the invocations."""
        t = cs.INVOCATIONS[index % len(cs.INVOCATIONS)][0]
        code, _, wall, _ = cs.spawn(ROOT, cs.cli_cmd(["compute", "bounds", "--type", t]),
                                    cs.child_env(ROOT), err)
        if code != 0:
            run.problems.append("set-up: compute bounds --type %s exit %d" % (t, code))
        return wall

    warm_dir = None
    if warm:
        warm_dir = tempfile.mkdtemp(dir=work)
        _, records = cs.run_round(ROOT, [warm_dir] * len(cs.INVOCATIONS), err)
        score(records)  # the filling run must match the golden reports too

    if args.trace:
        return trace_cli(run, args, work, fresh_dirs, drop, score, err)

    # one set-up sample before each round, so that the samples span the
    # run, and a reference sample before each invocation
    setup, rounds = [], []
    start = time.perf_counter()
    while elapsed_allows_another(start, len(rounds), args.seconds):
        setup.append(setup_sample(len(rounds)))
        dirs = fresh_dirs()
        wall, records = cs.run_round(ROOT, dirs, err, between=run.sample_reference)
        drop(dirs)
        score(records)
        rounds.append((wall, records))

    checks = sum(golden[cs.invocation_name(t, n)]["checks"] for t, n in cs.INVOCATIONS)
    tails = [tail([r["wall"] for r in records]) for _, records in rounds]
    wall = interquartile_mean([w for w, _ in rounds])
    run.put("wall_s", wall, "s")
    run.put("ops_per_s", checks / wall, "1/s")
    run.put("query_p50_ms", interquartile_mean([median([r["wall"] for r in records])
                                                for _, records in rounds]) * 1e3, "ms")
    run.put("query_tail_ms", interquartile_mean([t[0] for t in tails]) * 1e3, "ms")
    run.put("peak_rss_mb", max(r["rss_kb"] for _, records in rounds
                               for r in records) / 1024, "MB")
    run.put("setup_s", median(setup), "s")
    run.scale_to_reference()
    run.notes.update(rounds=len(rounds), query="one verify main invocation",
                     tail_percentile=tails[0][1], tail_samples_per_round=tails[0][2])


def trace_cli(run, args, work, fresh_dirs, drop, score, err):
    per_pass = []
    start = time.perf_counter()
    while elapsed_allows_another(start, len(per_pass), args.seconds):
        dirs = fresh_dirs()
        untraced_wall, records = cs.run_round(ROOT, dirs, err)
        drop(dirs)
        score(records)
        dirs = fresh_dirs()
        records = cs.run_traced_round(ROOT, dirs, err)
        size = cs.cache_bytes(dirs)
        drop(dirs)
        score(records)
        traces = [rec["trace"] for rec in records if rec.get("trace")]
        if len(traces) != len(records):
            run.problems.append("a traced invocation returned no trace")
            break
        traced_wall = sum(rec["wall"] for rec in records)
        m = layer_metrics(merge_traces(traces), traced_wall, untraced_wall, size,
                          median([rec["import_s"] for rec in records]))
        problem = accounting_problem(m)
        if problem:
            run.problems.append(problem)
        per_pass.append(m)
    if per_pass:
        run.metrics.update(median_metrics(per_pass))
    run.notes.update(passes=len(per_pass))


# ---------------------------------------------------------------------------
# query-mix


def bench_query_mix(run, args, work):
    import query_mix as qm  # imports affkl, so only once src is on the path

    golden = load_golden()["query_mix"]
    err = os.path.join(work, "stderr.txt")
    pool = qm.make_pool(qm.Context())
    specs = qm.make_stream(args.seed, pool)
    repeats = repeat_share([qm.spec_key(s) for s in specs])
    recorded = golden["streams"].get(str(args.seed))
    run.notes.update(queries_per_pass=len(specs), repeat_share=repeats,
                     stream_digest_recorded=recorded is not None)
    import_cmd = [sys.executable, "-c", "import affkl"]
    cs.spawn(ROOT, import_cmd, cs.child_env(ROOT), err)  # compiles the byte code
    crossed = set()

    def check_stream(index, digest):
        # the golden streams are those of the first pass
        if index == 0 and recorded is not None and digest != recorded:
            run.problems.append("seed %d: result stream digest differs from the golden one"
                                % args.seed)

    def untraced_pass(index):
        """Pass ``index`` as the end-to-end metrics take it: a fresh import
        process, then the set-up and the queries in this process, checked.
        Returns (set-up s, in-process set-up s, pass s, latencies)."""
        code, _, import_wall, _ = cs.spawn(ROOT, import_cmd, cs.child_env(ROOT), err)
        if code != 0:
            run.problems.append("set-up: import affkl exit %d" % code)
        t0 = time.perf_counter()
        ctx = qm.Context()
        ctx_s = time.perf_counter() - t0
        specs = qm.make_stream(args.seed, pool, index)
        t0 = time.perf_counter()
        results, latencies = qm.run_pass(ctx, specs)
        wall = time.perf_counter() - t0
        bad, digest = qm.check_pass(specs, results, golden)
        check_stream(index, digest)
        if index == 0:
            # every pass sends every q_of_alcove and simple_character input
            crossed.update(qm.cross_check(ROOT, ctx, specs, results))
            if crossed:
                run.problems.append("routes disagree on %s" % ", ".join(sorted(crossed)))
        run.attempted += len(specs)
        run.failed += sum(1 for b, s in zip(bad, specs) if b or qm.spec_key(s) in crossed)
        return import_wall + ctx_s, ctx_s, wall, latencies

    if args.trace:
        return trace_query_mix(run, args, err, check_stream, untraced_pass)

    setups, walls, latencies = [], [], []
    start = time.perf_counter()
    while elapsed_allows_another(start, len(walls), args.seconds):
        run.sample_reference()
        setup_s, _, wall, pass_latencies = untraced_pass(len(walls))
        setups.append(setup_s)
        walls.append(wall)
        latencies += pass_latencies

    # the tail percentile is the one the rule gives a single pass; it is
    # read off the queries of every pass together
    _, tail_pct, tail_n = tail(latencies[:len(specs)])
    wall = interquartile_mean(walls)
    run.put("wall_s", wall, "s")
    run.put("ops_per_s", len(specs) / wall, "1/s")
    run.put("query_p50_ms", median(latencies) * 1e3, "ms")
    run.put("query_tail_ms", percentile(latencies, tail_pct) * 1e3, "ms")
    run.put("peak_rss_mb", resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    run.put("setup_s", median(setups), "s")
    run.scale_to_reference()
    run.notes.update(passes=len(walls), query="one library call", queries=len(latencies),
                     tail_percentile=tail_pct, tail_samples_per_pass=tail_n)


def trace_query_mix(run, args, err, check_stream, untraced_pass):
    """Alternate an untraced pass here with the same pass traced in a fresh
    process.  Both time the set-up and the queries in-process."""
    child = os.path.join(HERE, "child.py")
    per_pass = []
    start = time.perf_counter()
    while elapsed_allows_another(start, len(per_pass), args.seconds):
        index = len(per_pass)
        _, ctx_s, wall, _ = untraced_pass(index)
        code, out, _, _ = cs.spawn(
            ROOT, [sys.executable, child, "query-mix", str(args.seed), str(index)],
            cs.child_env(ROOT), err)
        try:
            rec = json.loads(out.decode().splitlines()[-1])
        except (ValueError, IndexError):
            rec = None
        if code != 0 or rec is None:
            run.problems.append("traced query-mix child exit %d" % code)
            break
        run.attempted += rec["attempted"]
        run.failed += rec["failed"]
        check_stream(index, rec["stream_digest"])
        m = layer_metrics(rec["trace"], rec["trace"]["wall"], ctx_s + wall, 0,
                          rec["import_s"])
        problem = accounting_problem(m)
        if problem:
            run.problems.append(problem)
        per_pass.append(m)
    if per_pass:
        run.metrics.update(median_metrics(per_pass))
    run.notes.update(passes=len(per_pass))


# ---------------------------------------------------------------------------
# stamp and output


def git_commit(root):
    """The checked-out commit, read from ``.git`` without running git;
    None outside a git checkout."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return None


def source_digest(root):
    """sha256 over the library sources, naming the code measured when the
    checkout carries no git metadata."""
    h = hashlib.sha256()
    pkg = os.path.join(root, "src", "affkl")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            h.update(name.encode() + b"\0")
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def stamp(args):
    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0)), "platform": platform.platform(),
            "commit": git_commit(ROOT), "source_sha256": source_digest(ROOT)}


def parse_args(argv):
    p = argparse.ArgumentParser(description="affkl benchmark")
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    return args


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "affkl", "cli.py")):
        print("error: no affkl sources under %s; run from a checkout" % SRC,
              file=sys.stderr)
        return 2
    sys.path.insert(1, SRC)
    run_stamp = stamp(args)
    # one core for the benchmark and its children, so that the reference
    # samples run on the core the timed work runs on
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    os.makedirs(WORK, exist_ok=True)
    work = tempfile.mkdtemp(dir=WORK)
    run = Run()
    try:
        if args.workload == "query-mix":
            bench_query_mix(run, args, work)
        else:
            bench_cli(run, args, work, warm=args.workload == "main-warm")
    finally:
        shutil.rmtree(work)
        try:
            os.rmdir(WORK)
        except OSError:
            pass  # another run still uses it
    if run.attempted < 1:
        run.problems.append("no operation was attempted")
        run.attempted = 1
        run.failed = 1

    print("stamp " + json.dumps(run_stamp, sort_keys=True))
    for name, (value, unit) in sorted(run.metrics.items()):
        print("metric %-52s %14.6f %s" % (name, value, unit))
    print("fail_ratio %.6f (%d of %d ops)"
          % (fail_ratio(run.failed, run.attempted), run.failed, run.attempted))
    print("notes " + json.dumps(run.notes, sort_keys=True))
    for problem in run.problems:
        print("problem " + problem)
    print(json.dumps({
        "correct": run.failed == 0 and not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in run.metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
