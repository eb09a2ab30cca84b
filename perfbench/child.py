"""One traced pass in a fresh process; prints one JSON line.

    python3 perfbench/child.py cli verify main --type C2 --max-len 4
        imports ``affkl.cli``, wraps every layer and runs ``cli.main``
        in-process; ``AFFKL_CACHE_DIR`` comes from the environment.
    python3 perfbench/child.py query-mix SEED PASS
        wraps every layer, then builds the query-mix set-up and sends the
        queries of pass PASS of seed SEED.

``PYTHONPATH`` must name the checkout's ``src`` directory.  The trace root
covers the import and the wrapping as well for ``cli``, and the set-up and
the pass for ``query-mix``; time in it that no layer span covers is the
unattributed time.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import time

from tracer import Tracer


def trace_record(tracer):
    return {"self_s": dict(tracer.self_s), "calls": dict(tracer.calls),
            "durations": dict(tracer.durations),
            "klcache_hits": tracer.klcache_hits, "wall": tracer.wall}


def run_cli(argv):
    from cli_sweep import report_summary

    tracer = Tracer()
    buf = io.StringIO()

    def traced():
        start = time.perf_counter()
        import affkl.cli
        import_s = time.perf_counter() - start
        tracer.install()
        with contextlib.redirect_stdout(buf):
            return affkl.cli.main(argv), import_s

    code, import_s = tracer.run(traced)
    rec = report_summary(code, buf.getvalue().encode())
    rec.update(import_s=import_s, trace=trace_record(tracer))
    return rec


def run_query_mix(seed, index):
    start = time.perf_counter()
    import affkl  # noqa: F401
    import_s = time.perf_counter() - start
    import query_mix as qm
    from run import load_golden

    specs = qm.make_stream(seed, qm.make_pool(qm.Context()), index)
    tracer = Tracer()
    tracer.install()

    def one_pass():
        return qm.run_pass(qm.Context(), specs)

    results, _ = tracer.run(one_pass)
    trace = trace_record(tracer)  # before the check calls wrapped code
    bad, digest = qm.check_pass(specs, results, load_golden()["query_mix"])
    return {"attempted": len(specs), "failed": sum(bad), "stream_digest": digest,
            "import_s": import_s, "trace": trace}


def main(argv):
    if argv[:1] == ["cli"]:
        rec = run_cli(argv[1:])
    elif len(argv) == 3 and argv[0] == "query-mix":
        rec = run_query_mix(int(argv[1]), int(argv[2]))
    else:
        print(__doc__, file=sys.stderr)
        return 2
    print(json.dumps(rec))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
