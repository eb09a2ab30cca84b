"""Write ``perfbench/golden.json``: the digests every benchmark output is
checked against.

    python3 perfbench/capture_golden.py

Run it from the root of a checkout, only at a commit whose outputs are
known to be right: the benchmark counts every later difference from these
digests as a failure.  It records

* for each ``verify main`` invocation of the CLI workloads, the sha256 of
  its report and the number of checks in it (all must pass);
* for every query-mix input, a digest of its result, computed once each in
  pool order, after the independent routes agreed on it;
* for seeds 0..99, the digest of the ordered query-mix result stream.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile

from run import GOLDEN, ROOT, SRC, WORK, git_commit, source_digest

SEEDS = range(100)


def capture_cli(err, work):
    import cli_sweep as cs

    out = {}
    for t, n in cs.INVOCATIONS:
        cache_dir = tempfile.mkdtemp(dir=work)
        code, report, _, _ = cs.spawn(ROOT, cs.cli_cmd(cs.verify_argv(t, n)),
                                      cs.child_env(ROOT, cache_dir), err)
        rec = cs.report_summary(code, report)
        if code != 0 or not rec["statuses"] or set(rec["statuses"]) != {"pass"}:
            raise SystemExit("%s/%d did not pass: exit %d" % (t, n, code))
        out[cs.invocation_name(t, n)] = {"sha256": rec["sha256"],
                                         "checks": len(rec["statuses"])}
    return out


def capture_query_mix():
    import query_mix as qm

    ctx = qm.Context()
    specs = [s for kind_inputs in qm.make_pool(ctx).values() for s in kind_inputs]
    results = [qm.execute(ctx, s) for s in specs]
    crossed = qm.cross_check(ROOT, ctx, specs, results)
    if crossed:
        raise SystemExit("routes disagree on %s" % ", ".join(sorted(crossed)))
    inputs = {qm.spec_key(s): qm.result_digest(s, r) for s, r in zip(specs, results)}
    pool = qm.make_pool(ctx)
    streams = {}
    for seed in SEEDS:
        stream = qm.make_stream(seed, pool)
        streams[str(seed)] = qm.stream_digest([inputs[qm.spec_key(s)] for s in stream])
    return {"inputs": inputs, "streams": streams}


def main():
    sys.path.insert(1, SRC)
    os.makedirs(WORK, exist_ok=True)
    work = tempfile.mkdtemp(dir=WORK)
    try:
        cli = capture_cli(os.path.join(work, "stderr.txt"), work)
    finally:
        shutil.rmtree(work)
        os.rmdir(WORK)
    doc = {"commit": git_commit(ROOT), "source_sha256": source_digest(ROOT),
           "cli": cli, "query_mix": capture_query_mix()}
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
