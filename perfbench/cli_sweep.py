"""The ``main-cold`` and ``main-warm`` workloads: real ``affkl verify main``
processes over full enumeration windows, one after another.

A round runs every invocation in ``INVOCATIONS`` once.  ``main-cold`` gives
each invocation a fresh empty ``AFFKL_CACHE_DIR``; ``main-warm`` points all
of them at one directory that set-up filled.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import time

# The criterion-04 windows of the test suite (A1/8, A2/8, C2/6), scaled
# down so that a run holds about ten rounds.  Their times lie far apart
# (about 0.8 s, 2 s and 0.25 s), so a round's median invocation is always
# A2/3 and its slowest always C2/4.
INVOCATIONS = (("A2", 3), ("C2", 4), ("A1", 8))


def invocation_name(t, n):
    return "%s/%d" % (t, n)


def verify_argv(t, n):
    return ["verify", "main", "--type", t, "--max-len", str(n)]


def child_env(root, cache_dir=None):
    env = {k: v for k, v in os.environ.items()
           if k not in ("PYTHONPATH", "AFFKL_CACHE_DIR")}
    env["PYTHONPATH"] = os.path.join(root, "src")
    if cache_dir is not None:
        env["AFFKL_CACHE_DIR"] = cache_dir
    return env


def spawn(root, cmd, env, err_path):
    """Run ``cmd`` to completion.  Returns (exit code, stdout bytes, wall
    seconds, peak RSS in KiB) of that one child."""
    start = time.perf_counter()
    with open(err_path, "wb") as err:
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=err,
                                env=env, cwd=root)
        try:
            out = proc.stdout.read()
        finally:
            proc.stdout.close()
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, out, time.perf_counter() - start, usage.ru_maxrss


def cli_cmd(argv):
    return [sys.executable, "-m", "affkl.cli"] + list(argv)


def report_summary(exit_code, out):
    """Digest and check statuses of one report; statuses are empty when the
    output is not a report."""
    try:
        statuses = [c["status"] for c in json.loads(out)["checks"]]
    except (ValueError, KeyError, TypeError):
        statuses = []
    return {"exit": exit_code, "sha256": hashlib.sha256(out).hexdigest(),
            "statuses": statuses}


def run_round(root, cache_dirs, err_path, between=None):
    """One untraced round; ``cache_dirs`` holds one directory per
    invocation.  ``between``, when given, is called before each invocation,
    outside its timing.  Returns the round's wall time, the sum of the
    invocation walls, and one record per invocation."""
    records = []
    for (t, n), cache_dir in zip(INVOCATIONS, cache_dirs):
        if between is not None:
            between()
        code, out, wall, rss = spawn(root, cli_cmd(verify_argv(t, n)),
                                     child_env(root, cache_dir), err_path)
        records.append((wall, rss, code, out))
    return sum(r[0] for r in records), [
        dict(report_summary(code, out), wall=w, rss_kb=rss, name=invocation_name(t, n))
        for (t, n), (w, rss, code, out) in zip(INVOCATIONS, records)]


def run_traced_round(root, cache_dirs, err_path):
    """One traced round: each invocation runs ``cli.main`` in a fresh
    process that wraps the layers.  Returns the child walls and their
    trace records."""
    records = []
    child = os.path.join(root, "perfbench", "child.py")
    for (t, n), cache_dir in zip(INVOCATIONS, cache_dirs):
        code, out, wall, _ = spawn(
            root, [sys.executable, child, "cli"] + verify_argv(t, n),
            child_env(root, cache_dir), err_path)
        try:
            rec = json.loads(out.decode().splitlines()[-1])
        except (ValueError, IndexError):
            rec = {"exit": code, "sha256": "", "statuses": [], "trace": None}
        if code != 0:
            rec["exit"] = code
        rec.update(wall=wall, name=invocation_name(t, n))
        records.append(rec)
    return records


def cache_bytes(dirs):
    return sum(os.path.getsize(os.path.join(d, f))
               for d in set(dirs) for f in os.listdir(d))
