"""Arithmetic the benchmark reports with: the tail rule, the summaries of a
run and the failure counts.  Pure functions, covered by ``test_stats.py``."""

from __future__ import annotations

import math

TAIL_BEYOND = 10  # a tail percentile needs this many samples above it


def tail(samples):
    """The highest percentile of ``samples`` that has at least
    ``TAIL_BEYOND`` samples above it, by nearest rank.

    Returns ``(value, percentile, n)``.  When fewer than ``2 * TAIL_BEYOND``
    samples exist that percentile would fall below the median, which is no
    tail; the maximum is returned instead, with percentile 100.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n == 0:
        raise ValueError("tail of an empty sample")
    rank = n - TAIL_BEYOND  # 1-based rank with exactly TAIL_BEYOND samples above
    if 2 * rank < n:
        return ordered[-1], 100.0, n
    return ordered[rank - 1], 100.0 * rank / n, n


def percentile(samples, pct):
    """The ``pct`` percentile of ``samples`` by nearest rank."""
    ordered = sorted(samples)
    if not ordered:
        raise ValueError("percentile of an empty sample")
    rank = max(1, math.ceil(pct / 100.0 * len(ordered) - 1e-9))
    return ordered[rank - 1]


def interquartile_mean(samples):
    """Mean of the middle half of ``samples``: the lowest and the highest
    quarter (each rounded down) are left out.

    A run summarises its rounds with this rather than with the median.  On a
    shared host the speed shifts every few seconds, so a run's rounds fall
    into a fast and a slow group, and the median of ten rounds jumps from one
    group to the other with the share of slow rounds; the mean of the middle
    half moves smoothly with that share and, like the median, ignores the
    odd stalled round.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n == 0:
        raise ValueError("interquartile mean of an empty sample")
    k = n // 4
    return sum(ordered[k:n - k]) / (n - 2 * k)


def fail_ratio(failed, attempted):
    if attempted < 1:
        raise ValueError("no operation was attempted")
    if not 0 <= failed <= attempted:
        raise ValueError("failed count %d outside 0..%d" % (failed, attempted))
    return failed / attempted


def invocation_failures(expected_checks, exit_code, digest_ok, statuses):
    """Failed checks of one ``affkl verify`` invocation.

    A non-zero exit or a report whose digest differs from the golden one
    fails every check the golden report holds; otherwise each check whose
    status is not ``pass`` fails.
    """
    if exit_code != 0 or not digest_ok:
        return expected_checks
    return sum(1 for s in statuses if s != "pass")


def repeat_share(keys):
    """Share of ``keys`` that already occurred earlier in the sequence."""
    seen = set()
    repeats = 0
    for k in keys:
        if k in seen:
            repeats += 1
        seen.add(k)
    return repeats / len(keys) if keys else 0.0
