"""End-to-end metric arithmetic: host-speed adjustment, percentiles of
per-job times, throughput and the verdict fractions."""

from __future__ import annotations

import statistics

# (name, unit, better) in output order; BENCHMARK.json lists the same
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("jobs_per_s", "1/s", "higher"),
    ("verdict_s_p50", "s", "lower"),
    ("verdict_s_p90", "s", "lower"),
    ("correct_frac", "ratio", "higher"),
    ("decided_frac", "ratio", "higher"),
    ("peak_rss_mb", "MB", "lower"),
)
# a job's reference speed is the median of the samples of the jobs this
# close to it in the same pass
WINDOW = 10
# Times are rescaled by the reference's slowdown to this power.  The
# package's Python-bound code follows the reference almost fully, its
# numpy-bound table checks much less: on ten seeds per workload, 1.0 gave
# ten-seed quartile spreads down to 0.04 on enumerate but 0.24 on verify's
# jobs_per_s (one numpy-bound 127-element check), 0.5 left enumerate's p90
# at 0.17, and 0.7 kept every timing spread at or below about 0.14.
EXPONENT = 0.7


def percentile(values: list[float], q: float) -> float:
    """The q-th percentile (0 < q < 100), interpolating linearly between
    order statistics; the median for q = 50."""
    if not values:
        raise ValueError("percentile of no values")
    xs = sorted(values)
    pos = (len(xs) - 1) * q / 100
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def rescale(t: float, ref: float, nominal: float) -> float:
    """A time ``t`` taken while a reference sample took ``ref`` seconds,
    moved towards a host on which it takes ``nominal``."""
    return t * (nominal / ref) ** EXPONENT


def host_adjusted(times: list[float], refs: list[float], nominal: float) -> list[float]:
    """One pass's job times rescaled to a host on which a reference sample
    takes ``nominal`` seconds.  ``refs[j]`` is the sample taken right after
    job ``j``; job ``j`` is rescaled by the median of the samples of jobs
    ``j - WINDOW .. j + WINDOW``."""
    if len(times) != len(refs):
        raise ValueError("one reference sample per job")
    return [
        rescale(t, statistics.median(refs[max(0, j - WINDOW): j + WINDOW + 1]), nominal)
        for j, t in enumerate(times)
    ]


def end_to_end(
    pass_times: list[list[float]],
    failed: int,
    undecided: int,
    setup_samples: list[float],
    peak_rss_mb: float,
) -> dict[str, dict]:
    """All end-to-end metrics of one run.

    ``pass_times[p][j]`` is job ``j``'s time to verdict in pass ``p``.  A
    job's time is the median over the passes, so with three or more passes
    one pass slowed by interference does not move it; throughput is the
    jobs of the list over the sum of those times."""
    attempted = sum(len(ts) for ts in pass_times)
    per_job = [statistics.median(ts) for ts in zip(*pass_times)]
    values = {
        "setup_s": statistics.median(setup_samples),
        "jobs_per_s": len(per_job) / sum(per_job),
        "verdict_s_p50": percentile(per_job, 50),
        "verdict_s_p90": percentile(per_job, 90),
        "correct_frac": (attempted - failed) / attempted,
        "decided_frac": (attempted - undecided) / attempted,
        "peak_rss_mb": peak_rss_mb,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit, _ in END_TO_END}
