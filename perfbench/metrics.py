"""Arithmetic of the benchmark's metrics: summaries, cost to a target SE,
check failure share, and the comparison of two sets of runs."""

from __future__ import annotations

import statistics


def summary(values) -> dict:
    """Median, first and third quartile and sample count."""
    vals = sorted(float(v) for v in values)
    if len(vals) == 1:
        q1 = med = q3 = vals[0]
    else:
        q1, med, q3 = statistics.quantiles(vals, n=4)
    return {"median": med, "q1": q1, "q3": q3, "n": len(vals)}


def spread(values) -> float:
    """Interquartile distance as a share of the median."""
    s = summary(values)
    return (s["q3"] - s["q1"]) / abs(s["median"]) if s["median"] else float("inf")


def normalized(seconds: float, refs, nominal: float) -> float:
    """``seconds`` rescaled to the host speed at which the reference
    computation takes ``nominal`` seconds; ``refs`` are its times in the
    same pass."""
    return seconds * nominal / statistics.fmean(refs)


def time_to_target(runs) -> float:
    """Sum over Monte Carlo steps of wall_s * (se / target_se)^2.

    With SE proportional to 1/sqrt(work), this is the time each step would
    take to reach its target SE, so a speed-up bought with variance does
    not count.
    """
    return sum(wall * (se / target) ** 2 for wall, se, target in runs)


def check_fail_frac(failed: int, attempted: int) -> float:
    return failed / attempted if attempted else 1.0


def compare_sets(first: dict, second: dict, spec: list[dict]) -> list[dict]:
    """Compare two sets of runs of the same code, metric by metric.

    ``first`` and ``second`` map metric name to its values over the runs of
    a set; ``spec`` is the ``end_to_end`` list of BENCHMARK.json.  A metric
    is steady when each set's spread is at most its bound, and the second
    median is not worse than the first by more than the bound.
    """
    out = []
    for m in spec:
        name, bound = m["name"], m["bound"]
        a, b = summary(first[name]), summary(second[name])
        change = (b["median"] - a["median"]) / abs(a["median"])
        worse = change if m["better"] == "lower" else -change
        spreads = (spread(first[name]), spread(second[name]))
        out.append({"name": name, "bound": bound, "spread": spreads,
                    "median": (a["median"], b["median"]), "worse_by": worse,
                    "ok": bool(max(spreads) <= bound and worse <= bound)})
    return out
