"""Statistics over repeated benchmark runs: medians, quartiles and spreads.

The quartiles are Python's statistics.quantiles(values, n=4) (the default
"exclusive" method), the same cut points ge_perfbench reports
(perfbench/stats.cpp), so both sides compute the same spread.
"""
import statistics


def quartiles(values):
    """(q1, median, q3) of at least one value."""
    values = sorted(values)
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def spread(values):
    """Inter-quartile distance as a share of the median (0 for one value)."""
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else float("inf")


def worse_by(parent, change, better):
    """How much worse `change` is than `parent`, as a share of `parent`
    (negative when it is better); `better` is "lower" or "higher"."""
    if better not in ("lower", "higher"):
        raise ValueError(f"better must be 'lower' or 'higher', got {better!r}")
    delta = (change - parent) / abs(parent)
    return delta if better == "lower" else -delta


def ab_verdict(parent, change, better, bound):
    """Verdict on paired A/B samples of one metric, by the gain rule of the
    choosing-metrics method: a gain needs the change to win at least 9/10 of
    the pairs (ties count for neither side) and the medians to differ by more
    than the parent's own inter-quartile distance.  A change worse than the
    parent's median by more than `bound` is a regression; a bound narrower
    than the parent's spread leaves the metric unresolved unless every change
    run beats every parent run."""
    if len(parent) != len(change) or not parent:
        raise ValueError("need the same, non-zero number of parent and change runs")
    sign = 1.0 if better == "lower" else -1.0
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) < 0)
    p_q1, p_med, p_q3 = quartiles(parent)
    c_med = statistics.median(change)
    if wins >= 0.9 * len(parent) and abs(c_med - p_med) > (p_q3 - p_q1):
        return "gain"
    if worse_by(p_med, c_med, better) > bound:
        return "regression"
    all_better = all(sign * (c - p) < 0 for c in change for p in parent)
    if spread(parent) > bound and not all_better:
        return "unresolved"
    return "unchanged"
