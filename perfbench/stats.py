"""Robust summaries and the run-set comparison the benchmark gates with.

A *run set* is a list of result objects, one per benchmark run (the
final JSON line of ``perfbench/run.py``).  :func:`compare` judges a
candidate set against a baseline set exactly the way the bounds in
``BENCHMARK.json`` are meant: per end-to-end metric, the candidate's
median may be worse than the baseline's median by at most ``bound`` (a
share of the baseline median).  :func:`spread` is the quartile distance
as a share of the median, the run-to-run noise a bound has to exceed.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3); a single value is its own quartiles."""
    values = [float(v) for v in values]
    if not values:
        raise ValueError("no values to summarize")
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def spread(values: list[float]) -> float:
    """Quartile distance as a share of the median (0 for one value)."""
    q1, median, q3 = quartiles(values)
    if median == 0:
        return 0.0 if q3 == q1 else float("inf")
    return (q3 - q1) / abs(median)


def worsening(base: float, candidate: float, better: str) -> float:
    """How much worse ``candidate`` is than ``base``, as a share of base.

    Negative when the candidate is better.
    """
    if base == 0:
        raise ValueError("a metric gated by a relative bound must not be 0")
    delta = candidate - base if better == "lower" else base - candidate
    return delta / abs(base)


@dataclass
class Verdict:
    """One metric's comparison between two run sets."""

    metric: str
    unit: str
    base_median: float
    candidate_median: float
    worse_by: float
    bound: float
    base_spread: float
    candidate_spread: float
    n_base: int
    n_candidate: int

    @property
    def regressed(self) -> bool:
        return self.worse_by > self.bound

    @property
    def unresolved(self) -> bool:
        """Noise wider than the bound: no change can be ruled out."""
        return max(self.base_spread, self.candidate_spread) > self.bound


def metric_values(runs: list[dict], name: str) -> list[float]:
    """One metric's values across a run set (runs lacking it skipped)."""
    return [
        float(run["metrics"][name]["value"])
        for run in runs
        if name in run.get("metrics", {})
    ]


def compare(base_runs: list[dict], candidate_runs: list[dict],
            end_to_end: list[dict]) -> list[Verdict]:
    """Judge every end-to-end metric of ``candidate_runs`` against
    ``base_runs`` under the bounds of ``end_to_end`` (the list of the
    same name in ``BENCHMARK.json``)."""
    verdicts = []
    for spec in end_to_end:
        name = spec["name"]
        base = metric_values(base_runs, name)
        cand = metric_values(candidate_runs, name)
        if not base or not cand:
            raise ValueError(f"metric {name!r} missing from a run set")
        b_med = statistics.median(base)
        c_med = statistics.median(cand)
        verdicts.append(Verdict(
            metric=name,
            unit=spec["unit"],
            base_median=b_med,
            candidate_median=c_med,
            worse_by=worsening(b_med, c_med, spec["better"]),
            bound=float(spec["bound"]),
            base_spread=spread(base),
            candidate_spread=spread(cand),
            n_base=len(base),
            n_candidate=len(cand),
        ))
    return verdicts


def failed_runs(runs: list[dict]) -> int:
    """Runs that reported a wrong result or a failed operation."""
    return sum(
        1 for run in runs
        if not run.get("correct", False) or run.get("failed", 0)
    )


def format_verdicts(verdicts: list[Verdict]) -> str:
    lines = [
        f"{'metric':<14} {'unit':<6} {'base':>12} {'candidate':>12} "
        f"{'worse by':>9} {'bound':>6} {'spread b/c':>13}  verdict"
    ]
    for v in verdicts:
        verdict = (
            "REGRESSION" if v.regressed
            else "unresolved" if v.unresolved
            else "ok"
        )
        lines.append(
            f"{v.metric:<14} {v.unit:<6} {v.base_median:>12.6g} "
            f"{v.candidate_median:>12.6g} {v.worse_by:>+9.3f} "
            f"{v.bound:>6.2f} {v.base_spread:>6.3f}/{v.candidate_spread:<6.3f}"
            f"  {verdict} (n={v.n_base}/{v.n_candidate})"
        )
    return "\n".join(lines)
