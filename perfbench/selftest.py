"""Self-test of the benchmark's own comparison: the gate must be able to fail.

A comparison that can never report a regression gates nothing.  This
feeds :func:`stats.compare` synthetic run sets built from the bounds in
``BENCHMARK.json``: one worse than every bound, which must be reported
as a regression on every metric, and an exact copy of the baseline,
which must report none.  ``perfbench/run.py`` runs it before measuring;
it also runs standalone::

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


class SelfTestError(RuntimeError):
    """The comparison misjudged a synthetic run set."""


def _baseline(end_to_end: list[dict], runs: int = 10) -> list[dict]:
    """A noisy but steady synthetic run set: value 1.0 +- 1%."""
    out = []
    for i in range(runs):
        jitter = 1.0 + 0.01 * ((i * 7) % 5 - 2) / 2
        out.append({
            "correct": True, "attempted": 3, "failed": 0,
            "metrics": {
                m["name"]: {"value": 1.0 * jitter, "unit": m["unit"]}
                for m in end_to_end
            },
        })
    return out


def _worsened(runs: list[dict], end_to_end: list[dict],
              factor: float) -> list[dict]:
    """``runs`` with every metric worse by ``factor`` times its bound."""
    direction = {m["name"]: (m["better"], m["bound"]) for m in end_to_end}
    out = []
    for run in runs:
        metrics = {}
        for name, entry in run["metrics"].items():
            better, bound = direction[name]
            step = 1.0 + factor * bound
            value = (entry["value"] * step if better == "lower"
                     else entry["value"] / step)
            metrics[name] = {"value": value, "unit": entry["unit"]}
        out.append(dict(run, metrics=metrics))
    return out


def check_comparison(spec: dict | None = None) -> None:
    """Raise :class:`SelfTestError` unless the comparison judges the
    synthetic sets right."""
    from stats import compare

    if spec is None:
        spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    end_to_end = spec["end_to_end"]
    base = _baseline(end_to_end)

    same = compare(base, [dict(r) for r in base], end_to_end)
    flagged = [v.metric for v in same if v.regressed]
    if flagged:
        raise SelfTestError(f"a copy of the baseline regressed: {flagged}")

    # Twice the bound: beyond any doubt a regression on every metric.
    worse = compare(base, _worsened(base, end_to_end, 2.0), end_to_end)
    missed = [v.metric for v in worse if not v.regressed]
    if missed:
        raise SelfTestError(f"regressions not reported: {missed}")

    # Half the bound: within tolerance, must pass.
    near = compare(base, _worsened(base, end_to_end, 0.5), end_to_end)
    flagged = [v.metric for v in near if v.regressed]
    if flagged:
        raise SelfTestError(f"changes within the bound flagged: {flagged}")

    # Better on every metric is never a regression.
    better = compare(base, _worsened(base, end_to_end, -0.5), end_to_end)
    flagged = [v.metric for v in better if v.regressed]
    if flagged:
        raise SelfTestError(f"improvements flagged as regressions: {flagged}")


if __name__ == "__main__":
    sys.path.insert(0, str(HERE))
    check_comparison()
    print("comparison self-test passed")
