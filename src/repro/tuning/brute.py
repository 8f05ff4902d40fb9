"""Brute-force search — the oracle of Figs 5 and 6.

The paper's "Minimum" lines come from a brute-force exploration of the
workload space.  For the compute-focused stress scenarios that space is
the instruction-mix simplex; :func:`class_mix_configs` enumerates integer
compositions of the five Table III classes, and :class:`BruteForceSearch`
evaluates any iterable of configurations and keeps the best.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterable, Iterator

from repro.tuning.base import LossFn, Tuner, TuningResult
from repro.tuning.evaluator import Evaluator


def compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    """All tuples of ``parts`` non-negative ints summing to ``total``."""
    if parts == 1:
        yield (total,)
        return
    for dividers in combinations(range(total + parts - 1), parts - 1):
        result = []
        prev = -1
        for d in dividers:
            result.append(d - prev - 1)
            prev = d
        result.append(total + parts - 2 - prev)
        yield tuple(result)


#: Knob names carrying each class's weight when enumerating class mixes.
#: One representative mnemonic per class, so a brute-force sweep of the
#: class simplex spans exactly the same code-generation space as a tuner
#: restricted to these five knobs (see CLASS_KNOB_NAMES).
_CLASS_TO_KNOBS = {
    "integer": ("ADD",),
    "float": ("FMULD",),
    "branch": ("BEQ",),
    "load": ("LD",),
    "store": ("SD",),
}

#: The class-level mix knobs of the compute-focused stress scenario.
CLASS_KNOB_NAMES = ("ADD", "FMULD", "BEQ", "LD", "SD")


def class_mix_configs(
    total: int = 10, fixed: dict | None = None
) -> list[dict]:
    """Knob configurations covering the 5-class instruction-mix simplex.

    Each composition of ``total`` across (integer, float, branch, load,
    store) becomes a knob configuration on the representative mnemonic of
    each class.  ``fixed`` supplies the non-mix knobs (REG_DIST etc.).

    With the default granularity this is the 1001-point lattice a
    brute-force sweep of the mix space needs.
    """
    base = {
        "REG_DIST": 10,
        "MEM_SIZE": 16,
        "MEM_STRIDE": 64,
        "MEM_TEMP1": 1,
        "MEM_TEMP2": 1,
        "B_PATTERN": 0.1,
    }
    base.update(fixed or {})
    configs = []
    for mix in compositions(total, len(_CLASS_TO_KNOBS)):
        if all(m == 0 for m in mix):
            continue
        config = dict(base)
        empty = True
        for share, (_, knob_names) in zip(mix, _CLASS_TO_KNOBS.items()):
            per_knob = share / len(knob_names)
            for name in knob_names:
                config[name] = per_knob
            if share:
                empty = False
        if empty:
            continue
        configs.append(config)
    return configs


class BruteForceSearch(Tuner):
    """Exhaustively evaluate an iterable of knob configurations.

    The grid is swept in batches of ``batch_size`` configurations so a
    parallel execution backend keeps every worker busy; history records
    land at the same 50-configuration cadence (and with the same
    cumulative cost counters) as the sequential sweep.
    """

    def __init__(
        self,
        evaluator: Evaluator,
        loss: LossFn,
        configs: Iterable[dict],
        seed: int = 0,
        batch_size: int = 50,
    ):
        super().__init__(evaluator, loss, seed=seed)
        self.configs = list(configs)
        if not self.configs:
            raise ValueError("brute force needs at least one configuration")
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        self.batch_size = batch_size

    def run(self) -> TuningResult:
        total = len(self.configs)
        for start in range(0, total, self.batch_size):
            chunk = self.configs[start:start + self.batch_size]
            metrics_batch = self.evaluator.evaluate_raw_batch(chunk)
            for n, (config, metrics) in enumerate(
                zip(chunk, metrics_batch), start=start + 1
            ):
                value = self._observe(config, metrics)
                if n % self.batch_size == 0 or n == total:
                    self._record_epoch(n, value, metrics, config)
        return self._result(total, True, "exhausted")
