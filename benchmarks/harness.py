"""Shared experiment harness for the paper-regeneration benchmarks.

Each ``benchmarks/test_*`` module regenerates one table or figure of the
paper.  This module holds the common machinery: experiment runners for
cloning (Figs 2-4) and stress testing (Figs 5-6), the quick/full budget
switch, and row-printing helpers that emit paper-vs-measured tables into
the pytest output.

Budgets: the default **quick** mode trims epochs/instructions so the whole
benchmark suite runs in minutes; set ``MICROGRAD_BENCH_MODE=full`` for
paper-scale budgets (more epochs, larger windows, all eight benchmarks in
the GA comparison).
"""

from __future__ import annotations

import json
import os
import platform
import shutil
import subprocess
from dataclasses import dataclass
from pathlib import Path

from repro.core.config import MicroGradConfig
from repro.core.framework import MicroGrad
from repro.tuning.knobs import MIX_KNOB_NAMES

FULL = os.environ.get("MICROGRAD_BENCH_MODE", "quick").lower() == "full"


@dataclass(frozen=True)
class Budgets:
    """Experiment budgets for the active mode."""

    cloning_epochs: int = 60 if FULL else 25
    cloning_instructions: int = 20_000 if FULL else 8_000
    cloning_loop: int = 500 if FULL else 300
    stress_epochs: int = 45 if FULL else 30
    stress_instructions: int = 20_000 if FULL else 8_000
    stress_loop: int = 500 if FULL else 300
    brute_total: int = 10 if FULL else 6
    ga_benchmarks: int = 8 if FULL else 4


BUDGETS = Budgets()

#: Cloning metrics reported on the radar plots of Figs 2-4.
RADAR_METRICS = (
    "integer", "load", "store", "branch", "mispredict_rate",
    "l1i_hit_rate", "l1d_hit_rate", "l2_hit_rate", "ipc",
)


def clone_benchmark(
    benchmark: str, core: str, tuner: str, seed: int = 0,
    max_epochs: int | None = None,
):
    """Run one cloning experiment; returns the MicroGrad result."""
    config = MicroGradConfig(
        use_case="cloning",
        application=benchmark,
        core=core,
        tuner=tuner,
        metrics=RADAR_METRICS,
        max_epochs=max_epochs or BUDGETS.cloning_epochs,
        loop_size=BUDGETS.cloning_loop,
        instructions=BUDGETS.cloning_instructions,
        seed=seed,
    )
    return MicroGrad(config).run()


def clone_suite(benchmarks, core: str, tuner: str, seed: int = 0,
                epochs_per_benchmark: dict | None = None):
    """Clone a list of benchmarks in parallel worker processes.

    Cloning runs are independent, so the suite fans out across CPUs;
    results come back in benchmark order.
    """
    from concurrent.futures import ProcessPoolExecutor

    workers = min(len(benchmarks), max(1, (os.cpu_count() or 2) - 1))
    jobs = [
        (name, core, tuner, seed,
         (epochs_per_benchmark or {}).get(name))
        for name in benchmarks
    ]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        results = list(pool.map(_clone_job, jobs))
    return dict(zip(benchmarks, results))


def _clone_job(job):
    name, core, tuner, seed, max_epochs = job
    return clone_benchmark(name, core, tuner, seed=seed,
                           max_epochs=max_epochs)


#: Fixed non-mix knobs of the compute-focused scenario.  The mix is
#: class-level (one representative mnemonic per class) so the GD, GA and
#: brute-force searches all span exactly the same space; the unused
#: mnemonics are pinned to 0.
STRESS_FIXED = {
    "REG_DIST": 10, "MEM_SIZE": 16, "MEM_STRIDE": 64,
    "MEM_TEMP1": 1, "MEM_TEMP2": 1, "B_PATTERN": 0.1,
    "MUL": 0, "FADDD": 0, "BNE": 0, "LW": 0, "SW": 0,
}


def stress_config(
    metric: str, maximize: bool, core: str, tuner: str,
    max_epochs: int | None = None, seed: int = 0,
) -> MicroGradConfig:
    """The Fig 5/6 stress scenario: instruction-fraction knobs only."""
    from repro.tuning.brute import CLASS_KNOB_NAMES

    return MicroGradConfig(
        use_case="stress",
        metrics=(metric,),
        maximize=maximize,
        core=core,
        tuner=tuner,
        knobs=CLASS_KNOB_NAMES,
        fixed_knobs=dict(STRESS_FIXED),
        max_epochs=max_epochs or BUDGETS.stress_epochs,
        loop_size=BUDGETS.stress_loop,
        instructions=BUDGETS.stress_instructions,
        with_power="power" in metric,
        seed=seed,
    )


def run_stress(metric: str, maximize: bool, core: str, tuner: str,
               max_epochs: int | None = None, seed: int = 0):
    """Run one stress experiment; returns the MicroGrad result."""
    return MicroGrad(
        stress_config(metric, maximize, core, tuner, max_epochs, seed)
    ).run()


def brute_force_stress(metric: str, maximize: bool, core: str):
    """Brute-force oracle over the class-mix simplex (the green lines)."""
    from repro.core.framework import MicroGrad as _MG
    from repro.tuning.brute import BruteForceSearch, class_mix_configs
    from repro.tuning.loss import StressLoss

    config = stress_config(metric, maximize, core, tuner="gd")
    mg = _MG(config)
    configs = class_mix_configs(
        total=BUDGETS.brute_total,
        fixed=dict(config.fixed_knobs),
    )
    evaluator = mg.build_evaluator()
    loss = StressLoss(metric=metric, maximize=maximize)
    try:
        return BruteForceSearch(evaluator, loss, configs).run()
    finally:
        mg.close()


# ---------------------------------------------------------------------------
# reporting helpers
# ---------------------------------------------------------------------------

#: Where regenerated experiment data lands (JSON, one file per figure).
RESULTS_DIR = Path(__file__).resolve().parent.parent / "results"


#: Checkout whose commit the artifacts' provenance names.
REPO_ROOT = RESULTS_DIR.parent


def _git(*args: str) -> str | None:
    """``git`` output in :data:`REPO_ROOT`; ``None`` outside a checkout."""
    if not (REPO_ROOT / ".git").exists() or shutil.which("git") is None:
        return None
    try:
        done = subprocess.run(
            ["git", *args], cwd=REPO_ROOT, capture_output=True, text=True,
            timeout=30, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip()


def provenance() -> dict:
    """Host and source identity stamped into every artifact.

    The same fields perfbench's provenance line prints: core count,
    machine, Python and numpy versions, and the commit plus whether
    tracked files differ from it (both ``None`` outside a git checkout).
    """
    import numpy

    sha = _git("rev-parse", "HEAD")
    status = _git("status", "--porcelain", "--untracked-files=no")
    return {
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_sha": sha,
        "git_dirty": None if sha is None or status is None else bool(status),
    }


def save_artifact(name: str, payload: dict) -> Path:
    """Persist one experiment's measured data under ``results/``.

    The benchmark prints remain the human-readable record; the JSON
    artifact is the machine-readable one (for plotting or regression
    comparison across runs).  Every artifact carries a ``provenance``
    object (:func:`provenance`), so a number can be traced to the host
    and commit that produced it.
    """
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / f"{name}.json"
    payload = dict(payload)
    payload["mode"] = "full" if FULL else "quick"
    payload["provenance"] = provenance()
    path.write_text(json.dumps(payload, indent=2, sort_keys=True))
    return path


def radar_payload(results: dict) -> dict:
    """JSON-able Fig 2/3/4 data: per-benchmark ratios and epochs."""
    return {
        name: {
            "accuracy": result.accuracy,
            "mean_accuracy": result.mean_accuracy,
            "epochs": result.tuning.epochs,
            "evaluations": result.tuning.requested_evaluations,
        }
        for name, result in results.items()
    }

def print_header(title: str, paper_claim: str) -> None:
    """Banner identifying the experiment and the paper's claim."""
    print()
    print("=" * 78)
    print(title)
    print(f"paper: {paper_claim}")
    print(f"mode : {'full' if FULL else 'quick'}")
    print("=" * 78)


def print_radar_row(benchmark: str, result) -> None:
    """One Fig 2/3/4 row: per-metric measured/target ratios + epochs."""
    ratios = " ".join(
        f"{result.accuracy.get(m, 0.0):5.2f}" for m in RADAR_METRICS
    )
    print(
        f"{benchmark:<11} {ratios}  | mean acc {result.mean_accuracy:5.3f} "
        f"epochs {result.tuning.epochs:>3}"
    )


def radar_legend() -> None:
    print(f"{'benchmark':<11} "
          + " ".join(f"{m[:5]:>5}" for m in RADAR_METRICS)
          + "  | (ratio clone/target; 1.00 = exact)")


def mean_error(result) -> float:
    """Mean absolute radar deviation from 1.0 (the 'error' of Section IV)."""
    devs = [abs(result.accuracy.get(m, 0.0) - 1.0) for m in RADAR_METRICS]
    return sum(devs) / len(devs)


def worst_error(result) -> float:
    """Worst per-metric radar deviation from 1.0."""
    return max(abs(result.accuracy.get(m, 0.0) - 1.0) for m in RADAR_METRICS)
