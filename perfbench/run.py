"""MicroGrad end-to-end benchmark: tuning runs and core sweeps.

Usage (from the repository root)::

    python3 perfbench/run.py --workload gd-stress-small --seed 1 \\
        --seconds 20 --trace 0

Runs one workload (see ``perfbench/workloads.py``) repeatedly for about
``--seconds`` seconds, checks every result, prints every metric by name
with its unit, median, quartiles and sample count, and ends with one
JSON line: ``{"correct", "attempted", "failed", "metrics"}``.

* ``--trace 0`` measures with tracing off and reports the end-to-end
  metrics of ``BENCHMARK.json``.
* ``--trace 1`` alternates untraced and traced units and reports the
  per-layer metrics: self time per layer from outside-in wrappers (see
  ``perfbench/tracer.py``), the unattributed residual, and the tracing
  overhead as the difference between the two kinds of unit.

The program under test is imported from ``src/`` next to this directory;
without it the benchmark exits non-zero and prints no result.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: Scratch space for runs that write (dist cache dirs), inside the
#: checkout and removed on exit.
SCRATCH_PARENT = ROOT / ".perfbench-tmp"
#: Fewest units per run: the repeat is what the result check compares.
MIN_UNITS = 2
#: Attribution floor for workloads that run in this process only.
ATTRIBUTED_FLOOR = 0.95
#: Raw host figures printed beside the end-to-end metrics.
HOST_ROWS = {"host_wall_s": "s", "host_teardown_s": "s",
             "host_setup_s": "s", "kernel_s": "s"}


@dataclass
class Unit:
    """One unit: ``runs_per_unit`` runs, one per sub-seed."""

    traced: bool
    outcomes: list = field(default_factory=list)
    errors: list = field(default_factory=list)
    tracer: object = None

    @property
    def ok(self) -> bool:
        return not self.errors

    def run_time_s(self) -> float:
        return sum(o.setup_s + o.wall_s for o in self.outcomes)


@dataclass
class Budget:
    """The measured time: a deadline and the duration of every run so far."""

    deadline: float
    run_s: list = field(default_factory=list)

    def fits(self) -> bool:
        """Whether a typical run still ends before the deadline."""
        return (time.perf_counter() + statistics.median(self.run_s)
                <= self.deadline)


def _cpu(who) -> float:
    usage = resource.getrusage(who)
    return usage.ru_utime + usage.ru_stime


def measure_unit(workload, seed: int, traced: bool, probe,
                 scratch: Path, host, budget: Budget,
                 partial: bool) -> Unit:
    """Run the unit's sub-seeds in order.  A ``partial`` unit stops
    after its first run once the next would end past the deadline."""
    from tracer import LayerTracer

    unit = Unit(traced=traced, tracer=LayerTracer() if traced else None)
    if unit.tracer is not None:
        unit.tracer.install()
    # In-run host samples only where this process does the work alone:
    # not inside traced units (the tracer would time them) and not with
    # dist workers (they would compete with the kernel for the CPUs).
    sample = not traced and not workload.workers
    probe.on_mark = host.arm if sample else None
    probe.on_finish = host.disarm if sample else None
    try:
        for sub_seed in workload.sub_seeds(seed):
            if partial and unit.outcomes and not budget.fits():
                break
            began = time.perf_counter()
            gc.collect()
            self0 = _cpu(resource.RUSAGE_SELF)
            child0 = _cpu(resource.RUSAGE_CHILDREN)
            try:
                outcome = workload.run(sub_seed, probe, scratch)
            except Exception:
                unit.errors.append(traceback.format_exc())
                unit.outcomes.append(None)
                host.settle()
                budget.run_s.append(time.perf_counter() - began)
                continue
            # Children are reaped by the run's close(), so their CPU
            # time has landed in RUSAGE_CHILDREN by now.
            outcome.child_cpu_s = _cpu(resource.RUSAGE_CHILDREN) - child0
            outcome.cpu_s = (_cpu(resource.RUSAGE_SELF) - self0
                             + outcome.child_cpu_s)
            outcome.kernel_s, sampling_s, sampling_cpu_s = host.settle()
            outcome.wall_s -= sampling_s
            outcome.cpu_s -= sampling_cpu_s
            unit.outcomes.append(outcome)
            budget.run_s.append(time.perf_counter() - began)
    finally:
        host.disarm()
        if unit.tracer is not None:
            unit.tracer.uninstall()
    return unit


def run_units(workload, seed: int, seconds: float, trace: bool,
              scratch: Path) -> list[Unit]:
    """Repeat the unit for about ``seconds`` (at least ``MIN_UNITS``).

    Traced runs alternate untraced and traced units, so the two kinds
    see the same machine state and their difference is the tracing
    overhead.  The first unit always runs every sub-seed; later ones
    stop at the deadline, after at least one run, so the second repeats
    the first sub-seed at least.
    """
    from hostspeed import HostSpeed
    from tracer import PhaseProbe

    probe = PhaseProbe()
    probe.install()
    host = HostSpeed(every_cpu=bool(workload.workers))
    units: list[Unit] = []
    budget = Budget(deadline=time.perf_counter() + seconds)
    while len(units) < MIN_UNITS or budget.fits():
        traced = trace and len(units) % 2 == 1
        units.append(measure_unit(workload, seed, traced, probe, scratch,
                                  host, budget, partial=bool(units)))
    return units


# -- result checks ---------------------------------------------------------


def load_pins() -> dict:
    return json.loads((HERE / "pins.json").read_text())


def check_results(workload, seed: int, units: list[Unit],
                  pins: dict) -> tuple[int, int, list[str]]:
    """(attempted, failed, notes).

    A run fails if it raised, or if its digest differs from the pinned
    digest for this seed, or — for seeds with no pin — from the same
    sub-seed's digest in the first unit that completed it.
    """
    pinned = pins.get(workload.pin_as or workload.name, {}).get(str(seed))
    reference = list(pinned) if pinned else [None] * workload.runs_per_unit
    attempted = failed = 0
    notes = []
    for index, unit in enumerate(units):
        for k, outcome in enumerate(unit.outcomes):
            attempted += 1
            if outcome is None:
                failed += 1
                continue
            if reference[k] is None:
                reference[k] = outcome.digest
            elif outcome.digest != reference[k]:
                failed += 1
                notes.append(
                    f"unit {index} run {k}: digest {outcome.digest} != "
                    f"{'pinned' if pinned else 'first'} {reference[k]}"
                )
    for unit in units:
        notes.extend(unit.errors)
    notes.insert(0, f"digests: {reference} "
                    f"({'pinned' if pinned else 'no pin for this seed'})")
    return attempted, failed, notes


# -- metrics ---------------------------------------------------------------


def _summary(values: list[float]) -> dict:
    from stats import quartiles

    q1, median, q3 = quartiles(values)
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def max_rss_mb() -> float:
    peak_kb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return peak_kb / 1024.0


def per_seed_median(units: list[Unit], value,
                    first: int | None = None) -> float:
    """Median over repeats of each sub-seed's ``value(outcome)``, then
    the mean over sub-seeds (over the ``first`` ones only, if given).
    A partial unit adds repeats to its first sub-seeds only."""
    columns: dict[int, list[float]] = {}
    for unit in units:
        for k, outcome in enumerate(unit.outcomes[:first]):
            columns.setdefault(k, []).append(value(outcome))
    return statistics.mean(statistics.median(c) for c in columns.values())


def tuning_s(o) -> float:
    """``wall_s`` without teardown.  ``DistributedBackend.close`` takes
    either ~0.1 s or, when a coordinator thread misses the shutdown,
    its 2 s join timeout, so teardown would make ``wall_s`` bimodal; it
    is reported per layer as ``dist.close_s``."""
    return o.wall_s - o.teardown_s


def end_to_end(units: list[Unit]) -> dict:
    """The end-to-end metrics over the untraced units.

    Times are in reference seconds, each run scaled by the kernel time
    credited to it (``perfbench/hostspeed.py``); ``wall_s`` is
    :func:`tuning_s`.  The headline value of each metric is
    :func:`per_seed_median`; the quartiles beside it are those of the
    per-unit means, so they show the run's repeat-to-repeat noise.
    """
    from hostspeed import reference_s as scale

    good = [u for u in units if u.ok and not u.traced]

    def wall(o):
        return scale(tuning_s(o), o.kernel_s)

    def metric(value) -> dict:
        summary = _summary([
            statistics.mean(value(o) for o in u.outcomes) for u in good
        ])
        summary["median"] = per_seed_median(good, value)
        return summary

    wall_s = metric(wall)
    evals = per_seed_median(good, lambda o: o.evals)
    rate = _summary([
        sum(o.evals for o in u.outcomes) / sum(wall(o) for o in u.outcomes)
        for u in good
    ])
    rate["median"] = evals / wall_s["median"]
    return {
        "wall_s": wall_s,
        "evals_per_s": rate,
        "setup_s": _summary([scale(o.setup_s, o.kernel_s)
                             for u in good for o in u.outcomes]),
        "cpu_s": metric(lambda o: scale(o.cpu_s, o.kernel_s)),
        "max_rss_mb": _summary([max_rss_mb()]),
        "host_wall_s": metric(lambda o: o.wall_s),
        "host_teardown_s": metric(lambda o: o.teardown_s),
        "host_setup_s": _summary([o.setup_s for u in good
                                  for o in u.outcomes]),
        "kernel_s": _summary([o.kernel_s for u in good
                              for o in u.outcomes]),
    }


def quality(units: list[Unit]) -> dict:
    """Result-quality figures (printed; the digests gate them exactly)."""
    values = [o.quality["best_loss"] for u in units if u.ok
              for o in u.outcomes if "best_loss" in o.quality]
    return {"best_loss": _summary(values)} if values else {}


def per_layer(workload, units: list[Unit]) -> tuple[dict, list[str]]:
    """Per-layer metric summaries over traced units, plus closure notes."""
    from tracer import LEAF_LAYERS

    traced = [u for u in units if u.ok and u.traced]
    plain = [u for u in units if u.ok and not u.traced]
    rows: dict[str, list[float]] = {}
    notes: list[str] = []

    def add(name, value):
        rows.setdefault(name, []).append(value)

    for unit in traced:
        tracer = unit.tracer
        runs = len(unit.outcomes)
        run_time = unit.run_time_s()
        attributed = tracer.attributed_s()
        shares = {layer: tracer.self_s.get(layer, 0.0) / run_time
                  for layer in LEAF_LAYERS}
        bad = {k: v for k, v in shares.items() if not 0.0 <= v <= 1.0}
        if bad or sum(shares.values()) > 1.0 + 1e-9:
            notes.append(f"CLOSURE VIOLATED: shares {shares}")
        for layer, name in LEAF_LAYERS.items():
            add(name, tracer.self_s.get(layer, 0.0) / runs)
        for count in ("codegen.calls", "sim.artifact.builds",
                      "sim.events.calls", "tuning.batches"):
            add(count, tracer.calls.get(count, 0) / runs)
        requested = sum(o.quality.get("requested", 0) for o in unit.outcomes)
        unique = sum(o.quality.get("unique", 0) for o in unit.outcomes)
        add("tuning.unique_ratio", unique / requested if requested else 0.0)
        map_s = tracer.self_s.get("dist", 0.0) / runs
        worker_exec_s = (
            sum(o.worker_exec_s for o in unit.outcomes) / runs
            if workload.workers else 0.0
        )
        add("dist.worker_exec_s", worker_exec_s)
        add("dist.worker_cpu_s",
            sum(o.child_cpu_s for o in unit.outcomes) / runs)
        add("dist.wait_s", map_s - worker_exec_s / workload.workers
            if workload.workers else 0.0)
        add("unattributed_s", (run_time - attributed) / runs)
        add("attributed_frac", attributed / run_time)
        if tracer.missing and unit is traced[0]:
            notes.append(f"targets not found (not traced): {tracer.missing}")
    if traced and plain:
        from hostspeed import reference_s

        def run_s(o):
            return reference_s(o.setup_s + tuning_s(o), o.kernel_s)

        # Over the sub-seeds both kinds of unit ran.
        first = max(len(u.outcomes) for u in traced)
        add("trace_overhead_frac", per_seed_median(traced, run_s, first)
            / per_seed_median(plain, run_s, first) - 1.0)
    return {name: _summary(values) for name, values in rows.items()}, notes


# -- provenance ------------------------------------------------------------


def _git(*args: str) -> str | None:
    if not (ROOT / ".git").exists() or shutil.which("git") is None:
        return None
    try:
        done = subprocess.run(
            ["git", *args], cwd=ROOT, capture_output=True, text=True,
            timeout=30, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip()


def provenance(workload, seed: int, seconds: float, trace: bool) -> dict:
    import numpy

    sha = _git("rev-parse", "HEAD")
    status = _git("status", "--porcelain", "--untracked-files=no")
    return {
        "workload": workload.name,
        "seed": seed,
        "sub_seeds": workload.sub_seeds(seed),
        "seconds": seconds,
        "trace": trace,
        "params": workload.params,
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_sha": sha or "unknown",
        "git_dirty": None if status is None else bool(status),
    }


# -- output ----------------------------------------------------------------


def _print_table(title: str, rows: dict, units: dict) -> None:
    print(title)
    print(f"  {'metric':<26} {'unit':<6} {'value':>12} {'q1':>12} "
          f"{'q3':>12} {'n':>3}")
    for name, s in rows.items():
        print(f"  {name:<26} {units.get(name, ''):<6} {s['median']:>12.6g} "
              f"{s['q1']:>12.6g} {s['q3']:>12.6g} {s['n']:>3}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    sys.path.insert(0, str(HERE))
    sys.path.insert(0, str(ROOT / "src"))
    import repro  # noqa: F401  (fails here, before any result, without src/)
    import selftest
    from workloads import WORKLOADS

    selftest.check_comparison()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workload = WORKLOADS.get(args.workload)
    if workload is None:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(WORKLOADS)}")

    SCRATCH_PARENT.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="run-", dir=SCRATCH_PARENT))
    try:
        units = run_units(workload, args.seed, args.seconds,
                          bool(args.trace), scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            SCRATCH_PARENT.rmdir()
        except OSError:
            pass  # another run is still using it

    attempted, failed, notes = check_results(
        workload, args.seed, units, load_pins()
    )
    print("provenance: " + json.dumps(
        provenance(workload, args.seed, args.seconds, bool(args.trace)),
        sort_keys=True,
    ))
    print(f"workload {workload.name}: {workload.why}")
    print(f"  should move: {workload.moves}")
    print(f"  should not move: {workload.holds}")
    print(f"  units: {len(units)}, runs per unit "
          f"{[len(u.outcomes) for u in units]}, "
          f"attempted {attempted}, failed {failed}, "
          f"failed_frac {failed / max(attempted, 1):.3f}")
    for note in notes:
        print("  " + note.rstrip().replace("\n", "\n  "))

    if not any(u.ok and u.traced == bool(args.trace) for u in units):
        print("no unit completed; no result", file=sys.stderr)
        return 1

    correct = failed == 0
    qual = quality(units)
    if args.trace:
        layers, closure = per_layer(workload, units)
        for note in closure:
            print("  " + note)
        correct = correct and not any(
            n.startswith("CLOSURE VIOLATED") for n in closure
        )
        wanted = {m["name"]: m["unit"] for m in spec["per_layer"]}
        rows = {name: layers[name] for name in wanted}
        _print_table("per-layer metrics (traced units; per run)", rows,
                     wanted)
        frac = layers["attributed_frac"]["median"]
        if not workload.workers:
            verdict = "PASS" if frac >= ATTRIBUTED_FLOOR else "FAIL"
            print(f"  attribution closure: attributed_frac {frac:.4f} "
                  f"(floor {ATTRIBUTED_FLOOR}) {verdict}")
    else:
        e2e = end_to_end(units)
        wanted = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        rows = {name: e2e[name] for name in wanted}
        _print_table("end-to-end metrics (untraced units; times in "
                     "reference seconds)", rows, wanted)
        _print_table("host seconds and calibration kernel (not gated)",
                     {k: e2e[k] for k in HOST_ROWS}, HOST_ROWS)
    if qual:
        _print_table("result quality (checked exactly by the digests)",
                     qual, {})

    result = {
        "correct": bool(correct),
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": rows[name]["median"], "unit": unit}
            for name, unit in wanted.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
