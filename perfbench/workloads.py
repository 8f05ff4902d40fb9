"""The benchmark's workloads: what each one runs, and why.

Two units of work matter to a MicroGrad user: a **tuning run** (GD or GA
epochs over distinct generated programs, ending in a tuned test case)
and a **core sweep** (one program simulated under many core configs).
Each workload below runs one of them, closed-loop from one process: one
tuning run or sweep at a time, and the tuner waits for every batch.

Every workload is seeded from ``--seed`` alone.  A *unit* is
``runs_per_unit`` runs with sub-seeds derived from that seed; the
benchmark repeats the unit for the measured time.  Each sub-seed's
figure is the median over the repeats, which is robust to bursts of
load on a shared host, and the reported figure is the mean over the
sub-seeds, which keeps it steady across seeds: the cost of one tuning
run depends on which programs its trajectory visits (one 5-epoch
gd-stress run's time varies by ~13% from seed to seed, so a unit
averages 24 serial runs or 20 dist runs).  Both gd-stress workloads
draw sub-seeds with the same stride, so the dist unit's sub-seeds are
the first 20 of the serial unit's and their digests must match.

A GA cloning workload (mcf on the large core) was measured and left
out: one run's time varied by ~15% from seed to seed at 4-6 s a run, so
no unit that fits a run twice averaged enough seeds to keep the spread
across ten seeds well within the bound.

For each workload the definition records why it was chosen, the layers
an optimisation should move on it, and the layers it must *not* move, so
a later change can name a workload for a predicted no-change.  Layer
names are the per-layer metric prefixes of ``perfbench/tracer.py``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import shutil
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

#: Instruction-fraction knobs of the paper's Fig 5 performance-virus
#: scenario (one representative mnemonic per instruction class).
STRESS_KNOBS = ("ADD", "FMULD", "BEQ", "LD", "SD")
#: The scenario's pinned knobs: a 16 KB single-stream footprint and a
#: mostly-regular branch pattern, the unused mnemonics at 0.
STRESS_FIXED = {
    "REG_DIST": 10, "MEM_SIZE": 16, "MEM_STRIDE": 64,
    "MEM_TEMP1": 1, "MEM_TEMP2": 1, "B_PATTERN": 0.1,
    "MUL": 0, "FADDD": 0, "BNE": 0, "LW": 0, "SW": 0,
}
STRESS_EPOCHS = 5
STRESS_RUNS_PER_UNIT = 24
DIST_RUNS_PER_UNIT = 20

#: Streaming program of the core sweep: a 2 MB footprint walks past
#: every L1/L2 in the lattice, and the MEM_TEMP2=7 reuse cadence is
#: coprime with the loop body, so the trace is aperiodic and the exact
#: aperiodic stage-2 kernels carry the sweep.
SWEEP_KNOBS = dict(ADD=4, MUL=1, FADDD=1, FMULD=1, BEQ=2, BNE=1,
                   LD=3, LW=1, SD=1, SW=1,
                   REG_DIST=4, MEM_SIZE=2048, MEM_STRIDE=64,
                   MEM_TEMP1=2, MEM_TEMP2=7, B_PATTERN=0.3)
SWEEP_LOOP_SIZE = 680
SWEEP_INSTRUCTIONS = 800_000
SWEEP_PROGRAMS = 16

#: One worker: on a 2-vCPU host two workers plus the parent oversubscribe
#: the CPUs, and their teardown hit the coordinator's 2 s join timeout
#: in 63 of 68 runs, so a run took twice as long and measured the
#: scheduler.  One worker leaves a CPU to the parent's coordinator
#: threads and still puts every evaluation on the wire.
DIST_WORKERS = 1


@dataclass
class RunOutcome:
    """One tuning run or sweep, as measured from outside.

    ``wall_s`` excludes set-up and includes ``teardown_s``, the time in
    ``DistributedBackend.close`` (the benchmark reports ``wall_s`` without
    it: see ``run.tuning_s``); the CPU figures, filled in by the
    caller, cover the whole run including set-up.  ``kernel_s`` is the
    calibration kernel's time around the run (``perfbench/hostspeed.py``).
    """

    setup_s: float
    wall_s: float
    evals: int
    digest: str
    quality: dict = field(default_factory=dict)
    worker_exec_s: float = 0.0
    cpu_s: float = 0.0
    child_cpu_s: float = 0.0
    kernel_s: float = 0.0
    teardown_s: float = 0.0


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    ``run(seed, probe, scratch)`` performs one run for a sub-seed and
    returns its :class:`RunOutcome`; ``probe`` is the
    :class:`~tracer.PhaseProbe` marking the end of set-up, ``scratch`` a
    directory inside the checkout the run may write to.
    """

    name: str
    why: str
    moves: str
    holds: str
    runs_per_unit: int
    params: dict
    run: Callable
    pin_as: str | None = None
    workers: int = 0
    #: Distance between the first sub-seeds of consecutive seeds;
    #: ``runs_per_unit`` when 0.
    seed_stride: int = 0

    def sub_seeds(self, seed: int) -> list[int]:
        first = seed * (self.seed_stride or self.runs_per_unit)
        return [first + k for k in range(self.runs_per_unit)]


def _digest(payload) -> str:
    text = json.dumps(payload, sort_keys=True, default=_plain)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _plain(value):
    """JSON fallback for numpy scalars, enums and the like."""
    item = getattr(value, "item", None)
    if callable(item):
        return item()
    return repr(value)


# -- tuning runs ---------------------------------------------------------


def _stress_config(seed: int, **execution):
    from repro.core.config import MicroGradConfig

    return MicroGradConfig(
        use_case="stress",
        metrics=("ipc",),
        core="small",
        tuner="gd",
        knobs=STRESS_KNOBS,
        fixed_knobs=dict(STRESS_FIXED),
        max_epochs=STRESS_EPOCHS,
        seed=seed,
        **execution,
    )


def _tuning_run(config, probe) -> RunOutcome:
    """One ``MicroGrad.run()`` from construction to ``close()``."""
    from repro.core.framework import MicroGrad
    from repro.sim.artifact import GLOBAL_ARTIFACT_CACHE

    # Every run starts cold: no trace artifact survives from the last.
    GLOBAL_ARTIFACT_CACHE.clear()
    probe.reset()
    start = time.perf_counter()
    mg = MicroGrad(config)
    try:
        result = mg.run()
    finally:
        mg.close()
        probe.finish()
    end = time.perf_counter()
    if probe.mark is None:
        raise RuntimeError("the tuner never ran: no set-up boundary")
    tuning = result.tuning
    quality = {
        "best_loss": tuning.best_loss,
        "epochs": tuning.epochs,
        "requested": tuning.requested_evaluations,
        "unique": tuning.unique_evaluations,
    }
    stages = (result.run_report or {}).get("stages", {})
    return RunOutcome(
        setup_s=probe.mark - start,
        wall_s=end - probe.mark,
        evals=tuning.unique_evaluations,
        digest=_digest({
            "knobs": result.knobs,
            "metrics": result.metrics,
            "best_loss": tuning.best_loss,
            "epochs": tuning.epochs,
            "requested": tuning.requested_evaluations,
            "unique": tuning.unique_evaluations,
        }),
        quality=quality,
        worker_exec_s=stages.get("exec.chunk", {}).get("total_s", 0.0),
        teardown_s=probe.teardown_s,
    )


def _run_stress_serial(seed: int, probe, scratch: Path) -> RunOutcome:
    return _tuning_run(_stress_config(seed, backend="serial"), probe)


def _run_stress_dist(seed: int, probe, scratch: Path) -> RunOutcome:
    from repro.sim.artifact import DiskArtifactStore

    # A fresh cache dir per run: the on-disk result cache and artifact
    # store start empty, so every evaluation really crosses the wire.
    # The store's directories are made here, before the clock starts:
    # making a new directory took ~0.1 ms in some processes and ~0.5 ms
    # in others for the whole process, by where the filesystem put it,
    # which made ``setup_s`` bimodal from run to run.
    cache_dir = tempfile.mkdtemp(prefix="dist-", dir=scratch)
    try:
        DiskArtifactStore(Path(cache_dir) / "artifacts")
        config = _stress_config(
            seed, backend="dist", dist_workers=DIST_WORKERS,
            cache_dir=cache_dir,
        )
        outcome = _tuning_run(config, probe)
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)
    if not outcome.worker_exec_s:
        raise RuntimeError("dist run executed no chunk on a worker")
    return outcome


# -- core sweep ----------------------------------------------------------


def sweep_cores():
    """A 16-config lattice around the small core: eight L1D/L2
    hierarchies, each under gshare and a ``-tournament`` twin."""
    from repro.sim.config import CacheGeometry, core_by_name

    base = core_by_name("small")
    l1 = [CacheGeometry(8 * 1024, 2, latency=3),
          CacheGeometry(16 * 1024, 4, latency=3),
          CacheGeometry(32 * 1024, 8, latency=3)]
    l2 = [CacheGeometry(128 * 1024, 4, latency=12),
          CacheGeometry(256 * 1024, 8, latency=12),
          CacheGeometry(512 * 1024, 16, latency=12)]
    hierarchies = [(a, b) for a in l1 for b in l2][:8]
    cores = []
    for i, (l1d, l2_geom) in enumerate(hierarchies):
        for suffix in ("", "-tournament"):
            cores.append(dataclasses.replace(
                base, name=f"small-v{i}{suffix}", l1d=l1d, l2=l2_geom
            ))
    return cores


def _run_sweep(seed: int, probe, scratch: Path) -> RunOutcome:
    """One program, generated from ``seed``, swept over the lattice."""
    from repro.codegen.wrapper import GenerationOptions, generate_test_case
    from repro.sim.artifact import TraceArtifactCache
    from repro.sim.simulator import Simulator

    start = time.perf_counter()
    program = generate_test_case(
        SWEEP_KNOBS, GenerationOptions(loop_size=SWEEP_LOOP_SIZE, seed=seed)
    )
    cores = sweep_cores()
    mark = time.perf_counter()
    # A fresh artifact cache: the sweep pays the full stage-1 + stage-2
    # pipeline once, as a new program would.
    stats = Simulator.run_many(
        cores, program, instructions=SWEEP_INSTRUCTIONS,
        artifact_cache=TraceArtifactCache(maxsize=2),
    )
    end = time.perf_counter()
    if any(not s.ipc > 0 for s in stats):
        raise RuntimeError("core sweep produced a non-positive IPC")
    return RunOutcome(
        setup_s=mark - start,
        wall_s=end - mark,
        evals=len(stats),
        digest=_digest([dataclasses.asdict(s) for s in stats]),
    )


# -- the workload table ----------------------------------------------------

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="gd-stress-small",
            why="GD perf-virus tuning: every candidate is a new program, "
                "so codegen and stage 1 dominate a real tuning run",
            moves="codegen, sim.trace, sim.depgraph, sim.artifact (most "
                  "of wall_s), then sim.events.*, tuning, "
                  "tuning.evaluator, exec",
            holds="exec.cache and dist.* (serial, no cache dir: zero)",
            runs_per_unit=STRESS_RUNS_PER_UNIT,
            params={
                "use_case": "stress", "metric": "ipc", "core": "small",
                "tuner": "gd", "knobs": list(STRESS_KNOBS),
                "fixed_knobs": STRESS_FIXED, "epochs": STRESS_EPOCHS,
                "loop_size": 500, "instructions": 20_000,
                "backend": "serial",
            },
            run=_run_stress_serial,
        ),
        Workload(
            name="core-sweep",
            why="one streaming program per sweep over a 16-core lattice: "
                "batched stage-2 kernels dominate, no tuner or backend",
            moves="sim.events.* (most of wall_s), sim.trace, "
                  "sim.depgraph, sim.simulator",
            holds="codegen (set-up only, outside wall_s), tuning, exec, "
                  "exec.cache, dist.*: a codegen or dist change must not "
                  "move wall_s here",
            runs_per_unit=SWEEP_PROGRAMS,
            params={
                "programs_per_unit": SWEEP_PROGRAMS, "knobs": SWEEP_KNOBS,
                "loop_size": SWEEP_LOOP_SIZE,
                "instructions": SWEEP_INSTRUCTIONS,
                "cores": 16, "config_batch": True,
            },
            run=_run_sweep,
        ),
        Workload(
            name="gd-stress-dist",
            why="the gd-stress-small runs through the dist backend with "
                "local workers and a fresh cache dir: the only workload "
                "on the wire and the on-disk stores",
            moves="dist.* (wait, worker exec, worker CPU, close), "
                  "exec.cache, cpu_s",
            holds="the parent's sim.* self times (zero: stages run in the "
                  "workers) and the result digests, which must equal "
                  "gd-stress-small's",
            runs_per_unit=DIST_RUNS_PER_UNIT,
            seed_stride=STRESS_RUNS_PER_UNIT,
            params={
                "use_case": "stress", "metric": "ipc", "core": "small",
                "tuner": "gd", "knobs": list(STRESS_KNOBS),
                "fixed_knobs": STRESS_FIXED, "epochs": STRESS_EPOCHS,
                "loop_size": 500, "instructions": 20_000,
                "backend": "dist", "dist_workers": DIST_WORKERS,
                "cache_dir": "fresh per run",
            },
            run=_run_stress_dist,
            pin_as="gd-stress-small",
            workers=DIST_WORKERS,
        ),
    )
}
