"""The MicroGrad facade: configuration in, result out.

Assembles knob space, code generation, evaluation platform, use-case loss
and tuning mechanism, runs the tuning loop, and packages the outputs —
the whole of Fig 1 behind one class.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import os
import pickle
import time
from pathlib import Path

from repro import obs
from repro.codegen.wrapper import GenerationOptions, generate_test_case
from repro.core.config import MicroGradConfig
from repro.core.outputs import MicroGradResult
from repro.core.platform import EvaluationPlatform, platform_for
from repro.core.usecases.cloning import CloningUseCase
from repro.core.usecases.stress import StressTestingUseCase
from repro.exec import (
    DiskResultCache,
    backend_for,
    evaluate_configs,
    run_clone_jobs,
)
from repro.sim.artifact import (
    active_artifact_store,
    attach_artifact_store,
    detach_artifact_store,
    trace_schema_fingerprint,
)
from repro.sim.config import core_by_name
from repro.sim.simulator import Simulator
from repro.tuning.base import TuningResult
from repro.tuning.evaluator import Evaluator
from repro.tuning.genetic import GAParams, GeneticTuner
from repro.tuning.gradient import GDParams, GradientDescentTuner
from repro.tuning.knobs import KnobSpace, default_cloning_space
from repro.tuning.loss import accuracy_report, mean_accuracy
from repro.tuning.random_search import RandomSearch
from repro.workloads.simpoint import select_simpoints, workload_bbv_trace
from repro.workloads.spec import get_benchmark

#: Default values for knobs excluded from tuning (overridable through
#: ``MicroGradConfig.fixed_knobs``).
DEFAULT_KNOB_VALUES = {
    "ADD": 4, "MUL": 1, "FADDD": 1, "FMULD": 1, "BEQ": 2, "BNE": 1,
    "LD": 3, "LW": 1, "SD": 1, "SW": 1,
    "REG_DIST": 4, "MEM_SIZE": 64, "MEM_STRIDE": 64,
    "MEM_TEMP1": 4, "MEM_TEMP2": 2, "B_PATTERN": 0.3,
}


class MicroGrad:
    """One configured instance of the framework.

    Example::

        mg = MicroGrad(MicroGradConfig(use_case="cloning",
                                       application="mcf", core="large"))
        result = mg.run()
        print(result.summary())
    """

    def __init__(self, config: MicroGradConfig,
                 platform: EvaluationPlatform | None = None):
        self.config = config
        self.platform = platform or platform_for(
            config.core,
            with_power=config.with_power or self._needs_power(),
            instructions=config.instructions,
        )
        self.backend = backend_for(
            config.backend,
            config.jobs,
            dist_addr=config.dist_addr,
            dist_workers=config.dist_workers,
            dist_lease_timeout=config.dist_lease_timeout,
            dist_priority=config.dist_priority,
            dist_secret=config.dist_secret,
        )
        self.disk_cache = (
            DiskResultCache(
                config.cache_dir,
                max_entries=config.cache_max_entries,
                schema=trace_schema_fingerprint(),
            )
            if config.cache_dir
            else None
        )
        self._artifact_store = None
        if config.cache_dir:
            # Shared trace-artifact store: this process and every worker
            # (pool or distributed) compute each artifact once between
            # them.  evaluate_configs hands the active store to every
            # worker it dispatches to.
            self._artifact_store = attach_artifact_store(
                os.path.join(config.cache_dir, "artifacts"),
                max_entries=config.cache_max_entries,
            )
        self.knob_space = self._build_space()

    def close(self) -> None:
        """Release execution-backend workers (idempotent).

        Also detaches the process-wide artifact store this instance
        attached (if it is still the active one), so a later run with
        caching disabled does not keep reading and writing it.
        """
        self.backend.close()
        if self._artifact_store is not None \
                and active_artifact_store() is self._artifact_store:
            detach_artifact_store()
        self._artifact_store = None

    def _needs_power(self) -> bool:
        return any("power" in m for m in self.config.metrics)

    def _build_space(self) -> KnobSpace:
        full = default_cloning_space()
        selected = self.config.knobs
        if selected is None:
            knobs = full.knobs
            fixed = dict(self.config.fixed_knobs)
        else:
            unknown = set(selected) - {k.name for k in full.knobs}
            if unknown:
                raise ValueError(f"unknown knob names: {sorted(unknown)}")
            knobs = [k for k in full.knobs if k.name in selected]
            # Pin deselected knobs to the documented defaults; a knob the
            # default table does not know (e.g. from an extended space)
            # falls back to its own lattice midpoint instead of KeyError.
            fixed = {
                k.name: DEFAULT_KNOB_VALUES.get(k.name, k.default_value())
                for k in full.knobs
                if k.name not in selected
            }
            fixed.update(self.config.fixed_knobs)
        return KnobSpace(knobs, fixed=fixed)

    # -- evaluation bridge ----------------------------------------------

    def _generation_options(self) -> GenerationOptions:
        return GenerationOptions(
            loop_size=self.config.loop_size, seed=self.config.seed
        )

    def _evaluate_config(self, knob_config: dict) -> dict[str, float]:
        program = generate_test_case(knob_config, self._generation_options())
        return self.platform.evaluate(program)

    def _evaluate_config_batch(
        self, knob_configs: list[dict]
    ) -> list[dict[str, float]]:
        """Generate + evaluate a batch through the execution backend."""
        return evaluate_configs(
            self.backend, self.platform, self._generation_options(),
            knob_configs,
        )

    def _cache_context(self) -> str:
        """Disk-cache identity: everything but the knob configuration.

        The platform is identified by a hash of its full pickled state,
        not just its name — constructor parameters that change metrics
        (instruction budgets, droop baselines, custom power models) must
        not alias into the same cache entries.
        """
        try:
            platform_id = hashlib.sha256(
                pickle.dumps(self.platform)
            ).hexdigest()[:16]
        except Exception:
            # Unpicklable custom platform (serial-only anyway): fall
            # back to its coarse identity.
            platform_id = (
                f"{getattr(self.platform, 'instructions', '')}"
            )
        return (
            f"{self.platform.name}|platform={platform_id}"
            f"|loop={self.config.loop_size}|seed={self.config.seed}"
        )

    def build_evaluator(self) -> Evaluator:
        """The batch-capable evaluation engine for this instance."""
        return Evaluator(
            self.knob_space,
            self._evaluate_config,
            batch_fn=self._evaluate_config_batch,
            disk_cache=self.disk_cache,
            cache_context=self._cache_context(),
        )

    def _build_tuner(self, evaluator: Evaluator, loss, target_loss: float,
                     initial=None):
        seed = self.config.seed
        if self.config.tuner == "gd":
            if initial is not None:
                # Informed start (cloning): smaller first steps so the
                # tuner refines the seeded configuration instead of
                # leaping away from it.
                params = GDParams(
                    max_epochs=self.config.max_epochs,
                    target_loss=target_loss,
                    step_initial=1.5,
                    patience=10,
                )
            else:
                # Cold random start (stress testing): aggressive early
                # steps with eager plateau restarts explore the mix
                # space the way the paper's <30-epoch convergence needs.
                params = GDParams(
                    max_epochs=self.config.max_epochs,
                    target_loss=target_loss,
                    step_initial=3.5,
                    patience=5,
                    restarts_on_plateau=5,
                )
            return GradientDescentTuner(
                evaluator, loss, params, initial=initial, seed=seed,
                restart_anchor=initial is not None,
            )
        if self.config.tuner == "ga":
            params = GAParams(
                max_epochs=self.config.max_epochs, target_loss=target_loss
            )
            return GeneticTuner(evaluator, loss, params, seed=seed)
        return RandomSearch(
            evaluator, loss, max_epochs=self.config.max_epochs, seed=seed,
        )

    # -- runs -------------------------------------------------------------

    def run(self) -> MicroGradResult:
        """Execute the configured use case end to end.

        The whole run executes inside a metrics collection scope: every
        counter and stage span recorded during it — including worker
        snapshots merged back from process pools and distributed
        workers — lands in ``result.run_report`` (and, with
        ``config.metrics_out``, in a JSON file).
        """
        start = time.perf_counter()
        with obs.collect() as scope, obs.span("run"):
            result = self._run_inner()
        wall_s = time.perf_counter() - start
        tuning = result.tuning
        extra = {
            "use_case": self.config.use_case,
            "core": self.config.core,
            "tuner": self.config.tuner,
            "backend": self.config.backend,
        }
        if tuning is not None:
            extra.update(
                epochs=tuning.epochs,
                best_loss=tuning.best_loss,
                requested_evaluations=tuning.requested_evaluations,
                unique_evaluations=tuning.unique_evaluations,
            )
        result.run_report = obs.build_run_report(
            scope.snapshot(), wall_s=wall_s, extra=extra
        )
        if self.config.metrics_out:
            path = Path(self.config.metrics_out)
            if path.parent != Path("."):
                path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(
                json.dumps(result.run_report, indent=2, sort_keys=True)
            )
        return result

    def _run_inner(self) -> MicroGradResult:
        initial = None
        if self.config.use_case == "cloning":
            usecase = CloningUseCase(self.config)
            targets = usecase.resolve_targets()
            loss = usecase.loss(targets)
            target_loss = usecase.target_loss()
            initial = usecase.initial_vector(targets, self.knob_space)
        else:
            usecase = StressTestingUseCase(self.config)
            targets = {}
            loss = usecase.loss()
            target_loss = usecase.target_loss()

        evaluator = self.build_evaluator()
        tuner = self._build_tuner(evaluator, loss, target_loss, initial=initial)
        tuning: TuningResult = tuner.run()

        program = generate_test_case(
            tuning.best_config,
            GenerationOptions(loop_size=self.config.loop_size,
                              seed=self.config.seed),
        )
        result = MicroGradResult(
            use_case=self.config.use_case,
            core=self.config.core,
            program=program,
            knobs=tuning.best_config,
            metrics=tuning.best_metrics,
            targets=targets,
            tuning=tuning,
        )
        if targets:
            result.accuracy = accuracy_report(tuning.best_metrics, targets)
            result.mean_accuracy = mean_accuracy(tuning.best_metrics, targets)
        return result

    def clone_simpoints(self, max_k: int = 4) -> list[MicroGradResult]:
        """Clone a reference application one simpoint at a time.

        Builds the application's BBV trace, selects simpoints, maps each
        back to the phase it samples, and runs one cloning pass per
        simpoint — "potentially one clone for each interesting phase"
        (Section III-A1).  Each result's ``targets`` are the sampled
        phase's metrics; the simpoint weight is stored in
        ``result.knobs["_simpoint_weight"]``.
        """
        if self.config.use_case != "cloning" or not self.config.application:
            raise ValueError("simpoint cloning needs a cloning config with "
                             "an application name")
        workload = get_benchmark(self.config.application)
        bbvs, labels = workload_bbv_trace(workload, seed=self.config.seed)
        simpoints = select_simpoints(bbvs, max_k=max_k, seed=self.config.seed)

        core = core_by_name(self.config.core)
        sim = Simulator(core)
        phase_programs = dict(zip([p.name for p in workload.phases],
                                  workload.programs()))
        phase_names = []
        sub_configs = []
        # Characterize each *distinct* phase once: simpoints frequently
        # sample the same phase, and the trace artifact of a phase
        # program is shared through the simulator's artifact cache.
        stats_by_phase: dict[str, dict[str, float]] = {}
        for sp in simpoints:
            phase_name = labels[sp.interval]
            targets = stats_by_phase.get(phase_name)
            if targets is None:
                targets = sim.run(
                    phase_programs[phase_name],
                    instructions=self.config.instructions,
                ).metrics()
                stats_by_phase[phase_name] = targets
            sub_config = dataclasses.replace(
                self.config,
                targets={m: targets[m] for m in self.config.metrics},
                application=None,
                # Simpoints fan out across this instance's backend, and
                # each cloning pass runs serially wherever it lands (the
                # parallelism budget is spent at the simpoint level), so
                # it sheds the dist settings a serial backend rejects.
                jobs=1, backend="serial", dist_addr=None, dist_workers=None,
                dist_lease_timeout=None, dist_priority=None,
                dist_secret=None,
            )
            phase_names.append(phase_name)
            sub_configs.append(sub_config)

        # One clone per interesting phase, all phases in flight at once:
        # each worker rebuilds MicroGrad from the (picklable) sub-config
        # — and this instance's platform, so an injected custom platform
        # is honored on every backend — and returns the full result.
        results = run_clone_jobs(self.backend, sub_configs,
                                 platform=self.platform)
        for sp, phase_name, result in zip(simpoints, phase_names, results):
            result.knobs["_simpoint_weight"] = sp.weight
            result.knobs["_simpoint_phase"] = phase_name
        return results
