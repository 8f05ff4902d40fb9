"""End-to-end parallel-evaluation tests: backends must not change results.

The acceptance bar for the batched evaluation engine: a process pool with
``jobs > 1`` produces **bit-identical** best-config/metrics to serial
execution for seeded runs, for every tuner the framework exposes.
"""

import dataclasses

import pytest

from repro.core.config import MicroGradConfig
from repro.core.framework import MicroGrad

MIX_KNOBS = ("ADD", "MUL", "FADDD", "FMULD", "BEQ", "BNE",
             "LD", "LW", "SD", "SW")


def _stress(jobs, backend, **overrides):
    base = dict(
        use_case="stress",
        metrics=("ipc",),
        core="small",
        max_epochs=2,
        loop_size=150,
        instructions=2_000,
        knobs=MIX_KNOBS,
        seed=7,
        jobs=jobs,
        backend=backend,
    )
    base.update(overrides)
    return MicroGradConfig(**base)


def _run(config):
    mg = MicroGrad(config)
    try:
        return mg.run()
    finally:
        mg.close()


class TestSerialProcessBitIdentity:
    @pytest.mark.parametrize("tuner", ["ga", "gd", "random"])
    def test_process_pool_matches_serial(self, tuner):
        serial = _run(_stress(1, "serial", tuner=tuner))
        parallel = _run(_stress(3, "process", tuner=tuner))
        assert parallel.knobs == serial.knobs
        assert parallel.metrics == serial.metrics
        assert parallel.tuning.best_loss == serial.tuning.best_loss
        assert (parallel.tuning.requested_evaluations
                == serial.tuning.requested_evaluations)
        assert (parallel.tuning.unique_evaluations
                == serial.tuning.unique_evaluations)

    def test_loss_curves_match(self):
        serial = _run(_stress(1, "serial", tuner="ga"))
        parallel = _run(_stress(3, "process", tuner="ga"))
        assert parallel.tuning.loss_curve() == serial.tuning.loss_curve()


class TestBackendSelection:
    def test_auto_with_one_job_is_serial(self):
        mg = MicroGrad(_stress(1, "auto"))
        assert mg.backend.name == "serial"
        mg.close()

    def test_auto_with_many_jobs_is_process(self):
        mg = MicroGrad(_stress(4, "auto"))
        assert mg.backend.name.startswith("process")
        assert mg.backend.jobs == 4
        mg.close()

    def test_invalid_backend_rejected(self):
        with pytest.raises(ValueError, match="backend"):
            _stress(1, "quantum")

    def test_negative_jobs_rejected(self):
        with pytest.raises(ValueError, match="jobs"):
            _stress(-2, "auto")


class TestDiskCachePersistence:
    def test_second_run_is_served_from_cache(self, tmp_path):
        config = _stress(1, "serial", cache_dir=str(tmp_path))
        first = _run(config)
        mg = MicroGrad(config)
        try:
            from repro.core.usecases.stress import StressTestingUseCase

            usecase = StressTestingUseCase(config)
            evaluator = mg.build_evaluator()
            tuner = mg._build_tuner(
                evaluator, usecase.loss(), usecase.target_loss()
            )
            tuner.run()
            # Every evaluation the rerun requested was already on disk.
            assert evaluator.unique_evaluations == 0
        finally:
            mg.close()
        second = _run(config)
        assert second.knobs == first.knobs
        assert second.metrics == first.metrics


class TestSimpointCloningParallel:
    def _config(self, jobs, backend):
        return MicroGradConfig(
            use_case="cloning",
            application="bzip2",
            metrics=("ipc", "branch"),
            core="small",
            max_epochs=2,
            loop_size=120,
            instructions=2_000,
            jobs=jobs,
            backend=backend,
        )

    def test_parallel_simpoint_clones_match_serial(self):
        mg_parallel = MicroGrad(self._config(3, "process"))
        mg_serial = MicroGrad(self._config(1, "serial"))
        try:
            parallel = mg_parallel.clone_simpoints(max_k=3)
            serial = mg_serial.clone_simpoints(max_k=3)
        finally:
            mg_parallel.close()
            mg_serial.close()
        assert len(parallel) == len(serial) >= 2
        for a, b in zip(parallel, serial):
            assert a.knobs == b.knobs
            assert a.metrics == b.metrics

    def test_dist_simpoint_clones_match_serial(self):
        # Each pass runs serially on a worker, so its sub-config must
        # not carry the dist settings a serial backend rejects.
        config = dataclasses.replace(self._config(1, "dist"),
                                     dist_workers=2)
        mg_dist = MicroGrad(config)
        mg_serial = MicroGrad(self._config(1, "serial"))
        try:
            dist = mg_dist.clone_simpoints(max_k=3)
            serial = mg_serial.clone_simpoints(max_k=3)
        finally:
            mg_dist.close()
            mg_serial.close()
        assert [(r.knobs, r.metrics) for r in dist] == [
            (r.knobs, r.metrics) for r in serial
        ]


class TestSubConfigConstruction:
    def test_clone_simpoints_preserves_every_config_field(self):
        """Sub-configs come from dataclasses.replace, not dict surgery."""
        config = MicroGradConfig(
            use_case="cloning",
            application="bzip2",
            metrics=("ipc",),
            core="small",
            max_epochs=2,
            loop_size=123,
            instructions=2_000,
            fixed_knobs={"B_PATTERN": 0.2},
            accuracy_target=0.9,
        )
        sub = dataclasses.replace(
            config, targets={"ipc": 1.0}, application=None,
        )
        # Fields untouched by the per-simpoint overrides survive intact.
        assert sub.loop_size == 123
        assert sub.fixed_knobs == {"B_PATTERN": 0.2}
        assert sub.accuracy_target == 0.9
        assert sub.metrics == ("ipc",)
