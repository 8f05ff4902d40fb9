"""End-to-end tests of the MicroGrad facade (small budgets)."""

import pytest

from repro.core.config import MicroGradConfig
from repro.core.framework import DEFAULT_KNOB_VALUES, MicroGrad

MIX_KNOBS = ("ADD", "MUL", "FADDD", "FMULD", "BEQ", "BNE",
             "LD", "LW", "SD", "SW")


def _fast_cloning(**overrides):
    base = dict(
        use_case="cloning",
        targets={"ipc": 1.2, "branch": 0.1},
        metrics=("ipc", "branch"),
        core="small",
        max_epochs=6,
        loop_size=200,
        instructions=4_000,
    )
    base.update(overrides)
    return MicroGradConfig(**base)


def _fast_stress(**overrides):
    base = dict(
        use_case="stress",
        metrics=("ipc",),
        core="small",
        max_epochs=4,
        loop_size=200,
        instructions=4_000,
        knobs=MIX_KNOBS,
    )
    base.update(overrides)
    return MicroGradConfig(**base)


class TestKnobSpaceConstruction:
    def test_full_space_by_default(self):
        mg = MicroGrad(_fast_cloning())
        assert len(mg.knob_space) == 16

    def test_subset_pins_the_rest(self):
        mg = MicroGrad(_fast_stress())
        assert len(mg.knob_space) == 10
        assert mg.knob_space.fixed["REG_DIST"] == DEFAULT_KNOB_VALUES["REG_DIST"]

    def test_fixed_knobs_override_defaults(self):
        mg = MicroGrad(_fast_stress(fixed_knobs={"REG_DIST": 9}))
        assert mg.knob_space.fixed["REG_DIST"] == 9

    def test_unknown_knob_rejected(self):
        with pytest.raises(ValueError, match="unknown knob"):
            MicroGrad(_fast_stress(knobs=("ADD", "WARP_SPEED")))

    def test_missing_default_falls_back_to_lattice_midpoint(self, monkeypatch):
        """A pinned knob absent from DEFAULT_KNOB_VALUES must not KeyError."""
        from repro.core import framework as framework_module

        monkeypatch.delitem(framework_module.DEFAULT_KNOB_VALUES, "MEM_TEMP2")
        mg = MicroGrad(_fast_stress())
        # MEM_TEMP2's lattice is 1..10; its own default is the midpoint.
        assert mg.knob_space.fixed["MEM_TEMP2"] == 5.0


class TestRuns:
    def test_cloning_run_produces_complete_result(self):
        result = MicroGrad(_fast_cloning()).run()
        assert result.use_case == "cloning"
        assert result.targets == {"ipc": 1.2, "branch": 0.1}
        assert set(result.accuracy) == {"ipc", "branch"}
        assert 0 < result.mean_accuracy <= 1.0
        assert result.tuning.epochs <= 6
        assert len(result.program) == 200
        result.program.validate()

    def test_stress_run_minimizes_ipc(self):
        result = MicroGrad(_fast_stress()).run()
        assert result.metrics["ipc"] > 0
        assert result.targets == {}
        assert result.tuning.requested_evaluations > 0

    def test_power_metric_attaches_power_platform(self):
        config = _fast_stress(metrics=("dynamic_power",), maximize=True)
        mg = MicroGrad(config)
        assert "power" in mg.platform.name
        result = mg.run()
        assert result.metrics["dynamic_power"] > 0

    def test_runs_are_deterministic(self):
        a = MicroGrad(_fast_stress(seed=3)).run()
        b = MicroGrad(_fast_stress(seed=3)).run()
        assert a.knobs == b.knobs
        assert a.metrics == b.metrics

    def test_ga_tuner_selectable(self):
        result = MicroGrad(_fast_stress(tuner="ga", max_epochs=2)).run()
        # One GA epoch costs a population's worth of evaluations.
        assert result.tuning.requested_evaluations == 2 * 50

    def test_random_tuner_selectable(self):
        result = MicroGrad(_fast_stress(tuner="random", max_epochs=2)).run()
        assert result.tuning.epochs == 2


class TestSimpointCloning:
    def test_one_clone_per_simpoint(self):
        config = MicroGradConfig(
            use_case="cloning",
            application="bzip2",
            metrics=("ipc", "branch"),
            core="small",
            max_epochs=3,
            loop_size=150,
            instructions=3_000,
        )
        results = MicroGrad(config).clone_simpoints(max_k=3)
        assert len(results) >= 2  # bzip2 has two phases
        weights = [r.knobs["_simpoint_weight"] for r in results]
        assert sum(weights) == pytest.approx(1.0)
        phases = {r.knobs["_simpoint_phase"] for r in results}
        assert phases <= {"sort", "huffman"}

    def test_simpoint_cloning_requires_application(self):
        with pytest.raises(ValueError, match="application"):
            MicroGrad(_fast_cloning()).clone_simpoints()
