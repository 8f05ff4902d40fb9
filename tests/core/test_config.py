"""Unit tests for the framework configuration."""

import json

import pytest

from repro.core.config import DEFAULT_CLONING_METRICS, MicroGradConfig


def _cloning(**overrides):
    base = dict(use_case="cloning", application="mcf")
    base.update(overrides)
    return MicroGradConfig(**base)


def _stress(**overrides):
    base = dict(use_case="stress", metrics=("ipc",))
    base.update(overrides)
    return MicroGradConfig(**base)


class TestValidation:
    def test_defaults_follow_paper(self):
        config = _cloning()
        assert config.metrics == DEFAULT_CLONING_METRICS
        assert config.accuracy_target == 0.99
        assert config.tuner == "gd"
        assert config.loop_size == 500

    def test_unknown_use_case_rejected(self):
        with pytest.raises(ValueError, match="use_case"):
            MicroGradConfig(use_case="fuzzing")

    def test_unknown_tuner_rejected(self):
        with pytest.raises(ValueError, match="tuner"):
            _cloning(tuner="annealing")

    def test_cloning_needs_targets_or_application(self):
        with pytest.raises(ValueError, match="targets"):
            MicroGradConfig(use_case="cloning")

    def test_explicit_targets_accepted(self):
        config = MicroGradConfig(
            use_case="cloning", targets={"ipc": 1.0}, metrics=("ipc",)
        )
        assert config.targets == {"ipc": 1.0}

    def test_stress_accepts_metric_combinations(self):
        config = _stress(metrics=("ipc", "dynamic_power"))
        assert config.metrics == ("ipc", "dynamic_power")

    def test_stress_needs_at_least_one_metric(self):
        with pytest.raises(ValueError, match="at least one"):
            _stress(metrics=())

    def test_accuracy_bounds(self):
        with pytest.raises(ValueError, match="accuracy_target"):
            _cloning(accuracy_target=0.0)
        with pytest.raises(ValueError, match="accuracy_target"):
            _cloning(accuracy_target=1.5)

    def test_epoch_bounds(self):
        with pytest.raises(ValueError, match="max_epochs"):
            _cloning(max_epochs=0)

    def test_dist_lease_timeout_bounds(self):
        assert _stress(dist_lease_timeout=120.0).dist_lease_timeout == 120.0
        with pytest.raises(ValueError, match="dist_lease_timeout"):
            _stress(dist_lease_timeout=0.0)
        with pytest.raises(ValueError, match="dist_lease_timeout"):
            _stress(dist_lease_timeout=-5.0)


class TestSerialization:
    def test_json_round_trip(self, tmp_path):
        config = _cloning(core="small", max_epochs=17,
                          knobs=("ADD", "LD"), fixed_knobs={"REG_DIST": 5})
        path = tmp_path / "config.json"
        config.to_json(path)
        loaded = MicroGradConfig.from_json(path)
        assert loaded == config

    def test_from_json_string(self):
        text = _stress(maximize=True).to_json()
        loaded = MicroGradConfig.from_json(text)
        assert loaded.maximize is True
        assert loaded.use_case == "stress"

    def test_from_json_compact_document(self):
        # A full config as one compact line (~570 chars) is a document,
        # not a candidate file name.
        config = _cloning(core="small", knobs=("ADD", "LD"),
                          fixed_knobs={"REG_DIST": 5})
        compact = json.dumps(json.loads(config.to_json()),
                             separators=(",", ":"))
        assert "\n" not in compact
        assert MicroGradConfig.from_json(compact) == config

    def test_from_json_missing_path_names_it(self, tmp_path):
        missing = tmp_path / "no-such-config.json"
        with pytest.raises(FileNotFoundError, match="no-such-config.json"):
            MicroGradConfig.from_json(str(missing))

    def test_json_is_stable(self):
        a = _cloning().to_json()
        b = _cloning().to_json()
        assert a == b
