"""Every benchmark artifact records the host and commit that produced it."""

import json
import os
import shutil

import harness


def test_artifact_carries_provenance(tmp_path, monkeypatch):
    monkeypatch.setattr(harness, "RESULTS_DIR", tmp_path / "results")
    payload = json.loads(
        harness.save_artifact("probe", {"ratio": 1.5}).read_text()
    )
    assert payload["ratio"] == 1.5
    prov = payload["provenance"]
    assert set(prov) == {"nproc", "machine", "python", "numpy",
                         "git_sha", "git_dirty"}
    assert prov["nproc"] == os.cpu_count()
    assert prov["python"].count(".") == 2
    in_checkout = ((harness.REPO_ROOT / ".git").exists()
                   and shutil.which("git") is not None)
    if in_checkout:
        assert len(prov["git_sha"]) == 40
        assert isinstance(prov["git_dirty"], bool)
    else:
        assert prov["git_sha"] is None and prov["git_dirty"] is None


def test_git_fields_are_null_outside_a_checkout(tmp_path, monkeypatch):
    monkeypatch.setattr(harness, "REPO_ROOT", tmp_path)
    prov = harness.provenance()
    assert prov["git_sha"] is None
    assert prov["git_dirty"] is None
    assert prov["nproc"] == os.cpu_count()
