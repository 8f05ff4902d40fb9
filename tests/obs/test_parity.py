"""Cross-backend metric parity: the same batch, counted identically.

Every backend ships its workers' metric snapshots home (serial and
thread record directly; process and dist return snapshots with the
chunk results), so a run-level collection scope must see the same
merged counter totals no matter where the work ran.  Only
chunking-invariant counters are compared — per-chunk bookkeeping like
``engine_path.evaluate.batch`` legitimately varies with worker count.
"""

from repro import obs
from repro.codegen.wrapper import GenerationOptions
from repro.core.platform import PerformancePlatform
from repro.dist.backend import DistributedBackend
from repro.exec.backend import (
    ProcessPoolBackend,
    SerialBackend,
    ThreadBackend,
)
from repro.exec.jobs import evaluate_configs
from repro.sim.artifact import GLOBAL_ARTIFACT_CACHE
from repro.sim.config import core_by_name

# Pairwise-distinct ADD:LD ratios make every config its own generation
# group, so each backend splits the batch over as many chunks as it has
# workers (up to 8) and the parity check covers real multi-chunk
# layouts, not one chunk per backend.
CONFIGS = [
    {"ADD": n + 1, "LD": 8 - n, "BEQ": n % 2, "REG_DIST": 2}
    for n in range(8)
]

#: Counters that must not depend on how the batch was chunked.
INVARIANT = ("engine_path.", "codegen.", "evaluator.")
#: ...except per-chunk dispatch bookkeeping.
CHUNK_DEPENDENT = ("engine_path.evaluate.batch",)


def _invariant_counters(snapshot):
    return {
        name: value for name, value in snapshot.counters.items()
        if name.startswith(INVARIANT) and name not in CHUNK_DEPENDENT
    }


def _run(backend):
    """Evaluate CONFIGS on ``backend`` inside a fresh collection scope,
    from an empty artifact cache (pool workers fork on first use)."""
    GLOBAL_ARTIFACT_CACHE.clear()
    platform = PerformancePlatform(core_by_name("small"),
                                   instructions=2_000)
    with obs.collect() as scope:
        results = evaluate_configs(
            backend, platform, GenerationOptions(loop_size=80), CONFIGS,
        )
    return results, _invariant_counters(scope.snapshot())


class TestBackendCounterParity:
    def test_thread_matches_serial(self):
        serial_results, serial_counts = _run(SerialBackend())
        with ThreadBackend(jobs=4) as backend:
            thread_results, thread_counts = _run(backend)
        assert thread_results == serial_results
        assert thread_counts == serial_counts
        assert serial_counts  # the comparison must not be vacuous

    def test_process_matches_serial(self):
        serial_results, serial_counts = _run(SerialBackend())
        with ProcessPoolBackend(jobs=2) as backend:
            process_results, process_counts = _run(backend)
        assert process_results == serial_results
        assert process_counts == serial_counts

    def test_dist_matches_serial(self):
        serial_results, serial_counts = _run(SerialBackend())
        with DistributedBackend(spawn_workers=2) as backend:
            dist_results, dist_counts = _run(backend)
        assert dist_results == serial_results
        assert dist_counts == serial_counts


class TestSnapshotTransportAccounting:
    def test_process_chunk_snapshots_cover_all_work(self):
        """Worker-side counters actually cross the process boundary."""
        with ProcessPoolBackend(jobs=2) as backend:
            _, counts = _run(backend)
        # Codegen happens only inside worker processes on this path; a
        # lost snapshot would show zero programs generated.
        assert counts.get("codegen.programs", 0) >= len(CONFIGS)
