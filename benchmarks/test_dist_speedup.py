"""Distributed-backend harness: 2-worker localhost sweep vs serial.

Not a paper figure: this benchmark records the engineering win of the
``repro.dist`` evaluation service.  An 8-configuration core sweep — the
embarrassingly parallel unit of every cloning/stress campaign — runs
once on the serial backend and once against a 2-worker localhost
cluster (coordinator in-process, workers spawned, jobs over the TCP
protocol); both must produce identical metrics.  A third pass kills one
worker mid-run and must still match.  The shared on-disk artifact store
is exercised end to end: the distributed run persists every trace
artifact, and a follow-up cold-cache run must reuse at least 7 of 8
from disk.  Timings and the artifact-store hit rate land in
``results/BENCH_dist.json`` (uploaded as a CI artifact).
"""

import os
import time

import pytest

from repro.codegen.wrapper import GenerationOptions, generate_test_case
from repro.core.platform import PerformancePlatform
from repro.dist.backend import DistributedBackend
from repro.exec.backend import SerialBackend
from repro.exec.jobs import evaluate_configs
from repro.sim.artifact import (
    GLOBAL_ARTIFACT_CACHE,
    attach_artifact_store,
    detach_artifact_store,
)
from repro.sim.config import core_by_name
from repro.sim.simulator import Simulator

from harness import BUDGETS, print_header, save_artifact

WORKERS = 2
SPEEDUP_TARGET = 1.2
#: Instruction budget: independent of quick/full mode so the recorded
#: speedup is comparable across runs (timing noise shrinks with size).
INSTRUCTIONS = max(BUDGETS.stress_instructions, 20_000)

#: Eight distinct knob configurations — eight distinct generated
#: programs, so the sweep stores eight distinct trace artifacts.
SWEEP_CONFIGS = [
    {"ADD": n % 5 + 1, "MUL": n % 2, "LD": n % 3 + 1, "SD": n % 2,
     "BEQ": 1, "REG_DIST": 2 + n, "MEM_SIZE": 64 << (n % 3)}
    for n in range(8)
]


def _chaos_eval(item):
    """Benchmark chaos job: die once on the poisoned config, then work."""
    sentinel, config, poisoned = item
    if poisoned and not os.path.exists(sentinel):
        open(sentinel, "w").close()
        os._exit(1)
    program = generate_test_case(config,
                                 GenerationOptions(loop_size=BUDGETS.stress_loop))
    return Simulator(core_by_name("large")).run(
        program, instructions=INSTRUCTIONS
    ).metrics()


#: Small budget for the hung-worker pass: its jobs must finish far
#: inside the short lease timeout the pass configures, so only the
#: deliberately hung job ever expires.
HUNG_INSTRUCTIONS = 2_000
HUNG_LEASE_TIMEOUT_S = 3.0


def _hung_eval(item):
    """Hang forever on the poisoned config — but only the first time.

    The worker process stays alive and keeps heartbeating (its
    heartbeat thread is unaffected by the sleeping job), so neither EOF
    detection nor heartbeat eviction fires: only the lease deadline can
    recover the job.
    """
    sentinel, config, poisoned = item
    if poisoned and not os.path.exists(sentinel):
        open(sentinel, "w").close()
        time.sleep(600)  # far past the lease timeout; killed at close()
    program = generate_test_case(config, GenerationOptions(loop_size=80))
    return Simulator(core_by_name("small")).run(
        program, instructions=HUNG_INSTRUCTIONS
    ).metrics()


class TestDistributedSpeedup:
    def test_dist_sweep_matches_serial_and_reuses_artifacts(self, tmp_path):
        print_header(
            "Distributed evaluation service: 8-config sweep, serial vs "
            f"{WORKERS}-worker localhost cluster",
            "engineering target: bit-identical results, artifact reuse >= 7/8",
        )
        platform = PerformancePlatform(core_by_name("large"),
                                       instructions=INSTRUCTIONS)
        options = GenerationOptions(loop_size=BUDGETS.stress_loop)
        cache_dir = str(tmp_path / "cluster-cache")

        start = time.perf_counter()
        serial_metrics = evaluate_configs(
            SerialBackend(), platform, options, SWEEP_CONFIGS
        )
        serial_s = time.perf_counter() - start

        # Workers use the caller's artifact store: attach a fresh one
        # around the dist run, so it starts store-cold and the workers
        # persist every artifact they build.
        GLOBAL_ARTIFACT_CACHE.clear()
        attach_artifact_store(os.path.join(cache_dir, "artifacts"))
        try:
            with DistributedBackend(spawn_workers=WORKERS) as backend:
                backend.map(len, [[], []])  # warm the workers up front
                start = time.perf_counter()
                dist_metrics = evaluate_configs(
                    backend, platform, options, SWEEP_CONFIGS
                )
                dist_s = time.perf_counter() - start
        finally:
            detach_artifact_store()

        speedup = serial_s / max(dist_s, 1e-9)
        cores = os.cpu_count() or 1

        # Second run, cold in-process caches: artifacts must come from
        # the store the distributed workers populated.
        GLOBAL_ARTIFACT_CACHE.clear()
        try:
            store = attach_artifact_store(
                os.path.join(cache_dir, "artifacts")
            )
            hits_before, misses_before = store.hits, store.misses
            cold_platform = PerformancePlatform(core_by_name("large"),
                                                instructions=INSTRUCTIONS)
            rerun_metrics = evaluate_configs(
                SerialBackend(), cold_platform, options, SWEEP_CONFIGS,
            )
            hits = store.hits - hits_before
            misses = store.misses - misses_before
        finally:
            detach_artifact_store()
        reuse_rate = hits / max(hits + misses, 1)

        # Chaos pass: one worker dies mid-run; results must not change.
        sentinel = str(tmp_path / "bench-died-once")
        items = [(sentinel, config, index == 3)
                 for index, config in enumerate(SWEEP_CONFIGS)]
        with DistributedBackend(spawn_workers=WORKERS) as backend:
            chaos_metrics = backend.map(_chaos_eval, items)
            reschedules = backend.coordinator.reschedules
        serial_chaos = [
            _chaos_eval((sentinel, config, False)) for config in SWEEP_CONFIGS
        ]

        # Hung-worker pass: one worker goes to sleep mid-job without
        # dropping its connection or its heartbeats; the lease deadline
        # must reschedule the job and the results must not change.
        hung_sentinel = str(tmp_path / "bench-hung-once")
        hung_items = [(hung_sentinel, config, index == 2)
                      for index, config in enumerate(SWEEP_CONFIGS)]
        start = time.perf_counter()
        with DistributedBackend(spawn_workers=WORKERS,
                                lease_timeout=HUNG_LEASE_TIMEOUT_S) as backend:
            hung_metrics = backend.map(_hung_eval, hung_items)
            lease_expiries = backend.coordinator.lease_expiries
        hung_s = time.perf_counter() - start
        serial_hung = [
            _hung_eval((hung_sentinel, config, False))
            for config in SWEEP_CONFIGS
        ]

        print(f"sweep        : {len(SWEEP_CONFIGS)} configurations "
              f"x {INSTRUCTIONS} instructions")
        print(f"serial       : {serial_s:6.2f} s")
        print(f"dist[{WORKERS}]      : {dist_s:6.2f} s  (host cores: {cores})")
        print(f"speedup      : {speedup:5.2f}x")
        print(f"artifact hits: {hits}/{hits + misses} "
              f"(reuse rate {reuse_rate:.2f})")
        print(f"worker kill  : {reschedules} reschedule(s), results identical")
        print(f"worker hang  : {lease_expiries} lease expiry(ies) in "
              f"{hung_s:.2f} s, results identical")
        save_artifact("BENCH_dist", {
            "configs": len(SWEEP_CONFIGS),
            "instructions": INSTRUCTIONS,
            "workers": WORKERS,
            "host_cores": cores,
            "serial_s": serial_s,
            "dist_s": dist_s,
            "speedup": speedup,
            "artifact_store_hits": hits,
            "artifact_store_misses": misses,
            "artifact_reuse_rate": reuse_rate,
            "chaos_reschedules": reschedules,
            "chaos_identical": chaos_metrics == serial_chaos,
            "hung_lease_timeout_s": HUNG_LEASE_TIMEOUT_S,
            "hung_lease_expiries": lease_expiries,
            "hung_recovery_s": hung_s,
            "hung_identical": hung_metrics == serial_hung,
        })

        assert dist_metrics == serial_metrics    # bit-identical results
        assert rerun_metrics == serial_metrics   # store cannot change them
        assert chaos_metrics == serial_chaos     # worker death is invisible
        assert reschedules >= 1
        assert hung_metrics == serial_hung       # a hung worker is invisible
        assert lease_expiries >= 1
        assert hits >= 7, f"expected >= 7/8 artifact reuses, got {hits}"
        if cores >= 2 + 1:  # two workers plus the coordinating process
            assert speedup > SPEEDUP_TARGET, (
                f"expected >{SPEEDUP_TARGET}x on {cores} cores, "
                f"got {speedup:.2f}x"
            )
        else:
            pytest.skip(
                f"host has {cores} cores; speedup assertion needs >= 3 "
                f"(measured {speedup:.2f}x, recorded)"
            )
