"""Observability overhead gate: instrumentation must stay in the noise.

The metrics registry sits on the hot path of every pipeline stage —
``obs.inc`` inside the event engines, ``obs.span`` around each
``run_many`` — so this benchmark prices it.  The 16-core config-batched
sweep of ``test_config_batch`` (the fastest, most call-dense engine
configuration, where fixed per-call costs are hardest to hide) runs
twice: once with the registry disabled (``REPRO_OBS=off`` semantics)
and once enabled under a collection scope.  The enabled arm must stay
within ``OVERHEAD_LIMIT`` of the disabled one, and its collected
snapshot is rendered through :func:`repro.obs.build_run_report` into
``results/run_report.json`` (uploaded as a CI artifact) so every CI
run leaves a machine-readable stage/counter record behind.  The report
is priced against the wall time of exactly the sweeps its scope
covered, so no stage can claim more than the whole of it.

Times land in ``results/BENCH_obs.json``.
"""

import json
import time

from repro import obs
from repro.codegen.wrapper import GenerationOptions, generate_test_case
from repro.obs import REGISTRY
from repro.sim import Simulator

from harness import RESULTS_DIR, print_header, save_artifact
from test_config_batch import (
    INSTRUCTIONS,
    SWEEP_KNOBS,
    SWEEP_LOOP_SIZE,
    sweep_cores,
    timed_sweep,
)

#: Enabled-vs-disabled wall-time ratio the registry must stay under.
OVERHEAD_LIMIT = 0.03
#: Paired measurement rounds.  Each round times the disabled arm then
#: the enabled arm back to back (each a best-of inside ``timed_sweep``)
#: and the gate takes the *cleanest* round's ratio: scheduler noise on
#: a loaded CI host inflates individual samples by far more than the
#: few-microsecond instrumentation cost, but it cannot inflate every
#: paired round, so min-of-ratios converges on the true overhead.
ROUNDS = 5


class TestObservabilityOverhead:
    def test_overhead_under_limit_and_report_written(self):
        print_header(
            "Observability overhead: 16-core batched sweep, registry "
            "on vs off",
            f"engineering target: <{OVERHEAD_LIMIT:.0%} overhead with "
            f"every stage span and counter live",
        )
        program = generate_test_case(
            SWEEP_KNOBS, GenerationOptions(loop_size=SWEEP_LOOP_SIZE)
        )
        cores = sweep_cores()
        # Warm the interpreter/allocator so neither arm pays first-run
        # costs; fresh caches inside timed_sweep keep the pipeline cold.
        Simulator(cores[0]).run(program, instructions=INSTRUCTIONS)

        enabled_before = obs.is_enabled()
        off_s = on_s = float("inf")
        overhead = float("inf")
        stats_off = stats_on = None
        scope = scope_wall_s = None
        try:
            for _ in range(ROUNDS):
                REGISTRY.set_enabled(False)
                round_off, stats_off = timed_sweep(
                    cores, program, "vectorized"
                )
                off_s = min(off_s, round_off)

                REGISTRY.set_enabled(True)
                with obs.collect() as scope:
                    # The last round's scope is the one reported, so its
                    # wall time is every sweep inside it, not the best.
                    scope_start = time.perf_counter()
                    round_on, stats_on = timed_sweep(
                        cores, program, "vectorized"
                    )
                    scope_wall_s = time.perf_counter() - scope_start
                on_s = min(on_s, round_on)
                overhead = min(
                    overhead, round_on / max(round_off, 1e-9) - 1.0
                )
        finally:
            REGISTRY.set_enabled(enabled_before)
        snapshot = scope.snapshot()
        report = obs.build_run_report(
            snapshot, wall_s=scope_wall_s,
            extra={"benchmark": "obs_overhead", "cores": len(cores),
                   "instructions": INSTRUCTIONS},
        )
        RESULTS_DIR.mkdir(exist_ok=True)
        (RESULTS_DIR / "run_report.json").write_text(
            json.dumps(report, indent=2, sort_keys=True)
        )

        print(f"cores        : {len(cores)} configurations")
        print(f"instructions : {INSTRUCTIONS}")
        print(f"registry off : {off_s:6.3f} s  (best of {ROUNDS} rounds)")
        print(f"registry on  : {on_s:6.3f} s")
        print(f"overhead     : {overhead * 100:+5.2f}%  "
              f"(best paired round; limit {OVERHEAD_LIMIT:.0%})")
        print(f"stages seen  : {sorted(snapshot.timers)}")
        save_artifact("BENCH_obs", {
            "cores": len(cores),
            "instructions": INSTRUCTIONS,
            "sweep_loop_size": SWEEP_LOOP_SIZE,
            "disabled_s": off_s,
            "enabled_s": on_s,
            "overhead": overhead,
            "overhead_limit": OVERHEAD_LIMIT,
            "stages": sorted(snapshot.timers),
            "bit_identical": stats_on == stats_off,
        })

        # Instrumentation must never change results, only record them.
        assert stats_on == stats_off
        # The spans the report exists for must actually have fired.
        assert "sim.run_many" in snapshot.timers
        assert "events.memory" in snapshot.timers
        assert snapshot.counters.get("engine_path.memory.batch")
        # Every stage ran inside the reported wall time.
        for name, stage in report["stages"].items():
            assert stage["share_of_wall"] <= 1.0, (
                f"stage {name} claims {stage['share_of_wall']:.2f} of "
                f"the wall time its scope covered"
            )
        assert overhead < OVERHEAD_LIMIT, (
            f"observability overhead {overhead:.2%} exceeds "
            f"{OVERHEAD_LIMIT:.0%} (on {on_s:.3f}s vs off {off_s:.3f}s)"
        )
