"""Generation-batched tuning benchmark: GA-shaped epochs, grouped path.

Not a paper figure: this benchmark records the engineering win of PR 7's
generation-batched evaluation path.  A genetic-algorithm tuning run
presents 16-individual generations whose populations are highly
redundant — unmutated crossover children are exact clones and mutated
ones frequently differ only by a proportional scaling of the instruction
weights, which :func:`repro.codegen.wrapper.generation_fingerprint`
proves generate the identical program.  Four such generations on a
streaming workload (2 MB footprint, aperiodic within the simulated
window) are evaluated two ways:

* **per-config** — no generation batching: an inline loop doing one
  generation + one ``platform.evaluate`` (one ``Simulator.run``, a
  batch of one core) per individual, clone or not;
* **batched** — ``evaluate_configs``: one generation + one
  ``Simulator.run_group`` shared pass per equivalence group, results
  fanned back out per individual.

Both arms reach stage 2 through the same config-batched kernels; the
win measured here is generation grouping.  Each lineage's artifact
build and stage-2 pass cost both arms the same, so the gated wall-clock
ratio times the arms on **warm lineages**: before the clock starts, a
fresh platform evaluates one config of every equivalence group.  What
stays inside the timed region is exactly what grouping changes — one
generation, fingerprint and memo-hit replay per individual against the
grouping keys plus one generation and shared replay per group — so a
faster artifact build or event engine does not read as a smaller
grouping win.
One cold pass of each arm pays the full pipeline: the batched arm must
be bit-identical metric-for-metric, must serve every group through the
grouped job and the config-batched shared pass (``evaluate.group`` +
``icache.batch``/``memory.batch``/``branch.batch``), and its end-to-end
ratio is recorded beside the gated one.  Times land in
``results/BENCH_tuning.json`` (uploaded as a CI artifact alongside
``BENCH_batch.json``).
"""

import time

from repro import obs
from repro.codegen.wrapper import (
    GenerationOptions,
    KNOB_INSTRUCTIONS,
    generate_test_case,
    generation_fingerprint,
)
from repro.core.platform import PerformancePlatform
from repro.exec.backend import SerialBackend
from repro.exec.jobs import evaluate_configs
from repro.sim.artifact import GLOBAL_ARTIFACT_CACHE
from repro.sim.config import core_by_name

from harness import print_header, save_artifact

#: Batched generations vs the per-config path, on warm lineages.
TUNING_SPEEDUP_TARGET = 2.0
#: Individuals per GA generation (paper Table I population is 50; 16
#: keeps the benchmark fast while preserving the redundancy structure).
POPULATION = 16
#: GA generations presented to the evaluation layer.
GENERATIONS = 4
#: Instruction budget per evaluation (the cold pass pays one artifact
#: build and stage-2 pass per lineage at this budget).
INSTRUCTIONS = 100_000
#: Loop size: the larger body keeps per-individual generation cost
#: realistic relative to simulation.
LOOP_SIZE = 680
#: Timing repetitions per arm; the best run is recorded so scheduler
#: noise on loaded CI hosts cannot fake a regression.
REPEATS = 2

#: Streaming parent workload: the 2 MB footprint walks far past the
#: Small core's caches and the MEM_TEMP2 reuse cadence keeps the
#: expanded trace aperiodic within the simulated window.
BASE_KNOBS = dict(ADD=4, MUL=1, FADDD=1, FMULD=1, BEQ=2, BNE=1,
                  LD=3, LW=1, SD=1, SW=1,
                  REG_DIST=4, MEM_SIZE=2048, MEM_STRIDE=64,
                  MEM_TEMP1=2, MEM_TEMP2=7, B_PATTERN=0.3)

#: Paths the batched arm must exercise: the grouped job itself plus the
#: config-batched shared pass for all three event families.
REQUIRED_PATHS = ("engine_path.evaluate.batch", "engine_path.evaluate.group",
                  "engine_path.icache.batch", "engine_path.memory.batch",
                  "engine_path.branch.batch")


def scale_profile(knobs: dict, factor: int) -> dict:
    """Proportionally scale the instruction weights (same program)."""
    return {
        k: v * factor if k in KNOB_INSTRUCTIONS else v
        for k, v in knobs.items()
    }


def ga_generations() -> list[dict]:
    """GA-shaped evaluation stream: GENERATIONS x POPULATION configs.

    Each generation holds two surviving lineages; each lineage
    contributes its parent, proportionally scaled mutants and exact
    clone children — the redundancy profile of a converging GA
    population (crossover of identical parents plus a 3 % per-gene
    mutation rate leaves roughly half of each generation unmutated).
    """
    configs = []
    for generation in range(GENERATIONS):
        for lineage in range(POPULATION // 8):
            parent = dict(BASE_KNOBS,
                          MEM_TEMP2=3 + 2 * generation,
                          REG_DIST=2 + lineage)
            for factor in (1, 2, 3, 4):   # mutated: scaled twins
                configs.append(scale_profile(parent, factor))
            for factor in (1, 2, 1, 2):   # unmutated clone children
                configs.append(scale_profile(parent, factor))
    return configs


def group_representatives(configs, options) -> list[dict]:
    """The first config of each generation-fingerprint group."""
    firsts: dict[tuple, dict] = {}
    for config in configs:
        firsts.setdefault(generation_fingerprint(config, options), config)
    return list(firsts.values())


def timed_arm(configs, options, batched, warm):
    """Best-of-N wall time for one evaluation arm.

    Every repetition uses a fresh platform and an empty artifact cache,
    so nothing leaks between arms.  A cold arm pays the full
    generation + artifact + event pipeline; a warm arm first evaluates
    one config per equivalence group outside the clock, so every
    lineage's artifact and stage-2 memos exist before it starts.
    """
    best_s = float("inf")
    metrics = None
    for _ in range(REPEATS):
        GLOBAL_ARTIFACT_CACHE.clear()
        platform = PerformancePlatform(
            core_by_name("small"), instructions=INSTRUCTIONS
        )
        if warm:
            for config in group_representatives(configs, options):
                platform.evaluate(generate_test_case(config, options))
        start = time.perf_counter()
        if batched:
            metrics = evaluate_configs(
                SerialBackend(), platform, options, configs
            )
        else:
            metrics = [
                platform.evaluate(generate_test_case(config, options))
                for config in configs
            ]
        best_s = min(best_s, time.perf_counter() - start)
    return best_s, metrics


class TestTuningBatch:
    def test_batched_generations_beat_per_config(self):
        print_header(
            "Generation-batched tuning: GA generations through the "
            "grouped evaluation path",
            f"engineering target: >={TUNING_SPEEDUP_TARGET}x vs "
            f"per-config, bit-identical metrics",
        )
        options = GenerationOptions(loop_size=LOOP_SIZE)
        configs = ga_generations()
        distinct = len({
            tuple(sorted(c.items())) for c in configs
        })

        # Warm the interpreter/allocator so neither arm pays first-run
        # costs; timed_arm empties the artifact cache, so nothing leaks
        # between arms.
        PerformancePlatform(
            core_by_name("small"), instructions=20_000
        ).evaluate(generate_test_case(BASE_KNOBS, options))

        cold_per_config_s, per_config = timed_arm(
            configs, options, False, warm=False
        )
        obs.reset("engine_path.")
        cold_batched_s, batched = timed_arm(
            configs, options, True, warm=False
        )
        paths = obs.counters("engine_path.")
        per_config_s, warm_per_config = timed_arm(
            configs, options, False, warm=True
        )
        batched_s, warm_batched = timed_arm(
            configs, options, True, warm=True
        )

        speedup = per_config_s / max(batched_s, 1e-9)
        cold_speedup = cold_per_config_s / max(cold_batched_s, 1e-9)
        groups = paths.get("engine_path.evaluate.group", 0)
        groups_per_run = groups // REPEATS

        print(f"configs      : {len(configs)} "
              f"({GENERATIONS} generations x {POPULATION} individuals, "
              f"{distinct} distinct, {groups_per_run} groups)")
        print(f"instructions : {INSTRUCTIONS}  loop {LOOP_SIZE}")
        print(f"per-config   : {per_config_s:6.3f} s warm  "
              f"{cold_per_config_s:6.3f} s cold  (one run per config)")
        print(f"batched      : {batched_s:6.3f} s warm  "
              f"{cold_batched_s:6.3f} s cold  (grouped shared pass)")
        print(f"speedup      : {speedup:5.2f}x warm  "
              f"{cold_speedup:5.2f}x cold")
        print(f"engine paths : {sorted(paths)}")
        save_artifact("BENCH_tuning", {
            "configs": len(configs),
            "distinct_configs": distinct,
            "generations": GENERATIONS,
            "population": POPULATION,
            "groups_per_run": groups_per_run,
            "instructions": INSTRUCTIONS,
            "loop_size": LOOP_SIZE,
            "per_config_s": per_config_s,
            "batched_s": batched_s,
            "speedup": speedup,
            "cold_per_config_s": cold_per_config_s,
            "cold_batched_s": cold_batched_s,
            "cold_speedup": cold_speedup,
            "engine_paths": paths,
            "bit_identical": batched == per_config,
        })

        assert batched == per_config  # metric-for-metric identical
        assert warm_batched == warm_per_config == per_config
        for required in REQUIRED_PATHS:
            assert paths.get(required), (
                f"batched arm never exercised {required}: {paths}"
            )
        # Every config was served by the grouped path: one group per
        # lineage per generation (all four scaled twins of a parent
        # share a fingerprint).
        assert groups_per_run == GENERATIONS * POPULATION // 8
        assert speedup >= TUNING_SPEEDUP_TARGET, (
            f"expected >={TUNING_SPEEDUP_TARGET}x from generation "
            f"batching, got {speedup:.2f}x"
        )
