#!/usr/bin/env python3
"""Workload cloning walkthrough (the Fig 2/3 workflow).

Characterizes a SPEC-like reference application, clones it with the
gradient-descent tuner, and prints the paper's radar-plot numbers: the
per-metric measured/target ratios.  Optionally clones per simpoint.

Usage::

    python examples/clone_spec_workload.py [benchmark] [--simpoints]

Benchmarks: astar bzip2 gcc hmmer libquantum mcf sjeng xalancbmk
"""

import sys

from repro import MicroGrad, MicroGradConfig
from repro.workloads import benchmark_names, get_benchmark


def clone_whole_application(benchmark: str) -> None:
    config = MicroGradConfig(
        use_case="cloning",
        application=benchmark,
        core="large",
        max_epochs=40,
        seed=0,
    )
    mg = MicroGrad(config)
    result = mg.run()

    print(result.summary())
    print(f"\nradar-plot ratios for {benchmark} (1.0 = perfect clone):")
    for metric, ratio in result.accuracy.items():
        bar = "#" * int(min(ratio, 1.5) * 40)
        print(f"  {metric:<16} {ratio:5.3f}  {bar}")
    print(f"\nclone knobs: {result.knobs}")


def clone_per_simpoint(benchmark: str) -> None:
    config = MicroGradConfig(
        use_case="cloning",
        application=benchmark,
        core="large",
        max_epochs=15,
        seed=0,
    )
    results = MicroGrad(config).clone_simpoints(max_k=4)
    print(f"{benchmark}: {len(results)} simpoints")
    for n, result in enumerate(results):
        weight = result.knobs["_simpoint_weight"]
        phase = result.knobs["_simpoint_phase"]
        print(
            f"  simpoint {n} (phase {phase}, weight {weight:.2f}): "
            f"mean accuracy {result.mean_accuracy:.3f} in "
            f"{result.tuning.epochs} epochs"
        )


def main() -> None:
    args = [a for a in sys.argv[1:] if not a.startswith("--")]
    benchmark = args[0] if args else "bzip2"
    if benchmark not in benchmark_names():
        raise SystemExit(f"unknown benchmark {benchmark!r}; "
                         f"pick from {benchmark_names()}")
    print(get_benchmark(benchmark).description)
    if "--simpoints" in sys.argv:
        clone_per_simpoint(benchmark)
    else:
        clone_whole_application(benchmark)


if __name__ == "__main__":
    main()
