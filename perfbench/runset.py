"""Run a set of benchmark runs over several seeds, summarize, compare.

Examples (from the repository root)::

    # ten seeds of one workload, results kept as JSON lines
    python3 perfbench/runset.py --workload core-sweep --seeds 1-10 \\
        --out /tmp/core-sweep.jsonl

    # judge a candidate set against a baseline set under the bounds of
    # BENCHMARK.json (exit status 1 on a regression)
    python3 perfbench/runset.py --compare base.jsonl cand.jsonl

Each run is ``perfbench/run.py`` in its own process with
``run_seconds`` from ``BENCHMARK.json``.  The summary gives each
end-to-end metric's median and its spread (quartile distance over the
median) next to the metric's bound.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_one(spec: dict, workload: str, seed: int, trace: int) -> dict:
    """One benchmark run in a fresh process; its final JSON line."""
    command = [sys.executable if c == "python3" else c
               for c in spec["command"]]
    done = subprocess.run(
        command + ["--workload", workload, "--seed", str(seed),
                   "--seconds", str(spec["run_seconds"]),
                   "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    if done.returncode != 0:
        raise RuntimeError(
            f"{workload} seed {seed} exited {done.returncode}:\n"
            f"{done.stdout[-2000:]}{done.stderr[-2000:]}"
        )
    return json.loads(done.stdout.strip().splitlines()[-1])


def load(path: str) -> list[dict]:
    return [json.loads(line) for line in Path(path).read_text().splitlines()
            if line.strip()]


def summarize(runs: list[dict], spec: dict) -> str:
    from stats import metric_values, quartiles, spread

    lines = [f"{'metric':<14} {'unit':<5} {'median':>12} {'q1':>12} "
             f"{'q3':>12} {'spread':>7} {'bound':>6}  n"]
    for m in spec["end_to_end"]:
        values = metric_values(runs, m["name"])
        if not values:
            continue
        q1, median, q3 = quartiles(values)
        s = spread(values)
        flag = "" if s <= m["bound"] / 3 else (
            "  > bound/3" if s <= m["bound"] else "  > BOUND")
        lines.append(
            f"{m['name']:<14} {m['unit']:<5} {median:>12.6g} {q1:>12.6g} "
            f"{q3:>12.6g} {s:>7.3f} {m['bound']:>6.2f}  {len(values)}{flag}"
        )
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="append each run's result here")
    parser.add_argument("--compare", nargs=2, metavar=("BASE", "CANDIDATE"))
    args = parser.parse_args(argv)

    sys.path.insert(0, str(HERE))
    from stats import compare, failed_runs, format_verdicts

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.compare:
        base, cand = (load(p) for p in args.compare)
        verdicts = compare(base, cand, spec["end_to_end"])
        print(format_verdicts(verdicts))
        bad = failed_runs(cand)
        if bad:
            print(f"{bad} candidate run(s) incorrect or with failures")
        return 1 if bad or any(v.regressed for v in verdicts) else 0
    if not args.workload:
        parser.error("--workload is required unless --compare is given")

    runs = []
    for seed in parse_seeds(args.seeds):
        result = run_one(spec, args.workload, seed, args.trace)
        runs.append(result)
        print(f"seed {seed}: correct={result['correct']} "
              f"failed={result['failed']}/{result['attempted']} " + " ".join(
                  f"{k}={v['value']:.6g}"
                  for k, v in result["metrics"].items()), flush=True)
        if args.out:
            with open(args.out, "a") as handle:
                handle.write(json.dumps(result) + "\n")
    if not args.trace:
        print(summarize(runs, spec))
    return 1 if failed_runs(runs) else 0


if __name__ == "__main__":
    sys.exit(main())
