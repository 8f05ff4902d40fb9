"""Command-line interface: ``micrograd <command>``.

Commands:
    clone         run workload cloning from a config file or flags
    stress        run stress testing
    characterize  print a reference workload's characteristics
    simpoints     select simpoints for a reference workload
    cores         list the available core configurations
    serve         run a persistent multi-tenant evaluation cluster
    worker        serve evaluation jobs for a backend=dist coordinator
    status        show live cluster status of a backend=dist coordinator
    lint          run the invariant lint suite (repro.analysis)
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace

from repro.core.config import MicroGradConfig
from repro.core.framework import MicroGrad
from repro.exec.backend import BACKEND_NAMES
from repro.sim.config import LARGE_CORE, SMALL_CORE, core_by_name
from repro.workloads.characteristics import (
    characterize_workload,
    format_characteristics,
)
from repro.workloads.simpoint import select_simpoints, workload_bbv_trace
from repro.workloads.spec import benchmark_names, get_benchmark


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="JSON configuration file")
    parser.add_argument("--core", default="large", choices=["small", "large"])
    parser.add_argument("--tuner", default="gd", choices=["gd", "ga", "random"])
    parser.add_argument("--max-epochs", type=int, default=60)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", help="directory to save the result into")
    parser.add_argument(
        "--jobs", type=int, default=None, metavar="N",
        help="thread/process pool workers (1 serial, 0 all cores); "
             "dist chunks by its own workers",
    )
    parser.add_argument(
        "--backend", default=None, choices=list(BACKEND_NAMES),
        help="evaluation execution backend (default: auto)",
    )
    parser.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="persistent evaluation result cache directory",
    )
    parser.add_argument(
        "--cache-max-entries", type=int, default=None, metavar="N",
        help="cap the result cache at N entries (LRU compaction)",
    )
    parser.add_argument(
        "--dist-addr", default=None, metavar="HOST:PORT",
        help="external persistent cluster ('serve' command) this run "
             "joins as a client session",
    )
    parser.add_argument(
        "--dist-workers", type=int, default=None, metavar="N",
        help="local worker processes the dist backend spawns "
             "(0: only external workers); dead ones are respawned",
    )
    parser.add_argument(
        "--dist-lease-timeout", type=float, default=None, metavar="S",
        help="seconds a leased dist job may stay unresolved before the "
             "coordinator reschedules it (default: coordinator's; set "
             "above the worst-case single-job runtime)",
    )
    parser.add_argument(
        "--dist-priority", type=float, default=None, metavar="W",
        help="fair-share weight of this run's session on a shared "
             "cluster (default 1.0; a weight-2 session gets twice the "
             "dispatch share of a weight-1 one)",
    )
    parser.add_argument(
        "--dist-secret", default=None, metavar="SECRET",
        help="shared secret of a cluster started with 'serve "
             "--serve-secret' (default: $REPRO_DIST_SECRET)",
    )
    parser.add_argument(
        "--metrics-out", default=None, metavar="FILE",
        help="write the run's merged metrics report (stage time "
             "breakdown, engine-path and cache counters across every "
             "worker) as JSON to FILE",
    )
    parser.add_argument(
        "--progress", action="store_true",
        help="print per-epoch tuning progress (best loss, configs/s, "
             "cache-hit rate)",
    )


def _execution_overrides(args: argparse.Namespace) -> dict:
    """The --jobs/--backend/--cache-*/--dist-* flags explicitly set."""
    overrides = {}
    for flag in ("jobs", "backend", "cache_dir", "cache_max_entries",
                 "dist_addr", "dist_workers", "dist_lease_timeout",
                 "dist_priority", "dist_secret", "metrics_out"):
        value = getattr(args, flag, None)
        if value is not None:
            overrides[flag] = value
    return overrides


def _config_from(args: argparse.Namespace, **kwargs) -> MicroGradConfig:
    """Build the run config from a JSON file or flags, plus exec flags."""
    overrides = _execution_overrides(args)
    if args.config:
        config = MicroGradConfig.from_json(args.config)
        return replace(config, **overrides) if overrides else config
    kwargs.update(overrides)
    return MicroGradConfig(**kwargs)


def _enable_progress(args: argparse.Namespace) -> None:
    """Turn on per-epoch tuning progress lines for --progress runs."""
    if not getattr(args, "progress", False):
        return
    import logging

    logger = logging.getLogger("repro.tuning.progress")
    logger.setLevel(logging.INFO)
    if not logger.handlers:
        handler = logging.StreamHandler()
        handler.setFormatter(logging.Formatter("%(message)s"))
        logger.addHandler(handler)


def _run_and_report(config: MicroGradConfig, out_dir: str | None) -> int:
    mg = MicroGrad(config)
    try:
        result = mg.run()
    finally:
        mg.close()
    print(result.summary())
    print(json.dumps(result.metrics, indent=2))
    if config.metrics_out:
        print(f"metrics report written to {config.metrics_out}")
    if out_dir:
        path = result.save(out_dir)
        print(f"saved to {path}")
    return 0


def _cmd_clone(args: argparse.Namespace) -> int:
    _enable_progress(args)
    config = _config_from(
        args,
        use_case="cloning",
        application=args.application,
        core=args.core,
        tuner=args.tuner,
        max_epochs=args.max_epochs,
        seed=args.seed,
    )
    return _run_and_report(config, args.out)


def _cmd_stress(args: argparse.Namespace) -> int:
    _enable_progress(args)
    config = _config_from(
        args,
        use_case="stress",
        metrics=(args.metric,),
        maximize=args.maximize,
        core=args.core,
        tuner=args.tuner,
        max_epochs=args.max_epochs,
        seed=args.seed,
        with_power="power" in args.metric,
    )
    return _run_and_report(config, args.out)


def _cmd_characterize(args: argparse.Namespace) -> int:
    workload = get_benchmark(args.application)
    report = characterize_workload(workload, core_by_name(args.core))
    print(format_characteristics(report))
    return 0


def _cmd_simpoints(args: argparse.Namespace) -> int:
    workload = get_benchmark(args.application)
    bbvs, labels = workload_bbv_trace(workload, seed=args.seed)
    for sp in select_simpoints(bbvs, max_k=args.max_k, seed=args.seed):
        print(
            f"interval {sp.interval:3d}  weight {sp.weight:.3f}  "
            f"phase {labels[sp.interval]}"
        )
    return 0


def _cmd_cores(_args: argparse.Namespace) -> int:
    for core in (SMALL_CORE, LARGE_CORE):
        print(json.dumps(core.describe(), indent=2))
    return 0


def _cmd_worker(args: argparse.Namespace) -> int:
    import signal
    import threading

    from repro.dist.worker import WORKER_HEARTBEAT_S, run_worker

    stop = threading.Event()
    try:
        # SIGTERM drains gracefully: finish the job in hand, send its
        # result, then disconnect — its lease never needs rescheduling.
        signal.signal(signal.SIGTERM, lambda *_: stop.set())
    except ValueError:  # pragma: no cover — not the main thread
        pass
    print(f"worker joining coordinator at {args.addr}", flush=True)
    try:
        executed = run_worker(
            args.addr,
            name=args.name,
            cache_dir=args.cache_dir,
            cache_max_entries=args.cache_max_entries,
            connect_retry_s=args.connect_retry,
            max_jobs=args.max_jobs,
            heartbeat_s=(WORKER_HEARTBEAT_S if args.heartbeat is None
                         else args.heartbeat),
            secret=args.secret,
            stop=stop,
        )
    except (ValueError, RuntimeError) as exc:
        # A bad --heartbeat, or the coordinator's reject reason.
        raise SystemExit(f"worker: {exc}")
    print(f"worker done ({executed} jobs)", flush=True)
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import os
    import signal
    import threading

    from repro.dist.coordinator import Coordinator
    from repro.dist.worker import WorkerPool

    secret = (args.serve_secret
              or os.environ.get("REPRO_DIST_SECRET") or None)
    host, _, port = args.addr.partition(":")
    coordinator = Coordinator(
        host=host or "127.0.0.1",
        port=int(port or 0),
        secret=secret,
        **({} if args.lease_timeout is None
           else {"lease_timeout_s": args.lease_timeout}),
    )
    stop = threading.Event()
    for signum in (signal.SIGTERM, signal.SIGINT):
        try:
            signal.signal(signum, lambda *_: stop.set())
        except ValueError:  # pragma: no cover — not the main thread
            pass
    bound = coordinator.start()
    auth = "secured (HMAC challenge)" if secret else "open (no secret)"
    print(f"serving evaluation cluster on {bound} [{auth}]", flush=True)
    print("clients join with --dist-addr, workers with "
          "'repro.cli worker --addr'", flush=True)
    pool = None
    if args.workers:
        pool = WorkerPool(
            bound, args.workers,
            cache_dir=args.cache_dir,
            cache_max_entries=args.cache_max_entries,
            secret=secret,
        )
        pool.start()
        print(f"started {args.workers} local workers", flush=True)
    try:
        while not stop.wait(0.5):
            pass
    finally:
        if pool is not None:
            pool.stop()
        coordinator.shutdown()
    print("cluster shut down", flush=True)
    return 0


def _cmd_droop(args: argparse.Namespace) -> int:
    from repro.core.platform import VoltageDroopPlatform

    _enable_progress(args)
    config = _config_from(
        args,
        use_case="stress",
        metrics=("droop_mv",),
        maximize=True,
        core=args.core,
        tuner=args.tuner,
        max_epochs=args.max_epochs,
        knobs=("ADD", "MUL", "FADDD", "FMULD", "BEQ", "BNE",
               "LD", "LW", "SD", "SW"),
        seed=args.seed,
    )
    platform = VoltageDroopPlatform(core_by_name(args.core))
    mg = MicroGrad(config, platform=platform)
    try:
        result = mg.run()
    finally:
        mg.close()
    print(result.summary())
    print(f"peak droop : {result.metrics['droop_mv']:.2f} mV")
    print(f"power swing: {result.metrics['power_swing_w']:.2f} W")
    if args.out:
        print(f"saved to {result.save(args.out)}")
    return 0


def _cmd_status(args: argparse.Namespace) -> int:
    from repro.dist.status import fetch_cluster_status
    from repro.obs import format_cluster_status

    report = fetch_cluster_status(
        args.addr, timeout=args.timeout, retries=args.retries,
        secret=args.secret,
    )
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        print(format_cluster_status(report))
    return 0


def _cmd_sensitivity(args: argparse.Namespace) -> int:
    from repro.core.framework import DEFAULT_KNOB_VALUES
    from repro.core.platform import PerformancePlatform
    from repro.core.usecases.sensitivity import SensitivityAnalysis
    from repro.tuning.knobs import default_cloning_space

    analysis = SensitivityAnalysis(
        platform=PerformancePlatform(core_by_name(args.core),
                                     instructions=args.instructions),
        knob_space=default_cloning_space(),
        baseline=dict(DEFAULT_KNOB_VALUES),
        metric=args.metric,
    )
    ranking = analysis.run()
    print(SensitivityAnalysis.format_ranking(ranking, metric=args.metric))
    return 0


def _cmd_bottleneck(args: argparse.Namespace) -> int:
    from repro.core.framework import DEFAULT_KNOB_VALUES
    from repro.core.platform import PerformancePlatform
    from repro.core.usecases.bottleneck import BottleneckAnalysis
    from repro.tuning.knobs import default_cloning_space

    space = default_cloning_space()
    try:
        knob = next(k for k in space.knobs if k.name == args.knob)
    except StopIteration:
        raise SystemExit(f"unknown knob {args.knob!r}; "
                         f"choose from {space.names}")
    analysis = BottleneckAnalysis(
        platform=PerformancePlatform(core_by_name(args.core),
                                     instructions=args.instructions),
        base_config=dict(DEFAULT_KNOB_VALUES),
        knob=args.knob,
        values=list(knob.values),
        metric=args.metric,
    )
    analysis.run()
    for value, metric in analysis.response_curve():
        print(f"{args.knob}={value:<8g} {args.metric}={metric:.4f}")
    knee = analysis.knee()
    print(f"knee at {args.knob}={knee.value:g}")
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    import repro
    from pathlib import Path

    from repro.analysis import (
        all_checkers,
        format_report,
        report_to_dict,
        run_lint,
    )

    if args.list_rules:
        for checker in all_checkers():
            print(f"{checker.name:<16} {checker.description}")
        return 0
    paths = args.paths or [str(Path(repro.__file__).parent)]
    try:
        report = run_lint(paths, rules=args.rule or None)
    except ValueError as exc:
        raise SystemExit(str(exc))
    if args.out:
        Path(args.out).write_text(
            json.dumps(report_to_dict(report), indent=2) + "\n",
            encoding="utf-8",
        )
    if args.json:
        print(json.dumps(report_to_dict(report), indent=2))
    else:
        print(format_report(report))
    return 0 if report.ok else 1


def build_parser() -> argparse.ArgumentParser:
    """The top-level argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="micrograd",
        description="Workload cloning and stress testing framework",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    clone = sub.add_parser("clone", help="clone a reference application")
    _add_common(clone)
    clone.add_argument("--application", choices=benchmark_names(),
                       help="reference workload to clone")
    clone.set_defaults(func=_cmd_clone)

    stress = sub.add_parser("stress", help="generate a stress test")
    _add_common(stress)
    stress.add_argument("--metric", default="ipc")
    stress.add_argument("--maximize", action="store_true")
    stress.set_defaults(func=_cmd_stress)

    char = sub.add_parser("characterize", help="characterize a workload")
    char.add_argument("--application", required=True, choices=benchmark_names())
    char.add_argument("--core", default="large", choices=["small", "large"])
    char.set_defaults(func=_cmd_characterize)

    simp = sub.add_parser("simpoints", help="select simpoints")
    simp.add_argument("--application", required=True, choices=benchmark_names())
    simp.add_argument("--max-k", type=int, default=4)
    simp.add_argument("--seed", type=int, default=0)
    simp.set_defaults(func=_cmd_simpoints)

    cores = sub.add_parser("cores", help="list core configurations")
    cores.set_defaults(func=_cmd_cores)

    serve = sub.add_parser(
        "serve",
        help="run a persistent multi-tenant evaluation cluster",
    )
    serve.add_argument("--addr", required=True, metavar="HOST:PORT",
                       help="address the coordinator binds (clients "
                            "point --dist-addr here)")
    serve.add_argument("--serve-secret", default=None, metavar="SECRET",
                       help="require clients and workers to answer an "
                            "HMAC challenge derived from SECRET "
                            "(default: $REPRO_DIST_SECRET; never sent "
                            "over the wire)")
    serve.add_argument("--workers", type=int, default=0, metavar="N",
                       help="also keep N local worker processes alive "
                            "(default 0: workers join via the 'worker' "
                            "command)")
    serve.add_argument("--cache-dir", default=None, metavar="DIR",
                       help="shared cache directory handed to local "
                            "workers (on-disk trace-artifact store)")
    serve.add_argument("--cache-max-entries", type=int, default=None,
                       metavar="N", help="artifact store entry cap")
    serve.add_argument("--lease-timeout", type=float, default=None,
                       metavar="S",
                       help="seconds a leased job may stay unresolved "
                            "before rescheduling (default: "
                            "coordinator's)")
    serve.set_defaults(func=_cmd_serve)

    worker = sub.add_parser(
        "worker",
        help="serve evaluation jobs for a backend=dist coordinator",
    )
    worker.add_argument("--addr", required=True, metavar="HOST:PORT",
                        help="coordinator address to join")
    worker.add_argument("--name", default=None,
                        help="worker name shown in coordinator logs")
    worker.add_argument("--cache-dir", default=None, metavar="DIR",
                        help="shared cache directory (enables the "
                             "on-disk trace-artifact store)")
    worker.add_argument("--cache-max-entries", type=int, default=None,
                        metavar="N", help="artifact store entry cap")
    worker.add_argument("--connect-retry", type=float, default=10.0,
                        metavar="S", help="seconds to retry the initial "
                                          "connect (default 10)")
    worker.add_argument("--heartbeat", type=float, default=None,
                        metavar="S",
                        help="ping interval proving liveness mid-job, "
                             "in seconds (default 2; must be > 0)")
    worker.add_argument("--max-jobs", type=int, default=None, metavar="N",
                        help="exit after N jobs (default: run until "
                             "the coordinator shuts down)")
    worker.add_argument("--secret", default=None, metavar="SECRET",
                        help="shared secret of a secured coordinator "
                             "(default: $REPRO_DIST_SECRET)")
    worker.set_defaults(func=_cmd_worker)

    status = sub.add_parser(
        "status",
        help="show live cluster status of a backend=dist coordinator",
    )
    status.add_argument("addr", metavar="HOST:PORT",
                        help="coordinator address to query")
    status.add_argument("--timeout", type=float, default=10.0, metavar="S",
                        help="seconds to wait for the reply (default 10)")
    status.add_argument("--retries", type=int, default=0, metavar="N",
                        help="extra attempts after a timeout or "
                             "connection failure (default 0)")
    status.add_argument("--secret", default=None, metavar="SECRET",
                        help="shared secret of a secured coordinator "
                             "(default: $REPRO_DIST_SECRET)")
    status.add_argument("--json", action="store_true",
                        help="print the raw report as JSON")
    status.set_defaults(func=_cmd_status)

    droop = sub.add_parser("droop", help="generate a voltage-droop virus")
    _add_common(droop)
    droop.set_defaults(func=_cmd_droop)

    sens = sub.add_parser("sensitivity", help="rank knobs by metric impact")
    sens.add_argument("--core", default="large", choices=["small", "large"])
    sens.add_argument("--metric", default="ipc")
    sens.add_argument("--instructions", type=int, default=8_000)
    sens.set_defaults(func=_cmd_sensitivity)

    bottleneck = sub.add_parser("bottleneck", help="sweep one knob")
    bottleneck.add_argument("--core", default="large",
                            choices=["small", "large"])
    bottleneck.add_argument("--knob", required=True)
    bottleneck.add_argument("--metric", default="ipc")
    bottleneck.add_argument("--instructions", type=int, default=8_000)
    bottleneck.set_defaults(func=_cmd_bottleneck)

    lint = sub.add_parser(
        "lint",
        help="run the AST-based invariant lint suite over the source",
    )
    lint.add_argument("paths", nargs="*", metavar="PATH",
                      help="files or directories to lint "
                           "(default: the installed repro package)")
    lint.add_argument("--rule", action="append", metavar="RULE",
                      help="run only this rule (repeatable)")
    lint.add_argument("--json", action="store_true",
                      help="print the report as JSON")
    lint.add_argument("--out", metavar="FILE",
                      help="also write the JSON report to FILE "
                           "(the CI artifact)")
    lint.add_argument("--list-rules", action="store_true",
                      help="list the registered rules and exit")
    lint.set_defaults(func=_cmd_lint)
    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point."""
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
