"""Run reports and cluster-status rendering.

Two consumers of the metrics registry live here:

* :func:`build_run_report` turns a merged :class:`MetricsSnapshot`
  (one run's scope, workers already folded in) into the JSON document
  written by ``--metrics-out`` — per-stage time breakdown plus derived
  cache-hit / engine-path / dedup rates.
* :func:`format_cluster_status` renders the coordinator's
  ``status_reply`` report (see :mod:`repro.dist.protocol`) as the
  table ``repro.cli status <addr>`` prints.
"""

from __future__ import annotations

from repro.obs.registry import MetricsSnapshot

RUN_REPORT_SCHEMA = "run-report-v1"

#: Counter prefix of the event-engine and evaluation-dispatch paths
#: (:mod:`repro.sim.events`, :mod:`repro.exec.jobs`).
ENGINE_PATH_PREFIX = "engine_path."


def _rate(hits: float, misses: float) -> float | None:
    total = hits + misses
    return hits / total if total else None


def build_run_report(snapshot: MetricsSnapshot,
                     wall_s: float | None = None,
                     extra: dict | None = None) -> dict:
    """Build the ``--metrics-out`` JSON document from one run's snapshot.

    ``wall_s`` is the run's wall-clock (stage shares are computed
    against it); ``extra`` is merged in verbatim under ``"run"`` (tuner
    name, epochs, best loss — whatever the caller wants on record).
    """
    counters = dict(snapshot.counters)
    stages = {}
    for name, stat in sorted(snapshot.timers.items()):
        entry = {
            "count": stat.count,
            "total_s": stat.total_s,
            "mean_s": stat.mean_s,
            "min_s": stat.min_s if stat.count else 0.0,
            "max_s": stat.max_s,
        }
        if wall_s:
            entry["share_of_wall"] = stat.total_s / wall_s
        stages[name] = entry

    engine_paths = {
        name[len(ENGINE_PATH_PREFIX):]: count
        for name, count in counters.items()
        if name.startswith(ENGINE_PATH_PREFIX)
    }
    requested = counters.get("evaluator.requested", 0)
    unique = counters.get("evaluator.unique", 0)
    rates = {
        "result_cache_hit_rate": _rate(
            counters.get("cache.result.hits", 0),
            counters.get("cache.result.misses", 0),
        ),
        "artifact_store_hit_rate": _rate(
            counters.get("cache.artifact.hits", 0),
            counters.get("cache.artifact.misses", 0),
        ),
        "evaluator_dedup_rate": (
            1.0 - unique / requested if requested else None
        ),
    }

    report = {
        "schema": RUN_REPORT_SCHEMA,
        "wall_s": wall_s,
        "stages": stages,
        "counters": counters,
        "gauges": dict(snapshot.gauges),
        "engine_paths": engine_paths,
        "rates": rates,
    }
    if extra:
        report["run"] = dict(extra)
    return report


def format_run_report(report: dict) -> str:
    """Human-readable rendering of a :func:`build_run_report` document."""
    lines = []
    wall_s = report.get("wall_s")
    head = "run report"
    if wall_s:
        head += f" — wall {wall_s:.2f}s"
    lines.append(head)

    stages = report.get("stages") or {}
    if stages:
        lines.append("  stage breakdown:")
        width = max(len(name) for name in stages)
        ordered = sorted(stages.items(),
                         key=lambda kv: kv[1]["total_s"], reverse=True)
        for name, stat in ordered:
            share = stat.get("share_of_wall")
            share_txt = f"  {share * 100:5.1f}%" if share is not None else ""
            lines.append(
                f"    {name:<{width}}  {stat['total_s']:8.3f}s"
                f"  x{stat['count']:<6}{share_txt}"
            )

    engine_paths = report.get("engine_paths") or {}
    if engine_paths:
        lines.append("  engine paths:")
        for name, count in sorted(engine_paths.items()):
            lines.append(f"    {name}: {int(count)}")

    rates = report.get("rates") or {}
    rate_bits = [f"{name}={value * 100:.1f}%"
                 for name, value in sorted(rates.items())
                 if value is not None]
    if rate_bits:
        lines.append("  rates: " + "  ".join(rate_bits))

    run = report.get("run") or {}
    if run:
        lines.append("  run: " + "  ".join(
            f"{key}={value}" for key, value in sorted(run.items())
        ))
    return "\n".join(lines)


def format_cluster_status(report: dict) -> str:
    """Render a coordinator ``status_reply`` report as a worker table."""
    lines = []
    workers = report.get("workers") or []
    lines.append(
        f"coordinator {report.get('addr', '?')} — "
        f"{len(workers)} worker(s), "
        f"{report.get('pending', 0)} queued, "
        f"{report.get('unresolved', 0)} unresolved"
    )
    counters = report.get("counters") or {}
    if counters:
        lines.append("  " + "  ".join(
            f"{key}={value}" for key, value in sorted(counters.items())
        ))
    if workers:
        name_w = max(6, max(len(w.get("name", "?")) for w in workers))
        lines.append(
            f"  {'WORKER':<{name_w}}  LEASES  JOBS  LAST-SEEN"
        )
        for worker in workers:
            age = worker.get("heartbeat_age_s")
            age_txt = "?" if age is None else f"{age:.1f}s ago"
            lines.append(
                f"  {worker.get('name', '?'):<{name_w}}"
                f"  {worker.get('leases', 0):<6}"
                f"  {worker.get('jobs_done', 0):<4}"
                f"  {age_txt}"
            )
    sessions = report.get("sessions") or []
    if sessions:
        name_w = max(7, max(len(str(s.get("name", "?"))) for s in sessions))
        lines.append(
            f"  {'SESSION':<{name_w}}  ID   PRIO  QUEUED  IN-FLIGHT"
            f"  SUBMITTED  DONE"
        )
        for session in sessions:
            lines.append(
                f"  {str(session.get('name', '?')):<{name_w}}"
                f"  {session.get('id', '?'):<3}"
                f"  {session.get('priority', 1.0):<4g}"
                f"  {session.get('queued', 0):<6}"
                f"  {session.get('in_flight', 0):<9}"
                f"  {session.get('submitted', 0):<9}"
                f"  {session.get('jobs_done', 0)}"
            )
    cluster = report.get("cluster_metrics") or {}
    cluster_counters = cluster.get("counters") or {}
    if cluster_counters:
        lines.append("  cluster metrics (merged worker snapshots):")
        for name, value in sorted(cluster_counters.items()):
            lines.append(f"    {name}: {value:g}")
    return "\n".join(lines)
