"""Framework input configuration (Section III-A).

MicroGrad's inputs arrive as a configuration file; :class:`MicroGradConfig`
is its in-memory form with JSON (de)serialization.  Defaults follow the
paper: cloning defaults to instruction distributions + cache hit rates +
misprediction rate + IPC as metrics of interest with a 99% accuracy target;
stress testing defaults to IPC.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from pathlib import Path

#: Default cloning metrics of interest (Section III-A1 / IV-A4).
DEFAULT_CLONING_METRICS = (
    "integer",
    "load",
    "store",
    "branch",
    "mispredict_rate",
    "l1i_hit_rate",
    "l1d_hit_rate",
    "l2_hit_rate",
    "ipc",
)

from repro.exec.backend import BACKEND_NAMES as _VALID_BACKENDS

_VALID_USE_CASES = ("cloning", "stress")
_VALID_TUNERS = ("gd", "ga", "random")


@dataclass
class MicroGradConfig:
    """Everything a MicroGrad run needs.

    Attributes:
        use_case: ``"cloning"`` or ``"stress"``.
        core: target core name (``small`` / ``large``).
        metrics: metrics of interest.  For cloning these are matched; for
            stress the single entry is the stress metric.
        targets: explicit target values (cloning); alternatively name a
            reference ``application`` to characterize automatically.
        application: reference workload name (cloning input option 2).
        application_scope: ``"simpoint"`` (default) targets the
            application's dominant simpoint phase — the paper generates
            clones on 100M-instruction simpoints; ``"combined"`` targets
            the whole application's phase-weighted metrics instead.
        use_simpoints: clone per simpoint instead of whole application.
        maximize: stress direction (True for power viruses).
        tuner: ``"gd"`` (default), ``"ga"`` or ``"random"``.
        accuracy_target: stop when mean cloning accuracy reaches this.
        max_epochs: tuning epoch limit.
        knobs: restrict tuning to these knob names (e.g. only the
            instruction-fraction knobs for Fig 5/6 scenarios).
        fixed_knobs: pinned knob values merged into every configuration.
        loop_size: static size of generated test cases.
        instructions: dynamic instruction budget per evaluation.
        with_power: attach the power model to the platform.
        seed: RNG seed for the whole run.
        jobs: thread/process pool workers (``1`` serial, ``0`` all
            cores).  Results are bit-identical at any worker count.
        backend: evaluation execution backend — ``"auto"`` (process
            pool whenever ``jobs`` asks for more than one worker),
            ``"serial"``, ``"thread"``, ``"process"`` or ``"dist"``
            (which chunks by its own workers, see ``dist_workers``).
        cache_dir: directory for the persistent evaluation result cache
            (``None`` disables it).  Also roots the shared on-disk
            trace-artifact store (``<cache_dir>/artifacts``) that lets
            worker processes — local pools and distributed workers alike
            — compute each trace artifact once per cluster.
        cache_max_entries: size cap for the persistent cache; least-
            recently-used entries (by file mtime) are compacted away once
            the cap is exceeded.  ``None`` means unbounded.
        dist_addr: ``host:port`` of an external persistent evaluation
            cluster (``repro.cli serve``) this run joins as a client
            session (``None`` starts a private coordinator on an
            ephemeral loopback port for purely local fan-out).
        dist_workers: local worker processes the dist backend spawns
            when it owns its own cluster; ``None`` defaults to local
            fan-out.  Must stay unset/0 with ``dist_addr`` — a shared
            cluster's workers belong to ``repro.cli serve``/``worker``,
            not to one tenant.  Spawned workers are kept alive by an
            elastic pool that respawns any that die.
        dist_priority: fair-share weight of this run's client session
            on a shared cluster (``dist_addr`` mode).  The coordinator
            interleaves dispatch across sessions proportionally to
            priority; ``None`` means ``1.0`` (equal share).
        dist_secret: shared secret for a cluster started with
            ``repro.cli serve --serve-secret`` (``None`` falls back to
            ``$REPRO_DIST_SECRET``).  Never sent over the wire — the
            client answers an HMAC challenge derived from it.
        dist_lease_timeout: seconds a leased distributed job may stay
            unresolved before the coordinator reschedules it on another
            worker (livelocked-worker backstop; hung workers are
            evicted faster via heartbeats).  ``None`` keeps the
            coordinator default; set it above the worst-case single-job
            runtime.
        metrics_out: path to write the run's merged metrics report
            (JSON: per-stage time breakdown, engine-path and cache-hit
            counters across every worker — see
            :func:`repro.obs.build_run_report`).  ``None`` skips the
            file; the report is always available on
            ``MicroGradResult.run_report``.
    """

    use_case: str = "cloning"
    core: str = "large"
    metrics: tuple[str, ...] = DEFAULT_CLONING_METRICS
    targets: dict = field(default_factory=dict)
    application: str | None = None
    application_scope: str = "simpoint"
    use_simpoints: bool = False
    maximize: bool = False
    tuner: str = "gd"
    accuracy_target: float = 0.99
    max_epochs: int = 60
    knobs: tuple[str, ...] | None = None
    fixed_knobs: dict = field(default_factory=dict)
    loop_size: int = 500
    instructions: int = 20_000
    with_power: bool = False
    seed: int = 0
    jobs: int = 1
    backend: str = "auto"
    cache_dir: str | None = None
    cache_max_entries: int | None = None
    dist_addr: str | None = None
    dist_workers: int | None = None
    dist_lease_timeout: float | None = None
    dist_priority: float | None = None
    dist_secret: str | None = None
    metrics_out: str | None = None

    def __post_init__(self) -> None:
        if self.use_case not in _VALID_USE_CASES:
            raise ValueError(
                f"use_case must be one of {_VALID_USE_CASES}, got {self.use_case!r}"
            )
        if self.tuner not in _VALID_TUNERS:
            raise ValueError(
                f"tuner must be one of {_VALID_TUNERS}, got {self.tuner!r}"
            )
        if not 0.0 < self.accuracy_target <= 1.0:
            raise ValueError("accuracy_target must be within (0, 1]")
        if self.max_epochs < 1:
            raise ValueError("max_epochs must be >= 1")
        self.metrics = tuple(self.metrics)
        if self.use_case == "cloning" and not self.targets and not self.application:
            raise ValueError(
                "cloning needs either explicit targets or an application name"
            )
        if self.use_case == "stress" and not self.metrics:
            raise ValueError("stress testing needs at least one stress metric")
        if self.application_scope not in ("simpoint", "combined"):
            raise ValueError(
                "application_scope must be 'simpoint' or 'combined', "
                f"got {self.application_scope!r}"
            )
        if self.backend not in _VALID_BACKENDS:
            raise ValueError(
                f"backend must be one of {_VALID_BACKENDS}, got {self.backend!r}"
            )
        if self.jobs < 0:
            raise ValueError("jobs must be >= 0 (0 means all cores)")
        if self.cache_max_entries is not None and self.cache_max_entries < 1:
            raise ValueError("cache_max_entries must be >= 1 (or None)")
        if self.dist_workers is not None and self.dist_workers < 0:
            raise ValueError("dist_workers must be >= 0 (or None)")
        if self.dist_lease_timeout is not None \
                and self.dist_lease_timeout <= 0:
            raise ValueError("dist_lease_timeout must be > 0 (or None)")
        if self.dist_priority is not None and self.dist_priority <= 0:
            raise ValueError("dist_priority must be > 0 (or None)")
        if self.dist_addr is not None:
            from repro.dist.protocol import parse_addr

            parse_addr(self.dist_addr)  # fail fast on malformed addresses

    # -- serialization --------------------------------------------------

    def to_json(self, path: str | Path | None = None) -> str:
        """Serialize to JSON (optionally writing ``path``)."""
        payload = asdict(self)
        payload["metrics"] = list(self.metrics)
        if self.knobs is not None:
            payload["knobs"] = list(self.knobs)
        text = json.dumps(payload, indent=2, sort_keys=True)
        if path is not None:
            Path(path).write_text(text)
        return text

    @classmethod
    def from_json(cls, source: str | Path) -> "MicroGradConfig":
        """Load from a JSON document or a file path.

        Text whose first non-blank character is ``{`` is parsed as
        JSON, however long and on however many lines; anything else is
        a path, and a missing file raises :class:`FileNotFoundError`
        naming it.
        """
        text = str(source)
        if not text.lstrip().startswith("{"):
            text = Path(text).read_text()
        data = json.loads(text)
        if "metrics" in data:
            data["metrics"] = tuple(data["metrics"])
        if data.get("knobs") is not None:
            data["knobs"] = tuple(data["knobs"])
        return cls(**data)
