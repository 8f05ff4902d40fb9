"""Thread-safe metrics registry: counters, gauges and timing histograms.

Every observability signal in the system funnels through one
:class:`MetricsRegistry` per process: engine-path counters
(``engine_path.*``), result-cache hit/miss accounting, per-stage
:func:`span` timings and worker liveness gauges.  The registry answers
two questions the ad-hoc process-local counters it replaced could not:

* **Where did the time go?** — :func:`span` wraps each pipeline stage
  (codegen, trace build, event sims, interval batch, cache probes,
  chunk evaluation, tuner epochs) in a ~1 µs ``perf_counter`` pair and
  folds the duration into a per-stage :class:`TimerStat`.
* **What happened in *other* processes?** — a :class:`MetricsSnapshot`
  is picklable and mergeable, so worker processes (pools and
  distributed workers alike) snapshot their registry and ship the
  delta home with their results; :meth:`MetricsRegistry.merge_remote`
  folds foreign snapshots in while rejecting same-process echoes.

Counter updates take a lock (CPython's ``+=`` on a dict slot is *not*
atomic — two threads interleaving load/add/store lose increments), so
concurrent ``run_many`` calls from a thread-pool backend count exactly.

Merge semantics (:meth:`MetricsSnapshot.merge`): counters add, timer
counts/totals add with min/min and max/max, gauges take the maximum —
all associative and commutative (exactly so for integer counters, up to
float-addition rounding for timer totals), so merging worker snapshots
in any arrival order yields the same report.
"""

from __future__ import annotations

import os
import socket
import threading
import time
from dataclasses import dataclass, field


def local_origin() -> tuple[str, int]:
    """Identity of this process: ``(hostname, pid)``.

    Computed fresh on every call (not cached at import) so forked
    workers — which inherit module state but get a new pid — never
    masquerade as their parent.
    """
    return (socket.gethostname(), os.getpid())


@dataclass
class TimerStat:
    """Aggregate of one span's observed durations."""

    count: int = 0
    total_s: float = 0.0
    min_s: float = float("inf")
    max_s: float = 0.0

    def observe(self, seconds: float) -> None:
        self.count += 1
        self.total_s += seconds
        if seconds < self.min_s:
            self.min_s = seconds
        if seconds > self.max_s:
            self.max_s = seconds

    def merged(self, other: "TimerStat") -> "TimerStat":
        return TimerStat(
            count=self.count + other.count,
            total_s=self.total_s + other.total_s,
            min_s=min(self.min_s, other.min_s),
            max_s=max(self.max_s, other.max_s),
        )

    @property
    def mean_s(self) -> float:
        return self.total_s / self.count if self.count else 0.0

    def to_list(self) -> list:
        return [self.count, self.total_s, self.min_s, self.max_s]

    @classmethod
    def from_list(cls, raw) -> "TimerStat":
        count, total_s, min_s, max_s = raw
        return cls(int(count), float(total_s), float(min_s), float(max_s))


@dataclass
class MetricsSnapshot:
    """Picklable, mergeable point-in-time copy of a registry (or scope).

    ``origin`` records which process produced it — ``(hostname, pid)``
    — so :meth:`MetricsRegistry.merge_remote` can tell a worker's
    snapshot (merge it) from an in-process echo (already counted,
    skip).  Merged snapshots carry ``origin=None``.
    """

    counters: dict[str, float] = field(default_factory=dict)
    gauges: dict[str, float] = field(default_factory=dict)
    timers: dict[str, TimerStat] = field(default_factory=dict)
    origin: tuple[str, int] | None = None

    def merge(self, other: "MetricsSnapshot") -> "MetricsSnapshot":
        """Combine two snapshots (associative, commutative; see module
        docstring for the per-kind fold)."""
        counters = dict(self.counters)
        for name, value in other.counters.items():
            counters[name] = counters.get(name, 0) + value
        gauges = dict(self.gauges)
        for name, value in other.gauges.items():
            gauges[name] = max(gauges.get(name, value), value)
        timers = dict(self.timers)
        for name, stat in other.timers.items():
            mine = timers.get(name)
            timers[name] = stat if mine is None else mine.merged(stat)
        return MetricsSnapshot(counters=counters, gauges=gauges,
                               timers=timers, origin=None)

    def is_empty(self) -> bool:
        return not (self.counters or self.gauges or self.timers)

    def to_dict(self) -> dict:
        """JSON-able form (the ``status`` frame / run-report payload)."""
        return {
            "origin": list(self.origin) if self.origin else None,
            "counters": dict(self.counters),
            "gauges": dict(self.gauges),
            "timers": {k: v.to_list() for k, v in self.timers.items()},
        }

    @classmethod
    def from_dict(cls, raw: dict) -> "MetricsSnapshot":
        origin = raw.get("origin")
        return cls(
            counters=dict(raw.get("counters") or {}),
            gauges=dict(raw.get("gauges") or {}),
            timers={
                k: TimerStat.from_list(v)
                for k, v in (raw.get("timers") or {}).items()
            },
            origin=tuple(origin) if origin else None,
        )


class _Scope:
    """One active collection window (see :meth:`MetricsRegistry.collect`).

    Scopes accumulate the same updates the registry receives while they
    are active; they have no locking of their own because every mutation
    happens under the owning registry's lock.
    """

    def __init__(self) -> None:
        self.counters: dict[str, float] = {}
        self.gauges: dict[str, float] = {}
        self.timers: dict[str, TimerStat] = {}

    def snapshot(self) -> MetricsSnapshot:
        return MetricsSnapshot(
            counters=dict(self.counters),
            gauges=dict(self.gauges),
            timers={k: TimerStat(*v.to_list()) for k, v in
                    self.timers.items()},
            origin=local_origin(),
        )


class _Span:
    """Context manager timing one stage execution."""

    __slots__ = ("_registry", "_name", "_t0")

    def __init__(self, registry: "MetricsRegistry", name: str):
        self._registry = registry
        self._name = name
        self._t0 = 0.0

    def __enter__(self) -> "_Span":
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self._registry.observe(self._name, time.perf_counter() - self._t0)


class _NoopSpan:
    """Shared do-nothing span used while the registry is disabled."""

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc) -> None:
        pass


_NOOP_SPAN = _NoopSpan()

#: Environment kill switch: ``REPRO_OBS=off`` starts the process-wide
#: registry disabled (spans and counters become no-ops).  The overhead
#: benchmark uses the in-process :meth:`MetricsRegistry.set_enabled`
#: twin to measure instrumented vs bare runs.
OBS_ENV_VAR = "REPRO_OBS"


class MetricsRegistry:
    """Process-wide metrics store; see the module docstring.

    All mutating operations are safe to call from any thread.  Active
    collection scopes (:meth:`collect`) observe every update made while
    they are open, regardless of which thread makes it — a run-level
    scope therefore captures thread-pool workers too.  The flip side:
    two *concurrent* runs in one process see each other's updates in
    their scopes; run reports are per-process, not per-caller.
    """

    #: Lock discipline, statically enforced by the ``lock-discipline``
    #: checker (:mod:`repro.analysis`): every metric table (and the
    #: active-scope list feeding them) is only touched under ``_lock``.
    #: ``_enabled`` is deliberately unguarded: a stale read of the
    #: on/off flag drops or admits one benign record, never corrupts.
    GUARDED_BY = {
        "_counters": "_lock",
        "_gauges": "_lock",
        "_timers": "_lock",
        "_scopes": "_lock",
    }

    def __init__(self, enabled: bool = True):
        self._lock = threading.Lock()
        self._counters: dict[str, float] = {}
        self._gauges: dict[str, float] = {}
        self._timers: dict[str, TimerStat] = {}
        self._scopes: list[_Scope] = []
        self._enabled = enabled

    # -- switches -------------------------------------------------------

    def set_enabled(self, enabled: bool) -> None:
        """Turn instrumentation on or off process-wide."""
        self._enabled = bool(enabled)

    @property
    def enabled(self) -> bool:
        return self._enabled

    # -- recording ------------------------------------------------------

    def inc(self, name: str, value: float = 1) -> None:
        """Add ``value`` to counter ``name`` (atomic under the lock)."""
        if not self._enabled:
            return
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + value
            for scope in self._scopes:
                scope.counters[name] = scope.counters.get(name, 0) + value

    def set_gauge(self, name: str, value: float) -> None:
        """Set gauge ``name`` to its latest observed ``value``."""
        if not self._enabled:
            return
        with self._lock:
            self._gauges[name] = value
            for scope in self._scopes:
                scope.gauges[name] = value

    def observe(self, name: str, seconds: float) -> None:
        """Fold one duration into timer ``name``."""
        if not self._enabled:
            return
        with self._lock:
            stat = self._timers.get(name)
            if stat is None:
                stat = self._timers[name] = TimerStat()
            stat.observe(seconds)
            for scope in self._scopes:
                sstat = scope.timers.get(name)
                if sstat is None:
                    sstat = scope.timers[name] = TimerStat()
                sstat.observe(seconds)

    def span(self, name: str):
        """Context manager timing one execution of stage ``name``."""
        if not self._enabled:
            return _NOOP_SPAN
        return _Span(self, name)

    # -- reading --------------------------------------------------------

    def counters(self, prefix: str = "") -> dict[str, float]:
        """Current counters, optionally filtered by name prefix."""
        with self._lock:
            return {
                name: value for name, value in self._counters.items()
                if name.startswith(prefix)
            }

    def snapshot(self) -> MetricsSnapshot:
        """Point-in-time copy of everything, stamped with this process."""
        with self._lock:
            return MetricsSnapshot(
                counters=dict(self._counters),
                gauges=dict(self._gauges),
                timers={k: TimerStat(*v.to_list())
                        for k, v in self._timers.items()},
                origin=local_origin(),
            )

    # -- resetting ------------------------------------------------------

    def reset(self, prefix: str | None = None) -> None:
        """Zero counters/gauges/timers (all, or only a name prefix).

        Active scopes are *not* rewound: a scope records what happened
        while it was open, and a reset is not an un-happening.
        """
        with self._lock:
            if prefix is None:
                self._counters.clear()
                self._gauges.clear()
                self._timers.clear()
                return
            for table in (self._counters, self._gauges, self._timers):
                for name in [n for n in table if n.startswith(prefix)]:
                    del table[name]

    # -- scopes and remote merges ---------------------------------------

    def collect(self) -> "_CollectContext":
        """Open a collection window; ``with registry.collect() as scope``.

        The yielded scope accumulates every update made (by any thread)
        while it is open; ``scope.snapshot()`` is the delta.  Used by
        chunk jobs to capture the work a single chunk did in a worker
        process, and by :class:`~repro.core.framework.MicroGrad` to
        scope one run's report.
        """
        return _CollectContext(self)

    def merge_remote(self, snap: MetricsSnapshot | dict | None) -> bool:
        """Fold a worker's snapshot in; returns True when merged.

        Snapshots whose ``origin`` matches this process are echoes of
        work already recorded here (serial/thread chunks) and are
        skipped — merging them would double count.  Foreign snapshots
        (process-pool or distributed workers) are folded into the
        global tables *and* every active scope, so a run-level scope
        sees its workers' contributions.
        """
        if snap is None:
            return False
        if isinstance(snap, dict):
            snap = MetricsSnapshot.from_dict(snap)
        if not self._enabled or snap.is_empty():
            return False
        if snap.origin is not None and snap.origin == local_origin():
            return False
        with self._lock:
            tables = [(self._counters, self._gauges, self._timers)]
            tables += [(s.counters, s.gauges, s.timers)
                       for s in self._scopes]
            for counters, gauges, timers in tables:
                for name, value in snap.counters.items():
                    counters[name] = counters.get(name, 0) + value
                for name, value in snap.gauges.items():
                    gauges[name] = max(gauges.get(name, value), value)
                for name, stat in snap.timers.items():
                    mine = timers.get(name)
                    timers[name] = (TimerStat(*stat.to_list())
                                    if mine is None else mine.merged(stat))
        return True

    def _push_scope(self, scope: _Scope) -> None:
        with self._lock:
            self._scopes.append(scope)

    def _pop_scope(self, scope: _Scope) -> None:
        with self._lock:
            try:
                self._scopes.remove(scope)
            except ValueError:
                pass


class _CollectContext:
    __slots__ = ("_registry", "_scope")

    def __init__(self, registry: MetricsRegistry):
        self._registry = registry
        self._scope = _Scope()

    def __enter__(self) -> _Scope:
        self._registry._push_scope(self._scope)
        return self._scope

    def __exit__(self, *exc) -> None:
        self._registry._pop_scope(self._scope)


#: The process-wide default registry every instrumented module records
#: into.  ``REPRO_OBS=off`` starts it disabled.
REGISTRY = MetricsRegistry(
    enabled=os.environ.get(OBS_ENV_VAR, "").lower()
    not in ("off", "0", "false", "no")
)


# -- module-level conveniences over the default registry ----------------

def inc(name: str, value: float = 1) -> None:
    REGISTRY.inc(name, value)


def set_gauge(name: str, value: float) -> None:
    REGISTRY.set_gauge(name, value)


def observe(name: str, seconds: float) -> None:
    REGISTRY.observe(name, seconds)


def span(name: str):
    return REGISTRY.span(name)


def counters(prefix: str = "") -> dict[str, float]:
    return REGISTRY.counters(prefix)


def snapshot() -> MetricsSnapshot:
    return REGISTRY.snapshot()


def reset(prefix: str | None = None) -> None:
    REGISTRY.reset(prefix)


def collect() -> _CollectContext:
    return REGISTRY.collect()


def merge_remote(snap: MetricsSnapshot | dict | None) -> bool:
    return REGISTRY.merge_remote(snap)


def set_enabled(enabled: bool) -> None:
    REGISTRY.set_enabled(enabled)


def is_enabled() -> bool:
    return REGISTRY.enabled
