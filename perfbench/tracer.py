"""Outside-in layer tracing: self-time per layer, by wrapping public functions.

Nothing in ``src/`` is instrumented for this.  :class:`LayerTracer`
replaces each layer's public entry points with timing wrappers for the
duration of one traced unit and restores the originals afterwards.  A
layer's **self time** is the time spent inside its wrapped calls minus
the time spent in wrapped calls nested below them, so the self times of
all layers partition the traced time and never overlap.

Wrappers must replace the name the *caller* looks up.  Several modules
bind functions under their own names (``repro.core.framework`` and
``repro.exec.jobs`` import ``generate_test_case``; ``repro.sim.artifact``
imports ``expand`` and ``critical_path_per_iteration``;
``repro.sim.simulator`` imports ``compute_cycles_batch``), so every
loaded ``repro.*`` module attribute bound to a target function is
rebound, not only the defining module's.  Methods are wrapped on the
class that defines them.

Only the thread that installed the tracer records: the dist backend's
coordinator threads never call traced functions, and recording from
several threads at once would double-count wall time.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import threading
import time
from collections import Counter, defaultdict
from dataclasses import dataclass

#: Self-time layers whose sum is the attributed time, each with the
#: per-layer metric that reports its self time.  The dist backend's
#: ``map`` has no wrapped children in this process, so its self time
#: is the parent's whole time in it: ``dist.map_s``.
LEAF_LAYERS = {
    "codegen": "codegen.self_s",
    "codegen.fingerprint": "codegen.fingerprint_s",
    "sim.trace": "sim.trace.self_s",
    "sim.depgraph": "sim.depgraph.self_s",
    "sim.artifact": "sim.artifact.self_s",
    "sim.events.memory": "sim.events.memory.self_s",
    "sim.events.branch": "sim.events.branch.self_s",
    "sim.events.icache": "sim.events.icache.self_s",
    "sim.interval": "sim.interval.self_s",
    "sim.simulator": "sim.simulator.self_s",
    "tuning": "tuning.self_s",
    "tuning.evaluator": "tuning.evaluator.self_s",
    "exec": "exec.self_s",
    "exec.cache": "exec.cache.self_s",
    "dist": "dist.map_s",
    "dist.close": "dist.close_s",
}


@dataclass(frozen=True)
class Target:
    """One wrapped entry point.

    ``module``/``qualname`` locate the original (``Class.method`` for
    methods); ``layer`` receives its self time; ``count`` names the call
    counter it increments, if any.
    """

    module: str
    qualname: str
    layer: str
    count: str | None = None


#: Every layer entry point the benchmark times, in layer order.
TARGETS = (
    Target("repro.codegen.wrapper", "generate_test_case", "codegen",
           count="codegen.calls"),
    Target("repro.codegen.wrapper", "generation_fingerprint",
           "codegen.fingerprint"),
    Target("repro.sim.trace", "expand", "sim.trace"),
    Target("repro.sim.depgraph", "critical_path_per_iteration",
           "sim.depgraph"),
    Target("repro.sim.artifact", "TraceArtifact.build", "sim.artifact",
           count="sim.artifact.builds"),
    Target("repro.sim.artifact", "program_fingerprint", "sim.artifact"),
    Target("repro.sim.events", "simulate_memory", "sim.events.memory",
           count="sim.events.calls"),
    Target("repro.sim.events", "simulate_memory_batch", "sim.events.memory",
           count="sim.events.calls"),
    Target("repro.sim.events", "simulate_branches", "sim.events.branch",
           count="sim.events.calls"),
    Target("repro.sim.events", "simulate_branches_batch",
           "sim.events.branch", count="sim.events.calls"),
    Target("repro.sim.events", "simulate_icache", "sim.events.icache",
           count="sim.events.calls"),
    Target("repro.sim.events", "simulate_icache_batch", "sim.events.icache",
           count="sim.events.calls"),
    Target("repro.sim.interval", "compute_cycles_batch", "sim.interval"),
    Target("repro.sim.simulator", "Simulator.run_many", "sim.simulator"),
    Target("repro.tuning.evaluator", "Evaluator.evaluate_batch",
           "tuning.evaluator", count="tuning.batches"),
    Target("repro.tuning.evaluator", "Evaluator.evaluate_raw_batch",
           "tuning.evaluator", count="tuning.batches"),
    Target("repro.exec.jobs", "evaluate_configs", "exec"),
    Target("repro.exec.jobs", "evaluate_configs_stream", "exec"),
    Target("repro.exec.cache", "DiskResultCache.get", "exec.cache"),
    Target("repro.exec.cache", "DiskResultCache.get_many", "exec.cache"),
    Target("repro.exec.cache", "DiskResultCache.put", "exec.cache"),
    Target("repro.sim.artifact", "DiskArtifactStore.get", "exec.cache"),
    Target("repro.sim.artifact", "DiskArtifactStore.put", "exec.cache"),
    Target("repro.dist.backend", "DistributedBackend.map", "dist"),
    Target("repro.dist.backend", "DistributedBackend.map_stream", "dist"),
    Target("repro.dist.backend", "DistributedBackend.close", "dist.close"),
)

#: Modules whose import makes every target (and every caller's binding
#: of it) visible to the rebinding scan.
_CALLER_MODULES = (
    "repro.core.framework",
    "repro.exec",
    "repro.dist.backend",
    "repro.tuning.genetic",
    "repro.tuning.gradient",
    "repro.tuning.random_search",
    "repro.tuning.adam",
    "repro.tuning.brute",
    "repro.workloads.spec",
)


def _import_callers() -> None:
    for name in _CALLER_MODULES:
        importlib.import_module(name)


def tuner_classes() -> list[type]:
    """Every tuner class that defines its own ``run``."""
    from repro.tuning.base import Tuner

    _import_callers()

    found, todo = [], [Tuner]
    while todo:
        cls = todo.pop()
        todo.extend(cls.__subclasses__())
        if cls is not Tuner and "run" in vars(cls):
            found.append(cls)
    return sorted(found, key=lambda c: c.__qualname__)


def _patch_class(undo: list, cls: type, name: str, wrap) -> None:
    """Replace ``cls.<name>`` by ``wrap(function)``, keeping its kind."""
    raw = vars(cls)[name]
    if isinstance(raw, classmethod):
        replacement = classmethod(wrap(raw.__func__))
    elif isinstance(raw, staticmethod):
        replacement = staticmethod(wrap(raw.__func__))
    else:
        replacement = wrap(raw)
    undo.append((cls, name, raw))
    setattr(cls, name, replacement)


def _patch_function(undo: list, fn, wrapped) -> None:
    """Rebind every ``repro.*`` module attribute bound to ``fn``."""
    for mod_name, module in list(sys.modules.items()):
        if module is None or not (mod_name == "repro"
                                  or mod_name.startswith("repro.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is fn:
                undo.append((module, attr, fn))
                setattr(module, attr, wrapped)


class PhaseProbe:
    """Marks a tuning run's phases: when it leaves set-up (first entry to
    a tuner's ``run``) and how long it spends in teardown
    (``DistributedBackend.close``).  Two figures per tuning run, so it
    stays installed in untraced runs too.

    ``on_mark``, if set, is called at the mark, and ``on_finish`` when
    the run calls :meth:`finish` just before it reads its end time.
    """

    def __init__(self):
        self.mark: float | None = None
        self.teardown_s = 0.0
        self.on_mark = None
        self.on_finish = None

    def reset(self) -> None:
        self.mark = None
        self.teardown_s = 0.0

    def finish(self) -> None:
        if self.on_finish is not None:
            self.on_finish()

    def install(self) -> None:
        """Wrap every tuner's ``run`` and ``DistributedBackend.close``
        for the rest of the process."""
        from repro.dist.backend import DistributedBackend

        for cls in tuner_classes():
            _patch_class([], cls, "run", self._wrap_run)
        _patch_class([], DistributedBackend, "close", self._wrap_close)

    def _wrap_run(self, fn):
        probe = self

        @functools.wraps(fn)
        def run(*args, **kwargs):
            if probe.mark is None:
                probe.mark = time.perf_counter()
                if probe.on_mark is not None:
                    probe.on_mark()
            return fn(*args, **kwargs)

        return run

    def _wrap_close(self, fn):
        probe = self

        @functools.wraps(fn)
        def close(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                probe.teardown_s += time.perf_counter() - start

        return close


class LayerTracer:
    """Self time and call counts per layer for the calls made while
    installed.  Use as a context manager around one traced unit.
    """

    def __init__(self):
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.missing: list[str] = []
        self._stack: list[list] = []
        self._undo: list = []
        self._thread = threading.get_ident()

    # -- accounting -----------------------------------------------------

    def _enter(self, layer: str) -> list:
        frame = [layer, time.perf_counter(), 0.0]
        self._stack.append(frame)
        return frame

    def _exit(self, frame: list) -> None:
        end = time.perf_counter()
        layer, start, child_s = frame
        elapsed = end - start
        popped = self._stack.pop()
        if popped is not frame:
            raise RuntimeError(f"unbalanced tracer stack at {layer}")
        self.self_s[layer] += elapsed - child_s
        if self._stack:
            self._stack[-1][2] += elapsed

    # -- wrapping -------------------------------------------------------

    def _wrapper(self, fn, layer: str, count: str | None):
        tracer = self
        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                if threading.get_ident() != tracer._thread:
                    return (yield from fn(*args, **kwargs))
                if count:
                    tracer.calls[count] += 1
                gen = fn(*args, **kwargs)
                try:
                    while True:
                        frame = tracer._enter(layer)
                        try:
                            item = next(gen)
                        except StopIteration as stop:
                            return stop.value
                        finally:
                            tracer._exit(frame)
                        yield item
                finally:
                    frame = tracer._enter(layer)
                    try:
                        gen.close()
                    finally:
                        tracer._exit(frame)

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if threading.get_ident() != tracer._thread:
                return fn(*args, **kwargs)
            if count:
                tracer.calls[count] += 1
            frame = tracer._enter(layer)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._exit(frame)

        return wrapper

    def install(self) -> None:
        _import_callers()
        for target in TARGETS:
            module = importlib.import_module(target.module)
            owner_name, _, attr = target.qualname.rpartition(".")
            if owner_name:
                cls = getattr(module, owner_name, None)
                if cls is None or attr not in vars(cls):
                    self.missing.append(f"{target.module}.{target.qualname}")
                    continue
                _patch_class(
                    self._undo, cls, attr,
                    lambda fn, t=target: self._wrapper(fn, t.layer, t.count),
                )
                continue
            fn = getattr(module, attr, None)
            if fn is None:
                self.missing.append(f"{target.module}.{target.qualname}")
                continue
            _patch_function(
                self._undo, fn, self._wrapper(fn, target.layer, target.count)
            )
        for cls in tuner_classes():
            _patch_class(
                self._undo, cls, "run",
                lambda fn: self._wrapper(fn, "tuning", None),
            )

    def uninstall(self) -> None:
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)

    def __enter__(self) -> "LayerTracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def attributed_s(self) -> float:
        """Sum of every leaf layer's self time."""
        return sum(self.self_s.get(layer, 0.0) for layer in LEAF_LAYERS)
