"""``map_stream``: incremental results, identical to ``map``, everywhere.

Two properties, asserted per backend:

* **equivalence** — ``list(map_stream(fn, items)) == map(fn, items)``:
  same values, same input order, on every backend.
* **incrementality** — the first result is observed while the last job
  is still running (proved with a gate the consumer only opens *after*
  seeing the first result; an implementation that buffered the whole
  batch would deadlock and be killed by the gate's own timeout).
"""

import os
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from repro.dist.backend import DistributedBackend
from repro.exec.backend import (
    ProcessPoolBackend,
    SerialBackend,
    ThreadBackend,
)
from repro.exec.jobs import evaluate_configs, evaluate_configs_stream
from repro.tuning.evaluator import Evaluator
from repro.tuning.knobs import Knob, KnobSpace


def _square(x):
    return x * x


def _gated(item):
    """Job 1 busy-waits on a file gate; every other job returns at once."""
    gate, index = item
    if index == 1:
        deadline = time.monotonic() + 30
        while not os.path.exists(gate):
            assert time.monotonic() < deadline, "gate never opened"
            time.sleep(0.01)
    return index * 10


def _all_backends():
    return [
        SerialBackend(),
        ThreadBackend(jobs=2),
        ProcessPoolBackend(jobs=2),
        DistributedBackend(spawn_workers=2),
    ]


class TestStreamEqualsMap:
    def test_stream_matches_map_on_every_backend(self):
        items = list(range(10))
        for backend in _all_backends():
            try:
                expected = backend.map(_square, items)
                streamed = list(backend.map_stream(_square, items))
                assert streamed == expected, backend.name
                assert streamed == [n * n for n in items], backend.name
            finally:
                backend.close()

    def test_empty_stream_on_every_backend(self):
        for backend in _all_backends():
            try:
                assert list(backend.map_stream(_square, [])) == []
            finally:
                backend.close()


class TestIncrementality:
    def test_thread_stream_yields_before_last_job_finishes(self):
        gate = threading.Event()

        def job(index):
            if index == 1:
                assert gate.wait(30), "gate never opened"
            return index * 10

        with ThreadBackend(jobs=2) as backend:
            stream = backend.map_stream(job, [0, 1])
            # Job 1 cannot finish until we open the gate — so if this
            # yields, the first result arrived before the last job ended.
            assert next(stream) == 0
            gate.set()
            assert list(stream) == [10]

    def test_dist_stream_yields_before_last_job_finishes(self, tmp_path):
        gate = str(tmp_path / "gate")
        with DistributedBackend(spawn_workers=2) as backend:
            stream = backend.map_stream(_gated, [(gate, 0), (gate, 1)])
            assert next(stream) == 0
            Path(gate).touch()
            assert list(stream) == [10]

    def test_abandoned_dist_stream_forgets_its_jobs(self, tmp_path):
        gate = str(tmp_path / "gate")
        Path(gate).touch()  # nothing blocks; we just stop consuming
        with DistributedBackend(spawn_workers=2) as backend:
            stream = backend.map_stream(_gated, [(gate, n) for n in range(4)])
            assert next(stream) == 0
            stream.close()  # abandon mid-stream
            # The session forgets the batch at once...
            session = backend.client
            with session._cv:
                assert not session._outcomes and not session._pending
            # ...and the coordinator drops it once the cancel lands.
            coordinator = backend.coordinator
            deadline = time.monotonic() + 10
            while coordinator._jobs and time.monotonic() < deadline:
                time.sleep(0.01)
            assert not coordinator._jobs  # nothing leaks


class TestStreamingEvaluation:
    def test_evaluate_configs_stream_matches_batch(self):
        from repro.codegen.wrapper import GenerationOptions
        from repro.core.platform import PerformancePlatform
        from repro.sim.config import core_by_name

        configs = [{"ADD": n % 3 + 1, "LD": n % 2, "REG_DIST": 2}
                   for n in range(5)]
        platform = PerformancePlatform(core_by_name("small"),
                                       instructions=2_000)
        options = GenerationOptions(loop_size=80)
        with ThreadBackend(jobs=2) as backend:
            batch = evaluate_configs(backend, platform, options, configs)
            streamed = list(evaluate_configs_stream(
                backend, platform, options, configs
            ))
        assert streamed == batch

    def test_evaluator_on_result_fires_for_every_index(self):
        space = KnobSpace([Knob("A", (1.0, 2.0, 3.0)), Knob("B", (5.0, 6.0))])

        def batch_fn(configs):
            return [{"y": c["A"]} for c in configs]

        def batch_stream_fn(configs):
            for c in configs:
                yield {"y": c["A"]}

        ev = Evaluator(space, lambda c: {"y": c["A"]}, batch_fn=batch_fn,
                       batch_stream_fn=batch_stream_fn)
        seen = {}
        batch = [np.array([0.0, 0.0]), np.array([1.0, 0.0]),
                 np.array([0.0, 0.0])]  # index 2 duplicates index 0
        results = ev.evaluate_batch(batch, on_result=seen.__setitem__)
        assert set(seen) == {0, 1, 2}
        assert [seen[i] for i in range(3)] == results
        assert ev.unique_evaluations == 2  # dedup still applies

    def test_evaluator_on_result_fires_immediately_for_cache_hits(self):
        space = KnobSpace([Knob("A", (1.0, 2.0))])
        calls = []
        ev = Evaluator(space, lambda c: calls.append(1) or {"y": c["A"]})
        first = ev.evaluate(np.array([0.0]))
        seen = {}
        results = ev.evaluate_batch([np.array([0.0])],
                                    on_result=seen.__setitem__)
        assert seen == {0: first}
        assert results == [first]
        assert len(calls) == 1  # cache hit: no new evaluation

    def test_on_result_with_cache_disabled(self):
        space = KnobSpace([Knob("A", (1.0, 2.0))])
        ev = Evaluator(space, lambda c: {"y": c["A"]}, cache=False)
        seen = {}
        results = ev.evaluate_batch(
            [np.array([0.0]), np.array([1.0])], on_result=seen.__setitem__
        )
        assert [seen[i] for i in range(2)] == results
        assert ev.unique_evaluations == 2
