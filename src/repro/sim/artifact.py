"""Stage 1 of the simulator pipeline: shared per-program trace artifacts.

Every :meth:`Simulator.run` used to re-expand the dynamic trace and
re-analyze the dependency graph from scratch, even when the same program
was evaluated under several core configs (sensitivity / stress /
bottleneck sweeps, simpoint cloning) or by several platforms at once.
A :class:`TraceArtifact` computes the program-derived work once per
(program fingerprint, instruction budget) and memoizes every
core-dependent stage under a key of exactly the core parameters that
stage reads (see :mod:`repro.sim.events`), so a batch of core configs
shares all the work their parameters cannot distinguish:

* the expanded dynamic trace, per (iterations, line size);
* the dependency-graph critical path, per L1D hit latency;
* the stream wrap count, per L2 capacity;
* cache / branch / TLB / I-cache event simulations, per the geometry
  and predictor parameters each one consumes.

Stage-2 events are only computed in batches: ``memory_events_batch``,
``branch_events_batch`` and ``icache_events_batch`` take a list of
cores (one core is a batch of one) and hand the distinct keys missing
from the memo to one :mod:`repro.sim.events` batch call per trace
window.

Artifacts are held in a bounded :class:`TraceArtifactCache` (LRU); the
module-level :func:`artifact_for` uses a process-wide cache shared by
``Simulator.run_many`` and ``CompositePlatform``.
"""

from __future__ import annotations

import hashlib
import pickle
import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path

import numpy as np

from repro import obs
from repro.diskstore import LruDirectoryStore
from repro.isa.instructions import InstrClass
from repro.isa.program import (
    NONE,
    OPS,
    Program,
    group_fractions,
    register_of,
)
from repro.sim import events
from repro.sim.config import CoreConfig
from repro.sim.depgraph import critical_path_per_iteration
from repro.sim.trace import ExpandedTrace, expand

#: Upper bound on the adaptive warmup (loop iterations), keeping
#: worst-case evaluation cost bounded.  Streams that cannot wrap within
#: this many iterations behave identically cold or warm (they stream
#: through caches far smaller than their footprint).
MAX_WARMUP_ITERATIONS = 400
#: Leading share of the iteration budget the simulator spends warming
#: caches and predictors before the measured window.
WARMUP_FRACTION = 0.2
#: Measured-window bounds (loop iterations).  The generated loops are
#: periodic, so a short steady-state window yields exact rates.
MIN_MEASURE_ITERATIONS = 24
MAX_MEASURE_ITERATIONS = 160

#: Identity of the trace-expansion / artifact semantics.  Bump when a
#: change makes artifacts (and therefore metrics) non-bit-identical to
#: earlier versions; persistent result caches record it per entry and
#: treat a mismatch as a miss.
#:
#: v2: warmup-accounting fixes in :mod:`repro.sim.events` (clamped
#: warmup boundaries, warmup prefetch-hit leakage) changed event counts,
#: and memoized stage-2 results are now keyed by the engine that
#: produced them — v1 artifacts and result-cache entries must not be
#: reused.
#:
#: v3: the DTLB translates 4 KB pages from byte addresses instead of
#: assuming 64-byte lines, which changes ``dtlb_*`` counts (and so
#: cycles) for every core whose L1D line is not 64 bytes.
#:
#: v4: a :class:`~repro.isa.program.Program` stores its body as integer
#: columns, and a persisted artifact pickles its program: the new class
#: cannot read a v3 pickle of ``Instruction`` objects.  Metrics and
#: fingerprints are unchanged.
TRACE_SCHEMA = "trace-artifact-v4"


def trace_schema_fingerprint() -> str:
    """Short stable hash of the active trace schema."""
    return hashlib.sha256(TRACE_SCHEMA.encode()).hexdigest()[:12]


def program_fingerprint(program: Program) -> str:
    """Stable content hash of everything the simulator reads.

    Two programs with equal fingerprints expand to bit-identical traces
    and dependency graphs, so they can share one
    :class:`TraceArtifact`.  The hash covers the full instruction stream
    (operands, addresses, declarative memory/branch behaviour) plus the
    metadata keys the timing model consumes.  The value names on-disk
    artifact-store entries, so the hashed bytes must never change: per
    instruction, the ``repr`` of ``(mnemonic, latency, class value, dest
    names, src names, immediate, address, memory fields or None,
    (pattern, random_ratio, seed, taken_bias) or None)``, assembled from
    the columns by table lookups.
    """
    meta = program.metadata
    n = len(program)
    memory = ["None"] * n
    for row in program.memory.tolist():
        memory[row[0]] = _MEMORY_REPR % row[1:]
    branches = ["None"] * n
    patterns = [repr(p) for p in program.patterns]
    for slot, pattern, ratio, seed, bias in program.branches.tolist():
        branches[slot] = (
            f"({patterns[pattern]}, {ratio!r}, {seed!r}, {bias!r})"
        )
    dests = list(map(tuple, program.dests.tolist()))
    srcs = list(map(tuple, program.srcs.tolist()))
    # One register-name tuple repr per distinct operand row.
    names = {
        row: repr(tuple(register_of(r).name for r in row if r >= 0))
        for row in dict.fromkeys(dests + srcs)
    }
    parts = [
        f"entry={program.entry_address};"
        f"code_bytes={meta.get('code_bytes')};"
        f"dep={meta.get('dependency_distance')};"
        f"streams={len(meta.get('memory_streams') or [])};"
    ]
    parts += [
        f"{_OP_REPRS[op]}, {names[d]}, {names[s]}, "
        f"{'None' if imm == NONE else imm}, "
        f"{'None' if addr == NONE else addr}, {mem}, {br})"
        for op, d, s, imm, addr, mem, br in zip(
            program.ops.tolist(), dests, srcs, program.immediates.tolist(),
            program.addresses.tolist(), memory, branches,
        )
    ]
    return hashlib.sha256("".join(parts).encode()).hexdigest()[:32]


#: ``repr`` of a tuple of the eight ``MemoryAccess`` fields.
_MEMORY_REPR = "(" + ", ".join(["%d"] * 8) + ")"
#: ``repr((mnemonic, latency, class value))`` per op id, without the
#: closing parenthesis.
_OP_REPRS = tuple(
    repr((d.mnemonic, d.latency, d.iclass.value))[:-1] for d in OPS
)


@dataclass
class TraceArtifact:
    """Everything one (program, instruction budget) pair shares.

    Build with :meth:`TraceArtifact.build` (which validates the program
    once) or fetch from a :class:`TraceArtifactCache`.  The accessor
    methods memoize per core-parameter key, so calling them for many
    core configs only pays for the distinct parameter combinations.
    """

    program: Program
    fingerprint: str
    instructions: int
    loop_size: int
    budget_iters: int
    mem_per_iter: int
    br_per_iter: int
    static_counts: dict[InstrClass, int]
    group_fractions: dict[str, float]
    code_bytes: int
    dependency_distance: float
    parallel_streams: int
    _traces: dict[tuple, ExpandedTrace] = field(
        default_factory=dict, repr=False
    )
    _wrap: dict[tuple, int] = field(default_factory=dict, repr=False)
    _dep: dict[tuple, float] = field(default_factory=dict, repr=False)
    _schedules: dict[tuple, tuple[int, int]] = field(
        default_factory=dict, repr=False
    )
    _memory: dict[tuple, events.MemoryEvents] = field(
        default_factory=dict, repr=False
    )
    _branches: dict[tuple, tuple[int, int]] = field(
        default_factory=dict, repr=False
    )
    _icache: dict[tuple, tuple[int, int, int]] = field(
        default_factory=dict, repr=False
    )

    @classmethod
    def build(
        cls,
        program: Program,
        instructions: int,
        fingerprint: str | None = None,
    ) -> "TraceArtifact":
        """Characterize ``program`` once for the given budget."""
        with obs.span("trace.build"):
            return cls._build(program, instructions, fingerprint)

    @classmethod
    def _build(
        cls,
        program: Program,
        instructions: int,
        fingerprint: str | None,
    ) -> "TraceArtifact":
        program.validate()
        loop = len(program)
        meta = program.metadata
        counts = program.class_counts()
        return cls(
            program=program,
            fingerprint=fingerprint or program_fingerprint(program),
            instructions=instructions,
            loop_size=loop,
            budget_iters=max(2, round(instructions / loop)),
            mem_per_iter=sum(n for c, n in counts.items() if c.is_memory),
            br_per_iter=counts.get(InstrClass.BRANCH, 0),
            static_counts=counts,
            group_fractions=group_fractions(counts),
            code_bytes=meta.get("code_bytes", loop * 4),
            dependency_distance=float(meta.get("dependency_distance", 4)),
            parallel_streams=max(1, len(meta.get("memory_streams") or [])),
        )

    # -- stage 1: program-derived, core-parameter-keyed ------------------

    def trace(self, iterations: int, line_bytes: int) -> ExpandedTrace:
        """The expanded dynamic trace, shared across equal windows."""
        key = (iterations, line_bytes)
        trace = self._traces.get(key)
        if trace is None:
            with obs.span("trace.expand"):
                trace = expand(self.program, iterations, line_bytes=line_bytes)
            self._traces[key] = trace
        return trace

    def wrap_iterations(self, core: CoreConfig) -> int:
        """Iterations until the slowest relevant stream wraps once."""
        key = (core.l2.size_bytes,)
        wrap = self._wrap.get(key)
        if wrap is None:
            mem = self.program.memory
            # Footprints beyond ~1.2x the L2 stream cold or warm.
            fits = mem["footprint"] <= 1.2 * core.l2.size_bytes
            distinct_per_sweep = np.maximum(
                1, mem["footprint"] // mem["stride"]
            )[fits]
            distinct_per_iter = np.maximum(
                1, mem["step"] // mem["reuse_period"]
            )[fits]
            wrap = int((
                distinct_per_sweep / distinct_per_iter
            ).astype(np.int64).max(initial=-1)) + 1
            self._wrap[key] = wrap
        return wrap

    def schedule(
        self, core: CoreConfig, warmup_fraction: float
    ) -> tuple[int, int]:
        """(warmup iterations, measured iterations) for one core.

        Mid-sized footprints (bigger than L1, not much bigger than L2)
        only reach cache steady state after the streams wrap; the warmup
        extends so they wrap once, then a short periodic window is
        measured.  Footprints far beyond the L2 behave identically cold
        or warm (both stream), so the budget is not wasted on them.
        """
        key = (core.l2.size_bytes, warmup_fraction)
        cached = self._schedules.get(key)
        if cached is not None:
            return cached
        wrap = self.wrap_iterations(core)
        if wrap:
            warmup_iters = min(
                max(int(1.05 * wrap) + 1,
                    int(self.budget_iters * warmup_fraction)),
                MAX_WARMUP_ITERATIONS,
            )
        else:
            warmup_iters = max(1, int(self.budget_iters * warmup_fraction))
        measure_iters = min(
            max(MIN_MEASURE_ITERATIONS, self.budget_iters - warmup_iters),
            MAX_MEASURE_ITERATIONS,
        )
        self._schedules[key] = (warmup_iters, measure_iters)
        return warmup_iters, measure_iters

    def dep_cycles(self, core: CoreConfig) -> float:
        """Steady-state critical-path cycles added per loop iteration."""
        key = (core.l1d.latency,)
        dep = self._dep.get(key)
        if dep is None:
            with obs.span("trace.depgraph"):
                dep = critical_path_per_iteration(self.program, core)
            self._dep[key] = dep
        return dep

    # -- stage 2: config-batched event simulations, memoized ------------
    #
    # Memo keys carry the resolved engine stamp: engines are
    # bit-identical, but keeping their entries distinct means a
    # persisted artifact can never satisfy a lookup with a result
    # produced under different engine semantics (and lets property
    # tests hold both engines' results side by side).

    def _trace_events_batch(
        self,
        memo: dict,
        event_key,
        simulate,
        per_iter: int,
        span,
        cores: list[CoreConfig],
        warmup_iters_list: list[int],
        iterations_list: list[int],
        engine: str | None,
    ) -> list:
        """Fill ``memo`` for every core through one ``simulate`` batch
        per trace window (iterations, line size), each timed by the
        (reusable) ``span``; return the results in core order.  The
        window is expanded (or fetched) before the span opens, so the
        span times event work only.  Only distinct keys missing from
        the memo are simulated, so memo contents never depend on how
        cores were batched."""
        engine = events.resolve_engine(engine)
        keys = [
            (engine,) + event_key(core) + (warmup, iters)
            for core, warmup, iters in zip(
                cores, warmup_iters_list, iterations_list
            )
        ]
        pending: dict[tuple, int] = {}
        for i, key in enumerate(keys):
            if key not in memo:
                pending.setdefault(key, i)
        groups: dict[tuple, list[int]] = {}
        for i in pending.values():
            groups.setdefault(
                (iterations_list[i], cores[i].l1d.line_bytes), []
            ).append(i)
        for (iterations, line_bytes), slots in groups.items():
            trace = self.trace(iterations, line_bytes)
            with span:
                batch = simulate(
                    [cores[i] for i in slots],
                    trace,
                    [warmup_iters_list[i] * per_iter for i in slots],
                    engine=engine,
                )
            for i, res in zip(slots, batch):
                memo[keys[i]] = res
        return [memo[key] for key in keys]

    def memory_events_batch(
        self,
        cores: list[CoreConfig],
        warmup_iters_list: list[int],
        iterations_list: list[int],
        engine: str | None = None,
    ) -> list[events.MemoryEvents]:
        """Cache/TLB/prefetch events per core; one
        :func:`repro.sim.events.simulate_memory_batch` call per trace
        window shares precomputed trace columns (set indices, LRU
        recency ranks, ...) across the cores that read it."""
        return self._trace_events_batch(
            self._memory, events.memory_event_key,
            events.simulate_memory_batch, self.mem_per_iter,
            obs.span("events.memory"), cores, warmup_iters_list,
            iterations_list, engine,
        )

    def branch_events_batch(
        self,
        cores: list[CoreConfig],
        warmup_iters_list: list[int],
        iterations_list: list[int],
        engine: str | None = None,
    ) -> list[tuple[int, int]]:
        """(mispredicts, lookups) per core; distinct predictors share
        packed histories and ride stacked counter scans in one
        :func:`repro.sim.events.simulate_branches_batch` call per
        trace window."""
        return self._trace_events_batch(
            self._branches, events.branch_event_key,
            events.simulate_branches_batch, self.br_per_iter,
            obs.span("events.branch"), cores, warmup_iters_list,
            iterations_list, engine,
        )

    def icache_events_batch(
        self,
        cores: list[CoreConfig],
        measure_iters_list: list[int],
        engine: str | None = None,
    ) -> list[tuple[int, int, int]]:
        """(l1i hits, l1i misses, l2-side code misses) per core for its
        measured window.  The icache model reads only the code
        footprint — no trace window — so all memo misses go to
        :func:`repro.sim.events.simulate_icache_batch` in one call."""
        engine = events.resolve_engine(engine)
        keys = [
            (engine,) + events.icache_event_key(core) + (iters,)
            for core, iters in zip(cores, measure_iters_list)
        ]
        pending: dict[tuple, int] = {}
        for i, key in enumerate(keys):
            if key not in self._icache:
                pending.setdefault(key, i)
        if pending:
            slots = list(pending.values())
            with obs.span("events.icache"):
                batch = events.simulate_icache_batch(
                    [cores[i] for i in slots],
                    self.code_bytes,
                    [measure_iters_list[i] for i in slots],
                    engine=engine,
                )
            for i, res in zip(slots, batch):
                self._icache[keys[i]] = res
        return [self._icache[key] for key in keys]

    def memo_count(self) -> int:
        """Total memoized stage results (cheap dirty check for stores)."""
        return (
            len(self._traces) + len(self._wrap) + len(self._dep)
            + len(self._schedules) + len(self._memory)
            + len(self._branches) + len(self._icache)
        )


class DiskArtifactStore(LruDirectoryStore):
    """Shared on-disk store of :class:`TraceArtifact` pickles.

    Worker processes (process pools, distributed workers, repeated CLI
    runs) each used to rebuild every trace artifact from scratch; a
    store shared through a common directory makes the cluster compute
    each artifact — including its memoized event-simulation stages —
    **once**, with everyone else loading the pickle.

    Layout: ``root/<schema fingerprint>/<program fingerprint>-<budget>.pkl``.
    The schema directory stamps every entry with the trace-artifact
    semantics that produced it; after a semantics bump, old entries are
    simply never looked at (and compaction of the active schema keeps
    the store bounded).  Writes go through the shared
    :class:`~repro.diskstore.LruDirectoryStore`: atomic (temp + rename),
    so two processes racing to store the same fingerprint can only ever
    publish equivalent bytes — last writer wins, both entries are valid.

    Args:
        root: store directory (created if missing).
        max_entries: optional cap on entries *within the active schema*;
            least-recently-used pickles (by file mtime — hits re-touch)
            are compacted away once exceeded.
        schema: trace-semantics stamp; defaults to the fingerprint of
            the running :data:`TRACE_SCHEMA`.
    """

    _suffix = ".pkl"
    _evictions_metric = "cache.artifact.evictions"

    def __init__(
        self,
        root: str | Path,
        max_entries: int | None = None,
        schema: str | None = None,
    ):
        self.root = Path(root)
        self.schema = schema or trace_schema_fingerprint()
        self._init_store(
            self.root / self.schema, None,
            f"artifact store root {str(self.root)!r} is not usable",
        )
        self.set_max_entries(max_entries)

    def set_max_entries(self, max_entries: int | None) -> None:
        """(Re)apply an entry cap, compacting immediately if needed."""
        self._set_cap(max_entries)
        if max_entries is not None:
            self.compact()

    def _path(self, fingerprint: str, instructions: int) -> Path:
        return self.dir / f"{fingerprint}-{instructions}.pkl"

    def get(self, fingerprint: str, instructions: int) -> TraceArtifact | None:
        """Load the stored artifact for a key; ``None`` on any miss.

        Unreadable or truncated pickles (a concurrent writer mid-publish
        cannot cause this — renames are atomic — but a copied or damaged
        store can) count as misses rather than errors.
        """
        path = self._path(fingerprint, instructions)
        try:
            artifact = pickle.loads(path.read_bytes())
        except Exception:
            self.misses += 1
            obs.inc("cache.artifact.misses")
            return None
        if (
            not isinstance(artifact, TraceArtifact)
            or artifact.fingerprint != fingerprint
            or artifact.instructions != instructions
        ):
            self.misses += 1
            obs.inc("cache.artifact.misses")
            return None
        self._touch(path)
        self.hits += 1
        obs.inc("cache.artifact.hits")
        return artifact

    def put(self, artifact: TraceArtifact) -> None:
        """Persist one artifact (atomic; best-effort on full disks)."""
        self._publish(
            self._path(artifact.fingerprint, artifact.instructions),
            partial(pickle.dump, artifact, protocol=pickle.HIGHEST_PROTOCOL),
        )

    def recent(self, limit: int = 8) -> list[TraceArtifact]:
        """The newest stored artifacts, most recent first.

        This is the prefetch seed: a client session opening against a
        persistent cluster pushes these to the coordinator before its
        first dispatch, so the sweep's working set is warm on every
        worker before any of them traces a program.  Unreadable pickles
        are skipped, like :meth:`get` misses.
        """
        if limit < 1:
            return []
        artifacts: list[TraceArtifact] = []
        for _, path in self._entries(newest_first=True):
            if len(artifacts) >= limit:
                break
            try:
                artifact = pickle.loads(path.read_bytes())
            except Exception:
                continue
            if isinstance(artifact, TraceArtifact):
                artifacts.append(artifact)
        return artifacts


#: Process-wide store attached by :func:`attach_artifact_store`; every
#: ``TraceArtifactCache`` built without an explicit ``store=`` consults
#: it, so one call wires instance caches and the global cache alike.
_ACTIVE_STORE: DiskArtifactStore | None = None

#: Sentinel: "use whatever store is attached process-wide".
_INHERIT = object()


def attach_artifact_store(
    root: str | Path, max_entries: int | None = None
) -> DiskArtifactStore:
    """Attach a process-wide on-disk artifact store rooted at ``root``.

    Idempotent per root: re-attaching the same directory keeps the
    existing store (and its hit/miss counters), though an explicit
    ``max_entries`` is re-applied so a newly requested cap takes effect.
    Every evaluation chunk attaches its caller's store wherever it runs
    (:func:`repro.exec.jobs.evaluate_configs`), and the ``repro.cli
    worker`` subcommand calls this at startup, so one ``cache_dir=``
    setting wires the whole cluster.
    """
    global _ACTIVE_STORE
    root = Path(root)
    if _ACTIVE_STORE is not None and _ACTIVE_STORE.root == root:
        if max_entries is not None \
                and max_entries != _ACTIVE_STORE.max_entries:
            _ACTIVE_STORE.set_max_entries(max_entries)
        return _ACTIVE_STORE
    _ACTIVE_STORE = DiskArtifactStore(root, max_entries=max_entries)
    return _ACTIVE_STORE


def detach_artifact_store() -> None:
    """Detach the process-wide store (tests, teardown)."""
    global _ACTIVE_STORE
    _ACTIVE_STORE = None


def active_artifact_store() -> DiskArtifactStore | None:
    """The store attached by :func:`attach_artifact_store`, if any."""
    return _ACTIVE_STORE


class TraceArtifactCache:
    """Bounded LRU cache of artifacts keyed by (fingerprint, budget).

    Thread-safe: ``ThreadBackend`` workers share platform simulators
    (and the process-wide cache), so lookup, LRU bookkeeping and
    eviction are serialized under a lock.  Artifacts are built under
    the lock too — a build is a one-time cost per (program, budget) and
    racing duplicate builds would waste exactly the work this cache
    exists to share.
    """

    #: Lock discipline, enforced by the ``lock-discipline`` checker of
    #: :mod:`repro.analysis`.  ``hits``/``misses`` are deliberately
    #: unguarded: they are only *written* under the lock, and external
    #: readers tolerate a stale count (they are statistics, not state).
    GUARDED_BY = {
        "_entries": "_lock",
        "_persisted": "_lock",
    }

    def __init__(self, maxsize: int = 16, store=_INHERIT):
        if maxsize < 1:
            raise ValueError("artifact cache needs maxsize >= 1")
        self.maxsize = maxsize
        self._store = store
        self._entries: OrderedDict[tuple, TraceArtifact] = OrderedDict()
        self._persisted: dict[tuple, int] = {}
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0

    @property
    def store(self) -> DiskArtifactStore | None:
        """This cache's on-disk store (process-wide one by default)."""
        if self._store is _INHERIT:
            return _ACTIVE_STORE
        return self._store

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._persisted.clear()

    def get_or_build(
        self, program: Program, instructions: int
    ) -> TraceArtifact:
        """Fetch the artifact for (program content, budget), building on miss.

        Misses consult the attached :class:`DiskArtifactStore` (when one
        is configured) before building, so sibling processes sharing a
        store directory build each artifact once between them.
        """
        with self._lock:
            # Fingerprint and lookup share one span, which closes before
            # a miss builds, so it never nests trace.build.
            with obs.span("artifact.lookup"):
                key = (program_fingerprint(program), instructions)
                artifact = self._entries.get(key)
                if artifact is not None:
                    self._entries.move_to_end(key)
                    self.hits += 1
                    return artifact
                self.misses += 1
                store = self.store
                if store is not None:
                    artifact = store.get(*key)
                    if artifact is not None:
                        self._persisted[key] = artifact.memo_count()
            if artifact is None:
                artifact = TraceArtifact.build(
                    program, instructions, fingerprint=key[0]
                )
            self._entries[key] = artifact
            while len(self._entries) > self.maxsize:
                dropped_key, _ = self._entries.popitem(last=False)
                self._persisted.pop(dropped_key, None)
            return artifact

    def persist(self, artifact: TraceArtifact) -> bool:
        """Write ``artifact`` (with its memoized stages) to the store.

        Called after an evaluation pass so the store captures the event
        simulations memoized during it, not just the freshly built
        shell.  No-op without a store or when nothing new was memoized
        since the last persist.  Returns whether a write happened.
        """
        store = self.store
        if store is None:
            return False
        key = (artifact.fingerprint, artifact.instructions)
        with self._lock:
            memos = artifact.memo_count()
            if self._persisted.get(key) == memos:
                return False
            self._persisted[key] = memos
        with obs.span("artifact.persist"):
            store.put(artifact)
        return True


#: Process-wide artifact cache: ``Simulator.run_many`` and
#: ``CompositePlatform`` share trace work through it by default.
GLOBAL_ARTIFACT_CACHE = TraceArtifactCache(maxsize=32)


def artifact_for(
    program: Program,
    instructions: int,
    cache: TraceArtifactCache | None = None,
) -> TraceArtifact:
    """The shared artifact for (program, budget), via ``cache`` or the
    process-wide default."""
    # Explicit None check: an *empty* cache is falsy (``__len__``), and
    # ``cache or GLOBAL`` would silently bypass a fresh instance cache.
    if cache is None:
        cache = GLOBAL_ARTIFACT_CACHE
    return cache.get_or_build(program, instructions)
