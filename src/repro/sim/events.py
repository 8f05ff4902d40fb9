"""Stage 2 of the simulator pipeline: per-core event simulation.

The functions here drive a batch of core configurations' cache
hierarchies, branch predictors, TLBs and instruction caches over a shared
:class:`~repro.sim.trace.ExpandedTrace` (stage 1,
:mod:`repro.sim.artifact`) and count the miss events the interval timing
model (stage 3, :mod:`repro.sim.interval`) charges for.

Each core's result is a pure function of (core parameters, trace, warmup
boundary), and each event family exposes a ``*_key`` companion returning
exactly the core parameters it reads.  The keys let
:class:`~repro.sim.artifact.TraceArtifact` memoize event results across
core configs: two configs that differ only in back-end width share one
memory simulation bit-for-bit, which is where ``Simulator.run_many``
earns its speedup.

Two engines implement the same semantics:

* ``engine="reference"`` — the original per-access Python loops, kept as
  the oracle for property tests and as a fallback;
* ``engine="vectorized"`` (default) — numpy array kernels.  Branch
  predictors (gshare, bimodal, tournament) are evaluated with
  saturating-counter scans: tables indexed by branch site alone scan a
  loop trace in loop order, history-indexed tables scan segments of a
  sorted layout of precomputed table indices; the memory
  hierarchy precomputes per-access set indices and page numbers with
  numpy, then either extrapolates the steady state of a periodic trace
  (simulate one cycle of the cache/TLB/prefetcher state machine, skip
  the repeats) or — for aperiodic/streaming traces — computes exact
  per-access LRU recency ranks with a set-parallel scan (see
  :func:`_lru_position_kernel`), so ``_trace_period() == 0`` no longer
  means reference speed.

Config batching is the only entry point: :func:`simulate_memory_batch`,
:func:`simulate_branches_batch` and :func:`simulate_icache_batch`
evaluate N core configs over one trace in a single pass, and one config
is a batch of one.  The vectorized memory and branch passes share the
precomputed trace columns (set indices, pages, recency ranks, packed
branch histories) across every config that cannot distinguish them.
Those columns live in a scratch dict local to the call, keyed by the
geometry that shapes them; nothing is cached on the trace.

Both engines are bit-identical: every event count an engine returns is
exactly equal to the reference loop's.  ``REPRO_EVENT_ENGINE`` selects
the process-wide default.  Because engine equality is asserted on whole
result objects, the engine path that actually ran is reported
out-of-band as ``engine_path.<stage>.<path>`` counters in the
:mod:`repro.obs` registry: ``memory.batch``, ``branch.batch`` and
``icache.batch`` (one per vectorized batch call),
``memory.vectorized.{periodic,aperiodic,straight}`` (one per distinct
memory key in the batch), ``branch.sites`` (one per predictor table
scanned in loop order, see :func:`_site_prestates`),
``branch.doubling`` (one per sorted branch layout whose scans take the
doubling kernel, see :func:`_counter_layout`), and
``memory.reference``/``branch.reference`` (one per config the
reference engine runs).  Read them with
``obs.counters("engine_path.")`` and zero them with
``obs.reset("engine_path.")``.  Each path is also logged at DEBUG level.
"""

from __future__ import annotations

import logging
import os
from collections import OrderedDict, defaultdict
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from repro import obs
from repro.sim.cache import cyclic_code_hits, cyclic_code_hits_closed
from repro.sim.config import CoreConfig
from repro.sim.trace import ExpandedTrace

logger = logging.getLogger(__name__)

#: Supported event-simulation engines.
ENGINES = ("reference", "vectorized")

#: Engine used when callers pass ``engine=None`` and the environment
#: does not override it.
DEFAULT_ENGINE = "vectorized"

#: Environment override for the process-wide default engine.
ENGINE_ENV_VAR = "REPRO_EVENT_ENGINE"

# 4 KB pages: page = byte address >> 12.
_PAGE_SHIFT = 12

#: Cap on state snapshots taken while hunting for a steady-state cycle;
#: traces that do not revisit a state within this many periods fall back
#: to straight simulation of the remainder.
_MAX_SNAPSHOTS = 32

#: Aperiodic recency-rank kernel feasibility.  The set-parallel scan
#: runs one python-level round per position of the *longest* per-set
#: access stream, so it only wins when accesses spread across sets;
#: tiny traces or heavily skewed set distributions run the straight
#: per-access loop instead (and are counted as such).
_MIN_ROUNDS_TRACE = 128
_ROUNDS_IMBALANCE = 8

def _record_path(path: str) -> None:
    """Count one simulation down ``path`` (an ``engine_path.*`` counter)."""
    obs.inc(obs.ENGINE_PATH_PREFIX + path)
    logger.debug("event engine path: %s", path)


def resolve_engine(engine: str | None = None) -> str:
    """Resolve an engine name, falling back to the configured default.

    Raises:
        ValueError: for names outside :data:`ENGINES`.
    """
    resolved = engine or os.environ.get(ENGINE_ENV_VAR) or DEFAULT_ENGINE
    if resolved not in ENGINES:
        raise ValueError(
            f"unknown event engine {resolved!r}; choose from {ENGINES}"
        )
    return resolved


@dataclass
class MemoryEvents:
    """L1D/L2/TLB/prefetch event counts for one measurement window."""

    load_l1_misses: int = 0
    load_l2_misses: int = 0
    store_l1_misses: int = 0
    store_l2_misses: int = 0
    l1d_hits: int = 0
    l1d_accesses: int = 0
    l2_hits: int = 0
    l2_accesses: int = 0
    prefetch_installs: int = 0
    prefetch_hits: int = 0
    dtlb_misses: int = 0
    dtlb_accesses: int = 0


def _large_family(name: str) -> bool:
    """Whether a core name belongs to the large family (``large`` or
    ``large-*``).

    Event parameters that :class:`~repro.sim.config.CoreConfig` does not
    carry (predictor tables, DTLB size) are constants keyed by core
    name: its layout is pinned by platform identity hashes, so derived
    cores (``large-tournament``, ``small-bimodal``, ...) inherit their
    base family's sizes and pick the predictor kind by name suffix
    instead of a new config field.
    """
    return name == "large" or name.startswith("large-")


def _dtlb_entries(core: CoreConfig) -> int:
    """Fully-associative LRU DTLB capacity over 4 KB pages."""
    return 128 if _large_family(core.name) else 48


def memory_event_key(core: CoreConfig) -> tuple:
    """Every core parameter :func:`simulate_memory_batch` reads."""
    return (
        core.l1d.num_sets,
        core.l1d.assoc,
        core.l1d.line_bytes,
        core.l2.num_sets,
        core.l2.assoc,
        core.l2_prefetcher,
        _dtlb_entries(core),
    )


def _clamped_warmup(warmup: int, total: int) -> int:
    """Warmup boundary clamped into ``[0, total]``.

    A requested warmup at or beyond the end of the trace leaves an empty
    measurement window: nothing is counted (previously the counting flag
    never flipped, so warmup-inclusive TLB counters leaked into an
    otherwise all-zero result).
    """
    return min(max(warmup, 0), total)


def _simulate_memory_reference(
    core: CoreConfig, trace: ExpandedTrace, warmup_accesses: int
) -> MemoryEvents:
    """Per-access loop over the trace (the oracle engine).

    The per-set L1/L2 LRU state is inlined as plain lists and the DTLB
    as an ``OrderedDict`` LRU of 4 KB pages, translated from each
    access's byte address.  Warmup accesses train every structure but
    count nothing.  This loop is what the vectorized engine must match
    bit for bit.
    """
    _record_path("memory.reference")
    res = MemoryEvents()
    lines = trace.mem_lines.tolist()
    n = len(lines)
    warmup = _clamped_warmup(warmup_accesses, n)
    if warmup >= n:
        return res

    l1_sets: list[list[int]] = [[] for _ in range(core.l1d.num_sets)]
    l2_sets: list[list[int]] = [[] for _ in range(core.l2.num_sets)]
    n1 = core.l1d.num_sets
    n2 = core.l2.num_sets
    a1 = core.l1d.assoc
    a2 = core.l2.assoc
    prefetching = core.l2_prefetcher
    # Reference-prediction table: pc -> (last_line, stride, confirmed).
    rpt: dict[int, tuple[int, int, bool]] = {}
    prefetched: set[int] = set()
    tlb: OrderedDict[int, None] = OrderedDict()
    tlb_entries = _dtlb_entries(core)
    line_bytes = trace.line_bytes

    stores = trace.mem_is_store.tolist()
    pcs = trace.mem_pcs.tolist()
    counting = warmup == 0
    for k, (pc, line, is_store) in enumerate(zip(pcs, lines, stores)):
        if not counting and k >= warmup:
            counting = True
        page = (line * line_bytes) >> _PAGE_SHIFT
        if page in tlb:
            tlb.move_to_end(page)
        else:
            if counting:
                res.dtlb_misses += 1
            if len(tlb) >= tlb_entries:
                tlb.popitem(last=False)
            tlb[page] = None
        set1 = l1_sets[line % n1]
        if line in set1:
            set1.remove(line)
            set1.append(line)
            if counting:
                res.l1d_hits += 1
                res.l1d_accesses += 1
            continue
        # L1 miss: fill L1, look up L2.
        set1.append(line)
        if len(set1) > a1:
            del set1[0]
        set2 = l2_sets[line % n2]
        if line in set2:
            l2_hit = True
            set2.remove(line)
            set2.append(line)
            # A prefetched line's first use consumes its prefetched
            # mark whether or not the use lands in the measured window;
            # only the *count* is gated on measuring.  (Discarding only
            # while counting let warmup-covered prefetches inflate a
            # later measured prefetch_hits.)
            if line in prefetched:
                prefetched.discard(line)
                if counting:
                    res.prefetch_hits += 1
        else:
            l2_hit = False
            set2.append(line)
            if len(set2) > a2:
                evicted = set2[0]
                del set2[0]
                prefetched.discard(evicted)
        if prefetching:
            last_line, last_stride, confirmed = rpt.get(pc, (line, 0, False))
            stride = line - last_line
            if stride:
                confirmed = stride == last_stride
            if confirmed and stride:
                for d in (1, 2):
                    target = line + stride * d
                    pset = l2_sets[target % n2]
                    if target not in pset:
                        pset.append(target)
                        if len(pset) > a2:
                            evicted = pset[0]
                            del pset[0]
                            prefetched.discard(evicted)
                        prefetched.add(target)
                        if counting:
                            res.prefetch_installs += 1
            rpt[pc] = (line, stride if stride else last_stride, confirmed)
        if counting:
            res.l1d_accesses += 1
            res.l2_accesses += 1
            if l2_hit:
                res.l2_hits += 1
            if is_store:
                res.store_l1_misses += 1
                if not l2_hit:
                    res.store_l2_misses += 1
            else:
                res.load_l1_misses += 1
                if not l2_hit:
                    res.load_l2_misses += 1
    # Every measured access translates exactly once.
    res.dtlb_accesses = n - warmup
    return res


def _trace_period(trace: ExpandedTrace) -> int:
    """Minimal iteration period of the memory access pattern (0 = none).

    The generated loops expand to purely periodic per-iteration access
    slabs (strided streams wrap their footprints, reuse windows repeat),
    so the (lines, pcs, stores) arrays reshaped to one row per iteration
    repeat with some row period ``p``.  Candidate periods are rows equal
    to row 0; each is verified with a full shift comparison, so a
    returned period is exact, never a heuristic.  The result is
    core-independent and memoized on the trace, so one detection serves
    every memory simulation of a config sweep.
    """
    if trace.min_period is not None:
        return trace.min_period
    trace.min_period = _detect_trace_period(trace)
    return trace.min_period


def _detect_trace_period(trace: ExpandedTrace) -> int:
    n = int(trace.mem_lines.shape[0])
    iters = trace.iterations
    if iters <= 1 or n == 0 or n % iters:
        return 0
    m = n // iters
    lines = np.ascontiguousarray(trace.mem_lines).reshape(iters, m)
    pcs = np.ascontiguousarray(trace.mem_pcs).reshape(iters, m)
    stores = np.ascontiguousarray(trace.mem_is_store).reshape(iters, m)
    rows_eq = (
        np.all(lines == lines[0], axis=1)
        & np.all(pcs == pcs[0], axis=1)
        & np.all(stores == stores[0], axis=1)
    )
    # Every candidate gets considered (a silent cap here misclassified
    # long-period traces as aperiodic), but most are rejected by a cheap
    # necessary condition first: if p is the period, every p-th row
    # equals row 0, so one strided all() prunes a false candidate
    # without the full three-array shift comparison.
    candidates = np.nonzero(rows_eq[1:])[0] + 1
    for p in candidates.tolist():
        if not bool(np.all(rows_eq[p::p])):
            continue
        if (
            np.array_equal(lines[p:], lines[:-p])
            and np.array_equal(pcs[p:], pcs[:-p])
            and np.array_equal(stores[p:], stores[:-p])
        ):
            return int(p)
    return 0


class _MemoryKernel:
    """Cache/TLB/prefetcher state machine over precomputed access arrays.

    Owns exactly the per-access semantics of the reference loop; the
    vectorized engine owns the schedule — which trace slices are
    simulated and which whole steady-state cycles are skipped via
    extrapolation.  Set indices and page numbers arrive precomputed
    (numpy) so the inner loop does no address arithmetic.
    """

    #: Counter attributes, in :class:`MemoryEvents` field order followed
    #: by the measured-window TLB counters.
    _COUNTERS = (
        "load_l1_misses", "load_l2_misses", "store_l1_misses",
        "store_l2_misses", "l1d_hits", "l1d_accesses", "l2_hits",
        "l2_accesses", "prefetch_installs", "prefetch_hits",
        "tlb_hits", "tlb_misses",
    )

    def __init__(self, core: CoreConfig, lines, stores, pcs,
                 set1_idx, set2_idx, pages):
        # Access arrays stay numpy; run() converts just the slices it
        # actually simulates (extrapolation skips most of the trace, so
        # eager whole-trace .tolist() would dominate the engine's cost).
        self.lines = lines
        self.stores = stores
        self.pcs = pcs
        self.set1_idx = set1_idx
        self.set2_idx = set2_idx
        self.pages = pages
        self.n1 = core.l1d.num_sets
        self.n2 = core.l2.num_sets
        self.a1 = core.l1d.assoc
        self.a2 = core.l2.assoc
        self.prefetching = core.l2_prefetcher
        self.tlb_entries = _dtlb_entries(core)
        # Sets materialize lazily: only the footprint's sets ever exist,
        # which also keeps state snapshots proportional to resident
        # lines instead of cache geometry.
        self.l1_sets: defaultdict[int, list[int]] = defaultdict(list)
        self.l2_sets: defaultdict[int, list[int]] = defaultdict(list)
        self.rpt: dict[int, tuple[int, int, bool]] = {}
        self.prefetched: set[int] = set()
        self.tlb_pages: OrderedDict[int, None] = OrderedDict()
        for name in self._COUNTERS:
            setattr(self, name, 0)

    def snapshot_key(self) -> tuple:
        """Hashable snapshot of every state bit that drives evolution."""
        return (
            tuple(sorted(
                (s, tuple(w)) for s, w in self.l1_sets.items() if w
            )),
            tuple(sorted(
                (s, tuple(w)) for s, w in self.l2_sets.items() if w
            )),
            tuple(sorted(self.rpt.items())),
            frozenset(self.prefetched),
            tuple(self.tlb_pages),
        )

    def counts_key(self) -> tuple:
        return tuple(getattr(self, name) for name in self._COUNTERS)

    def add_counts(self, delta: tuple, times: int) -> None:
        """Extrapolate: add ``times`` repetitions of a per-cycle delta."""
        for name, value in zip(self._COUNTERS, delta):
            setattr(self, name, getattr(self, name) + value * times)

    def finish(self) -> MemoryEvents:
        return MemoryEvents(
            load_l1_misses=self.load_l1_misses,
            load_l2_misses=self.load_l2_misses,
            store_l1_misses=self.store_l1_misses,
            store_l2_misses=self.store_l2_misses,
            l1d_hits=self.l1d_hits,
            l1d_accesses=self.l1d_accesses,
            l2_hits=self.l2_hits,
            l2_accesses=self.l2_accesses,
            prefetch_installs=self.prefetch_installs,
            prefetch_hits=self.prefetch_hits,
            dtlb_misses=self.tlb_misses,
            dtlb_accesses=self.tlb_hits + self.tlb_misses,
        )

    def run(self, start: int, stop: int, counting: bool) -> None:
        """Simulate accesses ``[start, stop)``, counting if measuring."""
        if stop <= start:
            return
        l1_sets = self.l1_sets
        l2_sets = self.l2_sets
        a1 = self.a1
        a2 = self.a2
        n2 = self.n2
        prefetching = self.prefetching
        rpt = self.rpt
        prefetched = self.prefetched
        tlb_pages = self.tlb_pages
        tlb_entries = self.tlb_entries
        tlb_hits = tlb_misses = 0
        l1d_hits = l1d_accesses = l2_hits = l2_accesses = 0
        load_l1 = load_l2 = store_l1 = store_l2 = 0
        pf_installs = pf_hits = 0
        # Convert only the simulated slice to Python scalars; skip the
        # columns this run cannot read (pcs feed only the prefetcher,
        # store flags only the measured-window attribution).
        pcs = (
            self.pcs[start:stop].tolist() if self.prefetching
            else repeat(0)
        )
        stores = (
            self.stores[start:stop].tolist() if counting
            else repeat(False)
        )
        for pc, line, is_store, s1, s2, page in zip(
            pcs, self.lines[start:stop].tolist(), stores,
            self.set1_idx[start:stop].tolist(),
            self.set2_idx[start:stop].tolist(),
            self.pages[start:stop].tolist(),
        ):
            if page in tlb_pages:
                tlb_pages.move_to_end(page)
                tlb_hits += 1
            else:
                tlb_misses += 1
                if len(tlb_pages) >= tlb_entries:
                    tlb_pages.popitem(last=False)
                tlb_pages[page] = None
            set1 = l1_sets[s1]
            if line in set1:
                set1.remove(line)
                set1.append(line)
                if counting:
                    l1d_hits += 1
                    l1d_accesses += 1
                continue
            set1.append(line)
            if len(set1) > a1:
                del set1[0]
            set2 = l2_sets[s2]
            if line in set2:
                l2_hit = True
                set2.remove(line)
                set2.append(line)
                if line in prefetched:
                    prefetched.discard(line)
                    if counting:
                        pf_hits += 1
            else:
                l2_hit = False
                set2.append(line)
                if len(set2) > a2:
                    evicted = set2[0]
                    del set2[0]
                    prefetched.discard(evicted)
            if prefetching:
                last_line, last_stride, confirmed = rpt.get(
                    pc, (line, 0, False)
                )
                stride = line - last_line
                if stride:
                    confirmed = stride == last_stride
                if confirmed and stride:
                    for d in (1, 2):
                        target = line + stride * d
                        pset = l2_sets[target % n2]
                        if target not in pset:
                            pset.append(target)
                            if len(pset) > a2:
                                evicted = pset[0]
                                del pset[0]
                                prefetched.discard(evicted)
                            prefetched.add(target)
                            if counting:
                                pf_installs += 1
                rpt[pc] = (line, stride if stride else last_stride, confirmed)
            if counting:
                l1d_accesses += 1
                l2_accesses += 1
                if l2_hit:
                    l2_hits += 1
                if is_store:
                    store_l1 += 1
                    if not l2_hit:
                        store_l2 += 1
                else:
                    load_l1 += 1
                    if not l2_hit:
                        load_l2 += 1
        if counting:
            self.tlb_hits += tlb_hits
            self.tlb_misses += tlb_misses
            self.l1d_hits += l1d_hits
            self.l1d_accesses += l1d_accesses
            self.l2_hits += l2_hits
            self.l2_accesses += l2_accesses
            self.load_l1_misses += load_l1
            self.load_l2_misses += load_l2
            self.store_l1_misses += store_l1
            self.store_l2_misses += store_l2
            self.prefetch_installs += pf_installs
            self.prefetch_hits += pf_hits


def _shared_get(shared: dict, key: tuple, build):
    """Memoize ``build()`` under ``key`` in a batch's scratch dict."""
    value = shared.get(key)
    if value is None:
        value = build()
        shared[key] = value
    return value


def _shared_ranks(shared: dict, key: tuple, depth: int, build):
    """Recency ranks capped at ``depth``, reusing any run at least that
    deep: ranks past the needed associativity are all equally "miss"."""
    cached = shared.get(key)
    if cached is not None and cached[0] >= depth:
        return cached[1]
    ranks = build()
    shared[key] = (depth, ranks)
    return ranks


def _memory_columns(
    core: CoreConfig, trace: ExpandedTrace, shared: dict
) -> tuple:
    """Precomputed per-access columns, shared across a config batch."""
    lines = _shared_get(
        shared, ("lines",),
        lambda: np.asarray(trace.mem_lines, dtype=np.int64),
    )
    stores = _shared_get(
        shared, ("stores",),
        lambda: np.asarray(trace.mem_is_store, dtype=bool),
    )
    pcs = _shared_get(
        shared, ("pcs",),
        lambda: np.asarray(trace.mem_pcs, dtype=np.int64),
    )
    set1 = _shared_get(
        shared, ("set", core.l1d.num_sets),
        lambda: lines % core.l1d.num_sets,
    )
    set2 = _shared_get(
        shared, ("set", core.l2.num_sets),
        lambda: lines % core.l2.num_sets,
    )
    pages = _shared_get(
        shared, ("pages",),
        lambda: (lines * trace.line_bytes) >> _PAGE_SHIFT,
    )
    return lines, stores, pcs, set1, set2, pages


def _rounds_feasible(n: int, max_stream: int) -> bool:
    """Whether the set-parallel rank kernel beats the straight loop."""
    return n >= _MIN_ROUNDS_TRACE and max_stream <= n // _ROUNDS_IMBALANCE


def _lru_position_kernel(
    set_idx: np.ndarray, keys: np.ndarray, num_sets: int, depth: int
) -> np.ndarray:
    """Exact per-access LRU recency ranks, set-parallel.

    For every access, the rank of its key in its set's LRU recency
    stack *before* the access (0 = most recent, ``depth`` = not among
    the ``depth`` most recent).  Because an LRU stack is the recency
    order of distinct keys — capacity only truncates it — rank < assoc
    decides hit/miss for **every** associativity up to ``depth``, which
    is what lets one kernel pass serve a whole config batch.

    Sets evolve independently, so the sequential dependence is only
    within a set's own access stream: the kernel walks stream positions
    (rounds), updating all sets' stacks at that position in one
    vectorized step.  Cost is O(max stream length) numpy rounds; the
    caller gates on :func:`_rounds_feasible`.
    """
    n = int(keys.shape[0])
    counts = np.bincount(set_idx, minlength=num_sets)
    # Longest-stream-first set order makes each round's active sets a
    # contiguous prefix of the state arrays.
    set_rank = np.argsort(-counts, kind="stable")
    max_len = int(counts.max()) if num_sets else 0
    order = np.argsort(set_idx, kind="stable")
    offsets = np.zeros(num_sets + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    offsets_ranked = offsets[set_rank]
    active = num_sets - np.searchsorted(
        np.sort(counts), np.arange(max_len), side="right"
    )
    stack = np.full((num_sets, depth), -1, dtype=np.int64)
    ranks = np.empty(n, dtype=np.int64)
    col = np.arange(1, depth, dtype=np.int64)
    for r in range(max_len):
        m = active[r]
        tp = order[offsets_ranked[:m] + r]
        line = keys[tp]
        st = stack[:m]
        eq = st == line[:, None]
        hit = eq.any(axis=1)
        rank = np.where(hit, eq.argmax(axis=1), depth)
        ranks[tp] = rank
        # Insert at the front: entries above the old position (or the
        # evicted tail on a miss) shift down one slot.
        shift_to = np.where(hit, rank, depth - 1)
        st[:, 1:] = np.where(
            col[None, :] <= shift_to[:, None], st[:, :-1], st[:, 1:]
        )
        st[:, 0] = line
    return ranks


def _tlb_miss_mask(pages: np.ndarray, entries: int) -> np.ndarray:
    """Exact per-access DTLB miss flags (fully-associative LRU).

    Consecutive same-page accesses are guaranteed hits that leave the
    recency order unchanged, so only the run-compressed page stream is
    replayed through an OrderedDict LRU — typically a small fraction of
    the accesses — and the result is config-independent (the mask is
    per TLB size, not per core).
    """
    n = int(pages.shape[0])
    miss = np.zeros(n, dtype=bool)
    if n == 0:
        return miss
    change = np.empty(n, dtype=bool)
    change[0] = True
    change[1:] = pages[1:] != pages[:-1]
    starts = np.nonzero(change)[0]
    tlb: OrderedDict[int, None] = OrderedDict()
    run_miss = []
    for page in pages[starts].tolist():
        if page in tlb:
            tlb.move_to_end(page)
            run_miss.append(False)
        else:
            run_miss.append(True)
            if len(tlb) >= entries:
                tlb.popitem(last=False)
            tlb[page] = None
    miss[starts] = run_miss
    return miss


def _l2_substream_loop(
    lines: np.ndarray,
    pcs: np.ndarray | None,
    set2_idx: np.ndarray,
    a2: int,
    n2: int,
    prefetching: bool,
    counting_mask: np.ndarray | None,
) -> tuple[np.ndarray, int, int]:
    """Reference-exact L2 (+ prefetcher) replay over the L1-miss substream.

    Mirrors the L1-miss branch of :func:`_simulate_memory_reference`
    line for line; the caller supplies exactly the accesses that miss
    the L1.  Returns (per-access L2 hit flags, prefetch installs,
    prefetch hits); the prefetch counts are gated on ``counting_mask``.
    """
    hits = np.zeros(int(lines.shape[0]), dtype=bool)
    l2_sets: defaultdict[int, list[int]] = defaultdict(list)
    rpt: dict[int, tuple[int, int, bool]] = {}
    prefetched: set[int] = set()
    pf_installs = pf_hits = 0
    pcs_it = pcs.tolist() if prefetching else repeat(0)
    counting_it = (
        counting_mask.tolist() if counting_mask is not None
        else repeat(False)
    )
    for k, (pc, line, s2, counting) in enumerate(zip(
        pcs_it, lines.tolist(), set2_idx.tolist(), counting_it
    )):
        set2 = l2_sets[s2]
        if line in set2:
            hits[k] = True
            set2.remove(line)
            set2.append(line)
            if line in prefetched:
                prefetched.discard(line)
                if counting:
                    pf_hits += 1
        else:
            set2.append(line)
            if len(set2) > a2:
                evicted = set2[0]
                del set2[0]
                prefetched.discard(evicted)
        if prefetching:
            last_line, last_stride, confirmed = rpt.get(pc, (line, 0, False))
            stride = line - last_line
            if stride:
                confirmed = stride == last_stride
            if confirmed and stride:
                for d in (1, 2):
                    target = line + stride * d
                    pset = l2_sets[target % n2]
                    if target not in pset:
                        pset.append(target)
                        if len(pset) > a2:
                            evicted = pset[0]
                            del pset[0]
                            prefetched.discard(evicted)
                        prefetched.add(target)
                        if counting:
                            pf_installs += 1
            rpt[pc] = (line, stride if stride else last_stride, confirmed)
    return hits, pf_installs, pf_hits


def _assemble_memory_events(
    n: int,
    warmup: int,
    stores: np.ndarray,
    l1_hit: np.ndarray,
    sub_idx: np.ndarray,
    l2_hit: np.ndarray,
    pf_installs: int,
    pf_hits: int,
    tlb_miss: np.ndarray,
) -> MemoryEvents:
    """Fold per-access hit/miss flags into measured-window counts."""
    measured = n - warmup
    sub_meas = sub_idx >= warmup
    l2_accesses = int(np.count_nonzero(sub_meas))
    miss2_meas = sub_meas & ~l2_hit
    sub_stores = stores[sub_idx]
    store_l1 = int(np.count_nonzero(sub_stores & sub_meas))
    return MemoryEvents(
        load_l1_misses=l2_accesses - store_l1,
        load_l2_misses=int(np.count_nonzero(~sub_stores & miss2_meas)),
        store_l1_misses=store_l1,
        store_l2_misses=int(np.count_nonzero(sub_stores & miss2_meas)),
        l1d_hits=int(np.count_nonzero(l1_hit[warmup:])),
        l1d_accesses=measured,
        l2_hits=int(np.count_nonzero(l2_hit & sub_meas)),
        l2_accesses=l2_accesses,
        prefetch_installs=pf_installs,
        prefetch_hits=pf_hits,
        dtlb_misses=int(np.count_nonzero(tlb_miss[warmup:])),
        dtlb_accesses=measured,
    )


def _run_straight(
    core: CoreConfig, columns: tuple, warmup: int, n: int
) -> MemoryEvents:
    """Whole-trace per-access kernel (vectorized engine's last resort)."""
    lines, stores, pcs, set1, set2, pages = columns
    kernel = _MemoryKernel(core, lines, stores, pcs, set1, set2, pages)
    kernel.run(0, warmup, counting=False)
    kernel.run(warmup, n, counting=True)
    return kernel.finish()


def _simulate_memory_aperiodic(
    core: CoreConfig,
    trace: ExpandedTrace,
    warmup: int,
    shared: dict,
    l1_depths: dict,
    l2_depths: dict,
) -> MemoryEvents:
    """Exact aperiodic/streaming memory engine (no steady state needed).

    The L1 and the DTLB see the full access stream, so their hit/miss
    flags come straight from :func:`_lru_position_kernel` recency ranks
    and the :func:`_tlb_miss_mask` compressed replay — both shared
    across every config in a batch that agrees on the shaping geometry
    (L1 ranks per num_sets, TLB mask per TLB size).  The L2 sees
    exactly the L1-miss substream: non-prefetching cores rank it with
    the same kernel; prefetching cores replay only the substream
    through the reference L2+prefetcher loop (prefetch targets feed the
    L2's own future, so that part stays sequential — but it runs on the
    miss substream, not the full trace).
    """
    n1, a1 = core.l1d.num_sets, core.l1d.assoc
    n2, a2 = core.l2.num_sets, core.l2.assoc
    n = int(trace.mem_lines.shape[0])
    columns = _memory_columns(core, trace, shared)
    lines, stores, pcs, set1, set2, pages = columns
    counts1 = np.bincount(set1, minlength=n1)
    if not _rounds_feasible(n, int(counts1.max())):
        _record_path("memory.vectorized.straight")
        return _run_straight(core, columns, warmup, n)
    depth1 = l1_depths[n1]
    l1_rank = _shared_ranks(
        shared, ("l1rank", n1), depth1,
        lambda: _lru_position_kernel(set1, lines, n1, depth1),
    )
    tlb_entries = _dtlb_entries(core)
    tlb_miss = _shared_get(
        shared, ("tlb", tlb_entries),
        lambda: _tlb_miss_mask(pages, tlb_entries),
    )
    sub_idx = _shared_get(
        shared, ("sub", n1, a1),
        lambda: np.nonzero(l1_rank >= a1)[0],
    )
    sub_lines = lines[sub_idx]
    sub_set2 = set2[sub_idx]
    pf_installs = pf_hits = 0
    if core.l2_prefetcher:
        l2_hit, pf_installs, pf_hits = _l2_substream_loop(
            sub_lines, pcs[sub_idx], sub_set2, a2, n2,
            True, sub_idx >= warmup,
        )
    else:
        sub_n = int(sub_idx.size)
        counts2 = np.bincount(sub_set2, minlength=n2) if sub_n else None
        if counts2 is not None and _rounds_feasible(
            sub_n, int(counts2.max())
        ):
            depth2 = l2_depths[(n1, a1, n2)]
            l2_rank = _shared_ranks(
                shared, ("l2rank", n1, a1, n2), depth2,
                lambda: _lru_position_kernel(
                    sub_set2, sub_lines, n2, depth2
                ),
            )
            l2_hit = l2_rank < a2
        else:
            l2_hit, _, _ = _l2_substream_loop(
                sub_lines, None, sub_set2, a2, n2, False, None
            )
    _record_path("memory.vectorized.aperiodic")
    return _assemble_memory_events(
        n, warmup, stores, l1_rank < a1, sub_idx, l2_hit,
        pf_installs, pf_hits, tlb_miss,
    )


def _simulate_memory_vectorized(
    core: CoreConfig,
    trace: ExpandedTrace,
    warmup_accesses: int,
    shared: dict,
    l1_depths: dict,
    l2_depths: dict,
) -> MemoryEvents:
    """Array-kernel memory engine: dispatch on the trace's structure.

    Periodic traces take the steady-state extrapolation path; aperiodic
    and streaming traces (no detectable period within the window) take
    the exact recency-rank path.  Both are bit-identical to
    :func:`_simulate_memory_reference`.  ``shared`` (plus the depth
    hints) is the batch's scratch — see :func:`simulate_memory_batch`.
    """
    n = int(trace.mem_lines.shape[0])
    warmup = _clamped_warmup(warmup_accesses, n)
    if warmup >= n:
        return MemoryEvents()
    m = n // trace.iterations if trace.iterations else 0
    p_acc = _trace_period(trace) * m
    if p_acc == 0 or n < 2 * p_acc:
        return _simulate_memory_aperiodic(
            core, trace, warmup, shared, l1_depths, l2_depths
        )
    return _simulate_memory_periodic(core, trace, warmup, p_acc, shared)


def simulate_memory_batch(
    cores: list[CoreConfig],
    trace: ExpandedTrace,
    warmup_accesses: list[int],
    engine: str | None = None,
) -> list[MemoryEvents]:
    """Memory events for N core configs over one trace, config-batched.

    Drives each core's L1D/L2 hierarchy, prefetcher and DTLB over the
    exact access trace; ``warmup_accesses[i]`` leading accesses warm
    core ``i``'s state without being counted (clamped to the trace
    length).  One pass precomputes the trace columns the whole batch
    shares — line/store/pc arrays, per-num_sets set indices, page
    numbers, per-TLB-size miss masks, per-num_sets LRU recency ranks at
    the deepest associativity any config needs — then evaluates each
    *distinct* (memory key, warmup) combination against them.  The
    shared columns live only for the call.  Results are bit-identical
    to N batches of one, and to ``engine="reference"``.
    """
    if len(cores) != len(warmup_accesses):
        raise ValueError("one warmup boundary per core required")
    engine = resolve_engine(engine)
    if engine == "reference":
        return [
            _simulate_memory_reference(core, trace, warmup)
            for core, warmup in zip(cores, warmup_accesses)
        ]
    _record_path("memory.batch")
    n = int(trace.mem_lines.shape[0])
    uniques: dict[tuple, int] = {}
    work: list[tuple[CoreConfig, int]] = []
    assignment: list[int] = []
    for core, warmup in zip(cores, warmup_accesses):
        key = memory_event_key(core) + (_clamped_warmup(warmup, n),)
        slot = uniques.get(key)
        if slot is None:
            slot = len(work)
            uniques[key] = slot
            work.append((core, warmup))
        assignment.append(slot)
    # Deepest rank each geometry needs, so one kernel pass serves every
    # associativity in the batch (LRU inclusion).
    l1_depths: dict[int, int] = {}
    l2_depths: dict[tuple, int] = {}
    for core, _ in work:
        n1, a1 = core.l1d.num_sets, core.l1d.assoc
        l1_depths[n1] = max(l1_depths.get(n1, 0), a1)
        sub = (n1, a1, core.l2.num_sets)
        l2_depths[sub] = max(l2_depths.get(sub, 0), core.l2.assoc)
    shared: dict = {}
    results = [
        _simulate_memory_vectorized(
            core, trace, warmup,
            shared=shared, l1_depths=l1_depths, l2_depths=l2_depths,
        )
        for core, warmup in work
    ]
    return [results[slot] for slot in assignment]


def _simulate_memory_periodic(
    core: CoreConfig,
    trace: ExpandedTrace,
    warmup: int,
    p_acc: int,
    shared: dict,
) -> MemoryEvents:
    """Steady-state extrapolation over a periodic trace.

    The LRU/TLB/prefetcher state machine runs over the minimal trace
    period, snapshotting state at period boundaries.  As soon as a
    boundary state recurs, every later period is an exact replay, so
    the remaining whole cycles are extrapolated (warmup: state is
    simply known; measurement: per-cycle event deltas repeat) and only
    the partial tail is simulated.  Bit-identical to
    :func:`_simulate_memory_reference` by construction.
    """
    _record_path("memory.vectorized.periodic")
    n = int(trace.mem_lines.shape[0])
    lines, stores, pcs, set1, set2, pages = _memory_columns(
        core, trace, shared
    )
    kernel = _MemoryKernel(core, lines, stores, pcs, set1, set2, pages)

    # Snapshots are taken at positions congruent to the warmup boundary
    # (mod the trace period): a warmup cycle then jumps *exactly* to the
    # boundary, and the measurement phase detects its steady state from
    # the very first counted period — no partial-period alignment runs.
    pos = warmup % p_acc
    kernel.run(0, pos, counting=False)
    seen_warm: dict[tuple, int] = {}
    while pos < warmup and len(seen_warm) < _MAX_SNAPSHOTS:
        key = kernel.snapshot_key()
        first = seen_warm.get(key)
        if first is not None:
            # State recurs with this cycle length; whole cycles are
            # exact no-ops on state, so skip as many as fit.
            cycle = pos - first
            pos += (warmup - pos) // cycle * cycle
            break
        seen_warm[key] = pos
        kernel.run(pos, pos + p_acc, counting=False)
        pos += p_acc
    kernel.run(pos, warmup, counting=False)

    # Measurement: simulate counted periods until a boundary state
    # recurs, then extrapolate that cycle's event deltas over the
    # remaining whole cycles and simulate only the tail.
    pos = warmup
    seen: dict[tuple, tuple[int, tuple]] = {}
    while n - pos >= p_acc and len(seen) < _MAX_SNAPSHOTS:
        key = kernel.snapshot_key()
        first = seen.get(key)
        if first is not None:
            first_pos, first_counts = first
            cycle = pos - first_pos
            counts = kernel.counts_key()
            delta = tuple(
                now - then for now, then in zip(counts, first_counts)
            )
            reps = (n - pos) // cycle
            kernel.add_counts(delta, reps)
            pos += reps * cycle
            break
        seen[key] = (pos, kernel.counts_key())
        kernel.run(pos, pos + p_acc, counting=True)
        pos += p_acc
    kernel.run(pos, n, counting=True)
    return kernel.finish()


def branch_event_key(core: CoreConfig) -> tuple:
    """Every core parameter :func:`simulate_branches_batch` reads.

    The large family gets 16,384-entry tables and 13 history bits,
    every other core 4,096 and 10.  The ``-tournament`` and
    ``-bimodal`` name suffixes pick the predictor kind (see
    :func:`_large_family`); gshare otherwise.

    The key leads with the predictor *kind* and spells out each
    component table: two cores whose predictors differ in kind (or in
    tournament chooser size) but share ``(entries, history_bits)`` used
    to collide in the branch-event memo and reuse each other's results.
    """
    entries, history_bits = (
        (16384, 13) if _large_family(core.name) else (4096, 10)
    )
    if core.name.endswith("-tournament"):
        # The chooser is sized like the bimodal table, so the two index
        # identically: where the vectorized engine scans site-indexed
        # tables on a sorted layout, the chooser reuses its bimodal
        # component's.
        return ("tournament", entries, entries, history_bits, entries)
    if core.name.endswith("-bimodal"):
        return ("bimodal", entries)
    return ("gshare", entries, history_bits)


def simulate_branches_batch(
    cores: list[CoreConfig],
    trace: ExpandedTrace,
    warmup_branches: list[int],
    engine: str | None = None,
) -> list[tuple[int, int]]:
    """Branch events for N core configs over one trace, config-batched.

    Each core runs the predictor its :func:`branch_event_key` names:
    gshare, bimodal or tournament, over 2-bit saturating counters that
    start weakly taken.  Returns ``(mispredicts, lookups)`` per core
    for the measured window, which starts after ``warmup_branches[i]``
    (clamped) trained-but-uncounted branches.

    Counter states do not depend on the warmup, so each distinct table
    is scanned once per call, whichever cores and warmups share it.
    History-indexed (gshare) tables, one row per distinct
    ``(entries, history bits)``, share one packed global history and
    ride one multi-row :func:`_counter_layout` and
    :func:`_counter_prestates` scan, scattered back to program order.
    Tables indexed by branch site alone — bimodal tables and tournament
    choosers — go through :func:`_site_prestates`, which scans a loop
    trace in loop order with no sort at all.  A chooser trains on its
    components' *predictions*, so it is scanned after them, with steps
    in program order.  Every table's predictions are counted in program
    order over each core's measured window.  Bit-identical to N batches
    of one and to ``engine="reference"``.
    """
    if len(cores) != len(warmup_branches):
        raise ValueError("one warmup boundary per core required")
    engine = resolve_engine(engine)
    if engine == "reference":
        return [
            _simulate_branches_reference(core, trace, warmup)
            for core, warmup in zip(cores, warmup_branches)
        ]
    _record_path("branch.batch")
    outcomes = np.asarray(trace.branch_outcomes, dtype=bool)
    n = int(outcomes.shape[0])
    uniques: dict[tuple, int] = {}
    work: list[tuple[tuple, int]] = []
    assignment: list[int] = []
    for core, warmup in zip(cores, warmup_branches):
        key = (branch_event_key(core), _clamped_warmup(warmup, n))
        slot = uniques.get(key)
        if slot is None:
            slot = len(work)
            uniques[key] = slot
            work.append(key)
        assignment.append(slot)

    results = [(0, 0)] * len(work)
    live = [slot for slot, (_, warmup) in enumerate(work) if warmup < n]
    if not live:
        return [results[slot] for slot in assignment]
    shared: dict = {}
    pcs2 = np.asarray(trace.branch_pcs, dtype=np.int64) >> 2
    steps = np.where(outcomes, np.int8(1), np.int8(-1))
    keys = list(dict.fromkeys(work[slot][0] for slot in live))
    # Predictions in program order, per table and per predictor key.
    preds: dict[tuple, np.ndarray] = {}
    # (entries, history bits) of every gshare core and tournament
    # gshare component.
    histories = list(dict.fromkeys(
        key[1:] if key[0] == "gshare" else key[2:4]
        for key in keys if key[0] != "bimodal"
    ))
    if histories:
        layout = _counter_layout(np.stack([
            _table_index(
                pcs2, entries, _branch_history(outcomes, bits, shared)
            )
            for entries, bits in histories
        ]))
        states = _counter_prestates(steps, layout)
        for row, table in enumerate(histories):
            pred = np.empty(n, dtype=bool)
            pred[layout[0][row]] = states[row] >= 2
            preds[("gshare",) + table] = pred
    # Entries of every bimodal core and tournament bimodal component.
    for entries in dict.fromkeys(
        key[1] for key in keys if key[0] != "gshare"
    ):
        preds[("bimodal", entries)] = _site_prestates(
            pcs2, trace.iterations, entries, steps, shared
        ) >= 2
    for key in keys:
        if key[0] != "tournament":
            continue
        _, b_entries, g_entries, history_bits, c_entries = key
        g_pred = preds[("gshare", g_entries, history_bits)]
        b_pred = preds[("bimodal", b_entries)]
        # Chooser step: +1/-1 toward gshare when the components
        # disagree and gshare was right/wrong, else 0 — which is just
        # (gshare correct) - (bimodal correct).
        c_steps = (
            (g_pred == outcomes).view(np.int8)
            - (b_pred == outcomes).view(np.int8)
        )
        chooser = _site_prestates(
            pcs2, trace.iterations, c_entries, c_steps, shared
        )
        preds[key] = np.where(chooser >= 2, g_pred, b_pred)
    for slot in live:
        key, warmup = work[slot]
        wrong = preds[key][warmup:] != outcomes[warmup:]
        results[slot] = (int(np.count_nonzero(wrong)), n - warmup)
    return [results[slot] for slot in assignment]


def _simulate_branches_reference(
    core: CoreConfig, trace: ExpandedTrace, warmup_branches: int
) -> tuple[int, int]:
    """Per-branch predictor loops (the oracle engine)."""
    _record_path("branch.reference")
    pcs = trace.branch_pcs.tolist()
    outcomes = trace.branch_outcomes.tolist()
    n = len(pcs)
    warmup = _clamped_warmup(warmup_branches, n)
    if warmup >= n:
        return 0, 0
    key = branch_event_key(core)
    if key[0] == "tournament":
        return _branches_reference_tournament(pcs, outcomes, warmup, key)
    entries = key[1]
    history_bits = key[2] if key[0] == "gshare" else 0
    return _branches_reference_gshare(
        pcs, outcomes, warmup, entries, history_bits
    )


def _branches_reference_gshare(
    pcs: list, outcomes: list, warmup: int,
    entries: int, history_bits: int,
) -> tuple[int, int]:
    """gshare loop; with ``history_bits=0`` the history stays zero and
    this is exactly the bimodal predictor."""
    entry_mask = entries - 1
    history_mask = (1 << history_bits) - 1

    counters = [2] * entries  # weakly taken
    history = 0
    mispredicts = 0
    lookups = 0
    counting = warmup == 0
    for k, (pc, taken) in enumerate(zip(pcs, outcomes)):
        if not counting and k >= warmup:
            counting = True
        index = ((pc >> 2) ^ history) & entry_mask
        c = counters[index]
        if counting:
            lookups += 1
            if (c >= 2) != taken:
                mispredicts += 1
        if taken:
            if c < 3:
                counters[index] = c + 1
            history = ((history << 1) | 1) & history_mask
        else:
            if c > 0:
                counters[index] = c - 1
            history = (history << 1) & history_mask
    return mispredicts, lookups


def _branches_reference_tournament(
    pcs: list, outcomes: list, warmup: int, key: tuple
) -> tuple[int, int]:
    """Tournament loop (Alpha 21264-style): a PC-indexed chooser picks
    bimodal vs gshare, trains toward the correct component only when
    they disagree, and both components train on every branch."""
    _, b_entries, g_entries, g_history_bits, c_entries = key
    b_mask = b_entries - 1
    g_mask = g_entries - 1
    c_mask = c_entries - 1
    history_mask = (1 << g_history_bits) - 1

    bimodal = [2] * b_entries
    gshare = [2] * g_entries
    chooser = [2] * c_entries
    history = 0
    mispredicts = 0
    lookups = 0
    counting = warmup == 0
    for k, (pc, taken) in enumerate(zip(pcs, outcomes)):
        if not counting and k >= warmup:
            counting = True
        pc2 = pc >> 2
        b_index = pc2 & b_mask
        g_index = (pc2 ^ history) & g_mask
        c_index = pc2 & c_mask
        b_pred = bimodal[b_index] >= 2
        g_pred = gshare[g_index] >= 2
        prediction = g_pred if chooser[c_index] >= 2 else b_pred
        if counting:
            lookups += 1
            if prediction != taken:
                mispredicts += 1
        if g_pred != b_pred:
            c = chooser[c_index]
            if g_pred == taken:
                if c < 3:
                    chooser[c_index] = c + 1
            elif c > 0:
                chooser[c_index] = c - 1
        c = bimodal[b_index]
        if taken:
            if c < 3:
                bimodal[b_index] = c + 1
        elif c > 0:
            bimodal[b_index] = c - 1
        c = gshare[g_index]
        if taken:
            if c < 3:
                gshare[g_index] = c + 1
            history = ((history << 1) | 1) & history_mask
        else:
            if c > 0:
                gshare[g_index] = c - 1
            history = (history << 1) & history_mask
    return mispredicts, lookups


def _branch_history(
    outcomes: np.ndarray, history_bits: int, shared: dict
) -> np.ndarray:
    """Packed global history before each branch (independent of the
    counters): bit ``b`` of entry ``k`` is outcome ``k-1-b``.

    Width-independent sharing: the batch's ``shared`` scratch keeps the
    widest packing computed so far, and any narrower history is its
    low-bit mask — one packing serves gshare components of every size.
    Narrow histories (≤16 bits, every Table II predictor) come back
    uint16 so the downstream index math stays quarter-width.
    """
    n = int(outcomes.shape[0])
    if history_bits <= 0:
        return np.zeros(n, dtype=np.uint16)
    cached = shared.get(("history",))
    if cached is not None and cached[0] >= history_bits:
        bits, packed = cached
        if bits == history_bits:
            return packed
        return packed & ((1 << history_bits) - 1)
    # Bit b of entry k is outcome k-1-b: one shifted add per history
    # bit (far cheaper in a narrow dtype than an int64 matmul).
    dtype = np.uint16 if history_bits <= 16 else np.int64
    taken = outcomes.view(np.uint8)
    history = np.zeros(n, dtype=dtype)
    for b in range(min(history_bits, n - 1)):
        np.add(
            history[b + 1:],
            taken[: n - 1 - b].astype(dtype) << dtype(b),
            out=history[b + 1:],
        )
    shared[("history",)] = (history_bits, history)
    return history


def _table_index(
    pcs2: np.ndarray, entries: int, history: np.ndarray | None = None
) -> np.ndarray:
    """Per-access index into a table of ``entries`` counters: the branch
    site ``pc >> 2``, XORed with the packed global history for gshare.

    Tables that fit (≤ 2**15 entries — all of Table II) are indexed in
    uint16: masking distributes over the XOR, so the whole row is built
    quarter-width, which also puts the layout sort straight onto numpy's
    16-bit radix path.
    """
    narrow = entries <= 1 << 15 and (
        history is None or history.dtype == np.uint16
    )
    dtype = np.uint16 if narrow else np.int64
    index = np.bitwise_and(pcs2, entries - 1, dtype=dtype, casting="unsafe")
    if history is not None:
        index ^= history.astype(dtype, copy=False)
        index &= entries - 1
    return index


def _loop_sites(pcs2: np.ndarray, iterations: int) -> int:
    """Branch sites per iteration, S, when the trace is ``iterations``
    repeats of one S-branch sequence (every iteration's PCs equal the
    first's); 0 when it is not."""
    n = int(pcs2.shape[0])
    if iterations < 1 or n % iterations:
        return 0
    body = pcs2.reshape(iterations, n // iterations)
    return body.shape[1] if bool((body == body[0]).all()) else 0


def _site_prestates(
    pcs2: np.ndarray,
    iterations: int,
    entries: int,
    steps: np.ndarray,
    shared: dict,
) -> np.ndarray:
    """Pre-access counter states, in program order, of a table indexed
    by branch site alone (``pc >> 2`` masked to ``entries``): a bimodal
    table or a tournament chooser.  ``steps`` are in program order.

    An expanded loop visits the same S sites in each of its K
    iterations, so when no two sites share an entry, column ``s`` of
    the (K, S) step matrix is site ``s``'s entry's whole access stream,
    in order: :func:`_rounds_prestates` scans it in loop order, with no
    index row, sort, scatter or gather (one ``branch.sites`` path).  The
    loop structure is checked, never assumed, and the path applies where
    the rounds kernel's own bounds hold for the table's one row
    (:func:`_rounds_feasible` with K-long segments: S ≥
    ``_ROUNDS_IMBALANCE``).  Aliased sites, non-loop traces and narrow
    loops scan on the table's own one-row sorted layout, kept in
    ``shared`` per table size, so a chooser rides its bimodal
    component's.
    """
    n = int(steps.shape[0])
    sites = _shared_get(
        shared, ("sites",), lambda: _loop_sites(pcs2, iterations)
    )
    if (
        sites
        and _rounds_feasible(n, n // sites)
        and np.unique(pcs2[:sites] & (entries - 1)).size == sites
    ):
        _record_path("branch.sites")
        return _rounds_prestates(steps.reshape(-1, sites)).reshape(n)
    layout = _shared_get(
        shared, ("layout", entries),
        lambda: _counter_layout(_table_index(pcs2, entries)[None]),
    )
    pre = np.empty(n, dtype=np.int8)
    pre[layout[0][0]] = _counter_prestates(steps, layout)[0]
    return pre


def _counter_layout(indices: np.ndarray) -> tuple:
    """Segment layout grouping each table entry's accesses in program
    order, per row of an (R, n) index matrix.

    Returns ``(order, seg_start, starts, seg_id, pos, rounds)``:
    the per-row stable sort order, segment-start mask, and — over the
    row-major flattening, where each row's segments stay contiguous —
    flat segment start offsets, each element's segment id, its offset
    within that segment, and the scan kernel's round count: the longest
    segment when the rounds kernel fits the layout, else 0, when every
    scan over the layout takes the doubling kernel (recorded once per
    layout as ``branch.doubling``; see :func:`_counter_prestates`).

    Kept apart from :func:`_counter_prestates` so callers can reuse a
    layout across scans over the *same* index rows — a tournament
    chooser off the loop path scans on its bimodal component's layout.
    Table indices are bounded by the table size, so they almost always
    arrive (or fit) 16-bit — where numpy's stable sort is a radix sort
    an order of magnitude faster than the 32/64-bit comparison sorts.
    """
    if indices.dtype in (np.uint16, np.int16):
        keys = indices
    elif indices.size and int(indices.max()) < np.iinfo(np.int16).max:
        keys = indices.astype(np.int16)
    else:
        keys = indices.astype(np.int64, copy=False)
    order = np.argsort(keys, axis=1, kind="stable")
    grouped = np.take_along_axis(keys, order, axis=1)
    seg_start = np.empty(indices.shape, dtype=bool)
    seg_start[:, 0] = True
    seg_start[:, 1:] = grouped[:, 1:] != grouped[:, :-1]
    flat = seg_start.ravel()
    starts = np.nonzero(flat)[0].astype(np.int32)
    seg_id = np.cumsum(flat, dtype=np.int32) - 1
    total = indices.size
    pos = np.arange(total, dtype=np.int32) - starts[seg_id]
    max_len = int(np.diff(np.append(starts, total)).max()) if total else 0
    n = indices.shape[1]
    if (
        _rounds_feasible(n, max_len)
        and starts.shape[0] * max_len <= 4 * total
    ):
        return order, seg_start, starts, seg_id, pos, max_len
    _record_path("branch.doubling")
    return order, seg_start, starts, seg_id, pos, 0


def _rounds_prestates(steps: np.ndarray) -> np.ndarray:
    """Pre-step 2-bit saturating-counter states down every column of an
    (L, W) int8 step matrix: column ``w`` is one counter, starting
    weakly taken (2), that takes step ``steps[r, w]`` at round ``r``.

    All W counters step together, so the sequential loop runs over
    rounds, never over accesses.  Adjacent steps are pre-composed
    pairwise — two saturating steps collapse into one clamp
    ``min(b, max(a, s + d))`` — halving the round count; odd rounds are
    filled back in with a single vectorized clip at the end.  Raw ufunc
    calls with explicit outputs: np.clip's dispatch overhead rivals the
    array work itself at these widths.
    """
    length, width = steps.shape
    half = (length + 1) // 2
    d1, d2 = steps[0::2], steps[1::2]
    comp_a = np.maximum(d2, 0)
    comp_b = np.minimum(d2 + 3, 3)
    comp_d = d1[: d2.shape[0]] + d2
    even = np.empty((half, width), dtype=np.int8)
    even[0] = 2
    for r in range(1, half):
        np.add(even[r - 1], comp_d[r - 1], out=even[r])
        np.maximum(even[r], comp_a[r - 1], out=even[r])
        np.minimum(even[r], comp_b[r - 1], out=even[r])
    odd = even[: length // 2] + d1[: length // 2]
    np.maximum(odd, 0, out=odd)
    np.minimum(odd, 3, out=odd)
    pre = np.empty((length, width), dtype=np.int8)
    pre[0::2] = even
    pre[1::2] = odd
    return pre


def _counter_prestates(steps: np.ndarray, layout: tuple) -> np.ndarray:
    """Pre-access 2-bit saturating-counter states for R independent
    tables at once.

    ``layout`` (:func:`_counter_layout` over an (R, n) index matrix)
    groups each table's accesses by entry, making each table entry an
    independent segment; ``steps`` gives the saturating step per access,
    1-D in program order (every row steps identically).  The segments
    are evaluated by the kernel the layout chose; both are
    bit-identical:

    * **rounds** (the fast path on loop branch traces, whose segments —
      one per static branch site per table — are long and plentiful):
      the steps are padded into a (position, segment) matrix and
      :func:`_rounds_prestates` walks every segment at once.  The round
      count is the longest segment (≈ the loop iteration count),
      *independent of the trace length*, so cost is dominated by the
      O(n) layout passes.  Zero-padding freezes exhausted segments
      (clip(s + 0) = s), so the rounds need no activity masking.
    * **doubling scan** (fallback for short or skewed segment layouts
      where padding would blow up): a run of saturating steps composes
      into a clamp ``x -> min(b, max(a, x + d))``, and a Hillis–Steele
      scan evaluates every prefix in ``O(log longest-segment)`` array
      passes over all rows together.

    A zero step is the identity under both kernels — that is what lets
    the tournament chooser (trained only when its components disagree)
    ride the same machinery.  Returns the int8 counter value *before*
    each access (initial state: weakly taken, 2) in the layout's sorted
    domain: row r lists its accesses in ``order[r]`` sequence.
    """
    order, seg_start, starts, seg_id, pos, rounds = layout
    rows, n = order.shape
    d8 = steps.astype(np.int8, copy=False)[order]
    if rounds:
        mat = np.zeros((rounds, starts.shape[0]), dtype=np.int8)
        mat[pos, seg_id] = d8.ravel()
        return _rounds_prestates(mat)[pos, seg_id].reshape(rows, n)

    # Each step is f(x) = min(3, max(0, x + step)): triple (a=0, b=3, d).
    d = d8.astype(np.int64)
    a = np.zeros((rows, n), dtype=np.int64)
    b = np.full((rows, n), 3, dtype=np.int64)

    flag = seg_start.copy()
    off = 1
    while off < n and not flag.all():
        prev_a, prev_b, prev_d = a[:, :-off], b[:, :-off], d[:, :-off]
        cur_a, cur_b, cur_d = a[:, off:], b[:, off:], d[:, off:]
        can = ~flag[:, off:]
        comp_a = np.where(can, np.maximum(cur_a, prev_a + cur_d), cur_a)
        comp_b = np.where(
            can, np.minimum(cur_b, np.maximum(cur_a, prev_b + cur_d)), cur_b
        )
        comp_d = np.where(can, prev_d + cur_d, cur_d)
        a[:, off:] = comp_a
        b[:, off:] = comp_b
        d[:, off:] = comp_d
        flag[:, off:] = flag[:, off:] | flag[:, :-off]
        off <<= 1

    # Counter value *before* access k: exclusive prefix applied to the
    # initial weakly-taken state (2).
    state_sorted = np.empty((rows, n), dtype=np.int64)
    state_sorted[:, 0] = 2
    applied = np.minimum(
        b[:, :-1], np.maximum(a[:, :-1], 2 + d[:, :-1])
    )
    state_sorted[:, 1:] = np.where(seg_start[:, 1:], 2, applied)
    return state_sorted.astype(np.int8)


def icache_event_key(core: CoreConfig) -> tuple:
    """Every core parameter :func:`simulate_icache_batch` reads."""
    return (
        core.l1i.num_sets,
        core.l1i.assoc,
        core.l1i.line_bytes,
        core.l2.size_bytes,
        core.l2.line_bytes,
        core.l2.num_sets,
        core.l2.assoc,
    )


def _icache_counts(
    core: CoreConfig, code_bytes: int, iterations: int, code_hits
) -> tuple[int, int, int]:
    num_lines = max(1, code_bytes // core.l1i.line_bytes)
    hits, misses = code_hits(
        num_lines, core.l1i.num_sets, core.l1i.assoc, iterations
    )
    # The loop's code always fits somewhere up the hierarchy; L2-side
    # code misses only occur if the code exceeds the L2 too.
    l2_lines_capacity = core.l2.size_bytes // core.l2.line_bytes
    if num_lines > l2_lines_capacity:
        _, l2_misses = code_hits(
            num_lines,
            core.l2.num_sets,
            core.l2.assoc,
            iterations,
        )
    else:
        l2_misses = 0
    return hits, misses, l2_misses


def simulate_icache_batch(
    cores: "list[CoreConfig]",
    code_bytes: int,
    iterations_list: "list[int]",
    engine: str | None = None,
) -> "list[tuple[int, int, int]]":
    """(l1i hits, l1i misses, l2-side code misses) per core for a
    window of ``iterations_list[i]`` loop iterations of ``code_bytes``.

    ``engine="reference"`` runs :func:`cyclic_code_hits`'s per-set loop;
    the vectorized engine uses the bit-identical closed form over the at
    most two distinct per-set line counts.  The model reads no trace
    columns, so the batch win is pure dedup: each distinct
    ``icache_event_key(core) + (iterations,)`` is evaluated once and
    fanned back out in input order.
    """
    if len(cores) != len(iterations_list):
        raise ValueError(
            f"{len(cores)} cores but {len(iterations_list)} iteration counts"
        )
    code_hits = (
        cyclic_code_hits
        if resolve_engine(engine) == "reference"
        else cyclic_code_hits_closed
    )
    _record_path("icache.batch")
    memo: dict[tuple, tuple[int, int, int]] = {}
    out = []
    for core, iterations in zip(cores, iterations_list):
        key = icache_event_key(core) + (iterations,)
        if key not in memo:
            memo[key] = _icache_counts(core, code_bytes, iterations, code_hits)
        out.append(memo[key])
    return out
