"""The documented metric-name table: every recordable signal, declared.

This module is the single source of truth for observability names.  The
README/DESIGN metric tables render from the same vocabulary, and the
``metric-name`` checker of :mod:`repro.analysis` statically proves that
every ``obs.inc("...")`` / ``obs.span("...")`` literal in the tree names
an entry declared here — so the documentation cannot drift from the
code, and a typo in a metric name fails lint instead of silently
splitting a counter in two.

Adding an instrumentation point is a two-line change: record it, and
declare it here with a one-line description.  Families of dynamically
composed names (the engine-path counters) are declared as *prefixes*
rather than enumerating every member.
"""

from __future__ import annotations

#: Monotonic counters (merge: sum across workers).
COUNTERS: dict[str, str] = {
    "cache.result.hits": "persistent result-cache hits",
    "cache.result.misses": "persistent result-cache misses",
    "cache.result.evictions": "result-cache entries LRU-compacted away",
    "cache.artifact.hits": "on-disk trace-artifact store hits",
    "cache.artifact.misses": "on-disk trace-artifact store misses",
    "cache.artifact.evictions": "artifact-store entries LRU-compacted away",
    "evaluator.requested": "configurations requested per batch (pre-dedup)",
    "evaluator.unique": "configurations actually dispatched (post-dedup)",
    "codegen.programs": "test-case programs generated",
    "worker.jobs_executed": "jobs a dist worker completed (incl. raising)",
    "tuner.epochs": "tuning epochs finished",
    "session.opened": "client sessions opened against a shared cluster",
    "session.closed": "client sessions closed (local count)",
    "session.jobs_submitted": "jobs submitted through a client session",
    "session.results_received": "batch results landed on a client session",
    "session.cancels": "cancel frames sent by a client session",
    "prefetch.pushed": "trace artifacts a client pushed to the cluster",
    "prefetch.received": "prefetch frames a worker received",
    "prefetch.stored": "prefetched artifacts a worker stored locally",
}

#: Counter-name *families* whose members are composed at runtime; any
#: literal or dynamic name under one of these prefixes is declared.
COUNTER_PREFIXES: dict[str, str] = {
    "engine_path.": "event-engine paths taken (repro.sim.events: "
                    "memory.batch, branch.batch, icache.batch per "
                    "vectorized batch; memory.vectorized.{periodic,"
                    "aperiodic,straight} per distinct memory key; "
                    "branch.sites per loop-order predictor-table scan; "
                    "branch.doubling per sorted branch layout that takes "
                    "the doubling scan; memory.reference, "
                    "branch.reference per config) and "
                    "evaluation dispatches (repro.exec.jobs: "
                    "evaluate.batch per chunk, evaluate.group per "
                    "equivalence group)",
}

#: Last/max-value gauges (merge: max across workers).  None yet.
GAUGES: dict[str, str] = {}

#: Stage-timing spans / timers (merge: counts and totals fold).
SPANS: dict[str, str] = {
    "run": "one whole MicroGrad.run() (wall clock of the run scope)",
    "codegen": "knob configuration -> assembled program",
    "trace.build": "program validation + characterization (TraceArtifact."
                   "build); trace expansion and the dependency critical "
                   "path run later, under trace.expand and trace.depgraph",
    "trace.expand": "one trace window expanded (TraceArtifact.trace memo "
                    "miss)",
    "trace.depgraph": "one dependency critical path computed "
                      "(TraceArtifact.dep_cycles memo miss)",
    "artifact.lookup": "trace-artifact fingerprint plus memory or disk "
                       "get (TraceArtifactCache.get_or_build, before any "
                       "build)",
    "artifact.persist": "one trace artifact written to the on-disk store "
                        "(TraceArtifactCache.persist)",
    "sim.run_many": "one multi-config simulation sweep",
    "events.memory": "config-batched memory event pass over one "
                     "already-expanded trace window",
    "events.branch": "config-batched branch event pass over one "
                     "already-expanded trace window",
    "events.icache": "config-batched icache event pass",
    "interval.batch": "batched interval-model cycle computation",
    "exec.chunk": "one evaluation chunk in whichever process ran it",
    "cache.result.probe": "result-cache disk probe (scandir pass)",
    "tuner.epoch": "one tuning epoch end to end",
}
