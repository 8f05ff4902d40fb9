"""Persistent on-disk result cache for finished evaluations.

Simulating one candidate test case is the expensive unit of work in every
MicroGrad run, and the knob lattice is discrete — re-runs, seed sweeps
and tuner comparisons revisit the same (core, instruction budget, knob
configuration) points constantly.  This cache persists each evaluated
point as one small JSON file so repeated runs skip the simulator
entirely.  Files are written through the shared
:class:`~repro.diskstore.LruDirectoryStore`: atomically (temp + rename),
so concurrent worker processes sharing a cache directory can only ever
race to write identical content, and best-effort, so a cache directory
that vanishes or turns read-only mid-run never fails the evaluation.

Two guards keep long campaigns healthy:

* ``max_entries`` caps the directory size; once exceeded, the least-
  recently-used entries (by file mtime — disk hits re-touch their file)
  are compacted away.
* ``schema`` stamps every entry with the identity of the simulation
  semantics that produced it (the trace-artifact fingerprint of
  :func:`repro.sim.artifact.trace_schema_fingerprint`).  Entries
  recorded under a *different* schema read as misses; entries without a
  stamp (pre-schema caches) stay valid, so existing caches survive
  refactors that keep metrics bit-identical.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path

from repro import obs
from repro.diskstore import LruDirectoryStore


def _canonical_json(payload) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


class DiskResultCache(LruDirectoryStore):
    """JSON file-per-entry cache keyed by (context, knob configuration).

    ``context`` identifies everything *besides* the knob configuration
    that determines the metrics — platform/core name, instruction budget,
    loop size and generation seed — so distinct experimental setups never
    alias.  Entries record the key material alongside the metrics, which
    makes the cache directory self-describing and auditable.

    Args:
        root: cache directory (created if missing).
        max_entries: optional entry cap; LRU-by-mtime compaction keeps
            the directory at or below it (checked every few writes).
        schema: optional simulation-semantics stamp recorded in every
            entry; a stamped entry with a different schema is a miss.
    """

    _suffix = ".json"
    _evictions_metric = "cache.result.evictions"

    def __init__(
        self,
        root: str | Path,
        max_entries: int | None = None,
        schema: str | None = None,
    ):
        self.root = Path(root)
        self._init_store(
            self.root, max_entries,
            f"cache_dir {str(self.root)!r} exists and is not a directory",
        )
        self.schema = schema
        self._memory: dict[str, dict[str, float]] = {}

    def digest(self, context: str, config_key: tuple) -> str:
        """Stable content hash of one (context, configuration) point."""
        material = _canonical_json(
            {"context": context, "config": [list(kv) for kv in config_key]}
        )
        return hashlib.sha256(material.encode()).hexdigest()[:32]

    def _path(self, digest: str) -> Path:
        return self.root / f"{digest}.json"

    def _memory_hit(self, digest: str) -> dict[str, float]:
        self.hits += 1
        obs.inc("cache.result.hits")
        if self.max_entries is not None:
            # Keep recency honest for hits served from memory too,
            # or compaction would evict the hottest entries first.
            self._touch(self._path(digest))
        return dict(self._memory[digest])

    def _read_entry(self, digest: str) -> dict[str, float] | None:
        """Disk read + validate + promote; counts the hit or miss."""
        path = self._path(digest)
        try:
            entry = json.loads(path.read_text())
            metrics = {k: float(v) for k, v in entry["metrics"].items()}
        except (OSError, ValueError, KeyError, TypeError):
            self.misses += 1
            obs.inc("cache.result.misses")
            return None
        stamped = entry.get("schema")
        if stamped is not None and self.schema is not None \
                and stamped != self.schema:
            # Produced under different simulation semantics: stale.
            self.misses += 1
            obs.inc("cache.result.misses")
            return None
        self._touch(path)
        self._memory[digest] = metrics
        self.hits += 1
        obs.inc("cache.result.hits")
        return dict(metrics)

    def get(self, context: str, config_key: tuple) -> dict[str, float] | None:
        """Look up cached metrics; ``None`` on a miss or unreadable entry."""
        digest = self.digest(context, config_key)
        if digest in self._memory:
            return self._memory_hit(digest)
        return self._read_entry(digest)

    def get_many(
        self, context: str, config_keys: list[tuple]
    ) -> list[dict[str, float] | None]:
        """Batched :meth:`get`: one directory pass for the disk probes.

        Memory-promoted entries are served directly; the rest are
        checked against a single ``os.scandir`` listing, so a whole
        generation's cache probe costs one directory read instead of a
        stat + read round-trip per missing config.  Hit/miss counters,
        recency refresh and memory promotion behave exactly as if
        :meth:`get` had been called per key, in order.
        """
        digests = [self.digest(context, key) for key in config_keys]
        wanted = {
            f"{d}.json" for d in digests if d not in self._memory
        }
        present: set[str] = set()
        if wanted:
            with obs.span("cache.result.probe"):
                try:
                    with os.scandir(self.root) as it:
                        present = {e.name for e in it if e.name in wanted}
                except OSError:
                    present = set()
        results: list[dict[str, float] | None] = []
        for digest in digests:
            if digest in self._memory:
                # Covers duplicates promoted earlier in this same batch.
                results.append(self._memory_hit(digest))
            elif f"{digest}.json" in present:
                results.append(self._read_entry(digest))
            else:
                self.misses += 1
                obs.inc("cache.result.misses")
                results.append(None)
        return results

    def put(self, context: str, config_key: tuple,
            metrics: dict[str, float]) -> None:
        """Persist one evaluation result (atomic, last writer wins).

        The result is served from memory from here on even when the
        disk write is dropped.
        """
        digest = self.digest(context, config_key)
        self._memory[digest] = dict(metrics)
        entry = {
            "context": context,
            "config": [list(kv) for kv in config_key],
            "metrics": {k: float(v) for k, v in metrics.items()},
        }
        if self.schema is not None:
            entry["schema"] = self.schema
        payload = _canonical_json(entry).encode()
        self._publish(self._path(digest), lambda handle: handle.write(payload))

    def _evicted(self, path: Path) -> None:
        # Drop the promoted copy too, so an evicted point is really
        # gone rather than resurrected from process memory.
        self._memory.pop(path.stem, None)
