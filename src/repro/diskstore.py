"""One file per entry in a directory, bounded LRU-by-mtime.

The shared mechanism under both persistent stores
(:class:`repro.exec.cache.DiskResultCache` and
:class:`repro.sim.artifact.DiskArtifactStore`): atomic, best-effort
writes (temp file + rename; a vanished, read-only or full directory
drops the entry instead of failing the evaluation that produced it),
recency touches on hits, compaction every few writes, and ``len``.  It
imports nothing from this package but :mod:`repro.obs`, so both stores
build on it without an import cycle.
"""

from __future__ import annotations

import os
import tempfile
from pathlib import Path
from typing import IO, Callable

from repro import obs


class LruDirectoryStore:
    """Base class for a directory of ``*<_suffix>`` entry files."""

    #: Entry file suffix (``".json"``, ``".pkl"``).
    _suffix: str
    #: Counter that compaction increments by the entries it removes.
    _evictions_metric: str

    def _init_store(self, directory: Path, max_entries: int | None,
                    unusable: str) -> None:
        """Apply the cap and create ``directory`` (no compaction);
        ``unusable`` is the error when a file is in the way."""
        self._set_cap(max_entries)
        self.dir = directory
        try:
            directory.mkdir(parents=True, exist_ok=True)
        except (FileExistsError, NotADirectoryError) as exc:
            raise ValueError(unusable) from exc
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self._puts_since_compact = 0

    def _set_cap(self, max_entries: int | None) -> None:
        if max_entries is not None and max_entries < 1:
            raise ValueError("max_entries must be >= 1 (or None)")
        self.max_entries = max_entries
        # Compact every few writes, not every write: a glob per put is
        # O(entries), so the interval amortizes it while bounding the
        # overshoot to max_entries + interval.
        self._compact_interval = (
            min(64, max(1, max_entries // 8)) if max_entries else 0
        )

    @staticmethod
    def _touch(path: Path) -> None:
        """Refresh a hit's recency so compaction spares it."""
        try:
            os.utime(path)
        except OSError:
            pass

    def _publish(self, path: Path,
                 write: Callable[[IO[bytes]], object]) -> None:
        """Atomically write one entry through ``write(handle)``."""
        try:
            fd, tmp = tempfile.mkstemp(dir=self.dir, suffix=".tmp")
        except OSError:
            return
        try:
            with os.fdopen(fd, "wb") as handle:
                write(handle)
            os.replace(tmp, path)
        except Exception:
            # Best-effort by design: full disks, unpicklable injected
            # state, or a thread memoizing into an artifact mid-dump
            # (dict-changed-size) must never fail the evaluation itself.
            try:
                os.unlink(tmp)
            except OSError:
                pass
            return
        if self.max_entries is not None:
            self._puts_since_compact += 1
            if self._puts_since_compact >= self._compact_interval:
                self._puts_since_compact = 0
                self.compact()

    def _entries(self, newest_first: bool = False) -> list[tuple[float, Path]]:
        """``(mtime, path)`` of every entry, ordered by recency."""
        entries = []
        for path in self.dir.glob(f"*{self._suffix}"):
            try:
                entries.append((path.stat().st_mtime, path))
            except OSError:
                continue
        entries.sort(key=lambda pair: pair[0], reverse=newest_first)
        return entries

    def _evicted(self, path: Path) -> None:
        """Hook: compaction just removed ``path``."""

    def compact(self) -> int:
        """Evict least-recently-used entries beyond ``max_entries``.

        Returns:
            Number of entries removed (0 when unbounded or under cap).
        """
        if self.max_entries is None:
            return 0
        entries = self._entries()
        excess = len(entries) - self.max_entries
        if excess <= 0:
            return 0
        removed = 0
        for _, path in entries[:excess]:
            try:
                path.unlink()
            except OSError:
                continue
            self._evicted(path)
            removed += 1
        self.evictions += removed
        obs.inc(self._evictions_metric, removed)
        return removed

    def __len__(self) -> int:
        return sum(1 for _ in self.dir.glob(f"*{self._suffix}"))
