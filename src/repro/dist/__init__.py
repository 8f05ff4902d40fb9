"""Distributed evaluation service: coordinator, workers, wire protocol.

The execution stack below :class:`~repro.tuning.evaluator.Evaluator` tops
out at one machine's process pool; this package removes that ceiling.  A
:class:`~repro.dist.coordinator.Coordinator` owns per-session job queues
and leases jobs to :mod:`~repro.dist.worker` loops over a length-prefixed
JSON+pickle TCP protocol (:mod:`~repro.dist.protocol`); a worker that
dies mid-job has its leases rescheduled, so results are bit-identical to
a serial run no matter how many workers join, leave, or crash.

The coordinator is multi-tenant: ``python -m repro.cli serve`` runs one
as a persistent always-on cluster, and any number of
:class:`~repro.dist.client.ClientSession` tenants submit batches
concurrently.  A session is the only way jobs enter a coordinator: a
``backend=dist`` run without ``--dist-addr`` joins its own private
loopback cluster as one.  A
stride scheduler interleaves dispatch across sessions proportionally to
each one's ``priority``, an optional shared secret gates joins behind an
HMAC challenge, and clients can prefetch trace artifacts to the worker
fleet before their first batch.

:class:`~repro.dist.backend.DistributedBackend` wraps it all as a
drop-in :class:`~repro.exec.backend.ExecutionBackend` (``backend=dist``),
so every tuner and use case gets multi-host fan-out with zero call-site
changes.  Workers join from anywhere: ``python -m repro.cli worker
--addr host:port``.
"""

from repro.dist.backend import DistributedBackend
from repro.dist.client import ClientSession
from repro.dist.coordinator import Coordinator
from repro.dist.status import fetch_cluster_status
from repro.dist.worker import run_worker

__all__ = [
    "ClientSession",
    "Coordinator",
    "DistributedBackend",
    "fetch_cluster_status",
    "run_worker",
]
