"""Execution backends: where evaluation batches actually run.

The tuning stack above this package is backend-agnostic — tuners hand the
:class:`~repro.tuning.evaluator.Evaluator` a *batch* of candidate knob
configurations per epoch, the evaluator dedups them, and whatever remains
is dispatched here: :func:`evaluate_configs` groups it by generation
fingerprint, maps one chunk of whole groups per worker, and each job
hands every group to the platform's ``evaluate_group``; every worker
attaches the caller's on-disk trace-artifact store.  :func:`backend_for`
picks between in-process serial execution, a thread or process pool
(one ``concurrent.futures`` class, sized by ``jobs=``) and the
distributed coordinator/worker service (:mod:`repro.dist`, sized by its
own workers) from the knobs of :class:`repro.core.config.MicroGradConfig`;
:class:`DiskResultCache` persists finished evaluations across runs.
"""

from repro.dist.backend import DistributedBackend
from repro.exec.backend import (
    ExecutionBackend,
    ProcessPoolBackend,
    SerialBackend,
    ThreadBackend,
    backend_for,
)
from repro.exec.cache import DiskResultCache
from repro.exec.jobs import evaluate_configs, run_clone_jobs

__all__ = [
    "ExecutionBackend",
    "SerialBackend",
    "ThreadBackend",
    "ProcessPoolBackend",
    "DistributedBackend",
    "backend_for",
    "DiskResultCache",
    "evaluate_configs",
    "run_clone_jobs",
]
