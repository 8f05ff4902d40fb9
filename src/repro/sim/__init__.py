"""Gem5-like performance-simulation substrate.

The paper evaluates generated test cases on the Gem5 O3 model with the
Table II core configurations.  This package provides the cycle-approximate
equivalent used by this reproduction:

* set-associative LRU data caches (L1D, unified L2, optional L2 stride
  prefetcher on the Large core) and a DTLB, simulated on the exact
  address trace the generated loop produces, plus a steady-state L1I
  model of the loop's code;
* a gshare, bimodal or tournament branch predictor, picked by core
  name, simulated on the exact outcome trace;
* a register dependency-graph critical-path analysis of the loop body;
* an interval-analysis timing model combining front-end width, functional
  unit contention, window occupancy, dependency chains and miss events
  into a cycle count.

The entry point is :class:`~repro.sim.simulator.Simulator`.  Simulation
runs as a three-stage pipeline: a shared per-program
:class:`~repro.sim.artifact.TraceArtifact` (stage 1), per-core event
simulation (stage 2, :mod:`repro.sim.events`) and the batched interval
timing model (stage 3); :meth:`Simulator.run_many` evaluates a batch of
core configs against one artifact.
"""

from repro.sim.config import CoreConfig, LARGE_CORE, SMALL_CORE, core_by_name
from repro.sim.cache import cyclic_code_hits
from repro.sim.stats import SimStats
from repro.sim.simulator import Simulator
from repro.sim.artifact import (
    TraceArtifact,
    TraceArtifactCache,
    program_fingerprint,
)

__all__ = [
    "CoreConfig",
    "SMALL_CORE",
    "LARGE_CORE",
    "core_by_name",
    "cyclic_code_hits",
    "SimStats",
    "Simulator",
    "TraceArtifact",
    "TraceArtifactCache",
    "program_fingerprint",
]
