"""Branch-predictor behaviour of the stage-2 branch engines.

Each test drives :func:`repro.sim.events.simulate_branches_batch` on a
synthetic outcome trace, asserts that both engines agree, and checks
the measured ``(mispredicts, lookups)``.  The core name picks the
predictor: ``small`` is gshare, ``small-bimodal`` and
``small-tournament`` the other two kinds, all with 4,096-entry tables
of 2-bit counters that start weakly taken.
"""

import numpy as np

from repro.sim import LARGE_CORE, SMALL_CORE, Simulator
from repro.sim.config import custom_core
from repro.sim.events import branch_event_key
from tests.sim.conftest import (
    branch_events_every_engine,
    branch_trace,
    idle_program,
)

GSHARE = SMALL_CORE
BIMODAL = custom_core(SMALL_CORE, name="small-bimodal")
TOURNAMENT = custom_core(SMALL_CORE, name="small-tournament")


def run(core, outcomes, warmup=0, pc=0x80):
    """(mispredicts, lookups) for one branch site's outcome stream."""
    trace = branch_trace([pc] * len(outcomes), outcomes)
    return branch_events_every_engine(core, trace, warmup)


def alternating(n):
    return [k % 2 == 0 for k in range(n)]


class TestBimodal:
    def test_learns_always_taken(self):
        assert run(BIMODAL, [True] * 150, warmup=100, pc=0x40) == (0, 50)

    def test_learns_always_not_taken(self):
        assert run(BIMODAL, [False] * 150, warmup=100, pc=0x40) == (0, 50)

    def test_alternating_pattern_defeats_bimodal(self):
        # The counter swings between weakly and strongly taken: every
        # taken branch is right, every not-taken one wrong.  Gshare
        # learns strict alternation (see TestGShare).
        assert run(BIMODAL, alternating(400), pc=0x40) == (200, 400)

    def test_idle_rate_is_zero(self):
        stats = Simulator(BIMODAL).run(idle_program(), instructions=4000)
        assert stats.extra["branch_lookups"] == 0
        assert stats.mispredict_rate == 0.0


class TestGShare:
    def test_learns_alternating_pattern(self):
        outcomes = alternating(800)
        assert run(GSHARE, outcomes, warmup=600) == (0, 200)

    def test_learns_periodic_pattern(self):
        pattern = [True, True, False, True]
        outcomes = [pattern[n % 4] for n in range(2400)]
        assert run(GSHARE, outcomes, warmup=2000) == (0, 400)

    def test_random_outcomes_mispredict_about_half(self):
        rng = np.random.default_rng(0)
        outcomes = (rng.random(4000) < 0.5).tolist()
        mispredicts, lookups = run(GSHARE, outcomes)
        assert lookups == 4000
        assert 0.4 < mispredicts / lookups < 0.6

    def test_more_random_means_more_mispredicts(self):
        rng = np.random.default_rng(1)
        pattern = [True, True, False, True]
        rates = []
        for ratio in (0.0, 0.3, 0.7, 1.0):
            outcomes = [
                bool(rng.random() < 0.5) if rng.random() < ratio
                else pattern[n % 4]
                for n in range(3000)
            ]
            mispredicts, lookups = run(GSHARE, outcomes)
            rates.append(mispredicts / lookups)
        assert all(a <= b + 0.03 for a, b in zip(rates, rates[1:]))


class TestFactory:
    def test_core_sizing(self):
        assert branch_event_key(SMALL_CORE) == ("gshare", 4096, 10)
        assert branch_event_key(LARGE_CORE) == ("gshare", 16384, 13)
        large_tournament = custom_core(LARGE_CORE, name="large-tournament")
        assert branch_event_key(large_tournament) == (
            "tournament", 16384, 16384, 13, 16384
        )
        assert branch_event_key(BIMODAL) == ("bimodal", 4096)


class TestTournament:
    def test_beats_bimodal_on_alternating(self):
        # After 1,500 warmup branches the chooser has settled on
        # gshare, which predicts strict alternation perfectly; bimodal
        # still misses every not-taken branch.
        outcomes = alternating(1900)
        assert run(TOURNAMENT, outcomes, warmup=1500) == (0, 400)
        assert run(BIMODAL, outcomes, warmup=1500) == (200, 400)

    def test_matches_best_component_on_biased_branches(self):
        # Strongly biased branch: bimodal is near-perfect, and the
        # chooser must not be worse than ~the bias noise floor.
        rng = np.random.default_rng(0)
        outcomes = (rng.random(3000) < 0.95).tolist()
        mispredicts, lookups = run(TOURNAMENT, outcomes, pc=0x40)
        assert mispredicts / lookups < 0.15

    def test_idle_rate_zero(self):
        stats = Simulator(TOURNAMENT).run(idle_program(), instructions=4000)
        assert stats.extra["branch_lookups"] == 0
        assert stats.mispredict_rate == 0.0
