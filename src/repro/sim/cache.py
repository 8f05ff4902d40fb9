"""Instruction-cache steady-state model.

Every test case is a fixed loop, so instruction fetch is a cyclic
reference pattern through the set-associative L1I with a per-set steady
state: sets whose lines fit in the ways always hit, over-capacity sets
hit at a damped random-replacement rate.  :func:`cyclic_code_hits` is
the oracle loop over sets and :func:`cyclic_code_hits_closed` its O(1)
closed form.  The data side (L1D, L2, prefetcher, DTLB) is simulated
on the exact address trace in :mod:`repro.sim.events`.
"""

from __future__ import annotations

#: Fraction of the idealized over-capacity residency that instruction
#: fetch actually achieves: taken branches reorder/skip parts of the loop
#: body, so code fetch does not thrash as pathologically as a perfectly
#: cyclic LRU reference stream would.
_FETCH_REORDER_FACTOR = 0.85


def cyclic_code_hits(
    num_lines: int, num_sets: int, assoc: int, iterations: int
) -> tuple[int, int]:
    """Steady-state (hits, misses) for a code loop through the I-cache.

    A loop body touching ``num_lines`` distinct instruction lines maps
    roughly ``num_lines / num_sets`` lines to each set.  Sets whose lines
    fit within the ways serve hits every iteration (cold misses belong to
    the warmup window, which the simulator discards).  For over-capacity
    sets a perfectly cyclic LRU stream would never hit; real instruction
    fetch is not perfectly cyclic (taken branches skip and reorder), so
    over-capacity sets are modelled with the random-replacement steady
    state — each access hits with probability ``assoc / lines_in_set`` —
    damped by :data:`_FETCH_REORDER_FACTOR`.

    Returns:
        Tuple of steady-state instruction-fetch line ``(hits, misses)``
        over ``iterations`` full loop iterations.
    """
    if num_lines <= 0 or iterations <= 0:
        return (0, 0)
    per_set = [num_lines // num_sets] * num_sets
    for s in range(num_lines % num_sets):
        per_set[s] += 1
    hits = 0
    misses = 0
    for lines_in_set in per_set:
        if lines_in_set == 0:
            continue
        if lines_in_set <= assoc:
            hits += lines_in_set * iterations
        else:
            accesses = lines_in_set * iterations
            hit_probability = (assoc / lines_in_set) * _FETCH_REORDER_FACTOR
            set_hits = int(round(accesses * hit_probability))
            hits += set_hits
            misses += accesses - set_hits
    return hits, misses


def cyclic_code_hits_closed(
    num_lines: int, num_sets: int, assoc: int, iterations: int
) -> tuple[int, int]:
    """Closed-form :func:`cyclic_code_hits`: O(1) instead of O(num_sets).

    The largest-remainder distribution gives ``per_set`` at most two
    distinct values — ``q = num_lines // num_sets`` and ``q + 1`` for the
    first ``num_lines % num_sets`` sets.  Every set with the same line
    count contributes the identical ``int(round(...))`` hit count, so
    multiplying each distinct value's contribution by its set count
    reproduces the per-set loop bit-for-bit (integer sums are exact and
    the rounded expression is evaluated once per distinct value with the
    same operand order).
    """
    if num_lines <= 0 or iterations <= 0:
        return (0, 0)
    q, r = divmod(num_lines, num_sets)
    hits = 0
    misses = 0
    for lines_in_set, set_count in ((q + 1, r), (q, num_sets - r)):
        if set_count == 0 or lines_in_set == 0:
            continue
        if lines_in_set <= assoc:
            hits += lines_in_set * iterations * set_count
        else:
            accesses = lines_in_set * iterations
            hit_probability = (assoc / lines_in_set) * _FETCH_REORDER_FACTOR
            set_hits = int(round(accesses * hit_probability))
            hits += set_hits * set_count
            misses += (accesses - set_hits) * set_count
    return hits, misses
