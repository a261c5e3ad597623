"""The tetris heuristic.

Start from a most-expensive-place replay (leaving the cheap places free),
then sweep the occupation intervals once -- in pod-frequency or in
interval-duration order -- and drop each interval onto the cheapest strictly
cheaper place that is free for its whole time span.  Interval time spans are
fixed by the departure sequence; only the place coordinate moves.  The sweep
keeps the plan as a bit-packed place-by-time occupancy matrix, so one
OR-reduce over an interval's steps answers the free-span test for every
place at once; the candidates are scanned as cost-level masks, cheapest
first.

Both modes start from the same replay, and the most-expensive policy run
plays it too: :func:`most_expensive_start` keeps one policy and one replay
per instance object, and the first caller plays it to the end.
"""

from __future__ import annotations

from bisect import bisect_left

import numpy as np

from .core import (Instance, OccupationInterval, Replay, departure_schedule,
                   occupation_intervals, require_zero_terminal)
from .policies import CheapestPolicy, cost_levels, decision_cost_table

SORT_FREQUENCY = "frequency"
SORT_DURATION = "duration"

# ``_BIT[b]`` is the word with only bit ``b`` set
_BIT = np.left_shift(np.uint64(1), np.arange(64, dtype=np.uint64))


class MostExpensivePlacePolicy:
    """Reverse cheapest-place on the instance it was built for: argmax of the
    decision cost, ties to the smallest place id.  It scans the decision
    cost levels dearest first, with the cheapest-place policy's scan;
    ``ranks`` keeps each row's :func:`cost_levels`, ascending."""

    def __init__(self, inst: Instance):
        self.table = decision_cost_table(inst)
        self.ranks = {key: cost_levels(row, inst.n_places) for key, row in self.table.items()}
        self.levels = {key: masks[::-1] for key, (_, masks) in self.ranks.items()}

    __call__ = CheapestPolicy.__call__


def most_expensive_start(inst: Instance) -> tuple[MostExpensivePlacePolicy, Replay]:
    """The most-expensive-place policy of ``inst`` and its replay, made on the
    first call for an instance object and cached on it in ``_start``, like
    :func:`~podrepo.core.departure_schedule`'s ``_schedule``.

    Each caller runs ``replay.run(policy)``: the first one plays the start,
    later ones return at once.  The replay's action list is shared, so a
    caller copies it before handing it out.
    """
    start = getattr(inst, "_start", None)
    if start is None:
        start = (MostExpensivePlacePolicy(inst), Replay(inst))
        object.__setattr__(inst, "_start", start)
    return start


def tetris(inst: Instance, mode: str = SORT_FREQUENCY) -> tuple[list[int], float]:
    """Run the heuristic; returns the action sequence and its total cost
    (zero terminal cost only)."""
    require_zero_terminal(inst)
    if mode not in (SORT_FREQUENCY, SORT_DURATION):
        raise ValueError(f"unknown tetris mode: {mode}")

    start, replay = most_expensive_start(inst)
    actions = list(replay.run(start).actions)
    total = replay.total

    intervals = occupation_intervals(inst, actions)
    occ = _occupancy(inst, intervals)

    movable = [iv for iv in intervals if iv.decision_step is not None]
    begins = np.array([iv.begin for iv in movable], dtype=np.intp)
    if mode == SORT_FREQUENCY:
        freq = np.array([len(d) for d in departure_schedule(inst).pod_departure_steps])
        primary = -freq[np.array([iv.pod for iv in movable], dtype=np.intp) - 1]
    else:
        primary = np.array([iv.end for iv in movable], dtype=np.intp) - begins
    # a decision's interval begins at t + 1, so begins are unique and
    # (primary, begin) is already a total order: the pod never breaks a tie
    order = np.lexsort((begins, primary)).tolist()

    table = start.table
    lookup = {key: (costs, levels, table[key]) for key, (costs, levels) in start.ranks.items()}
    bits = list(_BIT)  # np.uint64 scalars, so a move indexes no array
    rows = list(occ)  # 1-D views of the word rows, so a move slices one axis
    # the candidates are the strictly cheaper levels; the first one with a
    # place whose bit is clear in the OR of the occupancy over [begin, end)
    # takes the interval, on its smallest such place
    for k in order:
        place, _, begin, end, from_station, to_station, _ = movable[k]
        costs, levels, row = lookup[from_station, to_station]
        here = row[place]
        limit = bisect_left(costs, here)
        if not limit:
            continue
        words = np.bitwise_or.reduce(occ[:, begin:end], axis=1)
        clear = ~int.from_bytes(words.tobytes(), "little")
        for i in range(limit):
            free = levels[i] & clear
            if free:
                break
        else:
            continue
        # the old place's bits are all set over the span, the new one's clear
        p = (free & -free).bit_length() - 1
        old_word, new_word = place >> 6, p >> 6
        if old_word == new_word:
            rows[old_word][begin:end] ^= bits[place & 63] | bits[p & 63]
        else:
            rows[old_word][begin:end] ^= bits[place & 63]
            rows[new_word][begin:end] ^= bits[p & 63]
        actions[begin - 1] = p
        total += costs[i] - here
    return actions, total


def _occupancy(inst: Instance, intervals: list[OccupationInterval]) -> np.ndarray:
    """Bit ``p & 63`` of ``occ[p >> 6, t]`` is set while place ``p`` is
    occupied at step ``t``.

    Word-major, so the steps of one interval are a contiguous run in each
    row.  The intervals on one place are disjoint: flipping its bit at each
    begin and end and XOR-accumulating along time sets it exactly inside them.
    """
    place = np.array([iv.place for iv in intervals], dtype=np.intp)
    begin = np.array([iv.begin for iv in intervals], dtype=np.intp)
    end = np.array([iv.end for iv in intervals], dtype=np.intp)
    # little-endian words, so a word's bytes are its bits in place order
    flips = np.zeros((inst.n_places // 64 + 1, inst.horizon + 2), dtype="<u8")
    np.bitwise_xor.at(flips, (place >> 6, begin), _BIT[place & 63])
    np.bitwise_xor.at(flips, (place >> 6, end), _BIT[place & 63])
    return np.bitwise_xor.accumulate(flips, axis=1, out=flips)
