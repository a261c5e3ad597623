"""The tetris heuristic.

Start from a most-expensive-place replay (leaving the cheap places free),
then sweep the occupation intervals once -- in pod-frequency or in
interval-duration order -- and drop each interval onto the cheapest strictly
cheaper place that is free for its whole time span.  Interval time spans are
fixed by the departure sequence; only the place coordinate moves.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right

from .core import (NO_OP, Instance, Replay, departure_schedule,
                   occupation_intervals, require_zero_terminal)
from .policies import decision_cost_table

SORT_FREQUENCY = "frequency"
SORT_DURATION = "duration"


class MostExpensivePlacePolicy:
    """Reverse cheapest-place on the instance it was built for: argmax of the
    decision cost, ties to the smallest place id."""

    def __init__(self, inst: Instance):
        self.table = decision_cost_table(inst)

    def __call__(self, replay: Replay) -> int:
        info = replay.current
        if info.fill:
            return NO_OP
        row = self.table[(info.station, info.return_next_station)]
        return max(replay.admissible(), key=row.__getitem__)


class _Timeline:
    """Per-place disjoint intervals as parallel ``begins``/``ends`` lists, both
    ascending."""

    def __init__(self, n_places: int):
        self.begins: list[list[int]] = [[] for _ in range(n_places + 1)]
        self.ends: list[list[int]] = [[] for _ in range(n_places + 1)]

    def add(self, place: int, begin: int, end: int) -> None:
        i = bisect_left(self.begins[place], begin)
        self.begins[place].insert(i, begin)
        self.ends[place].insert(i, end)

    def remove(self, place: int, begin: int, end: int) -> None:
        i = bisect_left(self.begins[place], begin)
        del self.begins[place][i]
        del self.ends[place][i]


def tetris(inst: Instance, mode: str = SORT_FREQUENCY) -> tuple[list[int], float]:
    """Run the heuristic; returns the action sequence and its total cost
    (zero terminal cost only)."""
    require_zero_terminal(inst)
    if mode not in (SORT_FREQUENCY, SORT_DURATION):
        raise ValueError(f"unknown tetris mode: {mode}")

    start = MostExpensivePlacePolicy(inst)
    replay = Replay(inst).run(start)
    actions = list(replay.actions)
    total = replay.total

    intervals = occupation_intervals(inst, actions)
    timeline = _Timeline(inst.n_places)
    for iv in intervals:
        timeline.add(iv.place, iv.begin, iv.end)

    movable = [iv for iv in intervals if iv.decision_step is not None]
    if mode == SORT_FREQUENCY:
        freq = [len(d) for d in departure_schedule(inst).pod_departure_steps]
        movable.sort(key=lambda iv: (-freq[iv.pod - 1], iv.begin, iv.pod))
    else:
        movable.sort(key=lambda iv: (iv.end - iv.begin, iv.begin, iv.pod))

    # (cost, place) pairs in ascending order for each (from, to) combination
    table = start.table
    places = range(1, inst.n_places + 1)
    orders = {key: sorted(zip(row[1:], places)) for key, row in table.items()}

    # ``p`` is free over [begin, end) when its first interval that ends after
    # ``begin`` starts at or after ``end``
    begins_at, ends_at = timeline.begins, timeline.ends
    for iv in movable:
        key = (iv.from_station, iv.to_station)
        here = table[key][iv.place]
        begin, end = iv.begin, iv.end
        for cost, p in orders[key]:
            if cost >= here:
                break
            ends = ends_at[p]
            i = bisect_right(ends, begin)
            if i == len(ends) or begins_at[p][i] >= end:
                timeline.remove(iv.place, begin, end)
                timeline.add(p, begin, end)
                actions[begin - 1] = p
                total += cost - here
                break
    return actions, total
