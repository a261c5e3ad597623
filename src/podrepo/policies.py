"""Online repositioning policies: random, the three cheapest-place variants,
and the fixed-place policy with its offline assignment computation.

A policy is a callable ``decide(replay, info) -> place`` that
:meth:`~podrepo.core.Replay.run` calls at decision steps only (it steps the
no-op on fill steps itself), with ``info`` the pending step's record; every
returned place is admissible by construction.  A decision reads the pending
step from ``info`` alone and builds the admissible mask from it: the free
places plus the one the departing pod leaves.  The greedy policies scan
cost levels: one static mask of places per distinct cost, best cost first,
ANDed with that mask.  Each keeps one map from a decision's (from-station,
next-station) key to its levels, built with the policy, so a decision is one
lookup and one scan.  Ties between equally cheap places are always broken
by the smallest place id so replays are reproducible: that is the lowest
set bit within a level.
The random policy draws for a whole replay at its first decision there,
since the admissible counts do not depend on the actions.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .core import (Instance, InvalidInstanceError, Replay, StepInfo, departure_schedule,
                   linear_sum_assignment, with_initial_storage)
from .instances import rng_from_seed

CHEAPEST_TO_STORAGE = "to-storage"
CHEAPEST_ON_AVERAGE = "avg"
CHEAPEST_DECISION = "decision"


def station_fractions(inst: Instance) -> list[float]:
    """Empirical fraction of departures per station."""
    counts = [0] * inst.n_stations
    for _, s in inst.departures:
        counts[s - 1] += 1
    n = max(len(inst.departures), 1)
    return [c / n for c in counts]


def avg_costs(inst: Instance) -> list[float]:
    """Per-place round-trip cost averaged over the empirical station mix."""
    r = station_fractions(inst)
    return [sum((inst.costs.to_stn(p, s) + inst.costs.from_stn(s, p)) * r[s - 1]
                for s in range(1, inst.n_stations + 1))
            for p in range(1, inst.n_places + 1)]


def decision_cost(inst: Instance, place: int, from_station: int,
                  to_station: Optional[int]) -> float:
    """Return-leg cost plus the next-departure leg when the destination is known."""
    cost = inst.costs.from_stn(from_station, place)
    if to_station is not None:
        cost += inst.costs.to_stn(place, to_station)
    return cost


DecisionCosts = dict[tuple[int, Optional[int]], list[float]]


def decision_cost_table(inst: Instance) -> DecisionCosts:
    """:func:`decision_cost` of every place, one row per (from-station,
    next-station-or-``None``) key.

    ``row[p]`` is the cost of place ``p``; ``row[0]`` stands for the no-op
    and is never read.
    """
    places = range(1, inst.n_places + 1)
    stations = range(1, inst.n_stations + 1)
    return {(s_from, s_to): [0.0] + [decision_cost(inst, p, s_from, s_to) for p in places]
            for s_from in stations for s_to in (*stations, None)}


def cost_levels(row: list[float], n_places: int) -> tuple[list[float], list[int]]:
    """The places ``1..n_places`` grouped by their cost in ``row``: the
    distinct costs in ascending order, and per cost the mask of its places
    (bit ``p`` set when ``row[p]`` is that cost)."""
    masks: dict[float, int] = {}
    for p in range(1, n_places + 1):
        masks[row[p]] = masks.get(row[p], 0) | 1 << p
    costs = sorted(masks)
    return costs, [masks[c] for c in costs]


class RandomPolicy:
    """Uniform choice among the admissible places: a draw ``k`` below their
    count, then the k-th set bit of the admissible mask, counted from place 1.

    That count is ``Schedule.choices[t]``, fixed before any action.  So at its
    first decision on a replay the policy draws the ``k`` of every remaining
    decision in one ``integers`` call, the stream of one draw per decision,
    and then takes one draw per call.  While draws are pending, a call that
    is not the replay's next decision (another replay, a repeated or a
    skipped step) raises ``ValueError``.  Once they are used up, the next
    replay starts a new batch, so replays in sequence continue one stream.
    """

    def __init__(self, seed: int = 0):
        self.rng = rng_from_seed(seed)
        self._replay: Optional[Replay] = None
        # the pending decisions of that replay: their steps and draws, and
        # the index of the next one
        self._steps: list[int] = []
        self._draws: list[int] = []
        self._next = 0
        self._prefix: list[int] = []  # _prefix[m]: the mask of bits 0..m

    def _draw(self, replay: Replay) -> None:
        """Draw the ``k`` of every decision from ``replay.t`` on."""
        t, schedule = replay.t, replay.schedule
        if replay is self._replay:
            raise ValueError(f"step {t}: every decision of this replay is drawn")
        steps = schedule.steps
        if t >= len(steps) or steps[t].fill:
            raise ValueError(f"step {t} is not a decision of the replay")
        self._steps = decisions = [u for u in range(t, len(steps)) if not steps[u].fill]
        self._draws = self.rng.integers([schedule.choices[u] for u in decisions]).tolist()
        self._replay, self._next = replay, 0
        n_places = replay.n_places
        if len(self._prefix) <= n_places:
            self._prefix = [(2 << m) - 1 for m in range(n_places + 1)]

    def __call__(self, replay: Replay, info: StepInfo) -> int:
        i = self._next
        if i == len(self._steps):
            self._draw(replay)
            i = 0
        elif replay is not self._replay or replay.t != self._steps[i]:
            raise ValueError(f"step {replay.t} is not the next decision "
                             f"({self._steps[i]}) of the drawn replay")
        self._next = i + 1
        k = self._draws[i]
        mask = replay.free_bits | 1 << replay.place_of[info.pod]
        prefix = self._prefix
        # bisect for the first place whose prefix of the mask (bits 0..p)
        # holds more than k set bits
        lo, hi = 0, mask.bit_length()
        while lo < hi:
            mid = (lo + hi) >> 1
            if (mask & prefix[mid]).bit_count() > k:
                hi = mid
            else:
                lo = mid + 1
        return lo


class CheapestPolicy:
    """Cheapest available place under one of three cost notions, on the
    instance it was built for.

    ``to-storage`` uses only the return leg, ``avg`` ranks places by their
    average round-trip cost, ``decision`` adds the known next-destination leg.
    ``levels`` maps each decision's (from-station, next-station) key to the
    cost levels of its row: the ``(s, None)`` row for ``to-storage``, the
    average-cost row for ``avg``.
    """

    def __init__(self, inst: Instance, variant: str = CHEAPEST_DECISION):
        if variant not in (CHEAPEST_TO_STORAGE, CHEAPEST_ON_AVERAGE, CHEAPEST_DECISION):
            raise ValueError(f"unknown cheapest-place variant: {variant}")
        rows = decision_cost_table(inst)
        if variant == CHEAPEST_TO_STORAGE:
            rows = {(s, to): rows[(s, None)] for s, to in rows}
        elif variant == CHEAPEST_ON_AVERAGE:
            # place-indexed like the decision rows
            rows = dict.fromkeys(rows, [0.0] + avg_costs(inst))
        self.levels = {key: cost_levels(row, inst.n_places)[1] for key, row in rows.items()}

    def __call__(self, replay: Replay, info: StepInfo) -> int:
        """The smallest admissible place of the first level that has one."""
        pod, station, _, _, _, next_station = info
        admissible = replay.free_bits | 1 << replay.place_of[pod]
        for level in self.levels[(station, next_station)]:
            hit = admissible & level
            if hit:
                return (hit & -hit).bit_length() - 1
        raise ValueError("the cost levels cover no admissible place")


def station_frequencies(inst: Instance) -> tuple[list[list[int]], list[list[int]]]:
    """Per pod and station: departure counts and return counts, both derived
    from the departure sequence alone."""
    f_to = [[0] * inst.n_stations for _ in range(inst.n_pods)]
    f_from = [[0] * inst.n_stations for _ in range(inst.n_pods)]
    for pod, station, fill, returning, _, _ in departure_schedule(inst).steps:
        f_to[pod - 1][station - 1] += 1
        if not fill:
            f_from[returning - 1][station - 1] += 1
    return f_to, f_from


def fixed_assignment_costs(inst: Instance) -> np.ndarray:
    """Cost of permanently assigning pod h to place p (pods x places)."""
    f_to, f_from = station_frequencies(inst)
    to_station = np.array(inst.costs.to_station).T  # stations x places
    from_station = np.array(inst.costs.from_station)
    matrix = np.zeros((inst.n_pods, inst.n_places))
    # one pod row at a time, summed station by station in the order of the
    # per-cell definition, so every entry is the same float
    for h in range(inst.n_pods):
        row = matrix[h]
        for s in range(inst.n_stations):
            row += f_to[h][s] * to_station[s] + f_from[h][s] * from_station[s]
    return matrix


def compute_fixed_assignment(inst: Instance) -> dict[int, int]:
    """Optimal injective pod-to-place mapping, solved as a rectangular
    assignment problem."""
    if inst.n_pods > inst.n_places:
        raise ValueError("more pods than places: fixed assignment infeasible")
    matrix = fixed_assignment_costs(inst)
    rows, cols = linear_sum_assignment(matrix)
    return {int(h) + 1: int(p) + 1 for h, p in zip(rows, cols)}


def rearranged_instance(inst: Instance, assignment: dict[int, int]) -> Instance:
    """The instance with its initial storage rewritten so every stored pod sits
    at its assigned place.  This pre-game rearrangement is cost-free, mirroring
    how fixed-place results are reported (not directly comparable).  Raises
    :class:`InvalidInstanceError` unless the places are distinct and known."""
    storage: list[Optional[int]] = [None] * inst.n_places
    for h in inst.initial_storage:
        if h is not None:
            place = assignment[h]
            if not 1 <= place <= inst.n_places:
                raise InvalidInstanceError(f"pod {h} assigned to unknown place {place}")
            storage[place - 1] = h
    return with_initial_storage(inst, storage)


class FixedPolicy:
    """Always send a pod back to its assigned place.

    Requires an initial state consistent with the assignment, see
    :func:`rearranged_instance`."""

    def __init__(self, assignment: dict[int, int]):
        self.assignment = assignment

    def __call__(self, replay: Replay, info: StepInfo) -> int:
        place = self.assignment[info.returning_pod]
        held = replay.pod_at[place]
        if held != 0 and held != info.pod:
            raise ValueError(
                f"assigned place {place} busy: initial state not consistent "
                f"with the fixed assignment")
        return place
