"""Reference models for differential tests.

The functional model of the game: immutable states and a step function that
re-derives everything from the state at hand: the queue phase, the departing
pod's place and the admissible set.  It shares no step logic with
:class:`podrepo.core.Replay`, which the library runs on, so the tests compare
the two; :func:`reference_cost` steps a whole plan through it.
:func:`total_or_infeasible` is genetic-1's fitness walked through ``Replay``.
:func:`fractional_medium` is a medium instance whose legs are not whole
numbers, so solvers that sum them in another order than the replay report
totals that differ from the replay's in the last bits.

:func:`check_interval_model` checks ``exact.derive_bip_parameters``
against the schedule's step records, with :func:`first_leg_base_cost` (the
per-pod walk over ``pod_departure_steps``) as the reference base cost.

:func:`tetris_bisect` is the tetris sweep on per-place sorted interval lists,
the oracle for the library's bitmap sweep.  Its most-expensive-place start
takes the argmax of the admissible list, so it also checks the library's
cost-level policy.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, replace
from typing import Optional, Sequence

from podrepo.core import (NO_OP, REASON_BUSY, REASON_LENGTH, REASON_PHASE,
                          InfeasibleActionError, Instance, InvalidInstanceError,
                          Replay, departure_schedule, initial_busy_ends,
                          occupation_intervals, require_zero_terminal,
                          terminal_cost, total_cost)
from podrepo.exact import derive_bip_parameters
from podrepo.genetic import INFEASIBLE
from podrepo.instances import build_medium_system
from podrepo.policies import decision_cost_table
from podrepo.tetris import SORT_DURATION, SORT_FREQUENCY


@dataclass(frozen=True)
class SystemState:
    """Storage occupancy, station queues, remaining departures, clock.

    ``storage[p-1]`` is the pod at place ``p`` or ``None`` when the place is
    free.  Queues are head-first tuples.
    """

    storage: tuple[Optional[int], ...]
    queues: tuple[tuple[int, ...], ...]
    future_departures: tuple[tuple[int, int], ...]
    clock: int


def enqueue(queue: Sequence[int], capacity: int, pod: int) -> tuple[tuple[int, ...], Optional[int]]:
    """FIFO enqueue; a full queue ejects and returns its head."""
    if pod in queue:
        raise InvalidInstanceError(f"pod {pod} already queued")
    q = tuple(queue)
    if len(q) > capacity:
        raise InvalidInstanceError("queue over capacity")
    if len(q) < capacity:
        return q + (pod,), None
    return q[1:] + (pod,), q[0]


def initial_state(inst: Instance) -> SystemState:
    return SystemState(
        storage=tuple(inst.initial_storage),
        queues=tuple(tuple(q) for q in inst.initial_queues),
        future_departures=tuple(inst.departures),
        clock=0,
    )


def _is_fill_step(inst: Instance, state: SystemState) -> bool:
    _, station = state.future_departures[0]
    return len(state.queues[station - 1]) < inst.station_capacities[station - 1]


def admissible_actions(inst: Instance, state: SystemState) -> tuple[int, ...]:
    """Admissible actions, ascending; no-op only during the fill phase."""
    if not state.future_departures:
        return (NO_OP,)
    if _is_fill_step(inst, state):
        return (NO_OP,)
    pod, _ = state.future_departures[0]
    free = [p for p in range(1, inst.n_places + 1)
            if state.storage[p - 1] is None or state.storage[p - 1] == pod]
    return tuple(free)


def transition(inst: Instance, state: SystemState, action: int) -> SystemState:
    """Apply one departure and the chosen action, returning the new state."""
    if not state.future_departures:
        raise InfeasibleActionError(state.clock, REASON_LENGTH, "no pending departure")
    pod, station = state.future_departures[0]
    si = station - 1
    place_of_pod = None
    for p in range(1, inst.n_places + 1):
        if state.storage[p - 1] == pod:
            place_of_pod = p
            break
    if place_of_pod is None:
        raise InvalidInstanceError(f"departing pod {pod} not in storage at step {state.clock}")

    storage = list(state.storage)
    storage[place_of_pod - 1] = None
    new_queue, ejected = enqueue(state.queues[si], inst.station_capacities[si], pod)

    if ejected is None:
        if action != NO_OP:
            raise InfeasibleActionError(state.clock, REASON_PHASE,
                                        f"queue {station} filling, action must be no-op")
    else:
        if action == NO_OP:
            raise InfeasibleActionError(state.clock, REASON_PHASE,
                                        f"queue {station} full, a place must be chosen")
        if not 1 <= action <= inst.n_places:
            raise InfeasibleActionError(state.clock, REASON_BUSY,
                                        f"place {action} does not exist")
        if storage[action - 1] is not None:
            raise InfeasibleActionError(state.clock, REASON_BUSY,
                                        f"place {action} holds pod {storage[action - 1]}")
        storage[action - 1] = ejected

    queues = list(state.queues)
    queues[si] = new_queue
    return SystemState(
        storage=tuple(storage),
        queues=tuple(queues),
        future_departures=state.future_departures[1:],
        clock=state.clock + 1,
    )


def step_cost(inst: Instance, state: SystemState, action: int) -> float:
    """Cost of one step: to-station leg plus return leg (0 for no-op)."""
    pod, station = state.future_departures[0]
    place = next(p for p in range(1, inst.n_places + 1) if state.storage[p - 1] == pod)
    cost = inst.costs.to_stn(place, station)
    if action != NO_OP:
        cost += inst.costs.from_stn(station, action)
    return cost


def reference_cost(inst: Instance, actions: Sequence[int]) -> float:
    """Cost of ``actions`` stepped through the functional model, terminal
    cost included."""
    state = initial_state(inst)
    cost = 0.0
    for a in actions:
        cost += step_cost(inst, state, a)
        state = transition(inst, state, a)
    assert not state.future_departures
    return cost + terminal_cost(inst, state.storage, state.queues)


def total_or_infeasible(inst: Instance, plan: Sequence[int]) -> float:
    """Genetic-1's fitness walked through ``Replay``: the oracle for the
    batched check."""
    try:
        return total_cost(inst, plan)
    except InfeasibleActionError:
        return INFEASIBLE


def first_leg_base_cost(inst: Instance) -> float:
    """The to-station legs of the initial pods: each pod's first departure
    read from ``pod_departure_steps``, summed in place order."""
    schedule = departure_schedule(inst)
    base = 0.0
    for p, h in enumerate(inst.initial_storage, start=1):
        if h is None:
            continue
        deps = schedule.pod_departure_steps[h - 1]
        if deps:
            base += inst.costs.to_stn(p, inst.departures[deps[0]][1])
    return base


def check_interval_model(inst: Instance) -> None:
    """Assert that the interval model restates the schedule exactly."""
    steps = departure_schedule(inst).steps
    params = derive_bip_parameters(inst)
    decisions = tuple(t for t, info in enumerate(steps) if not info.fill)
    assert params.decision_steps == decisions
    assert params.busy_ends == tuple(steps[t].busy_end for t in decisions)
    assert params.keys == tuple((steps[t].station, steps[t].return_next_station)
                                for t in decisions)
    assert params.initial_busy_end == tuple(initial_busy_ends(inst))
    assert params.base_cost == first_leg_base_cost(inst)


def tetris_bisect(inst: Instance, mode: str = SORT_FREQUENCY) -> tuple[list[int], float]:
    """:func:`podrepo.tetris.tetris` with a free-span test per candidate place,
    by bisection in that place's sorted begins and ends."""
    require_zero_terminal(inst)
    if mode not in (SORT_FREQUENCY, SORT_DURATION):
        raise ValueError(f"unknown tetris mode: {mode}")

    table = decision_cost_table(inst)

    def most_expensive(replay: Replay, info) -> int:
        row = table[(info.station, info.return_next_station)]
        return max(replay.admissible(), key=row.__getitem__)

    replay = Replay(inst).run(most_expensive)
    actions = list(replay.actions)
    total = replay.total

    intervals = occupation_intervals(inst, actions)
    # per place: the begins and the ends of its disjoint intervals, both
    # ascending, since the intervals arrive sorted by begin
    begins_at: list[list[int]] = [[] for _ in range(inst.n_places + 1)]
    ends_at: list[list[int]] = [[] for _ in range(inst.n_places + 1)]
    for iv in intervals:
        begins_at[iv.place].append(iv.begin)
        ends_at[iv.place].append(iv.end)

    movable = [iv for iv in intervals if iv.decision_step is not None]
    if mode == SORT_FREQUENCY:
        freq = [len(d) for d in departure_schedule(inst).pod_departure_steps]
        movable.sort(key=lambda iv: (-freq[iv.pod - 1], iv.begin, iv.pod))
    else:
        movable.sort(key=lambda iv: (iv.end - iv.begin, iv.begin, iv.pod))

    # (cost, place) pairs in ascending order for each (from, to) combination
    places = range(1, inst.n_places + 1)
    orders = {key: sorted(zip(row[1:], places)) for key, row in table.items()}

    # ``p`` is free over [begin, end) when its first interval that ends after
    # ``begin`` starts at or after ``end``; the interval then goes in at that
    # index
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
                j = bisect_left(begins_at[iv.place], begin)
                del begins_at[iv.place][j], ends_at[iv.place][j]
                begins_at[p].insert(i, begin)
                ends.insert(i, end)
                actions[begin - 1] = p
                total += cost - here
                break
    return actions, total


def fractional_medium(n: int = 2000) -> Instance:
    """``build_medium_system(1, n)`` with 0.1 added to every leg to a station
    and 0.3 to every leg from one."""
    inst = build_medium_system(1, n=n)
    costs = inst.costs
    return replace(inst, costs=replace(
        costs,
        to_station=tuple(tuple(c + 0.1 for c in row) for row in costs.to_station),
        from_station=tuple(tuple(c + 0.3 for c in row) for row in costs.from_station)))
