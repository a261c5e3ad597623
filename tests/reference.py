"""Functional reference model of the game, for differential tests.

Immutable states and a step function that re-derives everything from the
state at hand: the queue phase, the departing pod's place and the admissible
set.  It shares no step logic with :class:`podrepo.core.Replay`, which the
library runs on, so the tests compare the two.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from podrepo.core import (NO_OP, REASON_BUSY, REASON_LENGTH, REASON_PHASE,
                          InfeasibleActionError, Instance, InvalidInstanceError)


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
