"""Deterministic discrete-time warehouse game.

The game replays an exogenous sequence of pod departures through a storage
area and FIFO station queues.  At every time step one pod leaves the storage
area for a pick station; while the target queue is still below capacity the
only admissible action is the no-op, afterwards the queue head is pushed out
and the action chooses which storage place receives it.

All public state objects are immutable; :func:`transition` returns a new
state.  :class:`Replay` is the fast mutable engine the policies and solvers
run on -- it must stay behaviourally identical to the functional API, which
the test suite checks.
"""

from __future__ import annotations

import json
import math
import sys
from bisect import bisect_left, insort
from dataclasses import dataclass
from itertools import chain
from typing import Callable, Optional, Sequence

NO_OP = 0

TERMINAL_ZERO = "zero"
TERMINAL_RETURN_ALL = "return-all-pods"

REASON_LENGTH = "length-mismatch"
REASON_PHASE = "wrong-phase-action"
REASON_BUSY = "place-busy"


class GameError(Exception):
    """Base class for game errors."""


class InvalidInstanceError(GameError):
    """The instance violates a structural invariant."""


class InfeasibleActionError(GameError):
    """An action was rejected during a replay."""

    def __init__(self, step: int, reason: str, message: str):
        super().__init__(f"step {step}: {reason}: {message}")
        self.step = step
        self.reason = reason


@dataclass(frozen=True)
class CostModel:
    """Movement cost tables plus terminal-cost selector.

    ``to_station[p-1][s-1]`` is the cost of moving a pod from place ``p`` to
    station ``s``; ``from_station[s-1][p-1]`` the cost of the return leg.
    ``terminal`` selects the end-of-horizon cost (``TERMINAL_ZERO`` or
    ``TERMINAL_RETURN_ALL``).  Every cost is finite and non-negative.
    """

    to_station: tuple[tuple[float, ...], ...]
    from_station: tuple[tuple[float, ...], ...]
    terminal: str = TERMINAL_ZERO

    def to_stn(self, place: int, station: int) -> float:
        return self.to_station[place - 1][station - 1]

    def from_stn(self, station: int, place: int) -> float:
        return self.from_station[station - 1][place - 1]

    def validate(self, n_places: int, n_stations: int) -> None:
        if len(self.to_station) != n_places:
            raise InvalidInstanceError("to_station table has wrong place count")
        if any(len(row) != n_stations for row in self.to_station):
            raise InvalidInstanceError("to_station table has wrong station count")
        if len(self.from_station) != n_stations:
            raise InvalidInstanceError("from_station table has wrong station count")
        if any(len(row) != n_places for row in self.from_station):
            raise InvalidInstanceError("from_station table has wrong place count")
        if not all(0 <= c < math.inf for row in self.to_station for c in row):
            raise InvalidInstanceError("negative or non-finite cost in to_station table")
        if not all(0 <= c < math.inf for row in self.from_station for c in row):
            raise InvalidInstanceError("negative or non-finite cost in from_station table")
        if self.terminal not in (TERMINAL_ZERO, TERMINAL_RETURN_ALL):
            raise InvalidInstanceError(f"unknown terminal cost: {self.terminal}")


@dataclass(frozen=True)
class Instance:
    """A full problem instance: layout, costs, initial state, departures."""

    n_pods: int
    n_places: int
    station_capacities: tuple[int, ...]
    costs: CostModel
    initial_storage: tuple[Optional[int], ...]
    initial_queues: tuple[tuple[int, ...], ...]
    departures: tuple[tuple[int, int], ...]

    @property
    def n_stations(self) -> int:
        return len(self.station_capacities)

    @property
    def horizon(self) -> int:
        return len(self.departures)


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


@dataclass(frozen=True)
class Verdict:
    """Feasibility verdict: ``ok`` or the first violating step and reason."""

    ok: bool
    step: Optional[int] = None
    reason: Optional[str] = None


@dataclass(frozen=True)
class OccupationInterval:
    """Half-open interval during which ``pod`` occupies ``place``.

    ``decision_step`` is the time step whose action created the interval, or
    ``None`` for initial occupancy.  ``from_station`` is ``None`` for initial
    occupancy, ``to_station`` is ``None`` when the pod never departs again
    within the horizon.
    """

    place: int
    pod: int
    begin: int
    end: int
    from_station: Optional[int]
    to_station: Optional[int]
    decision_step: Optional[int] = None


@dataclass(frozen=True)
class StepInfo:
    """Action-independent facts about one time step.

    ``fill`` marks queue-filling steps (forced no-op).  For decision steps,
    ``returning_pod`` is the queue head pushed back into storage and
    ``return_next_step``/``return_next_station`` describe its next departure,
    if any.
    """

    pod: int
    station: int
    fill: bool
    returning_pod: Optional[int] = None
    return_next_step: Optional[int] = None
    return_next_station: Optional[int] = None


@dataclass(frozen=True)
class Schedule:
    """Precomputed per-step metadata shared by policies and solvers.

    Queue evolution does not depend on the chosen actions, so the departing
    pod, the fill/decision phase and the returning pod of every step are
    fixed by the departure sequence alone.
    """

    steps: tuple[StepInfo, ...]
    final_queues: tuple[tuple[int, ...], ...]
    pod_departure_steps: tuple[tuple[int, ...], ...]


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


def departure_schedule(inst: Instance) -> Schedule:
    """Simulate the action-independent queue dynamics once.

    Raises :class:`InvalidInstanceError` when a departure names a pod that is
    not in storage at its departure time.
    """
    dep_steps: list[list[int]] = [[] for _ in range(inst.n_pods)]
    for t, (pod, _) in enumerate(inst.departures):
        dep_steps[pod - 1].append(t)

    in_storage = [False] * (inst.n_pods + 1)
    for h in inst.initial_storage:
        if h is not None:
            in_storage[h] = True
    queues = [list(q) for q in inst.initial_queues]
    # per pod: index of its next unconsumed departure
    next_dep_idx = [0] * (inst.n_pods + 1)

    steps: list[StepInfo] = []
    for t, (pod, station) in enumerate(inst.departures):
        if not in_storage[pod]:
            raise InvalidInstanceError(f"departure {t}: pod {pod} not in storage")
        in_storage[pod] = False
        next_dep_idx[pod] += 1
        si = station - 1
        q = queues[si]
        if len(q) < inst.station_capacities[si]:
            q.append(pod)
            steps.append(StepInfo(pod=pod, station=station, fill=True))
        else:
            head = q.pop(0)
            q.append(pod)
            in_storage[head] = True
            later = dep_steps[head - 1]
            idx = next_dep_idx[head]
            if idx < len(later):
                nxt = later[idx]
                steps.append(StepInfo(pod=pod, station=station, fill=False,
                                      returning_pod=head, return_next_step=nxt,
                                      return_next_station=inst.departures[nxt][1]))
            else:
                steps.append(StepInfo(pod=pod, station=station, fill=False,
                                      returning_pod=head))
    return Schedule(
        steps=tuple(steps),
        final_queues=tuple(tuple(q) for q in queues),
        pod_departure_steps=tuple(tuple(d) for d in dep_steps),
    )


def validate_instance(inst: Instance) -> None:
    """Structural checks plus the one-shot dynamic departure check."""
    if inst.n_pods < 1 or inst.n_places < 1 or inst.n_stations < 1:
        raise InvalidInstanceError("empty pod, place or station set")
    if any(c < 1 for c in inst.station_capacities):
        raise InvalidInstanceError("station capacity must be positive")
    inst.costs.validate(inst.n_places, inst.n_stations)
    if len(inst.initial_storage) != inst.n_places:
        raise InvalidInstanceError("initial storage length != place count")
    seen: set[int] = set()
    for h in inst.initial_storage:
        if h is None:
            continue
        if not 1 <= h <= inst.n_pods or h in seen:
            raise InvalidInstanceError(f"bad or duplicate pod {h} in storage")
        seen.add(h)
    if len(inst.initial_queues) != inst.n_stations:
        raise InvalidInstanceError("queue count != station count")
    for s, q in enumerate(inst.initial_queues, start=1):
        if len(q) > inst.station_capacities[s - 1]:
            raise InvalidInstanceError(f"queue {s} over capacity")
        for h in q:
            if not 1 <= h <= inst.n_pods or h in seen:
                raise InvalidInstanceError(f"bad or duplicate pod {h} in queue {s}")
            seen.add(h)
    if len(seen) != inst.n_pods:
        raise InvalidInstanceError("every pod must appear exactly once")
    for t, (h, s) in enumerate(inst.departures):
        if not 1 <= h <= inst.n_pods or not 1 <= s <= inst.n_stations:
            raise InvalidInstanceError(f"departure {t} references unknown pod or station")
    departure_schedule(inst)


class Replay:
    """Fast mutable replay engine over a precomputed schedule.

    ``free`` is the ascending list of free places, kept in step with
    ``pod_at`` so the admissible set costs O(free places), not O(places).
    """

    def __init__(self, inst: Instance, schedule: Optional[Schedule] = None):
        self.inst = inst
        self.schedule = schedule if schedule is not None else departure_schedule(inst)
        self.place_of = [0] * (inst.n_pods + 1)  # 0 = not in storage
        self.pod_at: list[int] = [0] * (inst.n_places + 1)  # 0 = free
        for p, h in enumerate(inst.initial_storage, start=1):
            if h is not None:
                self.place_of[h] = p
                self.pod_at[p] = h
        self.free = [p for p in range(1, inst.n_places + 1) if self.pod_at[p] == 0]
        self.t = 0
        self.total = 0.0
        self.actions: list[int] = []

    @property
    def done(self) -> bool:
        return self.t >= self.inst.horizon

    @property
    def current(self) -> StepInfo:
        return self.schedule.steps[self.t]

    def admissible(self) -> list[int]:
        """Admissible actions, ascending: the free places plus the place the
        departing pod leaves, or ``[NO_OP]`` on a fill step."""
        info = self.schedule.steps[self.t]
        if info.fill:
            return [NO_OP]
        free = self.free
        dep_place = self.place_of[info.pod]
        i = bisect_left(free, dep_place)
        return free[:i] + [dep_place] + free[i:]

    def step(self, action: int) -> float:
        """Apply one step.  An infeasible action raises before any state
        changes, so the replay stays usable."""
        info = self.schedule.steps[self.t]
        place = self.place_of[info.pod]
        if info.fill:
            if action != NO_OP:
                raise InfeasibleActionError(self.t, REASON_PHASE,
                                            f"queue {info.station} filling")
        else:
            if action == NO_OP:
                raise InfeasibleActionError(self.t, REASON_PHASE,
                                            f"queue {info.station} full")
            if not 1 <= action <= self.inst.n_places:
                raise InfeasibleActionError(self.t, REASON_BUSY,
                                            f"place {action} does not exist")
            if self.pod_at[action] != 0 and action != place:
                raise InfeasibleActionError(self.t, REASON_BUSY,
                                            f"place {action} holds pod {self.pod_at[action]}")
        costs = self.inst.costs
        cost = costs.to_stn(place, info.station)
        self.pod_at[place] = 0
        self.place_of[info.pod] = 0
        if info.fill:
            insort(self.free, place)
        else:
            self.pod_at[action] = info.returning_pod
            self.place_of[info.returning_pod] = action
            if action != place:
                free = self.free
                del free[bisect_left(free, action)]
                insort(free, place)
            cost += costs.from_stn(info.station, action)
        self.t += 1
        self.total += cost
        self.actions.append(action)
        return cost

    def run(self, decide: Callable[["Replay"], int]) -> "Replay":
        while not self.done:
            self.step(decide(self))
        return self

    def storage_tuple(self) -> tuple[Optional[int], ...]:
        return tuple(h if h != 0 else None for h in self.pod_at[1:])


def terminal_cost(inst: Instance, final_storage: Sequence[Optional[int]],
                  final_queues: Sequence[Sequence[int]]) -> float:
    """Terminal cost of a final state under the instance's cost model."""
    if inst.costs.terminal == TERMINAL_ZERO:
        return 0.0
    queued = [(h, s) for s, q in enumerate(final_queues, start=1) for h in q]
    free = [p for p in range(1, inst.n_places + 1) if final_storage[p - 1] is None]
    if not queued:
        return 0.0
    if len(queued) > len(free):
        raise GameError("cannot return all pods: not enough free places")
    import numpy as np
    from scipy.optimize import linear_sum_assignment

    matrix = np.array([[inst.costs.from_stn(s, p) for p in free] for _, s in queued])
    rows, cols = linear_sum_assignment(matrix)
    return float(matrix[rows, cols].sum())


def total_cost(inst: Instance, actions: Sequence[int],
               schedule: Optional[Schedule] = None) -> float:
    """Total cost of a feasible action sequence, terminal cost included."""
    if len(actions) != inst.horizon:
        raise InfeasibleActionError(0, REASON_LENGTH,
                                    f"expected {inst.horizon} actions, got {len(actions)}")
    replay = Replay(inst, schedule)
    for a in actions:
        replay.step(a)
    return replay.total + terminal_cost(inst, replay.storage_tuple(),
                                        replay.schedule.final_queues)


def check_feasible(inst: Instance, actions: Sequence[int],
                   schedule: Optional[Schedule] = None) -> Verdict:
    """Replay ``actions`` and report OK or the first violation."""
    if len(actions) != inst.horizon:
        return Verdict(ok=False, step=None, reason=REASON_LENGTH)
    replay = Replay(inst, schedule)
    for a in actions:
        try:
            replay.step(a)
        except InfeasibleActionError as err:
            return Verdict(ok=False, step=err.step, reason=err.reason)
    return Verdict(ok=True)


def occupation_intervals(inst: Instance, actions: Sequence[int],
                         schedule: Optional[Schedule] = None) -> list[OccupationInterval]:
    """Interval view of a feasible replay, initial occupancy included."""
    if schedule is None:
        schedule = departure_schedule(inst)
    verdict = check_feasible(inst, actions, schedule)
    if not verdict.ok:
        raise InfeasibleActionError(verdict.step if verdict.step is not None else 0,
                                    verdict.reason, "cannot build intervals")
    horizon = inst.horizon
    intervals: list[OccupationInterval] = []
    for p, h in enumerate(inst.initial_storage, start=1):
        if h is None:
            continue
        deps = schedule.pod_departure_steps[h - 1]
        if deps:
            intervals.append(OccupationInterval(
                place=p, pod=h, begin=0, end=deps[0] + 1,
                from_station=None, to_station=inst.departures[deps[0]][1]))
        else:
            intervals.append(OccupationInterval(
                place=p, pod=h, begin=0, end=horizon + 1,
                from_station=None, to_station=None))
    for t, (info, action) in enumerate(zip(schedule.steps, actions)):
        if info.fill:
            continue
        end = info.return_next_step + 1 if info.return_next_step is not None else horizon + 1
        intervals.append(OccupationInterval(
            place=action, pod=info.returning_pod, begin=t + 1, end=end,
            from_station=info.station, to_station=info.return_next_station,
            decision_step=t))
    return intervals


def initial_busy_ends(inst: Instance, schedule: Optional[Schedule] = None) -> list[int]:
    """First time each place becomes free; horizon+1 when it never does."""
    if schedule is None:
        schedule = departure_schedule(inst)
    horizon = inst.horizon
    ends = []
    for h in inst.initial_storage:
        if h is None:
            ends.append(0)
        else:
            deps = schedule.pod_departure_steps[h - 1]
            ends.append(deps[0] + 1 if deps else horizon + 1)
    return ends


# --- serialization ---------------------------------------------------------

def instance_to_dict(inst: Instance) -> dict:
    return {
        "pods": inst.n_pods,
        "places": inst.n_places,
        "stations": [{"id": s, "capacity": c}
                     for s, c in enumerate(inst.station_capacities, start=1)],
        "cost_to_station": [list(row) for row in inst.costs.to_station],
        "cost_from_station": [list(row) for row in inst.costs.from_station],
        "terminal_cost": inst.costs.terminal,
        "initial_storage": [h if h is not None else 0 for h in inst.initial_storage],
        "initial_queues": [list(q) for q in inst.initial_queues],
        "departures": [[h, s] for h, s in inst.departures],
    }


def _ints(values, what: str) -> tuple[int, ...]:
    """``values`` as a tuple of ints; a bool, float or string is rejected."""
    values = tuple(values)
    if not set(map(type, values)) <= {int}:
        bad = next(v for v in values if type(v) is not int)
        raise InvalidInstanceError(f"{what} must be integers, not {bad!r}")
    return values


def _cost_table(rows, what: str) -> tuple[tuple[float, ...], ...]:
    """``rows`` as a float table; each entry must be a finite int or float."""
    table = tuple(tuple(row) for row in rows)
    for row in table:
        for c in row:
            if type(c) not in (int, float) or not abs(c) <= sys.float_info.max:
                raise InvalidInstanceError(f"{what} costs must be finite numbers, not {c!r}")
    return tuple(tuple(float(c) for c in row) for row in table)


def instance_from_dict(doc: dict) -> Instance:
    """Parse an instance document; a malformed field raises
    ``InvalidInstanceError`` naming it."""
    _ints((s["id"] for s in doc["stations"]), "station ids")
    stations = sorted(doc["stations"], key=lambda s: s["id"])
    if [s["id"] for s in stations] != list(range(1, len(stations) + 1)):
        raise InvalidInstanceError("station ids must be 1..n")
    n_pods, n_places = _ints((doc["pods"], doc["places"]), "pod and place counts")
    departures = tuple((h, s) for h, s in doc["departures"])
    _ints(chain.from_iterable(departures), "departure pods and stations")
    inst = Instance(
        n_pods=n_pods,
        n_places=n_places,
        station_capacities=_ints((s["capacity"] for s in stations), "station capacities"),
        costs=CostModel(
            to_station=_cost_table(doc["cost_to_station"], "cost_to_station"),
            from_station=_cost_table(doc["cost_from_station"], "cost_from_station"),
            terminal=doc.get("terminal_cost", TERMINAL_ZERO),
        ),
        initial_storage=tuple(h if h != 0 else None
                              for h in _ints(doc["initial_storage"], "initial_storage pods")),
        initial_queues=tuple(_ints(q, "initial_queues pods") for q in doc["initial_queues"]),
        departures=departures,
    )
    validate_instance(inst)
    return inst


def save_instance(inst: Instance, path) -> None:
    with open(path, "w") as fh:
        json.dump(instance_to_dict(inst), fh, indent=1)
        fh.write("\n")


def load_instance(path) -> Instance:
    with open(path) as fh:
        return instance_from_dict(json.load(fh))


def save_actions(actions: Sequence[int], path) -> None:
    with open(path, "w") as fh:
        json.dump(list(actions), fh)
        fh.write("\n")


def load_actions(path) -> list[int]:
    with open(path) as fh:
        return [int(a) for a in json.load(fh)]
