"""Deterministic discrete-time warehouse game.

The game replays an exogenous sequence of pod departures through a storage
area and FIFO station queues.  At every time step one pod leaves the storage
area for a pick station; while the target queue is still below capacity the
only admissible action is the no-op, afterwards the queue head is pushed out
and the action chooses which storage place receives it.

:class:`Replay` is the one step engine of the library: the policies, the
solvers' commits, the chart trace and the verification replays all step it,
and :meth:`Replay.run` asks a policy ``decide(replay, info)`` for an action
at decision steps only, handing it the pending step's record ``info``.
The test suite checks it against a functional reference model.

The queue dynamics do not depend on the actions: :func:`departure_schedule`
simulates them once per :class:`Instance` object and caches the result on it.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, replace
from itertools import chain
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

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


class BudgetExceededError(Exception):
    """A search or an export refused to start, or a search ran out of budget
    before any solution."""


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
    """A full problem instance: layout, costs, initial state, departures.

    :func:`departure_schedule` caches the schedule in ``_schedule``, which is
    not a field: no ``__init__`` argument, and not in ``repr``, ``==`` or hash.
    """

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
class Verdict:
    """Feasibility verdict: ``ok`` or the first violating step and reason."""

    ok: bool
    step: Optional[int] = None
    reason: Optional[str] = None


class OccupationInterval(NamedTuple):
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


class StepInfo(NamedTuple):
    """Action-independent facts about one time step.

    ``fill`` marks queue-filling steps (forced no-op).  For decision steps,
    ``returning_pod`` is the queue head pushed back into storage; it holds
    the chosen place over ``[t + 1, busy_end)``, up to and including its next
    departure (``busy_end`` is ``horizon + 1`` when it never departs again),
    and ``return_next_station`` is that departure's station, if any.

    A tuple record: a schedule builds one per step, several times faster
    than a frozen dataclass.  CPython 3.11 specializes neither a field read
    of it nor an unpack, so each costs more than a dataclass field read.  A
    loop over the steps that reads three or more fields unpacks the record
    (``pod, station, fill, returning, end, next_station``); one that reads
    fewer reads them by name.
    """

    pod: int
    station: int
    fill: bool
    returning_pod: Optional[int] = None
    busy_end: Optional[int] = None
    return_next_station: Optional[int] = None


@dataclass(frozen=True)
class Schedule:
    """Precomputed per-step metadata shared by policies and solvers.

    Queue evolution does not depend on the chosen actions, so the departing
    pod, the fill/decision phase and the returning pod of every step are
    fixed by the departure sequence alone.  So is ``choices[t]``, the size of
    the admissible set at step ``t`` (1 on a fill step): the free places plus
    the one the departing pod leaves.
    """

    steps: tuple[StepInfo, ...]
    final_queues: tuple[tuple[int, ...], ...]
    pod_departure_steps: tuple[tuple[int, ...], ...]
    choices: tuple[int, ...]


def departure_schedule(inst: Instance) -> Schedule:
    """The action-independent queue dynamics, simulated on the first call for
    an instance object; later calls return the same cached object.

    Raises :class:`InvalidInstanceError` when a departure names a pod that is
    not in storage at its departure time.
    """
    # not inst.__dict__: reading it materializes the instance dict, which makes
    # every later attribute load on the instance about 3x slower (CPython 3.11)
    schedule = getattr(inst, "_schedule", None)
    if schedule is None:
        schedule = _simulate_queues(inst)
        object.__setattr__(inst, "_schedule", schedule)
    return schedule


def with_initial_storage(inst: Instance, storage: Sequence[Optional[int]]) -> Instance:
    """``inst`` with the initial storage ``storage``, which must hold the same
    pods on ``n_places`` places (:class:`InvalidInstanceError` otherwise), so
    the copy shares the schedule of ``inst``."""
    storage = tuple(storage)
    stored = sorted(h for h in inst.initial_storage if h is not None)
    if len(storage) != inst.n_places or sorted(h for h in storage if h is not None) != stored:
        raise InvalidInstanceError(f"initial storage must hold the stored pods, each once, "
                                   f"on {inst.n_places} places")
    copy = replace(inst, initial_storage=storage)
    object.__setattr__(copy, "_schedule", departure_schedule(inst))
    return copy


def _simulate_queues(inst: Instance) -> Schedule:
    departures = inst.departures
    dep_steps: list[list[int]] = [[] for _ in range(inst.n_pods)]
    for t, (pod, _) in enumerate(departures):
        dep_steps[pod - 1].append(t)

    in_storage = [False] * (inst.n_pods + 1)
    for h in inst.initial_storage:
        if h is not None:
            in_storage[h] = True
    stored = sum(in_storage)
    queues = [list(q) for q in inst.initial_queues]
    capacities = inst.station_capacities
    n_places = inst.n_places
    never = inst.horizon + 1
    # per pod: index of its next unconsumed departure
    next_dep_idx = [0] * (inst.n_pods + 1)

    steps: list[StepInfo] = []
    # StepInfo's generated __new__ with its defaults costs twice this
    new = tuple.__new__
    choices: list[int] = []
    for t, (pod, station) in enumerate(departures):
        if not in_storage[pod]:
            raise InvalidInstanceError(f"departure {t}: pod {pod} not in storage")
        in_storage[pod] = False
        stored -= 1
        next_dep_idx[pod] += 1
        q = queues[station - 1]
        if len(q) < capacities[station - 1]:
            q.append(pod)
            steps.append(new(StepInfo, (pod, station, True, None, None, None)))
            choices.append(1)
        else:
            head = q.pop(0)
            q.append(pod)
            in_storage[head] = True
            choices.append(n_places - stored)
            stored += 1
            later = dep_steps[head - 1]
            idx = next_dep_idx[head]
            if idx < len(later):
                busy_end, next_station = later[idx] + 1, departures[later[idx]][1]
            else:
                busy_end, next_station = never, None
            steps.append(new(StepInfo, (pod, station, False, head, busy_end, next_station)))
    return Schedule(
        steps=tuple(steps),
        final_queues=tuple(tuple(q) for q in queues),
        pod_departure_steps=tuple(tuple(d) for d in dep_steps),
        choices=tuple(choices),
    )


def validate_instance(inst: Instance) -> None:
    """Structural checks, a bound on the costs that keeps every plan total
    finite, and the one-shot dynamic departure check."""
    if inst.n_pods < 1 or inst.n_places < 1 or inst.n_stations < 1:
        raise InvalidInstanceError("empty pod, place or station set")
    if any(c < 1 for c in inst.station_capacities):
        raise InvalidInstanceError("station capacity must be positive")
    inst.costs.validate(inst.n_places, inst.n_stations)
    # a plan pays at most one to-leg and one from-leg per step, and one
    # from-leg per pod at the end: keep every plan total, in any summation
    # order, far from overflowing to inf
    legs = max(map(max, inst.costs.to_station)) + max(map(max, inst.costs.from_station))
    if (inst.horizon + inst.n_pods) * legs >= sys.float_info.max / 2:
        raise InvalidInstanceError(
            f"costs too large: (horizon + pods) x (largest to-leg + largest "
            f"from-leg) must be below {sys.float_info.max / 2:.6g}")
    if inst.costs.terminal == TERMINAL_RETURN_ALL and inst.n_pods > inst.n_places:
        # the queued pods outnumber the free places at the end of any plan
        raise InvalidInstanceError(
            f"terminal cost {TERMINAL_RETURN_ALL} needs a place for every pod: "
            f"{inst.n_pods} pods, {inst.n_places} places")
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
    n_pods, n_stations = inst.n_pods, inst.n_stations
    for t, (h, s) in enumerate(inst.departures):
        if not 1 <= h <= n_pods or not 1 <= s <= n_stations:
            raise InvalidInstanceError(f"departure {t} references unknown pod or station")
    departure_schedule(inst)


class Replay:
    """Fast mutable replay engine over a precomputed schedule.

    ``free_bits`` is the free set as one int, bit ``p`` set while place ``p``
    is free, kept in step with ``pod_at``: a step updates it with one big-int
    operation, and a policy reads the admissible set from it by masking.
    """

    def __init__(self, inst: Instance):
        # no reference to the instance itself: a replay cached on its
        # instance would otherwise form a cycle that only the cyclic
        # garbage collector frees
        self.horizon = inst.horizon
        self.n_places = inst.n_places
        self.schedule = departure_schedule(inst)
        # bound once: a step reads its legs without CostModel method calls
        self._steps = self.schedule.steps
        self._to_station = inst.costs.to_station
        self._from_station = inst.costs.from_station
        self.place_of = [0] * (inst.n_pods + 1)  # 0 = not in storage
        self.pod_at: list[int] = [0] * (inst.n_places + 1)  # 0 = free
        for p, h in enumerate(inst.initial_storage, start=1):
            if h is not None:
                self.place_of[h] = p
                self.pod_at[p] = h
        self.free_bits = sum(1 << p for p in range(1, inst.n_places + 1)
                             if self.pod_at[p] == 0)
        self.t = 0
        self.total = 0.0
        self.actions: list[int] = []

    @property
    def done(self) -> bool:
        return self.t >= self.horizon

    def admissible(self) -> list[int]:
        """Admissible actions, ascending: the free places plus the place the
        departing pod leaves, or ``[NO_OP]`` on a fill step or past the end."""
        if self.done or self._steps[self.t].fill:
            return [NO_OP]
        mask = self.free_bits | 1 << self.place_of[self._steps[self.t].pod]
        return [p for p in range(1, self.n_places + 1) if mask >> p & 1]

    def step(self, action: int) -> float:
        """Apply one step.  An infeasible action (any action past the end)
        raises before any state changes, so the replay stays usable."""
        t = self.t
        try:
            info = self._steps[t]
        except IndexError:
            raise InfeasibleActionError(t, REASON_LENGTH, "no pending departure") from None
        place_of, pod_at = self.place_of, self.pod_at
        pod, station, fill, returning, _, _ = info
        place = place_of[pod]
        if fill:
            if action != NO_OP:
                raise InfeasibleActionError(t, REASON_PHASE, f"queue {station} filling")
        else:
            if action == NO_OP:
                raise InfeasibleActionError(t, REASON_PHASE, f"queue {station} full")
            if not 1 <= action <= self.n_places:
                raise InfeasibleActionError(t, REASON_BUSY,
                                            f"place {action} does not exist")
            if pod_at[action] != 0 and action != place:
                raise InfeasibleActionError(t, REASON_BUSY,
                                            f"place {action} holds pod {pod_at[action]}")
        cost = self._to_station[place - 1][station - 1]
        pod_at[place] = 0
        place_of[pod] = 0
        if fill:
            self.free_bits |= 1 << place
        else:
            pod_at[action] = returning
            place_of[returning] = action
            if action != place:
                self.free_bits ^= 1 << action | 1 << place
            cost += self._from_station[station - 1][action - 1]
        self.t = t + 1
        self.total += cost
        self.actions.append(action)
        return cost

    def run(self, decide: Callable[["Replay", StepInfo], int]) -> "Replay":
        """Play the steps that are left: the no-op on fill steps,
        ``decide(self, info)`` on decision steps, where ``info`` is the
        pending step's record.  On a finished replay it returns at once."""
        step = self.step
        for info in self._steps[self.t:]:
            step(NO_OP if info.fill else decide(self, info))
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
    matrix = np.array([[inst.costs.from_stn(s, p) for p in free] for _, s in queued])
    cols = min_cost_assignment(matrix)
    return float(matrix[np.arange(len(queued)), cols].sum())


def min_cost_assignment(matrix) -> np.ndarray:
    """The column of each row in a minimum-cost assignment of a finite
    ``k x m`` cost matrix with ``k <= m``.

    Shortest augmenting paths with row and column potentials (Jonker &
    Volgenant 1987, in the rectangular form of Crouse 2016): each row is
    added by a Dijkstra search over reduced costs, and each step of that
    search relaxes every unscanned column in one vectorised pass.  The scan
    order and tie rule are those of scipy's ``linear_sum_assignment``
    (the columns in reverse order, a swap removing each scanned one, and an
    unassigned column preferred among the cheapest), so both pick the same
    columns.  It makes O(k^2) numpy calls over at most ``m`` columns each: on
    a 2-core x86 host about 75 µs at 4 x 10, the small system's largest
    terminal matrix, but 0.55-0.77 s against scipy's 35-47 ms on the medium
    system's 441 x 504 fixed-assignment matrices.  Only a final state whose
    queues still hold hundreds of pods needs a matrix that size.
    """
    cost = np.asarray(matrix, dtype=float)
    k, m = cost.shape
    u = np.zeros(k)
    v = np.zeros(m)
    col_of = np.full(k, -1)
    row_of = np.full(m, -1)
    via = np.full(m, -1)  # the row before each column on its shortest path
    for row in range(k):
        shortest = np.full(m, math.inf)
        scanned = np.zeros(m, dtype=bool)
        remaining = np.arange(m - 1, -1, -1)
        left = m
        rows = [row]
        low = 0.0
        while True:
            i = rows[-1]
            cols = remaining[:left]
            reduced = low + cost[i, cols] - u[i] - v[cols]
            better = reduced < shortest[cols]
            improved = cols[better]
            via[improved] = i
            shortest[improved] = reduced[better]
            dist = shortest[cols]
            low = dist.min()
            ties = np.flatnonzero(dist == low)
            open_ties = ties[row_of[cols[ties]] < 0]
            index = open_ties[-1] if len(open_ties) else ties[0]
            j = cols[index]
            scanned[j] = True
            left -= 1
            remaining[index] = remaining[left]
            if row_of[j] < 0:
                break
            rows.append(row_of[j])
        u[row] += low
        for i in rows[1:]:
            u[i] += low - shortest[col_of[i]]
        v[scanned] -= low - shortest[scanned]
        while True:  # flip the path's assignments, back from its free end j
            i = via[j]
            row_of[j] = i
            col_of[i], j = j, col_of[i]
            if i == row:
                break
    return col_of


def require_zero_terminal(inst: Instance) -> None:
    """The solvers optimise a model with no terminal-cost term; each refuses
    any other cost model before it does any work."""
    if inst.costs.terminal != TERMINAL_ZERO:
        raise ValueError(f"the solvers assume zero terminal cost, "
                         f"not {inst.costs.terminal!r}")


def total_cost(inst: Instance, actions: Sequence[int]) -> float:
    """Total cost of a feasible action sequence, terminal cost included."""
    if len(actions) != inst.horizon:
        raise InfeasibleActionError(0, REASON_LENGTH,
                                    f"expected {inst.horizon} actions, got {len(actions)}")
    replay = Replay(inst)
    for a in actions:
        replay.step(a)
    return replay.total + terminal_cost(inst, replay.storage_tuple(),
                                        replay.schedule.final_queues)


def check_feasible(inst: Instance, actions: Sequence[int]) -> Verdict:
    """OK, or the first violation of ``actions`` under the interval rule of
    :func:`occupation_intervals`; ``step`` is ``None`` on a length mismatch."""
    if len(actions) != inst.horizon:
        return Verdict(ok=False, step=None, reason=REASON_LENGTH)
    try:
        occupation_intervals(inst, actions)
    except InfeasibleActionError as err:
        return Verdict(ok=False, step=err.step, reason=err.reason)
    return Verdict(ok=True)


def occupation_intervals(inst: Instance, actions: Sequence[int]) -> list[OccupationInterval]:
    """Interval view of a feasible plan, initial occupancy included.

    The plan is checked on the intervals themselves, without a replay: an
    action must be the no-op exactly on fill steps, and a decision's place
    must be free when it begins, so the intervals on one place are disjoint.
    An infeasible plan raises :class:`InfeasibleActionError` at the step and
    with the reason at which a :class:`Replay` of it would raise.
    """
    if len(actions) != inst.horizon:
        raise InfeasibleActionError(0, REASON_LENGTH, "cannot build intervals")
    schedule = departure_schedule(inst)
    departures = inst.departures
    intervals: list[OccupationInterval] = []
    add = intervals.append
    # per place: the end of the last interval put on it
    busy_until = [0] + initial_busy_ends(inst)
    n_places, horizon = inst.n_places, inst.horizon
    for p, h in enumerate(inst.initial_storage, start=1):
        if h is not None:  # the pod departs at step end - 1, if end <= horizon
            end = busy_until[p]
            add(OccupationInterval(p, h, 0, end, None,
                                   departures[end - 1][1] if end <= horizon else None))
    for t, ((_, station, fill, returning, end, next_station), action) in enumerate(
            zip(schedule.steps, actions)):
        if fill or action == NO_OP:
            if fill != (action == NO_OP):
                raise InfeasibleActionError(t, REASON_PHASE, "cannot build intervals")
            continue
        # the place's last pod must leave at step t at the latest
        if not 1 <= action <= n_places or busy_until[action] > t + 1:
            raise InfeasibleActionError(t, REASON_BUSY, f"place {action} is not free")
        busy_until[action] = end
        add(OccupationInterval(action, returning, t + 1, end, station, next_station, t))
    return intervals


def initial_busy_ends(inst: Instance) -> list[int]:
    """First time each place becomes free; horizon+1 when it never does."""
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


def _list(value, what: str) -> list:
    """``value``, which must be a list (a JSON array)."""
    if type(value) is not list:
        raise InvalidInstanceError(f"{what} must be a list, not {type(value).__name__}")
    return value


def _cost_table(rows, what: str) -> tuple[tuple[float, ...], ...]:
    """``rows`` as a float table; each entry must be a finite int or float."""
    table = tuple(tuple(_list(row, f"{what} rows")) for row in _list(rows, what))
    for row in table:
        for c in row:
            if type(c) not in (int, float) or not abs(c) <= sys.float_info.max:
                raise InvalidInstanceError(f"{what} costs must be finite numbers, not {c!r}")
    return tuple(tuple(float(c) for c in row) for row in table)


# every top-level field of an instance document but the optional terminal_cost
_INSTANCE_FIELDS = ("pods", "places", "stations", "cost_to_station",
                    "cost_from_station", "initial_storage", "initial_queues",
                    "departures")


def instance_from_dict(doc: dict) -> Instance:
    """Parse an instance document; a document that is not an object, or a
    missing or malformed field, raises ``InvalidInstanceError`` naming it."""
    if type(doc) is not dict:
        raise InvalidInstanceError(f"an instance document is an object, not {type(doc).__name__}")
    missing = [f for f in _INSTANCE_FIELDS if f not in doc]
    if missing:
        raise InvalidInstanceError(f"instance document lacks {', '.join(missing)}")
    stations = _list(doc["stations"], "stations")
    if not all(type(s) is dict and s.keys() >= {"id", "capacity"} for s in stations):
        raise InvalidInstanceError("stations entries must be objects with id and capacity")
    _ints((s["id"] for s in stations), "station ids")
    stations = sorted(stations, key=lambda s: s["id"])
    if [s["id"] for s in stations] != list(range(1, len(stations) + 1)):
        raise InvalidInstanceError("station ids must be 1..n")
    n_pods, n_places = _ints((doc["pods"], doc["places"]), "pod and place counts")
    departures = tuple(tuple(_list(d, "departures entries"))
                       for d in _list(doc["departures"], "departures"))
    if any(len(d) != 2 for d in departures):
        raise InvalidInstanceError("departures entries must be [pod, station] pairs")
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
        initial_storage=tuple(h if h != 0 else None for h in _ints(
            _list(doc["initial_storage"], "initial_storage"), "initial_storage pods")),
        initial_queues=tuple(_ints(_list(q, "initial_queues entries"), "initial_queues pods")
                             for q in _list(doc["initial_queues"], "initial_queues")),
        departures=departures,
    )
    validate_instance(inst)
    return inst


def save_instance(inst: Instance, path) -> None:
    """Write ``inst`` as one line of JSON: ``json.dumps`` runs json's C
    encoder, which ``json.dump`` and any ``indent`` bypass.  An indented file
    loads all the same."""
    with open(path, "w") as fh:
        fh.write(json.dumps(instance_to_dict(inst)) + "\n")


def _load_json(path, what: str):
    """The JSON document of ``path``; one nested too deeply for the parser
    raises ``InvalidInstanceError`` naming the file."""
    with open(path) as fh:
        try:
            return json.load(fh)
        except RecursionError:
            raise InvalidInstanceError(f"{what} {path} is nested too deeply") from None


def load_instance(path) -> Instance:
    return instance_from_dict(_load_json(path, "instance file"))


def save_actions(actions: Sequence[int], path) -> None:
    with open(path, "w") as fh:
        fh.write(json.dumps(list(actions)) + "\n")


def load_actions(path) -> list[int]:
    """The action list of a JSON file; a document that is not a list of
    integers raises ``InvalidInstanceError``."""
    doc = _load_json(path, "action file")
    if type(doc) is not list:
        raise InvalidInstanceError(f"an action file holds a list, not {type(doc).__name__}")
    return list(_ints(doc, "actions"))
