"""Exact optimization of the repositioning game.

The full-horizon problem is solved by depth-first branch and bound over the
decision tree, which is equivalent to the 0/1 integer program over placement
variables ``x_t_p`` (the program encodes exactly the feasible action
sequences).  Each distinct cost row is ranked once into a fixed
``(cost, place)`` order; a node's children are that order with the busy
places skipped, cut off at the first one the bound prunes.  Decision ``t`` holds its place over the busy interval
``[t + 1, busy_end[t])``; the program picks one place per decision and allows
at most one live interval per place at each decision's start, the clique
rows of the interval graph (Arkin & Silverberg 1987).  The windowed variant
solves each time window exactly and carries busy-ends forward;
:func:`export_bip` writes the program in LP text format for verification
with an external solver.

Cost bookkeeping: the to-station legs of pods that start in storage are fixed
by the departure sequence (``base_cost``); every decision then contributes
its return leg plus, when the placed pod departs again, the to-station leg of
that next departure.  The sum equals the stepwise game cost, which the test
suite cross-checks.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from math import inf
from typing import Optional

from .core import (NO_OP, BudgetExceededError, Instance, departure_schedule,
                   initial_busy_ends, require_zero_terminal)
from .policies import decision_cost_table


# the most place-row terms export_bip writes: the small system's 1000 steps
# take about 60 thousand, the medium system's 20000 steps billions
EXPORT_TERM_CAP = 10_000_000

# the default node budget of every exact and windowed solve: about 1 s on a
# 2-core x86 host; it proves the small system's seed 1 at 20 steps (0.3M
# nodes, 0.2 s) but not at 40
EXACT_NODE_BUDGET = 2_000_000


@dataclass(frozen=True)
class BipParameters:
    """The placement program's interval model, shared by the exact solvers,
    the LP export and genetic-1's fitness.

    Decision ``i``, at step ``decision_steps[i]``, holds its place over
    ``[decision_steps[i] + 1, busy_ends[i])``; ``keys[i]`` is its
    (from-station, next-station) cost-row key.  Place ``p`` is first free at
    ``initial_busy_end[p-1]``: 0 if empty, ``horizon + 1`` if its pod never
    departs.  ``base_cost`` collects the uninfluenceable to-station legs.
    """

    decision_steps: tuple[int, ...]
    busy_ends: tuple[int, ...]
    keys: tuple[tuple[int, Optional[int]], ...]
    initial_busy_end: tuple[int, ...]
    base_cost: float


def derive_bip_parameters(inst: Instance) -> BipParameters:
    """The interval model, from one pass over the cached schedule."""
    rows = [(t, end, (station, next_station))
            for t, (_, station, fill, _, end, next_station)
            in enumerate(departure_schedule(inst).steps) if not fill]
    decision_steps, busy_ends, keys = zip(*rows) if rows else ((), (), ())
    initial = tuple(initial_busy_ends(inst))
    base = 0.0
    for p, end in enumerate(initial, start=1):
        if 0 < end <= inst.horizon:  # the initial pod departs at step end - 1
            base += inst.costs.to_stn(p, inst.departures[end - 1][1])
    return BipParameters(decision_steps, busy_ends, keys, initial, base)


def decision_weights(inst: Instance, params: BipParameters) -> dict[int, list[float]]:
    """Per decision step: cost of choosing each place (index p-1).

    Steps with the same key share one row of the decision cost table; the
    rows are read-only."""
    rows = {key: row[1:] for key, row in decision_cost_table(inst).items()}
    return {t: rows[key] for t, key in zip(params.decision_steps, params.keys)}


@dataclass
class SolveResult:
    """``optimal``: no search was budget-cut, so a :func:`solve_exact` plan is
    optimal, and each window of a :func:`solve_iterative` plan."""

    actions: list[int]
    cost: float
    optimal: bool
    nodes: int
    lower_bound: float

    @property
    def gap(self) -> float:
        """The cost's relative distance above the lower bound (0 at cost 0)."""
        return (self.cost - self.lower_bound) / self.cost if self.cost else 0.0

    @property
    def gap_text(self) -> str:
        """The gap as the messages print it after the lower bound.  A
        budget-cut search whose bound meets its cost was still breaking ties
        (pruning is strict), so it says that instead of a 0% gap."""
        if not self.optimal and self.lower_bound >= self.cost:
            return "which meets the best cost: the budget ran out while breaking ties"
        return f"gap {self.gap:.2%}"


def _search(decisions: list[tuple[int, int, list[tuple[float, int]]]],
            busy_until: list[int], node_budget: int
            ) -> tuple[float, Optional[list[int]], int, bool]:
    """Depth-first branch and bound over ``(step, busy end, order)``
    decisions; returns the best cost and path (``None`` if the budget ran
    out first), the number of expanded nodes (at most ``node_budget``) and
    whether the budget ran out.

    The state is ``busy_until[p]``, the end of the last interval on place
    ``p``.  The decision at step ``t`` may take ``p`` while
    ``busy_until[p] <= t + 1``, the free rule of ``occupation_intervals``;
    taking it sets ``busy_until[p]`` to the decision's busy end, and
    backtracking restores the saved value, so the list is unchanged when the
    search returns.  The children are the free places in the decision's
    fixed ``(cost, place)`` order.  The admissible lower bound relaxes
    place-disjointness: every remaining decision is charged its cheapest
    place among those free for it when the search starts.  A descent only
    raises ``busy_until``, so that set holds every place the decision can
    take at any node, and it is never empty.
    Equal-cost optima are resolved to the lexicographically smallest action
    sequence, so pruning is strict (bound > incumbent).

    The search does not recurse.  One loop keeps an explicit stack with an
    entry per open level above the current one: the iterator over that
    level's order, where its scan resumes, its cost so far, and the child it
    took with the ``busy_until`` value that child replaced.
    """
    level = None  # each level as (t + 1, busy end, order, tail, next level)
    tail = 0.0  # suffix sum of the cheapest free costs below the level
    for t, end, order in reversed(decisions):
        level = (t + 1, end, order, tail, level)
        tail += next(c for c, p in order if busy_until[p] <= t + 1)
    if level is None:
        return 0.0, [], 0, False
    if node_budget <= 0:
        return inf, None, 0, True
    best_cost = inf
    best_path: Optional[list[int]] = None
    stack = []
    nodes = 1
    begin, end, order, tail, deeper = level
    it = iter(order)
    g0 = 0.0
    while True:
        # the current level's next child: its first free place left in the
        # cost-sorted order, unless the bound prunes it and so all the rest
        child = 0
        for c, p in it:
            if busy_until[p] <= begin:
                g = g0 + c
                if g + tail <= best_cost:
                    child = p
                break
        if child:
            stack.append((it, g0, begin, end, tail, deeper, child, busy_until[child]))
            busy_until[child] = end
            if deeper is not None:
                if nodes >= node_budget:
                    for *_, p, was in reversed(stack):
                        busy_until[p] = was
                    return best_cost, best_path, nodes, True
                nodes += 1
                begin, end, order, tail, deeper = deeper
                it = iter(order)
                g0 = g
                continue
            path = [entry[6] for entry in stack]
            if g < best_cost or (g == best_cost and path < best_path):
                best_cost, best_path = g, path
        # the level (or the leaf) is done: back to its parent's scan
        if not stack:
            return best_cost, best_path, nodes, False
        it, g0, begin, end, tail, deeper, p, was = stack.pop()
        busy_until[p] = was


def _solve_windows(inst: Instance, window_size: int,
                   node_budget: Optional[int]) -> SolveResult:
    """Search the decisions of each window of ``window_size`` steps exactly
    and commit its best path: the committed intervals carry the occupancy
    into the next window.  The windows share ``node_budget`` nodes
    (``EXACT_NODE_BUDGET`` if ``None``), each searching with what is left; a
    window left without a plan raises :class:`BudgetExceededError`."""
    require_zero_terminal(inst)
    budget = EXACT_NODE_BUDGET if node_budget is None else node_budget
    params = derive_bip_parameters(inst)
    decision_steps = params.decision_steps
    # each cost row ranked once, as (cost, place) pairs
    orders = {key: sorted(zip(row[1:], range(1, len(row))))
              for key, row in decision_cost_table(inst).items()}
    decisions = [(t, end, orders[key]) for t, end, key
                 in zip(decision_steps, params.busy_ends, params.keys)]
    busy_until = [0, *params.initial_busy_end]
    actions = [NO_OP] * inst.horizon
    cost = params.base_cost
    nodes = 0
    optimal = True
    start = 0
    for t0 in range(0, inst.horizon, window_size):
        stop = bisect_left(decision_steps, t0 + window_size)
        window = decisions[start:stop]
        best_cost, best_path, searched, exhausted = _search(window, busy_until,
                                                            budget - nodes)
        if best_path is None:
            last = min(t0 + window_size, inst.horizon) - 1
            raise BudgetExceededError(f"node budget exhausted: {budget} nodes found "
                                      f"no plan for the window of steps {t0}-{last}")
        nodes += searched
        optimal = optimal and not exhausted
        cost += best_cost
        for (t, end, _), p in zip(window, best_path):
            actions[t] = p
            busy_until[p] = end
        start = stop
    # the place-disjointness relaxation, summed back to front like the tails:
    # each decision's cheapest place that no initial pod holds at t + 1
    first_free = [0, *params.initial_busy_end]
    relaxed = sum(next(c for c, p in order if first_free[p] <= t + 1)
                  for t, _, order in reversed(decisions))
    return SolveResult(actions=actions, cost=cost, optimal=optimal, nodes=nodes,
                       lower_bound=params.base_cost + relaxed)


def solve_exact(inst: Instance, node_budget: Optional[int] = None) -> SolveResult:
    """Minimize the total game cost with zero terminal cost.

    After ``node_budget`` nodes (``EXACT_NODE_BUDGET`` if ``None``) the best
    solution found so far is returned with ``optimal=False``; with none found
    it raises :class:`BudgetExceededError`.
    """
    return _solve_windows(inst, max(inst.horizon, 1), node_budget)


def solve_iterative(inst: Instance, window_size: int,
                    node_budget: Optional[int] = None) -> SolveResult:
    """Solve each window of ``window_size`` time steps exactly, carrying the
    occupancy (busy-end) state across window boundaries.  Decision costs keep
    the whole-horizon next-destination legs, so future placement costs flow
    into every window.  All windows share ``node_budget`` nodes, as in
    :func:`solve_exact`; ``optimal=False`` means a window was budget-cut, and
    ``optimal=True`` that each window, not the plan, is optimal."""
    if window_size < 1:
        raise ValueError("window_size must be >= 1")
    return _solve_windows(inst, window_size, node_budget)


def export_bip(inst: Instance, path) -> None:
    """Write the 0/1 placement model in LP text format.

    One ``assign_t`` row per decision picks one place.  One ``place_t_p`` row
    per decision and place allows at most one interval on ``p`` at ``t + 1``:
    the earlier decisions whose busy interval still covers ``t + 1`` plus
    ``x_t_p`` sum to at most 1, or to 0 while the initial pod holds ``p``;
    rows that only say ``x <= 1`` are left out.  The objective omits the
    constant ``base_cost``, noted in a comment.  Like the solvers, it refuses
    a non-zero terminal cost; it raises :class:`BudgetExceededError` before
    building any text when its place rows would hold more than
    ``EXPORT_TERM_CAP`` terms.  Each row, and the objective one decision's
    terms at a time, is written as it is built, so its memory stays about
    one row, not the whole text."""
    require_zero_terminal(inst)
    params = derive_bip_parameters(inst)
    # decision i's place rows hold x_i_p and the i earlier decisions less
    # those whose interval ended by t_i + 1 (a later one cannot end by then)
    ends = sorted(params.busy_ends)
    terms = inst.n_places * sum(i + 1 - bisect_right(ends, t + 1)
                                for i, t in enumerate(params.decision_steps))
    if terms > EXPORT_TERM_CAP:
        raise BudgetExceededError(f"about {terms} place-row terms exceed the "
                                  f"export cap {EXPORT_TERM_CAP}")
    weights = decision_weights(inst, params)
    places = range(1, inst.n_places + 1)
    with open(path, "w") as fh:
        fh.write("\\ pod repositioning placement model\n"
                 f"\\ constant cost not in objective: {params.base_cost}\n"
                 "Minimize\n obj: ")
        for i, t in enumerate(params.decision_steps):
            fh.write((" + " if i else "") + " + ".join(f"{weights[t][p - 1]:.17g} x_{t}_{p}"
                                                       for p in places))
        fh.write("\nSubject To\n")
        alive: list[tuple[int, int]] = []  # (step, busy end) covering t + 1
        for t, end in zip(params.decision_steps, params.busy_ends):
            alive = [(tau, e) for tau, e in alive if e > t + 1]
            fh.write(f" assign_{t}: " + " + ".join(f"x_{t}_{p}" for p in places) + " = 1\n")
            for p in places:
                bound = 0 if params.initial_busy_end[p - 1] > t + 1 else 1
                if alive or not bound:
                    row = "".join(f"x_{tau}_{p} + " for tau, _ in alive)
                    fh.write(f" place_{t}_{p}: {row}x_{t}_{p} <= {bound}\n")
            alive.append((t, end))
        fh.write("Binary\n")
        fh.writelines(f" x_{t}_{p}\n" for t in params.decision_steps for p in places)
        fh.write("End\n")
