"""The fast paths against their reference definitions.

``Replay`` keeps the free places as one bitmask instead of scanning every
place, and the greedy policies scan cost-level masks built from one
decision-cost table per cost model instead of calling ``decision_cost`` per
candidate.  Both must agree with the functional reference model
(``reference.py``) and a brute-force argmin/argmax, including the tie-break
to the smallest place id.  A rejected action leaves the mask as it was.
The policies are asked at decision steps only, as ``Replay.run`` asks them.
"""

from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from podrepo import harness
from podrepo.core import (NO_OP, REASON_LENGTH, CostModel, InfeasibleActionError,
                          Replay)
from podrepo.instances import build_medium_system, build_small_system
from podrepo.policies import (CHEAPEST_DECISION, CHEAPEST_ON_AVERAGE,
                              CHEAPEST_TO_STORAGE, CheapestPolicy, avg_costs,
                              decision_cost, decision_cost_table)
from podrepo.tetris import (SORT_DURATION, SORT_FREQUENCY,
                            MostExpensivePlacePolicy, tetris)
from reference import admissible_actions, initial_state, transition


def tied_costs(inst):
    """The instance with every cost folded onto {1, 2}, so most places tie."""
    costs = CostModel(
        to_station=tuple(tuple(1.0 + c % 2 for c in row) for row in inst.costs.to_station),
        from_station=tuple(tuple(1.0 + c % 2 for c in row) for row in inst.costs.from_station))
    return replace(inst, costs=costs)


def tiny_instance(kind: str, seed: int):
    if kind == "random":
        return harness.build_tiny_random(seed)
    if kind == "tied":
        return tied_costs(harness.build_tiny_random(seed))
    return build_small_system(seed=seed + 1, n=40)


@given(kind=st.sampled_from(["random", "tied", "small"]),
       seed=st.integers(0, 10_000), data=st.data())
@settings(max_examples=60, deadline=None)
def test_fast_paths_match_reference_model(kind, seed, data):
    inst = tiny_instance(kind, seed)
    replay = Replay(inst)
    state = initial_state(inst)
    cheapest = {v: CheapestPolicy(inst, v)
                for v in (CHEAPEST_DECISION, CHEAPEST_TO_STORAGE, CHEAPEST_ON_AVERAGE)}
    most_expensive = MostExpensivePlacePolicy(inst)
    avg = avg_costs(inst)
    while not replay.done:
        admissible = replay.admissible()
        assert admissible == list(admissible_actions(inst, state))
        free_bits = sum(1 << p for p in range(1, inst.n_places + 1)
                        if state.storage[p - 1] is None)
        assert replay.free_bits == free_bits
        # a busy place, or on a fill step any place; the no-op when none is busy
        rejected = next((p for p in range(1, inst.n_places + 1) if p not in admissible),
                        NO_OP)
        with pytest.raises(InfeasibleActionError):
            replay.step(rejected)
        assert replay.free_bits == free_bits
        if admissible != [NO_OP]:
            info = replay.current
            cost = {p: decision_cost(inst, p, info.station, info.return_next_station)
                    for p in admissible}
            back = {p: decision_cost(inst, p, info.station, None) for p in admissible}
            assert cheapest[CHEAPEST_DECISION](replay) == min(
                admissible, key=lambda p: (cost[p], p))
            assert cheapest[CHEAPEST_TO_STORAGE](replay) == min(
                admissible, key=lambda p: (back[p], p))
            assert cheapest[CHEAPEST_ON_AVERAGE](replay) == min(
                admissible, key=lambda p: (avg[p - 1], p))
            assert most_expensive(replay) == max(
                admissible, key=lambda p: (cost[p], -p))
        action = data.draw(st.sampled_from(admissible))
        replay.step(action)
        state = transition(inst, state, action)
    assert replay.storage_tuple() == state.storage
    # past the horizon: only the no-op is admissible, and it is a length mismatch
    assert replay.admissible() == list(admissible_actions(inst, state)) == [NO_OP]
    with pytest.raises(InfeasibleActionError) as expected:
        transition(inst, state, NO_OP)
    with pytest.raises(InfeasibleActionError) as err:
        replay.step(NO_OP)
    assert (err.value.step, err.value.reason) == (expected.value.step, REASON_LENGTH)
    assert replay.t == inst.horizon and len(replay.actions) == inst.horizon
    with pytest.raises(InfeasibleActionError) as err:
        replay.current
    assert (err.value.step, err.value.reason) == (inst.horizon, REASON_LENGTH)


@pytest.mark.parametrize("seed", range(4))
def test_decision_cost_table_matches_decision_cost(seed):
    inst = harness.build_tiny_random(seed)
    table = decision_cost_table(inst)
    stations = range(1, inst.n_stations + 1)
    assert set(table) == {(s, t) for s in stations for t in (*stations, None)}
    for (s_from, s_to), row in table.items():
        assert len(row) == inst.n_places + 1
        assert row[1:] == [decision_cost(inst, p, s_from, s_to)
                           for p in range(1, inst.n_places + 1)]


@pytest.fixture(scope="module")
def medium():
    return build_medium_system(1)


@pytest.mark.parametrize("mode, expected", [(SORT_FREQUENCY, 597196.0),
                                            (SORT_DURATION, 631449.0)])
def test_tetris_cost_pinned_on_medium_system(medium, mode, expected):
    _, cost = tetris(medium, mode)
    assert cost == expected
