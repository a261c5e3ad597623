"""Game engine: transition dynamics, admissibility, costs, serialization.

The replay engine is checked against the functional reference model in
``reference.py``.
"""

import json
import math
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import podrepo
from podrepo import core, harness
from podrepo.core import (NO_OP, REASON_BUSY, REASON_LENGTH, REASON_PHASE,
                          TERMINAL_RETURN_ALL, CostModel, InfeasibleActionError,
                          Instance, InvalidInstanceError, Replay, StepInfo,
                          check_feasible, departure_schedule, initial_busy_ends,
                          instance_from_dict, instance_to_dict, load_actions,
                          load_instance, occupation_intervals, save_actions,
                          save_instance, terminal_cost, total_cost,
                          validate_instance)
from podrepo.instances import build_medium_system, build_small_system
from podrepo.policies import (RandomPolicy, compute_fixed_assignment,
                              rearranged_instance)
from reference import (admissible_actions, enqueue, initial_state, step_cost,
                       transition)


def test_every_public_name_resolves():
    assert [name for name in podrepo.__all__ if not hasattr(podrepo, name)] == []


def six_pod_instance() -> Instance:
    """Six pods, two stations of capacity 2, a 2-step horizon."""
    costs = CostModel(
        to_station=tuple((float(p + 1), float(p + 2)) for p in range(6)),
        from_station=(tuple(float(p + 3) for p in range(6)),
                      tuple(float(p + 4) for p in range(6))),
    )
    return Instance(
        n_pods=6, n_places=6, station_capacities=(2, 2), costs=costs,
        initial_storage=(1, None, 3, None, None, None),
        initial_queues=((5, 2), (4, 6)),
        departures=((3, 2), (1, 2)),
    )


class TestEnqueue:
    def test_below_capacity_appends(self):
        assert enqueue((5,), 2, 9) == ((5, 9), None)

    def test_full_queue_ejects_head(self):
        assert enqueue((4, 6), 2, 3) == ((6, 3), 4)

    def test_duplicate_pod_rejected(self):
        with pytest.raises(InvalidInstanceError):
            enqueue((4, 6), 2, 4)


class TestTransition:
    def test_full_queue_step(self):
        inst = six_pod_instance()
        state = initial_state(inst)
        nxt = transition(inst, state, 3)
        assert nxt.storage == (1, None, 4, None, None, None)
        assert nxt.queues == ((5, 2), (6, 3))
        assert nxt.future_departures == ((1, 2),)
        assert nxt.clock == 1

    def test_admissible_set_on_full_queue(self):
        inst = six_pod_instance()
        state = initial_state(inst)
        # free places 2, 4, 5, 6 plus place 3 just freed by the departure
        assert admissible_actions(inst, state) == (2, 3, 4, 5, 6)

    def test_fill_phase_forces_noop(self):
        inst = six_pod_instance()
        inst = replace(inst, initial_queues=((5,), (4, 6)),
                       initial_storage=(1, 2, 3, None, None, None),
                       departures=((3, 1), (1, 2)))
        state = initial_state(inst)
        assert admissible_actions(inst, state) == (NO_OP,)
        nxt = transition(inst, state, NO_OP)
        assert nxt.queues[0] == (5, 3)
        assert nxt.storage == (1, 2, None, None, None, None)

    def test_busy_place_rejected(self):
        inst = six_pod_instance()
        with pytest.raises(InfeasibleActionError) as err:
            transition(inst, initial_state(inst), 1)
        assert err.value.reason == REASON_BUSY

    def test_noop_rejected_when_queue_full(self):
        inst = six_pod_instance()
        with pytest.raises(InfeasibleActionError) as err:
            transition(inst, initial_state(inst), NO_OP)
        assert err.value.reason == REASON_PHASE

    def test_step_cost_components(self):
        inst = six_pod_instance()
        state = initial_state(inst)
        # pod 3 departs from place 3 to station 2, pod 4 returns to place 3
        expected = inst.costs.to_stn(3, 2) + inst.costs.from_stn(2, 3)
        assert step_cost(inst, state, 3) == expected
        # a no-op adds no return leg
        assert step_cost(inst, state, NO_OP) == inst.costs.to_stn(3, 2)


class TestSchedule:
    def test_action_independence(self):
        inst = harness.build_tiny_random(3)
        schedule = departure_schedule(inst)
        state = initial_state(inst)
        for t, info in enumerate(schedule.steps):
            acts = admissible_actions(inst, state)
            assert info.fill == (acts == (NO_OP,))
            assert info.pod == state.future_departures[0][0]
            state = transition(inst, state, acts[0])

    def test_departing_pod_must_be_stored(self):
        inst = six_pod_instance()
        bad = replace(inst, departures=((5, 1), (1, 2)))
        with pytest.raises(InvalidInstanceError):
            departure_schedule(bad)

    @pytest.mark.parametrize("seed", range(11))
    def test_choices_and_busy_ends_match_reference_model(self, seed):
        # seed 10 stands for the small system
        inst = harness.build_tiny_random(seed) if seed < 10 else build_small_system(n=200)
        moved = rearranged_instance(inst, compute_fixed_assignment(inst))
        for run in (inst, moved):
            schedule = departure_schedule(run)
            replay = Replay(run)
            state = initial_state(run)
            policy = RandomPolicy(seed)
            while not replay.done:
                t, info = replay.t, schedule.steps[replay.t]
                assert schedule.choices[t] == len(admissible_actions(run, state))
                if not info.fill:
                    later = [u for u in range(t + 1, run.horizon)
                             if run.departures[u][0] == info.returning_pod]
                    assert info.busy_end == (later[0] + 1 if later else run.horizon + 1)
                action = NO_OP if info.fill else policy(replay, info)
                replay.step(action)
                state = transition(run, state, action)
            assert len(schedule.choices) == run.horizon

    def test_step_record_unpacks_to_its_fields_in_order(self):
        # loops that read three or more fields of every step unpack the record
        for info in departure_schedule(harness.build_tiny_random(3)).steps:
            pod, station, fill, returning, end, next_station = info
            assert (pod, station, fill, returning, end, next_station) == (
                info.pod, info.station, info.fill, info.returning_pod, info.busy_end,
                info.return_next_station)
        assert tuple(StepInfo(4, 2, True)) == (4, 2, True, None, None, None)

    def test_step_record_is_immutable(self):
        info = departure_schedule(harness.build_tiny_random(3)).steps[0]
        with pytest.raises(AttributeError):
            info.pod = 99

    def test_pod_departure_steps_cover_departures(self):
        inst = harness.build_tiny_random(1)
        schedule = departure_schedule(inst)
        listed = sorted(t for steps in schedule.pod_departure_steps for t in steps)
        assert listed == list(range(inst.horizon))


class TestScheduleCache:
    """The queues are simulated once per instance object."""

    @pytest.fixture()
    def simulations(self, monkeypatch):
        calls = []
        simulate = core._simulate_queues

        def counting(inst):
            calls.append(inst)
            return simulate(inst)

        monkeypatch.setattr(core, "_simulate_queues", counting)
        return calls

    def test_validated_and_loaded_instances_keep_their_schedule(self, simulations,
                                                                tmp_path):
        built = build_small_system(n=120)
        assert len(simulations) == 1
        save_instance(built, tmp_path / "inst.json")
        loaded = load_instance(tmp_path / "inst.json")
        assert len(simulations) == 2
        for inst in (built, loaded):
            assert departure_schedule(inst) is departure_schedule(inst)
            assert Replay(inst).schedule is departure_schedule(inst)
            harness.run_comparison(inst, ["cheapest", "tetris", "fixed"])
        assert len(simulations) == 2

    def test_a_copy_computes_its_own(self, simulations):
        inst = harness.build_tiny_random(4)
        schedule = departure_schedule(inst)
        same = replace(inst)
        assert departure_schedule(same) is not schedule
        assert departure_schedule(same) == schedule
        shorter = replace(inst, departures=inst.departures[:-1])
        assert len(departure_schedule(shorter).steps) == inst.horizon - 1
        assert len(simulations) == 3

    def test_cache_is_not_a_field(self):
        inst = harness.build_tiny_random(5)
        fresh = Instance(**{f.name: getattr(inst, f.name) for f in fields(Instance)})
        assert departure_schedule(inst) is departure_schedule(inst)
        assert "_schedule" not in {f.name for f in fields(Instance)}
        assert repr(fresh) == repr(inst)
        assert fresh == inst and hash(fresh) == hash(inst)
        departure_schedule(fresh)
        assert repr(fresh) == repr(inst)

    def test_rearranged_instance_shares_a_correct_schedule(self):
        for seed in range(10):
            inst = harness.build_tiny_random(seed)
            moved = rearranged_instance(inst, compute_fixed_assignment(inst))
            assert departure_schedule(moved) is departure_schedule(inst)
            assert departure_schedule(replace(moved)) == departure_schedule(moved)


class TestReplay:
    @pytest.mark.parametrize("seed", range(6))
    def test_matches_functional_api(self, seed):
        inst = harness.build_tiny_random(seed)
        replay = Replay(inst)
        state = initial_state(inst)
        policy = RandomPolicy(seed)
        total = 0.0
        while not replay.done:
            info = replay.schedule.steps[replay.t]
            action = NO_OP if info.fill else policy(replay, info)
            assert action in admissible_actions(inst, state)
            total += step_cost(inst, state, action)
            state = transition(inst, state, action)
            replay.step(action)
            assert replay.storage_tuple() == state.storage
        assert replay.total == pytest.approx(total, abs=1e-12)

    def test_run_asks_the_policy_at_decisions_only(self):
        inst = build_small_system(n=200)
        asked = []

        def record(replay, info):
            asked.append((replay.t, info))
            return replay.admissible()[0]

        replay = Replay(inst).run(record)
        steps = departure_schedule(inst).steps
        # each call gets the pending step's own record, not a copy
        assert all(info is steps[t] for t, info in asked)
        assert [t for t, _ in asked] == [t for t, info in enumerate(steps) if not info.fill]
        assert 0 < len(asked) < inst.horizon
        assert [a == NO_OP for a in replay.actions] == [info.fill for info in steps]

    def test_pod_conservation(self):
        inst = harness.build_tiny_random(4)
        state = initial_state(inst)
        while state.future_departures:
            pods = [h for h in state.storage if h is not None]
            pods += [h for q in state.queues for h in q]
            assert sorted(pods) == list(range(1, inst.n_pods + 1))
            state = transition(inst, state, admissible_actions(inst, state)[0])

    def test_rejected_step_leaves_replay_unchanged(self):
        inst = build_small_system(seed=1, n=60)
        replay = Replay(inst)
        steps = replay.schedule.steps
        while steps[replay.t].fill:
            replay.step(NO_OP)
        replay.step(replay.admissible()[0])
        while steps[replay.t].fill:
            replay.step(NO_OP)
        info = steps[replay.t]
        busy = next(p for p in range(1, inst.n_places + 1)
                    if replay.pod_at[p] not in (0, info.pod))
        snapshot = (replay.t, replay.total, list(replay.actions),
                    list(replay.pod_at), list(replay.place_of), replay.admissible())
        for bad, reason in ((busy, REASON_BUSY), (NO_OP, REASON_PHASE),
                            (inst.n_places + 1, REASON_BUSY), (-1, REASON_BUSY)):
            with pytest.raises(InfeasibleActionError) as err:
                replay.step(bad)
            assert err.value.reason == reason
            assert (replay.t, replay.total, replay.actions, replay.pod_at,
                    replay.place_of, replay.admissible()) == snapshot
        good = replay.admissible()[-1]
        replay.step(good)
        assert replay.t == snapshot[0] + 1
        assert replay.pod_at[good] == info.returning_pod

    def test_rejected_fill_step_leaves_replay_unchanged(self):
        inst = build_small_system(seed=1, n=60)
        replay = Replay(inst)
        snapshot = (replay.t, replay.total, list(replay.actions),
                    list(replay.pod_at), list(replay.place_of), replay.admissible())
        assert replay.schedule.steps[0].fill
        with pytest.raises(InfeasibleActionError) as err:
            replay.step(1)
        assert err.value.reason == REASON_PHASE
        assert (replay.t, replay.total, replay.actions, replay.pod_at,
                replay.place_of, replay.admissible()) == snapshot
        replay.step(NO_OP)
        assert replay.t == 1


class TestCheckFeasible:
    def test_length_mismatch(self):
        inst = harness.build_tiny_random(0)
        verdict = check_feasible(inst, [])
        assert not verdict.ok and verdict.reason == REASON_LENGTH

    def test_reports_first_violation(self):
        inst = six_pod_instance()
        verdict = check_feasible(inst, [1, 2])
        assert not verdict.ok
        assert verdict.step == 0 and verdict.reason == REASON_BUSY

    def test_accepts_replayed_actions(self):
        inst = harness.build_tiny_random(2)
        replay = Replay(inst).run(RandomPolicy(0))
        assert check_feasible(inst, replay.actions).ok


class TestTerminalCost:
    def test_zero_terminal(self):
        inst = harness.build_tiny_random(0)
        replay = Replay(inst).run(RandomPolicy(0))
        assert total_cost(inst, replay.actions) == pytest.approx(replay.total)

    def test_return_all_pods_assignment(self):
        costs = CostModel(
            to_station=((1.0,), (2.0,), (3.0,)),
            from_station=((4.0, 7.0, 5.0),),
            terminal=TERMINAL_RETURN_ALL,
        )
        inst = Instance(n_pods=3, n_places=3, station_capacities=(2,),
                        costs=costs, initial_storage=(1, None, None),
                        initial_queues=((2, 3),), departures=())
        # pods 2 and 3 must go to the free places 2 and 3: 7+5 is minimal
        assert terminal_cost(inst, inst.initial_storage, inst.initial_queues) == 12.0


class TestOccupationIntervals:
    @pytest.mark.parametrize("seed", range(4))
    def test_disjoint_per_place(self, seed):
        inst = harness.build_tiny_random(seed)
        replay = Replay(inst).run(RandomPolicy(seed))
        per_place = {}
        for iv in occupation_intervals(inst, replay.actions):
            assert 0 <= iv.begin < iv.end <= inst.horizon + 1
            per_place.setdefault(iv.place, []).append((iv.begin, iv.end))
        for spans in per_place.values():
            spans.sort()
            for (b1, e1), (b2, e2) in zip(spans, spans[1:]):
                assert e1 <= b2

    @pytest.mark.parametrize("seed", range(4))
    def test_rejects_exactly_what_a_replay_rejects(self, seed):
        # plans with one or two actions changed; the interval check must
        # agree with check_feasible on the verdict, the step and the reason
        inst = build_small_system(seed + 1, n=200)
        plan = Replay(inst).run(RandomPolicy(seed)).actions
        rng = np.random.default_rng(seed)
        rejected = 0
        for _ in range(60):
            changed = list(plan)
            for t in rng.integers(0, inst.horizon, size=rng.integers(1, 3)):
                changed[t] = int(rng.integers(-1, inst.n_places + 2))
            verdict = check_feasible(inst, changed)
            if verdict.ok:
                occupation_intervals(inst, changed)
                continue
            rejected += 1
            with pytest.raises(InfeasibleActionError) as err:
                occupation_intervals(inst, changed)
            assert (err.value.step, err.value.reason) == (verdict.step, verdict.reason)
        assert rejected > 0
        with pytest.raises(InfeasibleActionError) as err:
            occupation_intervals(inst, plan[:-1])
        assert err.value.reason == REASON_LENGTH

    def test_initial_busy_ends(self):
        inst = six_pod_instance()
        # place 1 holds pod 1 departing at step 1; place 3 frees after step 0
        assert initial_busy_ends(inst) == [2, 0, 1, 0, 0, 0]


class TestSerialization:
    def test_instance_roundtrip(self, tmp_path):
        inst = harness.build_tiny_random(5)
        path = tmp_path / "inst.json"
        save_instance(inst, path)
        assert load_instance(path) == inst
        assert instance_from_dict(instance_to_dict(inst)) == inst

    def test_actions_roundtrip(self, tmp_path):
        inst = harness.build_tiny_random(5)
        replay = Replay(inst).run(RandomPolicy(1))
        path = tmp_path / "actions.json"
        save_actions(replay.actions, path)
        assert load_actions(path) == replay.actions

    @pytest.mark.parametrize("doc", [[1.9, True, "3", 0], [1, 2.0], [None],
                                     {"actions": [1, 0]}, 3])
    def test_hostile_action_file_rejected(self, tmp_path, doc):
        # a lenient reader would load [1.9, true, "3", 0] as [1, 1, 3, 0]
        path = tmp_path / "actions.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(InvalidInstanceError):
            load_actions(path)

    @pytest.mark.parametrize("loader", [load_instance, load_actions])
    def test_deeply_nested_file_rejected(self, tmp_path, loader):
        # json's decoder answers deep nesting with a RecursionError
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000 + "]" * 100_000)
        with pytest.raises(InvalidInstanceError, match="deep.json is nested too deeply"):
            loader(path)

    def test_small_system_roundtrip(self, tmp_path):
        inst = build_small_system(seed=1, n=50)
        path = tmp_path / "small.json"
        save_instance(inst, path)
        assert load_instance(path) == inst

    @pytest.mark.parametrize("build", [lambda: harness.build_tiny_random(7),
                                       lambda: build_small_system(seed=2, n=300),
                                       lambda: build_medium_system(1, n=2000)],
                             ids=["tiny", "small", "medium"])
    def test_saved_file_loads_to_an_equal_instance_and_schedule(self, tmp_path, build):
        inst = build()
        path = tmp_path / "inst.json"
        save_instance(inst, path)
        loaded = load_instance(path)
        assert loaded == inst
        assert departure_schedule(loaded) == departure_schedule(inst)

    def test_indented_file_still_loads(self, tmp_path):
        inst = build_small_system(seed=1, n=80)
        path = tmp_path / "indented.json"
        with open(path, "w") as fh:
            json.dump(instance_to_dict(inst), fh, indent=1)
        assert load_instance(path) == inst

    def test_action_file_bytes(self, tmp_path):
        path = tmp_path / "actions.json"
        save_actions([3, 0, 12], path)
        assert path.read_text() == "[3, 0, 12]\n"


@given(seed=st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_generated_instances_replay_feasibly(seed):
    inst = harness.build_tiny_random(seed)
    validate_instance(inst)
    replay = Replay(inst).run(RandomPolicy(seed))
    assert len(replay.actions) == inst.horizon
    assert math.isfinite(replay.total)


@given(seed=st.integers(0, 10_000), data=st.data())
@settings(max_examples=40, deadline=None)
def test_any_admissible_path_is_feasible(seed, data):
    inst = harness.build_tiny_random(seed)
    replay = Replay(inst)
    while not replay.done:
        choice = data.draw(st.sampled_from(replay.admissible()))
        replay.step(choice)
    assert check_feasible(inst, replay.actions).ok


class TestHostileInstanceFiles:
    """Malformed instance documents raise InvalidInstanceError, never a
    TypeError or a silently wrong cost."""

    def doc(self):
        return instance_to_dict(harness.build_tiny_random(5))

    @pytest.mark.parametrize("cost", [float("nan"), float("inf"), -float("inf"),
                                      True, "3", None,
                                      pytest.param(10 ** 400, id="huge-int")])
    @pytest.mark.parametrize("table", ["cost_to_station", "cost_from_station"])
    def test_bad_cost(self, table, cost):
        doc = self.doc()
        doc[table][0][0] = cost
        with pytest.raises(InvalidInstanceError):
            instance_from_dict(doc)

    @pytest.mark.parametrize("value", [True, 1.0, 1.5, "1"])
    def test_non_integer_pod_id(self, value):
        for field in ("initial_storage", "departures"):
            doc = self.doc()
            if field == "initial_storage":
                doc[field][doc[field].index(1)] = value
            else:
                doc[field][0][0] = value
            with pytest.raises(InvalidInstanceError):
                instance_from_dict(doc)

    @pytest.mark.parametrize("value", [True, 2.0])
    def test_non_integer_counts_and_ids(self, value):
        for edit in (lambda d: d.update(pods=value), lambda d: d.update(places=value),
                     lambda d: d["stations"][0].update(id=value),
                     lambda d: d["stations"][0].update(capacity=value),
                     lambda d: d["departures"][0].__setitem__(1, value)):
            doc = self.doc()
            edit(doc)
            with pytest.raises(InvalidInstanceError):
                instance_from_dict(doc)

    def test_queued_pod_must_be_integer(self):
        doc = self.doc()
        pod = doc["initial_storage"].index(1)
        doc["initial_storage"][pod] = 0
        doc["initial_queues"][0] = [1.0]
        with pytest.raises(InvalidInstanceError):
            instance_from_dict(doc)

    @pytest.mark.parametrize("doc", [[1, 2], "instance", 3, None])
    def test_non_object_document(self, doc):
        with pytest.raises(InvalidInstanceError, match="an instance document is an object"):
            instance_from_dict(doc)

    @pytest.mark.parametrize("field", ["pods", "places", "stations", "cost_to_station",
                                       "cost_from_station", "initial_storage",
                                       "initial_queues", "departures"])
    def test_missing_field_is_named(self, field):
        doc = self.doc()
        del doc[field]
        with pytest.raises(InvalidInstanceError, match=f"lacks {field}$"):
            instance_from_dict(doc)

    @pytest.mark.parametrize("field, value", [
        ("stations", [{}]), ("stations", [{"id": 1}]), ("stations", [3]),
        ("stations", 3), ("initial_storage", 3), ("initial_queues", 3),
        ("initial_queues", [3]), ("cost_to_station", 3), ("cost_to_station", [3]),
        ("cost_from_station", 3), ("departures", 3), ("departures", [[1]]),
        ("departures", [3]),
    ])
    def test_malformed_nested_field_is_named(self, field, value):
        doc = self.doc()
        doc[field] = value
        with pytest.raises(InvalidInstanceError, match=field):
            instance_from_dict(doc)

    def test_terminal_cost_is_optional(self):
        doc = self.doc()
        del doc["terminal_cost"]
        assert instance_from_dict(doc) == harness.build_tiny_random(5)

    def test_return_all_pods_needs_a_place_for_every_pod(self, tmp_path):
        # three pods on two places: the queued pod never finds a free place
        inst = Instance(n_pods=3, n_places=2, station_capacities=(1,),
                        costs=CostModel(to_station=((1.0,), (2.0,)),
                                        from_station=((1.0, 2.0),),
                                        terminal=TERMINAL_RETURN_ALL),
                        initial_storage=(1, 2), initial_queues=((3,),),
                        departures=((1, 1), (2, 1)))
        path = tmp_path / "crowded.json"
        save_instance(inst, path)
        with pytest.raises(InvalidInstanceError,
                           match="terminal cost return-all-pods .*3 pods, 2 places"):
            load_instance(path)
        validate_instance(replace(inst, costs=replace(inst.costs, terminal="zero")))

    def test_programmatic_nan_cost_rejected(self):
        costs = CostModel(to_station=((float("nan"),),), from_station=((1.0,),))
        with pytest.raises(InvalidInstanceError):
            costs.validate(1, 1)
