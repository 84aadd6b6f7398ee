"""Timed execution, local words, verdicts, and the centralized estimate."""
import dataclasses

import pytest

from syncplan import executor
from syncplan.executor import (
    Behavior,
    DeadlockError,
    SimulationConfig,
    TimedStep,
    check_local_satisfaction,
    check_timing,
    estimate_centralized,
    extract_local_word,
    simulate,
)
from syncplan.globalprod import Strategy, StrategyStep
from syncplan.scenario_io import load_bundled
from syncplan.translate import translate
from tests.conftest import explicit_agent, make_scenario


def two_worker_scenario():
    a1 = explicit_agent(
        1, ["w"], {"work1": None, "meet1": ["ping"]}, [(0, "work1", 0), (0, "meet1", 0)]
    )
    a2 = explicit_agent(
        2, ["w"], {"work2": None, "meet2": ["pong"]}, [(0, "work2", 0), (0, "meet2", 0)]
    )
    sc = make_scenario([a1, a2], {1: "true", 2: "true"}, {1: "true", 2: "true"})
    both = frozenset({1, 2})
    s1 = Strategy(
        1,
        (StrategyStep("w", "work1", frozenset({1})),),
        (StrategyStep("w", "meet1", both), StrategyStep("w", "work1", frozenset({1}))),
    )
    s2 = Strategy(
        2,
        (StrategyStep("w", "work2", frozenset({2})),),
        (StrategyStep("w", "meet2", both), StrategyStep("w", "work2", frozenset({2}))),
    )
    return sc, {1: s1, 2: s2}


@pytest.mark.parametrize(
    "settings",
    [
        {"duration_lo": float("nan")},
        {"duration_hi": float("inf")},
        {"action_durations": {"tick": (1.0, float("nan"))}},
        {"action_durations": {"tick": (float("-inf"), 1.0)}},
    ],
    ids=["nan-lo", "inf-hi", "nan-action", "minus-inf-action"],
)
def test_non_finite_duration_bounds_rejected(settings):
    with pytest.raises(ValueError, match="must be finite"):
        SimulationConfig(**settings)


class TestSimulate:
    def test_singleton_requests_never_block(self):
        a1 = explicit_agent(1, ["s"], {"tick": ["a"]}, [(0, "tick", 0)])
        a2 = explicit_agent(2, ["s"], {"tock": ["b"]}, [(0, "tock", 0)])
        sc = make_scenario([a1, a2], {1: "true", 2: "true"}, {1: "true", 2: "true"})
        strategies = {
            1: Strategy(1, (), (StrategyStep("s", "tick", frozenset({1})),)),
            2: Strategy(2, (), (StrategyStep("s", "tock", frozenset({2})),)),
        }
        result = simulate(sc, strategies, SimulationConfig(seed=1))
        for behavior in result.behaviors.values():
            for step in behavior.steps:
                assert step.sync_duration == 0.0

    def test_barrier_release_at_latest_arrival(self):
        sc, strategies = two_worker_scenario()
        config = SimulationConfig(
            seed=0,
            action_durations={
                "work1": (3.0, 3.0),
                "work2": (5.0, 5.0),
                "meet1": (1.0, 1.0),
                "meet2": (1.0, 1.0),
            },
            unrollings=2,
        )
        result = simulate(sc, strategies, config)
        b1 = result.behaviors[1]
        b2 = result.behaviors[2]
        # first coalition step is step index 1 for both agents
        assert b1.steps[1].request_time == pytest.approx(3.0)
        assert b2.steps[1].request_time == pytest.approx(5.0)
        assert b1.steps[1].start_time == pytest.approx(5.0)
        assert b2.steps[1].start_time == pytest.approx(5.0)
        assert b1.steps[1].sync_duration == pytest.approx(2.0)
        assert b2.steps[1].sync_duration == pytest.approx(0.0)
        assert b1.steps[1].event == b2.steps[1].event

    def test_every_barrier_has_zero_wait_member(self):
        sc, strategies = two_worker_scenario()
        result = simulate(sc, strategies, SimulationConfig(seed=7, unrollings=4))
        barriers = {}
        for behavior in result.behaviors.values():
            for step in behavior.steps:
                if step.event[0] == "barrier":
                    barriers.setdefault(step.event, []).append(step.sync_duration)
        assert barriers
        for waits in barriers.values():
            assert min(waits) == pytest.approx(0.0)

    def test_timing_identities(self):
        sc, strategies = two_worker_scenario()
        result = simulate(sc, strategies, SimulationConfig(seed=3, unrollings=3))
        for behavior in result.behaviors.values():
            assert check_timing(behavior) == []

    def test_same_seed_bit_identical(self):
        sc, strategies = two_worker_scenario()
        r1 = simulate(sc, strategies, SimulationConfig(seed=5))
        r2 = simulate(sc, strategies, SimulationConfig(seed=5))
        for aid in r1.behaviors:
            s1 = [(s.request_time, s.start_time, s.action_duration) for s in r1.behaviors[aid].steps]
            s2 = [(s.request_time, s.start_time, s.action_duration) for s in r2.behaviors[aid].steps]
            assert s1 == s2

    def test_mismatched_coalitions_deadlock(self):
        sc, strategies = two_worker_scenario()
        bad = dict(strategies)
        bad[2] = Strategy(
            2, (), (StrategyStep("w", "work2", frozenset({2})),)
        )  # never joins the barrier
        with pytest.raises(DeadlockError) as err:
            simulate(sc, bad, SimulationConfig(seed=0))
        assert "coalition {1, 2}" in str(err.value)

    def test_event_log_ordered(self):
        sc, strategies = two_worker_scenario()
        result = simulate(sc, strategies, SimulationConfig(seed=2))
        lines = result.log_lines()
        times = [float(line.split("\t")[0]) for line in lines]
        assert times == sorted(times)
        kinds = {line.split("\t")[2] for line in lines}
        assert {"sync-request", "barrier-release", "action-start", "action-end", "service"} <= kinds


class TestCheckTiming:
    @staticmethod
    def behavior(*changes):
        """Three steps whose identities hold, with `(index, field, value)` changes."""
        steps = [
            TimedStep("s", "a", frozenset({1}), 0.0, 0.0, 0.0, 2.0, ("solo", 1, 0)),
            TimedStep("s", "b", frozenset({1, 2}), 2.0, 3.0, 1.0, 1.5, ("barrier", "k")),
            TimedStep("s", "a", frozenset({1}), 4.5, 4.5, 0.0, 1.0, ("solo", 1, 2)),
        ]
        for j, name, value in changes:
            steps[j] = dataclasses.replace(steps[j], **{name: value})
        return Behavior(1, steps, 1, 2)

    def test_clean_behavior_passes(self):
        assert check_timing(self.behavior()) == []

    def test_first_request_not_at_zero(self):
        # every reading one later: the identities and the order still hold
        shifted = [
            (j, name, getattr(step, name) + 1.0)
            for j, step in enumerate(self.behavior().steps)
            for name in ("request_time", "start_time")
        ]
        assert check_timing(self.behavior(*shifted)) == ["first request not at time zero"]

    def test_sync_duration_mismatch(self):
        assert check_timing(self.behavior((1, "sync_duration", 0.5))) == [
            "step 1: start - request != sync duration"
        ]

    def test_action_duration_mismatch(self):
        assert check_timing(self.behavior((0, "action_duration", 2.5))) == [
            "step 0: next request - start != action duration"
        ]

    def test_time_sequence_decreases(self):
        # step 2 starts before its request; its sync and the action before
        # it are adjusted so that only the order is wrong
        late = ((1, "action_duration", 2.0), (2, "request_time", 5.0), (2, "sync_duration", -0.5))
        assert check_timing(self.behavior(*late)) == ["time sequence decreases"]


class TestLocalWords:
    def test_solo_agent_cycles_through_services(self):
        a1 = explicit_agent(
            1, ["s", "t"], {"go": None, "one": ["a"], "two": ["b"]},
            [(0, "go", 1), (1, "go", 0), (0, "one", 0), (1, "two", 1)],
        )
        sc = make_scenario([a1], {1: "true"}, {1: "true"})
        one = frozenset({1})
        st = Strategy(
            1,
            (),
            (
                StrategyStep("s", "one", one),
                StrategyStep("s", "go", one),
                StrategyStep("t", "two", one),
                StrategyStep("t", "go", one),
            ),
        )
        result = simulate(sc, {1: st}, SimulationConfig(seed=0))
        word = extract_local_word(result, 1, sc)
        assert word.prefix == ()
        assert word.period == (frozenset({"a"}), frozenset({"b"}))
        # a cycle length that does not match the unrolled behavior
        result.behaviors[1] = dataclasses.replace(result.behaviors[1], cycle_len=3)
        with pytest.raises(ValueError, match="cycle observations must repeat"):
            extract_local_word(result, 1, sc)

    def test_unsynchronized_services_invisible(self, asymmetry):
        both = frozenset({1, 2})
        s1 = Strategy(1, (), (StrategyStep("s0", "ping", both),))
        s2 = Strategy(
            2,
            (),
            (StrategyStep("t0", "pong", both), StrategyStep("t0", "pong", frozenset({2}))),
        )
        result = simulate(asymmetry, {1: s1, 2: s2}, SimulationConfig(seed=0))
        w1 = extract_local_word(result, 1, asymmetry)
        w2 = extract_local_word(result, 2, asymmetry)
        assert w1.period == (frozenset({"a", "b"}),)
        assert w2.period == (frozenset({"a", "b"}), frozenset({"b"}))

    def test_silent_cycle_folds_to_empty_letter(self):
        a1 = explicit_agent(1, ["s"], {"init": ["a"]}, [(0, "init", 0)])
        sc = make_scenario([a1], {1: "true"}, {1: "a || !a"})
        one = frozenset({1})
        st = Strategy(
            1,
            (StrategyStep("s", "init", one),),
            (StrategyStep("s", "stay", one),),
        )
        result = simulate(sc, {1: st}, SimulationConfig(seed=0))
        word = extract_local_word(result, 1, sc)
        assert word.prefix == (frozenset({"a"}),)
        assert word.period == (frozenset(),)
        verdicts = check_local_satisfaction(sc, {1: st}, result)
        assert verdicts[1].task and verdicts[1].consistent


class TestVerdicts:
    def test_same_formula_different_verdicts(self, asymmetry):
        both = frozenset({1, 2})
        strategies = {
            1: Strategy(1, (), (StrategyStep("s0", "ping", both),)),
            2: Strategy(
                2,
                (),
                (StrategyStep("t0", "pong", both), StrategyStep("t0", "pong", frozenset({2}))),
            ),
        }
        result = simulate(asymmetry, strategies, SimulationConfig(seed=0))
        verdicts = check_local_satisfaction(asymmetry, strategies, result)
        assert asymmetry.task_texts[1] == asymmetry.task_texts[2]
        assert verdicts[1].task is True
        assert verdicts[2].task is False
        assert verdicts[1].consistent and verdicts[2].consistent

    def test_motion_violation_detected(self):
        a1 = explicit_agent(
            1, ["out", "in"], {"go": None}, [(0, "go", 1), (1, "go", 0)],
            labels={"in": ["R1"]},
        )
        sc = make_scenario([a1], {1: "G !R1"}, {1: "true"})
        one = frozenset({1})
        st = Strategy(
            1, (), (StrategyStep("out", "go", one), StrategyStep("in", "go", one))
        )
        result = simulate(sc, {1: st}, SimulationConfig(seed=0))
        verdicts = check_local_satisfaction(sc, {1: st}, result)
        assert verdicts[1].motion is False
        assert verdicts[1].consistent


class TestEstimate:
    @staticmethod
    def automata(sc):
        return {
            aid: (translate(sc.motion_formulas[aid]), translate(sc.task_formulas[aid]))
            for aid in sc.motion_formulas
        }

    def test_trivial_single_agent(self):
        a1 = explicit_agent(1, ["s", "t"], {"go": None}, [(0, "go", 1), (1, "go", 0)])
        sc = make_scenario([a1], {1: "true"}, {1: "true"})
        report = estimate_centralized(sc, self.automata(sc))
        assert report.estimate == 2  # |S| with every factor trivial
        assert report.formula == "2 * 1 * 1"  # no counter factor

    def test_three_robot_report(self, three_robots):
        report = estimate_centralized(three_robots, self.automata(three_robots))
        assert report.ts_state_bound == 96 * 100 * 100
        # one factor per transition system and per automaton, no counter
        assert report.formula == "96 * 100 * 100 * 1 * 3 * 1 * 1 * 1 * 2"
        assert report.estimate == 96 * 100 * 100 * 3 * 2


class TestTranslationMemo:
    """The verdict checks translate each formula once per scenario."""

    @pytest.fixture()
    def calls(self, monkeypatch):
        made = []

        def counting(f):
            made.append(f)
            return translate(f)

        monkeypatch.setattr(executor, "translate", counting)
        return made

    @staticmethod
    def check(scenario, strategies, seeds):
        for seed in seeds:
            result = simulate(scenario, strategies, SimulationConfig(seed=seed))
            verdicts = check_local_satisfaction(scenario, strategies, result)
            assert all(v.motion and v.task and v.consistent for v in verdicts.values())

    @staticmethod
    def formulas(scenario):
        return list(scenario.motion_formulas.values()) + list(scenario.task_formulas.values())

    def test_each_formula_translated_once(self, calls, three_robots_result):
        scenario = load_bundled("three_robots")
        distinct = set(self.formulas(scenario))
        assert len(distinct) >= 4
        self.check(scenario, three_robots_result.strategies, range(5))
        assert len(calls) == len(distinct) and set(calls) == distinct
        assert scenario.automata.keys() == distinct

    def test_fresh_scenario_translates_again(self, calls, three_robots_result):
        first, second = load_bundled("three_robots"), load_bundled("three_robots")
        self.check(first, three_robots_result.strategies, range(2))
        made = len(calls)
        self.check(second, three_robots_result.strategies, range(2))
        assert len(calls) == 2 * made == 2 * len(set(self.formulas(second)))

    def test_memoized_automata_equal_fresh_translations(self, three_robots_result):
        scenario = load_bundled("three_robots")
        self.check(scenario, three_robots_result.strategies, range(1))
        for f, kept in scenario.automata.items():
            fresh = translate(f)
            assert kept.n_states == fresh.n_states
            assert (kept.initial, kept.sets, kept.state_tags, kept.transitions) == (
                fresh.initial,
                fresh.sets,
                fresh.state_tags,
                fresh.transitions,
            )
