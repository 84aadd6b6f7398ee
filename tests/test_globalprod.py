"""Global product, strategy extraction, minimization, dependency classes."""
import dataclasses

import pytest

from syncplan.agents import GridSpec, build_grid_agent
from syncplan.buchi import EXPLICIT_MODE, BuchiAutomaton, Silent, _bfs
from syncplan.executor import (
    SimulationConfig,
    check_local_satisfaction,
    check_timing,
    simulate,
)
from syncplan.globalprod import (
    EmptyLanguageError,
    GlobalProduct,
    SynthesisError,
    _AgentExpander,
    compute_dependency_classes,
    minimize_synchronizations,
    synthesize,
)
from syncplan.motion import build_motion_product, reduce as reduce_motion
from syncplan.pipeline import run_synthesis
from syncplan.scenario_io import check_strategies_fit
from syncplan.taskprod import build_task_motion_product, compute_dep
from syncplan.translate import translate
from tests.conftest import explicit_agent, make_scenario


def single_idler():
    agent = explicit_agent(1, ["s"], {}, [])
    sc = make_scenario([agent], {1: "true"}, {1: "true"})
    return sc


def assert_states_are_distinct_reachable_tuples(gp):
    """One state per component tuple, all reachable; every move changes
    exactly the components its back reference names, the way their own
    transitions do, and `entering` names those that enter acceptance."""
    auto = gp.automaton
    autos = [p.automaton for p in gp.products]
    tags = auto.state_tags
    assert all(isinstance(tag, tuple) and len(tag) == len(autos) for tag in tags)
    assert len(set(tags)) == len(tags)
    assert tags[auto.initial] == tuple(a.initial for a in autos)
    assert not auto.accepting
    dist, _parent = _bfs(auto, auto.initial)
    assert None not in dist
    assert len(gp.entering) == len(auto.transitions)
    silent_out = {}
    for tid, t in enumerate(auto.transitions):
        back = auto.tr_back[tid]
        moved = {back[1]: back[2]} if back[0] == "local" else dict(back[2])
        src, dst = tags[t.src], tags[t.dst]
        for pos, qs in enumerate(src):
            if pos in moved:
                low = autos[pos].transitions[moved[pos]]
                assert (low.src, low.dst) == (qs, dst[pos])
            else:
                assert dst[pos] == qs
        entered = {p for p in moved if dst[p] in autos[p].accepting}
        assert gp.entering[tid] == entered
        if back[0] == "local":
            silent_out[t.src] = silent_out.get(t.src, 0) + 1
    # every component's silent moves exist at every tuple
    for s, qs in enumerate(tags):
        expected = sum(
            isinstance(a.transitions[tid].label, Silent)
            for a, q in zip(autos, qs)
            for tid in a.out_transitions(q)
        )
        assert silent_out.get(s, 0) == expected


class TestGlobalProduct:
    def test_states_are_the_distinct_reachable_tuples(self, three_robots_result, two_pairs):
        sc = single_idler()
        result = run_synthesis(sc)
        ((group, gp),) = result.global_products
        assert group == (1,)
        assert_states_are_distinct_reachable_tuples(gp)
        hat = result.artifacts[1].reduced_task.automaton
        assert gp.automaton.n_states <= hat.n_states
        ((_group, gp),) = three_robots_result.global_products
        assert_states_are_distinct_reachable_tuples(gp)
        assert gp.automaton.n_states == 945
        pairs = run_synthesis(two_pairs)
        for _group, gp in pairs.global_products:
            assert_states_are_distinct_reachable_tuples(gp)

    def test_three_robot_full_coalition_transition(self, three_robots_result):
        ((_group, gp),) = three_robots_result.global_products
        auto = gp.automaton
        full = [
            tid
            for tid, t in enumerate(auto.transitions)
            if t.label == frozenset({"load", "help", "assist"})
        ]
        assert full
        assert {auto.tr_dep[tid] for tid in full} == {frozenset({1, 2, 3})}

    def test_coalition_closure_invariant(self, three_robots_result):
        ((_group, gp),) = three_robots_result.global_products
        auto = gp.automaton
        for tid, t in enumerate(auto.transitions):
            back = auto.tr_back[tid]
            if back[0] != "joint":
                continue
            coalition = auto.tr_dep[tid]
            union = frozenset()
            for pos, low_tid in back[2].items():
                union |= gp.products[pos].automaton.tr_dep[low_tid]
            assert union <= coalition

    def test_local_moves_touch_one_component(self, three_robots_result):
        ((_group, gp),) = three_robots_result.global_products
        auto = gp.automaton
        for tid, t in enumerate(auto.transitions):
            if not isinstance(t.label, Silent):
                continue
            src_components = auto.state_tags[t.src]
            dst_components = auto.state_tags[t.dst]
            moved = [
                pos
                for pos in range(len(src_components))
                if src_components[pos] != dst_components[pos]
            ]
            assert len(moved) <= 1
            assert auto.tr_dep[tid] == frozenset({t.label.agent})

    def test_joint_assignments_are_read_only(self, three_robots_result):
        ((_group, gp),) = three_robots_result.global_products
        auto = gp.automaton
        back = next(b for b in auto.tr_back.values() if b[0] == "joint")
        with pytest.raises(TypeError):
            back[2][0] = 0


def corridor(motion, task, service_at=(0, 0)):
    """One agent on a 4x1 grid: service `s` at `service_at`, room P at (3, 0)."""
    agent = build_grid_agent(
        GridSpec(
            1, 4, 1, (0, 0), rooms={(3, 0): "P"}, service_cells=((service_at, frozenset(["s"])),)
        )
    )
    return make_scenario([agent], {1: motion}, {1: task})


class TestSynthesize:
    @pytest.mark.parametrize("motion, task", [("F P", "F s"), ("F P", "s"), ("F G P", "F s")])
    def test_serve_then_walk_east(self, motion, task):
        # do `s`, then walk east three times: the generate-and-test lasso
        # stream declared these empty
        sc = corridor(motion, task)
        result = run_synthesis(sc)
        check_strategies_fit(sc, result.strategies)
        assert any(step.action == "s" for step in result.strategies[1].steps())
        for seed in range(3):
            sim = simulate(sc, result.strategies, SimulationConfig(seed=seed))
            assert not [issue for b in sim.behaviors.values() for issue in check_timing(b)]
            verdict = check_local_satisfaction(sc, result.strategies, sim)[1]
            assert verdict.motion and verdict.task and verdict.consistent

    def test_staying_in_P_while_serving_forever_is_empty(self):
        with pytest.raises(EmptyLanguageError) as err:
            run_synthesis(corridor("F G P", "G F s", service_at=(1, 0)))
        assert err.value.stage == "task"
        assert err.value.agent_id == 1

    def test_failure_names_the_agent_of_an_uncovered_set(self):
        # two agents: self-loop X meets A_1 and L_1, self-loop Y meets L_1,
        # L_2 and (optionally) A_2; the loops' coalitions and entering
        # positions set the marks
        def product(y_enters, cyclic=True):
            auto = BuchiAutomaton(EXPLICIT_MODE)
            for qs in ((0, 0), (1, 0), (0, 1)):
                auto.add_state(qs)
            moves = [(0, 1, {1}, ()), (0, 2, {1}, ())]
            if cyclic:
                moves += [(1, 1, {1}, (0,)), (2, 2, {1, 2}, y_enters)]
            entering = []
            for src, dst, coalition, enters in moves:
                tid = auto.add_transition(src, frozenset(), dst)
                auto.tr_dep[tid] = frozenset(coalition)
                auto.tr_back[tid] = ("joint", frozenset(coalition), {})
                entering.append(frozenset(enters))
            return GlobalProduct(auto, [], [1, 2], entering)

        cases = [(product((1,)), "task", 1), (product(()), "task", 2)]
        cases.append((product((1,), cyclic=False), "global", None))
        for gp, stage, agent in cases:
            with pytest.raises(EmptyLanguageError) as err:
                synthesize(gp)
            assert (err.value.stage, err.value.agent_id) == (stage, agent)

    def test_illegal_expansion_is_a_named_error(self, monkeypatch):
        # covering every L_i keeps each word legal, so an expansion that
        # still reports an agent is an invariant violation, not a retry
        from syncplan import globalprod

        monkeypatch.setattr(globalprod, "_expand_lasso", lambda gp, lasso: (None, 1))
        with pytest.raises(SynthesisError, match="agent 1"):
            run_synthesis(single_idler())

    def test_idle_agent_stays_forever(self):
        sc = single_idler()
        result = run_synthesis(sc)
        st = result.strategies[1]
        assert all(step.action == "stay" for step in st.cycle)
        assert all(step.sync == frozenset({1}) for step in st.prefix + st.cycle)
        assert len(st.cycle) == 1  # minimized to the shortest idle lasso

    def test_helper_requests_full_coalition_then_travels_alone(self, three_robots_result):
        st = three_robots_result.raw_strategies[2]
        syncs = [step.sync for step in st.prefix + st.cycle]
        assert frozenset({1, 2, 3}) in syncs
        help_steps = [s for s in st.prefix + st.cycle if s.action == "help"]
        assert help_steps
        # helping always happens in a coalition with the hauler
        assert all({1, 2} <= s.sync for s in help_steps)
        travel = [s for s in st.cycle if s.action in ("north", "south", "east", "west")]
        assert travel and all(s.sync == frozenset({2}) for s in travel)

    def test_strategies_respect_transition_systems(self, three_robots, three_robots_result):
        for aid, st in three_robots_result.strategies.items():
            ts = three_robots.agent(aid).ts
            steps = list(st.prefix) + list(st.cycle)
            assert steps[0].state == ts.states[ts.initial]
            cur = ts.state_index(steps[0].state)
            for step in steps:
                assert ts.state_index(step.state) == cur
                cur = ts.trans[(cur, step.action)]
            # the cycle closes back on its own first state
            assert cur == ts.state_index(st.cycle[0].state)

    def test_coalition_occurrences_align_across_agents(self, three_robots_result):
        strategies = three_robots_result.strategies
        for part in ("prefix", "cycle"):
            counts = {}
            for aid, st in strategies.items():
                steps = getattr(st, part)
                for step in steps:
                    if len(step.sync) > 1:
                        counts.setdefault(step.sync, {}).setdefault(aid, 0)
                        counts[step.sync][aid] += 1
            for coalition, per_agent in counts.items():
                assert set(per_agent) == set(coalition)
                assert len(set(per_agent.values())) == 1

    def test_serviceless_reach_goal_rests_forever(self):
        # the whole point of the plan is to reach P once; afterwards the
        # agent has nothing to provide and parks in a silent self-loop
        from syncplan.agents import GridSpec, build_grid_agent
        from syncplan.executor import SimulationConfig, check_local_satisfaction, simulate

        agent = build_grid_agent(GridSpec(1, 2, 1, (0, 0), rooms={(1, 0): "P"}))
        sc = make_scenario([agent], {1: "F P"}, {1: "true"})
        result = run_synthesis(sc)
        st = result.strategies[1]
        visited = [step.state for step in st.prefix + st.cycle]
        assert "1,0" in visited
        assert all(step.action == "stay" for step in st.cycle)
        assert all(step.state == "1,0" for step in st.cycle)
        sim = simulate(sc, result.strategies, SimulationConfig(seed=0))
        verdicts = check_local_satisfaction(sc, result.strategies, sim)
        assert verdicts[1].motion and verdicts[1].task and verdicts[1].consistent

    def test_absorbed_agent_coexists_with_live_partner(self):
        from syncplan.agents import GridSpec, build_grid_agent
        from syncplan.executor import SimulationConfig, check_local_satisfaction, simulate

        resting = build_grid_agent(GridSpec(1, 2, 1, (0, 0), rooms={(1, 0): "P"}))
        worker = build_grid_agent(
            GridSpec(2, 2, 1, (0, 0), service_cells=(((1, 0), frozenset(["beep"])),))
        )
        sc = make_scenario(
            [resting, worker], {1: "F P", 2: "true"}, {1: "true", 2: "G F beep"}
        )
        result = run_synthesis(sc)
        assert all(step.action == "stay" for step in result.strategies[1].cycle)
        assert any(step.action == "beep" for step in result.strategies[2].cycle)
        sim = simulate(sc, result.strategies, SimulationConfig(seed=3))
        verdicts = check_local_satisfaction(sc, result.strategies, sim)
        assert all(v.motion and v.task and v.consistent for v in verdicts.values())

    def test_corrupted_motion_witness_raises(self):
        # the reduced motion automaton's first transition abbreviates the walk
        # to the service cell; breaking one step must stop the replay, also
        # under python -O
        from syncplan.agents import GridSpec, build_grid_agent

        beeper = ((3, 0), frozenset(["beep"]))
        agent = build_grid_agent(
            GridSpec(1, 4, 1, (0, 0), rooms={(3, 0): "P"}, service_cells=(beeper,))
        )
        sc = make_scenario([agent], {1: "G F P"}, {1: "G F beep"})
        result = run_synthesis(sc)
        art = result.artifacts[1]
        product = art.motion_product.automaton
        reduced = art.reduced_motion.automaton
        tid = reduced.out_transitions(reduced.initial)[0]
        (witness,) = reduced.tr_witness[tid]
        assert len(witness.steps) >= 2
        arrived = product.transitions[witness.steps[0]].dst
        stray = next(
            step for step, t in enumerate(product.transitions) if t.src != arrived
        )
        steps = (witness.steps[0], stray) + witness.steps[2:]
        reduced.tr_witness[tid] = (dataclasses.replace(witness, steps=steps),)
        ((_group, gp),) = result.global_products
        with pytest.raises(SynthesisError, match="do not chain"):
            synthesize(gp)

    def test_expansion_pass_limit_is_a_named_error(self, monkeypatch, two_pairs):
        # every bundled agent's cycle closes after one pass, so a limit of no
        # passes must stop the replay, also under python -O
        monkeypatch.setattr(_AgentExpander, "MAX_PASSES", 0)
        with pytest.raises(
            SynthesisError, match="agent 1: cycle expansion did not close within 0 passes"
        ):
            run_synthesis(two_pairs)

    def test_unsatisfiable_motion_reported_with_stage(self):
        agent = explicit_agent(1, ["s"], {}, [], labels={"s": ["R1"]})
        sc = make_scenario([agent], {1: "G !R1"}, {1: "true"})
        with pytest.raises(EmptyLanguageError) as err:
            run_synthesis(sc)
        assert err.value.stage == "motion"
        assert err.value.agent_id == 1

    def test_unsatisfiable_task_reported_with_stage(self):
        agent = explicit_agent(1, ["s"], {"go": ["m"]}, [(0, "go", 0)])
        sc = make_scenario([agent], {1: "true"}, {1: "G F m && F G !m"})
        with pytest.raises(EmptyLanguageError) as err:
            run_synthesis(sc)
        assert err.value.stage == "task"


class TestMinimize:
    def test_stays_removed_except_last_cycle_step(self):
        from syncplan.globalprod import Strategy, StrategyStep

        agent = explicit_agent(1, ["s"], {}, [])
        sc = make_scenario([agent], {1: "true"}, {1: "true"})
        st = Strategy(
            1,
            (StrategyStep("s", "stay", frozenset({1})),) * 3,
            (StrategyStep("s", "stay", frozenset({1})),) * 4,
        )
        slim = minimize_synchronizations({1: st}, sc)[1]
        assert slim.prefix == ()
        assert len(slim.cycle) == 1

    def test_load_bearing_steps_untouched(self, three_robots, three_robots_result):
        raw = three_robots_result.raw_strategies
        slim = minimize_synchronizations(raw, three_robots)
        for aid in raw:
            raw_coalitions = [s.sync for s in raw[aid].steps() if len(s.sync) > 1]
            slim_coalitions = [s.sync for s in slim[aid].steps() if len(s.sync) > 1]
            assert raw_coalitions == slim_coalitions

    def test_minimize_is_idempotent(self, three_robots, three_robots_result):
        once = minimize_synchronizations(three_robots_result.raw_strategies, three_robots)
        twice = minimize_synchronizations(once, three_robots)
        assert once == twice


class TestDependencyClasses:
    def _products(self, scenario):
        owner = scenario.service_owner
        tms = []
        for agent in scenario.agents:
            rm = reduce_motion(
                build_motion_product(agent, translate(scenario.motion_formulas[agent.agent_id]))
            )
            tm = build_task_motion_product(
                rm,
                translate(scenario.task_formulas[agent.agent_id]),
                agent.agent_id,
                agent.services,
                owner,
            )
            compute_dep(tm)
            tms.append(tm)
        return tms

    def test_three_robots_single_class(self, three_robots_result):
        assert three_robots_result.dependency_classes == [frozenset({1, 2, 3})]

    def test_independent_tasks_stay_singletons(self):
        agents = [
            explicit_agent(i, ["s"], {f"svc{i}": [f"m{i}"]}, [(0, f"svc{i}", 0)])
            for i in (1, 2, 3)
        ]
        sc = make_scenario(
            agents, {i: "true" for i in (1, 2, 3)}, {i: "true" for i in (1, 2, 3)}
        )
        classes = compute_dependency_classes(self._products(sc))
        assert classes == [frozenset({1}), frozenset({2}), frozenset({3})]

    def test_missing_dependency_map_rejected(self, three_robots):
        tms = self._products(three_robots)
        tms[1].automaton.tr_dep = {}
        with pytest.raises(ValueError, match="dependency map must be computed first"):
            compute_dependency_classes(tms)

    def test_two_disjoint_pairs(self, two_pairs):
        result = run_synthesis(two_pairs)
        assert result.dependency_classes == [frozenset({1, 2}), frozenset({3, 4})]
        assert [group for group, _gp in result.global_products] == [(1, 2), (3, 4)]
