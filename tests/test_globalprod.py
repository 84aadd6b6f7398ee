"""Global product, strategy extraction, minimization, dependency classes."""
import dataclasses
import random
from types import SimpleNamespace

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
    _accepting_lasso,
    _keeps_word_legal,
    _project_agent,
    build_global_product,
    compute_dependency_classes,
    minimize_synchronizations,
    synthesize,
)
from syncplan.motion import build_motion_product, reduce as reduce_motion
from syncplan.pipeline import run_synthesis
from syncplan.scenario_io import check_strategies_fit, load_bundled, scenario_from_dict
from syncplan.taskprod import build_task_motion_product, compute_dep
from syncplan.translate import translate
from tests import reference_globalprod as ref_gp
from tests.conftest import (
    benchmark_workloads,
    explicit_agent,
    make_scenario,
    random_scenario,
    walled_room_data,
)


def single_idler():
    agent = explicit_agent(1, ["s"], {}, [])
    sc = make_scenario([agent], {1: "true"}, {1: "true"})
    return sc


def assert_states_are_distinct_reachable_tuples(gp):
    """One state per component tuple, all reachable; every move changes
    exactly the components its back reference names, the way their own
    transitions do.  Its mask holds, each in its position's slot, their
    acceptance masks and L bits: every member of a joint move has its L bit,
    a silent move when it keeps the word legal.  Position i's slot starts
    where position i - 1's ends and holds its reduced sets, then L_i."""
    auto = gp.automaton
    autos = [p.automaton for p in gp.products]
    tags = auto.state_tags
    assert all(isinstance(tag, tuple) and len(tag) == len(autos) for tag in tags)
    assert len(set(tags)) == len(tags)
    assert tags[auto.initial] == tuple(a.initial for a in autos)
    starts = [sum(a.sets + 1 for a in autos[:pos]) for pos in range(len(autos) + 1)]
    assert auto.sets == starts[-1]
    dist, _parent = _bfs(auto, auto.initial)
    assert None not in dist
    silent_out = {}
    for tid, t in enumerate(auto.transitions):
        back = auto.tr_back[tid]
        moved = {back[1]: back[2]} if back[0] == "local" else dict(back[2])
        src, dst = tags[t.src], tags[t.dst]
        expected = 0
        for pos, qs in enumerate(src):
            if pos in moved:
                low = autos[pos].transitions[moved[pos]]
                assert (low.src, low.dst) == (qs, dst[pos])
                legal = back[0] == "joint" or _keeps_word_legal(gp.products[pos], moved[pos])
                expected |= (low.mask | legal << autos[pos].sets) << starts[pos]
            else:
                assert dst[pos] == qs
        assert t.mask == expected
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
        # one tuple per reachable combination of the reduced automata's
        # states, 10 of at most 2 * 2 * 3 significant (motion, task) pairs
        # and absorbing states
        reference = ref_gp.build_global_product(gp.products).automaton
        sizes = [p.automaton.n_states for p in gp.products]
        assert sizes == [2, 2, 3]
        assert gp.automaton.n_states == reference.n_states == 10
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

    def test_coalition_outside_the_product_is_a_named_error(self, two_pairs):
        # the pipeline's dependency classes are closed under dependency; agent
        # 1 alone is not, as its joint steps need agent 2
        result = run_synthesis(two_pairs)
        with pytest.raises(SynthesisError, match="agent 1 needs agent 2, "):
            build_global_product([result.artifacts[1].reduced_task])

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

    @pytest.mark.parametrize("width", [1, 2])
    def test_service_nobody_needs_still_serves_its_own_task(self, width):
        # the task reduction relabels a step nobody else needs as silent; the
        # fold must keep that serving step beside the equally short silent
        # stay, or the agent's only cycle leaves its word dead
        agent = build_grid_agent(
            GridSpec(1, width, 1, (0, 0), service_cells=(((0, 0), frozenset(["s"])),))
        )
        sc = make_scenario([agent], {1: "true"}, {1: "G F s"})
        result = run_synthesis(sc)
        check_strategies_fit(sc, result.strategies)
        assert [step.action for step in result.strategies[1].cycle] == ["s"]
        sim = simulate(sc, result.strategies, SimulationConfig(seed=0))
        verdict = check_local_satisfaction(sc, result.strategies, sim)[1]
        assert verdict.motion and verdict.task and verdict.consistent

    def test_staying_in_P_while_serving_forever_is_empty(self):
        with pytest.raises(EmptyLanguageError) as err:
            run_synthesis(corridor("F G P", "G F s", service_at=(1, 0)))
        assert err.value.stage == "task"
        assert err.value.agent_id == 1

    def test_failure_names_the_agent_of_an_uncovered_set(self):
        # two agents, agent 1 with one reduced set and agent 2 with three:
        # bit 0 is agent 1's set, bit 1 L_1, bits 2 to 4 agent 2's sets and
        # bit 5 L_2.  Self-loop X meets agent 1's set and L_1, self-loop Y
        # meets L_1, L_2 and (optionally) agent 2's sets; the loops'
        # coalitions (L bits) and entering positions (own sets) set the
        # marks.  Without Y's own sets, bit 2 is the first one nothing
        # covers: agent 2's, though a fixed three bits per agent would put
        # it in agent 1's slot
        widths = (1, 3)
        starts = (0, 2)

        def product(y_enters, cyclic=True):
            auto = BuchiAutomaton(EXPLICIT_MODE, 6)
            for qs in ((0, 0), (1, 0), (0, 1)):
                auto.add_state(qs)
            moves = [(0, 1, {1}, ()), (0, 2, {1}, ())]
            if cyclic:
                moves += [(1, 1, {1}, (0,)), (2, 2, {1, 2}, y_enters)]
            for src, dst, coalition, enters in moves:
                mask = sum(((1 << widths[pos]) - 1) << starts[pos] for pos in enters)
                mask |= sum(1 << (starts[aid - 1] + widths[aid - 1]) for aid in coalition)
                tid = auto.add_transition(src, frozenset(), dst, mask)
                auto.tr_dep[tid] = frozenset(coalition)
                auto.tr_back[tid] = ("joint", frozenset(coalition), {})
            reduced = [SimpleNamespace(automaton=BuchiAutomaton(EXPLICIT_MODE, k)) for k in widths]
            return GlobalProduct(auto, reduced, [1, 2])

        cases = [(product((1,)), "task", 1), (product(()), "task", 2)]
        cases.append((product((1,), cyclic=False), "global", None))
        for gp, stage, agent in cases:
            with pytest.raises(EmptyLanguageError) as err:
                synthesize(gp)
            assert (err.value.stage, err.value.agent_id) == (stage, agent)

    def test_one_leg_meeting_two_sets_beats_two_cheaper_legs(self, monkeypatch):
        # from the entry state 0, edge A (cost 2) meets set 0, edge B (cost
        # 2) meets set 1 and edge C (cost 3) meets both; each leads to its
        # own state with an edge back (cost 1).  Per set still needed, C
        # costs 1.5 and A and B 2 each, so the cycle takes C and returns:
        # cost 4, where A, back, B and back would cost 6
        auto = BuchiAutomaton(EXPLICIT_MODE, 2)
        for qs in range(4):
            auto.add_state((qs,))
        costs = []
        for dst, mask, cost in ((1, 0b01, 2), (2, 0b10, 2), (3, 0b11, 3)):
            for src, to, m, c in ((0, dst, mask, cost), (dst, 0, 0, 1)):
                tid = auto.add_transition(src, Silent(1), to, m)
                auto.tr_dep[tid] = frozenset({1})
                auto.tr_back[tid] = ("local", 0, tid)
                costs.append(c)
        from syncplan import globalprod

        monkeypatch.setattr(globalprod, "_move_costs", lambda gp: costs)
        lasso = _accepting_lasso(GlobalProduct(auto, [], [1]))
        assert lasso.prefix == ()
        assert [auto.transitions[tid][::2] for tid in lasso.cycle] == [(0, 3), (3, 0)]

    def test_silent_rest_at_a_task_state_nothing_enters_meets_every_task_set(self):
        # draw 53 of Random(0): agent 1's task `s10 || !s10` starts at a task
        # state no transition enters, so resting there meets every task set,
        # and the agent walks a two-step silent cycle without serving
        rng = random.Random(0)
        for _ in range(54):
            sc = random_scenario(rng)
        assert sc.task_texts == {1: "s10 || !s10"}
        result = run_synthesis(sc)
        spec = result.artifacts[1].task_spec
        assert not spec.in_transitions(spec.initial)
        st = result.strategies[1]
        assert st.prefix == () and len(st.cycle) == 2
        assert all(sc.agent(1).is_silent(step.action) for step in st.cycle)
        check_strategies_fit(sc, result.strategies)
        sim = simulate(sc, result.strategies, SimulationConfig(seed=0))
        verdict = check_local_satisfaction(sc, result.strategies, sim)[1]
        assert verdict.motion and verdict.task and verdict.consistent

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
        # each of the hauler's loads is matched by a help step in the full
        # coalition; a lone help step is legal under every local formula
        full = frozenset({1, 2, 3})
        hauler = three_robots_result.raw_strategies[1]
        for part in ("prefix", "cycle"):
            loads = [s for s in getattr(hauler, part) if s.action == "load"]
            helps = [s for s in getattr(st, part) if s.action == "help" and s.sync == full]
            assert all(s.sync == full for s in loads)
            assert len(loads) == len(helps)
        assert any(s.action == "load" for s in hauler.cycle)
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
        # the reduced motion automaton's longest transition out of its initial
        # state abbreviates the walk to the service cell; breaking one step
        # must stop the replay, also under python -O
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
        tid = max(
            reduced.out_transitions(reduced.initial),
            key=lambda tid: len(reduced.tr_witness[tid][0].steps),
        )
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

    def test_cycle_that_does_not_close_is_a_named_error(self, two_pairs):
        # one pass over a projected cycle returns to where it started, as
        # each reduced state stands for one lower state; a witness moved to
        # end elsewhere must stop the replay, also under python -O
        ((_group, gp), _other) = run_synthesis(two_pairs).global_products
        prefix, cycle = _project_agent(gp, _accepting_lasso(gp), 0)
        last = cycle[-1][0]
        steps = [tid for tid, _sync in prefix + cycle]
        assert steps.count(last) == 1  # no lookup before the end reads the moved witness
        hat = gp.products[0].automaton
        bar = gp.products[0].origin.automaton
        (witness,) = hat.tr_witness[last]
        elsewhere = next(s for s in range(bar.n_states) if s != witness.dst)
        hat.tr_witness[last] = (dataclasses.replace(witness, dst=elsewhere),)
        with pytest.raises(SynthesisError, match="^agent 1: cycle expansion did not close$"):
            synthesize(gp)

    def test_unsatisfiable_motion_reported_with_stage(self):
        agent = explicit_agent(1, ["s"], {}, [], labels={"s": ["R1"]})
        sc = make_scenario([agent], {1: "G !R1"}, {1: "true"})
        with pytest.raises(EmptyLanguageError) as err:
            run_synthesis(sc)
        assert err.value.stage == "motion"
        assert err.value.agent_id == 1

    def test_motion_emptiness_decided_by_cycles_reported_with_stage(self):
        # the initial state has successors here: only the missing accepting
        # cycle, read off the reduced motion automaton, empties the language
        sc = scenario_from_dict(walled_room_data())
        agent = sc.agent(1)
        mp = build_motion_product(agent, translate(sc.motion_formulas[1]))
        assert mp.automaton.n_states >= 35
        assert mp.automaton.out_transitions(mp.automaton.initial)
        with pytest.raises(EmptyLanguageError) as err:
            run_synthesis(sc)
        assert (err.value.stage, err.value.agent_id) == ("motion", 1)
        assert "motion stage of agent 1" in str(err.value)

    def test_unsatisfiable_task_reported_with_stage(self):
        agent = explicit_agent(1, ["s"], {"go": ["m"]}, [(0, "go", 0)])
        sc = make_scenario([agent], {1: "true"}, {1: "G F m && F G !m"})
        with pytest.raises(EmptyLanguageError) as err:
            run_synthesis(sc)
        assert err.value.stage == "task"


@pytest.fixture(scope="module")
def synthesized_teams():
    """(scenario, result) for the bundled scenarios, the benchmark workloads
    and the first 100 random teams drawn from Random(0); a team without an
    accepting run is left out."""
    workloads = benchmark_workloads()
    scenarios = [load_bundled(name) for name in ("asymmetry", "three_robots", "two_pairs")]
    scenarios += [
        scenario_from_dict(workloads.generate(name))
        for name in ("three_robots_13x13", "two_pairs_team", "wide_guards")
    ]
    rng = random.Random(0)
    scenarios += [random_scenario(rng) for _ in range(100)]
    teams = []
    for sc in scenarios:
        try:
            teams.append((sc, run_synthesis(sc)))
        except EmptyLanguageError:
            continue
    assert len(teams) >= 100
    return teams


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

    def test_load_bearing_steps_untouched(self, synthesized_teams):
        for sc, result in synthesized_teams:
            raw = result.raw_strategies
            slim = minimize_synchronizations(raw, sc)
            assert slim == result.strategies
            for aid in raw:
                raw_coalitions = [s.sync for s in raw[aid].steps() if len(s.sync) > 1]
                slim_coalitions = [s.sync for s in slim[aid].steps() if len(s.sync) > 1]
                assert raw_coalitions == slim_coalitions

    def test_coalition_steps_run_service_actions(self, synthesized_teams):
        # every coalition step starts a service-labeled reduced motion
        # transition, so the minimizer has no silent coalition to downgrade
        coalition_steps = 0
        for sc, result in synthesized_teams:
            for aid, st in result.raw_strategies.items():
                agent = sc.agent(aid)
                for step in st.steps():
                    if len(step.sync) > 1:
                        assert not agent.is_silent(step.action), (sc.name, aid, step)
                        coalition_steps += 1
        assert coalition_steps >= 100

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
                scenario.offers,
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
