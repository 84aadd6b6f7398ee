"""Task-and-motion products: dependencies, assisting services, reduction."""
import random

import pytest

from syncplan import ltl, taskprod
from syncplan.agents import GridSpec, build_grid_agent
from syncplan.buchi import (
    EXPLICIT_MODE,
    BuchiAutomaton,
    Silent,
    _bfs,
    good_components,
    language_empty,
    region_analysis,
    strongly_connected_components,
)
from syncplan.executor import SimulationConfig, check_local_satisfaction, simulate
from syncplan.globalprod import EmptyLanguageError
from syncplan.motion import build_motion_product, reduce as reduce_motion
from syncplan.pipeline import run_synthesis
from syncplan.scenario_io import check_strategies_fit, scenario_from_dict
from syncplan.taskprod import (
    _live_anchors,
    build_task_motion_product,
    compute_assisting,
    compute_dep,
    compute_globally_assisting,
    reduce_task_motion,
)
from syncplan.translate import translate
from tests import reference_taskprod as ref_task
from tests.conftest import (
    benchmark_workloads,
    explicit_agent,
    make_scenario,
    random_formula,
    significant_states,
    singleton_offers,
)
from tests.reference_buchi import accepting_lasso

OWNER = {"load": 1, "unload": 1, "help": 2, "inform": 2, "assist": 3}
ALL = frozenset(OWNER)

PSI1 = (
    "load && help && assist && G (!load || X (unload && (help || assist))) "
    "&& G (!unload || X (load && help && assist))"
)


def hauler_products():
    """Agent-1 style: alternate between a load cell and an unload cell."""
    agent = explicit_agent(
        1,
        ["L", "U"],
        {"go": None, "back": None, "load": ["load"], "unload": ["unload"]},
        [(0, "go", 1), (1, "back", 0), (0, "load", 0), (1, "unload", 1)],
    )
    rm = reduce_motion(build_motion_product(agent, translate(ltl.TRUE_F)))
    spec = translate(ltl.parse(PSI1, ALL))
    tm = build_task_motion_product(rm, spec, 1, agent.services, OWNER, singleton_offers(OWNER))
    compute_dep(tm)
    return agent, rm, tm


def surveyor_products():
    """Agent-2 style: can help and can inform, task asks to inform repeatedly."""
    agent = explicit_agent(
        2,
        ["H", "I"],
        {"go": None, "back": None, "help": ["help"], "inform": ["inform"]},
        [(0, "go", 1), (1, "back", 0), (0, "help", 0), (1, "inform", 1)],
    )
    rm = reduce_motion(build_motion_product(agent, translate(ltl.TRUE_F)))
    spec = translate(ltl.parse("G F inform", ALL))
    tm = build_task_motion_product(rm, spec, 2, agent.services, OWNER, singleton_offers(OWNER))
    compute_dep(tm)
    return agent, rm, tm


def helper_products():
    """Agent-3 style: provides assist, task is vacuous."""
    agent = explicit_agent(3, ["A"], {"assist": ["assist"]}, [(0, "assist", 0)])
    rm = reduce_motion(build_motion_product(agent, translate(ltl.TRUE_F)))
    spec = translate(ltl.parse("assist || !assist", ALL))
    tm = build_task_motion_product(rm, spec, 3, agent.services, OWNER, singleton_offers(OWNER))
    compute_dep(tm)
    return agent, rm, tm


def empty_but_for_dead_regions(tm, significant) -> bool:
    """Is every accepting run of the task product one that stays forever in
    a dead region component?  Such a component is a strongly connected set
    of insignificant states with no service-labeled internal edge and a task
    state that does not tolerate silence, so the run would end in silence
    its task rejects.  Runs merely passing through one still count."""
    a = tm.automaton
    region = [not sig for sig in significant]
    _rcomp, rcomps = strongly_connected_components(a, allowed=region)
    tolerant = tm.silence_tolerant()
    dead = set()
    for members in rcomps:
        inside = set(members)
        labels = [
            a.transitions[tid].label
            for s in members
            for tid in a.out_transitions(s)
            if a.transitions[tid].dst in inside
        ]
        if all(isinstance(label, Silent) for label in labels):
            if a.state_tags[members[0]][1] not in tolerant:
                dead.add(tuple(members))
    _comp, comps, good = good_components(a)
    dist, _parent = _bfs(a, a.initial)
    return not any(
        dist[comps[c][0]] is not None and tuple(comps[c]) not in dead for c in good
    )


class TestProduct:
    def test_trivial_task_mirrors_motion_labels(self):
        agent = explicit_agent(1, ["L"], {"load": ["load"]}, [(0, "load", 0)])
        rm = reduce_motion(build_motion_product(agent, translate(ltl.TRUE_F)))
        tm = build_task_motion_product(
            rm, translate(ltl.TRUE_F), 1, agent.services, OWNER, singleton_offers(OWNER)
        )
        labels = {t.label for t in tm.automaton.transitions if not isinstance(t.label, Silent)}
        assert labels == {frozenset({"load"})}  # no foreign services occur in any guard

    def test_collaborative_task_requires_companion_services(self):
        _agent, _rm, tm = hauler_products()
        initial_joint = [
            t.label
            for t in tm.automaton.transitions
            if t.src == tm.automaton.initial and not isinstance(t.label, Silent)
        ]
        assert initial_joint
        for sigma in initial_joint:
            if "load" in sigma:
                assert {"help", "assist"} <= sigma

    def test_transitions_carry_motion_and_task_marks(self):
        # states are (motion, task) pairs, and a transition meets the
        # motion sets its reduced motion transition meets and, above them,
        # the task sets its task transition meets; a silent move rests at
        # its task state and meets the sets every transition entering that
        # state meets, all of them where none enters
        for _agent, rm, tm in (hauler_products(), surveyor_products(), helper_products()):
            a = tm.automaton
            spec = tm.task_spec
            motion_sets = rm.automaton.sets
            assert a.sets == motion_sets + spec.sets
            assert all(len(tag) == 2 for tag in a.state_tags)
            assert len(set(a.state_tags)) == a.n_states
            for tid, t in enumerate(a.transitions):
                m_tid, p_tid = a.tr_back[tid]
                mt = rm.automaton.transitions[m_tid]
                assert a.state_tags[t.src][0] == mt.src and a.state_tags[t.dst][0] == mt.dst
                assert t.mask & ((1 << motion_sets) - 1) == mt.mask
                if p_tid is None:
                    q2 = a.state_tags[t.src][1]
                    assert a.state_tags[t.dst][1] == q2
                    task = (1 << spec.sets) - 1
                    for u in spec.transitions:
                        if u.dst == q2:
                            task &= u.mask
                else:
                    pt = spec.transitions[p_tid]
                    assert (a.state_tags[t.src][1], a.state_tags[t.dst][1]) == (pt.src, pt.dst)
                    task = pt.mask
                assert t.mask >> motion_sets == task


class TestAssisting:
    def test_ignored_service_never_assists(self):
        _agent, _rm, tm = surveyor_products()
        for tid, t in enumerate(tm.automaton.transitions):
            if isinstance(t.label, Silent):
                continue
            for service in ("load", "unload", "assist"):
                assert compute_assisting(tm, tid, service) is False

    def test_help_assists_on_load_steps(self):
        _agent, _rm, tm = hauler_products()
        load_steps = [
            tid
            for tid, t in enumerate(tm.automaton.transitions)
            if not isinstance(t.label, Silent) and "load" in t.label
        ]
        assert load_steps
        assert all(compute_assisting(tm, tid, "help") for tid in load_steps)

    def test_own_service_rejected(self):
        _agent, _rm, tm = hauler_products()
        tid = next(
            tid
            for tid, t in enumerate(tm.automaton.transitions)
            if not isinstance(t.label, Silent)
        )
        with pytest.raises(ValueError):
            compute_assisting(tm, tid, "load")

    def test_xor_characterization(self):
        _agent, _rm, tm = hauler_products()
        # the oracle's keys come straight from the transitions; help and
        # assist have distinct owners, so every foreign part is spelled out.
        # A service assists exactly when the variant with it and the one
        # without it differ in existence, and the coalition is the agent
        # plus the owners of the services assisting
        keys = {
            (t.src, t.label, t.dst, t.mask)
            for t in tm.automaton.transitions
            if not isinstance(t.label, Silent)
        }
        deps = compute_dep(tm)
        for tid, t in enumerate(tm.automaton.transitions):
            if isinstance(t.label, Silent):
                assert deps[tid] == {1}
                continue
            members = {1}
            for service in sorted(tm.foreign_syntactic):
                with_s = (t.src, t.label | {service}, t.dst, t.mask) in keys
                without_s = (t.src, t.label - {service}, t.dst, t.mask) in keys
                assert compute_assisting(tm, tid, service) == (with_s != without_s)
                if with_s != without_s:
                    members.add(tm.service_owner[service])
            assert deps[tid] == members
        assert any(len(dep) > 1 for dep in deps.values())


    def test_parallel_edges_differing_in_marks_alone(self):
        # G F (pick && lift) has one task state, with a `true` loop and a
        # `lift & pick` loop meeting the task set.  A {pick, lift} step takes
        # both, so it has two parallel transitions that differ in their mask
        # alone: lift assists the marked one, as the {pick} step has no
        # marked twin, and not the unmarked one
        agent = explicit_agent(1, ["P"], {"pick": ["pick"]}, [(0, "pick", 0)])
        rm = reduce_motion(build_motion_product(agent, translate(ltl.TRUE_F)))
        spec = translate(ltl.parse("G F (pick && lift)", {"pick", "lift"}))
        assert spec.n_states == 1
        owner = {"pick": 1, "lift": 2}
        tm = build_task_motion_product(rm, spec, 1, agent.services, owner, singleton_offers(owner))
        both = frozenset({"pick", "lift"})
        twins = [tid for tid, t in enumerate(tm.automaton.transitions) if t.label == both]
        masks = sorted(tm.automaton.transitions[tid].mask >> rm.automaton.sets for tid in twins)
        assert masks == [0, 1]
        for tid in twins:
            marked = tm.automaton.transitions[tid].mask >> rm.automaton.sets
            assert compute_assisting(tm, tid, "lift") == bool(marked)
        deps = compute_dep(tm)
        assert {deps[tid] for tid in twins} == {frozenset({1}), frozenset({1, 2})}


class TestProvidableParts:
    @pytest.mark.parametrize("k", [9, 12, 16, 20])
    def test_wide_guards_grow_linearly(self, k):
        # agent 2 offers each x alone, so agent 1's foreign parts are the
        # k singletons and none: 2k + 8 task transitions instead of 2^k
        # variants per edge, k + 5 reduced edges, 2k global tuples, and the
        # same 21-step plan with 2 synchronizations
        result = run_synthesis(scenario_from_dict(benchmark_workloads().wide_guards(k)))
        art = result.artifacts[1]
        assert len(art.task_product.automaton.transitions) == 2 * k + 8
        assert len(art.reduced_task.automaton.transitions) == k + 5
        assert result.stats["global_total"] == 2 * k
        steps = [step for st in result.strategies.values() for step in st.steps()]
        assert len(steps) == 21 and sum(len(step.sync) > 1 for step in steps) == 2

    def test_jointly_offered_services_keep_their_coalition(self):
        # the partner's one service action provides x1 and x2 together, so
        # {s, x1} and {s, x2} are never spelled out; the {s, x1, x2} step
        # still has either x alone accepted by its guard cubes, so neither
        # is pivotal and its coalition is the agent alone, as on the 2^k
        # product
        agent = explicit_agent(1, ["S"], {"s": ["s"]}, [(0, "s", 0)])
        rm = reduce_motion(build_motion_product(agent, translate(ltl.TRUE_F)))
        spec = translate(ltl.parse("G F (s && (x1 || x2))", {"s", "x1", "x2"}))
        owner = {"s": 1, "x1": 2, "x2": 2}
        offers = {2: {frozenset({"x1", "x2"})}}
        tm = build_task_motion_product(rm, spec, 1, agent.services, owner, offers)
        deps = compute_dep(tm)
        labels = {t.label for t in tm.automaton.transitions}
        assert frozenset({"s", "x1"}) not in labels and frozenset({"s", "x2"}) not in labels
        ref = ref_task.build_task_motion_product(rm, spec, 1, agent.services, owner, offers)
        ref_deps = ref_task.compute_dep(ref)
        every = frozenset({"s", "x1", "x2"})
        ref_of = {
            (t.src, t.label, t.dst, t.mask): tid for tid, t in enumerate(ref.automaton.transitions)
        }
        both = [tid for tid, t in enumerate(tm.automaton.transitions) if t.label == every]
        assert both
        for tid in both:
            t = tm.automaton.transitions[tid]
            assert deps[tid] == ref_deps[ref_of[(t.src, t.label, t.dst, t.mask)]] == {1}
            assert not compute_assisting(tm, tid, "x1") and not compute_assisting(tm, tid, "x2")

    def test_jointly_offered_services_keep_the_verdict(self, monkeypatch):
        # on 2x1 grids with the services at the far cells, agent 1's only
        # non-silent {s, x1, x2} steps do not strip to its own part, and the
        # variants where peeling gets stuck are not spelled out; their
        # source must stay significant, or the fold would replay the step
        # as silent and return a plan whose word violates the task.  The
        # verdict is the 2^k product's, and a plan, if one is found, must
        # satisfy every agent's task
        agents = [
            build_grid_agent(GridSpec(aid, 2, 1, (0, 0), service_cells=(((1, 0), frozenset(svcs)),)))
            for aid, svcs in ((1, ["s"]), (2, ["x1", "x2"]))
        ]
        scenario = make_scenario(
            agents, {1: "true", 2: "true"}, {1: "G F (s && (x1 || x2))", 2: "true"}
        )
        verdicts = []
        for patched in (False, True):
            with monkeypatch.context() as m:
                if patched:
                    for name in ref_task.STAGES:
                        m.setattr(taskprod, name, getattr(ref_task, name))
                try:
                    result = run_synthesis(scenario)
                except EmptyLanguageError as e:
                    verdicts.append(str(e))
                    continue
            verdicts.append("solved")
            check_strategies_fit(scenario, result.strategies)
            sim = simulate(scenario, result.strategies, SimulationConfig(seed=0))
            checks = check_local_satisfaction(scenario, result.strategies, sim)
            assert all(v.motion and v.task and v.consistent for v in checks.values())
        assert verdicts[0] == verdicts[1]


class TestDep:
    def test_silent_moves_depend_on_self_only(self):
        _agent, _rm, tm = hauler_products()
        for tid, t in enumerate(tm.automaton.transitions):
            if isinstance(t.label, Silent):
                assert tm.automaton.tr_dep[tid] == frozenset({1})

    def test_load_step_needs_full_coalition(self):
        _agent, _rm, tm = hauler_products()
        deps = {
            frozenset(tm.automaton.tr_dep[tid])
            for tid, t in enumerate(tm.automaton.transitions)
            if not isinstance(t.label, Silent) and "load" in t.label
        }
        assert deps == {frozenset({1, 2, 3})}

    def test_unload_step_needs_one_companion(self):
        _agent, _rm, tm = hauler_products()
        deps = {
            frozenset(tm.automaton.tr_dep[tid])
            for tid, t in enumerate(tm.automaton.transitions)
            if not isinstance(t.label, Silent) and "unload" in t.label
        }
        assert frozenset({1, 2}) in deps
        assert frozenset({1, 3}) in deps
        assert frozenset({1, 2, 3}) not in deps


class TestGloballyAssisting:
    def test_three_robot_pattern(self):
        products = [hauler_products()[2], surveyor_products()[2], helper_products()[2]]
        ga = compute_globally_assisting(products)
        assert ga[2] == frozenset({"help"})
        assert ga[3] == frozenset({"assist"})
        assert ga[1] == frozenset()

    def test_single_agent_scenario_empty(self):
        agent = explicit_agent(1, ["L"], {"load": ["load"]}, [(0, "load", 0)])
        rm = reduce_motion(build_motion_product(agent, translate(ltl.TRUE_F)))
        tm = build_task_motion_product(
            rm, translate(ltl.parse("G F load", {"load"})), 1, agent.services, {"load": 1}, {}
        )
        compute_dep(tm)
        ga = compute_globally_assisting([tm])
        assert all(not v for v in ga.values())


class TestReduce:
    def test_all_significant_is_identity_modulo_dedupe(self):
        _agent, _rm, tm = hauler_products()
        ga = {1: frozenset(), 2: frozenset({"help"}), 3: frozenset({"assist"})}
        # force universal significance by treating every own service as assisting
        ga_forced = dict(ga)
        ga_forced[1] = frozenset({"load", "unload"})
        sig = significant_states(tm, ga_forced)
        reachable_sig = sum(1 for s in sig if s)
        reduced = reduce_task_motion(tm, ga_forced)
        assert reduced.automaton.n_states <= reachable_sig + 1

    def test_reduction_respects_double_significance_bound(self):
        products = [hauler_products()[2], surveyor_products()[2], helper_products()[2]]
        ga = compute_globally_assisting(products)
        for tm in products:
            sig = significant_states(tm, ga)
            reduced = reduce_task_motion(tm, ga)
            assert reduced.automaton.n_states <= sum(sig) + 1

    def test_emptiness_preserved(self):
        products = [hauler_products()[2], surveyor_products()[2], helper_products()[2]]
        ga = compute_globally_assisting(products)
        for tm in products:
            reduced = reduce_task_motion(tm, ga)
            sig = significant_states(tm, ga)
            assert empty_but_for_dead_regions(tm, sig) == language_empty(reduced.automaton)

    def test_only_live_anchors_keep_their_absorbing_routes(self):
        # from the significant initial state, silent routes lead into three
        # self-loops among insignificant states meeting both acceptance
        # sets: a silent one at task state 0, a silent one at task state 1,
        # and one providing a service at task state 0; only task state 1
        # tolerates silence
        a = BuchiAutomaton(EXPLICIT_MODE, sets=2)
        for q in (0, 0, 1, 0, 0):
            a.add_state((0, q))
        silent = Silent(1)
        for anchor, loop in ((1, silent), (2, silent), (3, frozenset({"beep"}))):
            a.add_transition(4, silent, anchor)
            a.add_transition(anchor, loop, anchor, 3)
        a.add_transition(0, silent, 4)
        significant = [True, False, False, False, False]

        anchors, route = region_analysis(a, significant, _live_anchors(a, {1}))
        assert sorted(anchors) == [2, 3]  # the dead anchor 1 is gone
        reach = {s: route(s) for s in range(a.n_states) if route(s) is not None}
        assert sorted(reach) == [2, 3, 4]
        assert reach[2] == (0, (), 2) and reach[3] == (0, (), 3)
        # the nearest live anchor, the smaller one on a tie
        assert reach[4] == (1, (a.in_transitions(2)[0],), 2)
        anchors, route = region_analysis(a, significant, _live_anchors(a, {0, 1}))
        assert sorted(anchors) == [1, 2, 3]
        reach = {s: route(s) for s in range(a.n_states) if route(s) is not None}
        assert sorted(reach) == [1, 2, 3, 4]
        assert reach[4] == (1, (a.in_transitions(1)[0],), 1)

    def test_dep_inherited_from_heads(self):
        _agent, _rm, tm = hauler_products()
        ga = {1: frozenset(), 2: frozenset({"help"}), 3: frozenset({"assist"})}
        reduced = reduce_task_motion(tm, ga)
        auto = reduced.automaton
        for tid, t in enumerate(auto.transitions):
            dep = auto.tr_dep[tid]
            if isinstance(t.label, Silent):
                assert dep == frozenset({1})
            else:
                for w in auto.tr_witness[tid]:
                    head = w.steps[0]
                    assert tm.automaton.tr_dep[head] == dep


def _random_task_instance(rng):
    """A realistic small product: random agent, random next-free motion
    formula, random collaborative task formula."""
    n_states = rng.randrange(1, 4)
    states = [f"s{i}" for i in range(n_states)]
    actions = {}
    transitions = []
    for i in range(n_states):
        j = rng.randrange(n_states)
        actions[f"m{i}"] = None
        transitions.append((i, f"m{i}", j))
    for cell in range(rng.randrange(1, 3)):
        here = rng.randrange(n_states)
        actions[f"svc{cell}"] = ["mine"]
        transitions.append((here, f"svc{cell}", here))
    labels = {s: (["p"] if rng.random() < 0.4 else []) for s in states}
    agent = explicit_agent(1, states, actions, transitions, labels=labels)

    motion_formula = random_formula(rng, ["p"], 2)
    while ltl.contains_next(motion_formula):
        motion_formula = random_formula(rng, ["p"], 2)
    task_formula = random_formula(rng, ["mine", "x", "y"], 3)
    owner = {"mine": 1, "x": 2, "y": 3}

    mp = build_motion_product(agent, translate(motion_formula))
    rm = reduce_motion(mp)
    tm = build_task_motion_product(
        rm, translate(task_formula), 1, agent.services, owner, singleton_offers(owner)
    )
    compute_dep(tm)
    ga = compute_globally_assisting([tm])
    if rng.random() < 0.5:
        ga[1] = frozenset({"mine"})  # pretend somebody else needs this service
    return tm, ga


def _variant_from(witnesses, origin):
    for w in witnesses:
        if w.src == origin:
            return w
    raise AssertionError(f"no witness from {origin}")


def test_random_reduction_suite():
    rng = random.Random(0)
    nonempty = 0
    for _ in range(120):
        tm, ga = _random_task_instance(rng)
        sig = significant_states(tm, ga)
        reduced = reduce_task_motion(tm, ga)
        assert reduced.automaton.n_states <= sum(sig) + 1
        assert empty_but_for_dead_regions(tm, sig) == language_empty(reduced.automaton)
        if language_empty(reduced.automaton):
            continue
        nonempty += 1
        lasso = accepting_lasso(reduced.automaton)
        # replay: heads align with reduced labels, interiors are insignificant
        orig = tm.automaton.initial
        for tid in lasso.prefix + lasso.cycle:
            t = reduced.automaton.transitions[tid]
            w = _variant_from(reduced.automaton.tr_witness[tid], orig)
            cur = orig
            for pos, step in enumerate(w.steps):
                ot = tm.automaton.transitions[step]
                assert ot.src == cur
                if pos == 0 and sig[ot.src]:
                    assert ot.label == t.label or isinstance(t.label, Silent)
                else:
                    assert not sig[ot.src]
                cur = ot.dst
            orig = cur if w.dst == cur else w.dst
    assert nonempty >= 30


def _accepts_silence_by_emptiness(spec, state):
    """Per-state reference: language of the spec cut to empty-set guards."""
    sub = BuchiAutomaton(spec.mode, spec.sets)
    for _ in range(spec.n_states):
        sub.add_state()
    sub.initial = state
    for t in spec.transitions:
        if t.label.accepts(frozenset()):
            sub.add_transition(t.src, t.label, t.dst, t.mask)
    return not language_empty(sub)


def test_silence_tolerance_matches_per_state_emptiness():
    rng = random.Random(3)
    mixed = 0
    for _ in range(300):
        tm, _ga = _random_task_instance(rng)
        spec = tm.task_spec
        expected = {s for s in range(spec.n_states) if _accepts_silence_by_emptiness(spec, s)}
        assert tm.silence_tolerant() == expected
        assert tm.silence_tolerant() is tm.silence_tolerant()
        mixed += 0 < len(expected) < spec.n_states
    assert mixed >= 30
