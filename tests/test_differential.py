"""The optimized reductions, translator, global product, lasso search and
lasso membership against their unoptimized references.

Witnesses are compared step by step, so any change in which of several
equally short paths a reduction keeps fails here.  The region analysis is
the exception: its reference breaks ties by set order, so there distances,
anchors and detours must agree and paths must chain.  Tableau nodes are
compared with their ids and incoming sets, which fix the order of the
translated automaton's transitions.  Lassos are compared by cost: each leg
must cost the least that a plain search finds.
"""
import random
from collections import deque
from dataclasses import replace
from fractions import Fraction
from functools import reduce
from itertools import product
from operator import or_

import pytest

from syncplan import buchi, globalprod, ltl, motion, pipeline, taskprod
from syncplan.agents import GridSpec, build_grid_agent
from syncplan.buchi import (
    EXPLICIT_MODE,
    GUARD_MODE,
    AlphabetMismatchError,
    BuchiAutomaton,
    Guard,
    Silent,
    check_lasso_membership,
    components,
    language_empty,
    least_segments,
    region_analysis,
    strongly_connected_components,
)
from syncplan.executor import (
    DeadlockError,
    SimulationConfig,
    check_local_satisfaction,
    check_timing,
    simulate,
)
from syncplan.globalprod import EmptyLanguageError, SynthesisError
from syncplan.motion import build_motion_product
from syncplan.pipeline import run_synthesis
from syncplan.scenario_io import check_strategies_fit, load_bundled, scenario_from_dict
from syncplan.translate import _marked_quotient, _Tableau, translate
from tests import reference_buchi as ref_buchi
from tests import reference_executor as ref_exec
from tests import reference_globalprod as ref_gp
from tests import reference_motion as ref_motion
from tests import reference_reductions as ref
from tests import reference_tableau as ref_tableau
from tests import reference_taskprod as ref_task
from tests.conftest import (
    ATOMS,
    benchmark_workloads,
    chain,
    explicit_agent,
    mark_entering,
    make_scenario,
    pairs,
    random_formula,
    random_motion_product,
    random_scenario,
    response_chain,
    random_word,
    significant_states,
    singleton_offers,
)
from tests.test_globalprod import assert_legal_as_before, assert_no_twin_moves
from tests.test_motion import replay_nonsilent_labels
from tests.test_taskprod import _random_task_instance


def dump(a):
    return (
        a.initial,
        a.sets,
        list(a.state_tags),
        list(a.transitions),
        dict(a.tr_witness),
        dict(a.tr_dep),
    )


def reference_segments(a, significant):
    """Stands in for `least_segments` in the fold: every arrival the
    path-copying walk reports, of which the fold must keep the least."""

    def segments(tid):
        return ref.segments_by_path_copying(a, significant, tid)

    return segments


def _least_witnesses(a, significant):
    """(u, label, v, mask) -> the least path from significant state `u`,
    starting with a `label` step and running through insignificant states,
    to significant state `v`, meeting the sets in `mask`, by the forward
    walk per entry."""
    least = {}
    for u in range(a.n_states):
        if not significant[u]:
            continue
        for tid in a.out_transitions(u):
            t = a.transitions[tid]
            entry = (t.dst, t.mask)
            if significant[t.dst]:
                found = [(*entry, ())]
            else:
                walk = ref.least_paths(a, significant, [entry])
                found = [(y, m, steps) for y, m, _entry, steps in walk]
            for y, m, steps in found:
                steps = (tid,) + steps
                cur = least.get((u, t.label, y, m))
                if cur is None or (len(steps), steps) < (len(cur), cur):
                    least[(u, t.label, y, m)] = steps
    return least


def _path_mask(a, steps):
    return reduce(or_, (a.transitions[tid].mask for tid in steps), 0)


@pytest.mark.python_O
def test_motion_reduction_keeps_least_paths():
    # the reduction keeps the language, replays its labels, stays within one
    # state per significant state plus the absorbing state, and every
    # witness between significant states is the forward walk's least path
    # for its sets, which no path meeting more of them at most as long
    # beats; witnesses into the absorbing state run through insignificant
    # states into an anchor, whose cycle, meeting every set, is the
    # absorbing loop's witness
    rng = random.Random(2)
    long_witnesses = absorbing = nonempty = rivals = 0
    for i in range(2400):
        mp = random_motion_product(rng, max_states=12 if i < 1200 else rng.randint(25, 40))
        a = mp.automaton
        if i % 2:
            # sparse acceptance leaves more states to bypass: longer chains
            entered = {t.dst for t in a.transitions if t.mask}
            mark_entering(a, {s for s in entered if rng.random() < 0.3})
        sig = significant_states(mp)
        reduced = motion.reduce(mp).automaton
        assert reduced.n_states <= sum(sig) + 1
        assert language_empty(reduced) == language_empty(a)
        if not language_empty(reduced):
            lasso = ref_buchi.accepting_lasso(reduced)
            expanded, labels = replay_nonsilent_labels(a, reduced, lasso)
            assert expanded == labels
            nonempty += 1
        least = _least_witnesses(a, sig)
        region = {s for s in range(a.n_states) if not sig[s]}
        anchors = set()
        for tid, t in enumerate(reduced.transitions):
            for w in reduced.tr_witness[tid]:
                if sig[w.src] and sig[w.dst]:
                    assert w.steps == least[(w.src, t.label, w.dst, t.mask)]
                    rank = (len(w.steps), w.steps)
                    for (u, label, v, m), steps in least.items():
                        if (u, label, v) == (w.src, t.label, w.dst) and m != t.mask:
                            assert not (m | t.mask == m and (len(steps), steps) < rank)
                            rivals += 1
                elif sig[w.src]:
                    assert a.transitions[w.steps[0]].label == t.label
                    assert _chains(a, w.steps, w.src, w.dst, region)
                    anchors.add(w.dst)
                else:
                    assert t.src == t.dst and t.mask == 1
                    assert _chains(a, w.steps, w.src, w.src, region)
                    assert _path_mask(a, w.steps) == 1
                long_witnesses += len(w.steps) >= 4
        loops = {
            w.src for tid, t in enumerate(reduced.transitions)
            for w in reduced.tr_witness[tid] if not sig[w.src]
        }
        assert loops == anchors
        absorbing += bool(anchors)
    assert nonempty >= 1500 and long_witnesses >= 1000 and absorbing >= 200
    assert rivals >= 100


def _motion_dump(mp):
    a = mp.automaton
    return (a.initial, a.sets, a.state_tags, a.transitions, a.tr_back)


def _motion_cases():
    """(agent, motion specification) pairs: the agents of random teams, 300
    of them, the bundled scenarios' agents, and a 20x20 grid."""
    cases = []
    rng = random.Random(71)
    while len(cases) < 300:
        scenario = random_scenario(rng)
        cases += [(a, translate(scenario.motion_formulas[a.agent_id])) for a in scenario.agents]
    for name in ("three_robots", "two_pairs", "asymmetry"):
        scenario = load_bundled(name)
        cases += [(a, translate(scenario.motion_formulas[a.agent_id])) for a in scenario.agents]
    rooms = {(x, 19): "R1" for x in range(20)} | {(19, y): "R2" for y in range(5)}
    grid = build_grid_agent(GridSpec(1, 20, 20, (0, 0), obstacles=frozenset({(5, 5)}), rooms=rooms))
    cases.append((grid, translate(ltl.parse("G F R1 && G F R2 && F G !R2", {"R1", "R2"}))))
    return cases


def _twins(a):
    """Transition ids a transition with the same source, label, target and
    back reference dominates: its mask strictly contains theirs."""
    def key(tid):
        t = a.transitions[tid]
        return t.src, t.label, t.dst, a.tr_back[tid]

    masks = {}
    for tid, t in enumerate(a.transitions):
        masks.setdefault(key(tid), []).append(t.mask)
    return {
        tid for tid, t in enumerate(a.transitions)
        if any(m != t.mask and m | t.mask == m for m in masks[key(tid)])
    }


@pytest.mark.python_O
def test_motion_product_matches_reference_builder():
    # the flat pass numbers states as the builder it replaced and keeps its
    # transitions in order, with their back references, but for dominated
    # twins: a step whose mask another step with the same source, label,
    # target and action strictly contains.  Without twins the products are
    # equal transition for transition
    transitions = twins = equal = 0
    for agent, spec in _motion_cases():
        new = build_motion_product(agent, spec)
        old = ref_motion.build_motion_product(agent, spec)
        assert (new.agent, new.spec) == (agent, spec)
        a, b = new.automaton, old.automaton
        assert (a.initial, a.sets, a.state_tags) == (b.initial, b.sets, b.state_tags)
        dropped = _twins(b)
        kept = [(t, b.tr_back[tid]) for tid, t in enumerate(b.transitions) if tid not in dropped]
        assert [(t, a.tr_back[tid]) for tid, t in enumerate(a.transitions)] == kept
        assert not _twins(a)
        for tid in dropped:
            t = b.transitions[tid]
            assert any(
                (u.src, u.label, u.dst, a.tr_back[uid]) == (t.src, t.label, t.dst, b.tr_back[tid])
                and u.mask != t.mask and u.mask | t.mask == u.mask
                for uid, u in enumerate(a.transitions)
            )
        if not dropped:
            assert _motion_dump(new) == _motion_dump(old)
            equal += 1
        transitions += len(a.transitions)
        twins += len(dropped)
    assert transitions >= 10000 and twins >= 500 and equal >= 150


@pytest.mark.python_O
def test_motion_product_keeps_first_of_duplicate_steps():
    # two guards of one specification state read R1 and lead to the same
    # (target, mask), and two silent and two service actions of one system
    # state lead to the same cell: only the first of each (label, target,
    # mask) survives per source, with its action
    agent = explicit_agent(
        1,
        ["a", "b"],
        {"go": None, "walk": None, "give": ["x"], "hand": ["x"]},
        [(0, "go", 1), (0, "walk", 1), (1, "give", 1), (1, "hand", 1), (1, "go", 0)],
        labels={"b": ["R1"]},
    )
    spec = BuchiAutomaton(GUARD_MODE, 1)
    spec.add_state()
    spec.add_state()
    spec.add_transition(0, Guard(frozenset({"R1"})), 1, 1)
    spec.add_transition(0, Guard(), 0)
    spec.add_transition(0, Guard(), 1, 1)
    spec.add_transition(1, Guard(), 1, 1)
    spec.add_transition(1, Guard(), 0)
    new = build_motion_product(agent, spec)
    old = ref_motion.build_motion_product(agent, spec)
    assert _motion_dump(new) == _motion_dump(old)
    a = new.automaton
    moves = sum(
        len(agent.ts.successors(s))
        * sum(spec.transitions[t].label.accepts(agent.ts.labels[s]) for t in spec.out_transitions(q))
        for s, q in a.state_tags
    )
    assert len(a.transitions) < moves
    keys = [(t.src, t.label, t.dst, t.mask) for t in a.transitions]
    assert len(set(keys)) == len(keys)
    assert "walk" not in a.tr_back.values() and "hand" not in a.tr_back.values()
    assert {"go", "give", "stay"} <= set(a.tr_back.values())


@pytest.mark.python_O
def test_pipeline_motion_verdict_matches_full_product():
    # the pipeline decides the motion stage on the reduced automaton; per
    # agent its verdict must be the full product's, also where the full
    # product has reachable states but no accepting cycle
    rng = random.Random(73)
    verdicts = []
    by_cycles = 0
    for _ in range(60):
        scenario = random_scenario(rng)
        for agent in scenario.agents:
            aid = agent.agent_id
            props = sorted(agent.ts.props)
            texts = [scenario.motion_texts[aid]]
            for p in props:
                texts += [f"G {p}", f"F G {p} && G F !{p}"]
            if len(props) == 2:
                texts.append(f"F G {props[0]} && G F {props[1]}")
            for text in texts:
                single = make_scenario([agent], {aid: text}, {aid: "true"})
                full = build_motion_product(agent, translate(single.motion_formulas[aid]))
                expected = language_empty(full.automaton)
                try:
                    run_synthesis(single)
                    empty = False
                except EmptyLanguageError as e:
                    assert (e.stage, e.agent_id) == ("motion", aid)
                    empty = True
                assert empty == expected
                verdicts.append(empty)
                by_cycles += empty and full.automaton.n_states > 1
    assert verdicts.count(True) >= 100 and verdicts.count(False) >= 100
    assert by_cycles >= 50


@pytest.mark.python_O
def test_task_segments_match_path_copying_walk(monkeypatch):
    rng = random.Random(5)
    compared = 0
    for _ in range(400):
        tm, ga = _random_task_instance(rng)
        a = tm.automaton
        sig = significant_states(tm, ga)
        segments = least_segments(a, sig)
        for s in range(a.n_states):
            if not sig[s]:
                continue
            for tid in a.out_transitions(s):
                least = {}
                for target, mask, path in ref.segments_by_path_copying(a, sig, tid):
                    cur = least.get((target, mask))
                    if cur is None or (len(path), path) < (len(cur), cur):
                        least[(target, mask)] = path
                new_segments = segments(tid)
                assert len(new_segments) == len(least)
                assert {(t, m): p for t, m, p in new_segments} == least
                compared += 1
        new = taskprod.reduce_task_motion(tm, ga)
        with monkeypatch.context() as m:
            m.setattr(buchi, "least_segments", reference_segments)
            old = taskprod.reduce_task_motion(tm, ga)
        assert dump(new.automaton) == dump(old.automaton)
    assert compared >= 1000


def _shortest_path_counts(a, stop, entry):
    """Number of shortest paths from the entry pair to each stop pair."""
    dist, count = {entry: 0}, {entry: 1}
    arrivals = {}  # stop pair -> (distance, count)
    queue = deque([entry])
    while queue:
        key = queue.popleft()
        d = dist[key] + 1
        for tid in a.out_transitions(key[0]):
            y = a.transitions[tid].dst
            nxt = (y, key[1] | a.transitions[tid].mask)
            if stop[y]:
                old_d, old_count = arrivals.get(nxt, (d, 0))
                if old_d == d:
                    arrivals[nxt] = (d, old_count + count[key])
                continue
            if nxt not in dist:
                dist[nxt], count[nxt] = d, 0
                queue.append(nxt)
            if dist[nxt] == d:
                count[nxt] += count[key]
    return {pair: c for pair, (_d, c) in arrivals.items()}


@pytest.mark.python_O
def test_least_segments_match_forward_walk_per_entry():
    # the backward tables must give every transition leaving a stop state
    # the forward walk's paths from the pair it enters, also where several
    # shortest paths tie and only the transition ids decide
    rng = random.Random(17)
    tied = 0
    for _ in range(4000):
        a = _random_graph(rng, sets=rng.choice((1, 2)))
        stop = [rng.random() < 0.3 for _ in range(a.n_states)]
        segments = least_segments(a, stop)
        for tid, t in enumerate(a.transitions):
            if not stop[t.src]:
                continue
            entry = (t.dst, t.mask)
            if stop[t.dst]:
                assert segments(tid) == [(*entry, (tid,))]
                continue
            walk = ref.least_paths(a, stop, [entry])
            assert sorted(segments(tid)) == sorted(
                (y, f, (tid,) + steps) for y, f, _entry, steps in walk
            )
            counts = _shortest_path_counts(a, stop, entry)
            tied += sum(counts[(y, m)] >= 2 for y, m, _entry, _steps in walk)
    assert tied >= 500


def _chains(a, path, start, end, inside):
    cur = start
    for tid in path:
        t = a.transitions[tid]
        if t.src != cur or t.dst not in inside:
            return False
        cur = t.dst
    return cur == end


def _routes(a, route):
    """Every state's route, asked of `region_analysis`'s accessor, for the
    states that have one."""
    return {s: route(s) for s in range(a.n_states) if route(s) is not None}


def _walk_to(a, parent, s, anchor):
    """The path a reverse search from `anchor` recorded from `s` back to it."""
    path = []
    while s != anchor:
        path.append(parent[s])
        s = a.transitions[parent[s]].dst
    return tuple(path)


def _without_legality(a):
    """A copy of task product `a` with L, its last set, taken out: the
    automaton the old path's region analysis and live-anchor filter read."""
    bare = BuchiAutomaton(a.mode, a.sets - 1)
    bare.initial, bare.state_tags = a.initial, a.state_tags
    keep = (1 << bare.sets) - 1
    bare.transitions = [t._replace(mask=t.mask & keep) for t in a.transitions]
    return bare


@pytest.mark.python_O
def test_region_analysis_matches_hand_written_searches():
    # the reference's anchors and routes must all come back, for every state
    # that has one, entered or not, each anchor's loop as short as any that
    # meets every set, and each route leading to the nearest anchor, the
    # smaller one on a tie, along the path a reverse search from that anchor
    # alone records.  The anchors are exactly the old path's live ones: with
    # L taken out of the task product, those whose loop provides services or
    # rests where the task tolerates silence
    rng = random.Random(11)
    loops = routes = dead = 0
    for _ in range(5000):
        tm, ga = _random_task_instance(rng)
        a = tm.automaton
        sig = significant_states(tm, ga)
        region = {s for s in range(a.n_states) if not sig[s]}
        anchors, route = region_analysis(a, sig)
        reach = _routes(a, route)
        old_anchors, old_reach, shortest = ref.region_analysis(a, sig)
        assert anchors.keys() == old_anchors.keys()
        for anchor, loop in anchors.items():
            assert len(loop) == shortest[anchor]
            assert _chains(a, loop, anchor, anchor, region)
            assert _path_mask(a, loop) == (1 << a.sets) - 1
        assert reach.keys() == old_reach.keys()
        nearest = {}
        for x in sorted(anchors):
            dist, parent = ref_buchi.bfs(a, x, allowed=region, reverse=True)
            for s in region:
                if dist[s] is not None and (s not in nearest or dist[s] < nearest[s][0]):
                    nearest[s] = (dist[s], _walk_to(a, parent, s, x), x)
        assert reach == nearest
        for s, (dist, path, anchor) in reach.items():
            assert (dist, anchor) == (old_reach[s][0], old_reach[s][2])
            assert len(path) == dist and _chains(a, path, s, anchor, region)
        bare = _without_legality(a)
        unfiltered, _reach, _shortest = ref.region_analysis(bare, sig)
        live = ref_task._live_anchors(bare, tm.silence_tolerant)
        assert anchors.keys() == {x for x, loop in unfiltered.items() if live(x, loop)}
        loops += len(anchors)
        routes += sum(dist > 0 for dist, _path, _anchor in reach.values())
        dead += len(unfiltered) - len(anchors)
    assert loops >= 500 and routes >= 500 and dead >= 100


def _covering_components(a, sig):
    """(members, anchor, serves) per region component whose internal edges
    meet every set; `serves` when one of them provides a service."""
    region = [not significant for significant in sig]
    full = (1 << a.sets) - 1
    found = []
    for members in strongly_connected_components(a, allowed=region)[1]:
        inside = [
            a.transitions[tid] for s in members for tid in a.out_transitions(s)
            if a.transitions[tid].dst in members
        ]
        if inside and reduce(or_, (t.mask for t in inside)) == full:
            serves = any(not isinstance(t.label, Silent) for t in inside)
            found.append((set(members), members[0], serves))
    return found


@pytest.mark.python_O
def test_covering_cycle_matches_full_search():
    # stopping at the goal pair must give exactly the loop of the search
    # that runs to exhaustion, with a service step inside the component and
    # without one; in a task product every loop meets L, so it provides
    # services or rests where the task tolerates silence
    rng = random.Random(79)
    kinds = {True: 0, False: 0}
    instances = []
    for _ in range(3000):
        tm, ga = _random_task_instance(rng)
        live = ref_task._live_anchors(tm.automaton, tm.silence_tolerant)
        instances.append((tm.automaton, significant_states(tm, ga), live))
    for i in range(1500):
        mp = random_motion_product(rng, max_states=12 if i < 750 else 30)
        instances.append((mp.automaton, significant_states(mp), None))
    for a, sig, live in instances:
        full = (1 << a.sets) - 1
        for members, anchor, serves in _covering_components(a, sig):
            loop = buchi._covering_cycle(a, full, members, anchor)
            assert loop == ref.covering_cycle(a, full, members, anchor)
            assert live is None or live(anchor, loop)
            kinds[serves] += 1
    assert kinds[True] >= 100 and kinds[False] >= 300


def _synthesize_both(scenario, monkeypatch):
    new = run_synthesis(scenario)
    with monkeypatch.context() as m:
        m.setattr(buchi, "least_segments", reference_segments)
        old = run_synthesis(scenario)
    return new, old


@pytest.mark.python_O
@pytest.mark.parametrize("name, several_classes", [
    ("three_robots", False),
    ("two_pairs", True),
    ("asymmetry", False),
])
def test_bundled_scenarios_match_reference(name, several_classes, monkeypatch):
    new, old = _synthesize_both(load_bundled(name), monkeypatch)
    assert (len(new.dependency_classes) > 1) == several_classes
    assert new.strategies == old.strategies
    assert new.raw_strategies == old.raw_strategies
    assert new.stats == old.stats
    for aid, art in new.artifacts.items():
        assert dump(art.reduced_motion.automaton) == dump(
            old.artifacts[aid].reduced_motion.automaton
        )
        assert dump(art.reduced_task.automaton) == dump(
            old.artifacts[aid].reduced_task.automaton
        )


@pytest.mark.python_O
def test_region_components_match_copied_subautomaton():
    rng = random.Random(13)
    nontrivial = 0
    for _ in range(1800):
        tm, ga = _random_task_instance(rng)
        a = tm.automaton
        region = {s for s in range(a.n_states) if rng.random() < 0.7}
        flags = [s in region for s in range(a.n_states)]
        comps = strongly_connected_components(a, allowed=flags)[1]
        assert comps == ref.region_components(a, region)
        nontrivial += sum(len(c) > 1 for c in comps)
    assert nontrivial >= 100


def _random_graph(rng, sets=0):
    """Up to 14 states, each with up to three out-edges; self-loops and
    parallel edges.  With `sets`, each edge meets each set with
    probability 0.3."""
    a = BuchiAutomaton(EXPLICIT_MODE, sets)
    n = rng.randint(1, 14)
    for s in range(n):
        a.add_state((s,))
    for s in range(n):
        for _ in range(rng.randint(0, 3)):
            dst = s if rng.random() < 0.15 else rng.randrange(n)
            mask = sum(1 << i for i in range(sets) if rng.random() < 0.3)
            a.add_transition(s, frozenset(), dst, mask)
    return a


def _reach(a, source, allowed):
    seen = {source}
    todo = [source]
    while todo:
        for tid in a.out_transitions(todo.pop()):
            w = a.transitions[tid].dst
            if w in allowed and w not in seen:
                seen.add(w)
                todo.append(w)
    return seen


@pytest.mark.python_O
def test_components_match_mutual_reachability():
    # each component is the set of states mutually reachable inside the
    # allowed ones, and closes after every component it reaches; `components`
    # over dense int nodes, here a shuffled numbering of the states, from one
    # root yields exactly the components reachable from it, the first of
    # them with no edge leaving it, and a caller that stops there has visited
    # only that component and the nodes that lead into it
    rng = random.Random(59)
    nontrivial = restricted = stopped_early = 0
    for i in range(2000):
        a = _random_graph(rng)
        everything = set(range(a.n_states))
        allowed = None if i % 2 else [rng.random() < 0.7 for _ in everything]
        inside = everything if allowed is None else {s for s in everything if allowed[s]}
        reach = {s: _reach(a, s, inside) for s in inside}
        comp, comps = strongly_connected_components(a, allowed)
        assert sorted(s for members in comps for s in members) == sorted(inside)
        assert all(comp[s] is None for s in everything - inside)
        for s in inside:
            assert set(comps[comp[s]]) == {w for w in reach[s] if s in reach[w]}
            assert comps[comp[s]] == sorted(comps[comp[s]])
        for t in a.transitions:
            if t.src in inside and t.dst in inside:
                assert comp[t.src] >= comp[t.dst]
        nontrivial += sum(len(members) > 1 for members in comps)
        restricted += allowed is not None and len(inside) < a.n_states

        root = rng.randrange(a.n_states)
        nodes = list(everything)
        rng.shuffle(nodes)  # state s is node nodes[s]
        states = {node: s for s, node in enumerate(nodes)}
        visited = []

        def successors(node):
            visited.append(states[node])
            return [nodes[a.transitions[tid].dst] for tid in a.out_transitions(states[node])]

        found = [
            {states[node] for node in members}
            for members in components([nodes[root]], successors, a.n_states)
        ]
        everywhere = {s: _reach(a, s, everything) for s in everything}
        assert set().union(*found) == everywhere[root]
        assert sorted(visited) == sorted(everywhere[root])
        for members in found:
            s = next(iter(members))
            assert members == {w for w in everywhere[s] if s in everywhere[w]}
        first = found[0]
        assert all(everywhere[s] <= first for s in first)

        visited.clear()
        members = next(components([nodes[root]], successors, a.n_states))
        assert {states[node] for node in members} == first
        assert first <= set(visited) and all(everywhere[s] & first for s in visited)
        stopped_early += len(visited) < len(everywhere[root])
    assert nontrivial >= 800 and restricted >= 500 and stopped_early >= 300


def _team_formulas(scenario):
    """Every agent formula of a team, and the team's conjunction: a large
    formula for the translator."""
    formulas = []
    conjunction = ltl.TRUE_F
    for aid in scenario.agent_ids:
        pair = (scenario.motion_formulas[aid], scenario.task_formulas[aid])
        formulas.extend(pair)
        conjunction = ltl.land(conjunction, ltl.land(*pair))
    return formulas + [conjunction]


def _benchmark_formulas():
    """The team formulas of every benchmark workload, and the conjunction of
    `wide_guards(12)`: 83,436 generalized edges, against 48,828 at k=9."""
    workloads = benchmark_workloads()
    formulas = []
    for name in sorted(workloads.WORKLOADS):
        formulas += _team_formulas(scenario_from_dict(workloads.generate(name)))
    formulas.append(_team_formulas(scenario_from_dict(workloads.wide_guards(12)))[-1])
    return formulas


def _guard_dump(a):
    """Guards as sorted literal lists: frozenset reprs vary between processes."""
    return (
        a.initial,
        a.sets,
        list(a.state_tags),
        [(t.src, sorted(t.label.pos), sorted(t.label.neg), t.dst, t.mask) for t in a.transitions],
    )


def _agree_on_words(first, second, atoms, rng, count):
    """Do two guard automata agree on `count` random words over `atoms`?"""
    for _ in range(count):
        word = random_word(rng, atoms, 4, 4)
        if check_lasso_membership(first, word) != check_lasso_membership(second, word):
            return False
    return True


def test_tableau_and_translation_match_node_by_node_expansion():
    # the nodes match the node-by-node expansion exactly once its ids are
    # renumbered by completion, 1, 2, ... after the initial node 0; the
    # translation, transition-marked, has at most the states of the
    # reference's counter automaton quotient and agrees with it on random
    # words
    rng = random.Random(23)
    formulas = _benchmark_formulas()
    formulas += [random_formula(rng, ATOMS, 4) for _ in range(800)]
    shared = smaller = 0
    for f in formulas:
        g = ltl.to_nnf(f)
        old_nodes = ref_tableau.tableau_nodes(g)
        new_nodes = _Tableau(g).nodes
        position = {0: 0} | {n.nid: i for i, n in enumerate(old_nodes, 1)}
        assert [(n.nid, sorted(n.incoming), n.old, n.next) for n in new_nodes] == [
            (i, sorted(map(position.get, n.incoming)), frozenset(n.old), frozenset(n.next))
            for i, n in enumerate(old_nodes, 1)
        ], str(f)
        new, old = translate(f), ref_tableau.translate(f, old_nodes)
        assert new.n_states <= old.n_states, str(f)
        atoms = sorted(ltl.atoms_of(f)) or ATOMS
        assert _agree_on_words(new, old, atoms, rng, 2), str(f)
        shared += len({n.next for n in new_nodes}) < len(new_nodes)
        smaller += new.n_states < old.n_states
    assert shared >= 100  # successor expansions are reused, not just made once
    assert smaller >= 100


@pytest.mark.python_O
def test_translation_agrees_with_oracle_and_reference():
    # 10,000 (formula, word) checks: the transition-marked translation
    # accepts a word exactly when the semantic evaluator holds on it and
    # the reference's counter automaton quotient accepts it, and it never
    # has more states than that quotient
    rng = random.Random(5)
    checks = smaller = accepted = 0
    for _ in range(2500):
        f = random_formula(rng, ATOMS, 4)
        new, old = translate(f), ref_tableau.translate(f)
        assert new.n_states <= old.n_states, str(f)
        smaller += new.n_states < old.n_states
        for _ in range(4):
            word = random_word(rng, ATOMS)
            verdict = ltl.eval_ltl(f, word)
            assert check_lasso_membership(new, word) == verdict, (str(f), word)
            assert check_lasso_membership(old, word) == verdict, (str(f), word)
            checks += 1
            accepted += verdict
    assert checks == 10_000 and smaller >= 800
    assert 4000 <= accepted <= 6500


def _random_guard_automaton(rng):
    """Guards drawn from a small pool, built anew per transition so that equal
    labels are usually distinct objects; self-loops and parallel edges."""
    pool = []
    for _ in range(rng.randint(1, 5)):
        pos = frozenset(x for x in ATOMS if rng.random() < 0.3)
        neg = frozenset(x for x in ATOMS if x not in pos and rng.random() < 0.3)
        pool.append((pos, neg))
    n = rng.randint(1, 14)
    a = BuchiAutomaton(GUARD_MODE)
    for s in range(n):
        a.add_state((s,) if rng.random() < 0.8 else None)
    for s in range(n):
        for _ in range(rng.randint(0, 5)):
            dst = s if rng.random() < 0.25 else rng.randrange(n)
            a.add_transition(s, Guard(*rng.choice(pool)), dst)
    a.initial = rng.randrange(n)
    return mark_entering(a, {s for s in range(n) if rng.random() < rng.choice((0.2, 0.5, 0.9))})


def _marked(a, sets):
    """`a` with every edge marked by the sets among `sets` its target lies
    in, or with one set holding every edge when there are none; parallel
    duplicates are dropped."""
    b = BuchiAutomaton(GUARD_MODE, max(len(sets), 1))
    for tag in a.state_tags:
        b.add_state(tag)
    b.initial = a.initial
    seen = set()
    for t in a.transitions:
        mask = sum(1 << i for i, members in enumerate(sets) if t.dst in members) if sets else 1
        if (t.src, t.label, t.dst, mask) not in seen:
            seen.add((t.src, t.label, t.dst, mask))
            b.add_transition(t.src, t.label, t.dst, mask)
    return b


def test_quotient_matches_reference_on_random_guard_automata():
    # with no acceptance sets one set holds every edge
    rng = random.Random(31)
    merged = 0
    for _ in range(800):
        a = _random_guard_automaton(rng)
        new = _marked_quotient(a, [])
        old = ref_tableau.quotient_bisimulation(_marked(a, []))
        assert _guard_dump(new) == _guard_dump(old)
        merged += new.n_states < a.n_states
        for t in a.transitions:
            assert hash(t.label) == hash((t.label.pos, t.label.neg))
    assert merged >= 200


def _random_generalized_automaton(rng):
    """A guard automaton with 0-4 acceptance sets.  Guards come from a small
    pool, as shared objects or built anew; self-loops, parallel edges and
    states the initial one does not reach occur."""
    pool = []
    for _ in range(rng.randint(1, 4)):
        pos = frozenset(x for x in ATOMS if rng.random() < 0.3)
        neg = frozenset(x for x in ATOMS if x not in pos and rng.random() < 0.3)
        pool.append(Guard(pos, neg))
    n = rng.randint(1, 12)
    a = BuchiAutomaton(GUARD_MODE)
    for s in range(n):
        a.add_state((s,) if rng.random() < 0.8 else None)
    for s in range(n):
        for _ in range(rng.randint(0, 5)):
            dst = s if rng.random() < 0.25 else rng.randrange(n)
            guard = rng.choice(pool)
            if rng.random() < 0.5:
                guard = Guard(guard.pos, guard.neg)
            a.add_transition(s, guard, dst)
            if rng.random() < 0.1:
                a.add_transition(s, guard, dst)
    a.initial = rng.randrange(n)
    density = rng.choice((0.3, 0.6, 0.9))
    sets = [
        {s for s in range(n) if rng.random() < density} for _ in range(rng.randint(0, 4))
    ]
    return a, sets


def test_marked_quotient_matches_marking_then_quotient():
    # the quotient of the marked automaton, built without building the
    # marked automaton, accepts what the counter construction accepts
    rng = random.Random(43)
    merged = kept = 0
    for _ in range(1500):
        a, sets = _random_generalized_automaton(rng)
        new = _marked_quotient(a, sets)
        marked = _marked(a, sets)
        old = ref_tableau.quotient_bisimulation(marked)
        assert _guard_dump(new) == _guard_dump(old)
        assert all(t.label is u.label for t, u in zip(new.transitions, old.transitions))
        assert _agree_on_words(new, ref_tableau._degeneralize(a, sets), ATOMS, rng, 3)
        if old is marked:
            kept += len(sets) > 0
        else:
            merged += len(sets) > 0
    assert merged >= 400 and kept >= 600


def test_formula_hash_is_the_dataclass_hash():
    rng = random.Random(37)
    checked = 0
    for _ in range(500):
        stack = [ltl.to_nnf(random_formula(rng, ATOMS, 5))]
        while stack:
            f = stack.pop()
            assert hash(f) == hash((f.kind, f.children, f.name))
            stack.extend(f.children)
            checked += 1
    assert checked >= 3000


def _moves(gp):
    """Per component tuple, its moves as (label, target tuple, dependency
    set, back reference, acceptance mask)."""
    a = gp.automaton
    moves = {qs: [] for qs in a.state_tags}
    for tid, t in enumerate(a.transitions):
        b = a.tr_back[tid]
        back = (b[0], b[1], dict(b[2])) if b[0] == "joint" else b
        moves[a.state_tags[t.src]].append(
            (t.label, a.state_tags[t.dst], a.tr_dep[tid], back, t.mask)
        )
    return gp.agent_ids, a.state_tags[a.initial], moves


def _product_moves(gp):
    """`_moves` of the optimized product, whose silent moves share one label
    and one dependency set per agent."""
    a = gp.automaton
    silent = {
        (t.label.agent, id(t.label), id(a.tr_dep[tid]))
        for tid, t in enumerate(a.transitions)
        if isinstance(t.label, Silent)
    }
    assert len(silent) == len({aid for aid, _, _ in silent})
    return _moves(gp)


def _reference_moves(products):
    """`_moves` of the unmemoized reference product."""
    return _moves(ref_gp.build_global_product(products))


def _reduced_products(result):
    """Every agent's reduced task-and-motion product, for one global product
    over the whole team."""
    return [result.artifacts[aid].reduced_task for aid in sorted(result.artifacts)]


@pytest.mark.python_O
def test_global_product_matches_per_state_joint_moves(monkeypatch):
    compared = []
    inside = []
    wholes = []
    chains = []
    limit = None

    def both(products):
        new = globalprod.build_global_product(products)
        assert_no_twin_moves(new)
        if limit is None or new.automaton.n_states <= limit:
            assert _product_moves(new) == _reference_moves(products)
            inside.append(assert_legal_as_before(new))
            compared.append(new)
        return new

    monkeypatch.setattr(pipeline, "build_global_product", both)
    monkeypatch.setattr(pipeline, "synthesize", lambda gp: {})
    # the bundled teams are compared whatever their size (two_pairs per class
    # and, built directly from all four reduced products, as one product of
    # one state, the product of its two classes' one), and so is the
    # response chain, one class of m agents with 2^(m-1) tuples; of the
    # random teams, only products up to 1,000 tuples are compared, as a
    # reference build takes seconds at thousands
    two_pairs = load_bundled("two_pairs")
    cases = [(load_bundled("three_robots"), None), (two_pairs, None)]
    cases.append((load_bundled("asymmetry"), None))
    cases += [(response_chain(m), None) for m in range(3, 7)]
    rng = random.Random(29)
    cases += [(random_scenario(rng), 1000) for _ in range(40)]
    for scenario, limit in cases:
        try:
            result = run_synthesis(scenario)
        except EmptyLanguageError:
            continue
        if scenario is two_pairs:
            whole = both(_reduced_products(result))
            sizes = [gp.automaton.n_states for _group, gp in result.global_products]
            assert whole.automaton.n_states == sizes[0] * sizes[1] == 1
            wholes.append(whole)
        if scenario.name.startswith("response-chain"):
            m = len(scenario.agents)
            assert [gp.automaton.n_states for _g, gp in result.global_products] == [2 ** (m - 1)]
            chains.append(m)
    assert len(wholes) == 1 and len(compared) >= 40 and chains == [3, 4, 5, 6]
    assert sum(inside) >= 1000


def _random_wide_team(rng):
    """Three or four grid agents.  Agent 1's task guard is a disjunction or
    conjunction over 2-4 services owned by agents 2 and 3, so coalitions of
    three occur, and the partners' guards may in turn need agent 1."""
    from syncplan.agents import GridSpec, build_grid_agent

    n = rng.choice([3, 3, 3, 4])
    agents = []
    services = {}
    for aid in range(1, n + 1):
        w, h = rng.choice([(1, 1), (2, 1)]) if aid == 1 else (1, 1)
        services[aid] = [f"s{aid}{i}" for i in range(1 if aid in (1, 4) else rng.choice([1, 2]))]
        cells = tuple(
            ((rng.randrange(w), rng.randrange(h)), frozenset([s])) for s in services[aid]
        )
        agents.append(build_grid_agent(GridSpec(aid, w, h, (0, 0), service_cells=cells)))
    picked = [rng.choice(services[2]), rng.choice(services[3])]
    rest = [s for s in services[2] + services[3] if s not in picked]
    picked += rng.sample(rest, rng.randint(0, len(rest)))
    guard = rng.choice([" || ", " && "]).join(picked)
    task = {
        1: rng.choice(
            [
                f"G F (s10 && ({guard}))",
                f"F (s10 && ({guard}))",
                f"G (!s10 || ({guard}))",
                f"G F ({guard})",
            ]
        )
    }
    for aid in range(2, n + 1):
        own = services[aid][0]
        task[aid] = rng.choice(["true", f"G F {own}", f"G F ({own} && s10)", f"G (!{own} || s10)"])
    return make_scenario(agents, {aid: "true" for aid in task}, task, name="wide")


def _joint_offer_team(rng):
    """Agent 2 offers x1 and x2 only together, by one action, and x3 by
    another, so some foreign parts of agent 1's guards cannot be provided,
    and the steps that remain may not strip to agent 1's own part."""
    w2 = rng.choice([1, 2, 3])
    s10 = (((1, 0), frozenset(["s10"])),)
    xs = (((w2 - 1, 0), frozenset(["x1", "x2"])), ((0, 0), frozenset(["x3"])))
    agents = [
        build_grid_agent(GridSpec(1, 2, 1, (0, 0), service_cells=s10)),
        build_grid_agent(GridSpec(2, w2, 1, (0, 0), service_cells=xs)),
    ]
    guard = rng.choice(["x1 || x2", "x1 || x2", "x1 || x3", "x1 && x3", "x1 && !x2", "x1 && x2"])
    task = {
        1: rng.choice([f"G F (s10 && ({guard}))", f"F (s10 && ({guard}))", f"G (!s10 || ({guard}))"]),
        2: rng.choice(["true", "G F x3", "G F (x1 && x2)"]),
    }
    return make_scenario(agents, {1: "true", 2: "true"}, task, name="joint")


def _blocked_partner_team(rng):
    """Agent 1's task needs agent 2's service s20, a label agent 2 offers,
    but agent 2's motion formula `G !B` keeps it out of room B, the one cell
    holding s20.  So the per-agent stages pass and the team fails in the
    global product.  Half the teams add an agent 3 with a task of its own, a
    second dependency class."""
    w, h = rng.choice([(2, 1), (2, 2), (3, 2)])
    cell = rng.choice([(x, y) for x in range(w) for y in range(h) if (x, y) != (0, 0)])
    s10 = (((0, 0), frozenset(["s10"])),)
    s20 = ((cell, frozenset(["s20"])),)
    agents = [
        build_grid_agent(GridSpec(1, rng.choice([1, 2]), 1, (0, 0), service_cells=s10)),
        build_grid_agent(GridSpec(2, w, h, (0, 0), rooms={cell: "B"}, service_cells=s20)),
    ]
    motion = {1: "true", 2: "G !B"}
    task = {
        1: rng.choice(["G F (s10 && s20)", "F (s10 && s20)", "G (!s10 || s20)", "F s20"]),
        2: rng.choice(["true", "s20 || !s20"]),
    }
    if rng.random() < 0.5:
        s30 = (((0, 0), frozenset(["s30"])),)
        agents.append(build_grid_agent(GridSpec(3, 2, 1, (0, 0), service_cells=s30)))
        motion[3], task[3] = "true", "G F s30"
    return make_scenario(agents, motion, task, name="blocked")


@pytest.mark.python_O
def test_global_product_matches_reference_on_wide_guards(monkeypatch):
    # multi-service foreign guards: partnerless moves that expect a foreign
    # service, coalitions of three, and joint offers, where a partner's one
    # action provides more than the member's guard mentions; teams are
    # compared while n + 1 times their tuples stay at 1,500
    compared = []
    inside = []

    def both(products):
        new = globalprod.build_global_product(products)
        assert_no_twin_moves(new)
        if new.automaton.n_states * (len(products) + 1) <= 1500:
            assert _product_moves(new) == _reference_moves(products)
            inside.append(assert_legal_as_before(new))
            compared.append(new)
        return new

    monkeypatch.setattr(pipeline, "build_global_product", both)
    monkeypatch.setattr(pipeline, "synthesize", lambda gp: {})
    workloads = benchmark_workloads()
    cases = [scenario_from_dict(workloads.wide_guards(k)) for k in (3, 5)]
    rng = random.Random(41)
    cases += [_random_wide_team(rng) for _ in range(36)]
    rng = random.Random(7)
    cases += [_joint_offer_team(rng) for _ in range(200)]
    joint = 0
    for scenario in cases:
        before = len(compared)
        try:
            run_synthesis(scenario)
        except EmptyLanguageError:
            continue
        if scenario.name == "joint":
            joint += len(compared) - before
    trios = [
        gp
        for gp in compared
        if any(len(dep) >= 3 for dep in gp.automaton.tr_dep.values())
    ]
    assert len(compared) - joint >= 32 and len(trios) >= 10 and joint >= 200
    assert sum(inside) >= 1000


def _lasso_or_failure(search, gp, *marks):
    try:
        return search(gp, *marks)
    except EmptyLanguageError as e:
        return e.stage, e.agent_id


def _pair_sum(costs, tids):
    return (sum(costs[tid][0] for tid in tids), sum(costs[tid][1] for tid in tids))


def _plus(x, y):
    return (x[0] + y[0], x[1] + y[1])


def _encoded(pair, weight):
    """A (synchronizing agents, steps) cost as one integer, synchronizations
    dominating."""
    return pair[0] * weight + pair[1]


def _assert_least_cost_legs(gp, marks, lasso):
    """The lasso chains from the initial state, closes, stays in one
    component and meets every set.  Its prefix costs the least of any path
    into a component whose internal edges meet every set.  Each leg of the
    cycle ends with the edge whose least-cost leg, that edge included, costs
    least per set still needed that the edge meets (then meets the most
    such sets, then has the smallest id), and costs exactly that least
    cost; the sets still needed drop by every edge of the leg.  The rest of
    the cycle is a least path back."""
    a = gp.automaton
    everything = (1 << a.sets) - 1
    cur = a.initial
    for tid in lasso.prefix + lasso.cycle:
        assert a.transitions[tid].src == cur
        cur = a.transitions[tid].dst
    entry = a.transitions[lasso.prefix[-1]].dst if lasso.prefix else a.initial
    assert lasso.cycle and cur == entry
    assert reduce(or_, (marks[tid] for tid in lasso.cycle)) == everything

    costs = ref_gp.move_costs(gp)
    comp, comps = strongly_connected_components(a)
    members = set(comps[comp[entry]])
    assert all(a.transitions[tid].dst in members for tid in lasso.cycle)
    covered = {}
    for tid, t in enumerate(a.transitions):
        if comp[t.src] == comp[t.dst]:
            covered[comp[t.src]] = covered.get(comp[t.src], 0) | marks[tid]
    dist = ref_gp.least_costs(a, a.initial, costs)
    into = [d for s, d in dist.items() if covered.get(comp[s]) == everything]
    assert _pair_sum(costs, lasso.prefix) == dist[entry] == min(into)

    internal = [tid for tid, t in enumerate(a.transitions) if t.src in members and t.dst in members]
    weight = a.n_states * max(steps for _syncs, steps in costs) + 1
    need, cur, start = everything, entry, 0
    while need:
        dist = ref_gp.least_costs(a, cur, costs, members)
        met = {t: (marks[t] & need).bit_count() for t in internal}
        _ratio, _most, chosen = min(
            (
                Fraction(_encoded(_plus(dist[a.transitions[t].src], costs[t]), weight), met[t]),
                -met[t],
                t,
            )
            for t in internal
            if met[t] and a.transitions[t].src in dist
        )
        end = lasso.cycle.index(chosen, start)
        leg = lasso.cycle[start:end + 1]
        assert _pair_sum(costs, leg) == _plus(dist[a.transitions[chosen].src], costs[chosen])
        need &= ~reduce(or_, (marks[tid] for tid in leg))
        cur, start = a.transitions[chosen].dst, end + 1
    dist = ref_gp.least_costs(a, cur, costs, members)
    assert _pair_sum(costs, lasso.cycle[start:]) == dist[entry]


def _certify(scenario, strategies):
    check_strategies_fit(scenario, strategies)
    for seed in (0, 1):
        sim = simulate(scenario, strategies, SimulationConfig(seed=seed))
        assert not [issue for b in sim.behaviors.values() for issue in check_timing(b)]
        verdicts = check_local_satisfaction(scenario, strategies, sim)
        assert all(v.motion and v.task and v.consistent for v in verdicts.values())


@pytest.mark.python_O
def test_accepting_lasso_matches_reference(monkeypatch):
    # the marks every global product's transitions carry, against those read
    # off each move's back reference, and its failures (stage and agent),
    # against the full-scan search; for the products the synthesis builds,
    # and, for teams of several dependency classes, the whole-team product
    # built directly from the same reduced products; every lasso found has
    # least-cost legs, and every plan certifies
    monkeypatch.setattr(pipeline, "synthesize", lambda gp: {})
    workloads = benchmark_workloads()
    cases = [load_bundled(name) for name in ("three_robots", "two_pairs", "asymmetry")]
    cases += [
        scenario_from_dict(workloads.generate(name))
        for name in ("three_robots_13x13", "wide_guards")
    ]
    rng = random.Random(43)
    cases += [random_scenario(rng) for _ in range(40)]
    cases += [_random_wide_team(rng) for _ in range(20)]
    cases += [_blocked_partner_team(rng) for _ in range(10)]
    compared = []
    certified = 0
    for scenario in cases:
        try:
            result = run_synthesis(scenario)
        except EmptyLanguageError:
            continue
        classes = [gp for _group, gp in result.global_products]
        products = list(classes)
        if len(products) > 1:
            products.append(globalprod.build_global_product(_reduced_products(result)))
        for gp in products:
            marks = ref_gp.acceptance_marks(gp)
            assert [t.mask for t in gp.automaton.transitions] == marks
            assert_legal_as_before(gp)
            assert_no_twin_moves(gp)
            found = _lasso_or_failure(globalprod._accepting_lasso, gp)
            old = _lasso_or_failure(ref_gp.accepting_lasso, gp, marks)
            assert isinstance(found, tuple) == isinstance(old, tuple)
            if isinstance(found, tuple):
                assert found == old
            else:
                _assert_least_cost_legs(gp, marks, found)
            compared.append(found)
        if all(not isinstance(compared[-1 - k], tuple) for k in range(len(products))):
            raw = {}
            for gp in classes:
                raw.update(globalprod.synthesize(gp))
            _certify(scenario, globalprod.minimize_synchronizations(raw, scenario))
            certified += 1
    lassos = [found for found in compared if not isinstance(found, tuple)]
    assert len(lassos) >= 55 and len(compared) - len(lassos) >= 5 and certified >= 40
    assert sum(len(lasso.cycle) > 1 for lasso in lassos) >= 40
    assert sum(len(lasso.prefix) > 0 for lasso in lassos) >= 40


def _verdict(run):
    """"solved", the stage of an empty language, or "unexpandable"."""
    try:
        run()
    except EmptyLanguageError as e:
        return e.stage
    except SynthesisError:
        return "unexpandable"
    return "solved"


@pytest.mark.python_O
def test_class_products_agree_with_whole_team_product(monkeypatch):
    # the synthesis, one global product per dependency class, against one
    # product over the whole team built directly from the same reduced
    # products: both solve, or both fail at the same stage.  The agent a
    # failure names may differ.  Per class, it is the first failing class's
    # first uncovered acceptance set.  The whole-team product's components
    # each combine one component of every class, so the one covering the
    # most sets, and the first set it misses, need not be that class's.
    rng = random.Random(53)
    teams = [random_scenario(rng) for _ in range(60)]
    teams += [_random_wide_team(rng) for _ in range(20)]
    teams += [_blocked_partner_team(rng) for _ in range(10)]
    verdicts = []  # (verdict, several classes?) past the per-agent stages
    for scenario in teams:
        per_class = _verdict(lambda: run_synthesis(scenario))
        with monkeypatch.context() as m:
            m.setattr(pipeline, "synthesize", lambda gp: {})
            try:
                result = run_synthesis(scenario)
            except EmptyLanguageError as e:
                # a stage before the global product: the same either way
                assert per_class == e.stage and scenario.name != "blocked"
                continue
        if scenario.name == "blocked":
            # agent 1's joint s20 steps need agent 2, and past the per-agent
            # stages every team whose task demands s20 fails
            deps = result.artifacts[1].task_product.automaton.tr_dep
            assert frozenset({1, 2}) in deps.values()
            assert (per_class == "solved") == (scenario.task_texts[1] == "G (!s10 || s20)")
        whole = globalprod.build_global_product(_reduced_products(result))
        assert _verdict(lambda: globalprod.synthesize(whole)) == per_class
        verdicts.append((per_class, len(result.dependency_classes) > 1))
    failing = [several for verdict, several in verdicts if verdict != "solved"]
    assert len(verdicts) >= 70 and sum(several for _v, several in verdicts) >= 15
    assert len(failing) >= 5 and sum(failing) >= 2


def _random_explicit_automaton(rng):
    """Explicit labels over a few service sets and two silent symbols;
    self-loops and parallel edges."""
    pool = [frozenset(), frozenset("a"), frozenset("ab"), Silent(1), Silent(2)]
    n = rng.randint(1, 10)
    a = BuchiAutomaton(EXPLICIT_MODE)
    for s in range(n):
        a.add_state((s,))
    for s in range(n):
        for _ in range(rng.randint(0, 4)):
            dst = s if rng.random() < 0.25 else rng.randrange(n)
            a.add_transition(s, rng.choice(pool), dst)
    a.initial = rng.randrange(n)
    mark_entering(a, {s for s in range(n) if rng.random() < rng.choice((0.2, 0.5))})
    return a, pool


@pytest.mark.python_O
def test_lasso_membership_matches_explicit_product():
    rng = random.Random(47)
    verdicts = []
    for i in range(3000):
        if i % 3 == 2:
            a, pool = _random_explicit_automaton(rng)
            words = [
                ltl.UltimatelyPeriodicWord(
                    tuple(rng.choice(pool) for _ in range(rng.randrange(0, 4))),
                    tuple(rng.choice(pool) for _ in range(rng.randrange(1, 4))),
                )
                for _ in range(4)
            ]
        else:
            if i % 3 == 0:
                a = translate(random_formula(rng, ATOMS, 3))
            else:
                a = _random_guard_automaton(rng)
            words = [random_word(rng, ATOMS, 4, 4) for _ in range(4)]
        for word in words:
            verdict = check_lasso_membership(a, word)
            assert verdict == ref_buchi.check_lasso_membership(a, word)
            verdicts.append(verdict)
        if a.mode == GUARD_MODE:
            # a silent symbol is refused even where no run reads it
            silent = ltl.UltimatelyPeriodicWord(words[0].prefix, words[0].period + (Silent(1),))
            with pytest.raises(AlphabetMismatchError):
                check_lasso_membership(a, silent)
    assert verdicts.count(True) >= 2000 and verdicts.count(False) >= 2000




def _good_by_cycle_search(a):
    """Is there a reachable state with a cycle through it meeting every set?
    Plain reachability over (state, sets met) pairs, no components."""
    full = (1 << a.sets) - 1
    reach = _reach(a, a.initial, set(range(a.n_states)))
    for q in reach:
        seen = {(q, 0)}
        todo = [(q, 0)]
        while todo:
            x, m = todo.pop()
            for tid in a.out_transitions(x):
                t = a.transitions[tid]
                nxt = (t.dst, m | t.mask)
                if nxt == (q, full):
                    return True
                if nxt not in seen:
                    seen.add(nxt)
                    todo.append(nxt)
    return False


@pytest.mark.python_O
def test_mark_coverage_matches_cycle_search():
    # emptiness on transition marks: a run must meet every set infinitely
    # often, which some cycle through a reachable state does exactly when a
    # component's internal edges meet every set; pruning keeps the language
    # and only states that still reach such a cycle
    rng = random.Random(61)
    verdicts = []
    for _ in range(3000):
        a = _random_graph(rng, sets=rng.choice((1, 2, 3)))
        a.initial = rng.randrange(a.n_states)
        nonempty = _good_by_cycle_search(a)
        assert language_empty(a) == (not nonempty)
        assert (ref_buchi.accepting_lasso(a) is None) == (not nonempty)
        pruned = buchi.prune_non_coaccessible(a)
        assert language_empty(pruned) == (not nonempty)
        for s in range(pruned.n_states):
            if s != pruned.initial:
                moved = BuchiAutomaton(EXPLICIT_MODE, pruned.sets)
                moved.state_tags, moved.transitions = pruned.state_tags, pruned.transitions
                moved.initial = s
                assert _good_by_cycle_search(moved)
        verdicts.append(nonempty)
    assert verdicts.count(True) >= 600 and verdicts.count(False) >= 600


def _assert_one_lower_state_each(lower, reduced, significant):
    """Every state of `reduced` but the absorbing one is tagged with one
    significant state of `lower`, no two alike.  Every other edge has one
    witness, which runs in `lower` from its source's state to its target's
    (to an anchor, for the absorbing state).  Each variant of the absorbing
    loop runs from its anchor back to it.  Returns the number of edges,
    loop variants and loops with several variants checked."""
    tags = reduced.state_tags
    absorbing = {s for s, tag in enumerate(tags) if not significant[tag[0]]}
    assert len(absorbing) <= 1
    kept = [tag for s, tag in enumerate(tags) if s not in absorbing]
    assert all(len(tag) == 1 and significant[tag[0]] for tag in kept)
    assert len(set(kept)) == len(kept)
    everything = set(range(lower.n_states))
    edges = variants = shared = 0
    for tid, t in enumerate(reduced.transitions):
        witnesses = reduced.tr_witness[tid]
        if t.src in absorbing:
            assert t.dst == t.src and witnesses
            for w in witnesses:
                assert w.src == w.dst and w.src in tags[t.src]
                assert w.steps and _chains(lower, w.steps, w.src, w.dst, everything)
            variants += len(witnesses)
            shared += len(witnesses) > 1
            continue
        (w,) = witnesses
        assert w.src == tags[t.src][0]
        assert w.dst in tags[t.dst] if t.dst in absorbing else w.dst == tags[t.dst][0]
        assert w.steps and _chains(lower, w.steps, w.src, w.dst, everything)
        edges += 1
    return edges, variants, shared


@pytest.mark.python_O
def test_reduced_states_stand_for_one_lower_state(monkeypatch):
    # the invariant that lets the synthesis replay each projected cycle
    # once, at both witness levels: the reduced motion automata of random
    # motion products and of random teams, and the teams' reduced task
    # automata
    rng = random.Random(67)
    motion_counts, task_counts = [0, 0, 0], [0, 0, 0]

    def add(counts, lower, reduced, significant):
        found = _assert_one_lower_state_each(lower.automaton, reduced.automaton, significant)
        counts[:] = map(sum, zip(counts, found))

    for i in range(1200):
        mp = random_motion_product(rng, max_states=12 if i < 600 else 30)
        add(motion_counts, mp, motion.reduce(mp), significant_states(mp))
    monkeypatch.setattr(pipeline, "synthesize", lambda gp: {})
    teams = 0
    for _ in range(250):
        try:
            result = run_synthesis(random_scenario(rng))
        except EmptyLanguageError:
            continue
        teams += 1
        ga = result.globally_assisting
        for art in result.artifacts.values():
            mp, tm = art.motion_product, art.task_product
            add(motion_counts, mp, art.reduced_motion, significant_states(mp))
            add(task_counts, tm, art.reduced_task, significant_states(tm, ga))
    edges, variants, shared = motion_counts
    assert edges >= 15000 and variants >= 400 and shared >= 20
    edges, variants, shared = task_counts
    assert teams >= 140 and edges >= 3000 and variants >= 200 and shared >= 10


@pytest.mark.python_O
def test_chain_team_reduces_to_one_state_per_pair():
    # five agents in one dependency class: each reduced task automaton keeps
    # one state per significant (motion, task) pair, plus at most the
    # absorbing state, so the global product stays within 3^5 tuples; the
    # plan certifies
    scenario = chain(5)
    result = run_synthesis(scenario)
    assert result.dependency_classes == [frozenset(range(1, 6))]
    for aid, art in result.artifacts.items():
        reduced = art.reduced_task.automaton
        significant = significant_states(art.task_product, result.globally_assisting)
        tm = art.task_product.automaton
        assert len(set(tm.state_tags)) == tm.n_states  # states are distinct pairs
        kept = [tag for tag in reduced.state_tags if all(significant[s] for s in tag)]
        absorbing = reduced.n_states - len(kept)
        assert absorbing <= 1
        assert len({s for tag in kept for s in tag}) == sum(len(tag) for tag in kept)
        assert reduced.n_states <= sum(significant) + 1
    ((_group, gp),) = result.global_products
    assert gp.automaton.n_states <= 3 ** 5
    _certify(scenario, result.strategies)


@pytest.mark.python_O
def test_random_teams_keep_their_verdicts():
    # the first 150 draws from Random(0) and Random(1): every team but one
    # solves, and every plan certifies; draw 16 from Random(0) has no
    # accepting run at agent 3's task stage
    failures = {}
    solved = 0
    for seed in (0, 1):
        rng = random.Random(seed)
        for draw in range(150):
            scenario = random_scenario(rng)
            try:
                result = run_synthesis(scenario)
            except EmptyLanguageError as e:
                failures[(seed, draw)] = (e.stage, e.agent_id)
                continue
            _certify(scenario, result.strategies)
            solved += 1
    assert failures == {(0, 16): ("task", 3)} and solved == 299


def _synthesis_outcome(scenario):
    """(result, None) of a synthesis, or (None, (stage, agent)) of its failure."""
    try:
        return run_synthesis(scenario), None
    except EmptyLanguageError as e:
        return None, (e.stage, e.agent_id)


@pytest.mark.python_O
def test_twin_free_motion_products_keep_team_results(monkeypatch):
    # against motion products built with their dominated twins (the
    # reference builder): a team none of whose motion products has a twin
    # gets the same strategies and stats; any other keeps its verdict, and
    # its plans certify, changed or not
    workloads = benchmark_workloads()
    cases = [load_bundled(name) for name in ("three_robots", "two_pairs", "asymmetry")]
    cases += [scenario_from_dict(workloads.generate(name)) for name in sorted(workloads.WORKLOADS)]
    cases += [scenario_from_dict(workloads.three_robots(n)) for n in (20, 30, 50)]
    for seed in range(4):
        rng = random.Random(seed)
        cases += [random_scenario(rng) for _ in range(150)]
    twin_free = twins = changed = 0
    for scenario in cases:
        built = []

        def reference_builder(agent, spec):
            built.append(ref_motion.build_motion_product(agent, spec))
            return built[-1]

        new, failure = _synthesis_outcome(scenario)
        with monkeypatch.context() as m:
            m.setattr(motion, "build_motion_product", reference_builder)
            old, old_failure = _synthesis_outcome(scenario)
        assert failure == old_failure
        if new is None:
            continue
        same = (new.strategies, new.raw_strategies, new.stats) == (
            old.strategies, old.raw_strategies, old.stats
        )
        if not any(_twins(mp.automaton) for mp in built):
            assert same
            twin_free += 1
        else:
            _certify(scenario, new.strategies)
            twins += 1
            changed += not same
    assert twin_free >= 200 and twins >= 50 and changed >= 1


# Per family of draws, the failures (stage, agent) recorded while L_i was
# still set by the global product; every other draw solved
LEGALITY_PIN = {
    "random": {16: ("task", 3)},
    "joint": dict.fromkeys((
        0, 2, 3, 4, 5, 8, 9, 10, 15, 16, 17, 19, 21, 22, 23, 27, 32, 33, 35, 36, 40,
        42, 43, 48, 50, 51, 52, 54, 55, 57, 58, 59, 67, 68, 70, 71, 74, 75, 83, 84, 87,
        89, 90, 91, 95, 98,
    ), ("task", 1)),
    "blocked": dict.fromkeys((*range(17), 19), ("task", 1)),
}


@pytest.mark.python_O
def test_word_legality_in_the_task_product_keeps_verdicts():
    # with L marked once in the task product, each draw solves or fails at
    # the stage and agent it did when the global product set L_i; every
    # plan certifies, and no global product holds twin moves
    families = (
        ("random", random.Random(0), random_scenario, 150),
        ("joint", random.Random(7), _joint_offer_team, 100),
        ("blocked", random.Random(53), _blocked_partner_team, 20),
    )
    for name, rng, draw, count in families:
        failures = {}
        for i in range(count):
            scenario = draw(rng)
            result, failure = _synthesis_outcome(scenario)
            if failure is not None:
                failures[i] = failure
                continue
            for _group, gp in result.global_products:
                assert_no_twin_moves(gp)
            _certify(scenario, result.strategies)
        assert failures == LEGALITY_PIN[name]


def _foreign_bit_team_cases():
    """300 random teams, 100 random wide-guard teams, 60 teams offering two
    services only together, 30 teams whose partner is kept away from the
    service agent 1 needs, the bundled scenarios, the three benchmark
    workloads and wide_guards(k) for k = 10..12."""
    workloads = benchmark_workloads()
    cases = []
    for seed in (0, 1, 2):
        rng = random.Random(seed)
        cases += [random_scenario(rng) for _ in range(100)]
    rng = random.Random(53)
    cases += [_random_wide_team(rng) for _ in range(100)]
    cases += [_joint_offer_team(rng) for _ in range(60)]
    rng = random.Random(83)
    cases += [_blocked_partner_team(rng) for _ in range(30)]
    cases += [load_bundled(name) for name in ("three_robots", "two_pairs", "asymmetry")]
    cases += [scenario_from_dict(workloads.generate(name)) for name in sorted(workloads.WORKLOADS)]
    cases += [scenario_from_dict(workloads.wide_guards(k)) for k in (10, 11, 12)]
    return cases


def _order_sensitive_instance():
    """A task product whose strip test depends on the order services are
    peeled in.  One task state loops on six cubes over x0, x1, x2, so the
    {pick, x0, x1, x2} step has every one-service-less variant (its
    coalition is the agent alone), and peeling x0 first leaves {x1, x2},
    from which neither x1 nor x2 can go, while peeling x2 first strips the
    label bare.  Each x is offered alone by its own owner, so every foreign
    part can be provided and is spelled out."""
    agent = explicit_agent(1, ["P"], {"pick": ["pick"]}, [(0, "pick", 0)])
    rm = motion.reduce(motion.build_motion_product(agent, translate(ltl.TRUE_F)))
    spec = BuchiAutomaton(GUARD_MODE, 0)
    spec.add_state()
    xs = ("x0", "x1", "x2")
    for kept in ("x0 x1 x2", "x1 x2", "x0 x2", "x0 x1", "x0", ""):
        pos = frozenset(kept.split())
        spec.add_transition(0, Guard(pos, frozenset(xs) - pos), 0)
    owner = {"pick": 1, "x0": 2, "x1": 3, "x2": 4}
    offers = singleton_offers(owner)
    tm = taskprod.build_task_motion_product(rm, spec, 1, agent.services, owner, offers)
    taskprod.compute_dep(tm)
    return tm, taskprod.compute_globally_assisting([tm])


# the bundled scenarios and the workloads whose task products are the 2^k ones
SPELLED_OUT = {"three-robots", "two-pairs", "asymmetry", "three-robots-13x13"}


# owners and offers for x and y in `_random_task_instance`'s products besides
# its own (each alone, by distinct owners): only together, never together,
# and y never
OFFER_TABLES = (
    ({"mine": 1, "x": 2, "y": 2}, {2: {frozenset({"x", "y"})}}),
    ({"mine": 1, "x": 2, "y": 2}, {2: {frozenset({"x"}), frozenset({"y"})}}),
    ({"mine": 1, "x": 2, "y": 3}, {2: {frozenset({"x"})}, 3: set()}),
)


def _providable_parts(tm, offers):
    """The foreign parts the team can provide, as frozensets: one offered
    service set (or none) per owner of a foreign service, united."""
    foreign = tm.foreign_syntactic
    choices = [
        [frozenset()] + [label & foreign for label in offers[owner]]
        for owner in sorted({tm.service_owner[s] for s in foreign})
    ]
    return {frozenset().union(*pick) for pick in product(*choices)}


def _tagged(a, tids):
    """(source tag, label, target tag, mask) -> transition id, over `tids`."""
    return {
        (a.state_tags[a.transitions[tid].src], a.transitions[tid].label,
         a.state_tags[a.transitions[tid].dst], a.transitions[tid].mask): tid
        for tid in tids
    }


def _restricted(a, own, providable):
    """The transitions of the 2^k product `a` that are silent or whose
    foreign part is providable, among the states they reach from the
    initial state, keyed by `_tagged`."""
    keep = {
        tid for tid, t in enumerate(a.transitions)
        if isinstance(t.label, Silent) or t.label - own in providable
    }
    reached, stack = {a.initial}, [a.initial]
    while stack:
        src = stack.pop()
        for tid in a.out_transitions(src):
            dst = a.transitions[tid].dst
            if tid in keep and dst not in reached:
                reached.add(dst)
                stack.append(dst)
    return _tagged(a, [tid for tid in keep if a.transitions[tid].src in reached])


@pytest.mark.python_O
def test_foreign_bit_index_matches_frozenset_probes(monkeypatch):
    # the product built over the providable foreign bit sets, against
    # reference_taskprod's 2^k product cut down to the providable foreign
    # parts and the states they reach, compared by state tags; each kept
    # transition's coalition, planning label and assisting verdict per
    # service, settled while the product is built, against the frozenset
    # probes on the 2^k product.  Where every foreign part is providable, the product
    # is the 2^k one transition for transition, ids included, and so is its
    # reduced automaton with witnesses.  Whole teams also run with the 2^k
    # product patched into the pipeline: the same verdict and message, the
    # same strategies, and globally assisting sets and dependency classes
    # that can only shrink; where they do not, the same global products and
    # stats, and where no task product changes, the same reduced products.
    # The planning labels are read off every transition through the labels
    # `fold` gets
    labels = []

    def capturing_fold(a, silent, planning):
        labels.append(list(planning))
        return buchi.fold(a, silent, planning)

    monkeypatch.setattr(taskprod, "fold", capturing_fold)
    counts = {"coalitions": 0, "stripped": 0, "kept": 0, "dropped": 0}

    def compare_agent(tm, ga, planning, offers):
        a = tm.automaton
        ref = ref_task.build_task_motion_product(
            tm.rm, tm.task_spec, tm.agent_id, tm.own_services, tm.service_owner, offers
        )
        ref_task.compute_dep(ref)
        ref_planning = ref_task.planning_labels(ref, ga)
        keys = ref_task.joint_keys(ref)
        b = ref.automaton
        new = _tagged(a, range(len(a.transitions)))
        kept = _restricted(b, tm.own_services, _providable_parts(tm, offers))
        assert len(new) == len(a.transitions) and new.keys() == kept.keys()
        reached = {b.state_tags[b.transitions[tid].dst] for tid in kept.values()}
        assert set(a.state_tags) == reached | {b.state_tags[b.initial]}
        counts["dropped"] += len(b.transitions) - len(kept)
        for key, tid in new.items():
            rid = kept[key]
            t = a.transitions[tid]
            assert a.tr_back[tid] == b.tr_back[rid]
            assert a.tr_dep[tid] == b.tr_dep[rid] and planning[tid] == ref_planning[rid]
            counts["coalitions"] += len(a.tr_dep[tid]) > 1
            if isinstance(t.label, Silent):
                continue
            for service in sorted(tm.foreign_syntactic):
                assert taskprod.compute_assisting(tm, tid, service) == ref_task.compute_assisting(
                    ref, keys, rid, service
                )
            if t.label - tm.own_services:
                counts["stripped" if isinstance(planning[tid], Silent) else "kept"] += 1
        return ref

    def reduced_with_labels(tm, ga):
        labels.clear()
        reduced = taskprod.reduce_task_motion(tm, ga)
        return reduced, labels[0]

    def assert_spelled_out(tm, ref, reduced, ga):
        # every foreign part is providable, so nothing is dropped
        a, b = tm.automaton, ref.automaton
        assert dump(a) == dump(b) and a.tr_back == b.tr_back
        assert dump(reduced.automaton) == dump(ref_task.reduce_task_motion(ref, ga).automaton)

    rng = random.Random(43)
    for draw in range(401):
        tm, ga = _random_task_instance(rng) if draw else _order_sensitive_instance()
        reduced, planning = reduced_with_labels(tm, ga)
        ref = compare_agent(tm, ga, planning, singleton_offers(tm.service_owner))
        assert_spelled_out(tm, ref, reduced, ga)
        ga_ref = ref_task.compute_globally_assisting([ref])
        assert taskprod.compute_globally_assisting([tm]) == ga_ref
        if not draw:
            keys = ref_task.joint_keys(tm)
            every = frozenset({"pick", "x0", "x1", "x2"})
            (t,) = [t for t in tm.automaton.transitions if t.label == every]
            tid = tm.automaton.transitions.index(t)
            assert tm.automaton.tr_dep[tid] == {1} and planning[tid] == every
            for peeled in ("x2", "x2 x1", "x2 x1 x0"):
                assert (t.src, every - set(peeled.split()), t.dst, t.mask) in keys
            continue
        for owner, offers in OFFER_TABLES:
            cut = taskprod.build_task_motion_product(
                tm.rm, tm.task_spec, 1, tm.own_services, owner, offers
            )
            taskprod.compute_dep(cut)
            ref = compare_agent(cut, ga, reduced_with_labels(cut, ga)[1], offers)
            new_ga = taskprod.compute_globally_assisting([cut])
            old_ga = ref_task.compute_globally_assisting([ref])
            assert all(new_ga[aid] <= old_ga[aid] for aid in old_ga)

    # wide_guards' agent 1 with each x offered alone by an owner of its own:
    # every one of the 2^k foreign parts is providable and spelled out
    workloads = benchmark_workloads()
    for k in (10, 11, 12):
        result = run_synthesis(scenario_from_dict(workloads.wide_guards(k)))
        tm = result.artifacts[1].task_product
        owner = dict(tm.service_owner)
        owner.update({x: 100 + i for i, x in enumerate(sorted(tm.foreign_syntactic))})
        offers = singleton_offers(owner)
        spelled = taskprod.build_task_motion_product(
            tm.rm, tm.task_spec, 1, tm.own_services, owner, offers
        )
        taskprod.compute_dep(spelled)
        ga = result.globally_assisting
        reduced, planning = reduced_with_labels(spelled, ga)
        ref = compare_agent(spelled, ga, planning, offers)
        assert_spelled_out(spelled, ref, reduced, ga)
        assert len(spelled.automaton.transitions) > 2 ** k

    def outcome(scenario):
        try:
            return run_synthesis(scenario)
        except (EmptyLanguageError, SynthesisError) as e:
            return type(e).__name__, str(e)

    solved = shrunk = split = unchanged = identical = 0
    for scenario in _foreign_bit_team_cases():
        labels.clear()
        new = outcome(scenario)
        planning = list(labels)
        with monkeypatch.context() as m:
            for name in ref_task.STAGES:
                m.setattr(taskprod, name, getattr(ref_task, name))
            old = outcome(scenario)
        if isinstance(new, tuple):
            assert new == old
            continue
        assert not isinstance(old, tuple)
        assert new.raw_strategies == old.raw_strategies
        assert new.strategies == old.strategies
        assert all(v <= old.globally_assisting[aid] for aid, v in new.globally_assisting.items())
        assert all(any(c <= d for d in old.dependency_classes) for c in new.dependency_classes)
        shrunk += new.globally_assisting != old.globally_assisting
        split += new.dependency_classes != old.dependency_classes
        for pos, aid in enumerate(sorted(new.artifacts)):
            tm = new.artifacts[aid].task_product
            compare_agent(tm, new.globally_assisting, planning[pos], scenario.offers)
        if (new.globally_assisting, new.dependency_classes) == (
            old.globally_assisting,
            old.dependency_classes,
        ):
            # only transitions that can never fire are dropped, and on these
            # teams no state of a task or reduced product goes with them
            assert [(group, dump(gp.automaton)) for group, gp in new.global_products] == [
                (group, dump(gp.automaton)) for group, gp in old.global_products
            ]
            assert new.stats == old.stats
            unchanged += 1
        arts = [(new.artifacts[aid], old.artifacts[aid]) for aid in sorted(new.artifacts)]
        if all(
            dump(art.task_product.automaton) == dump(ref_art.task_product.automaton)
            and art.task_product.automaton.tr_back == ref_art.task_product.automaton.tr_back
            for art, ref_art in arts
        ):
            for art, ref_art in arts:
                assert dump(art.reduced_task.automaton) == dump(ref_art.reduced_task.automaton)
            identical += 1
        else:
            # every foreign part of the bundled scenarios and of the two
            # workloads without wide guards is providable
            assert scenario.name not in SPELLED_OUT
        solved += 1
    assert solved >= 420 and shrunk >= 15 and split >= 15
    assert unchanged >= 400 and identical >= 350
    assert counts["coalitions"] >= 1500 and counts["stripped"] >= 5000 and counts["kept"] >= 5000
    assert counts["dropped"] >= 10000


def _execution(result):
    """Everything an execution shows, floats by their exact repr."""
    return repr(result.behaviors), result.log_lines(), len(result.events), repr(result.events)


def _deadlocking(strategies):
    """The strategies with the first agent of the first joint step issuing
    that step alone: its partners wait for one request more than it makes."""
    for aid in sorted(strategies):
        st = strategies[aid]
        for part in ("prefix", "cycle"):
            steps = getattr(st, part)
            for i, step in enumerate(steps):
                if len(step.sync) > 1:
                    solo = replace(step, sync=frozenset({aid}))
                    changed = replace(st, **{part: steps[:i] + (solo,) + steps[i + 1 :]})
                    return {**strategies, aid: changed}
    return None


@pytest.mark.python_O
def test_simulate_matches_reference_executor():
    # the compiled execution against the step-by-step lookups it replaced:
    # every timed step, event and log line, over seeds 0..4, two to four
    # unrollings and per-action duration bounds (zero-length ones among
    # them); strategies with one joint request turned solo deadlock with
    # the same message
    workloads = benchmark_workloads()
    cases = [load_bundled(name) for name in ("three_robots", "two_pairs", "asymmetry")]
    cases += [
        scenario_from_dict(workloads.generate(name))
        for name in ("three_robots_13x13", "two_pairs_team", "wide_guards")
    ]
    cases += [pairs(4), chain(4), response_chain(4)]
    rng = random.Random(0)
    cases += [random_scenario(rng) for _ in range(150)]
    bounds = [(0.0, 0.0), (2.5, 2.5), (0.5, 7.25), (3.0, 4.0)]
    solved = runs = deadlocks = 0
    for scenario in cases:
        try:
            strategies = run_synthesis(scenario).strategies
        except EmptyLanguageError:
            continue
        solved += 1
        actions = sorted({s.action for st in strategies.values() for s in st.prefix + st.cycle})
        durations = {a: bounds[i % len(bounds)] for i, a in enumerate(actions)}
        for seed in range(5):
            unrollings = 2 + seed % 3
            for config in (
                SimulationConfig(seed=seed, unrollings=unrollings),
                SimulationConfig(
                    seed=seed, duration_lo=0.0, duration_hi=2.0,
                    action_durations=durations, unrollings=unrollings,
                ),
            ):
                new = simulate(scenario, strategies, config)
                assert _execution(new) == _execution(ref_exec.simulate(scenario, strategies, config))
                runs += 1
        bad = _deadlocking(strategies)
        if bad is not None:
            config = SimulationConfig(seed=deadlocks % 5, unrollings=2 + deadlocks % 3)
            with pytest.raises(DeadlockError) as new_err:
                simulate(scenario, bad, config)
            with pytest.raises(DeadlockError) as old_err:
                ref_exec.simulate(scenario, bad, config)
            assert str(new_err.value) == str(old_err.value)
            assert new_err.value.blocked == old_err.value.blocked
            deadlocks += 1
    assert solved >= 155 and runs == 10 * solved and deadlocks >= 50
