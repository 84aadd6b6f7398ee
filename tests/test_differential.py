"""The optimized reductions, translator, global product, lasso search and
lasso membership against their unoptimized references.

Witnesses are compared step by step, so any change in which of several
equally short paths a reduction keeps fails here.  The task reduction's
region analysis is the exception: its reference breaks ties by set order,
so there distances, anchors and detours must agree and paths must chain.
Tableau nodes are compared with their ids and incoming sets, which fix the
order of the translated automaton's transitions.
"""
import random

import pytest

from syncplan import globalprod, ltl, motion, pipeline, taskprod
from syncplan.buchi import (
    EXPLICIT_MODE,
    GUARD_MODE,
    AlphabetMismatchError,
    BuchiAutomaton,
    Guard,
    Silent,
    _bfs,
    check_lasso_membership,
    components,
    strongly_connected_components,
)
from syncplan.globalprod import EmptyLanguageError, SynthesisError
from syncplan.motion import classify_significance
from syncplan.pipeline import run_synthesis
from syncplan.scenario_io import load_bundled, scenario_from_dict
from syncplan.taskprod import _region_analysis, classify_task_significance
from syncplan.translate import _degeneralized_quotient, _Tableau, translate
from tests import reference_buchi as ref_buchi
from tests import reference_globalprod as ref_gp
from tests import reference_reductions as ref
from tests import reference_tableau as ref_tableau
from tests.conftest import (
    ATOMS,
    benchmark_workloads,
    make_scenario,
    random_formula,
    random_motion_product,
    random_scenario,
    random_word,
)
from tests.test_taskprod import _random_task_instance


def dump(a):
    return (
        a.initial,
        sorted(a.accepting),
        list(a.state_tags),
        list(a.transitions),
        dict(a.tr_witness),
        dict(a.tr_dep),
    )


def reference_segments(a, significant, src_tid, reach, _memo):
    return ref.segments_by_path_copying(a, significant, src_tid, reach)


def test_motion_bypass_matches_pairwise_elimination():
    rng = random.Random(2)
    long_witnesses = 0
    for i in range(2400):
        mp = random_motion_product(rng, max_states=12 if i < 1200 else rng.randint(25, 40))
        a = mp.automaton
        if i % 2:
            # sparse acceptance leaves more states to bypass: longer chains
            a.accepting = {s for s in a.accepting if rng.random() < 0.3}
        sig = classify_significance(mp)
        old_bench, old_alive = ref.eliminate_by_pairs(a, sig, mp.silent)
        new_bench = motion._bypass_non_survivors(a, set(old_alive))
        assert new_bench.table == old_bench.table
        assert new_bench.ins == old_bench.ins and new_bench.outs == old_bench.outs
        assert dump(motion.eliminate_insignificant_states(a, sig, mp.silent)) == dump(
            ref.eliminate_insignificant_states(a, sig, mp.silent)
        )
        long_witnesses += sum(len(w.steps) >= 4 for w in new_bench.table.values())
    assert long_witnesses >= 1000


def test_task_segments_match_path_copying_walk(monkeypatch):
    rng = random.Random(5)
    compared = 0
    for _ in range(400):
        tm, ga = _random_task_instance(rng)
        a = tm.automaton
        sig = classify_task_significance(tm, ga)
        _anchors, reach = _region_analysis(a, sig, tm.silence_tolerant())
        walks = {}
        for s in range(a.n_states):
            if not sig[s]:
                continue
            for tid in a.out_transitions(s):
                segments, absorb = taskprod._segments_from(a, sig, tid, reach, walks)
                old_segments, old_absorb = ref.segments_by_path_copying(a, sig, tid, reach)
                least = {}
                for target, flag, path in old_segments:
                    cur = least.get((target, flag))
                    if cur is None or (len(path), path) < (len(cur), cur):
                        least[(target, flag)] = path
                assert absorb == old_absorb
                assert len(segments) == len(least)
                assert {(t, f): p for t, f, p in segments} == least
                compared += 1
        new = taskprod.reduce_task_motion(tm, ga)
        with monkeypatch.context() as m:
            m.setattr(taskprod, "_segments_from", reference_segments)
            old = taskprod.reduce_task_motion(tm, ga)
        assert dump(new.automaton) == dump(old.automaton)
    assert compared >= 1000


def _chains(a, path, start, end, inside):
    cur = start
    for tid in path:
        t = a.transitions[tid]
        if t.src != cur or t.dst not in inside:
            return False
        cur = t.dst
    return cur == end


def test_region_analysis_matches_hand_written_searches():
    # with every task state tolerating silence no anchor is dead, so the
    # reference's anchors and routes must all come back; with the task's own
    # tolerance, the dead anchors go and each route leads to the nearest
    # live anchor
    rng = random.Random(11)
    loops = routes = dead = 0
    for _ in range(1200):
        tm, ga = _random_task_instance(rng)
        a = tm.automaton
        sig = classify_task_significance(tm, ga)
        region = {s for s in range(a.n_states) if not sig[s]}
        anchors, reach = _region_analysis(a, sig, range(tm.task_spec.n_states))
        old_anchors, old_reach, loop_keys = ref.region_analysis(a, sig)
        assert anchors.keys() == old_anchors.keys()
        for anchor, loop in anchors.items():
            silent, length, x, tid = loop_keys[anchor]
            at = old_anchors[anchor].index(tid)
            assert len(loop) == length
            assert loop[at] == tid and a.transitions[tid].src == x
            assert silent == all(isinstance(a.transitions[t].label, Silent) for t in loop)
            assert _chains(a, loop, anchor, anchor, region)
        assert reach.keys() == old_reach.keys()
        for s, (dist, path, anchor) in reach.items():
            assert (dist, anchor) == (old_reach[s][0], old_reach[s][2])
            assert len(path) == dist
            assert _chains(a, path, s, anchor, region)
        loops += len(anchors)
        routes += sum(dist > 0 for dist, _path, _anchor in reach.values())

        tolerant = tm.silence_tolerant()
        live = {
            x: loop
            for x, loop in anchors.items()
            if a.state_tags[x][1] in tolerant
            or not all(isinstance(a.transitions[t].label, Silent) for t in loop)
        }
        live_anchors, live_reach = _region_analysis(a, sig, tolerant)
        assert live_anchors == live
        nearest = {}
        for x in sorted(live):
            dist, _parent = _bfs(a, x, allowed=region, reverse=True)
            for s in region:
                if dist[s] is not None and (s not in nearest or dist[s] < nearest[s][0]):
                    nearest[s] = (dist[s], x)
        assert {s: (d, x) for s, (d, _path, x) in live_reach.items()} == nearest
        for s, (dist, path, anchor) in live_reach.items():
            assert len(path) == dist and _chains(a, path, s, anchor, region)
        dead += len(anchors) - len(live)
    assert loops >= 500 and routes >= 500 and dead >= 100


def _synthesize_both(scenario, monkeypatch):
    new = run_synthesis(scenario)
    with monkeypatch.context() as m:
        m.setattr(motion, "eliminate_insignificant_states", ref.eliminate_insignificant_states)
        m.setattr(taskprod, "_segments_from", reference_segments)
        old = run_synthesis(scenario)
    return new, old


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


def test_region_components_match_copied_subautomaton():
    rng = random.Random(13)
    nontrivial = 0
    for _ in range(400):
        tm, ga = _random_task_instance(rng)
        a = tm.automaton
        region = {s for s in range(a.n_states) if rng.random() < 0.7}
        comps = strongly_connected_components(a, allowed=region)[1]
        assert comps == ref.region_components(a, region)
        nontrivial += sum(len(c) > 1 for c in comps)
    assert nontrivial >= 100


def _random_graph(rng):
    """Up to 14 states, each with up to three out-edges; self-loops and
    parallel edges."""
    a = BuchiAutomaton(EXPLICIT_MODE)
    n = rng.randint(1, 14)
    for s in range(n):
        a.add_state((s,))
    for s in range(n):
        for _ in range(rng.randint(0, 3)):
            a.add_transition(s, frozenset(), s if rng.random() < 0.15 else rng.randrange(n))
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


def test_components_match_mutual_reachability():
    # each component is the set of states mutually reachable inside the
    # allowed ones, and closes after every component it reaches; `components`
    # from one root yields exactly the components reachable from it, the
    # first of them with no edge leaving it
    rng = random.Random(59)
    nontrivial = restricted = 0
    for i in range(2000):
        a = _random_graph(rng)
        everything = set(range(a.n_states))
        allowed = None if i % 2 else {s for s in everything if rng.random() < 0.7}
        inside = everything if allowed is None else allowed
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
        names = {s: f"q{s}" for s in everything}  # any hashable node works

        def successors(name):
            s = int(name[1:])
            return [names[a.transitions[tid].dst] for tid in a.out_transitions(s)]

        found = list(components([names[root]], successors))
        everywhere = {s: _reach(a, s, everything) for s in everything}
        assert {name for members in found for name in members} == {
            names[s] for s in everywhere[root]
        }
        for members in found:
            s = int(members[0][1:])
            assert {int(m[1:]) for m in members} == {
                w for w in everywhere[s] if s in everywhere[w]
            }
        first = {int(m[1:]) for m in found[0]}
        assert all(everywhere[s] <= first for s in first)
    assert nontrivial >= 800 and restricted >= 500


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
        sorted(a.accepting),
        list(a.state_tags),
        [(t.src, sorted(t.label.pos), sorted(t.label.neg), t.dst) for t in a.transitions],
    )


def test_tableau_and_translation_match_node_by_node_expansion():
    rng = random.Random(23)
    formulas = _benchmark_formulas()
    formulas += [random_formula(rng, ATOMS, 4) for _ in range(800)]
    shared = 0
    for f in formulas:
        g = ltl.to_nnf(f)
        old_nodes = ref_tableau.tableau_nodes(g)
        new_nodes = _Tableau(g).nodes
        assert [(n.nid, sorted(n.incoming), n.old, n.next) for n in new_nodes] == [
            (n.nid, sorted(n.incoming), frozenset(n.old), frozenset(n.next)) for n in old_nodes
        ], str(f)
        assert _guard_dump(translate(f)) == _guard_dump(ref_tableau.translate(f, old_nodes)), str(f)
        shared += len({n.next for n in new_nodes}) < len(new_nodes)
    assert shared >= 100  # successor expansions are replayed, not just made once


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
    a.accepting = {s for s in range(n) if rng.random() < rng.choice((0.2, 0.5, 0.9))}
    return a


def test_quotient_matches_reference_on_random_guard_automata():
    # with no acceptance sets the counter construction is the automaton
    # itself with every state accepting
    rng = random.Random(31)
    merged = 0
    for _ in range(800):
        a = _random_guard_automaton(rng)
        new = _degeneralized_quotient(a, [])
        old = ref_tableau.quotient_bisimulation(ref_tableau._degeneralize(a, []))
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


def test_degeneralized_quotient_matches_counter_construction_then_quotient():
    rng = random.Random(43)
    merged = kept = 0
    for _ in range(1500):
        a, sets = _random_generalized_automaton(rng)
        new = _degeneralized_quotient(a, sets)
        counter = ref_tableau._degeneralize(a, sets)
        old = ref_tableau.quotient_bisimulation(counter)
        assert _guard_dump(new) == _guard_dump(old)
        assert all(t.label is u.label for t, u in zip(new.transitions, old.transitions))
        if old is counter:
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


def _product_moves(gp):
    """Per component tuple, its moves as (label, target tuple, dependency
    set, back reference, positions entering acceptance)."""
    a = gp.automaton
    moves = {qs: [] for qs in a.state_tags}
    for tid, t in enumerate(a.transitions):
        b = a.tr_back[tid]
        back = (b[0], b[1], dict(b[2])) if b[0] == "joint" else b
        moves[a.state_tags[t.src]].append(
            (t.label, a.state_tags[t.dst], a.tr_dep[tid], back, set(gp.entering[tid]))
        )
    silent = {
        (t.label.agent, id(t.label), id(a.tr_dep[tid]))
        for tid, t in enumerate(a.transitions)
        if isinstance(t.label, Silent)
    }
    assert len(silent) == len({aid for aid, _, _ in silent})  # one label and dep set per agent
    return gp.agent_ids, a.state_tags[a.initial], moves


def _projected_reference(products):
    """`_product_moves` of the reference's counter product projected onto
    component tuples: every counter value of a tuple has the same moves, up
    to the target's counter, and a move's entering positions are the moved
    components whose target is accepting."""
    ref = ref_gp.build_global_product(products)
    a = ref.automaton
    autos = [p.automaton for p in ref.products]
    per_state = [[] for _ in range(a.n_states)]
    for tid, t in enumerate(a.transitions):
        b = a.tr_back[tid]
        moved = [b[1]] if b[0] == "local" else list(b[2])
        back = (b[0], b[1], dict(b[2])) if b[0] == "joint" else b
        target = a.state_tags[t.dst][0]
        entering = {p for p in moved if target[p] in autos[p].accepting}
        per_state[t.src].append((t.label, target, a.tr_dep[tid], back, entering))
    moves = {}
    for s, (qs, _j) in enumerate(a.state_tags):
        assert moves.setdefault(qs, per_state[s]) == per_state[s]
    return ref.agent_ids, a.state_tags[a.initial][0], moves


def _reduced_products(result):
    """Every agent's reduced task-and-motion product, for one global product
    over the whole team."""
    return [result.artifacts[aid].reduced_task for aid in sorted(result.artifacts)]


def test_global_product_matches_per_state_joint_moves(monkeypatch):
    compared = []
    wholes = []
    limit = None

    def both(products):
        new = globalprod.build_global_product(products)
        if limit is None or new.automaton.n_states <= limit:
            assert _product_moves(new) == _projected_reference(products)
            compared.append(new)
        return new

    monkeypatch.setattr(pipeline, "build_global_product", both)
    monkeypatch.setattr(pipeline, "synthesize", lambda gp: {})
    # the bundled teams are compared whatever their size (two_pairs per class
    # and, built directly from all four reduced products, as one product of
    # 2,401 states, 18,432 with the reference's counter); of the random
    # teams, a few reach thousands of tuples at seconds per reference build,
    # so only products up to 1,000 tuples are compared
    two_pairs = load_bundled("two_pairs")
    cases = [(load_bundled("three_robots"), None), (two_pairs, None)]
    cases.append((load_bundled("asymmetry"), None))
    rng = random.Random(29)
    cases += [(random_scenario(rng), 1000) for _ in range(40)]
    for scenario, limit in cases:
        try:
            result = run_synthesis(scenario)
        except EmptyLanguageError:
            continue
        if scenario is two_pairs:
            whole = both(_reduced_products(result))
            assert whole.automaton.n_states == 2401
            wholes.append(whole)
    assert len(wholes) == 1 and len(compared) >= 36


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


def test_global_product_matches_reference_on_wide_guards(monkeypatch):
    # multi-service foreign guards: lone moves that expect a foreign service,
    # coalitions of three, and partner indexes keyed by several services;
    # the reference's counter gives each tuple up to n + 1 states, so teams
    # are compared while that bound stays at 1,500 states
    compared = []

    def both(products):
        new = globalprod.build_global_product(products)
        if new.automaton.n_states * (len(products) + 1) <= 1500:
            assert _product_moves(new) == _projected_reference(products)
            compared.append(new)
        return new

    monkeypatch.setattr(pipeline, "build_global_product", both)
    monkeypatch.setattr(pipeline, "synthesize", lambda gp: {})
    workloads = benchmark_workloads()
    cases = [scenario_from_dict(workloads.wide_guards(k)) for k in (3, 5)]
    rng = random.Random(41)
    cases += [_random_wide_team(rng) for _ in range(36)]
    for scenario in cases:
        try:
            run_synthesis(scenario)
        except EmptyLanguageError:
            continue
    trios = [
        gp
        for gp in compared
        if any(len(dep) >= 3 for dep in gp.automaton.tr_dep.values())
    ]
    assert len(compared) >= 32 and len(trios) >= 10


def _lasso_or_failure(search, gp, marks):
    try:
        return search(gp, marks)
    except EmptyLanguageError as e:
        return e.stage, e.agent_id


def test_accepting_lasso_matches_reference(monkeypatch):
    # marks and lasso (or the failure naming a stage and agent) of every
    # global product the synthesis builds, and, for teams of several
    # dependency classes, of the whole-team product built directly from the
    # same reduced products, against the full-scan search
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
    compared = []
    for scenario in cases:
        try:
            result = run_synthesis(scenario)
        except EmptyLanguageError:
            continue
        products = [gp for _group, gp in result.global_products]
        if len(products) > 1:
            products.append(globalprod.build_global_product(_reduced_products(result)))
        for gp in products:
            marks = globalprod._acceptance_marks(gp)
            assert marks == ref_gp.acceptance_marks(gp)
            found = _lasso_or_failure(globalprod._accepting_lasso, gp, marks)
            assert found == _lasso_or_failure(ref_gp.accepting_lasso, gp, marks)
            compared.append(found)
    lassos = [found for found in compared if not isinstance(found, tuple)]
    assert len(lassos) >= 55 and len(compared) - len(lassos) >= 5
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
    verdicts = []  # (verdict, several classes?) past the per-agent stages
    for scenario in teams:
        per_class = _verdict(lambda: run_synthesis(scenario))
        with monkeypatch.context() as m:
            m.setattr(pipeline, "synthesize", lambda gp: {})
            try:
                result = run_synthesis(scenario)
            except EmptyLanguageError as e:
                # a stage before the global product: the same either way
                assert per_class == e.stage
                continue
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
    a.accepting = {s for s in range(n) if rng.random() < rng.choice((0.2, 0.5))}
    return a, pool


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


