"""Pipeline-level bookkeeping and cross-stage consistency."""
import random
from collections import Counter

import pytest

from syncplan import executor, pipeline
from syncplan.buchi import (
    EXPLICIT_MODE,
    BuchiAutomaton,
    Silent,
    prune_non_coaccessible,
)
from syncplan.executor import SimulationConfig, extract_local_word, simulate
from syncplan.globalprod import Strategy, StrategyStep, _accepting_lasso
from syncplan.pipeline import format_stats, run_synthesis
from syncplan.scenario_io import load_bundled, scenario_from_dict
from syncplan.translate import translate
from tests import reference_globalprod as ref_gp
from tests.conftest import benchmark_workloads, mark_entering, pairs
from tests.reference_buchi import accepting_lasso


def test_stats_block_complete_and_consistent(three_robots_result):
    stats = three_robots_result.stats
    for key in (
        "agents",
        "global_sizes",
        "global_total",
        "globally_assisting",
        "dependency_classes",
        "centralized_estimate",
        "centralized_formula",
        "reduction_ratio",
    ):
        assert key in stats, key
    for aid, row in stats["agents"].items():
        art = three_robots_result.artifacts[aid]
        assert row["reduced_task"] <= row["task_product"]
        assert row["task_product"] <= row["reduced_motion"] * row["task_spec"]
        assert row["reduced_motion"] <= row["motion_product"]
    text = format_stats(stats)
    assert "reduction ratio" in text and "globally assisting" in text


TWO_PAIRS_BASELINE = (256, "4 * 4 * 4 * 4 * 1 * 1 * 1 * 1 * 1 * 1 * 1 * 1", 256 / 2)
BASELINES = [
    ("three_robots", 5760000, "96 * 100 * 100 * 1 * 3 * 1 * 1 * 1 * 2", 5760000 / 10),
    ("two_pairs", *TWO_PAIRS_BASELINE),
    ("asymmetry", 1, "1 * 1 * 1 * 1 * 1 * 1", 1 / 1),
    ("three_robots_13x13", 27932658, "163 * 169 * 169 * 1 * 3 * 1 * 1 * 1 * 2", 27932658 / 10),
    ("two_pairs_team", *TWO_PAIRS_BASELINE),
    ("wide_guards", 108, "9 * 12 * 1 * 1 * 1 * 1", 108 / 18),
]


@pytest.mark.parametrize(
    "name, estimate, formula, ratio", BASELINES, ids=[case[0] for case in BASELINES]
)
def test_centralized_baseline_values(name, estimate, formula, ratio, three_robots_result):
    """The baseline is the estimate read from the per-agent automata, the
    product of the transition-system and automaton sizes and no counter
    factor, and the ratio divides it by the global products' tuples, which
    the unmemoized reference product counts too."""
    if name == "three_robots":
        result = three_robots_result
    elif name in ("two_pairs", "asymmetry"):
        result = run_synthesis(load_bundled(name))
    else:
        workloads = benchmark_workloads()
        result = run_synthesis(scenario_from_dict(workloads.generate(name)))
    stats = result.stats
    sizes = [len(agent.ts.states) for agent in result.scenario.agents]
    for agent in result.scenario.agents:
        art = result.artifacts[agent.agent_id]
        sizes += [art.motion_spec.n_states, art.task_spec.n_states]
    assert " * ".join(map(str, sizes)) == formula
    assert stats["centralized_estimate"] == estimate
    assert stats["centralized_formula"] == formula
    assert stats["reduction_ratio"] == ratio
    assert stats["global_total"] == sum(
        ref_gp.build_global_product(gp.products).automaton.n_states
        for _group, gp in result.global_products
    )


@pytest.mark.parametrize("name", ["two_pairs", "asymmetry", "wide_guards"])
def test_translate_calls_per_agent(name, monkeypatch):
    """Synthesis translates each agent's two formulas once, and no team
    conjunction: the baseline reuses the pipeline's automata."""
    calls = []

    def counting(f):
        calls.append(f)
        return translate(f)

    monkeypatch.setattr(pipeline, "translate", counting)
    monkeypatch.setattr(executor, "translate", counting)
    if name == "wide_guards":
        scenario = scenario_from_dict(benchmark_workloads().generate(name))
    else:
        scenario = load_bundled(name)
    run_synthesis(scenario)
    formulas = [
        f for aid in scenario.agent_ids
        for f in (scenario.motion_formulas[aid], scenario.task_formulas[aid])
    ]
    assert len(calls) == 2 * len(scenario.agents)
    assert Counter(calls) == Counter(formulas)


def test_globally_assisting_pattern(three_robots_result):
    ga = three_robots_result.globally_assisting
    assert ga[2] == frozenset({"help"})
    assert ga[3] == frozenset({"assist"})
    assert ga[1] == frozenset()


def test_one_global_product_per_dependency_class(two_pairs):
    # `cap` and `per_class` are the benchmark's keywords and have no effect;
    # each agent's task automaton, G F of a pair of services, has one state
    # and so does its reduced product, so each pair's product has one tuple
    for result in (
        run_synthesis(two_pairs),
        run_synthesis(two_pairs, cap=1, per_class=False),
    ):
        assert [(g, gp.automaton.n_states) for g, gp in result.global_products] == [
            ((1, 2), 1),
            ((3, 4), 1),
        ]
        assert [result.artifacts[aid].task_spec.n_states for aid in (1, 2, 3, 4)] == [1] * 4
        assert [result.artifacts[aid].reduced_task.automaton.n_states for aid in (1, 2, 3, 4)] == [
            1, 1, 1, 1
        ]
        for _g, gp in result.global_products:
            reference = ref_gp.build_global_product(gp.products).automaton
            assert gp.automaton.n_states == reference.n_states


def test_independent_pairs_synthesize_like_one_pair(two_pairs):
    # eight renamed copies of two_pairs' first pair: eight classes of one
    # global state each, every pair with the first pair's strategies
    first = run_synthesis(two_pairs).strategies
    result = run_synthesis(pairs(8))
    assert result.dependency_classes == [
        frozenset({2 * k - 1, 2 * k}) for k in range(1, 9)
    ]
    assert [gp.automaton.n_states for _g, gp in result.global_products] == [1] * 8
    for k in range(1, 9):
        ids = {1: 2 * k - 1, 2: 2 * k}
        actions = {"pick": f"pick{k}", "lift": f"lift{k}"}

        def renamed(steps):
            return tuple(
                StrategyStep(
                    s.state,
                    actions.get(s.action, s.action),
                    frozenset(ids[aid] for aid in s.sync),
                )
                for s in steps
            )

        for aid, new_id in ids.items():
            st = first[aid]
            expected = Strategy(new_id, renamed(st.prefix), renamed(st.cycle))
            assert result.strategies[new_id] == expected


def test_synthesis_lasso_covers_every_acceptance_set(three_robots_result, two_pairs):
    """The chosen lasso is a path from the initial state into a closed cycle
    whose moves meet, by the marks the product's transitions carry, each
    agent's motion and task sets and L_i, on moves of the agent whose own
    reduced transition meets them.  A cycle move meets L_i exactly where
    the old path set it: a joint move of i, or a local move of i keeping
    its word legal (`_keeps_word_legal`).  Position i's slot starts where
    position i - 1's ends, and holds its reduced sets, L_i last."""
    pairs = run_synthesis(two_pairs)
    products = [gp for _group, gp in three_robots_result.global_products]
    products += [gp for _group, gp in pairs.global_products]
    for gp in products:
        a = gp.automaton
        widths = [p.automaton.sets for p in gp.products]
        assert a.sets == sum(widths)
        marks = [t.mask for t in a.transitions]
        lasso = _accepting_lasso(gp)
        states = lasso.states(a)
        for tid, src in zip(lasso.prefix + lasso.cycle, states):
            assert a.transitions[tid].src == src
        assert states[-1] == states[len(lasso.prefix)]
        for pos, aid in enumerate(gp.agent_ids):
            first = sum(widths[:pos])
            for own_set in range(widths[pos]):
                met = [tid for tid in lasso.cycle if marks[tid] >> (first + own_set) & 1]
                assert met
                for tid in met:
                    back = a.tr_back[tid]
                    assert aid in a.tr_dep[tid]
                    low = back[2] if back[0] == "local" else back[2][pos]
                    assert gp.products[pos].automaton.transitions[low].mask >> own_set & 1
            legal = [tid for tid in lasso.cycle if marks[tid] >> (first + widths[pos] - 1) & 1]
            assert legal and all(aid in a.tr_dep[tid] for tid in legal)
            for tid in lasso.cycle:
                back = a.tr_back[tid]
                if back[0] == "joint":
                    assert (tid in legal) == (aid in back[1])
                elif back[1] == pos:
                    assert (tid in legal) == ref_gp._keeps_word_legal(gp.products[pos], back[2])


def test_three_robot_local_word_pattern(three_robots, three_robots_result):
    result = simulate(three_robots, three_robots_result.strategies, SimulationConfig(seed=0))
    word = extract_local_word(result, 1, three_robots)
    letters = list(word.prefix) + list(word.period)
    assert frozenset({"load", "help", "assist"}) in letters
    unloads = [x for x in letters if "unload" in x]
    assert unloads
    assert all(
        x in (frozenset({"unload", "help"}), frozenset({"unload", "assist"})) for x in unloads
    )


def test_randomized_scenarios_synthesize_soundly():
    """Whatever the pipeline synthesizes must pass every verdict; empty
    languages are acceptable, silent failures are not.  A `SynthesisError`
    is an invariant violation and fails the test."""
    from syncplan.executor import check_local_satisfaction, check_timing
    from syncplan.globalprod import EmptyLanguageError
    from syncplan.scenario_io import check_strategies_fit
    from tests.conftest import random_scenario

    rng = random.Random(99)
    synthesized = 0
    for trial in range(40):
        scenario = random_scenario(rng)
        try:
            result = run_synthesis(scenario)
        except EmptyLanguageError:
            continue
        synthesized += 1
        check_strategies_fit(scenario, result.strategies)
        for seed in (0, 1):
            sim = simulate(scenario, result.strategies, SimulationConfig(seed=seed))
            assert not [
                issue for b in sim.behaviors.values() for issue in check_timing(b)
            ]
            verdicts = check_local_satisfaction(scenario, result.strategies, sim)
            for aid, v in verdicts.items():
                assert v.consistent, (trial, aid)
                assert v.motion and v.task, (
                    trial,
                    aid,
                    scenario.motion_texts,
                    scenario.task_texts,
                )
    assert synthesized >= 35


def test_lasso_absence_matches_pruned_reachability():
    rng = random.Random(12)
    for _ in range(150):
        n = rng.randrange(1, 9)
        a = BuchiAutomaton(EXPLICIT_MODE)
        for i in range(n):
            a.add_state()
        for s in range(n):
            for _ in range(rng.randrange(0, 3)):
                a.add_transition(s, Silent(1), rng.randrange(n))
        mark_entering(a, {s for s in range(n) if rng.random() < 0.3})
        pruned = prune_non_coaccessible(a)
        reach = {pruned.initial}
        queue = [pruned.initial]
        while queue:
            v = queue.pop()
            for tid in pruned.out_transitions(v):
                w = pruned.transitions[tid].dst
                if w not in reach:
                    reach.add(w)
                    queue.append(w)
        # pruning preserves the language, so lasso existence must agree; a
        # reachable marked edge off every cycle hosts no lasso on either side
        has_lasso = accepting_lasso(a) is not None
        assert has_lasso == (accepting_lasso(pruned) is not None)
        if has_lasso:
            assert any(t.mask and t.src in reach for t in pruned.transitions)
