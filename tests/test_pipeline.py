"""Pipeline-level bookkeeping and cross-stage consistency."""
import random

from syncplan.buchi import (
    EXPLICIT_MODE,
    BuchiAutomaton,
    Silent,
    find_accepting_lasso,
    prune_non_coaccessible,
)
from syncplan.executor import SimulationConfig, extract_local_word, simulate
from syncplan.globalprod import _candidate_lassos, _counter_winds
from syncplan.pipeline import format_stats


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
        assert row["task_product"] <= row["reduced_motion"] * row["task_spec"] * 3
        assert row["reduced_motion"] <= row["motion_product"]
    text = format_stats(stats)
    assert "reduction ratio" in text and "globally assisting" in text


def test_globally_assisting_pattern(three_robots_result):
    ga = three_robots_result.globally_assisting
    assert ga[2] == frozenset({"help"})
    assert ga[3] == frozenset({"assist"})
    assert ga[1] == frozenset()


def test_synthesis_lasso_winds_counter(three_robots_result):
    ((_group, gp),) = three_robots_result.global_products
    chosen = None
    for lasso in _candidate_lassos(gp):
        if _counter_winds(gp, lasso):
            chosen = lasso
            break
    assert chosen is not None
    top = len(gp.products) + 1
    counters = {gp.automaton.state_tags[s][1] for s in chosen.states(gp.automaton)}
    assert top in counters


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
    stages and impossible windings are acceptable, silent failures are not."""
    from syncplan.executor import check_local_satisfaction, check_timing
    from syncplan.globalprod import EmptyLanguageError, SynthesisError
    from syncplan.pipeline import run_synthesis
    from syncplan.scenario_io import check_strategies_fit
    from tests.conftest import random_scenario

    rng = random.Random(99)
    synthesized = 0
    for trial in range(40):
        scenario = random_scenario(rng)
        try:
            result = run_synthesis(scenario, with_estimate=False)
        except (EmptyLanguageError, SynthesisError):
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
    assert synthesized >= 15


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
        a.accepting = {s for s in range(n) if rng.random() < 0.3}
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
        # reachable accepting state off every cycle hosts no lasso on either side
        has_lasso = find_accepting_lasso(a) is not None
        assert has_lasso == (find_accepting_lasso(pruned) is not None)
        if has_lasso:
            assert any(s in pruned.accepting for s in reach)
