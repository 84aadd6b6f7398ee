"""Acceptance criteria.

Each test prints one PASS/FAIL line; tolerances and budgets are pinned here.
Run with `pytest tests/test_acceptance.py -v -s` to see the report lines.
"""
import random
import time

from syncplan import ltl
from syncplan.buchi import check_lasso_membership, language_empty
from syncplan.executor import (
    SimulationConfig,
    check_local_satisfaction,
    check_timing,
    simulate,
)
from syncplan.globalprod import Strategy, StrategyStep
from syncplan.motion import reduce as reduce_motion
from syncplan.taskprod import reduce_task_motion
from syncplan.translate import translate
from tests.conftest import (
    ATOMS,
    random_formula,
    random_motion_product,
    random_word,
    significant_states,
)
from tests.reference_buchi import accepting_lasso
from tests.test_motion import replay_nonsilent_labels
from tests.test_taskprod import (
    _random_task_instance,
    _variant_from,
    empty_but_for_dead_regions,
)


def report(name: str, ok: bool, detail: str = ""):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}" + (f" — {detail}" if detail else ""))
    assert ok, f"{name}: {detail}"


def test_criterion_1_state_space_reduction(three_robots_result):
    stats = three_robots_result.stats
    elapsed = stats["elapsed_seconds"]
    sizes = {aid: row["reduced_task"] for aid, row in stats["agents"].items()}
    global_total = stats["global_total"]
    estimate = stats["centralized_estimate"]
    ratio = stats["reduction_ratio"]
    # the estimate multiplies the team's transition systems (96 * 100 *
    # 100 states) with the agents' motion and task automata (1 * 3 * 1 * 1
    # * 1 * 2 states); the global product has 10 tuples
    ok = (
        elapsed < 60.0
        and all(size <= 60 for size in sizes.values())
        and global_total == 10
        and estimate == 96 * 100 * 100 * 3 * 2
        and ratio == estimate / global_total >= 100_000
    )
    report(
        "criterion 1: state-space reduction",
        ok,
        f"pipeline {elapsed:.1f}s, reduced sizes {sizes} (paper reports 27/17/8), "
        f"|P|={global_total}, estimate={estimate}, ratio={ratio:.0f}",
    )


def test_criterion_2_end_to_end_verdicts(three_robots, three_robots_result):
    strategies = three_robots_result.strategies
    seeds = range(5)
    all_true = True
    invariant = True
    deadlocks = 0
    verdict_sets = []
    for seed in seeds:
        config = SimulationConfig(seed=seed, duration_lo=1.0, duration_hi=5.0, unrollings=3)
        try:
            result = simulate(three_robots, strategies, config)
        except Exception:
            deadlocks += 1
            continue
        verdicts = check_local_satisfaction(three_robots, strategies, result)
        snapshot = tuple(
            (aid, verdicts[aid].motion, verdicts[aid].task) for aid in sorted(verdicts)
        )
        verdict_sets.append(snapshot)
        for v in verdicts.values():
            all_true = all_true and v.motion and v.task and v.consistent
    invariant = len(set(verdict_sets)) == 1
    ok = all_true and invariant and deadlocks == 0 and len(verdict_sets) == len(list(seeds))
    report(
        "criterion 2: end-to-end correctness",
        ok,
        f"{len(verdict_sets)} seeds, all six verdicts true: {all_true}, "
        f"seed-invariant: {invariant}, deadlocks: {deadlocks}",
    )


def test_criterion_3_translator_validation():
    rng = random.Random(2024)
    formulas = 500
    words_each = 20
    started = time.monotonic()
    disagreements = 0
    for _ in range(formulas):
        f = random_formula(rng, ATOMS, 4)
        ba = translate(f)
        for _ in range(words_each):
            w = random_word(rng, ATOMS)
            if check_lasso_membership(ba, w) != ltl.eval_ltl(f, w):
                disagreements += 1
    elapsed = time.monotonic() - started
    ok = disagreements == 0 and elapsed < 120.0
    report(
        "criterion 3: translator validation",
        ok,
        f"{formulas * words_each} checks, {disagreements} disagreements, {elapsed:.1f}s",
    )


def test_criterion_4_reduction_soundness():
    rng = random.Random(4242)
    motion_instances = 0
    motion_nonempty = 0
    motion_bound_ok = True
    for _ in range(120):
        mp = random_motion_product(rng)
        rm = reduce_motion(mp)
        motion_bound_ok = motion_bound_ok and (
            rm.automaton.n_states <= sum(significant_states(mp)) + 1
        )
        if language_empty(mp.automaton) != language_empty(rm.automaton):
            report("criterion 4: reduction soundness", False, "emptiness diverged")
        motion_instances += 1
        if language_empty(rm.automaton):
            continue
        lasso = accepting_lasso(rm.automaton)
        expanded, reduced_labels = replay_nonsilent_labels(mp.automaton, rm.automaton, lasso)
        if expanded != reduced_labels:
            report("criterion 4: reduction soundness", False, "label sequence diverged")
        motion_nonempty += 1

    task_instances = 0
    task_nonempty = 0
    bound_ok = True
    for _ in range(120):
        tm, ga = _random_task_instance(rng)
        sig = significant_states(tm, ga)
        reduced = reduce_task_motion(tm, ga)
        task_instances += 1
        bound_ok = bound_ok and reduced.automaton.n_states <= sum(sig) + 1
        if empty_but_for_dead_regions(tm, sig) != language_empty(reduced.automaton):
            report("criterion 4: reduction soundness", False, "task emptiness diverged")
        if not language_empty(reduced.automaton):
            task_nonempty += 1
            lasso = accepting_lasso(reduced.automaton)
            orig = tm.automaton.initial
            for tid in lasso.prefix + lasso.cycle:
                w = _variant_from(reduced.automaton.tr_witness[tid], orig)
                cur = orig
                for step in w.steps:
                    ot = tm.automaton.transitions[step]
                    if ot.src != cur:
                        report("criterion 4: reduction soundness", False, "witness broke")
                    cur = ot.dst
                orig = w.dst
    ok = motion_instances >= 100 and task_instances >= 100 and bound_ok and motion_bound_ok
    report(
        "criterion 4: reduction soundness",
        ok,
        f"{motion_instances} motion instances ({motion_nonempty} nonempty replays), "
        f"motion size bound |reduced| <= significant + 1 held: {motion_bound_ok}, "
        f"{task_instances} task instances ({task_nonempty} nonempty), "
        f"size bound |reduced| <= significant + 1 held: {bound_ok}",
    )


def test_criterion_5_timing_semantics(three_robots, three_robots_result):
    strategies = three_robots_result.strategies
    violations = []
    barriers_checked = 0
    for seed in range(3):
        result = simulate(three_robots, strategies, SimulationConfig(seed=seed))
        for behavior in result.behaviors.values():
            violations.extend(check_timing(behavior, tolerance=1e-9))
        waits = {}
        for behavior in result.behaviors.values():
            for step in behavior.steps:
                if step.event[0] == "barrier":
                    waits.setdefault(step.event, []).append(step.sync_duration)
        for group in waits.values():
            barriers_checked += 1
            if min(group) > 1e-9:
                violations.append("barrier without a zero-wait member")
    ok = not violations and barriers_checked > 0
    report(
        "criterion 5: timing semantics",
        ok,
        f"{barriers_checked} barriers checked, violations: {violations[:3]}",
    )


def test_criterion_6_local_satisfaction_asymmetry(asymmetry):
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
    same_formula = asymmetry.task_texts[1] == asymmetry.task_texts[2]
    ok = (
        same_formula
        and verdicts[1].task is True
        and verdicts[2].task is False
        and verdicts[1].consistent
        and verdicts[2].consistent
    )
    report(
        "criterion 6: local-satisfaction asymmetry",
        ok,
        f"shared formula {asymmetry.task_texts[1]!r}: agent 1 satisfied, agent 2 not",
    )
