"""Scenario and strategy files: malformed documents fail with a format error."""
import copy
import dataclasses
import json
import re

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from syncplan.globalprod import Strategy, StrategyStep
from syncplan.pipeline import run_synthesis
from syncplan.scenario_io import (
    ScenarioFormatError,
    bundled_scenario_path,
    check_strategies_fit,
    scenario_from_dict,
    strategy_from_dict,
    strategy_to_dict,
)
from tests.conftest import benchmark_workloads

BUNDLED = {
    name: json.loads(bundled_scenario_path(name).read_text())
    for name in ("three_robots", "two_pairs", "asymmetry")
}

STRATEGY = strategy_to_dict(
    Strategy(
        2,
        (StrategyStep("0,0", "east", frozenset({2})),),
        (
            StrategyStep("1,0", "load", frozenset({1, 2})),
            StrategyStep("1,0", "stay", frozenset({2})),
        ),
    )
)

# small values of every JSON type; no large numbers, which would only make
# grids expensive to build
JUNK = [None, True, False, -1, 0, 2, 1.5, "", "x", "G F", [], [0], [0, 0], ["x"], {}, {"x": 1}]


def _paths(doc, prefix=()):
    """Every position in the document, the root included."""
    yield prefix
    if isinstance(doc, dict):
        for key, value in doc.items():
            yield from _paths(value, prefix + (key,))
    elif isinstance(doc, list):
        for i, value in enumerate(doc):
            yield from _paths(value, prefix + (i,))


def _mutate(doc, data):
    """Apply one drawn edit at one drawn position: replace the value, delete
    or duplicate an entry, or add an unknown key."""
    path = data.draw(st.sampled_from(list(_paths(doc))))
    if not path:
        return copy.deepcopy(data.draw(st.sampled_from(JUNK)))
    parent = doc
    for step in path[:-1]:
        parent = parent[step]
    last = path[-1]
    edit = data.draw(st.sampled_from(["replace", "delete", "duplicate", "extra"]))
    if edit == "replace":
        parent[last] = copy.deepcopy(data.draw(st.sampled_from(JUNK)))
    elif edit == "delete":
        del parent[last]
    elif edit == "duplicate" and isinstance(parent, list):
        parent.insert(last, copy.deepcopy(parent[last]))
    elif isinstance(parent, dict):
        parent["unexpected"] = copy.deepcopy(parent[last])
    return doc


def _mutants(base, data, edits):
    doc = copy.deepcopy(base)
    for _ in range(edits):
        doc = _mutate(doc, data)
    return doc


FUZZ = settings(
    max_examples=250, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


@FUZZ
@given(
    name=st.sampled_from(sorted(BUNDLED)),
    edits=st.integers(min_value=1, max_value=3),
    data=st.data(),
)
def test_mutated_scenarios_load_or_raise_format_error(name, edits, data):
    doc = _mutants(BUNDLED[name], data, edits)
    try:
        scenario_from_dict(doc)
    except ScenarioFormatError:
        pass


@FUZZ
@given(edits=st.integers(min_value=1, max_value=3), data=st.data())
def test_mutated_strategies_load_or_raise_format_error(edits, data):
    doc = _mutants(STRATEGY, data, edits)
    try:
        strategy = strategy_from_dict(doc)
    except ScenarioFormatError:
        return
    assert strategy.cycle
    assert all(strategy.agent_id in step.sync for step in strategy.steps())


def test_bundled_documents_load():
    for doc in BUNDLED.values():
        scenario_from_dict(copy.deepcopy(doc))
    assert strategy_from_dict(STRATEGY) == strategy_from_dict(copy.deepcopy(STRATEGY))


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda d: d["agents"][0]["grid"].update(width="x"), "width: expected an integer"),
        (lambda d: d["agents"][0]["grid"].update(rooms=[]), "rooms: expected an object"),
        (lambda d: d["agents"][0].update(grid=5), "grid: expected an object"),
        (lambda d: d["agents"][0].update(services="ab"), "services: expected a list of strings"),
        (lambda d: d["task_formulas"].update({"1": 5}), "task_formulas[1]: expected a string"),
        (lambda d: d.update(simulation=[]), "simulation: expected an object"),
        (lambda d: d["simulation"].update(duration="x"), "duration: expected [lo, hi]"),
        (lambda d: d["simulation"].update(unrollings=2.5), "unrollings: expected an integer"),
    ],
)
def test_scenario_type_errors_are_named(edit, message):
    doc = copy.deepcopy(BUNDLED["three_robots"])
    edit(doc)
    with pytest.raises(ScenarioFormatError, match=re.escape(message)):
        scenario_from_dict(doc)


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda d: d["cycle"][0].update(sync=5), "sync: expected a list of agent ids"),
        (lambda d: d["cycle"][0].update(sync=[1]), "that includes 2"),
        (lambda d: d.update(agent="2"), "agent: expected an integer"),
        (lambda d: d.update(cycle=[]), "cycle: expected at least one step"),
        (lambda d: d.update(prefix={}), "prefix: expected a list"),
        (lambda d: d["prefix"][0].update(state=None), "state: expected a string"),
    ],
)
def test_strategy_type_errors_are_named(edit, message):
    doc = copy.deepcopy(STRATEGY)
    edit(doc)
    with pytest.raises(ScenarioFormatError, match=re.escape(message)):
        strategy_from_dict(doc)


def _edited(strategy, part, steps):
    return dataclasses.replace(strategy, **{part: tuple(steps)})


def _teleport(st, ts):
    i = next(i for i, step in enumerate(st.cycle) if step.action == "north")
    steps = list(st.cycle)
    steps[i] = dataclasses.replace(steps[i], action="stay")
    return _edited(st, "cycle", steps), f"cycle[{i}]: 'stay' leads from {steps[i].state!r} to"


def _open_cycle(st, ts):
    # drop the cycle's last move: the step before it then leads to the
    # dropped step's state, not to where the step after it starts
    cycle = st.cycle
    after = [step.state for step in cycle[1:]] + [cycle[0].state]
    j = max(i for i in range(1, len(cycle)) if after[i] != cycle[i].state)
    n = j - 1
    return (
        _edited(st, "cycle", cycle[:j] + cycle[j + 1:]),
        f"cycle[{n}]: {cycle[n].action!r} leads from {cycle[n].state!r} to "
        f"{cycle[j].state!r}, not to the next step's state {after[j]!r}",
    )


def _late_start(st, ts):
    later = next(step.state for step in st.steps() if step.state != st.prefix[0].state)
    steps = [dataclasses.replace(st.prefix[0], state=later)] + list(st.prefix[1:])
    return _edited(st, "prefix", steps), f"prefix[0]: starts at {later!r}, not at the initial state"


def _disabled_action(st, ts):
    i, action = next(
        (i, a)
        for i, step in enumerate(st.cycle)
        for a in ts.actions
        if (ts.state_index(step.state), a) not in ts.trans
    )
    steps = list(st.cycle)
    steps[i] = dataclasses.replace(steps[i], action=action)
    return (
        _edited(st, "cycle", steps),
        f"cycle[{i}]: agent 3 cannot take {action!r} in state {steps[i].state!r}",
    )


def _foreign_sync(st, ts):
    i = next(i for i, step in enumerate(st.cycle) if step.sync == frozenset({3}))
    steps = list(st.cycle)
    steps[i] = dataclasses.replace(steps[i], sync=frozenset({1, 2}))
    return _edited(st, "cycle", steps), f"cycle[{i}]: agent 3 is not in its own sync"


@pytest.mark.parametrize(
    "edit", [_teleport, _open_cycle, _late_start, _disabled_action, _foreign_sync]
)
def test_infeasible_strategies_are_rejected(edit, three_robots, three_robots_result):
    strategies = dict(three_robots_result.strategies)
    check_strategies_fit(three_robots, strategies)
    strategies[3], message = edit(strategies[3], three_robots.agent(3).ts)
    with pytest.raises(ScenarioFormatError, match=re.escape("strategy of agent 3: " + message)):
        check_strategies_fit(three_robots, strategies)


def test_bundled_strategies_fit(three_robots, three_robots_result, two_pairs, asymmetry):
    check_strategies_fit(three_robots, three_robots_result.strategies)
    check_strategies_fit(three_robots, three_robots_result.raw_strategies)
    for scenario in (two_pairs, asymmetry):
        result = run_synthesis(scenario, with_estimate=False)
        check_strategies_fit(scenario, result.strategies)
        check_strategies_fit(scenario, result.raw_strategies)


@pytest.mark.parametrize("name", ["three_robots_13x13", "two_pairs_team", "wide_guards"])
def test_workload_strategies_fit(name):
    scenario = scenario_from_dict(benchmark_workloads().generate(name))
    result = run_synthesis(scenario, with_estimate=False)
    check_strategies_fit(scenario, result.strategies)
    check_strategies_fit(scenario, result.raw_strategies)
