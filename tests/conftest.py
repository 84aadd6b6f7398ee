"""Shared fixtures and random-instance generators."""
from __future__ import annotations

import copy
import importlib.util
import json
import random
import time
from pathlib import Path

import pytest

from syncplan import ltl
from syncplan.agents import AgentModel, Scenario
from syncplan.buchi import EXPLICIT_MODE, BuchiAutomaton, Silent, TransitionSystem, significance
from syncplan.motion import MotionProduct
from syncplan.pipeline import run_synthesis
from syncplan.scenario_io import bundled_scenario_path, load_bundled, scenario_from_dict
from syncplan.taskprod import planning_labels

ATOMS = ["a", "b", "c"]


def random_formula(rng: random.Random, atoms, depth: int) -> ltl.Formula:
    if depth == 0 or rng.random() < 0.25:
        roll = rng.random()
        if roll < 0.7:
            return ltl.atom(rng.choice(atoms))
        return ltl.TRUE_F if roll < 0.85 else ltl.FALSE_F
    kind = rng.choice(
        [ltl.NOT, ltl.AND, ltl.OR, ltl.NEXT, ltl.UNTIL, ltl.EVENTUALLY, ltl.ALWAYS]
    )
    if kind in (ltl.NOT, ltl.NEXT, ltl.EVENTUALLY, ltl.ALWAYS):
        return ltl.Formula(kind, (random_formula(rng, atoms, depth - 1),))
    return ltl.Formula(
        kind,
        (random_formula(rng, atoms, depth - 1), random_formula(rng, atoms, depth - 1)),
    )


def random_word(rng: random.Random, atoms, max_prefix=5, max_period=5):
    def symbol():
        return frozenset(a for a in atoms if rng.random() < 0.5)

    prefix = tuple(symbol() for _ in range(rng.randrange(0, max_prefix + 1)))
    period = tuple(symbol() for _ in range(rng.randrange(1, max_period + 1)))
    return ltl.UltimatelyPeriodicWord(prefix, period)


def mark_entering(auto: BuchiAutomaton, accepting):
    """Give `auto` one acceptance set, met by the transitions entering
    `accepting`, the motion product's rule."""
    auto.sets = 1
    auto.transitions[:] = [t._replace(mask=int(t.dst in accepting)) for t in auto.transitions]
    return auto


def significant_states(product, globally_assisting=None) -> list:
    """The states the reduction keeps: `buchi.significance` over the labels
    it folds with, a motion product's own labels or, given the globally
    assisting services, a task product's planning labels."""
    a = product.automaton
    if globally_assisting is None:
        return significance(a, [t.label for t in a.transitions])
    return significance(a, planning_labels(product, globally_assisting))


def random_motion_product(rng: random.Random, max_states=12, services=("a", "b", "c")):
    """Synthetic explicit-label product for reduction soundness suites."""
    n = rng.randrange(2, max_states + 1)
    auto = BuchiAutomaton(EXPLICIT_MODE)
    for i in range(n):
        auto.add_state((i,))
    silent = Silent(1)
    for s in range(n):
        for _ in range(rng.randrange(1, 4)):
            dst = rng.randrange(n)
            if rng.random() < 0.55:
                label = silent
            else:
                label = frozenset(x for x in services if rng.random() < 0.4)
            auto.add_transition(s, label, dst)
    mark_entering(auto, {s for s in range(n) if rng.random() < 0.35})
    return MotionProduct(auto)


def explicit_agent(agent_id: int, states, actions, transitions, initial=0, props=(), labels=None):
    """Tiny hand-built agent; `actions` maps name -> service iterable or None."""
    ts = TransitionSystem()
    for i, name in enumerate(states):
        ts.add_state(name, (labels or {}).get(name, ()))
    ts.initial = initial
    ts.props = set(props) | {p for lab in ts.labels for p in lab}
    action_labels = {}
    for name, services in actions.items():
        ts.add_action(name)
        if services is None:
            action_labels[name] = Silent(agent_id)
        else:
            action_labels[name] = frozenset(services)
    for src, action, dst in transitions:
        ts.add_transition(src, action, dst)
    if "stay" not in action_labels:
        ts.add_action("stay")
        action_labels["stay"] = Silent(agent_id)
    for s in range(len(ts.states)):
        if (s, "stay") not in ts.trans:
            ts.add_transition(s, "stay", s)
    services = frozenset(
        s for lab in action_labels.values() if isinstance(lab, frozenset) for s in lab
    )
    return AgentModel(agent_id, ts, services, action_labels, "stay")


def singleton_offers(owner: dict) -> dict:
    """Offers under which each owner provides each of its services alone, so
    every combination of services of distinct owners can be provided."""
    offers = {}
    for service, agent_id in owner.items():
        offers.setdefault(agent_id, set()).add(frozenset([service]))
    return offers


def benchmark_workloads():
    """The benchmark's scenario generators, perfbench/workloads.py."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads


def make_scenario(agents, motion_texts, task_texts, name="test"):
    services = frozenset(s for a in agents for s in a.services)
    motion = {
        a.agent_id: ltl.parse(motion_texts[a.agent_id], frozenset(a.ts.props))
        for a in agents
    }
    task = {a.agent_id: ltl.parse(task_texts[a.agent_id], services) for a in agents}
    return Scenario(
        agents=list(agents),
        motion_formulas=motion,
        task_formulas=task,
        motion_texts=dict(motion_texts),
        task_texts=dict(task_texts),
        name=name,
    )


def random_scenario(rng: random.Random) -> Scenario:
    """Small random team: grid agents, satisfiable-leaning formula pools."""
    from syncplan.agents import GridSpec, build_grid_agent

    n = rng.choice([1, 2, 2, 3])
    agents = []
    all_services = []
    for aid in range(1, n + 1):
        w, h = rng.choice([(2, 2), (3, 2)])
        rooms = {}
        for x in range(w):
            for y in range(h):
                if rng.random() < 0.5:
                    rooms[(x, y)] = rng.choice(["P", "Q"])
        svcs = [f"s{aid}{k}" for k in range(rng.choice([1, 1, 2]))]
        all_services.extend(svcs)
        cells = [(rng.randrange(w), rng.randrange(h)) for _ in svcs]
        agents.append(
            build_grid_agent(
                GridSpec(
                    aid,
                    w,
                    h,
                    (0, 0),
                    rooms=rooms,
                    service_cells=tuple(
                        (c, frozenset([s])) for c, s in zip(cells, svcs)
                    ),
                )
            )
        )

    def motion_pool(agent):
        pool = ["true"]
        for p in sorted(agent.ts.props):
            pool += [f"G F {p}", f"F {p}"]
        return pool

    def task_pool(agent):
        others = [s for s in all_services if s not in agent.services]
        pool = ["true"]
        for s in sorted(agent.services):
            pool += [f"G F {s}", f"F {s}", f"{s} || !{s}"]
            if others:
                other = rng.choice(others)
                pool += [f"G F ({s} && {other})", f"F ({s} && {other})", f"G (!{s} || {other})"]
        return pool

    motion = {a.agent_id: rng.choice(motion_pool(a)) for a in agents}
    task = {a.agent_id: rng.choice(task_pool(a)) for a in agents}
    return make_scenario(agents, motion, task, name="fuzz")


def pairs(m: int) -> Scenario:
    """`m` renamed copies of two_pairs' first pair: agents 2k - 1 and 2k, for
    k = 1..m, with services pick{k} and lift{k}.  No pair needs another's
    services, so the team has m dependency classes."""
    data = json.loads(bundled_scenario_path("two_pairs").read_text())
    agents, motion, task = [], {}, {}
    for k in range(1, m + 1):

        def rename(text):
            return text.replace("pick", f"pick{k}").replace("lift", f"lift{k}")

        for template in data["agents"][:2]:
            agent = copy.deepcopy(template)
            old_id, agent["id"] = str(agent["id"]), len(agents) + 1
            for cell in agent["grid"]["service_cells"]:
                cell["services"] = [rename(s) for s in cell["services"]]
            agents.append(agent)
            motion[str(agent["id"])] = rename(data["motion_formulas"][old_id])
            task[str(agent["id"])] = rename(data["task_formulas"][old_id])
    return scenario_from_dict(
        {
            "name": f"pairs-{m}",
            "agents": agents,
            "motion_formulas": motion,
            "task_formulas": task,
            "simulation": data["simulation"],
        }
    )


def chain(m: int) -> Scenario:
    """`m` agents on 4x1 grids with `true` motion formulas, agent i offering
    service s{i} at its start cell.  Agent i's task is G F (s{i} && s{i+1})
    and agent m's is G F s{m}, so the whole chain is one dependency class."""
    from syncplan.agents import GridSpec, build_grid_agent

    agents = [
        build_grid_agent(GridSpec(i, 4, 1, (0, 0), service_cells=(((0, 0), frozenset([f"s{i}"])),)))
        for i in range(1, m + 1)
    ]
    task = {i: f"G F (s{i} && s{i + 1})" for i in range(1, m)}
    task[m] = f"G F s{m}"
    return make_scenario(agents, {i: "true" for i in task}, task, name=f"chain-{m}")


def response_chain(m: int) -> Scenario:
    """`m` agents on 4x1 grids with `true` motion formulas, agent i offering
    s{i} at (0, 0) and t{i} at (3, 0).  Agent i < m must answer each t{i}
    with a joint s{i} && s{i+1} step, G (!t{i} || X (!t{i} U (s{i} &&
    s{i+1}))) && G F t{i}, and agent m's task is G F s{m}: one dependency
    class whose reduced task automata have two states each (agent m's one),
    so the global product has 2^(m-1) tuples."""
    from syncplan.agents import GridSpec, build_grid_agent

    def cells(i):
        return ((0, 0), frozenset([f"s{i}"])), ((3, 0), frozenset([f"t{i}"]))

    agents = [
        build_grid_agent(GridSpec(i, 4, 1, (0, 0), service_cells=cells(i)))
        for i in range(1, m + 1)
    ]
    task = {i: f"G (!t{i} || X (!t{i} U (s{i} && s{i + 1}))) && G F t{i}" for i in range(1, m)}
    task[m] = f"G F s{m}"
    return make_scenario(agents, {i: "true" for i in task}, task, name=f"response-chain-{m}")


def walled_room_data() -> dict:
    """One agent on a 6x6 grid whose room R1, the corner cell (5, 5), is
    walled off, with motion formula G F R1: the other 35 cells are
    reachable, so the motion product is large, and no run ever visits R1,
    so only its cycles show that it accepts nothing."""
    return {
        "name": "walled-room",
        "agents": [
            {
                "id": 1,
                "grid": {
                    "width": 6,
                    "height": 6,
                    "initial": [0, 0],
                    "rooms": {"R1": [5, 5, 5, 5]},
                    "walls": [[[4, 5], [5, 5]], [[5, 4], [5, 5]]],
                },
            }
        ],
        "motion_formulas": {"1": "G F R1"},
        "task_formulas": {"1": "true"},
    }


@pytest.fixture(scope="session")
def three_robots():
    return load_bundled("three_robots")


@pytest.fixture(scope="session")
def three_robots_result(three_robots):
    """One timed pipeline run shared by the structural and acceptance tests."""
    started = time.monotonic()
    result = run_synthesis(three_robots)
    result.stats["elapsed_seconds"] = time.monotonic() - started
    return result


@pytest.fixture(scope="session")
def two_pairs():
    return load_bundled("two_pairs")


@pytest.fixture(scope="session")
def asymmetry():
    return load_bundled("asymmetry")
