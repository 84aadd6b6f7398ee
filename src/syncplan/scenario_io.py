"""Scenario and strategy files.

Scenarios are strict JSON documents: unknown keys are rejected so typos
surface immediately.  Agents come either as grid descriptions or as explicit
transition systems; stay self-loops are added automatically when missing.
Strategy files hold one step record per line with a stable field order, so
synthesis output reloads losslessly for simulation.
"""
from __future__ import annotations

import json
from importlib import resources
from pathlib import Path

from . import ltl
from .agents import AgentModel, GridSpec, Scenario, build_grid_agent
from .buchi import Silent, TransitionSystem
from .globalprod import Strategy, StrategyStep


class ScenarioFormatError(ValueError):
    pass


def _require_keys(obj: dict, where: str, required, optional=()):
    if not isinstance(obj, dict):
        raise ScenarioFormatError(f"{where}: expected an object")
    unknown = set(obj) - set(required) - set(optional)
    if unknown:
        raise ScenarioFormatError(f"{where}: unknown keys {sorted(unknown)}")
    missing = set(required) - set(obj)
    if missing:
        raise ScenarioFormatError(f"{where}: missing keys {sorted(missing)}")


_KINDS = {
    int: "an integer",
    str: "a string",
    bool: "true or false",
    list: "a list",
    dict: "an object",
}


def _expect(value, kind, where: str):
    """`value` when it has exactly the JSON type `kind` (a bool is no integer)."""
    if type(value) is not kind:
        raise ScenarioFormatError(f"{where}: expected {_KINDS[kind]}")
    return value


def _strings(value, where: str) -> frozenset:
    if not (isinstance(value, list) and all(isinstance(v, str) for v in value)):
        raise ScenarioFormatError(f"{where}: expected a list of strings")
    return frozenset(value)


def _cell(value, where: str):
    if not (
        type(value) is list
        and len(value) == 2
        and type(value[0]) is int
        and type(value[1]) is int
    ):
        raise ScenarioFormatError(f"{where}: expected a cell [x, y]")
    return (value[0], value[1])


def _cell_pair(value, where: str):
    if not (isinstance(value, list) and len(value) == 2):
        raise ScenarioFormatError(f"{where}: expected a pair of cells")
    return _cell(value[0], where), _cell(value[1], where)


def _bounds(value, where: str):
    if not (
        isinstance(value, list)
        and len(value) == 2
        and all(type(v) in (int, float) for v in value)
    ):
        raise ScenarioFormatError(f"{where}: expected [lo, hi]")
    return value


def _load_grid_agent(agent_id: int, data: dict, where: str, declared_services) -> AgentModel:
    _require_keys(
        data,
        where,
        required=("width", "height", "initial"),
        optional=("obstacles", "walls", "one_way", "rooms", "service_cells", "stay_name"),
    )
    rooms = {}
    for room, rect in _expect(data.get("rooms", {}), dict, f"{where}.rooms").items():
        if not (isinstance(rect, list) and len(rect) == 4 and all(type(v) is int for v in rect)):
            raise ScenarioFormatError(f"{where}.rooms.{room}: expected [x0, y0, x1, y1]")
        x0, y0, x1, y1 = rect
        for x in range(x0, x1 + 1):
            for y in range(y0, y1 + 1):
                rooms[(x, y)] = room
    service_cells = []
    cells = _expect(data.get("service_cells", []), list, f"{where}.service_cells")
    for i, entry in enumerate(cells):
        at = f"{where}.service_cells[{i}]"
        _require_keys(entry, at, required=("cell", "services"))
        service_cells.append(
            (_cell(entry["cell"], f"{at}.cell"), _strings(entry["services"], f"{at}.services"))
        )
    spec = GridSpec(
        agent_id=agent_id,
        width=_expect(data["width"], int, f"{where}.width"),
        height=_expect(data["height"], int, f"{where}.height"),
        initial=_cell(data["initial"], f"{where}.initial"),
        obstacles=frozenset(
            _cell(c, f"{where}.obstacles")
            for c in _expect(data.get("obstacles", []), list, f"{where}.obstacles")
        ),
        walls=frozenset(
            frozenset(_cell_pair(pair, f"{where}.walls"))
            for pair in _expect(data.get("walls", []), list, f"{where}.walls")
        ),
        one_way=frozenset(
            _cell_pair(pair, f"{where}.one_way")
            for pair in _expect(data.get("one_way", []), list, f"{where}.one_way")
        ),
        rooms=rooms,
        service_cells=tuple(service_cells),
        stay_name=_expect(data.get("stay_name", "stay"), str, f"{where}.stay_name"),
    )
    try:
        agent = build_grid_agent(spec)
    except ValueError as exc:
        raise ScenarioFormatError(f"{where}: {exc}") from exc
    agent.services = frozenset(agent.services | declared_services)
    return agent


def _load_explicit_agent(agent_id: int, data: dict, where: str, declared_services, stay_name) -> AgentModel:
    _require_keys(
        data,
        where,
        required=("states", "initial", "actions", "transitions"),
        optional=("propositions",),
    )
    ts = TransitionSystem()
    for i, st in enumerate(_expect(data["states"], list, f"{where}.states")):
        at = f"{where}.states[{i}]"
        _require_keys(st, at, required=("name",), optional=("labels",))
        ts.add_state(
            _expect(st["name"], str, f"{at}.name"), _strings(st.get("labels", []), f"{at}.labels")
        )
    names = {name: idx for idx, name in enumerate(ts.states)}
    if _expect(data["initial"], str, f"{where}.initial") not in names:
        raise ScenarioFormatError(f"{where}: unknown initial state {data['initial']!r}")
    ts.initial = names[data["initial"]]
    ts.props = set(_strings(data.get("propositions", []), f"{where}.propositions")) | {
        p for labels in ts.labels for p in labels
    }

    labels = {}
    services = set(declared_services)
    for i, act in enumerate(_expect(data["actions"], list, f"{where}.actions")):
        at = f"{where}.actions[{i}]"
        _require_keys(act, at, required=("name",), optional=("services", "silent"))
        name = _expect(act["name"], str, f"{at}.name")
        ts.add_action(name)
        if _expect(act.get("silent", False), bool, f"{at}.silent"):
            labels[name] = Silent(agent_id)
        else:
            provided = _strings(act.get("services", []), f"{at}.services")
            labels[name] = provided
            services |= provided
    for i, tr in enumerate(_expect(data["transitions"], list, f"{where}.transitions")):
        if not (isinstance(tr, list) and len(tr) == 3 and all(isinstance(x, str) for x in tr)):
            raise ScenarioFormatError(f"{where}.transitions[{i}]: expected [src, action, dst]")
        src, action, dst = tr
        if src not in names or dst not in names:
            raise ScenarioFormatError(f"{where}.transitions[{i}]: unknown state")
        if action not in labels:
            raise ScenarioFormatError(f"{where}.transitions[{i}]: unknown action {action!r}")
        ts.add_transition(names[src], action, names[dst])

    if stay_name not in labels:
        ts.add_action(stay_name)
        labels[stay_name] = Silent(agent_id)
    for s in range(len(ts.states)):
        if (s, stay_name) not in ts.trans:
            ts.add_transition(s, stay_name, s)
    return AgentModel(agent_id, ts, frozenset(services), labels, stay_name)


def scenario_from_dict(data: dict) -> Scenario:
    _require_keys(
        data,
        "scenario",
        required=("agents", "motion_formulas", "task_formulas"),
        optional=("name", "propositions", "simulation"),
    )
    agents = []
    extra = _strings(data.get("propositions", []), "propositions")
    for i, entry in enumerate(_expect(data["agents"], list, "agents")):
        where = f"agents[{i}]"
        _require_keys(
            entry,
            where,
            required=("id",),
            optional=("grid", "explicit_ts", "services", "stay_name"),
        )
        agent_id = _expect(entry["id"], int, f"{where}.id")
        declared = _strings(entry.get("services", []), f"{where}.services")
        stay_name = _expect(entry.get("stay_name", "stay"), str, f"{where}.stay_name")
        if ("grid" in entry) == ("explicit_ts" in entry):
            raise ScenarioFormatError(f"{where}: exactly one of 'grid' or 'explicit_ts' required")
        if "grid" in entry:
            grid = dict(_expect(entry["grid"], dict, f"{where}.grid"))
            grid.setdefault("stay_name", stay_name)
            agent = _load_grid_agent(agent_id, grid, f"{where}.grid", declared)
        else:
            agent = _load_explicit_agent(
                agent_id, entry["explicit_ts"], f"{where}.explicit_ts", declared, stay_name
            )
        agent.ts.props = set(agent.ts.props) | extra
        agents.append(agent)

    agents.sort(key=lambda a: a.agent_id)
    all_services = frozenset(s for a in agents for s in a.services)
    motion = {}
    task = {}
    motion_texts = {}
    task_texts = {}
    for kind, store, texts, alphabet_of in (
        ("motion_formulas", motion, motion_texts, lambda a: frozenset(a.ts.props)),
        ("task_formulas", task, task_texts, lambda a: all_services),
    ):
        entries = data[kind]
        if not isinstance(entries, dict):
            raise ScenarioFormatError(f"{kind}: expected an object keyed by agent id")
        for agent in agents:
            key = str(agent.agent_id)
            if key not in entries:
                raise ScenarioFormatError(f"{kind}: missing formula for agent {key}")
            text = _expect(entries[key], str, f"{kind}[{key}]")
            try:
                store[agent.agent_id] = ltl.parse(text, alphabet_of(agent))
            except ltl.LtlSyntaxError as exc:
                raise ScenarioFormatError(f"{kind}[{key}]: {exc}") from exc
            texts[agent.agent_id] = text
        unknown = set(entries) - {str(a.agent_id) for a in agents}
        if unknown:
            raise ScenarioFormatError(f"{kind}: formulas for unknown agents {sorted(unknown)}")

    simulation = data.get("simulation", {})
    _require_keys(
        simulation,
        "simulation",
        required=(),
        optional=("seed", "duration", "unrollings", "action_durations"),
    )
    for key in ("seed", "unrollings"):
        if key in simulation:
            _expect(simulation[key], int, f"simulation.{key}")
    if "duration" in simulation:
        _bounds(simulation["duration"], "simulation.duration")
    for action, bounds in _expect(
        simulation.get("action_durations", {}), dict, "simulation.action_durations"
    ).items():
        _bounds(bounds, f"simulation.action_durations.{action}")
    return Scenario(
        agents=agents,
        motion_formulas=motion,
        task_formulas=task,
        motion_texts=motion_texts,
        task_texts=task_texts,
        name=_expect(data.get("name", "scenario"), str, "name"),
        simulation=dict(simulation),
    )


def _read_json(path):
    """The JSON document in a file; undecodable text is a format error."""
    try:
        return json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ScenarioFormatError(f"{path}: line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    except UnicodeDecodeError as exc:
        raise ScenarioFormatError(f"{path}: not UTF-8 text") from exc
    except RecursionError:
        raise ScenarioFormatError(f"{path}: JSON nested too deeply") from None


def load_scenario(path) -> Scenario:
    return scenario_from_dict(_read_json(path))


def strategy_to_dict(strategy: Strategy) -> dict:
    def steps(part):
        return [
            {"state": s.state, "action": s.action, "sync": sorted(s.sync)} for s in part
        ]

    return {
        "agent": strategy.agent_id,
        "prefix": steps(strategy.prefix),
        "cycle": steps(strategy.cycle),
    }


def strategy_text(strategy: Strategy) -> str:
    """One step record per line, stable field order."""
    data = strategy_to_dict(strategy)
    lines = ["{", f'  "agent": {data["agent"]},']
    for part in ("prefix", "cycle"):
        records = [
            json.dumps(r, sort_keys=False, separators=(", ", ": ")) for r in data[part]
        ]
        body = ",\n    ".join(records)
        tail = "," if part == "prefix" else ""
        if records:
            lines.append(f'  "{part}": [\n    {body}\n  ]{tail}')
        else:
            lines.append(f'  "{part}": []{tail}')
    lines.append("}")
    return "\n".join(lines) + "\n"


def strategy_from_dict(data: dict) -> Strategy:
    _require_keys(data, "strategy", required=("agent", "prefix", "cycle"))
    agent = _expect(data["agent"], int, "strategy.agent")

    def steps(part):
        out = []
        for i, rec in enumerate(_expect(data[part], list, f"strategy.{part}")):
            at = f"strategy.{part}[{i}]"
            _require_keys(rec, at, required=("state", "action", "sync"))
            sync = rec["sync"]
            if not (isinstance(sync, list) and all(type(a) is int for a in sync) and agent in sync):
                raise ScenarioFormatError(
                    f"{at}.sync: expected a list of agent ids that includes {agent}"
                )
            out.append(
                StrategyStep(
                    _expect(rec["state"], str, f"{at}.state"),
                    _expect(rec["action"], str, f"{at}.action"),
                    frozenset(sync),
                )
            )
        return tuple(out)

    cycle = steps("cycle")
    if not cycle:
        raise ScenarioFormatError("strategy.cycle: expected at least one step")
    return Strategy(agent, steps("prefix"), cycle)


def save_strategies(strategies: dict, directory) -> list:
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    for aid in sorted(strategies):
        path = directory / f"strategy_agent_{aid}.json"
        path.write_text(strategy_text(strategies[aid]))
        paths.append(path)
    return paths


def load_strategies(paths) -> dict:
    out = {}
    for path in paths:
        data = _read_json(path)
        try:
            st = strategy_from_dict(data)
        except ScenarioFormatError as exc:
            raise ScenarioFormatError(f"{path}: {exc}") from exc
        out[st.agent_id] = st
    return out


def check_strategies_fit(scenario: Scenario, strategies: dict) -> None:
    """Raises ScenarioFormatError naming the first agent, state or action a
    strategy uses that the scenario lacks, or the first step the agent
    cannot take: the first step starts at the initial state, each step's
    action leads from its state to the next step's state, and the last step
    of the cycle leads back to the cycle's first.  Coalitions must pair up:
    every agent a step synchronizes with is in the scenario and has a
    strategy here, the requester is among them, and each member of a
    coalition joins it equally often in the prefix, and in the cycle."""
    agents = {a.agent_id: a for a in scenario.agents}
    for aid in sorted(strategies):
        where = f"strategy of agent {aid}"
        agent = agents.get(aid)
        if agent is None:
            raise ScenarioFormatError(f"{where}: scenario '{scenario.name}' has no agent {aid}")
        ts = agent.ts
        index = {name: i for i, name in enumerate(ts.states)}
        st = strategies[aid]
        steps = [(f"{where}: prefix[{i}]", step) for i, step in enumerate(st.prefix)]
        steps += [(f"{where}: cycle[{i}]", step) for i, step in enumerate(st.cycle)]
        for at, step in steps:
            if step.state not in index:
                raise ScenarioFormatError(f"{at}: agent {aid} has no state {step.state!r}")
            if step.action not in agent.action_labels:
                raise ScenarioFormatError(f"{at}: agent {aid} has no action {step.action!r}")
        at, first = steps[0]
        if first.state != ts.states[ts.initial]:
            raise ScenarioFormatError(
                f"{at}: starts at {first.state!r}, not at the initial state "
                f"{ts.states[ts.initial]!r}"
            )
        following = [step.state for _, step in steps[1:]] + [st.cycle[0].state]
        for (at, step), nxt in zip(steps, following):
            reached = ts.trans.get((index[step.state], step.action))
            if reached is None:
                raise ScenarioFormatError(
                    f"{at}: agent {aid} cannot take {step.action!r} in state {step.state!r}"
                )
            if ts.states[reached] != nxt:
                raise ScenarioFormatError(
                    f"{at}: {step.action!r} leads from {step.state!r} to "
                    f"{ts.states[reached]!r}, not to the next step's state {nxt!r}"
                )
    _check_coalitions_pair(scenario, strategies, agents)


def _check_coalitions_pair(scenario, strategies, agents) -> None:
    uses = {}  # (part, coalition) -> {member: occurrences}
    for aid in sorted(strategies):
        for part in ("prefix", "cycle"):
            for i, step in enumerate(getattr(strategies[aid], part)):
                at = f"strategy of agent {aid}: {part}[{i}]"
                for other in sorted(step.sync):
                    if other not in agents:
                        raise ScenarioFormatError(
                            f"{at}: syncs with agent {other}, which scenario "
                            f"'{scenario.name}' lacks"
                        )
                    if other not in strategies:
                        raise ScenarioFormatError(
                            f"{at}: syncs with agent {other}, which has no strategy here"
                        )
                if aid not in step.sync:
                    raise ScenarioFormatError(f"{at}: agent {aid} is not in its own sync")
                if len(step.sync) > 1:
                    members = uses.setdefault((part, step.sync), dict.fromkeys(step.sync, 0))
                    members[aid] += 1
    for (part, coalition), members in uses.items():
        if len(set(members.values())) > 1:
            counts = ", ".join(f"agent {aid} {members[aid]}" for aid in sorted(members))
            raise ScenarioFormatError(
                f"coalition {sorted(coalition)} is joined unequally often in the "
                f"{part}: {counts}"
            )


def bundled_scenario_path(name: str) -> Path:
    """Path of a packaged example scenario, e.g. 'three_robots'."""
    return Path(resources.files("syncplan.data") / f"{name}.json")


def load_bundled(name: str) -> Scenario:
    return load_scenario(bundled_scenario_path(name))
