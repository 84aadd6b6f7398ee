"""Agent and scenario modeling.

Each agent couples a transition system with a service alphabet and an action
labeling: an action provides either a concrete service set (possibly empty)
or the agent's silent symbol.  Every state carries a stay self-loop so traces
never terminate.  A scenario bundles the team with per-agent motion formulas
(next-free, over state propositions) and task formulas (over the union of all
service alphabets).
"""
from __future__ import annotations

from dataclasses import dataclass, field

from . import ltl
from .buchi import Silent, TransitionSystem


@dataclass(frozen=True)
class SyncRequest:
    issuer: int
    coalition: frozenset

    def __post_init__(self):
        if self.issuer not in self.coalition:
            raise ValueError("issuer must belong to its own coalition")


@dataclass
class AgentModel:
    agent_id: int
    ts: TransitionSystem
    services: frozenset
    action_labels: dict
    stay_action: str = "stay"

    @property
    def silent(self) -> Silent:
        return Silent(self.agent_id)

    def label_of(self, action: str):
        return self.action_labels[action]

    def is_silent(self, action: str) -> bool:
        return isinstance(self.action_labels.get(action), Silent)


@dataclass
class Scenario:
    agents: list
    motion_formulas: dict
    task_formulas: dict
    motion_texts: dict = field(default_factory=dict)
    task_texts: dict = field(default_factory=dict)
    name: str = "scenario"
    simulation: dict = field(default_factory=dict)
    # formula -> its translated automaton, filled by the verdict checks
    automata: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def agent_ids(self):
        return [a.agent_id for a in self.agents]

    @property
    def all_services(self) -> frozenset:
        return frozenset(s for a in self.agents for s in a.services)

    @property
    def service_owner(self) -> dict:
        return {s: a.agent_id for a in self.agents for s in a.services}

    @property
    def offers(self) -> dict:
        """Per agent, the service sets its non-silent actions provide."""
        return {
            a.agent_id: frozenset(
                label for label in a.action_labels.values() if not isinstance(label, Silent)
            )
            for a in self.agents
        }

    def agent(self, agent_id: int) -> AgentModel:
        for a in self.agents:
            if a.agent_id == agent_id:
                return a
        raise KeyError(agent_id)


def validate(scenario: Scenario):
    """All structural invariants as a list of diagnostics; empty means clean."""
    problems = []
    seen_ids = set()
    for a in scenario.agents:
        if a.agent_id in seen_ids:
            problems.append(f"agent id {a.agent_id} declared twice")
        seen_ids.add(a.agent_id)
    for i, a in enumerate(scenario.agents):
        for b in scenario.agents[i + 1 :]:
            shared = a.services & b.services
            if shared:
                problems.append(
                    f"agents {a.agent_id} and {b.agent_id} share services "
                    + ", ".join(sorted(shared))
                )
    for a in scenario.agents:
        ts = a.ts
        for s in range(len(ts.states)):
            if ts.trans.get((s, a.stay_action)) != s:
                problems.append(
                    f"agent {a.agent_id}: state {ts.states[s]!r} misses the stay self-loop"
                )
        if not isinstance(a.action_labels.get(a.stay_action), Silent):
            problems.append(f"agent {a.agent_id}: stay action must be silent")
        for action in ts.actions:
            if action not in a.action_labels:
                problems.append(f"agent {a.agent_id}: action {action!r} has no label")
                continue
            label = a.action_labels[action]
            if isinstance(label, Silent):
                if label.agent != a.agent_id:
                    problems.append(
                        f"agent {a.agent_id}: action {action!r} uses a foreign silent symbol"
                    )
            elif not label <= a.services:
                problems.append(
                    f"agent {a.agent_id}: action {action!r} provides undeclared services"
                )
        for src, action, first, second in ts.conflicts:
            problems.append(
                f"agent {a.agent_id}: nondeterministic transition {ts.states[src]!r} "
                f"--{action}--> {ts.states[first]!r} vs {ts.states[second]!r}"
            )
    services = scenario.all_services
    for a in scenario.agents:
        motion = scenario.motion_formulas.get(a.agent_id)
        if motion is None:
            problems.append(f"agent {a.agent_id}: missing motion formula")
        else:
            if ltl.contains_next(motion):
                problems.append(
                    f"agent {a.agent_id}: motion formula must not use the next operator"
                )
            bad = ltl.atoms_of(motion) - a.ts.props
            if bad:
                problems.append(
                    f"agent {a.agent_id}: motion formula names undeclared propositions "
                    + ", ".join(sorted(bad))
                )
        task = scenario.task_formulas.get(a.agent_id)
        if task is None:
            problems.append(f"agent {a.agent_id}: missing task formula")
        else:
            bad = ltl.atoms_of(task) - services
            if bad:
                problems.append(
                    f"agent {a.agent_id}: task formula names undeclared services "
                    + ", ".join(sorted(bad))
                )
    return problems


@dataclass
class GridSpec:
    """Rectangular workspace; cells are (x, y) with y growing upward."""

    agent_id: int
    width: int
    height: int
    initial: tuple
    obstacles: frozenset = frozenset()
    walls: frozenset = frozenset()  # unordered cell pairs
    one_way: frozenset = frozenset()  # ordered blocked (src, dst) pairs
    rooms: dict = field(default_factory=dict)  # cell -> proposition
    service_cells: tuple = ()  # ((cell, frozenset of services), ...)
    stay_name: str = "stay"


_DIRECTIONS = (("north", (0, 1)), ("east", (1, 0)), ("south", (0, -1)), ("west", (-1, 0)))


def cell_name(cell) -> str:
    return f"{cell[0]},{cell[1]}"


def build_grid_agent(spec: GridSpec) -> AgentModel:
    """Transition system over free cells with 4-neighbor moves and stay loops.

    Services are attached as labeled self-loop actions at their cells; every
    move and the stay action are silent.
    """
    if spec.width <= 0 or spec.height <= 0:
        raise ValueError("grid dimensions must be positive")
    if spec.initial in spec.obstacles:
        raise ValueError(f"initial cell {spec.initial} lies inside an obstacle")
    for cell in spec.obstacles | {spec.initial}:
        _check_bounds(spec, cell)
    for cell, _ in spec.service_cells:
        _check_bounds(spec, cell)
        if cell in spec.obstacles:
            raise ValueError(f"service cell {cell} lies inside an obstacle")

    ts = TransitionSystem()
    index = {}
    for y in range(spec.height):
        for x in range(spec.width):
            cell = (x, y)
            if cell in spec.obstacles:
                continue
            labels = {spec.rooms[cell]} if cell in spec.rooms else set()
            index[cell] = ts.add_state(cell_name(cell), labels)
    ts.props = {p for p in spec.rooms.values()}
    ts.initial = index[spec.initial]

    silent = Silent(spec.agent_id)
    labels: dict = {spec.stay_name: silent}
    ts.add_action(spec.stay_name)
    for name, _ in _DIRECTIONS:
        ts.add_action(name)
        labels[name] = silent
    for cell, sid in index.items():
        ts.add_transition(sid, spec.stay_name, sid)
        for name, (dx, dy) in _DIRECTIONS:
            target = (cell[0] + dx, cell[1] + dy)
            if target not in index:
                continue
            if frozenset((cell, target)) in spec.walls:
                continue
            if (cell, target) in spec.one_way:
                continue
            ts.add_transition(sid, name, index[target])

    services = set()
    for cell, svcs in spec.service_cells:
        svcs = frozenset(svcs)
        services |= svcs
        action = "+".join(sorted(svcs)) if svcs else "noop"
        ts.add_action(action)
        labels[action] = svcs
        ts.add_transition(index[cell], action, index[cell])

    return AgentModel(
        agent_id=spec.agent_id,
        ts=ts,
        services=frozenset(services),
        action_labels=labels,
        stay_action=spec.stay_name,
    )


def _check_bounds(spec: GridSpec, cell):
    x, y = cell
    if not (0 <= x < spec.width and 0 <= y < spec.height):
        raise ValueError(f"cell {cell} outside the {spec.width}x{spec.height} grid")
