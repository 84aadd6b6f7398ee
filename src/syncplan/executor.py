"""Timed asynchronous execution of strategies, local satisfaction checks,
and the size bound of the centralized baseline.

Agents run their scripts independently; a request naming a coalition blocks
until every member has issued its matching request (occurrences of the same
coalition pair up in order), then all members start their next action at the
same instant.  Action durations are sampled per agent from a seeded stream,
so identical seeds give bit-identical behaviors regardless of scheduling.

Simultaneity is tracked by event identity, not by comparing clock readings:
only actions released by the same barrier share an instant, which is exactly
how the synthesized strategies create meaningful coincidences.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

from . import ltl
from .agents import Scenario
from .buchi import Silent
from .translate import translate


class DeadlockError(RuntimeError):
    def __init__(self, blocked):
        self.blocked = blocked
        desc = "; ".join(
            f"agent {aid} waits for coalition {{{', '.join(map(str, sorted(coal)))}}}"
            for aid, coal in sorted(blocked)
        )
        super().__init__(f"synchronization deadlock: {desc}")


@dataclass
class SimulationConfig:
    seed: int = 0
    duration_lo: float = 1.0
    duration_hi: float = 5.0
    action_durations: dict = field(default_factory=dict)  # action -> (lo, hi)
    unrollings: int = 3

    def __post_init__(self):
        # chained so that NaN, false under every comparison, fails them
        if not 0 <= self.duration_lo <= self.duration_hi < math.inf:
            raise ValueError("duration bounds must be finite and satisfy 0 <= lo <= hi")
        for action, (lo, hi) in self.action_durations.items():
            if not 0 <= lo <= hi < math.inf:
                raise ValueError(f"duration bounds for {action!r} must be finite, 0 <= lo <= hi")
        if self.unrollings < 2:
            raise ValueError("at least two cycle unrollings are required")

    def bounds_for(self, action: str):
        return self.action_durations.get(action, (self.duration_lo, self.duration_hi))


@dataclass
class TimedStep:
    state: str
    action: str
    sync: frozenset
    request_time: float
    start_time: float
    sync_duration: float
    action_duration: float
    event: tuple  # identity of the action-start instant


@dataclass
class Behavior:
    agent_id: int
    steps: list
    prefix_len: int
    cycle_len: int

    @property
    def time_sequence(self):
        seq = []
        for step in self.steps:
            seq.append(step.request_time)
            seq.append(step.start_time)
        return seq


@dataclass
class SimEvent:
    time: float
    agent_id: int
    kind: str
    payload: str


@dataclass
class SimulationResult:
    behaviors: dict
    events: list

    def log_lines(self):
        ordered = sorted(self.events, key=lambda e: (e.time, e.agent_id, e.kind))
        return [f"{e.time:.9f}\t{e.agent_id}\t{e.kind}\t{e.payload}" for e in ordered]


def simulate(scenario: Scenario, strategies: dict, config: SimulationConfig) -> SimulationResult:
    """Discrete-event execution of the unrolled strategies."""
    scripts = {}
    for aid, st in strategies.items():
        scripts[aid] = list(st.prefix) + list(st.cycle) * config.unrollings
    rngs = {aid: random.Random(config.seed * 1_000_003 + aid) for aid in scripts}

    clocks = {aid: 0.0 for aid in scripts}
    position = {aid: 0 for aid in scripts}
    occurrence = {}  # (aid, coalition) -> count issued so far
    barriers = {}  # (coalition, k) -> {"arrivals": {aid: t}, "event": ...}
    waiting = {}  # aid -> barrier key
    requested = set()  # steps whose request event was already logged
    events = []
    behaviors = {aid: [] for aid in scripts}
    barrier_counter = 0

    def finish_step(aid, step, release, event):
        rng = rngs[aid]
        lo, hi = config.bounds_for(step.action)
        duration = rng.uniform(lo, hi)
        t_req = release if event[0] == "solo" else barriers[event[1]]["arrivals"][aid]
        behaviors[aid].append(
            TimedStep(
                step.state,
                step.action,
                step.sync,
                t_req,
                release,
                release - t_req,
                duration,
                event,
            )
        )
        events.append(SimEvent(release, aid, "action-start", step.action))
        label = scenario.agent(aid).label_of(step.action)
        if not isinstance(label, Silent):
            events.append(SimEvent(release, aid, "service", "{" + ",".join(sorted(label)) + "}"))
        end = release + duration
        events.append(SimEvent(end, aid, "action-end", step.action))
        clocks[aid] = end
        position[aid] += 1

    progress = True
    while progress:
        progress = False
        for aid in sorted(scripts):
            if aid in waiting:
                continue
            while position[aid] < len(scripts[aid]) and aid not in waiting:
                idx = position[aid]
                step = scripts[aid][idx]
                t_req = clocks[aid]
                if (aid, idx) not in requested:
                    requested.add((aid, idx))
                    events.append(
                        SimEvent(
                            t_req,
                            aid,
                            "sync-request",
                            "{" + ",".join(map(str, sorted(step.sync))) + "}",
                        )
                    )
                if len(step.sync) == 1:
                    finish_step(aid, step, t_req, ("solo", aid, idx))
                    progress = True
                    continue
                k = occurrence.get((aid, step.sync), 0)
                occurrence[(aid, step.sync)] = k + 1
                key = (step.sync, k)
                barrier = barriers.setdefault(key, {"arrivals": {}})
                barrier["arrivals"][aid] = t_req
                if set(barrier["arrivals"]) == set(step.sync):
                    release = max(barrier["arrivals"].values())
                    barrier_counter += 1
                    event = ("barrier", key)
                    for member in sorted(step.sync):
                        events.append(
                            SimEvent(
                                release,
                                member,
                                "barrier-release",
                                "{" + ",".join(map(str, sorted(step.sync))) + "}",
                            )
                        )
                    for member in sorted(step.sync):
                        if member == aid:
                            continue
                        waiting.pop(member, None)
                        member_step = scripts[member][position[member]]
                        finish_step(member, member_step, release, event)
                    finish_step(aid, step, release, event)
                    progress = True
                else:
                    waiting[aid] = key

    if waiting:
        blocked = sorted((aid, key[0]) for aid, key in waiting.items())
        raise DeadlockError(blocked)

    result = {}
    for aid, steps in behaviors.items():
        st = strategies[aid]
        result[aid] = Behavior(aid, steps, len(st.prefix), len(st.cycle))
    return SimulationResult(result, events)


def extract_local_word(result: SimulationResult, agent_id: int, scenario: Scenario):
    """The word this agent observes: at each of its own non-silent instants,
    the union of all services provided at exactly that instant.

    Folds the unrolled behavior into prefix plus one cycle; an agent whose
    cycle is entirely silent gets the empty service set as its period.
    """
    contributions = {}
    for aid, behavior in result.behaviors.items():
        agent = scenario.agent(aid)
        for step in behavior.steps:
            label = agent.label_of(step.action)
            if isinstance(label, Silent):
                continue
            contributions.setdefault(step.event, set()).update(label)

    behavior = result.behaviors[agent_id]
    agent = scenario.agent(agent_id)

    def letters(steps):
        out = []
        for step in steps:
            if isinstance(agent.label_of(step.action), Silent):
                continue
            out.append(frozenset(contributions.get(step.event, set())))
        return out

    p, c = behavior.prefix_len, behavior.cycle_len
    prefix_letters = letters(behavior.steps[:p])
    first_cycle = letters(behavior.steps[p : p + c])
    second_cycle = letters(behavior.steps[p + c : p + 2 * c])
    if first_cycle != second_cycle:
        raise ValueError("cycle observations must repeat")
    if not first_cycle:
        first_cycle = [frozenset()]
    return ltl.UltimatelyPeriodicWord(tuple(prefix_letters), tuple(first_cycle))


@dataclass
class AgentVerdict:
    motion: bool
    task: bool
    motion_by_membership: bool
    task_by_membership: bool

    @property
    def consistent(self):
        return self.motion == self.motion_by_membership and self.task == self.task_by_membership


def check_local_satisfaction(scenario: Scenario, strategies: dict, result: SimulationResult) -> dict:
    """Motion and task verdicts per agent, cross-checked on the automata.

    Each formula is translated once per scenario: the automaton is kept in
    `scenario.automata` for every later check on the same scenario.
    """
    from .buchi import check_lasso_membership

    automata = scenario.automata
    verdicts = {}
    for aid in sorted(strategies):
        st = strategies[aid]
        agent = scenario.agent(aid)
        ts = agent.ts
        state_word = ltl.UltimatelyPeriodicWord(
            tuple(ts.labels[ts.state_index(s.state)] for s in st.prefix),
            tuple(ts.labels[ts.state_index(s.state)] for s in st.cycle),
        )
        local_word = extract_local_word(result, aid, scenario)
        motion_formula = scenario.motion_formulas[aid]
        task_formula = scenario.task_formulas[aid]
        for f in (motion_formula, task_formula):
            if f not in automata:
                automata[f] = translate(f)
        verdicts[aid] = AgentVerdict(
            motion=ltl.eval_ltl(motion_formula, state_word),
            task=ltl.eval_ltl(task_formula, local_word),
            motion_by_membership=check_lasso_membership(automata[motion_formula], state_word),
            task_by_membership=check_lasso_membership(automata[task_formula], local_word),
        )
    return verdicts


def check_timing(behavior: Behavior, tolerance: float = 1e-9):
    """The defining identities of a timed behavior, as a list of violations."""
    problems = []
    steps = behavior.steps
    if steps and abs(steps[0].request_time) > tolerance:
        problems.append("first request not at time zero")
    for j, step in enumerate(steps):
        if abs(step.start_time - step.request_time - step.sync_duration) > tolerance:
            problems.append(f"step {j}: start - request != sync duration")
        if j + 1 < len(steps):
            nxt = steps[j + 1]
            if abs(nxt.request_time - step.start_time - step.action_duration) > tolerance:
                problems.append(f"step {j}: next request - start != action duration")
    times = behavior.time_sequence
    if any(b - a < -tolerance for a, b in zip(times, times[1:])):
        problems.append("time sequence decreases")
    return problems


@dataclass
class CentralizedEstimate:
    ts_state_bound: int
    estimate: int
    formula: str
    materialized_states: int = None  # never set; the benchmark still reads it


def estimate_centralized(scenario: Scenario, spec_automata: dict) -> CentralizedEstimate:
    """Size bound of the one-shot team product, the baseline the global
    products are compared with.

    The bound multiplies the team transition-system bound with every agent's
    motion and task automaton size; their acceptance sets stay on the
    transitions, so no counter multiplies it.  `spec_automata` maps every
    agent to its (motion, task) automata.
    """
    ts_sizes = [len(agent.ts.states) for agent in scenario.agents]
    spec_sizes = [
        spec.n_states for agent in scenario.agents for spec in spec_automata[agent.agent_id]
    ]
    factors = ts_sizes + spec_sizes
    return CentralizedEstimate(
        math.prod(ts_sizes),
        math.prod(factors),
        " * ".join(map(str, factors)),
    )
