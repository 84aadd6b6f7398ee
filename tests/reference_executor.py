"""Reference copy of the discrete-event execution that `executor.simulate`
replaced with a loop over scripts compiled once per call.

It looks each step's agent, label and duration bounds up again as the step
finishes, and formats every payload anew; the differential tests require
the compiled loop to reproduce its executions exactly: every timed step,
every event in order, and every deadlock message.
"""
from __future__ import annotations

import random

from syncplan.agents import Scenario
from syncplan.buchi import Silent
from syncplan.executor import (
    Behavior,
    DeadlockError,
    SimEvent,
    SimulationConfig,
    SimulationResult,
    TimedStep,
)


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
