"""Action-by-action materialization of the centralized baseline, kept as the
reference for the differential tests.

`materialize_centralized` is the team product `executor` materialized before
successors were enumerated by label class: every combination of actions at
a team state builds its own letter and tests it against every out-edge of
the conjunction's automaton.  It counts the initial state without testing
the cap, so at cap 0 it returns 2 where the optimized function returns 1.
"""
from __future__ import annotations

from syncplan import ltl
from syncplan.agents import Scenario
from syncplan.buchi import Silent
from syncplan.translate import translate


def materialize_centralized(scenario: Scenario, cap: int):
    """Reachable size of the stepwise-synchronized team product, cap-guarded."""
    from itertools import product as iproduct

    conjunction = ltl.TRUE_F
    for agent in scenario.agents:
        aid = agent.agent_id
        conjunction = ltl.land(
            conjunction,
            ltl.land(scenario.motion_formulas[aid], scenario.task_formulas[aid]),
        )
    spec = translate(conjunction)

    agents = scenario.agents
    start = (tuple(a.ts.initial for a in agents), spec.initial)
    seen = {start}
    queue = [start]
    while queue:
        states, q = queue.pop()
        joint_moves = [a.ts.successors(s) for a, s in zip(agents, states)]
        letters_base = frozenset(
            p for a, s in zip(agents, states) for p in a.ts.labels[s]
        )
        for combo in iproduct(*joint_moves):
            letter = set(letters_base)
            for agent, (action, _target) in zip(agents, combo):
                label = agent.label_of(action)
                if not isinstance(label, Silent):
                    letter |= label
            letter = frozenset(letter)
            targets = tuple(t for _a, t in combo)
            for tid in spec.out_transitions(q):
                t = spec.transitions[tid]
                if not t.label.accepts(letter):
                    continue
                key = (targets, t.dst)
                if key not in seen:
                    seen.add(key)
                    if len(seen) > cap:
                        return len(seen)
                    queue.append(key)
    return len(seen)
