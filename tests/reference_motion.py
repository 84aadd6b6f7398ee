"""Reference copy of the motion product builder that `motion.build_motion_product`
replaced with one flat pass.

It builds the product through `add_transition`, numbers the states as they
are discovered and keeps, per source state, the first transition of each
(label, target, mask); the differential tests require the flat pass to
reproduce its automaton but for the dominated twins the flat pass drops:
transitions whose mask another with the same source, label, target and
action strictly contains.
"""
from __future__ import annotations

from collections import deque

from syncplan.agents import AgentModel
from syncplan.buchi import EXPLICIT_MODE, BuchiAutomaton
from syncplan.motion import MotionProduct


def build_motion_product(agent: AgentModel, spec: BuchiAutomaton) -> MotionProduct:
    """Reachable product of the agent's transition system with a guard automaton.

    A step exists when the system allows the action and the specification
    automaton can read the current state's propositions; the step is labeled
    with the action's service set or the agent's silent symbol, and lies in
    the acceptance sets of the specification transition taken.
    """
    ts = agent.ts
    product = BuchiAutomaton(EXPLICIT_MODE, spec.sets)
    ids = {}

    def state_id(s, q):
        key = (s, q)
        if key not in ids:
            ids[key] = product.add_state(key)
        return ids[key]

    start = (ts.initial, spec.initial)
    product.initial = state_id(*start)
    queue = deque([start])
    seen = {start}
    edge_seen = set()
    while queue:
        s, q = queue.popleft()
        sid = state_id(s, q)
        spec_moves = [
            (t.dst, t.mask)
            for t in (spec.transitions[tid] for tid in spec.out_transitions(q))
            if t.label.accepts(ts.labels[s])
        ]
        for action, s2 in ts.successors(s):
            label = agent.label_of(action)
            for q2, mask in spec_moves:
                key = (sid, label, (s2, q2), mask)
                if key in edge_seen:
                    continue
                edge_seen.add(key)
                tid = product.add_transition(sid, label, state_id(s2, q2), mask)
                product.tr_back[tid] = action
                if (s2, q2) not in seen:
                    seen.add((s2, q2))
                    queue.append((s2, q2))
    return MotionProduct(product, agent, spec)
