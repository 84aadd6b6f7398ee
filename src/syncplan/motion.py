"""Per-agent motion products and their silent-state elimination.

The motion product synchronizes an agent's transition system with its motion
specification automaton; transition labels become the action's service sets,
so everything the task stage needs survives while the state propositions are
compiled away.  Its acceptance sets are the specification automaton's, and
a step lies in the sets of the specification transition it takes.  Reduction
keeps only the states that can still provide services, and the initial
state, one state each, plus one shared absorbing state for runs that rest
forever in an accepting cycle of removed states.  Each removed silent
stretch becomes a single transition remembering the least path it stands
for and marked with the sets that path meets.  The task reduction folds its product with
the same routine, `buchi.fold`, so the reduced automaton's size follows the
service states, not the workspace.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .agents import AgentModel
from .buchi import EXPLICIT_MODE, BuchiAutomaton, Silent, fold


@dataclass
class MotionProduct:
    """Synchronized product; state tags are (ts_state, spec_state) pairs.

    `automaton.tr_back[tid]` names the transition-system action behind each
    product transition.  `agent` and `spec` may be absent for synthetic
    products used in tests.
    """

    automaton: BuchiAutomaton
    agent: AgentModel = None
    spec: BuchiAutomaton = None


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


def classify_significance(mp: MotionProduct):
    """A state matters when it is initial or can leave via a non-silent step."""
    a = mp.automaton
    significant = [False] * a.n_states
    significant[a.initial] = True
    for t in a.transitions:
        if not isinstance(t.label, Silent):
            significant[t.src] = True
    return significant


@dataclass
class ReducedMotionProduct:
    """Elimination result; witnesses map transitions back into the product."""

    automaton: BuchiAutomaton
    origin: MotionProduct
    significance: list


def reduce(mp: MotionProduct) -> ReducedMotionProduct:
    """Fold the states without a service exit away (`buchi.fold`).

    Removed states have silent exits only, so a cycle among them, and with it
    the absorbing state, exists only where a silent label does.
    """
    a = mp.automaton
    significant = classify_significance(mp)
    silent = next((t.label for t in a.transitions if isinstance(t.label, Silent)), None)
    return ReducedMotionProduct(fold(a, significant, silent), mp, significant)
