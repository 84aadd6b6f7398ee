"""Per-agent motion products and their silent-state elimination.

The motion product synchronizes an agent's transition system with its motion
specification automaton; transition labels become the action's service sets,
so everything the task stage needs survives while the state propositions are
compiled away.  Its acceptance sets are the specification automaton's, and
a step lies in the sets of the specification transition it takes; of the
steps with one label between two states only the maximal masks are kept, as
a step whose sets another's strictly contain accepts nothing more.  Reduction
keeps only the states that can still provide services, and the initial
state, one state each, plus one shared absorbing state for runs that rest
forever in an accepting cycle of removed states.  Each removed silent
stretch becomes a single transition remembering the least path it stands
for and marked with the sets that path meets.  The task reduction folds its product with
the same routine, `buchi.fold`, so the reduced automaton's size follows the
service states, not the workspace.
"""
from __future__ import annotations

from dataclasses import dataclass

from .agents import AgentModel
from .buchi import EXPLICIT_MODE, BuchiAutomaton, Silent, Transition, fold


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
    the acceptance sets of the specification transition taken.  Per source
    state only the maximal masks per (label, target) are kept, each once.

    One breadth-first pass: states are numbered in discovery order, so the
    state tags are the queue, and transitions are appended directly.  The
    specification moves are worked out once per (specification state,
    proposition set), and each system state's steps once, with a step
    dropped when an earlier action of that state has an equal label and the
    same target; a step kept is paired with every specification move but a
    repeated (target, mask) one and one whose mask another move to the same
    target strictly contains.  So neither rule costs a lookup per product
    transition.
    """
    ts = agent.ts
    product = BuchiAutomaton(EXPLICIT_MODE, spec.sets)
    n_ts, n_spec = len(ts.states), spec.n_states
    ids = [None] * (n_ts * n_spec)  # s * n_spec + q -> product state
    spec_moves = {}  # (spec state, proposition set) -> [(target, mask)]
    ts_moves = [None] * n_ts  # system state -> [(action, label, target)]
    labels = {}  # action -> (its label, an id shared by equal labels)
    label_ids = {}
    tags = product.state_tags
    transitions = product.transitions
    tr_back = product.tr_back
    new_transition = tuple.__new__  # skips the named tuple's Python-level __new__

    def moves_of(s):
        moves, kept = [], set()
        for action, s2 in ts.successors(s):
            if action not in labels:
                label = agent.label_of(action)
                labels[action] = (label, label_ids.setdefault(label, len(label_ids)))
            label, lid = labels[action]
            key = lid * n_ts + s2
            if key not in kept:
                kept.add(key)
                moves.append((action, label, s2))
        return moves

    def moves_in(q, props):
        found = []
        for tid in spec.out_transitions(q):
            t = spec.transitions[tid]
            if t.label.accepts(props) and (t.dst, t.mask) not in found:
                found.append((t.dst, t.mask))
        # drop a move when another to the same target meets a strict superset of its sets
        return [
            (q2, m) for q2, m in found
            if not any(q3 == q2 and m3 != m and m3 | m == m3 for q3, m3 in found)
        ]

    start = (ts.initial, spec.initial)
    product.initial = ids[ts.initial * n_spec + spec.initial] = product.add_state(start)
    src = 0
    while src < len(tags):
        s, q = tags[src]
        props = ts.labels[s]
        moves = spec_moves.get((q, props))
        if moves is None:
            moves = spec_moves[(q, props)] = moves_in(q, props)
        steps = ts_moves[s]
        if steps is None:
            steps = ts_moves[s] = moves_of(s)
        for action, label, s2 in steps:
            base = s2 * n_spec
            for q2, mask in moves:
                dst = ids[base + q2]
                if dst is None:
                    dst = ids[base + q2] = len(tags)
                    tags.append((s2, q2))
                tid = len(transitions)
                tr_back[tid] = action
                transitions.append(new_transition(Transition, (src, label, dst, mask)))
        src += 1
    return MotionProduct(product, agent, spec)


@dataclass
class ReducedMotionProduct:
    """Elimination result; witnesses map transitions back into the product."""

    automaton: BuchiAutomaton
    origin: MotionProduct


def reduce(mp: MotionProduct) -> ReducedMotionProduct:
    """Fold the states without a service exit away (`buchi.fold`).

    Removed states have silent exits only, so a cycle among them, and with it
    the absorbing state, exists only where a silent label does.
    """
    a = mp.automaton
    silent = next((t.label for t in a.transitions if isinstance(t.label, Silent)), None)
    return ReducedMotionProduct(fold(a, silent), mp)
