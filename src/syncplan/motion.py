"""Per-agent motion products and their silent-state elimination.

The motion product synchronizes an agent's transition system with its motion
specification automaton; transition labels become the action's service sets,
so everything the task stage needs survives while the state propositions are
compiled away.  Reduction keeps only states that can still provide services
(plus the initial state and the accepting states needed to preserve the
acceptance condition) and abbreviates the removed silent stretches into
single transitions, each remembering the exact path it stands for.

Reduction first decides the survivors, then folds once: each abbreviated
stretch is the least path of its kind, the shortest one, ties going to the
lexicographically smallest sequence of transition ids (`Witness.rank()`),
read off `buchi.least_segments`' backward tables, one sweep per survivor
and flag, with no fill-in between removed states.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .agents import AgentModel
from .buchi import (
    EXPLICIT_MODE,
    BuchiAutomaton,
    Silent,
    Witness,
    label_sort_key,
    least_segments,
    merge_duplicate_states,
    prune_non_coaccessible,
)


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
    with the action's service set or the agent's silent symbol.
    """
    ts = agent.ts
    product = BuchiAutomaton(EXPLICIT_MODE)
    ids = {}

    def state_id(s, q):
        key = (s, q)
        if key not in ids:
            ids[key] = product.add_state(key)
            if q in spec.accepting:
                product.accepting.add(ids[key])
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
            spec.transitions[tid].dst
            for tid in spec.out_transitions(q)
            if spec.transitions[tid].label.accepts(ts.labels[s])
        ]
        for action, s2 in ts.successors(s):
            label = agent.label_of(action)
            for q2 in spec_moves:
                key = (sid, label, (s2, q2))
                if key in edge_seen:
                    continue
                edge_seen.add(key)
                tid = product.add_transition(sid, label, state_id(s2, q2))
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
    significant = classify_significance(mp)
    reduced = eliminate_insignificant_states(mp.automaton, significant)
    reduced = prune_non_coaccessible(reduced)
    reduced = merge_duplicate_states(reduced)
    return ReducedMotionProduct(reduced, mp, significant)


def eliminate_insignificant_states(a: BuchiAutomaton, significant) -> BuchiAutomaton:
    """Remove insignificant states while preserving non-silent label sequences.

    The survivors come from `_survivors`.  A path that leaves survivor `u` by
    an `L`-labeled step and runs through removed states up to the first
    survivor `v` becomes the transition (u, L, v), which keeps the least such
    path by `Witness.rank()`: fewest steps, then the lexicographically
    smallest transition ids.  Removed states are insignificant, so every step
    after the first is silent; a mask that would remove a state with a
    non-silent exit raises `ValueError`.  Least paths under that order form
    a selective path algebra, so these are the witnesses that removing the
    states one at a time, chaining every entry with every exit, would keep
    (Tarjan, "Fast algorithms for solving path problems", JACM 1981);
    `least_segments` finds them in one fold.
    """
    if not significant[a.initial]:
        raise ValueError("the initial state must be significant")
    alive = _survivors(a, significant)
    for t in a.transitions:
        if t.src not in alive and not isinstance(t.label, Silent):
            raise ValueError(f"insignificant state {t.src} has a non-silent exit")
    segments = least_segments(a, [s in alive for s in range(a.n_states)])
    table = {}  # (u, label, v) -> least steps
    for u in alive:
        for tid in a.out_transitions(u):
            label = a.transitions[tid].label
            for v, _flag, steps in segments(tid):
                cur = table.get((u, label, v))
                if cur is None or (len(steps), steps) < (len(cur), cur):
                    table[(u, label, v)] = steps
    order = sorted(alive)
    remap = {old: new for new, old in enumerate(order)}
    b = BuchiAutomaton(a.mode)
    for old in order:
        b.add_state((old,))
    b.initial = remap[a.initial]
    b.accepting = {remap[s] for s in a.accepting if s in alive}
    for key in sorted(table, key=lambda k: (k[0], label_sort_key(k[1]), k[2])):
        src, label, dst = key
        tid = b.add_transition(remap[src], label, remap[dst])
        b.tr_witness[tid] = (Witness(table[key], src, dst),)
    return b


def _survivors(a: BuchiAutomaton, significant) -> set:
    """The states the motion reduction keeps.

    Significant states stay, and states neither significant nor accepting
    go.  Then, in ascending order, each accepting insignificant state goes
    unless a significant state enters it through removed states (the run
    may rest there), or it lies on a cycle through the states removed so far
    while one of its predecessors, the survivors entering it through removed
    states, does not: a predecessor's own cycle is the silent, accepting
    tail that the state's cycle offered.  The order matters, since each
    removal can close cycles and hide predecessors for the states after it.
    """
    removed = [not significant[s] and s not in a.accepting for s in range(a.n_states)]

    def beyond(starts, reverse=False):
        """Survivors that `starts` reach through removed states, or with
        `reverse`, survivors that reach `starts` through them."""
        found, seen, stack = set(), set(starts), list(starts)
        while stack:
            x = stack.pop()
            for tid in a.in_transitions(x) if reverse else a.out_transitions(x):
                t = a.transitions[tid]
                w = t.src if reverse else t.dst
                if not removed[w]:
                    found.add(w)
                elif w not in seen:
                    seen.add(w)
                    stack.append(w)
        return found

    # read before any accepting state goes: a significant state entering a
    # state through accepting ones keeps the first of them
    entered = beyond([s for s in range(a.n_states) if significant[s]])
    looping = set()  # removals only close cycles, never open them

    def loops(x):
        if x not in looping and x in beyond([x], reverse=True):
            looping.add(x)
        return x in looping

    for p in sorted(a.accepting):
        if significant[p] or p in entered:
            continue
        preds = beyond([p], reverse=True)  # `p` among them if it lies on a cycle
        if p in preds and not all(loops(q) for q in preds - {p}):
            continue
        removed[p] = True
    return {s for s in range(a.n_states) if not removed[s]}
