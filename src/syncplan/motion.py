"""Per-agent motion products and their silent-state elimination.

The motion product synchronizes an agent's transition system with its motion
specification automaton; transition labels become the action's service sets,
so everything the task stage needs survives while the state propositions are
compiled away.  Reduction keeps only states that can still provide services
(plus the initial state and the accepting states needed to preserve the
acceptance condition) and abbreviates the removed silent stretches into
single transitions, each remembering the exact path it stands for.

Each abbreviated stretch is the least path of its kind: the shortest one,
ties going to the lexicographically smallest sequence of transition ids
(`Witness.rank()`).  The stretches are found by one breadth-first search per
kept state and first label, so the cost grows with the number of kept states
times the size of the silent region, with no fill-in between removed states.
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
    least_paths,
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

    @property
    def silent(self) -> Silent:
        if self.agent is not None:
            return self.agent.silent
        for t in self.automaton.transitions:
            if isinstance(t.label, Silent):
                return t.label
        return Silent(0)


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
    reduced = eliminate_insignificant_states(mp.automaton, significant, mp.silent)
    reduced = prune_non_coaccessible(reduced)
    reduced = merge_duplicate_states(reduced)
    return ReducedMotionProduct(reduced, mp, significant)


class _Workbench:
    """Mutable transition table keyed by (src, label, dst) with best witnesses."""

    def __init__(self, n_states: int):
        self.table = {}
        self.outs = {s: set() for s in range(n_states)}
        self.ins = {s: set() for s in range(n_states)}

    def put(self, src, label, dst, witness):
        key = (src, label, dst)
        cur = self.table.get(key)
        if cur is None or witness.rank() < cur.rank():
            self.table[key] = witness
        self.outs[src].add((label, dst))
        self.ins[dst].add((src, label))

    def snapshot(self, state):
        """Incident witnesses of `state`, self-loops excluded."""
        in_wits = {}
        for src, label in self.ins[state]:
            if src != state:
                in_wits[(src, label)] = self.table[(src, label, state)]
        out_wits = {}
        for label, dst in self.outs[state]:
            if not isinstance(label, Silent):
                raise ValueError(f"insignificant state {state} has a non-silent exit")
            if dst != state:
                out_wits[dst] = self.table[(state, label, dst)]
        return in_wits, out_wits

    def remove_state(self, state):
        for src, label in list(self.ins[state]):
            self.table.pop((src, label, state), None)
            self.outs[src].discard((label, state))
        for label, dst in list(self.outs[state]):
            self.table.pop((state, label, dst), None)
            self.ins[dst].discard((state, label))
        self.outs[state] = set()
        self.ins[state] = set()


def _in_order(in_wits):
    return sorted(in_wits, key=lambda e: (e[0], label_sort_key(e[1])))


def eliminate_insignificant_states(
    a: BuchiAutomaton, significant, silent: Silent
) -> BuchiAutomaton:
    """Remove insignificant states while preserving non-silent label sequences.

    Survivors are the significant and the accepting states.  A path that
    leaves survivor `u` by an `L`-labeled step and runs through non-survivors
    up to the first survivor `v` becomes the transition (u, L, v), which keeps
    the least such path by `Witness.rank()`: fewest steps, then the
    lexicographically smallest transition ids.  (These are the bypasses that
    eliminating the non-survivors pairwise would keep.)  Accepting
    insignificant states whose remaining predecessors are all insignificant
    are eliminated next, in state order, unless the state has a silent
    self-loop that one of those predecessors lacks: a predecessor's own silent
    loop is the silent, accepting tail the removed state's loop offered, and
    without one the state stays.  Every surviving transition records the
    exact source-automaton path it abbreviates.
    """
    if not significant[a.initial]:
        raise ValueError("the initial state must be significant")
    alive = {s for s in range(a.n_states) if significant[s] or s in a.accepting}
    bench = _bypass_non_survivors(a, alive)
    _eliminate_accepting(bench, alive, a.accepting, significant, silent)
    return _rebuild_from_bench(a, bench, alive)


def _bypass_non_survivors(a: BuchiAutomaton, alive) -> _Workbench:
    """Least path per (survivor, first label, next survivor) as a workbench.

    The seeds of one (survivor, label) are its `label` steps in ascending id
    order; a seed ending at a survivor is a one-step path, and every other
    seed target enters one shared `least_paths` walk, credited to the first
    seed reaching it.  The walk's flags stay false because every accepting
    state survives.
    """
    bench = _Workbench(a.n_states)
    stop = [s in alive for s in range(a.n_states)]
    for u in sorted(alive):
        seeds = {}
        for tid in a.out_transitions(u):
            seeds.setdefault(a.transitions[tid].label, []).append(tid)
        for label, tids in seeds.items():
            first = {}  # non-survivor seed target -> first seed reaching it
            for tid in tids:
                x = a.transitions[tid].dst
                if stop[x]:
                    bench.put(u, label, x, Witness((tid,), u, x))
                else:
                    first.setdefault(x, tid)
            entries = [(x, False) for x in first]
            for v, _flag, (x, _), steps in least_paths(a, stop, entries):
                bench.put(u, label, v, Witness((first[x],) + steps, u, v))
    return bench


def _eliminate_accepting(bench: _Workbench, alive, accepting, significant, silent):
    """Remove accepting insignificant states no significant state enters,
    keeping those whose silent self-loop some predecessor does not have."""
    for p in sorted(alive):
        if significant[p] or p not in accepting:
            continue
        preds = {src for src, _label in bench.ins[p] if src != p}
        if any(significant[q] for q in preds):
            continue
        if (p, silent, p) in bench.table and any(
            (q, silent, q) not in bench.table for q in preds
        ):
            continue
        in_wits, out_wits = bench.snapshot(p)
        bench.remove_state(p)
        alive.discard(p)
        for src, label in _in_order(in_wits):
            if not isinstance(label, Silent):
                raise ValueError(f"insignificant state {src} has a non-silent exit")
            for dst in sorted(out_wits):
                bench.put(src, label, dst, _chain(in_wits[(src, label)], out_wits[dst]))


def _chain(w1: Witness, w2: Witness) -> Witness:
    if w1.dst != w2.src:
        raise ValueError(f"witnesses {w1} and {w2} do not chain")
    return Witness(w1.steps + w2.steps, w1.src, w2.dst)


def _rebuild_from_bench(a: BuchiAutomaton, bench: _Workbench, alive) -> BuchiAutomaton:
    order = sorted(alive)
    remap = {old: new for new, old in enumerate(order)}
    b = BuchiAutomaton(a.mode)
    for old in order:
        b.add_state((old,))
    b.initial = remap[a.initial]
    b.accepting = {remap[s] for s in a.accepting if s in alive}
    for src, label, dst in sorted(
        bench.table, key=lambda k: (k[0], label_sort_key(k[1]), k[2])
    ):
        if src not in alive or dst not in alive:
            continue
        tid = b.add_transition(remap[src], label, remap[dst])
        b.tr_witness[tid] = (bench.table[(src, label, dst)],)
    return b
