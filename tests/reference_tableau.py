"""Unoptimized translator kept as the reference for the differential tests.

`_Tableau` is the node expansion that expands every node's `next` set anew,
node by node, and looks completed nodes up by their (old, next) sets (the
text that orders pending formulas is computed once per formula).  The order
of the nodes and their incoming sets, with every node id renumbered by its
position in that order, define what the shared-expansion tableau must
reproduce.

`translate` is the translator before its acceptance moved onto the
tableau's edges: `_degeneralize` builds the counter construction, one state
per (tableau state, counter) pair and one acceptance set, met by the
transitions leaving an accepting pair, and `quotient_bisimulation` merges
its forward-bisimilar states through `quotient`, the class quotient that
collapses parallel duplicate transitions.  Its automata must accept what
the translator's accept, with at least as many states.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from syncplan import ltl
from syncplan.buchi import (
    GUARD_MODE,
    BuchiAutomaton,
    label_sort_key,
    prune_non_coaccessible,
    _bfs,
    rebuild,
)
from syncplan.translate import _guard_of, _liveness_obligations


@lru_cache(maxsize=None)
def _key(f: ltl.Formula) -> str:
    return ltl.formula_text(f)


def _is_literal(f: ltl.Formula) -> bool:
    if f.kind in (ltl.TRUE, ltl.FALSE, ltl.ATOM):
        return True
    return f.kind == ltl.NOT and f.children[0].kind == ltl.ATOM


def _negate_literal(f: ltl.Formula) -> ltl.Formula:
    if f.kind == ltl.NOT:
        return f.children[0]
    return ltl.lnot(f)


@dataclass
class _Node:
    nid: int
    incoming: set
    new: set
    old: set
    next: set


class _Tableau:
    """Node expansion over negation-normal-form formulas."""

    def __init__(self):
        self.nodes: list = []
        self.completed: dict = {}  # (old, next) -> the completed node holding them
        self.counter = 1  # node id 0 is the virtual initial node

    def fresh(self, incoming, new, old, nxt) -> _Node:
        node = _Node(self.counter, set(incoming), set(new), set(old), set(nxt))
        self.counter += 1
        return node

    def expand(self, node: _Node):
        stack = [node]
        while stack:
            cur = stack.pop()
            if not cur.new:
                key = (frozenset(cur.old), frozenset(cur.next))
                match = self.completed.get(key)
                if match is not None:
                    match.incoming |= cur.incoming
                    continue
                self.completed[key] = cur
                self.nodes.append(cur)
                stack.append(self.fresh({cur.nid}, cur.next, set(), set()))
                continue
            f = min(cur.new, key=_key)
            cur.new.discard(f)
            if f in cur.old:
                stack.append(cur)
                continue
            if _is_literal(f):
                if f.kind == ltl.FALSE or _negate_literal(f) in cur.old:
                    continue  # contradiction, drop this node
                cur.old.add(f)  # `true` included: fulfillment checks look it up
                stack.append(cur)
                continue
            a = f.children[0]
            b = f.children[1] if len(f.children) > 1 else None
            if f.kind == ltl.AND:
                cur.old.add(f)
                cur.new |= {a, b} - cur.old
                stack.append(cur)
            elif f.kind == ltl.NEXT:
                cur.old.add(f)
                cur.next.add(a)
                stack.append(cur)
            elif f.kind == ltl.ALWAYS:
                cur.old.add(f)
                cur.new |= {a} - cur.old
                cur.next.add(f)
                stack.append(cur)
            elif f.kind in (ltl.OR, ltl.UNTIL, ltl.RELEASE, ltl.EVENTUALLY):
                left = self.fresh(cur.incoming, cur.new, cur.old | {f}, cur.next)
                right = self.fresh(cur.incoming, cur.new, cur.old | {f}, cur.next)
                if f.kind == ltl.OR:
                    left.new |= {a} - left.old
                    right.new |= {b} - right.old
                elif f.kind == ltl.UNTIL:
                    left.new |= {a} - left.old
                    left.next.add(f)
                    right.new |= {b} - right.old
                elif f.kind == ltl.RELEASE:
                    left.new |= {b} - left.old
                    left.next.add(f)
                    right.new |= {x for x in (a, b)} - right.old
                else:  # eventually: a or X F a
                    left.next.add(f)
                    right.new |= {a} - right.old
                stack.append(right)
                stack.append(left)
            else:
                raise ValueError(f"unexpected kind in normal form: {f.kind}")


def reachable_fragment(a: BuchiAutomaton) -> BuchiAutomaton:
    dist, _ = _bfs(a, a.initial)
    keep = {s for s in range(a.n_states) if dist[s] is not None}
    if len(keep) == a.n_states:
        return a
    return rebuild(a, keep)


def tableau_nodes(g: ltl.Formula) -> list:
    """Completed nodes of the expansion of an NNF formula, in creation order."""
    tableau = _Tableau()
    tableau.expand(tableau.fresh({0}, {g}, set(), set()))
    return tableau.nodes


def _degeneralize(gba: BuchiAutomaton, sets) -> BuchiAutomaton:
    """Counter construction with one acceptance set, met by the transitions
    leaving an accepting pair; with no obligation sets every state accepts."""
    ba = BuchiAutomaton(GUARD_MODE, 1)
    if not sets:
        for s in range(gba.n_states):
            ba.add_state(gba.state_tags[s])
        ba.initial = gba.initial
        for t in gba.transitions:
            ba.add_transition(t.src, t.label, t.dst, 1)
        return ba
    k = len(sets)
    ids = {}

    def state_id(q, i):
        key = (q, i)
        if key not in ids:
            ids[key] = ba.add_state(key)
        return ids[key]

    ba.initial = state_id(gba.initial, 0)
    work = [(gba.initial, 0)]
    seen = {(gba.initial, 0)}
    while work:
        q, i = work.pop()
        j = (i + 1) % k if q in sets[i] else i
        accepting = int(i == 0 and q in sets[0])
        for tid in gba.out_transitions(q):
            t = gba.transitions[tid]
            key = (t.dst, j)
            ba.add_transition(state_id(q, i), t.label, state_id(t.dst, j), accepting)
            if key not in seen:
                seen.add(key)
                work.append(key)
    return ba


def quotient(a: BuchiAutomaton, class_of: dict) -> BuchiAutomaton:
    """Class quotient: one state per representative, in ascending order,
    tagged as the representative; `class_of` maps every state to its
    representative.  Parallel duplicate transitions (equal source, label,
    target and mask) collapse into their first."""
    keep = sorted(set(class_of.values()))
    remap = {old: new for new, old in enumerate(keep)}
    b = BuchiAutomaton(a.mode, a.sets)
    for old in keep:
        b.add_state(a.state_tags[old])
    b.initial = remap[class_of[a.initial]]
    seen = set()
    for t in a.transitions:
        key = (remap[class_of[t.src]], t.label, remap[class_of[t.dst]], t.mask)
        if key not in seen:
            seen.add(key)
            b.add_transition(*key)
    return b


def quotient_bisimulation(a: BuchiAutomaton) -> BuchiAutomaton:
    """Quotient by forward bisimulation respecting the transitions' marks;
    language-safe."""
    block = [0] * a.n_states
    while True:
        sigs = {}
        for s in range(a.n_states):
            items = frozenset(
                (
                    label_sort_key(a.transitions[t].label),
                    a.transitions[t].mask,
                    block[a.transitions[t].dst],
                )
                for t in a.out_transitions(s)
            )
            sigs.setdefault((block[s], items), []).append(s)
        new_block = [0] * a.n_states
        for i, (_, members) in enumerate(sorted(sigs.items(), key=lambda kv: min(kv[1]))):
            for s in members:
                new_block[s] = i
        if new_block == block:
            break
        block = new_block
    groups = {}
    for s in range(a.n_states):
        groups.setdefault(block[s], []).append(s)
    class_of = {}
    for members in groups.values():
        rep = min(members)
        for s in members:
            class_of[s] = rep
    if len(set(class_of.values())) == a.n_states:
        return a
    return quotient(a, class_of)


def translate(f: ltl.Formula, nodes=None) -> BuchiAutomaton:
    """Automaton over guard-labeled transitions accepting exactly models of f.

    `nodes`, when given, are the `tableau_nodes` of f's normal form.
    """
    g = ltl.to_nnf(f)
    if nodes is None:
        nodes = tableau_nodes(g)
    obligations = _liveness_obligations(g)

    # generalized automaton: state 0 is initial, states 1.. are tableau nodes
    ids = {0: 0}
    gba = BuchiAutomaton(GUARD_MODE)
    gba.add_state("init")
    for node in nodes:
        ids[node.nid] = gba.add_state(None)
    for node in nodes:
        guard = _guard_of(node)
        for src in sorted(node.incoming):
            if src in ids:
                gba.add_transition(ids[src], guard, ids[node.nid])
    gba = reachable_fragment(gba)

    sets = []
    for ob in obligations:
        fulfilled = ob.children[-1]
        members = {0}
        for node in nodes:
            if ob not in node.old or fulfilled in node.old:
                members.add(ids[node.nid])
        sets.append(members)
    ba = _degeneralize(gba, sets)
    ba = quotient_bisimulation(ba)
    ba = prune_non_coaccessible(ba)
    ba = reachable_fragment(ba)
    return ba
