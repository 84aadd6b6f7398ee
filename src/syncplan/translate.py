"""Formula-to-automaton translation.

On-the-fly tableau expansion into a generalized acceptance automaton, then
counter-based degeneralization into a plain Buchi automaton, followed by a
bisimulation quotient and co-accessibility pruning to keep sizes modest.
Transitions carry propositional guards, not exploded symbol subsets.
"""
from __future__ import annotations

from dataclasses import dataclass

from . import ltl
from .buchi import (
    GUARD_MODE,
    BuchiAutomaton,
    Guard,
    Transition,
    prune_non_coaccessible,
    quotient_bisimulation,
    reachable_fragment,
)


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
    old: frozenset
    next: frozenset


class _Tableau:
    """Node expansion over negation-normal-form formulas (Gerth et al. 1995).

    Expanding a node's `next` set into completed (old, next) leaves depends
    on that set alone, so each distinct set is expanded once (`_leaves`) and
    the leaves are replayed for every node that has it; completed nodes are
    found through an index on (old, next).  Node ids are those of the plain
    depth-first expansion, which numbers every node it creates, the dropped
    and merged ones included; they fix the order of `incoming`.
    """

    def __init__(self, root: ltl.Formula):
        self.nodes: list = []
        self.index: dict = {}  # (old, next) -> completed node
        self.memo: dict = {}  # new set -> (leaves, ids its expansion creates)
        # pending formulas are subformulas of the root, taken in text order
        self.text: dict = {}
        stack = [root]
        while stack:
            g = stack.pop()
            if g not in self.text:
                self.text[g] = _key(g)
                stack.extend(g.children)
        self._replay(frozenset((root,)))

    def _leaves(self, new: frozenset):
        """Completed leaves of one node whose pending formulas are `new`.

        Returns (leaves, ids created), counting the node itself as id 0.
        Each leaf is (old, next, its id, leaves completed before it was
        created, ids created before it completed), in completion order.
        """
        found = self.memo.get(new)
        if found is not None:
            return found
        text = self.text.__getitem__
        leaves = []
        created = 1
        stack = [(0, 0, set(new), set(), set())]  # (id, leaves before it, new, old, next)
        while stack:
            idx, before, pending, old, nxt = stack.pop()
            while pending:
                f = min(pending, key=text)
                pending.discard(f)
                if f in old:
                    continue
                if _is_literal(f):
                    if f.kind == ltl.FALSE or _negate_literal(f) in old:
                        break  # contradiction, drop this node
                    old.add(f)  # `true` included: fulfillment checks look it up
                    continue
                a = f.children[0]
                b = f.children[1] if len(f.children) > 1 else None
                old.add(f)
                if f.kind == ltl.AND:
                    pending |= {a, b} - old
                elif f.kind == ltl.NEXT:
                    nxt.add(a)
                elif f.kind == ltl.ALWAYS:
                    pending |= {a} - old
                    nxt.add(f)
                elif f.kind in (ltl.OR, ltl.UNTIL, ltl.RELEASE, ltl.EVENTUALLY):
                    if f.kind == ltl.RELEASE:
                        left, right = {b}, {a, b}
                    elif f.kind == ltl.EVENTUALLY:  # a or X F a
                        left, right = set(), {a}
                    else:
                        left, right = {a}, {b}
                    # two alternatives, created left first and expanded left first
                    right_new = pending | (right - old)
                    stack.append((created + 1, len(leaves), right_new, set(old), set(nxt)))
                    if f.kind != ltl.OR:
                        nxt.add(f)  # the left alternative postpones f
                    stack.append((created, len(leaves), pending | (left - old), old, nxt))
                    created += 2
                    break
                else:
                    raise ValueError(f"unexpected kind in normal form: {f.kind}")
            else:
                leaves.append((frozenset(old), frozenset(nxt), idx, before, created))
        found = self.memo[new] = (leaves, created)
        return found

    def _replay(self, root: frozenset):
        """Depth-first expansion from the initial node, ids as if node by node.

        A frame is [leaves, ids they create, parent id, first id, grown],
        where grown[i] counts the ids the successors of leaves 0..i-1 used.
        """
        leaves, created = self._leaves(root)
        stack = [[leaves, created, 0, 1, [0]]]  # node id 0 is the virtual initial node
        while stack:
            leaves, created, parent, start, grown = stack[-1]
            j = len(grown) - 1
            if j == len(leaves):
                stack.pop()
                if stack:
                    outer = stack[-1][4]
                    outer.append(outer[-1] + created + grown[-1])
                continue
            old, nxt, idx, before, used = leaves[j]
            node = self.index.get((old, nxt))
            if node is not None:
                node.incoming.add(parent)
                grown.append(grown[-1])
                continue
            node = _Node(start + idx + grown[before], {parent}, old, nxt)
            self.nodes.append(node)
            self.index[(old, nxt)] = node
            successors, succ_created = self._leaves(nxt)
            stack.append([successors, succ_created, node.nid, start + used + grown[j], [0]])


def _liveness_obligations(f: ltl.Formula):
    """Subformulas whose postponement must not last forever (until, eventually)."""
    seen = []
    stack = [f]
    visited = set()
    while stack:
        g = stack.pop()
        if g in visited:
            continue
        visited.add(g)
        if g.kind in (ltl.UNTIL, ltl.EVENTUALLY):
            seen.append(g)
        stack.extend(g.children)
    return sorted(seen, key=_key)


def _guard_of(node: _Node) -> Guard:
    pos = {g.name for g in node.old if g.kind == ltl.ATOM}
    neg = {g.children[0].name for g in node.old if g.kind == ltl.NOT}
    return Guard(frozenset(pos), frozenset(neg))


def translate(f: ltl.Formula) -> BuchiAutomaton:
    """Automaton over guard-labeled transitions accepting exactly models of f."""
    gba, sets = _generalized(ltl.to_nnf(f))
    ba = _degeneralize(gba, sets)
    ba = quotient_bisimulation(ba)
    ba = prune_non_coaccessible(ba)
    ba = reachable_fragment(ba)
    return ba


def _generalized(g: ltl.Formula):
    """Generalized automaton of an NNF formula and its acceptance sets.

    State 0 is initial, states 1.. are tableau nodes; the tableau is local
    here so that it is freed before degeneralization.
    """
    nodes = _Tableau(g).nodes
    ids = {0: 0}
    gba = BuchiAutomaton(GUARD_MODE)
    gba.add_state("init")
    for node in nodes:
        ids[node.nid] = gba.add_state(None)
    guards = {}  # equal guards share one object, so later lookups hit by identity
    for node in nodes:
        guard = _guard_of(node)
        guard = guards.setdefault(guard, guard)
        for src in sorted(node.incoming):
            if src in ids:
                gba.add_transition(ids[src], guard, ids[node.nid])
    gba = reachable_fragment(gba)

    sets = []
    for ob in _liveness_obligations(g):
        fulfilled = ob.children[-1]
        members = {0}
        for node in nodes:
            if ob not in node.old or fulfilled in node.old:
                members.add(ids[node.nid])
        sets.append(members)
    return gba, sets


def _degeneralize(gba: BuchiAutomaton, sets) -> BuchiAutomaton:
    """Counter construction; with no obligation sets every state accepts.

    States (q, i) are numbered in the order a depth-first walk from
    (initial, 0) first reaches them, and tagged with that pair.
    """
    ba = BuchiAutomaton(GUARD_MODE)
    if not sets:
        ba.state_tags.extend(gba.state_tags)
        ba.transitions.extend(gba.transitions)
        ba.initial = gba.initial
        ba.accepting = set(range(gba.n_states))
        return ba
    k = len(sets)
    # states and transitions are appended directly: nothing reads the
    # automaton's index while it is built
    tags, transitions, accepting = ba.state_tags, ba.transitions, ba.accepting
    start = (gba.initial, 0)
    ids = {start: 0}
    tags.append(start)
    if gba.initial in sets[0]:
        accepting.add(0)
    work = [start]
    while work:
        key = work.pop()
        src = ids[key]
        q, i = key
        j = (i + 1) % k if q in sets[i] else i
        for tid in gba.out_transitions(q):
            t = gba.transitions[tid]
            key2 = (t.dst, j)
            dst = ids.get(key2)
            if dst is None:
                dst = ids[key2] = len(tags)
                tags.append(key2)
                if j == 0 and t.dst in sets[0]:
                    accepting.add(dst)
                work.append(key2)
            transitions.append(Transition(src, t.label, dst))
    return ba
