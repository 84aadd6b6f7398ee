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
        leaves = []
        created = 1
        stack = [(0, 0, set(new), set(), set())]  # (id, leaves before it, new, old, next)
        while stack:
            idx, before, pending, old, nxt = stack.pop()
            while pending:
                f = min(pending, key=_key)
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
    """Counter construction; with no obligation sets every state accepts."""
    if not sets:
        ba = BuchiAutomaton(GUARD_MODE)
        for s in range(gba.n_states):
            ba.add_state(gba.state_tags[s])
        ba.initial = gba.initial
        ba.accepting = set(range(gba.n_states))
        for t in gba.transitions:
            ba.add_transition(t.src, t.label, t.dst)
        return ba
    k = len(sets)
    ba = BuchiAutomaton(GUARD_MODE)
    ids = {}

    def state_id(q, i):
        key = (q, i)
        if key not in ids:
            ids[key] = ba.add_state(key)
            if i == 0 and q in sets[0]:
                ba.accepting.add(ids[key])
        return ids[key]

    ba.initial = state_id(gba.initial, 0)
    work = [(gba.initial, 0)]
    seen = {(gba.initial, 0)}
    while work:
        q, i = work.pop()
        j = (i + 1) % k if q in sets[i] else i
        for tid in gba.out_transitions(q):
            t = gba.transitions[tid]
            key = (t.dst, j)
            ba.add_transition(state_id(q, i), t.label, state_id(t.dst, j))
            if key not in seen:
                seen.add(key)
                work.append(key)
    return ba
