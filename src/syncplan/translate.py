"""Formula-to-automaton translation.

On-the-fly tableau expansion (Gerth, Peled, Vardi & Wolper 1995) into a
generalized acceptance automaton; the tableau works on integer ids of the
root's subformulas.  Its acceptance moves from states onto the edges
entering them, as in Giannakopoulou & Lerda ("From states to transitions",
FORTE 2002), so no counter degeneralizes it; the result is the forward
bisimulation quotient of the marked tableau, pruned to the states that can
still accept.  Transitions carry propositional guards, not exploded symbol
subsets.
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
)


@dataclass
class _Node:
    nid: int
    incoming: set
    old: frozenset
    next: frozenset


class _Tableau:
    """Node expansion over negation-normal-form formulas (Gerth et al. 1995).

    Each subformula of the root has an integer id, in ascending order of its
    text, so the least pending id is the formula to expand next; kind,
    children and a literal's complement are looked up in tables by id.
    Expanding a node's `next` set into completed (old, next) leaves depends
    on that set alone, so each distinct set is expanded once (`_leaves`) and
    its leaves are reused for every node that has it; completed nodes are
    found through an index on (old, next).  Nodes are numbered 1, 2, ... as
    they complete, depth first, after the virtual initial node 0; the
    numbers fix the order of `incoming`.  Nodes carry their old and next
    sets as formulas.
    """

    def __init__(self, root: ltl.Formula):
        self.nodes: list = []
        self.index: dict = {}  # (old ids, next ids) -> completed node
        self.memo: dict = {}  # new ids -> its leaves
        text = {}
        stack = [root]
        while stack:
            g = stack.pop()
            if g not in text:
                text[g] = ltl.formula_text(g)
                stack.extend(g.children)
        self.formulas = sorted(text, key=text.__getitem__)
        fid = {g: i for i, g in enumerate(self.formulas)}
        self.kind = [g.kind for g in self.formulas]
        self.children = [  # (first, second), None where there is none
            tuple([fid[c] for c in g.children] + [None] * (2 - len(g.children)))
            for g in self.formulas
        ]
        # a literal's complement id, -1 when it is no subformula and so never
        # in `old`; None for formulas that are not literals
        self.complement = [None] * len(self.formulas)
        for i, g in enumerate(self.formulas):
            if g.kind in (ltl.TRUE, ltl.FALSE, ltl.ATOM):
                self.complement[i] = fid.get(ltl.lnot(g), -1)
            elif g.kind == ltl.NOT and g.children[0].kind == ltl.ATOM:
                self.complement[i] = fid[g.children[0]]
        self._expand(frozenset((fid[root],)))

    def _leaves(self, new: frozenset) -> list:
        """Completed (old, next) leaves of one node whose pending formula ids
        are `new`, in completion order."""
        found = self.memo.get(new)
        if found is not None:
            return found
        kind, children, complement = self.kind, self.children, self.complement
        leaves = []
        stack = [(set(new), set(), set())]  # (new, old, next)
        while stack:
            pending, old, nxt = stack.pop()
            while pending:
                f = min(pending)
                pending.discard(f)
                if f in old:
                    continue
                neg = complement[f]
                if neg is not None:
                    if kind[f] == ltl.FALSE or neg in old:
                        break  # contradiction, drop this node
                    old.add(f)  # `true` included: fulfillment checks look it up
                    continue
                k = kind[f]
                a, b = children[f]
                old.add(f)
                if k == ltl.AND:
                    pending |= {a, b} - old
                elif k == ltl.NEXT:
                    nxt.add(a)
                elif k == ltl.ALWAYS:
                    pending |= {a} - old
                    nxt.add(f)
                elif k in (ltl.OR, ltl.UNTIL, ltl.RELEASE, ltl.EVENTUALLY):
                    if k == ltl.RELEASE:
                        left, right = {b}, {a, b}
                    elif k == ltl.EVENTUALLY:  # a or X F a
                        left, right = set(), {a}
                    else:
                        left, right = {a}, {b}
                    # two alternatives, created left first and expanded left first
                    stack.append((pending | (right - old), set(old), set(nxt)))
                    if k != ltl.OR:
                        nxt.add(f)  # the left alternative postpones f
                    stack.append((pending | (left - old), old, nxt))
                    break
                else:
                    raise ValueError(f"unexpected kind in normal form: {k}")
            else:
                leaves.append((frozenset(old), frozenset(nxt)))
        self.memo[new] = leaves
        return leaves

    def _expand(self, root: frozenset):
        """Depth-first expansion from the virtual initial node: a leaf that
        completed before gains an incoming edge, a new one becomes the next
        node and has its successors expanded before the following leaf."""
        formula = self.formulas.__getitem__
        index = self.index
        stack = [(0, iter(self._leaves(root)))]
        while stack:
            parent, leaves = stack[-1]
            key = next(leaves, None)
            if key is None:
                stack.pop()
                continue
            node = index.get(key)
            if node is not None:
                node.incoming.add(parent)
                continue
            node = _Node(
                len(self.nodes) + 1,
                {parent},
                frozenset(map(formula, key[0])),
                frozenset(map(formula, key[1])),
            )
            self.nodes.append(node)
            index[key] = node
            stack.append((node.nid, iter(self._leaves(key[1]))))


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
    return sorted(seen, key=ltl.formula_text)


def _guard_of(node: _Node) -> Guard:
    pos = {g.name for g in node.old if g.kind == ltl.ATOM}
    neg = {g.children[0].name for g in node.old if g.kind == ltl.NOT}
    return Guard(frozenset(pos), frozenset(neg))


def translate(f: ltl.Formula) -> BuchiAutomaton:
    """Automaton over guard-labeled transitions accepting exactly models of
    f, with generalized acceptance on its transitions: one set per liveness
    obligation of f, or one set met by every transition when it has none."""
    gba, sets = _generalized(ltl.to_nnf(f))
    # the quotient is reachable as built, and pruning keeps every path from
    # the initial state to a kept state: no reachability pass is needed
    return prune_non_coaccessible(_marked_quotient(gba, sets))


def _generalized(g: ltl.Formula):
    """Generalized automaton of an NNF formula and its acceptance sets.

    State 0 is initial, state i is tableau node i; the tableau is local here
    so that it is freed before the quotient is refined.  Every node has an
    edge from the node whose successors created it, so all are reachable.
    """
    nodes = _Tableau(g).nodes
    gba = BuchiAutomaton(GUARD_MODE)
    gba.add_state("init")
    for _node in nodes:
        gba.add_state(None)
    guards = {}  # equal guards share one object, so later lookups hit by identity
    # transitions go straight into the list: nothing has read the index yet
    for node in nodes:
        guard = _guard_of(node)
        guard = guards.setdefault(guard, guard)
        gba.transitions.extend(Transition(src, guard, node.nid) for src in sorted(node.incoming))

    sets = []
    for ob in _liveness_obligations(g):
        fulfilled = ob.children[-1]
        members = {0}
        for node in nodes:
            if ob not in node.old or fulfilled in node.old:
                members.add(node.nid)
        sets.append(members)
    return gba, sets


def _marked_quotient(gba: BuchiAutomaton, sets) -> BuchiAutomaton:
    """Forward bisimulation quotient of `gba` with its acceptance moved onto
    its edges.

    An edge lies in set i when its target is in `sets[i]`, so a run meets
    every set infinitely often exactly when it visits every set infinitely
    often.  With no sets, one set holds every edge.  Partition refinement
    (Kanellakis & Smolka 1990) starts from one block; a state's signature
    is its block and the set of (label id, mask, block of the target) over
    its out-edges.  Blocks are numbered by their least state, whose tag they
    take.  The quotient has one transition per (block, label, mask, target
    block), in the order of first occurrence among `gba`'s transitions.
    """
    trans = gba.transitions
    n = gba.n_states
    k = max(len(sets), 1)
    if sets:
        member = [sum(1 << i for i, s in enumerate(sets) if q in s) for q in range(n)]
    else:
        member = [1] * n
    outs = [gba.out_transitions(q) for q in range(n)]
    label_ids = {}  # equal labels share one id
    lid = [label_ids.setdefault(t.label, len(label_ids)) for t in trans]
    # per out-edge, (label id, mask) as one int, and its target
    codes = [[lid[t] << k | member[trans[t].dst] for t in out] for out in outs]
    dsts = [[trans[t].dst for t in out] for out in outs]
    width = len(label_ids) << k

    block = [0] * n
    count = 1
    while True:
        sigs = {}  # states go in ascending order: first seen is least member
        block = [
            sigs.setdefault(
                (block[q], frozenset(c + width * block[d] for c, d in zip(codes[q], dsts[q]))),
                len(sigs),
            )
            for q in range(n)
        ]
        if len(sigs) == count:
            break
        count = len(sigs)

    a = BuchiAutomaton(GUARD_MODE, k)
    a.initial = block[gba.initial]
    for q in range(n):
        if block[q] == a.n_states:  # q is its block's least state
            a.state_tags.append(gba.state_tags[q])
    kept = set()
    for tid, t in enumerate(trans):
        key = (block[t.src], lid[tid], member[t.dst], block[t.dst])
        if key not in kept:
            kept.add(key)
            a.transitions.append(Transition(key[0], t.label, key[3], key[2]))
    return a
