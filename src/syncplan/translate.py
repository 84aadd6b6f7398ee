"""Formula-to-automaton translation.

On-the-fly tableau expansion (Gerth, Peled, Vardi & Wolper 1995) into a
generalized acceptance automaton; the tableau works on integer ids of the
root's subformulas.  The plain Buchi automaton is the forward bisimulation
quotient of the counter-based degeneralization, refined on (state, counter)
pairs over the generalized automaton's own edges, so the degeneralized
automaton is never built.  Co-accessibility pruning follows.
Transitions carry propositional guards, not exploded symbol subsets.
"""
from __future__ import annotations

from dataclasses import dataclass
from operator import add

from . import ltl
from .buchi import (
    GUARD_MODE,
    BuchiAutomaton,
    Guard,
    Transition,
    merge_tags,
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
    the leaves are replayed for every node that has it; completed nodes are
    found through an index on (old, next).  Node ids are those of the plain
    depth-first expansion, which numbers every node it creates, the dropped
    and merged ones included; they fix the order of `incoming`.  Nodes carry
    their old and next sets as formulas.
    """

    def __init__(self, root: ltl.Formula):
        self.nodes: list = []
        self.index: dict = {}  # (old ids, next ids) -> completed node
        self.memo: dict = {}  # new ids -> (leaves, ids its expansion creates)
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
        self._replay(frozenset((fid[root],)))

    def _leaves(self, new: frozenset):
        """Completed leaves of one node whose pending formula ids are `new`.

        Returns (leaves, ids created), counting the node itself as id 0.
        Each leaf is ((old, next), its id, leaves completed before it was
        created, ids created before it completed), in completion order.
        """
        found = self.memo.get(new)
        if found is not None:
            return found
        kind, children, complement = self.kind, self.children, self.complement
        leaves = []
        created = 1
        stack = [(0, 0, set(new), set(), set())]  # (id, leaves before it, new, old, next)
        while stack:
            idx, before, pending, old, nxt = stack.pop()
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
                    right_new = pending | (right - old)
                    stack.append((created + 1, len(leaves), right_new, set(old), set(nxt)))
                    if k != ltl.OR:
                        nxt.add(f)  # the left alternative postpones f
                    stack.append((created, len(leaves), pending | (left - old), old, nxt))
                    created += 2
                    break
                else:
                    raise ValueError(f"unexpected kind in normal form: {k}")
            else:
                leaves.append(((frozenset(old), frozenset(nxt)), idx, before, created))
        found = self.memo[new] = (leaves, created)
        return found

    def _replay(self, root: frozenset):
        """Depth-first expansion from the initial node, ids as if node by node.

        A frame is [leaves, ids they create, parent id, first id, grown],
        where grown[i] counts the ids the successors of leaves 0..i-1 used.
        """
        formula = self.formulas.__getitem__
        index = self.index
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
            node = index.get(leaves[j][0])
            if node is not None:
                node.incoming.add(parent)
                grown.append(grown[-1])
                continue
            key, idx, before, used = leaves[j]
            node = _Node(
                start + idx + grown[before],
                {parent},
                frozenset(map(formula, key[0])),
                frozenset(map(formula, key[1])),
            )
            self.nodes.append(node)
            index[key] = node
            successors, succ_created = self._leaves(key[1])
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
    return sorted(seen, key=ltl.formula_text)


def _guard_of(node: _Node) -> Guard:
    pos = {g.name for g in node.old if g.kind == ltl.ATOM}
    neg = {g.children[0].name for g in node.old if g.kind == ltl.NOT}
    return Guard(frozenset(pos), frozenset(neg))


def translate(f: ltl.Formula) -> BuchiAutomaton:
    """Automaton over guard-labeled transitions accepting exactly models of f."""
    gba, sets = _generalized(ltl.to_nnf(f))
    # the quotient is reachable as built, and pruning keeps every path from
    # the initial state to a kept state: no reachability pass is needed
    return prune_non_coaccessible(_degeneralized_quotient(gba, sets))


def _generalized(g: ltl.Formula):
    """Generalized automaton of an NNF formula and its acceptance sets.

    State 0 is initial, states 1.. are tableau nodes; the tableau is local
    here so that it is freed before the quotient is refined.  Every node has
    an edge from the node whose successors created it, so all are reachable.
    """
    nodes = _Tableau(g).nodes
    ids = {0: 0}
    gba = BuchiAutomaton(GUARD_MODE)
    gba.add_state("init")
    for node in nodes:
        ids[node.nid] = gba.add_state(None)
    guards = {}  # equal guards share one object, so later lookups hit by identity
    # transitions go straight into the list: nothing has read the index yet
    for node in nodes:
        guard = _guard_of(node)
        guard = guards.setdefault(guard, guard)
        dst = ids[node.nid]
        gba.transitions.extend(
            Transition(ids[src], guard, dst) for src in sorted(node.incoming) if src in ids
        )

    sets = []
    for ob in _liveness_obligations(g):
        fulfilled = ob.children[-1]
        members = {0}
        for node in nodes:
            if ob not in node.old or fulfilled in node.old:
                members.add(ids[node.nid])
        sets.append(members)
    return gba, sets


def _degeneralized_quotient(gba: BuchiAutomaton, sets) -> BuchiAutomaton:
    """Forward bisimulation quotient, respecting acceptance, of the counter
    construction on `gba` with obligation sets `sets`; the construction
    itself is not built.

    With no sets the counter automaton is `gba` with every state accepting.
    Otherwise its states are the pairs (q, i) reached from (initial, 0),
    numbered in the order a depth-first walk first reaches them.  A pair
    takes q's edges to counter j = i + 1 (mod k) if q is in set i, else
    j = i, and it accepts when i = 0 and q is in set 0.  Its transitions
    run pair by pair in the walk's pop order, each pair's in q's out-list
    order.

    Partition refinement (Kanellakis & Smolka 1990) runs on the pairs: a
    pair's signature is its block and the set of (label id, block of the
    successor) over q's out-list.  Blocks are numbered by their least pair.
    Only the quotient is created: states tagged as `rebuild` merges tags,
    one transition per (source, label, target) in the order of its first
    occurrence.  When no two pairs merge, the counter automaton itself is
    the result.
    """
    trans = gba.transitions
    outs = [gba.out_transitions(q) for q in range(gba.n_states)]
    label_ids = {}  # equal labels share one id
    lid = [label_ids.setdefault(t.label, len(label_ids)) for t in trans]
    dsts = [[trans[t].dst for t in out] for out in outs]
    lids = [[lid[t] for t in out] for out in outs]

    if sets:
        k = len(sets)
        pid = [[-1] * gba.n_states for _ in sets]  # pid[i][q]: id of pair (q, i)
        tags = [(gba.initial, 0)]  # pair id -> (q, i)
        to = [1 % k if gba.initial in sets[0] else 0]  # pair id -> counter j
        pid[0][gba.initial] = 0
        order = []  # pair ids in pop order
        work = [0]
        while work:
            p = work.pop()
            order.append(p)
            j = to[p]
            row = pid[j]
            for d in dsts[tags[p][0]]:
                if row[d] < 0:
                    row[d] = len(tags)
                    work.append(len(tags))
                    tags.append((d, j))
                    to.append((j + 1) % k if d in sets[j] else j)
        state = [q for q, _i in tags]
        accepting = [i == 0 and q in sets[0] for q, i in tags]
    else:
        pid = [list(range(gba.n_states))]
        tags = gba.state_tags
        to = [0] * gba.n_states
        order = None
        state = range(gba.n_states)
        accepting = [True] * gba.n_states
    n = len(tags)

    width = len(label_ids)
    block = [1 if acc else 0 for acc in accepting]
    count = len(set(block))
    while True:
        # width * block of pair (q, j), by j and q
        scaled = [[width * block[p] if p >= 0 else -1 for p in row] for row in pid]
        sigs = {}  # pairs go in ascending order: first seen is least member
        block = [
            sigs.setdefault(
                (block[p], frozenset(map(add, lids[q], map(scaled[to[p]].__getitem__, dsts[q])))),
                len(sigs),
            )
            for p, q in enumerate(state)
        ]
        if len(sigs) == count:
            break
        count = len(sigs)

    a = BuchiAutomaton(GUARD_MODE)
    a.initial = block[pid[0][gba.initial]]
    a.accepting = {block[p] for p in range(n) if accepting[p]}
    if count == n:  # nothing merges: the counter automaton itself
        a.state_tags.extend(tags)
        if order is None:
            a.transitions.extend(trans)
        else:
            for p in order:
                row = pid[to[p]]
                a.transitions.extend(
                    Transition(p, trans[t].label, row[trans[t].dst]) for t in outs[state[p]]
                )
        return a
    members = [[] for _ in range(count)]
    for p in range(n):
        members[block[p]].append(tags[p])
    a.state_tags.extend(map(merge_tags, members))
    if order is None:
        edges = ((t.src, tid) for tid, t in enumerate(trans))
    else:
        # every member of a block has the block's edges, so the block's first
        # popped member brings all of them, in the order they first occur
        first = {}
        for p in order:
            first.setdefault(block[p], p)
        edges = ((p, t) for p in first.values() for t in outs[state[p]])
    kept = set()
    for p, tid in edges:
        t = trans[tid]
        key = (block[p], lid[tid], block[pid[to[p]][t.dst]])
        if key not in kept:
            kept.add(key)
            a.transitions.append(Transition(key[0], t.label, key[2]))
    return a
