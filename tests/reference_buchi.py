"""Explicit-product lasso membership, kept as the reference for the
differential tests, and the least accepting lasso of an automaton with its
structural check, the oracles that replay reduced automata.  The pipeline
itself never searches a lasso outside the global product, so these live
here rather than in `syncplan.buchi`.

`check_lasso_membership` is the membership test before it searched the
product implicitly: it builds the synchronous product of the automaton and
the lasso-shaped word automaton as a `BuchiAutomaton`, then tests its
emptiness.  It raises `AlphabetMismatchError` only once a silent symbol
meets a guard on a reachable product state; the optimized function raises
it for any silent symbol fed to a guard-labeled automaton.

`bfs` is the plain breadth-first search the tests and the other references
walk automata with, forward or backward and inside a set of states.
"""
from __future__ import annotations

from collections import deque

from syncplan.buchi import (
    EXPLICIT_MODE,
    GUARD_MODE,
    AlphabetMismatchError,
    BuchiAutomaton,
    Lasso,
    Silent,
    language_empty,
    strongly_connected_components,
)


def bfs(a: BuchiAutomaton, source: int, allowed=None, reverse=False):
    """Deterministic BFS; returns (dist, parent transition id) arrays."""
    out, inn = a._index()
    transitions = a.transitions
    n = a.n_states
    dist = [None] * n
    parent = [None] * n
    if allowed is not None and source not in allowed:
        return dist, parent
    dist[source] = 0
    queue = [source]
    for v in queue:
        d = dist[v] + 1
        for tid in (inn if reverse else out)[v]:
            t = transitions[tid]
            w = t.src if reverse else t.dst
            if dist[w] is None and (allowed is None or w in allowed):
                dist[w] = d
                parent[w] = tid
                queue.append(w)
    return dist, parent


def _label_matches(a: BuchiAutomaton, label, symbol) -> bool:
    if a.mode == GUARD_MODE:
        if isinstance(symbol, Silent):
            raise AlphabetMismatchError("silent symbol fed to a guard-labeled automaton")
        return label.accepts(symbol)
    return label == symbol


def check_lasso_membership(a: BuchiAutomaton, word) -> bool:
    """Does the automaton accept prefix . period^omega?

    Builds the synchronous product with the lasso-shaped word automaton and
    tests emptiness.
    """
    symbols = list(word.prefix) + list(word.period)
    n = len(symbols)
    loop_to = len(word.prefix)
    product = BuchiAutomaton(EXPLICIT_MODE, a.sets)
    ids = {}

    def state_id(pos, q):
        key = (pos, q)
        if key not in ids:
            ids[key] = product.add_state(key)
        return ids[key]

    start = state_id(0, a.initial)
    product.initial = start
    queue = deque([(0, a.initial)])
    seen = {(0, a.initial)}
    while queue:
        pos, q = queue.popleft()
        nxt = pos + 1 if pos + 1 < n else loop_to
        for tid in a.out_transitions(q):
            t = a.transitions[tid]
            if not _label_matches(a, t.label, symbols[pos]):
                continue
            key = (nxt, t.dst)
            product.add_transition(state_id(pos, q), True, state_id(nxt, t.dst), t.mask)
            if key not in seen:
                seen.add(key)
                queue.append(key)
    return not language_empty(product)


def accepting_lasso(a: BuchiAutomaton):
    """Least accepting lasso, or None when the language is empty.

    Acceptance is read off the transitions' marks.  The prefix is a
    shortest path into a component whose internal edges meet every set;
    among the states that near, the lasso takes the one with the shortest
    cycle through it meeting every set, ties going to the smaller state.
    All searches are breadth-first over ascending transition ids.
    """
    marks, full = [t.mask for t in a.transitions], (1 << a.sets) - 1
    comp, comps = strongly_connected_components(a)
    covered = {}
    for tid, t in enumerate(a.transitions):
        if comp[t.src] == comp[t.dst]:
            covered[comp[t.src]] = covered.get(comp[t.src], 0) | marks[tid]
    parent = {a.initial: None}
    order = [a.initial]
    for v in order:
        for tid in a.out_transitions(v):
            w = a.transitions[tid].dst
            if w not in parent:
                parent[w] = tid
                order.append(w)
    depth = {a.initial: 0}
    for v in order[1:]:
        depth[v] = depth[a.transitions[parent[v]].src] + 1
    candidates = [v for v in order if covered.get(comp[v]) == full]
    if not candidates:
        return None
    near = min(depth[v] for v in candidates)
    best = None
    for v in sorted(v for v in candidates if depth[v] == near):
        cycle = _covering_cycle(a, marks, full, set(comps[comp[v]]), v)
        if best is None or len(cycle) < len(best[1]):
            best = (v, cycle)
    v, cycle = best
    prefix = []
    while parent[v] is not None:
        prefix.append(parent[v])
        v = a.transitions[parent[v]].src
    lasso = Lasso(tuple(reversed(prefix)), cycle)
    validate_lasso(a, lasso)
    return lasso


def validate_lasso(a: BuchiAutomaton, lasso: Lasso):
    """Structural checks: contiguity, closed cycle, every acceptance set met.

    Raises ValueError naming the first check that fails.
    """
    marks, full = [t.mask for t in a.transitions], (1 << a.sets) - 1
    cur = a.initial
    for tid in lasso.prefix:
        t = a.transitions[tid]
        if t.src != cur:
            raise ValueError("prefix not contiguous")
        cur = t.dst
    start = cur
    if not lasso.cycle:
        raise ValueError("cycle must be nonempty")
    met = 0
    for tid in lasso.cycle:
        t = a.transitions[tid]
        if t.src != cur:
            raise ValueError("cycle not contiguous")
        cur = t.dst
        met |= marks[tid]
    if cur != start:
        raise ValueError("cycle not closed")
    if met != full:
        raise ValueError("cycle misses accepting states")


def _covering_cycle(a, marks, full, members, v):
    """Shortest cycle through `v` inside `members` meeting every set, by a
    breadth-first search over (state, sets met) pairs."""
    start = (v, 0)
    parent = {start: None}
    queue = deque([start])
    while queue:
        key = queue.popleft()
        for tid in a.out_transitions(key[0]):
            t = a.transitions[tid]
            nxt = (t.dst, key[1] | marks[tid])
            if t.dst in members and nxt not in parent:
                parent[nxt] = (key, tid)
                queue.append(nxt)
    key = (v, full)
    cycle = []
    while key != start:
        key, tid = parent[key]
        cycle.append(tid)
    return tuple(reversed(cycle))
