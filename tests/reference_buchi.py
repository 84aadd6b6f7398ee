"""Explicit-product lasso membership, kept as the reference for the
differential tests.

`check_lasso_membership` is the membership test before it searched the
product implicitly: it builds the synchronous product of the automaton and
the lasso-shaped word automaton as a `BuchiAutomaton`, then tests its
emptiness.  It raises `AlphabetMismatchError` only once a silent symbol
meets a guard on a reachable product state; the optimized function raises
it for any silent symbol fed to a guard-labeled automaton.
"""
from __future__ import annotations

from collections import deque

from syncplan.buchi import (
    EXPLICIT_MODE,
    GUARD_MODE,
    AlphabetMismatchError,
    BuchiAutomaton,
    Silent,
    language_empty,
)


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
    product = BuchiAutomaton(mode=EXPLICIT_MODE)
    ids = {}

    def state_id(pos, q):
        key = (pos, q)
        if key not in ids:
            ids[key] = product.add_state(key)
            if q in a.accepting:
                product.accepting.add(ids[key])
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
            product.add_transition(state_id(pos, q), True, state_id(nxt, t.dst))
            if key not in seen:
                seen.add(key)
                queue.append(key)
    return not language_empty(product)
