"""Unoptimized reductions kept as references for the differential tests.

`eliminate_by_pairs` is the pairwise state elimination that the motion
reduction's survivor search replaces; `segments_by_path_copying` is the
region walk that `taskprod._segments_from` replaces, copying the path at
every queued entry and reporting every arrival.  Both define the witnesses
the optimized code must reproduce exactly.
"""
from __future__ import annotations

from collections import deque

from syncplan.buchi import BuchiAutomaton, Witness
from syncplan.motion import (
    _chain,
    _eliminate_accepting,
    _in_order,
    _rebuild_from_bench,
    _Workbench,
)


def eliminate_by_pairs(a: BuchiAutomaton, significant, silent):
    """Phase one of the reduction by elimination; returns (workbench, alive).

    Non-accepting insignificant states are removed in state order; each
    removal concatenates every incoming witness with every outgoing one and
    keeps the least witness per (src, label, dst).
    """
    bench = _Workbench(a.n_states)
    for tid, t in enumerate(a.transitions):
        bench.put(t.src, t.label, t.dst, Witness((tid,), t.src, t.dst))
    alive = set(range(a.n_states))
    for p in range(a.n_states):
        if significant[p] or p in a.accepting:
            continue
        in_wits, out_wits, _loop = bench.snapshot(p, silent)
        bench.remove_state(p)
        alive.discard(p)
        for src, label in _in_order(in_wits):
            for dst in sorted(out_wits):
                bench.put(src, label, dst, _chain(in_wits[(src, label)], out_wits[dst]))
    return bench, alive


def eliminate_insignificant_states(a: BuchiAutomaton, significant, silent) -> BuchiAutomaton:
    """Drop-in for `motion.eliminate_insignificant_states` built on the pairs."""
    bench, alive = eliminate_by_pairs(a, significant, silent)
    _eliminate_accepting(bench, alive, a.accepting, significant, silent)
    return _rebuild_from_bench(a, bench, alive)


def segments_by_path_copying(a: BuchiAutomaton, significant, src_tid, reach):
    """Every arrival at a significant state behind one edge, with its path."""
    t = a.transitions[src_tid]
    segments = []
    absorb = None
    if significant[t.dst]:
        segments.append((t.dst, t.dst in a.accepting, (src_tid,)))
        return segments, absorb
    esc = reach.get(t.dst)
    if esc is not None:
        absorb = ((src_tid,) + esc[1], esc[2])
    start = (t.dst, t.dst in a.accepting)
    seen = {start}
    queue = deque([(start, (src_tid,))])
    while queue:
        (x, flag), path = queue.popleft()
        for tid in a.out_transitions(x):
            nxt = a.transitions[tid]
            if significant[nxt.dst]:
                segments.append((nxt.dst, flag or nxt.dst in a.accepting, path + (tid,)))
                continue
            key = (nxt.dst, flag or nxt.dst in a.accepting)
            if key in seen:
                continue
            seen.add(key)
            queue.append((key, path + (tid,)))
    return segments, absorb
